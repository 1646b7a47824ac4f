//! Offline stand-in for `serde`.
//!
//! Real serde's visitor architecture is far more than this workspace
//! needs, so this shim models serialization as conversion to and from an
//! owned [`Value`] tree (the same shape `serde_json` exposes). The
//! `Serialize`/`Deserialize` derive macros come from the sibling
//! `serde_derive` shim. The `derive` cargo feature exists for manifest
//! compatibility and is a no-op: the derives are always re-exported.
//! See `crates/shims/README.md` for why external crates are vendored.

#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "serde's API serializes HashMap, in its iteration order as real serde does; the workspace's bans are on its own code"
)]

// Lets the derive-generated `::serde::...` paths resolve inside this
// crate's own tests.
extern crate self as serde;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-like data tree; the interchange format for this shim.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (precision-preserving, see [`Number`]).
    Num(Number),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

/// A number that remembers whether it was an unsigned/signed integer or a
/// float, so `u64`/`i64` round-trip without precision loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    U(u64),
    /// Negative integer.
    I(i64),
    /// Floating point.
    F(f64),
}

impl Value {
    /// Returns the object entries if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Returns the elements if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the string if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Looks up a field in an object's entry list (first match wins).
pub fn find_field<'v>(entries: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Builds an error from any message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types convertible to a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn serialize(&self) -> Value;
}

/// Types reconstructible from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a [`Value`].
    fn deserialize(value: &Value) -> Result<Self, Error>;

    /// Called when a struct field is absent and has no `#[serde(default)]`.
    /// `Option<T>` overrides this to yield `None`; everything else errors.
    fn missing(field: &str) -> Result<Self, Error> {
        Err(Error::custom(format!("missing field `{field}`")))
    }
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

// ----------------------------------------------------------- primitives

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::Num(Number::U(*self as u64))
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                let v = *self as i64;
                if v >= 0 {
                    Value::Num(Number::U(v as u64))
                } else {
                    Value::Num(Number::I(v))
                }
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::Num(Number::F(*self))
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::Num(Number::F(*self as f64))
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

fn int_from(value: &Value, what: &str) -> Result<i128, Error> {
    match value {
        Value::Num(Number::U(u)) => Ok(*u as i128),
        Value::Num(Number::I(i)) => Ok(*i as i128),
        Value::Num(Number::F(f)) if f.fract() == 0.0 && f.abs() < 9.0e18 => Ok(*f as i128),
        other => Err(Error::custom(format!("expected {what}, got {other:?}"))),
    }
}

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let raw = int_from(value, stringify!($t))?;
                <$t>::try_from(raw)
                    .map_err(|_| Error::custom(format!(
                        "integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
de_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Num(Number::F(f)) => Ok(*f),
            Value::Num(Number::U(u)) => Ok(*u as f64),
            Value::Num(Number::I(i)) => Ok(*i as f64),
            other => Err(Error::custom(format!("expected f64, got {other:?}"))),
        }
    }
}

impl Deserialize for f32 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        f64::deserialize(value).map(|f| f as f32)
    }
}

impl Deserialize for bool {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Deserialize for String {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::custom(format!("expected string, got {other:?}"))),
        }
    }
}

// ----------------------------------------------------------- containers

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(inner) => inner.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }

    fn missing(_field: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::deserialize)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self) -> Value {
        Value::Array(vec![self.0.serialize(), self.1.serialize()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let items = value
            .as_array()
            .ok_or_else(|| Error::custom("expected 2-tuple array"))?;
        if items.len() != 2 {
            return Err(Error::custom(format!(
                "expected 2 elements, got {}",
                items.len()
            )));
        }
        Ok((A::deserialize(&items[0])?, B::deserialize(&items[1])?))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize(&self) -> Value {
        Value::Array(vec![
            self.0.serialize(),
            self.1.serialize(),
            self.2.serialize(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let items = value
            .as_array()
            .ok_or_else(|| Error::custom("expected 3-tuple array"))?;
        if items.len() != 3 {
            return Err(Error::custom(format!(
                "expected 3 elements, got {}",
                items.len()
            )));
        }
        Ok((
            A::deserialize(&items[0])?,
            B::deserialize(&items[1])?,
            C::deserialize(&items[2])?,
        ))
    }
}

// Maps serialize as arrays of `[key, value]` pairs. Unlike real serde this
// also applies to string keys — acceptable here because the workspace never
// JSON round-trips map-bearing types through external tooling.
impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(k, v)| Value::Array(vec![k.serialize(), v.serialize()]))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::custom("expected array of pairs for map"))?
            .iter()
            .map(<(K, V)>::deserialize)
            .collect()
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self) -> Value {
        Value::Array(
            self.iter()
                .map(|(k, v)| Value::Array(vec![k.serialize(), v.serialize()]))
                .collect(),
        )
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::custom("expected array for set"))?
            .iter()
            .map(T::deserialize)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::deserialize(&42u64.serialize()).unwrap(), 42);
        assert_eq!(i32::deserialize(&(-7i32).serialize()).unwrap(), -7);
        assert_eq!(f64::deserialize(&1.5f64.serialize()).unwrap(), 1.5);
        assert!(bool::deserialize(&true.serialize()).unwrap());
        assert_eq!(
            String::deserialize(&"hi".to_string().serialize()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn numbers_cross_convert() {
        // A float-typed field can be fed an integer literal.
        assert_eq!(f64::deserialize(&Value::Num(Number::U(3))).unwrap(), 3.0);
        // An integer field accepts an integral float.
        assert_eq!(u32::deserialize(&Value::Num(Number::F(9.0))).unwrap(), 9);
        assert!(u32::deserialize(&Value::Num(Number::F(9.5))).is_err());
        assert!(u8::deserialize(&Value::Num(Number::U(300))).is_err());
    }

    #[test]
    fn option_handles_null_and_missing() {
        assert_eq!(Option::<u32>::deserialize(&Value::Null).unwrap(), None);
        assert_eq!(
            Option::<u32>::deserialize(&Value::Num(Number::U(5))).unwrap(),
            Some(5)
        );
        assert_eq!(Option::<u32>::missing("x").unwrap(), None);
        assert!(u32::missing("x").is_err());
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::deserialize(&v.serialize()).unwrap(), v);

        let mut m = BTreeMap::new();
        m.insert(2u32, "b".to_string());
        m.insert(1u32, "a".to_string());
        assert_eq!(
            BTreeMap::<u32, String>::deserialize(&m.serialize()).unwrap(),
            m
        );

        let s: BTreeSet<i64> = [3, 1, 2].into_iter().collect();
        assert_eq!(BTreeSet::<i64>::deserialize(&s.serialize()).unwrap(), s);

        let pair = ("k".to_string(), 9u64);
        assert_eq!(
            <(String, u64)>::deserialize(&pair.serialize()).unwrap(),
            pair
        );
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Plain {
        id: u32,
        name: String,
        #[serde(default)]
        tags: Vec<String>,
        note: Option<String>,
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Wrapper(u64);

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    struct Pair(u32, String);

    #[derive(Serialize, Deserialize, Debug, PartialEq, Clone, Copy)]
    #[serde(rename_all = "snake_case")]
    enum Mode {
        DarkLaunch,
        FullRollout,
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq)]
    enum Shape {
        Flat,
        Point(u32),
        Pairwise(u32, u32),
        Region { x: f64, y: f64 },
    }

    #[test]
    fn derived_struct_round_trips() {
        let p = Plain {
            id: 7,
            name: "svc".into(),
            tags: vec!["a".into()],
            note: None,
        };
        assert_eq!(Plain::deserialize(&p.serialize()).unwrap(), p);
    }

    #[test]
    fn derived_struct_defaults_missing_fields() {
        let v = Value::Object(vec![
            ("id".to_string(), Value::Num(Number::U(1))),
            ("name".to_string(), Value::Str("x".to_string())),
        ]);
        let p = Plain::deserialize(&v).unwrap();
        assert!(p.tags.is_empty());
        assert_eq!(p.note, None);

        // Missing non-default, non-Option field is an error.
        let bad = Value::Object(vec![("id".to_string(), Value::Num(Number::U(1)))]);
        assert!(Plain::deserialize(&bad).is_err());
    }

    #[test]
    fn derived_newtype_and_tuple_round_trip() {
        let w = Wrapper(123);
        assert_eq!(w.serialize(), Value::Num(Number::U(123)));
        assert_eq!(Wrapper::deserialize(&w.serialize()).unwrap(), w);

        let pr = Pair(4, "four".into());
        assert_eq!(Pair::deserialize(&pr.serialize()).unwrap(), pr);
    }

    #[test]
    fn derived_enum_round_trips() {
        assert_eq!(
            Mode::DarkLaunch.serialize(),
            Value::Str("dark_launch".to_string())
        );
        for m in [Mode::DarkLaunch, Mode::FullRollout] {
            assert_eq!(Mode::deserialize(&m.serialize()).unwrap(), m);
        }
        for s in [
            Shape::Flat,
            Shape::Point(3),
            Shape::Pairwise(1, 2),
            Shape::Region { x: 0.5, y: -2.0 },
        ] {
            let again = Shape::deserialize(&s.serialize()).unwrap();
            assert_eq!(again, s);
        }
        assert!(Mode::deserialize(&Value::Str("warp".to_string())).is_err());
    }
}

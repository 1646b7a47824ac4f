//! Offline stand-in for `serde`, read side only.
//!
//! Real serde's visitor architecture is far more than this workspace
//! needs, so this shim models deserialization as conversion from an
//! owned [`Value`] tree (the same shape `serde_json` parses into). The
//! `Deserialize` derive comes from the sibling `serde_derive` shim. The
//! `derive` cargo feature exists for manifest compatibility and is a no-op:
//! the derive is always re-exported. Nothing in the workspace serializes
//! through serde; its JSON writers format by hand. See
//! `crates/shims/README.md` for why external crates are vendored.

#![forbid(unsafe_code)]

// Lets the derive-generated `::serde::...` paths resolve inside this
// crate's own tests.
extern crate self as serde;

use std::fmt;

pub use serde_derive::Deserialize;

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
/// float, so `u64`/`i64` survive parsing without precision loss.
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

/// Looks up a field in an object's entry list (first match wins; derived
/// types refuse a repeated key first, see [`refuse_unknown`]).
pub fn find_field<'v>(entries: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Refuses an object key that names none of `fields`, and a key given
/// twice: a misspelt optional field must fail, not silently take its
/// default, and of `"delta": 0.0, "delta": 80.0` neither value may win
/// silently.
pub fn refuse_unknown(entries: &[(String, Value)], fields: &[&str], ty: &str) -> Result<(), Error> {
    for (at, (key, _)) in entries.iter().enumerate() {
        if !fields.contains(&key.as_str()) {
            return Err(Error::custom(format!(
                "unknown field of {ty}, expected one of: {}",
                fields.join(", ")
            ))
            .in_field(key));
        }
        if entries.iter().take(at).any(|(earlier, _)| earlier == key) {
            return Err(Error::custom(format!("duplicate field of {ty}")).in_field(key));
        }
    }
    Ok(())
}

/// Deserialization error: a message and the path of the value it is about
/// (`changes[3].delay_minute`), built outward as the error propagates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    path: String,
    msg: String,
}

impl Error {
    /// Builds an error from any message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error {
            path: String::new(),
            msg: msg.to_string(),
        }
    }

    /// Places the error under the object key `key`.
    pub fn in_field(self, key: &str) -> Self {
        self.within(key.to_string())
    }

    /// Places the error under array element `index`.
    pub fn in_element(self, index: usize) -> Self {
        self.within(format!("[{index}]"))
    }

    fn within(mut self, segment: String) -> Self {
        let sep = if self.path.is_empty() || self.path.starts_with('[') {
            ""
        } else {
            "."
        };
        self.path = format!("{segment}{sep}{}", self.path);
        self
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.msg)
        } else {
            write!(f, "{}: {}", self.path, self.msg)
        }
    }
}

impl std::error::Error for Error {}

/// Types reconstructible from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a [`Value`].
    fn deserialize(value: &Value) -> Result<Self, Error>;
}

impl Deserialize for Value {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

// ----------------------------------------------------------- primitives

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
de_int!(u32, u64, usize);

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

impl Deserialize for String {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::custom(format!("expected string, got {other:?}"))),
        }
    }
}

// ----------------------------------------------------------- containers

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .enumerate()
            .map(|(i, v)| T::deserialize(v).map_err(|e| e.in_element(i)))
            .collect()
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value.as_array() {
            Some([a, b]) => Ok((
                A::deserialize(a).map_err(|e| e.in_element(0))?,
                B::deserialize(b).map_err(|e| e.in_element(1))?,
            )),
            _ => Err(Error::custom("expected a 2-element array")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(u: u64) -> Value {
        Value::Num(Number::U(u))
    }

    fn text(s: &str) -> Value {
        Value::Str(s.to_string())
    }

    fn object(entries: &[(&str, Value)]) -> Value {
        Value::Object(
            entries
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn primitives_deserialize() {
        assert_eq!(u64::deserialize(&num(42)).unwrap(), 42);
        assert_eq!(usize::deserialize(&num(7)).unwrap(), 7);
        assert_eq!(f64::deserialize(&Value::Num(Number::F(1.5))).unwrap(), 1.5);
        assert_eq!(f64::deserialize(&Value::Num(Number::I(-2))).unwrap(), -2.0);
        assert_eq!(String::deserialize(&text("hi")).unwrap(), "hi");
        assert!(String::deserialize(&num(1)).is_err());
        assert!(u64::deserialize(&Value::Num(Number::I(-1))).is_err());
        assert!(f64::deserialize(&Value::Null).is_err());
    }

    #[test]
    fn numbers_cross_convert() {
        // A float-typed field can be fed an integer literal.
        assert_eq!(f64::deserialize(&num(3)).unwrap(), 3.0);
        // An integer field accepts an integral float.
        assert_eq!(u32::deserialize(&Value::Num(Number::F(9.0))).unwrap(), 9);
        assert!(u32::deserialize(&Value::Num(Number::F(9.5))).is_err());
        assert!(u32::deserialize(&num(1 << 40)).is_err());
    }

    #[test]
    fn containers_deserialize() {
        let v = Value::Array(vec![num(1), num(2), num(3)]);
        assert_eq!(Vec::<u32>::deserialize(&v).unwrap(), vec![1, 2, 3]);
        assert!(Vec::<u32>::deserialize(&num(1)).is_err());

        let pair = Value::Array(vec![text("k"), num(9)]);
        assert_eq!(
            <(String, u64)>::deserialize(&pair).unwrap(),
            ("k".to_string(), 9)
        );
        let triple = Value::Array(vec![text("k"), num(9), num(1)]);
        assert!(<(String, u64)>::deserialize(&triple).is_err());
    }

    #[derive(Deserialize, Debug, PartialEq)]
    struct Plain {
        id: u32,
        name: String,
        #[serde(default)]
        tags: Vec<String>,
    }

    #[derive(Deserialize, Debug, PartialEq, Clone, Copy)]
    #[serde(rename_all = "snake_case")]
    enum Mode {
        DarkLaunch,
        FullRollout,
    }

    #[derive(Deserialize, Debug, PartialEq)]
    enum Shape {
        Flat,
        Point(u32),
        Region { x: f64, y: f64 },
    }

    #[test]
    fn derived_struct_round_trips() {
        // The object form a struct is written as reads back to every field.
        let full = object(&[
            ("id", num(7)),
            ("name", text("svc")),
            ("tags", Value::Array(vec![text("a")])),
        ]);
        let p = Plain::deserialize(&full).unwrap();
        assert_eq!(
            p,
            Plain {
                id: 7,
                name: "svc".into(),
                tags: vec!["a".into()]
            }
        );
    }

    #[test]
    fn derived_struct_defaults_missing_fields() {
        let sparse = object(&[("id", num(1)), ("name", text("x"))]);
        assert!(Plain::deserialize(&sparse).unwrap().tags.is_empty());

        // Missing non-default field is an error.
        let bad = object(&[("id", num(1))]);
        assert!(Plain::deserialize(&bad).is_err());
    }

    #[test]
    fn derived_types_refuse_unknown_keys_with_their_path() {
        let typo = Value::Array(vec![
            object(&[("id", num(1)), ("name", text("a"))]),
            object(&[("id", num(2)), ("nmae", text("b"))]),
        ]);
        assert_eq!(
            Vec::<Plain>::deserialize(&typo).unwrap_err().to_string(),
            "[1].nmae: unknown field of Plain, expected one of: id, name, tags"
        );
        let region = object(&[(
            "Region",
            object(&[("x", num(0)), ("y", num(1)), ("z", num(2))]),
        )]);
        assert_eq!(
            Shape::deserialize(&region).unwrap_err().to_string(),
            "Region.z: unknown field of Shape::Region, expected one of: x, y"
        );
        // A value of the wrong type keeps its path too.
        let pair = Value::Array(vec![text("k"), text("nine")]);
        let err = <(String, u64)>::deserialize(&pair).unwrap_err().to_string();
        assert!(err.starts_with("[1]: expected u64"), "{err}");
    }

    #[test]
    fn derived_types_refuse_a_repeated_key_with_its_path() {
        let twice = Value::Array(vec![object(&[
            ("id", num(1)),
            ("name", text("a")),
            ("id", num(2)),
        ])]);
        assert_eq!(
            Vec::<Plain>::deserialize(&twice).unwrap_err().to_string(),
            "[0].id: duplicate field of Plain"
        );
        let region = object(&[(
            "Region",
            object(&[("x", num(0)), ("y", num(1)), ("y", num(1))]),
        )]);
        assert_eq!(
            Shape::deserialize(&region).unwrap_err().to_string(),
            "Region.y: duplicate field of Shape::Region"
        );
    }

    #[test]
    fn derived_enum_reads_every_variant_shape() {
        assert_eq!(
            Mode::deserialize(&text("dark_launch")).unwrap(),
            Mode::DarkLaunch
        );
        assert_eq!(
            Mode::deserialize(&text("full_rollout")).unwrap(),
            Mode::FullRollout
        );
        assert!(Mode::deserialize(&text("warp")).is_err());

        assert_eq!(Shape::deserialize(&text("Flat")).unwrap(), Shape::Flat);
        assert_eq!(
            Shape::deserialize(&object(&[("Point", num(3))])).unwrap(),
            Shape::Point(3)
        );
        let region = object(&[(
            "Region",
            object(&[
                ("x", Value::Num(Number::F(0.5))),
                ("y", Value::Num(Number::I(-2))),
            ]),
        )]);
        assert_eq!(
            Shape::deserialize(&region).unwrap(),
            Shape::Region { x: 0.5, y: -2.0 }
        );
    }
}

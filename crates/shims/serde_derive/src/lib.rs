//! Offline stand-in for `serde_derive`.
//!
//! Derives the shim `serde::Deserialize` trait (which reads an owned
//! `serde::Value` tree) by parsing the item's token stream directly —
//! `syn`/`quote` are unavailable offline. Supported shapes are exactly what
//! this workspace reads: structs with named fields and enums with unit,
//! one-field tuple and struct variants; the `#[serde(default)]` field
//! attribute and the `#[serde(rename_all = "snake_case")]` container
//! attribute. Unlike real serde's default, a key that names no field is
//! refused (as under `#[serde(deny_unknown_fields)]`), so a misspelt
//! optional field fails instead of taking its default; every error carries
//! the path of the value it is about. Generics are not supported. See
//! `crates/shims/README.md`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Item {
    name: String,
    rename_snake: bool,
    kind: ItemKind,
}

#[derive(Debug)]
enum ItemKind {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Field {
    name: String,
    default: bool,
}

#[derive(Debug)]
struct Variant {
    name: String,
    shape: Shape,
}

#[derive(Debug)]
enum Shape {
    Unit,
    Newtype,
    Struct(Vec<Field>),
}

#[derive(Debug, Default)]
struct Attrs {
    rename_snake: bool,
    default: bool,
}

/// Derives the shim `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------- parsing

fn ident_text(t: &TokenTree) -> Option<String> {
    match t {
        TokenTree::Ident(i) => Some(i.to_string()),
        _ => None,
    }
}

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

fn consume_attrs(tokens: &[TokenTree], i: &mut usize, out: &mut Attrs) {
    while *i < tokens.len() && is_punct(&tokens[*i], '#') {
        *i += 1;
        let TokenTree::Group(g) = &tokens[*i] else {
            panic!("serde shim derive: expected [...] after #");
        };
        assert_eq!(
            g.delimiter(),
            Delimiter::Bracket,
            "expected #[...] attribute"
        );
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if inner.first().and_then(ident_text).as_deref() == Some("serde") {
            if let Some(TokenTree::Group(args)) = inner.get(1) {
                parse_serde_args(args.stream(), out);
            }
        }
        *i += 1;
    }
}

fn parse_serde_args(stream: TokenStream, out: &mut Attrs) {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut j = 0;
    while j < toks.len() {
        match ident_text(&toks[j]).as_deref() {
            Some("default") => {
                out.default = true;
                j += 1;
            }
            Some("rename_all") => {
                // rename_all = "snake_case"
                assert!(
                    j + 2 < toks.len() && is_punct(&toks[j + 1], '='),
                    "serde shim derive: malformed rename_all"
                );
                let style = toks[j + 2].to_string();
                assert!(
                    style.contains("snake_case"),
                    "serde shim derive: only rename_all = \"snake_case\" is supported, got {style}"
                );
                out.rename_snake = true;
                j += 3;
            }
            Some(other) => {
                panic!("serde shim derive: unsupported serde attribute `{other}`")
            }
            None => j += 1, // separators
        }
    }
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if tokens.get(*i).and_then(ident_text).as_deref() == Some("pub") {
        *i += 1;
        if let Some(TokenTree::Group(g)) = tokens.get(*i) {
            if g.delimiter() == Delimiter::Parenthesis {
                *i += 1;
            }
        }
    }
}

fn expect_ident(tokens: &[TokenTree], i: &mut usize, what: &str) -> String {
    let id = tokens
        .get(*i)
        .and_then(ident_text)
        .unwrap_or_else(|| panic!("serde shim derive: expected {what}"));
    *i += 1;
    id
}

/// Skips one field type, honouring `<...>` nesting; stops after the
/// top-level `,` (consumed) or at end of input.
fn skip_type(tokens: &[TokenTree], i: &mut usize) {
    let mut angle: i32 = 0;
    while *i < tokens.len() {
        match &tokens[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                *i += 1;
                return;
            }
            _ => {}
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < tokens.len() {
        let mut attrs = Attrs::default();
        consume_attrs(&tokens, &mut i, &mut attrs);
        skip_visibility(&tokens, &mut i);
        let name = expect_ident(&tokens, &mut i, "field name");
        assert!(
            is_punct(&tokens[i], ':'),
            "serde shim derive: expected `:` after field {name}"
        );
        i += 1;
        skip_type(&tokens, &mut i);
        fields.push(Field {
            name,
            default: attrs.default,
        });
    }
    fields
}

/// Whether a tuple body holds exactly one field (a trailing comma allowed).
fn is_one_field(stream: TokenStream) -> bool {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    skip_type(&tokens, &mut i);
    i > 0 && i == tokens.len()
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < tokens.len() {
        let mut attrs = Attrs::default();
        consume_attrs(&tokens, &mut i, &mut attrs);
        let name = expect_ident(&tokens, &mut i, "variant name");
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                assert!(
                    is_one_field(g.stream()),
                    "serde shim derive: tuple variant `{name}` must hold exactly one field"
                );
                Shape::Newtype
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Shape::Struct(parse_named_fields(g.stream()))
            }
            _ => Shape::Unit,
        };
        if i < tokens.len() && is_punct(&tokens[i], ',') {
            i += 1;
        }
        variants.push(Variant { name, shape });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut attrs = Attrs::default();
    consume_attrs(&tokens, &mut i, &mut attrs);
    skip_visibility(&tokens, &mut i);
    let kw = expect_ident(&tokens, &mut i, "`struct` or `enum`");
    let name = expect_ident(&tokens, &mut i, "item name");
    if tokens.get(i).map(|t| is_punct(t, '<')).unwrap_or(false) {
        panic!("serde shim derive: generic type `{name}` is not supported");
    }
    let kind = match kw.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                ItemKind::Struct(parse_named_fields(g.stream()))
            }
            _ => panic!("serde shim derive: `{name}` needs named fields"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                ItemKind::Enum(parse_variants(g.stream()))
            }
            _ => panic!("serde shim derive: malformed enum `{name}`"),
        },
        other => panic!("serde shim derive: cannot derive for `{other}` items"),
    };
    Item {
        name,
        rename_snake: attrs.rename_snake,
        kind,
    }
}

fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (idx, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if idx > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

fn variant_key(item: &Item, variant: &Variant) -> String {
    if item.rename_snake {
        snake_case(&variant.name)
    } else {
        variant.name.clone()
    }
}

// ------------------------------------------------------------- generation

/// Statements that read `fields` out of the object `obj` and return
/// `ty { … }`: a key that names no field is refused, and a missing field
/// takes its default or fails. `outer` is appended to every error (the
/// enclosing variant's `.in_field(…)`, or nothing).
fn gen_named_fields(fields: &[Field], obj: &str, ty: &str, outer: &str) -> String {
    let names: Vec<String> = fields.iter().map(|f| format!("\"{}\"", f.name)).collect();
    let refused = if outer.is_empty() {
        String::new()
    } else {
        format!(".map_err(|__e| __e{outer})")
    };
    let mut inits = String::new();
    for f in fields {
        let missing = if f.default {
            "::std::default::Default::default()".to_string()
        } else {
            format!(
                "return ::std::result::Result::Err(::serde::Error::custom(\
                 \"missing field `{ty}::{f}`\"){outer})",
                f = f.name
            )
        };
        inits.push_str(&format!(
            "{f}: match ::serde::find_field({obj}, \"{f}\") {{\n\
             ::std::option::Option::Some(__x) => ::serde::Deserialize::deserialize(__x)\
             .map_err(|__e| __e.in_field(\"{f}\"){outer})?,\n\
             ::std::option::Option::None => {missing},\n\
             }},\n",
            f = f.name
        ));
    }
    format!(
        "::serde::refuse_unknown({obj}, &[{}], \"{ty}\"){refused}?;\n\
         ::std::result::Result::Ok({ty} {{\n{inits}}})",
        names.join(", ")
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        ItemKind::Struct(fields) => {
            let read = gen_named_fields(fields, "__obj", name, "");
            format!(
                "let __obj = __v.as_object().ok_or_else(|| \
                 ::serde::Error::custom(\"expected object for {name}\"))?;\n{read}"
            )
        }
        ItemKind::Enum(variants) => {
            // Unit variants are bare strings; the others are one-entry
            // objects `{"Variant": payload}`.
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let key = variant_key(item, v);
                match &v.shape {
                    Shape::Unit => unit_arms.push_str(&format!(
                        "\"{key}\" => ::std::result::Result::Ok({name}::{v}),\n",
                        v = v.name
                    )),
                    Shape::Newtype => tagged_arms.push_str(&format!(
                        "\"{key}\" => ::std::result::Result::Ok({name}::{v}(\
                         ::serde::Deserialize::deserialize(__payload)\
                         .map_err(|__e| __e.in_field(\"{key}\"))?)),\n",
                        v = v.name
                    )),
                    Shape::Struct(fields) => {
                        let ctor = format!("{name}::{}", v.name);
                        let read = gen_named_fields(
                            fields,
                            "__inner",
                            &ctor,
                            &format!(".in_field(\"{key}\")"),
                        );
                        tagged_arms.push_str(&format!(
                            "\"{key}\" => {{\n\
                             let __inner = __payload.as_object().ok_or_else(|| \
                             ::serde::Error::custom(\"expected object payload for {ctor}\"))?;\n\
                             {read}\n}}\n"
                        ));
                    }
                }
            }
            let tagged = if tagged_arms.is_empty() {
                String::new()
            } else {
                format!(
                    "if let ::std::option::Option::Some([(__tag, __payload)]) = __v.as_object() {{\n\
                     return match __tag.as_str() {{\n{tagged_arms}\
                     _ => ::std::result::Result::Err(::serde::Error::custom(\
                     \"unknown variant for {name}\")),\n}};\n}}\n"
                )
            };
            format!(
                "if let ::std::option::Option::Some(__s) = __v.as_str() {{\n\
                 return match __s {{\n{unit_arms}\
                 _ => ::std::result::Result::Err(::serde::Error::custom(\
                 \"unknown variant for {name}\")),\n}};\n}}\n\
                 {tagged}\
                 ::std::result::Result::Err(::serde::Error::custom(\
                 \"unsupported encoding for enum {name}\"))"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         {body}\n}}\n}}\n"
    )
}

//! Offline stand-in for `serde_derive` (see `crates/compat/README.md`).
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` against
//! the stub `serde` crate's `Content` data model, with real-serde JSON
//! conventions: named structs become objects, newtype structs unwrap,
//! enums are externally tagged (`"Variant"` / `{"Variant": ...}`).
//!
//! The input is parsed directly from the `proc_macro` token stream (no
//! `syn`/`quote` — those are unavailable offline). Supported shapes are
//! exactly what this workspace uses: non-generic structs (named, tuple,
//! unit) and non-generic enums with unit, tuple and struct variants.
//! No `#[serde(..)]` attribute is supported: the derives do not register
//! `serde` as a helper attribute, so one is a compile error rather than
//! silently ignored.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Fields {
    Unit,
    Tuple(usize),
    /// Field names, in declaration order.
    Named(Vec<String>),
}

enum Data {
    Struct(Fields),
    Enum(Vec<(String, Fields)>),
}

struct Input {
    name: String,
    /// Type-parameter names, e.g. `["S"]` for `Line<S>`. Lifetimes and
    /// const parameters are not supported (unused in this workspace).
    generics: Vec<String>,
    data: Data,
}

impl Input {
    /// `impl<S: serde::Serialize> serde::Serialize for Line<S>`-style
    /// headers (or plain ones when the type is not generic).
    fn impl_header(&self, trait_path: &str) -> String {
        if self.generics.is_empty() {
            format!("impl {trait_path} for {}", self.name)
        } else {
            let bounded: Vec<String> = self
                .generics
                .iter()
                .map(|g| format!("{g}: {trait_path}"))
                .collect();
            format!(
                "impl<{}> {trait_path} for {}<{}>",
                bounded.join(", "),
                self.name,
                self.generics.join(", ")
            )
        }
    }
}

/// Splits a token list on top-level commas (angle-bracket aware, so
/// `Foo<A, B>` stays one chunk; parenthesized groups are single tokens).
fn split_top_level(tokens: Vec<TokenTree>) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut angle_depth = 0i32;
    for tt in tokens {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    out.push(std::mem::take(&mut cur));
                    continue;
                }
                _ => {}
            }
        }
        cur.push(tt);
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Strips leading `#[...]` attributes and a `pub` / `pub(...)` visibility
/// from a token chunk.
fn strip_attrs_and_vis(tokens: &[TokenTree]) -> &[TokenTree] {
    let mut i = 0;
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2, // '#' + [...]
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return &tokens[i..],
        }
    }
}

fn parse_named_fields(body: TokenStream) -> Vec<String> {
    split_top_level(body.into_iter().collect())
        .into_iter()
        .filter(|chunk| !chunk.is_empty())
        .map(|chunk| match strip_attrs_and_vis(&chunk).first() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde stub derive: expected field name, got {other:?}"),
        })
        .collect()
}

fn parse_tuple_arity(body: TokenStream) -> usize {
    split_top_level(body.into_iter().collect())
        .into_iter()
        .filter(|c| !c.is_empty())
        .count()
}

fn parse_variants(body: TokenStream) -> Vec<(String, Fields)> {
    split_top_level(body.into_iter().collect())
        .into_iter()
        .filter(|chunk| !chunk.is_empty())
        .map(|chunk| {
            let chunk = strip_attrs_and_vis(&chunk);
            let name = match chunk.first() {
                Some(TokenTree::Ident(id)) => id.to_string(),
                other => panic!("serde stub derive: expected variant name, got {other:?}"),
            };
            let fields = match chunk.get(1) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(parse_tuple_arity(g.stream()))
                }
                None => Fields::Unit,
                other => panic!("serde stub derive: unexpected token after variant: {other:?}"),
            };
            (name, fields)
        })
        .collect()
}

fn parse_input(input: TokenStream) -> Input {
    let mut iter = input.into_iter().peekable();
    // Skip outer attributes and visibility until the struct/enum keyword.
    let kw = loop {
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    break s;
                }
                // `pub` or `pub(...)`: the paren group is consumed below.
            }
            Some(TokenTree::Group(_)) => {} // the (...) of pub(crate)
            other => panic!("serde stub derive: unexpected token {other:?}"),
        }
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde stub derive: expected type name, got {other:?}"),
    };
    let mut generics = Vec::new();
    if matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        iter.next();
        let mut depth = 1i32;
        let mut params: Vec<TokenTree> = Vec::new();
        for tt in iter.by_ref() {
            if let TokenTree::Punct(p) = &tt {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            params.push(tt);
        }
        for chunk in split_top_level(params) {
            match chunk.first() {
                Some(TokenTree::Ident(id)) => generics.push(id.to_string()),
                other => {
                    panic!("serde stub derive: unsupported generic parameter on {name}: {other:?}")
                }
            }
        }
    }
    let data = if kw == "struct" {
        match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Struct(Fields::Named(parse_named_fields(g.stream())))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Data::Struct(Fields::Tuple(parse_tuple_arity(g.stream())))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Data::Struct(Fields::Unit),
            None => Data::Struct(Fields::Unit),
            other => panic!("serde stub derive: unexpected struct body {other:?}"),
        }
    } else {
        match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde stub derive: unexpected enum body {other:?}"),
        }
    };
    Input {
        name,
        generics,
        data,
    }
}

fn gen_serialize_fields(owner: &str, fields: &Fields) -> String {
    match fields {
        Fields::Unit => "serde::Content::Null".to_string(),
        Fields::Tuple(1) => "serde::Serialize::to_content(&self.0)".to_string(),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("serde::Serialize::to_content(&self.{i})"))
                .collect();
            format!("serde::Content::Seq(vec![{}])", items.join(", "))
        }
        Fields::Named(fields) => {
            let items: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!("(String::from(\"{f}\"), serde::Serialize::to_content(&self.{f}))")
                })
                .collect();
            let _ = owner;
            format!("serde::Content::Map(vec![{}])", items.join(", "))
        }
    }
}

fn derive_serialize_impl(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.data {
        Data::Struct(fields) => gen_serialize_fields(name, fields),
        Data::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, fields)| match fields {
                    Fields::Unit => format!(
                        "{name}::{v} => serde::Content::Str(String::from(\"{v}\")),"
                    ),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let inner = if *n == 1 {
                            "serde::Serialize::to_content(f0)".to_string()
                        } else {
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("serde::Serialize::to_content({b})"))
                                .collect();
                            format!("serde::Content::Seq(vec![{}])", items.join(", "))
                        };
                        format!(
                            "{name}::{v}({binds}) => serde::Content::Map(vec![(String::from(\"{v}\"), {inner})]),",
                            binds = binds.join(", ")
                        )
                    }
                    Fields::Named(fields) => {
                        let items: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!("(String::from(\"{f}\"), serde::Serialize::to_content({f}))")
                            })
                            .collect();
                        let binds: Vec<&str> = fields.iter().map(String::as_str).collect();
                        format!(
                            "{name}::{v} {{ {binds} }} => serde::Content::Map(vec![(String::from(\"{v}\"), serde::Content::Map(vec![{items}]))]),",
                            binds = binds.join(", "),
                            items = items.join(", ")
                        )
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "{header} {{\n\
             fn to_content(&self) -> serde::Content {{ {body} }}\n\
         }}",
        header = input.impl_header("serde::Serialize")
    )
}

fn gen_deserialize_named(owner: &str, path: &str, fields: &[String], src: &str) -> String {
    let inits: Vec<String> = fields
        .iter()
        .map(|f| {
            format!(
                "{f}: serde::Deserialize::from_content(serde::field({src}, \"{f}\"))\
                 .map_err(|e| e.context(\"{owner}.{f}\"))?"
            )
        })
        .collect();
    format!("{path} {{ {} }}", inits.join(", "))
}

fn derive_deserialize_impl(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.data {
        Data::Struct(Fields::Unit) => format!("Ok({name})"),
        Data::Struct(Fields::Tuple(1)) => {
            format!("Ok({name}(serde::Deserialize::from_content(c)?))")
        }
        Data::Struct(Fields::Tuple(n)) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("serde::Deserialize::from_content(&s[{i}])?"))
                .collect();
            format!(
                "let s = c.as_seq().ok_or_else(|| serde::Error::custom(\"{name}: expected array\"))?;\n\
                 if s.len() != {n} {{ return Err(serde::Error::custom(\"{name}: expected {n} elements\")); }}\n\
                 Ok({name}({items}))",
                items = items.join(", ")
            )
        }
        Data::Struct(Fields::Named(names)) => {
            let ctor = gen_deserialize_named(name, name, names, "m");
            format!(
                "let m = c.as_map().ok_or_else(|| serde::Error::custom(\"{name}: expected map\"))?;\n\
                 Ok({ctor})"
            )
        }
        Data::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|(_, f)| matches!(f, Fields::Unit))
                .map(|(v, _)| format!("\"{v}\" => return Ok({name}::{v}),"))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|(v, fields)| match fields {
                    Fields::Unit => None,
                    Fields::Tuple(1) => Some(format!(
                        "\"{v}\" => return Ok({name}::{v}(serde::Deserialize::from_content(v)\
                         .map_err(|e| e.context(\"{name}::{v}\"))?)),"
                    )),
                    Fields::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("serde::Deserialize::from_content(&s[{i}])?"))
                            .collect();
                        Some(format!(
                            "\"{v}\" => {{\n\
                               let s = v.as_seq().ok_or_else(|| serde::Error::custom(\"{name}::{v}: expected array\"))?;\n\
                               if s.len() != {n} {{ return Err(serde::Error::custom(\"{name}::{v}: expected {n} elements\")); }}\n\
                               return Ok({name}::{v}({items}));\n\
                             }}",
                            items = items.join(", ")
                        ))
                    }
                    Fields::Named(fields) => {
                        let ctor = gen_deserialize_named(
                            name,
                            &format!("{name}::{v}"),
                            fields,
                            "vm",
                        );
                        Some(format!(
                            "\"{v}\" => {{\n\
                               let vm = v.as_map().ok_or_else(|| serde::Error::custom(\"{name}::{v}: expected map\"))?;\n\
                               return Ok({ctor});\n\
                             }}"
                        ))
                    }
                })
                .collect();
            let mut code = String::new();
            if !unit_arms.is_empty() {
                code.push_str(&format!(
                    "if let Some(s) = c.as_str() {{\n\
                       match s {{ {} _ => {{}} }}\n\
                     }}\n",
                    unit_arms.join(" ")
                ));
            }
            if !data_arms.is_empty() {
                code.push_str(&format!(
                    "if let Some(m) = c.as_map() {{\n\
                       if m.len() == 1 {{\n\
                         let (k, v) = &m[0];\n\
                         match k.as_str() {{ {} _ => {{}} }}\n\
                       }}\n\
                     }}\n",
                    data_arms.join(" ")
                ));
            }
            code.push_str(&format!(
                "Err(serde::Error::custom(\"{name}: unknown or malformed variant\"))"
            ));
            code
        }
    };
    format!(
        "{header} {{\n\
             fn from_content(c: &serde::Content) -> Result<Self, serde::Error> {{\n\
                 #[allow(unused_variables)] let c = c;\n\
                 {body}\n\
             }}\n\
         }}",
        header = input.impl_header("serde::Deserialize")
    )
}

/// Derives the stub `serde::Serialize` for a non-generic struct or enum.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    derive_serialize_impl(&parsed)
        .parse()
        .expect("serde stub derive: generated code parses")
}

/// Derives the stub `serde::Deserialize` for a non-generic struct or enum.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    derive_deserialize_impl(&parsed)
        .parse()
        .expect("serde stub derive: generated code parses")
}

//! Offline stand-in for the `serde` crate (see `crates/compat/README.md`).
//!
//! Instead of serde's visitor-based data model, this stub serializes
//! through a small JSON-shaped [`Content`] tree. The public surface the
//! workspace relies on is identical: the `Serialize` / `Deserialize`
//! traits and the derive macros of the same names.
//!
//! The derives honor no `#[serde(..)]` attribute, so one is a compile
//! error rather than silently ignored:
//!
//! ```compile_fail
//! #[derive(serde::Deserialize)]
//! struct Telemetry {
//!     #[serde(rename = "us")]
//!     micros: u64,
//! }
//! ```
//!
//! ```
//! #[derive(serde::Deserialize)]
//! struct Telemetry {
//!     micros: u64,
//! }
//! ```

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;

/// A JSON-shaped value tree — the stub's serialization data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Content>),
    /// Object, with field order preserved.
    Map(Vec<(String, Content)>),
}

impl Content {
    /// Borrows the object entries, if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Content)]> {
        match self {
            Content::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Borrows the elements, if this is an array.
    pub fn as_seq(&self) -> Option<&[Content]> {
        match self {
            Content::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Borrows the string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Content::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    /// Creates an error with the given message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }

    /// Prefixes the message with a location (used by derived code).
    pub fn context(self, at: &str) -> Self {
        Error(format!("{at}: {}", self.0))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A type that can be rendered into a [`Content`] tree.
pub trait Serialize {
    /// Converts `self` into the data-model tree.
    fn to_content(&self) -> Content;
}

/// A type that can be rebuilt from a [`Content`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds a value from the data-model tree.
    ///
    /// # Errors
    ///
    /// Returns an error when the tree does not have the expected shape.
    fn from_content(c: &Content) -> Result<Self, Error>;
}

static NULL: Content = Content::Null;

/// Looks up a field of an object; missing fields read as `null` (so
/// `Option` fields deserialize to `None`, as with real serde_json).
pub fn field<'a>(m: &'a [(String, Content)], name: &str) -> &'a Content {
    m.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .unwrap_or(&NULL)
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, Error> {
                let v = match *c {
                    Content::U64(v) => v,
                    Content::I64(v) if v >= 0 => v as u64,
                    _ => return Err(Error::custom(concat!("expected ", stringify!($t)))),
                };
                <$t>::try_from(v).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                let v = *self as i64;
                if v >= 0 { Content::U64(v as u64) } else { Content::I64(v) }
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, Error> {
                let v = match *c {
                    Content::U64(v) => i64::try_from(v)
                        .map_err(|_| Error::custom("integer out of range"))?,
                    Content::I64(v) => v,
                    _ => return Err(Error::custom(concat!("expected ", stringify!($t)))),
                };
                <$t>::try_from(v).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_content(c: &Content) -> Result<Self, Error> {
        match *c {
            Content::F64(v) => Ok(v),
            Content::U64(v) => Ok(v as f64),
            Content::I64(v) => Ok(v as f64),
            _ => Err(Error::custom("expected f64")),
        }
    }
}

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_content(c: &Content) -> Result<Self, Error> {
        f64::from_content(c).map(|v| v as f32)
    }
}

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, Error> {
        c.as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::custom("expected string"))
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, Error> {
        c.as_seq()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_content)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_content(&self) -> Content {
        Content::Seq(vec![self.0.to_content(), self.1.to_content()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_content(c: &Content) -> Result<Self, Error> {
        match c.as_seq() {
            Some([a, b]) => Ok((A::from_content(a)?, B::from_content(b)?)),
            _ => Err(Error::custom("expected 2-element array")),
        }
    }
}

impl Serialize for Content {
    fn to_content(&self) -> Content {
        self.clone()
    }
}

impl Deserialize for Content {
    fn from_content(c: &Content) -> Result<Self, Error> {
        Ok(c.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_content(&42u32.to_content()), Ok(42));
        assert_eq!(i64::from_content(&(-7i64).to_content()), Ok(-7));
        assert_eq!(bool::from_content(&true.to_content()), Ok(true));
        assert_eq!(
            String::from_content(&"hi".to_string().to_content()),
            Ok("hi".into())
        );
        assert_eq!(Option::<u8>::from_content(&Content::Null), Ok(None));
        assert_eq!(
            Vec::<u8>::from_content(&vec![1u8, 2].to_content()),
            Ok(vec![1, 2])
        );
        assert_eq!(
            <(u32, usize)>::from_content(&(3u32, 4usize).to_content()),
            Ok((3, 4))
        );
    }

    #[test]
    fn missing_field_reads_as_null() {
        let m = vec![("a".to_string(), Content::U64(1))];
        assert_eq!(field(&m, "b"), &Content::Null);
        assert_eq!(Option::<u8>::from_content(field(&m, "b")), Ok(None));
    }

    #[test]
    fn wrong_shape_errors() {
        assert!(u8::from_content(&Content::U64(300)).is_err());
        assert!(u32::from_content(&Content::Str("x".into())).is_err());
        assert!(bool::from_content(&Content::U64(1)).is_err());
    }
}

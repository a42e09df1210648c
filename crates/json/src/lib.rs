//! BigHouse's JSON codec.
//!
//! BigHouse runs from JSON files: experiment configs, workload models, the
//! checkpoints a resumable run writes and the frames its slave processes
//! send the master. This crate is the one codec they all go through. It
//! has no dependencies.
//!
//! - [`Value`] is a JSON tree whose objects keep insertion order.
//! - [`parse`] is a recursive-descent parser with a nesting limit of 128
//!   levels; every failure is a typed [`Error`] carrying the byte
//!   offset it was found at.
//! - [`ToJson`] writes a value straight into a `String`; [`FromJson`]
//!   reads one back from a [`Value`]. [`json_struct!`], [`json_enum!`] and
//!   [`json_newtype!`] implement both for a type from its field list.
//!
//! # The wire rules
//!
//! - **Floats.** A finite `f64` prints with `{:?}`, the shortest text that
//!   reads back to the same bits (`0.1`, `1.0`, `1e-7`), and is valid
//!   JSON. Infinities and NaN print as the strings `"inf"`, `"-inf"` and
//!   `"NaN"`, which are read back only where an `f64` is expected, so every
//!   `f64` but a NaN's payload round-trips bit for bit and every file stays
//!   JSON that `jq` reads.
//! - **Overflow.** A number literal beyond the `f64` range, such as
//!   `1e999`, is [`ErrorKind::NumberOutOfRange`], not infinity.
//! - **Field order.** A struct prints its fields in declaration order.
//! - **Unknown keys** are ignored on read, so a file from an older or newer
//!   build that carries a retired key still loads.
//! - **Maps** are `BTreeMap<String, _>` only: a map prints in key order, so
//!   the same value always prints the same bytes. `HashMap` has no impl.
//!
//! # Examples
//!
//! ```
//! use bighouse_json::{json_struct, from_str, to_string};
//!
//! #[derive(Debug, PartialEq)]
//! struct Point {
//!     x: f64,
//!     label: Option<String>,
//!     tags: Vec<String>,
//! }
//! json_struct!(Point {
//!     x,
//!     label,
//!     tags = Vec::new(); skip_if Vec::is_empty,
//! });
//!
//! let p = Point { x: f64::INFINITY, label: None, tags: Vec::new() };
//! let text = to_string(&p);
//! assert_eq!(text, r#"{"x":"inf","label":null}"#);
//! assert_eq!(from_str::<Point>(&text).unwrap(), p);
//! // Unknown keys are ignored; an absent `Option` is `None`.
//! assert_eq!(from_str::<Point>(r#"{"x":1,"retired":true}"#).unwrap().x, 1.0);
//! assert!(from_str::<Point>("[1e999]").is_err());
//! ```

#![warn(missing_docs, missing_debug_implementations)]

mod impls;
mod macros;
mod parse;
mod value;
mod write;

use std::fmt;

pub use macros::object;
#[doc(hidden)]
pub use macros::{__enum_parts, __variant_tag};
pub use parse::parse;
use parse::MAX_DEPTH;
pub use value::{Map, Number, Value};
pub use write::{write_str, ObjectWriter};

/// Writes a value as compact JSON.
pub trait ToJson {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// Reads a value from a parsed JSON tree.
pub trait FromJson: Sized {
    /// Reads `value`, or says why it cannot.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Expected`] for a value of the wrong JSON type
    /// and whatever the type's own validation refuses.
    fn from_json(value: &Value) -> Result<Self, Error>;

    /// What a struct field of this type reads as when its key is absent:
    /// `None` makes the field required. `Option` overrides it, so an
    /// absent optional field is `None`.
    fn absent() -> Option<Self> {
        None
    }
}

/// What went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// The text ended inside a value.
    UnexpectedEnd,
    /// A byte that no JSON value, separator or escape allows here.
    Syntax(&'static str),
    /// A number literal beyond the `f64` range, such as `1e999`.
    NumberOutOfRange,
    /// Arrays and objects nested deeper than 128 levels.
    DepthLimit,
    /// Non-whitespace after the top-level value.
    TrailingCharacters,
    /// A value of the wrong JSON type: what was expected.
    Expected(&'static str),
    /// A required field was absent.
    MissingField(&'static str),
    /// An enum tag no variant carries.
    UnknownVariant(String),
    /// A well-formed value its type refuses, with the type's reason.
    Invalid(String),
}

/// A typed codec error: what went wrong, the byte offset a syntax error was
/// found at, and the field path a value error was found under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    kind: ErrorKind,
    offset: Option<usize>,
    path: String,
}

impl Error {
    /// An error of `kind` with no position.
    #[must_use]
    pub fn new(kind: ErrorKind) -> Self {
        Error {
            kind,
            offset: None,
            path: String::new(),
        }
    }

    /// A [`ErrorKind::Invalid`] error carrying `reason`.
    pub fn invalid(reason: impl fmt::Display) -> Self {
        Self::new(ErrorKind::Invalid(reason.to_string()))
    }

    pub(crate) fn at(kind: ErrorKind, offset: usize) -> Self {
        Error {
            kind,
            offset: Some(offset),
            path: String::new(),
        }
    }

    /// The error, found under field or variant `name` of the value being
    /// read.
    #[must_use]
    pub fn within(mut self, name: &str) -> Self {
        self.path = if self.path.is_empty() || self.path.starts_with('[') {
            format!("{name}{}", self.path)
        } else {
            format!("{name}.{}", self.path)
        };
        self
    }

    /// What went wrong.
    #[must_use]
    pub fn kind(&self) -> &ErrorKind {
        &self.kind
    }

    /// The byte offset of a syntax error.
    #[must_use]
    pub fn offset(&self) -> Option<usize> {
        self.offset
    }

    /// The dotted field path a value error was found under (empty at the
    /// top level).
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorKind::UnexpectedEnd => f.write_str("unexpected end of input"),
            ErrorKind::Syntax(what) => write!(f, "syntax error: {what}"),
            ErrorKind::NumberOutOfRange => f.write_str("number out of range"),
            ErrorKind::DepthLimit => write!(f, "nested deeper than {MAX_DEPTH}"),
            ErrorKind::TrailingCharacters => f.write_str("trailing characters"),
            ErrorKind::Expected(what) => write!(f, "expected {what}"),
            ErrorKind::MissingField(name) => write!(f, "missing field `{name}`"),
            ErrorKind::UnknownVariant(tag) => write!(f, "unknown variant `{tag}`"),
            ErrorKind::Invalid(reason) => f.write_str(reason),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if !self.path.is_empty() {
            write!(f, " at `{}`", self.path)?;
        }
        if let Some(offset) = self.offset {
            write!(f, " at byte {offset}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Error {}

/// `value` as compact JSON.
#[must_use]
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// `value` as compact JSON bytes.
#[must_use]
pub fn to_vec<T: ToJson + ?Sized>(value: &T) -> Vec<u8> {
    to_string(value).into_bytes()
}

/// `value` as JSON indented by two spaces per level, one member per line.
#[must_use]
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    write::pretty(&to_string(value))
}

/// `value` as a [`Value`] tree.
///
/// # Errors
///
/// Returns [`ErrorKind::DepthLimit`] if `value` nests deeper than 128
/// levels.
pub fn to_value<T: ToJson + ?Sized>(value: &T) -> Result<Value, Error> {
    parse(&to_string(value))
}

/// Parses `text` and reads a `T` from it.
///
/// # Errors
///
/// Returns the parser's error for malformed text and `T`'s for a value it
/// refuses.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    T::from_json(&parse(text)?)
}

/// Parses `bytes` and reads a `T` from them.
///
/// # Errors
///
/// As [`from_str`]; bytes that are not UTF-8 inside a string are a syntax
/// error.
pub fn from_slice<T: FromJson>(bytes: &[u8]) -> Result<T, Error> {
    T::from_json(&parse::parse_slice(bytes)?)
}

/// Reads a `T` from a [`Value`] tree.
///
/// # Errors
///
/// As [`FromJson::from_json`].
pub fn from_value<T: FromJson>(value: &Value) -> Result<T, Error> {
    T::from_json(value)
}

/// Reads field `name` of `object`: its value if present, `T::absent()`
/// otherwise. [`json_struct!`] calls this for a field without a default.
///
/// # Errors
///
/// [`ErrorKind::MissingField`] for an absent required field, or the
/// field's own error under its name.
pub fn field<T: FromJson>(object: &Map, name: &'static str) -> Result<T, Error> {
    match object.get(name) {
        Some(value) => T::from_json(value).map_err(|e| e.within(name)),
        None => T::absent().ok_or_else(|| Error::new(ErrorKind::MissingField(name))),
    }
}

/// Reads field `name` of `object`, or `default()` when it is absent.
/// [`json_struct!`] calls this for a field with `= default`.
///
/// # Errors
///
/// The field's own error under its name.
pub fn field_or<T: FromJson>(
    object: &Map,
    name: &'static str,
    default: impl FnOnce() -> T,
) -> Result<T, Error> {
    match object.get(name) {
        Some(value) => T::from_json(value).map_err(|e| e.within(name)),
        None => Ok(default()),
    }
}

//! The JSON tree.

use std::fmt;
use std::ops::Index;

use crate::{write, Error, FromJson, ToJson};

/// A JSON number as it was written: a non-negative integer, a negative
/// integer, or a finite float. An integer literal outside `i64`/`u64`
/// reads as a float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// An integer literal in `0..=u64::MAX`.
    PosInt(u64),
    /// A negative integer literal in `i64::MIN..0`.
    NegInt(i64),
    /// Any other literal: finite by construction.
    Float(f64),
}

impl Number {
    /// The number as an `f64`, rounded to nearest for a wide integer.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        match self {
            Number::PosInt(n) => n as f64,
            Number::NegInt(n) => n as f64,
            Number::Float(x) => x,
        }
    }

    /// The number as a `u64`, if it is an integer literal in range.
    #[must_use]
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::PosInt(n) => Some(n),
            _ => None,
        }
    }
}

/// The members of a JSON object, in the order they were written.
///
/// A key written twice keeps both members; [`Map::get`] and every reader
/// see the last, as most JSON readers do.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    members: Vec<(String, Value)>,
}

impl Map {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The value of the last member named `key`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.members
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The value of the last member named `key`, mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.members
            .iter_mut()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Sets member `key`: replaces the last member of that name in place,
    /// or appends one.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        match self.members.iter_mut().rev().find(|(k, _)| *k == key) {
            Some((_, slot)) => *slot = value,
            None => self.members.push((key, value)),
        }
    }

    /// Members in written order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.members.iter().map(|(k, v)| (k, v))
    }

    /// Member names in written order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.members.iter().map(|(k, _)| k)
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the object has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Map {
            members: iter.into_iter().collect(),
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

/// What [`Index`] returns for an absent member or element.
static NULL: Value = Value::Null;

impl Value {
    /// Member `key` of an object; `None` for an absent member or a
    /// non-object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|map| map.get(key))
    }

    /// The value, if it is a boolean.
    #[must_use]
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value, if it is an integer in `u64` range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The elements, mutably, if the value is an array.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if the value is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// The members, mutably, if the value is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl Index<&str> for Value {
    type Output = Value;

    /// Member `key`, or `null` if it is absent or this is not an object.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;

    /// Element `i`, or `null` if it is absent or this is not an array.
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

impl fmt::Display for Value {
    /// The value as compact JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::to_string(self))
    }
}

impl ToJson for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::Number(Number::PosInt(n)) => n.write_json(out),
            Value::Number(Number::NegInt(n)) => n.write_json(out),
            Value::Number(Number::Float(x)) => write::write_f64(out, *x),
            Value::String(s) => write::write_str(out, s),
            Value::Array(items) => items.write_json(out),
            Value::Object(map) => {
                let mut object = write::ObjectWriter::new(out);
                for (key, value) in map.iter() {
                    object.field(key, value);
                }
                object.end();
            }
        }
    }
}

impl FromJson for Value {
    fn from_json(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

//! `ToJson`/`FromJson` for the std types BigHouse serializes.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::{write, Error, ErrorKind, FromJson, Number, ToJson, Value};

fn expected(what: &'static str) -> Error {
    Error::new(ErrorKind::Expected(what))
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

macro_rules! integers {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }

        impl FromJson for $t {
            fn from_json(value: &Value) -> Result<Self, Error> {
                let n = match value {
                    Value::Number(Number::PosInt(n)) => <$t>::try_from(*n).ok(),
                    Value::Number(Number::NegInt(n)) => <$t>::try_from(*n).ok(),
                    _ => None,
                };
                n.ok_or_else(|| expected(concat!("an integer in `", stringify!($t), "` range")))
            }
        }
    )*};
}

integers!(u8, u32, u64, usize, i32, i64);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        write::write_f64(out, *self);
    }
}

impl FromJson for f64 {
    /// A number, or one of the strings `"inf"`, `"-inf"` and `"NaN"` that
    /// the non-finite values print as.
    fn from_json(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Number(n) => Ok(n.as_f64()),
            Value::String(s) => match s.as_str() {
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                "NaN" => Ok(f64::NAN),
                _ => Err(expected("a number, \"inf\", \"-inf\" or \"NaN\"")),
            },
            _ => Err(expected("a number")),
        }
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(value: &Value) -> Result<Self, Error> {
        value.as_bool().ok_or_else(|| expected("a boolean"))
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write::write_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write::write_str(out, self);
    }
}

impl FromJson for String {
    fn from_json(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| expected("a string"))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            value => T::from_json(value).map(Some),
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Value) -> Result<Self, Error> {
        let items = value.as_array().ok_or_else(|| expected("an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.within(&format!("[{i}]"))))
            .collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(value: &Value) -> Result<Self, Error> {
        Vec::<T>::from_json(value)?
            .try_into()
            .map_err(|_| Error::new(ErrorKind::Expected("an array of the declared length")))
    }
}

impl<T: ToJson + ?Sized> ToJson for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(value: &Value) -> Result<Self, Error> {
        T::from_json(value).map(Box::new)
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &Value) -> Result<Self, Error> {
        match value.as_array().map(Vec::as_slice) {
            Some([a, b]) => Ok((
                A::from_json(a).map_err(|e| e.within("[0]"))?,
                B::from_json(b).map_err(|e| e.within("[1]"))?,
            )),
            _ => Err(expected("an array of two")),
        }
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn write_json(&self, out: &mut String) {
        let mut object = write::ObjectWriter::new(out);
        for (key, value) in self {
            object.field(key, value);
        }
        object.end();
    }
}

impl<T: FromJson> FromJson for BTreeMap<String, T> {
    fn from_json(value: &Value) -> Result<Self, Error> {
        let object = value.as_object().ok_or_else(|| expected("an object"))?;
        object
            .iter()
            .map(|(key, value)| Ok((key.clone(), T::from_json(value).map_err(|e| e.within(key))?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{from_str, to_string};

    use super::*;

    #[test]
    fn integers_are_range_checked() {
        assert_eq!(from_str::<u8>("255").unwrap(), 255);
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<u64>("-1").is_err());
        assert!(from_str::<u64>("1.0").is_err());
        assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        assert_eq!(from_str::<u64>(&to_string(&u64::MAX)).unwrap(), u64::MAX);
    }

    #[test]
    fn floats_read_integers_and_the_non_finite_strings() {
        assert_eq!(from_str::<f64>("3").unwrap(), 3.0);
        assert_eq!(from_str::<f64>("\"inf\"").unwrap(), f64::INFINITY);
        assert_eq!(from_str::<f64>("\"-inf\"").unwrap(), f64::NEG_INFINITY);
        assert!(from_str::<f64>("\"NaN\"").unwrap().is_nan());
        assert!(from_str::<f64>("\"Infinity\"").is_err());
        assert!(from_str::<String>("1").is_err());
    }

    #[test]
    fn containers_round_trip() {
        let map: BTreeMap<String, Vec<(f64, Option<bool>)>> = [
            ("b".to_string(), vec![(1.5, None)]),
            (
                "a".to_string(),
                vec![(-0.0, Some(true)), (f64::INFINITY, Some(false))],
            ),
        ]
        .into();
        let text = to_string(&map);
        assert_eq!(
            text,
            r#"{"a":[[-0.0,true],["inf",false]],"b":[[1.5,null]]}"#
        );
        assert_eq!(
            from_str::<BTreeMap<String, Vec<(f64, Option<bool>)>>>(&text).unwrap(),
            map
        );
        assert_eq!(from_str::<[u64; 2]>("[1,2]").unwrap(), [1, 2]);
        assert!(from_str::<[u64; 2]>("[1]").is_err());
    }

    #[test]
    fn errors_name_the_path() {
        let err = from_str::<BTreeMap<String, Vec<u8>>>(r#"{"k":[1,"x"]}"#).unwrap_err();
        assert_eq!(err.path(), "k[1]");
        assert_eq!(
            err.to_string(),
            "expected an integer in `u8` range at `k[1]`"
        );
    }
}

//! Properties of the codec at its trust boundary: whatever it prints reads
//! back as the same value, and no byte string makes it panic.

use bighouse_des::check::{check, Gen};
use bighouse_json::{
    from_slice, parse, to_string, to_string_pretty, ErrorKind, Map, Number, Value,
};

/// Finite floats of every class the printer must get right: both zeros,
/// subnormals, the extremes, and any finite bit pattern.
fn finite_f64(g: &mut Gen) -> f64 {
    const EDGES: [f64; 6] = [0.0, -0.0, f64::MIN_POSITIVE, 5e-324, f64::MAX, -f64::MAX];
    match g.range(0..4) {
        0 => EDGES[g.range(0..EDGES.len())],
        1 => f64::from_bits(g.range(0..1u64 << 52)), // subnormal or zero
        _ => loop {
            let x: f64 = g.any();
            if x.is_finite() {
                break x;
            }
        },
    }
}

fn number(g: &mut Gen) -> Number {
    match g.range(0..3) {
        0 => Number::PosInt(g.any()),
        1 => Number::NegInt(-1 - (g.any::<u64>() >> 1) as i64),
        _ => Number::Float(finite_f64(g)),
    }
}

/// A random tree at most `depth` containers deep.
fn value(g: &mut Gen, depth: usize) -> Value {
    let kinds = if depth == 0 { 4 } else { 6 };
    match g.range(0..kinds) {
        0 => Value::Null,
        1 => Value::Bool(g.any()),
        2 => Value::Number(number(g)),
        3 => Value::String(g.any_string(0..12)),
        4 => Value::Array(g.vec(0..5, |g| value(g, depth - 1))),
        _ => {
            let members = g.vec(0..5, |g| (g.any_string(0..8), value(g, depth - 1)));
            // One member per key, so equality is of the written members.
            let mut map = Map::new();
            for (key, value) in members {
                map.insert(key, value);
            }
            Value::Object(map)
        }
    }
}

#[test]
fn print_then_parse_is_the_identity_on_values() {
    check("print_then_parse_is_the_identity_on_values", 512, |g| {
        let v = value(g, 4);
        let text = to_string(&v);
        assert_eq!(parse(&text).unwrap(), v, "{text}");
        assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v, "{text}");
    });
}

#[test]
fn every_f64_round_trips_bit_for_bit() {
    const HAZARDS: [f64; 5] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0, 5e-324];
    check("every_f64_round_trips_bit_for_bit", 2048, |g| {
        let x = match g.range(0..4) {
            0 => HAZARDS[g.range(0..HAZARDS.len())],
            1 => finite_f64(g),
            _ => g.any(),
        };
        let text = to_string(&x);
        let back: f64 = bighouse_json::from_str(&text).unwrap();
        if x.is_nan() {
            assert!(back.is_nan(), "{text}");
        } else {
            assert_eq!(back.to_bits(), x.to_bits(), "{x:?} printed as {text}");
        }
        // Non-finite values are strings only where a float is expected.
        assert_eq!(x.is_finite(), parse(&text).unwrap().as_f64().is_some());
    });
}

/// Any bytes at all: a value or a typed error, never a panic.
#[test]
fn random_bytes_are_a_value_or_a_typed_error() {
    check("random_bytes_are_a_value_or_a_typed_error", 1024, |g| {
        let bytes: Vec<u8> = g.vec(0..64, Gen::any);
        let _ = from_slice::<Value>(&bytes);
    });
}

/// Every strict prefix of a printed container is an error, and so is
/// nearly every single-byte corruption of it; none panics.
#[test]
fn truncated_and_corrupted_documents_are_typed_errors() {
    check(
        "truncated_and_corrupted_documents_are_typed_errors",
        512,
        |g| {
            let v = Value::Array(vec![value(g, 3), value(g, 3)]);
            let text = to_string(&v);
            let cut = g.range(0..text.len());
            let err = from_slice::<Value>(&text.as_bytes()[..cut]).expect_err("a strict prefix");
            assert!(err.offset().is_some(), "{err}");

            let mut bytes = text.into_bytes();
            let at = g.range(0..bytes.len());
            bytes[at] ^= 1 << g.range(0..8u32);
            let _ = from_slice::<Value>(&bytes);
        },
    );
}

#[test]
fn a_nesting_bomb_is_a_depth_error() {
    for open in ["[", "{\"a\":"] {
        let bomb = open.repeat(100_000);
        let err = parse(&bomb).unwrap_err();
        assert_eq!(err.kind(), &ErrorKind::DepthLimit);
    }
    let closed = "[".repeat(100_000) + &"]".repeat(100_000);
    assert_eq!(parse(&closed).unwrap_err().kind(), &ErrorKind::DepthLimit);
}

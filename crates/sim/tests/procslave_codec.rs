//! Property-based fuzzing of the master↔slave frame codec: for any
//! payload, any truncation point, and any single bit flip, the decoder
//! must either return the exact original frame or a typed
//! [`SimError::Frame`] — never panic, never silently accept corruption.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};

use bighouse_sim::procslave::{read_frame, write_frame};
use bighouse_sim::SimError;

/// A stand-in payload exercising nested structure, strings, floats, and
/// optional fields — the same serde surface the real protocol frames use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Payload {
    slave: usize,
    incarnation: u32,
    events: u64,
    label: String,
    moments: Vec<f64>,
    note: Option<String>,
}

fn payload_strategy() -> impl Strategy<Value = Payload> {
    (
        any::<usize>(),
        any::<u32>(),
        any::<u64>(),
        // Strings exercise JSON escaping; keep them printable-ish but
        // include quotes/backslashes via the regex class.
        "[ -~]{0,64}",
        proptest::collection::vec(-1e12f64..1e12, 0..8),
        proptest::option::of("[ -~]{0,16}"),
    )
        .prop_map(
            |(slave, incarnation, events, label, moments, note)| Payload {
                slave,
                incarnation,
                events,
                label,
                moments,
                note,
            },
        )
}

fn encode(payload: &Payload) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, payload).expect("encoding to a Vec cannot fail");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip: whatever goes in comes out bit-identical, and the
    /// stream position lands exactly on the next frame boundary.
    #[test]
    fn roundtrip_is_exact(payload in payload_strategy()) {
        let buf = encode(&payload);
        let mut cursor = &buf[..];
        let back: Payload = read_frame(&mut cursor)
            .expect("valid frame decodes")
            .expect("one frame present");
        prop_assert_eq!(back, payload);
        // The decoder consumed the whole frame: a second read is a clean
        // end-of-stream, not garbage.
        prop_assert!(read_frame::<_, Payload>(&mut cursor).expect("clean EOF").is_none());
    }

    /// Truncation at any interior byte is a typed error; truncation at
    /// byte zero is a clean end-of-stream.
    #[test]
    fn any_truncation_is_typed(payload in payload_strategy(), frac in 0.0f64..1.0) {
        let buf = encode(&payload);
        // Map the fraction onto [0, len): always a strict prefix.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_precision_loss)]
        let cut = ((buf.len() as f64) * frac) as usize;
        let mut cursor = &buf[..cut.min(buf.len() - 1)];
        let result = read_frame::<_, Payload>(&mut cursor);
        if cut == 0 {
            prop_assert!(matches!(result, Ok(None)), "empty stream is clean EOF");
        } else {
            prop_assert!(
                matches!(result, Err(SimError::Frame { .. })),
                "truncated at {cut}/{}: {result:?}", buf.len()
            );
        }
    }

    /// A single flipped bit anywhere in the frame must never decode back
    /// to the original payload: the length prefix rejects, the checksum
    /// trips, or deserialization fails — all typed, none panicking.
    #[test]
    fn any_single_bitflip_is_rejected(payload in payload_strategy(), bit in any::<proptest::sample::Index>()) {
        let mut buf = encode(&payload);
        let nbits = buf.len() * 8;
        let flip = bit.index(nbits);
        buf[flip / 8] ^= 1 << (flip % 8);
        let mut cursor = &buf[..];
        match read_frame::<_, Payload>(&mut cursor) {
            Err(SimError::Frame { .. }) => {}
            Err(other) => prop_assert!(false, "wrong error class: {other}"),
            Ok(decoded) => prop_assert!(
                decoded.as_ref() != Some(&payload),
                "flipped bit {flip} decoded silently back to the original"
            ),
        }
    }

    /// Random garbage (not even a frame) never panics the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut cursor = &bytes[..];
        let _ = read_frame::<_, Payload>(&mut cursor);
    }
}

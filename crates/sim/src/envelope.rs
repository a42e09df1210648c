//! Sealed bytes: the one format of every message that leaves the process.
//!
//! Checkpoint files, the sweep ledger and both directions of the
//! slave-process frames (the master↔slave boundary of §2.4, Fig. 3) are
//! all one sealed message:
//!
//! ```text
//! [b"BHCKPT\0" ++ u8 VERSION][u64 LE payload length][u64 LE fnv1a(payload)][JSON payload]
//! ```
//!
//! [`seal`] writes every message; [`open`] reads a whole file and [`read`]
//! the next message off a pipe, sharing the header check, the checksum and
//! the decode. Corruption is an error, never a panic or a message silently
//! accepted: [`SimError::Frame`] on a pipe, and [`SimError::Checkpoint`]
//! naming the path once the checkpoint store has typed a file's.

use std::io::{ErrorKind, Read, Write};

use bighouse_des::hash::fnv1a;
use bighouse_json::{FromJson, ToJson};

use crate::error::SimError;

/// The format version, the magic's last byte. A reader refuses every other
/// version, so builds that disagree refuse to talk or to resume rather than
/// misread. Bump it on any incompatible change to the layout or to a
/// payload (a `RunState`, the sweep ledger, a frame).
///
/// Files (1–4) and frames (1–8) were versioned apart until they shared
/// this constant. Frames 2 put the barrier at the chunk; frames 3 added
/// the spawn-time `ProcChaos` variants; frames 4 made the checkpoint and
/// final shard a `RunState` and dropped the hello's `slave_seed` and
/// `winddown` and the heartbeat's `events`; frames 5 moved the slot and
/// incarnation into the hello and made a solo job's fault a `SoloFault`.
/// Files 2 and frames 6 moved to the in-tree JSON codec (no metric name
/// index, non-finite floats as strings, the config fingerprint over JSON).
/// Files 3 and frames 7 made the resilience totals a `ResilienceSummary`
/// and dropped the metric spec's `track_mean` and `histogram_bins`, the
/// capper's `epoch_seconds` and a tier's `balancer`. Files 4 and frames 8
/// made each metric's state a log-bucketed histogram beside its moments
/// and dropped `forced_histogram` and the hello's `bin_schemes`. Version 9
/// gave frames the file layout: no `u32` length prefix, no version byte in
/// the body, no trailing checksum. A version-4 file is refused by its magic.
const VERSION: u8 = 9;

/// The magic's first seven bytes; [`VERSION`] is the eighth.
const MAGIC: &[u8; 7] = b"BHCKPT\0";

/// Magic and version, payload length, checksum: 8 bytes each.
const HEADER_BYTES: usize = 24;

/// Upper bound on a streamed payload: a corrupted length must not make a
/// pipe reader allocate gigabytes before the checksum can reject it.
const MAX_STREAM_PAYLOAD: u64 = 64 * 1024 * 1024;

/// Wraps `message`'s JSON in the sealed layout.
pub(crate) fn seal<T: ToJson>(message: &T) -> Vec<u8> {
    seal_payload(&bighouse_json::to_vec(message))
}

fn seal_payload(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_BYTES + payload.len());
    bytes.extend_from_slice(MAGIC);
    bytes.push(VERSION);
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Reads one whole sealed file, whose declared length must equal the bytes
/// after the header. A file has no size cap: a sweep ledger of 100 000
/// configs may pass 64 MiB. The error says why the bytes were refused.
pub(crate) fn open<T: FromJson>(bytes: &[u8]) -> Result<T, String> {
    let Some((head, payload)) = bytes.split_first_chunk::<HEADER_BYTES>() else {
        return Err(format!("truncated header: {} bytes", bytes.len()));
    };
    let (len, checksum) = parse_header(head)?;
    if payload.len() as u64 != len {
        return Err(format!(
            "{} bytes follow a header declaring {len}",
            payload.len()
        ));
    }
    decode(payload, checksum)
}

/// Seals `message` onto a pipe and flushes, so a frame never straddles a
/// buffer. A payload the reader would refuse for its size is not sent.
pub(crate) fn write<W: Write, T: ToJson>(w: &mut W, message: &T) -> Result<(), SimError> {
    let bytes = seal(message);
    let len = (bytes.len() - HEADER_BYTES) as u64;
    if len > MAX_STREAM_PAYLOAD {
        return Err(SimError::Frame {
            detail: format!("payload of {len} bytes exceeds the stream cap {MAX_STREAM_PAYLOAD}"),
        });
    }
    w.write_all(&bytes)
        .and_then(|()| w.flush())
        .map_err(|e| SimError::Frame {
            detail: format!("write: {e}"),
        })
}

/// Reads the next sealed message off a pipe: `Ok(None)` when the stream
/// ended cleanly between messages, [`SimError::Frame`] for anything else.
/// The declared length is held to [`MAX_STREAM_PAYLOAD`] before anything is
/// allocated: only a stream learns a length before its bytes.
pub(crate) fn read<R: Read, T: FromJson>(r: &mut R) -> Result<Option<T>, SimError> {
    let broken = |detail: String| SimError::Frame { detail };
    let mut head = [0u8; HEADER_BYTES];
    let first = loop {
        match r.read(&mut head[..1]) {
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            other => break other.map_err(|e| broken(format!("read: {e}")))?,
        }
    };
    if first == 0 {
        return Ok(None);
    }
    r.read_exact(&mut head[1..])
        .map_err(|e| broken(format!("truncated header: {e}")))?;
    let (len, checksum) = parse_header(&head).map_err(broken)?;
    if len > MAX_STREAM_PAYLOAD {
        return Err(broken(format!(
            "declared length {len} exceeds the stream cap {MAX_STREAM_PAYLOAD}"
        )));
    }
    let mut payload = Vec::new();
    r.by_ref()
        .take(len)
        .read_to_end(&mut payload)
        .map_err(|e| broken(format!("read: {e}")))?;
    if payload.len() as u64 != len {
        return Err(broken(format!(
            "truncated payload: EOF after {} of {len} bytes",
            payload.len()
        )));
    }
    decode(&payload, checksum).map(Some).map_err(broken)
}

/// Checks the magic and version; returns the declared payload length and
/// its checksum.
fn parse_header(head: &[u8; HEADER_BYTES]) -> Result<(u64, u64), String> {
    if head[..7] != MAGIC[..] {
        return Err("bad magic: not a sealed BigHouse message".to_owned());
    }
    if head[7] != VERSION {
        let found = head[7];
        return Err(format!(
            "format version {found} (this build reads {VERSION})"
        ));
    }
    let word = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("8 bytes"));
    Ok((word(8), word(16)))
}

fn decode<T: FromJson>(payload: &[u8], checksum: u64) -> Result<T, String> {
    let computed = fnv1a(payload);
    if computed != checksum {
        return Err(format!(
            "checksum mismatch: stored {checksum:#018x}, computed {computed:#018x}"
        ));
    }
    bighouse_json::from_slice(payload).map_err(|e| format!("malformed payload: {e}"))
}

/// Feeds hostile JSON under a valid checksum to both readers: `state`'s
/// payload is truncated, bit-flipped, overwritten or spliced, then sealed
/// afresh, so only `T`'s reader stands between the bytes and a value. The
/// pipe reader must return the mutant exactly when it still reads as a
/// `T`, and [`SimError::Frame`] otherwise. The file reader is attacked
/// through a store holding two good snapshots: loading must yield the
/// mutant or the previous snapshot or, with `.prev` removed, a typed
/// [`SimError::Checkpoint`]. Neither may panic.
#[cfg(test)]
pub(crate) fn check_hostile_payloads<T: ToJson + FromJson>(
    name: &str,
    stem: &'static str,
    state: &T,
) {
    use bighouse_des::check::{check, Gen};
    use std::fs;

    let dir = std::env::temp_dir().join(format!("bighouse-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = crate::checkpoint::CheckpointStore::with_stem(&dir, stem).unwrap();
    let good = bighouse_json::to_string(state);
    check(name, 256, |g| {
        let mut payload = good.clone().into_bytes();
        let at = g.range(0..payload.len());
        match g.range(0..4) {
            0 => payload.truncate(at),
            1 => payload[at] ^= 1 << g.range(0..8u32),
            2 => payload[at] = g.any(),
            _ => drop(payload.splice(at..at, g.vec(1..9, Gen::any::<u8>))),
        }
        let sealed = seal_payload(&payload);
        let mutant = bighouse_json::from_slice::<T>(&payload)
            .ok()
            .map(|m| bighouse_json::to_string(&m));
        match read::<_, T>(&mut &sealed[..]) {
            Ok(Some(got)) => assert_eq!(Some(bighouse_json::to_string(&got)), mutant),
            Err(SimError::Frame { detail }) => assert!(mutant.is_none(), "{detail}"),
            other => panic!("neither a frame nor a typed error: {:?}", other.map(|_| ())),
        }

        store.save(state).unwrap();
        store.save(state).unwrap();
        fs::write(store.current_path(), &sealed).unwrap();
        let without_prev: bool = g.any();
        if without_prev {
            fs::remove_file(store.previous_path()).unwrap();
        }
        match store.load::<T>() {
            Ok(Some(loaded)) => {
                let loaded = bighouse_json::to_string(&loaded);
                assert!(mutant.as_ref() == Some(&loaded) || loaded == good);
            }
            Err(SimError::Checkpoint(why)) => assert!(without_prev && mutant.is_none(), "{why}"),
            other => panic!("neither a state nor a typed error: {:?}", other.map(|_| ())),
        }
    });
    let _ = fs::remove_dir_all(&dir);
}

/// The sealed format's properties, each through both readers, on the
/// frames a master and its slaves exchange.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{Directive, UpFrame};
    use crate::procslave::DownFrame;
    use bighouse_des::check::{check, Gen};
    use bighouse_json::Value;
    use bighouse_stats::RunningStats;

    /// A random frame of either direction, sealed, and its JSON tree (which
    /// compares exactly: floats print round-trip).
    fn sealed(g: &mut Gen) -> (Vec<u8>, Value) {
        // Printable ASCII, quotes and backslashes included.
        let printable: Vec<char> = (' '..='~').collect();
        let json = match g.range(0..4) {
            0 => bighouse_json::to_vec(&DownFrame::Directive(Directive::Finalize)),
            1 => bighouse_json::to_vec(&UpFrame::Fatal {
                error: g.string(&printable, 0..65),
                code: g.any(),
            }),
            _ => bighouse_json::to_vec(&UpFrame::Heartbeat {
                barrier: g.any(),
                moments: g.vec(0..4, |g| {
                    g.option(|g| {
                        let mut stats = RunningStats::new();
                        for _ in 0..g.range(0..6) {
                            stats.push(g.range(-1e12..1e12));
                        }
                        stats
                    })
                }),
                exhausted: g.any(),
            }),
        };
        (
            seal_payload(&json),
            bighouse_json::from_slice(&json).unwrap(),
        )
    }

    /// The file reader's verdict and the pipe reader's, the latter checked
    /// to be typed.
    fn both(bytes: &[u8]) -> (Result<Value, String>, Result<Option<Value>, String>) {
        let piped = match read::<_, Value>(&mut &bytes[..]) {
            Err(SimError::Frame { detail }) => Err(detail),
            Err(other) => panic!("untyped pipe error: {other}"),
            Ok(message) => Ok(message),
        };
        (open(bytes), piped)
    }

    /// Whatever goes in comes out exactly, and the pipe reader stops on the
    /// next message's first byte; a file holds exactly one message.
    #[test]
    fn roundtrip_is_exact() {
        check("roundtrip_is_exact", 64, |g| {
            let ((a, first), (b, second)) = (sealed(g), sealed(g));
            assert_eq!(open(&a), Ok(first.clone()));
            let stream = [a, b].concat();
            let mut cursor = &stream[..];
            for expected in [Some(first), Some(second), None] {
                assert_eq!(read(&mut cursor), Ok(expected));
            }
            assert!(open::<Value>(&stream).is_err());
        });
    }

    /// Every strict prefix is refused by both readers, except that an empty
    /// pipe is a clean end of stream.
    #[test]
    fn any_truncation_is_typed() {
        check("any_truncation_is_typed", 64, |g| {
            let (bytes, _) = sealed(g);
            for cut in 0..bytes.len() {
                let (opened, piped) = both(&bytes[..cut]);
                assert!(opened.is_err(), "file cut at {cut} accepted");
                let clean_eof = piped == Ok(None);
                assert!(clean_eof == (cut == 0) && (clean_eof || piped.is_err()));
            }
        });
    }

    /// A single flipped bit anywhere is refused by both readers: FNV-1a
    /// detects every one-byte change.
    #[test]
    fn any_single_bitflip_is_rejected() {
        check("any_single_bitflip_is_rejected", 64, |g| {
            let (mut bytes, _) = sealed(g);
            let flip = g.range(0..bytes.len() * 8);
            bytes[flip / 8] ^= 1 << (flip % 8);
            let (opened, piped) = both(&bytes);
            assert!(
                opened.is_err() && piped.is_err(),
                "flip of bit {flip} accepted"
            );
        });
    }

    /// Random bytes, bare or behind a valid magic so that the length,
    /// checksum and JSON are what gets attacked, never panic either reader.
    #[test]
    fn arbitrary_bytes_never_panic() {
        check("arbitrary_bytes_never_panic", 64, |g| {
            let mut bytes = Vec::new();
            if g.any() {
                bytes.extend_from_slice(MAGIC);
                bytes.push(VERSION);
            }
            bytes.extend(g.vec(0..256, Gen::any::<u8>));
            let _ = both(&bytes);
        });
    }

    /// Another version is refused by the version check alone: the header
    /// carries no checksum, so length and checksum stay valid.
    #[test]
    fn version_skew_is_rejected() {
        check("version_skew_is_rejected", 64, |g| {
            let (mut bytes, _) = sealed(g);
            // The last file version, the last frame version, or any.
            bytes[7] = [4, 8, g.any()][g.range(0..3)];
            if bytes[7] != VERSION {
                let (opened, piped) = both(&bytes);
                for why in [opened.unwrap_err(), piped.unwrap_err()] {
                    assert!(why.contains("version"), "{why}");
                }
            }
        });
    }

    /// A declared length past the cap is refused by the pipe reader before
    /// it reads a byte of payload (an endless stream follows the header),
    /// and by the file reader because the file is shorter.
    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        check("oversized_length_is_rejected_without_allocation", 64, |g| {
            let (mut bytes, _) = sealed(g);
            let len = g.range(MAX_STREAM_PAYLOAD + 1..u64::MAX);
            bytes[8..16].copy_from_slice(&len.to_le_bytes());
            let mut endless = (&bytes[..HEADER_BYTES]).chain(std::io::repeat(0));
            let piped = read::<_, Value>(&mut endless).unwrap_err().to_string();
            assert!(piped.contains("exceeds the stream cap"), "{piped}");
            assert!(open::<Value>(&bytes).unwrap_err().contains("declaring"));
        });
    }
}

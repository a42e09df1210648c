//! Deterministic, allocation-free fast hashing for hot-path maps.
//!
//! `std`'s default hasher (SipHash-1-3 behind `RandomState`) is keyed with
//! per-process random state and costs tens of nanoseconds per lookup —
//! both wrong for a deterministic simulator whose inner loop indexes small
//! integer keys (request ids, job ids) on every event. [`FastHasher`] is an
//! Fx-style multiply-xor hash: a few cycles per word, zero setup, and the
//! same hash for the same key in every run, so iteration-order-sensitive
//! code paths stay reproducible from the seed alone.
//!
//! These maps are for *trusted* keys (our own dense ids); they make no
//! attempt at HashDoS resistance, which a simulation does not need.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash family (the golden-ratio constant spread
/// across 64 bits); chosen for good bit diffusion under `rotate ^ mul`.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An Fx-style multiply-xor [`Hasher`]: fast, deterministic, unkeyed.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.mix(v as u64);
        self.mix((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// FNV-1a, 64-bit, over `bytes`: tiny, unkeyed and stable across builds
/// and platforms, so what it hashes into a persisted or pinned value (a
/// checksum, a fingerprint, a derived seed) never moves. It detects every
/// single-byte change, but it is corruption detection, not security.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// [`std::hash::BuildHasher`] for [`FastHasher`]; zero-sized and stateless,
/// so every map built from it hashes identically across runs.
pub(crate) type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` using [`FastHasher`]. Drop-in for hot-path maps keyed by
/// trusted ids.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` using [`FastHasher`].
pub type FastSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FastBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_builders() {
        for key in [0u64, 1, 42, u64::MAX] {
            assert_eq!(hash_of(&key), hash_of(&key));
        }
        assert_eq!(hash_of(&"request-17"), hash_of(&"request-17"));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Sequential ids (the common key shape here) must not collide.
        let hashes: FastSet<u64> = (0..10_000u64).map(|k| hash_of(&k)).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        assert_ne!(hash_of(&[1u8, 2, 3]), hash_of(&[1u8, 2, 4]));
        assert_ne!(hash_of(&[0u8; 9]), hash_of(&[0u8; 10]));
    }

    #[test]
    fn map_roundtrip() {
        let mut map: FastMap<u64, &str> = FastMap::default();
        map.insert(7, "seven");
        map.insert(11, "eleven");
        assert_eq!(map.get(&7), Some(&"seven"));
        assert_eq!(map.remove(&11), Some("eleven"));
        assert!(!map.contains_key(&11));
    }
}

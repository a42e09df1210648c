//! Offline stand-in for `rand` 0.8.
//!
//! The benchmark's checkout has no crates.io access, and `bighouse` uses
//! `rand` only for the [`RngCore`] trait (its generator, xoshiro256++, is
//! implemented in `bighouse-des`) and for a seedable [`rngs::StdRng`] that
//! tabulates synthesized workloads. This crate supplies exactly that
//! surface. `StdRng` here is SplitMix64, not ChaCha12, so a synthesized
//! workload's table differs from the one a crates.io build produces; it is
//! the same on every machine that builds the benchmark, which is what the
//! benchmark needs.

use std::fmt;

/// Error type of [`RngCore::try_fill_bytes`]; never constructed.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("random number generator failure")
    }
}

impl std::error::Error for Error {}

/// The core of a random number generator.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
    /// Fills `dest` with random bytes, reporting failure.
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest);
    }
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The seedable general-purpose generator (SplitMix64 in this stand-in).
    #[derive(Debug, Clone)]
    pub struct StdRng(u64);

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng(seed)
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }
    }
}

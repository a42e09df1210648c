//! Deterministic random-number streams.
//!
//! Parallel BigHouse simulations require every slave to draw from a unique,
//! reproducible random stream (§2.4 of the paper). [`SeedStream`] derives an
//! unbounded sequence of decorrelated seeds from one master seed, and
//! [`SimRng`] is the simulation RNG itself — xoshiro256++ implemented from
//! scratch. It is the workspace's only generator: every sampler takes
//! `&mut SimRng`, and no RNG crate is a dependency.

/// SplitMix64 step: the canonical seeding function for xoshiro generators.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The simulation random-number generator (xoshiro256++).
///
/// Fast, high-quality, and — critically for BigHouse — fully deterministic
/// from its seed, so any simulation run can be replayed exactly.
///
/// # Examples
///
/// ```
/// use bighouse_des::SimRng;
///
/// let mut a = SimRng::from_seed(7);
/// let mut b = SimRng::from_seed(7);
/// assert_eq!(a.raw_u64(), b.raw_u64());
///
/// let u = a.open01();
/// assert!(u > 0.0 && u < 1.0);
/// ```
/// The state serializes to JSON so a checkpointed simulation can resume
/// its stream exactly where it left off (see `bighouse-sim`'s checkpoint
/// module): deserializing a mid-stream snapshot continues the identical
/// `u64` sequence, bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

bighouse_json::json_struct!(SimRng { s });

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The internal 256-bit state is expanded with SplitMix64, per the
    /// xoshiro authors' recommendation, so similar seeds still produce
    /// decorrelated streams.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    fn next(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Draws a uniform variate in the **open** interval `(0, 1)`.
    ///
    /// Inverse-CDF samplers (exponential, Pareto, …) require a strictly
    /// positive uniform so that `ln(u)` and `u^(-1/a)` stay finite.
    #[must_use]
    pub fn open01(&mut self) -> f64 {
        loop {
            let u = self.half_open01();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Draws a uniform variate in the half-open interval `[0, 1)`.
    #[must_use]
    pub fn half_open01(&mut self) -> f64 {
        // 53 random mantissa bits => uniform on [0, 1).
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws the next raw 64-bit output of the stream.
    ///
    /// The simulator's analytic fast path feeds these bits through guided
    /// inverse-CDF samplers while consuming the stream exactly as the
    /// unguided samplers would, keeping the two engines draw-for-draw
    /// identical.
    #[must_use]
    pub fn raw_u64(&mut self) -> u64 {
        self.next()
    }
}

/// A deterministic stream of decorrelated seeds derived from a master seed.
///
/// The parallel runner gives the master simulation one seed and each slave
/// the next seed in the stream, mirroring the unique-seed-per-slave rule of
/// the paper's Figure 3.
///
/// # Examples
///
/// ```
/// use bighouse_des::SeedStream;
///
/// let mut stream = SeedStream::new(42);
/// let a = stream.next_seed();
/// let b = stream.next_seed();
/// assert_ne!(a, b);
///
/// // Streams are reproducible.
/// let mut again = SeedStream::new(42);
/// assert_eq!(again.next_seed(), a);
/// ```
/// Like [`SimRng`], the stream position serializes to JSON: a resumed
/// run re-derives exactly the seeds an uninterrupted run would have drawn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedStream {
    state: u64,
}

bighouse_json::json_struct!(SeedStream { state });

impl SeedStream {
    /// Creates a seed stream from a master seed.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        SeedStream { state: master_seed }
    }

    /// Returns the next seed in the stream.
    pub fn next_seed(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(123);
        let mut b = SimRng::from_seed(123);
        for _ in 0..100 {
            assert_eq!(a.raw_u64(), b.raw_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..64).filter(|_| a.raw_u64() == b.raw_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn open01_is_in_open_interval() {
        let mut rng = SimRng::from_seed(99);
        for _ in 0..10_000 {
            let u = rng.open01();
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn half_open01_mean_is_near_half() {
        let mut rng = SimRng::from_seed(7);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.half_open01()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn matches_published_reference_vectors() {
        // Outputs of the authors' C code (prng.di.unimi.it: xoshiro256plusplus.c
        // and splitmix64.c), so the one generator cannot drift unnoticed.
        let mut xoshiro = SimRng { s: [1, 2, 3, 4] };
        let outputs: Vec<u64> = (0..6).map(|_| xoshiro.raw_u64()).collect();
        assert_eq!(
            outputs,
            [
                41_943_041,
                58_720_359,
                3_588_806_011_781_223,
                3_591_011_842_654_386,
                9_228_616_714_210_784_205,
                9_973_669_472_204_895_162,
            ]
        );

        let mut state = 0;
        let outputs: Vec<u64> = (0..3).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(
            outputs,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );

        // `from_seed` is the two composed: SplitMix64 expands the seed into
        // the xoshiro state.
        assert_eq!(SimRng::from_seed(0).raw_u64(), 5_987_356_902_031_041_503);
    }

    #[test]
    fn seed_stream_is_reproducible_and_distinct() {
        let mut s1 = SeedStream::new(77);
        let mut s2 = SeedStream::new(77);
        let seeds1: Vec<_> = (0..16).map(|_| s1.next_seed()).collect();
        let seeds2: Vec<_> = (0..16).map(|_| s2.next_seed()).collect();
        assert_eq!(seeds1, seeds2);
        let unique: std::collections::HashSet<_> = seeds1.iter().collect();
        assert_eq!(unique.len(), seeds1.len());
    }

    #[test]
    fn rng_serde_round_trip_resumes_bit_identically() {
        // Not just equal fields: the *subsequent stream* must be identical,
        // which is what a resumed checkpoint actually depends on.
        let mut rng = SimRng::from_seed(2012);
        for _ in 0..1000 {
            let _ = rng.raw_u64();
        }
        let json = bighouse_json::to_string(&rng);
        let mut restored: SimRng = bighouse_json::from_str(&json).unwrap();
        for _ in 0..1000 {
            assert_eq!(rng.raw_u64(), restored.raw_u64());
        }
    }

    #[test]
    fn seed_stream_serde_round_trip_resumes_bit_identically() {
        let mut stream = SeedStream::new(77);
        for _ in 0..17 {
            stream.next_seed();
        }
        let json = bighouse_json::to_string(&stream);
        let mut restored: SeedStream = bighouse_json::from_str(&json).unwrap();
        for _ in 0..100 {
            assert_eq!(stream.next_seed(), restored.next_seed());
        }
    }

    #[test]
    fn seed_stream_rngs_are_decorrelated() {
        let mut stream = SeedStream::new(3);
        let mut a = SimRng::from_seed(stream.next_seed());
        let mut b = SimRng::from_seed(stream.next_seed());
        let same = (0..64).filter(|_| a.raw_u64() == b.raw_u64()).count();
        assert_eq!(same, 0);
    }
}

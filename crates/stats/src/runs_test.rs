//! Knuth's runs-up test and lag-spacing calibration.
//!
//! Successive observations from a queuing simulation are autocorrelated, so
//! using them directly biases variance (and hence confidence) estimates.
//! BigHouse follows the classic remedy: keep only every *l*-th observation,
//! with *l* chosen as the smallest spacing at which the subsampled sequence
//! passes an independence test — the **runs-up test** of Knuth (TAoCP Vol. 2,
//! §3.3.2G), as applied to simulation run-length control by Chen & Kelton.
//!
//! The cost, which the paper calls out, is that steady-state simulation
//! length inflates by a factor of *l*: to keep *n* observations, `l·n` events
//! must be simulated.

use crate::math::chi_square_inverse_cdf;

/// Knuth's exact covariance matrix for run-up length counts (lengths 1–6).
const A: [[f64; 6]; 6] = [
    [4_529.4, 9_044.9, 13_568.0, 18_091.0, 22_615.0, 27_892.0],
    [9_044.9, 18_097.0, 27_139.0, 36_187.0, 45_234.0, 55_789.0],
    [13_568.0, 27_139.0, 40_721.0, 54_281.0, 67_852.0, 83_685.0],
    [18_091.0, 36_187.0, 54_281.0, 72_414.0, 90_470.0, 111_580.0],
    [22_615.0, 45_234.0, 67_852.0, 90_470.0, 113_262.0, 139_476.0],
    [
        27_892.0, 55_789.0, 83_685.0, 111_580.0, 139_476.0, 172_860.0,
    ],
];

/// Expected fraction of runs of each length (1–6, last entry is ">= 6").
const B: [f64; 6] = [
    1.0 / 6.0,
    5.0 / 24.0,
    11.0 / 120.0,
    19.0 / 720.0,
    29.0 / 5040.0,
    1.0 / 840.0,
];

/// The runs-up independence test.
///
/// The statistic `V` is asymptotically chi-square with 6 degrees of freedom
/// for an i.i.d. sequence; the test passes when `V` falls inside the central
/// `1 - significance` region of χ²₆. (Two-sided, because both "too few long
/// runs" — positive autocorrelation — and "suspiciously perfect agreement"
/// are departures from randomness.)
///
/// # Examples
///
/// [`find_lag`] applies it to ever sparser subsamples:
///
/// ```
/// use bighouse_stats::{find_lag, RunsUpTest};
///
/// let test = RunsUpTest::default(); // 5% significance
///
/// // A pseudo-random sequence passes at lag 1...
/// let mut x = 0.5f64;
/// let iid: Vec<f64> = (0..5000)
///     .map(|_| {
///         x = (x * 1664525.0 + 1013904223.0) % 4294967296.0;
///         x / 4294967296.0
///     })
///     .collect();
/// assert_eq!(find_lag(&iid, 8, &test), 1);
///
/// // ...a monotone ramp at no lag, so the search stops at its cap.
/// let ramp: Vec<f64> = (0..5000).map(f64::from).collect();
/// assert_eq!(find_lag(&ramp, 8, &test), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunsUpTest {
    lower_critical: f64,
    upper_critical: f64,
}

impl RunsUpTest {
    /// Minimum observations for the chi-square approximation to be usable.
    /// Knuth recommends n ≥ 4000; we allow shorter subsampled sequences
    /// during lag search but never fewer than this.
    const MIN_OBSERVATIONS: usize = 100;

    /// Creates a test at the given two-sided significance level (e.g. 0.05).
    ///
    /// # Panics
    ///
    /// Panics if `significance` is not in `(0, 1)`.
    #[must_use]
    pub fn new(significance: f64) -> Self {
        assert!(
            significance > 0.0 && significance < 1.0,
            "significance must be in (0, 1), got {significance}"
        );
        RunsUpTest {
            lower_critical: chi_square_inverse_cdf(6, significance / 2.0),
            upper_critical: chi_square_inverse_cdf(6, 1.0 - significance / 2.0),
        }
    }

    /// Counts runs-up of lengths 1..=6 (length-6 bucket includes longer runs).
    ///
    /// A run continues while observations strictly increase; ties break runs,
    /// matching Knuth's continuous-distribution assumption conservatively.
    #[must_use]
    pub(crate) fn run_counts(data: &[f64]) -> [u64; 6] {
        let mut counts = [0u64; 6];
        if data.is_empty() {
            return counts;
        }
        let mut run_len = 1usize;
        for window in data.windows(2) {
            if window[0] < window[1] {
                run_len += 1;
            } else {
                counts[run_len.min(6) - 1] += 1;
                run_len = 1;
            }
        }
        counts[run_len.min(6) - 1] += 1;
        counts
    }

    /// Computes Knuth's quadratic-form statistic `V` for the sequence.
    ///
    /// Returns `None` if the sequence is shorter than 100 observations.
    #[must_use]
    pub(crate) fn statistic(&self, data: &[f64]) -> Option<f64> {
        if data.len() < Self::MIN_OBSERVATIONS {
            return None;
        }
        let n = data.len() as f64;
        let counts = Self::run_counts(data);
        let dev: Vec<f64> = counts
            .iter()
            .zip(B.iter())
            .map(|(&c, &b)| c as f64 - n * b)
            .collect();
        let mut v = 0.0;
        for i in 0..6 {
            for j in 0..6 {
                v += A[i][j] * dev[i] * dev[j];
            }
        }
        Some(v / n)
    }

    /// Whether the sequence is consistent with independence.
    ///
    /// Sequences shorter than 100 observations fail by definition
    /// (we refuse to certify independence from too little data).
    #[must_use]
    pub(crate) fn passes(&self, data: &[f64]) -> bool {
        match self.statistic(data) {
            Some(v) => v >= self.lower_critical && v <= self.upper_critical,
            None => false,
        }
    }
}

impl Default for RunsUpTest {
    /// A test at 5% significance, the paper's operating point.
    fn default() -> Self {
        RunsUpTest::new(0.05)
    }
}

/// Finds the smallest lag `l` such that keeping every `l`-th observation of
/// `calibration_sample` passes the runs-up test.
///
/// This is exactly BigHouse's calibration-phase computation (Figure 2,
/// phase 2). Returns `max_lag` if no tested lag passes — the conservative
/// fallback, since a larger lag never *increases* dependence.
///
/// # Panics
///
/// Panics if `max_lag` is zero.
///
/// # Examples
///
/// ```
/// use bighouse_stats::{find_lag, RunsUpTest};
///
/// // An i.i.d.-like sequence needs no spacing at all.
/// let mut x = 0.5f64;
/// let iid: Vec<f64> = (0..5000)
///     .map(|_| {
///         x = (x * 1664525.0 + 1013904223.0) % 4294967296.0;
///         x / 4294967296.0
///     })
///     .collect();
/// assert_eq!(find_lag(&iid, 32, &RunsUpTest::default()), 1);
/// ```
#[must_use]
pub fn find_lag(calibration_sample: &[f64], max_lag: usize, test: &RunsUpTest) -> usize {
    assert!(max_lag >= 1, "max_lag must be at least 1");
    for lag in 1..=max_lag {
        let sub: Vec<f64> = calibration_sample.iter().copied().step_by(lag).collect();
        if sub.len() < RunsUpTest::MIN_OBSERVATIONS {
            // Subsampling left too little data to certify anything better.
            break;
        }
        if test.passes(&sub) {
            return lag;
        }
    }
    max_lag
}

#[cfg(test)]
mod tests {
    use super::*;
    use bighouse_des::check::check;

    /// Simple LCG producing u64s, for dependency-free pseudo-random data.
    fn lcg_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    /// AR(1) process with coefficient `rho`: strongly autocorrelated for
    /// rho near 1.
    fn ar1_stream(seed: u64, n: usize, rho: f64) -> Vec<f64> {
        let noise = lcg_stream(seed, n);
        let mut x = 0.5;
        noise
            .iter()
            .map(|&e| {
                x = rho * x + (1.0 - rho) * e;
                x
            })
            .collect()
    }

    #[test]
    fn run_counts_known_sequence() {
        // Runs up: [1,2,3] len 3, [1] len 1, [0,5] len 2.
        let data = [1.0, 2.0, 3.0, 1.0, 0.0, 5.0];
        let counts = RunsUpTest::run_counts(&data);
        assert_eq!(counts, [1, 1, 1, 0, 0, 0]);
    }

    #[test]
    fn run_counts_ties_break_runs() {
        let data = [1.0, 1.0, 1.0];
        let counts = RunsUpTest::run_counts(&data);
        assert_eq!(counts, [3, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn run_counts_long_runs_capped_at_six() {
        let data: Vec<f64> = (0..10).map(f64::from).collect();
        let counts = RunsUpTest::run_counts(&data);
        assert_eq!(counts, [0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn run_counts_empty() {
        assert_eq!(RunsUpTest::run_counts(&[]), [0; 6]);
    }

    #[test]
    fn iid_data_passes() {
        let test = RunsUpTest::default();
        let mut passes = 0;
        for seed in 0..20 {
            if test.passes(&lcg_stream(seed * 7 + 1, 5000)) {
                passes += 1;
            }
        }
        // At 5% significance we expect ~19/20 to pass; allow a little slack.
        assert!(passes >= 17, "only {passes}/20 i.i.d. streams passed");
    }

    #[test]
    fn statistic_near_six_for_iid() {
        // E[V] = 6 for chi-square with 6 dof; average over streams.
        let test = RunsUpTest::default();
        let mean: f64 = (0..30)
            .map(|s| test.statistic(&lcg_stream(s + 100, 5000)).unwrap())
            .sum::<f64>()
            / 30.0;
        assert!((mean - 6.0).abs() < 2.5, "mean statistic {mean} far from 6");
    }

    #[test]
    fn autocorrelated_data_fails() {
        let test = RunsUpTest::default();
        let data = ar1_stream(42, 5000, 0.98);
        assert!(!test.passes(&data), "AR(1) rho=0.98 should fail runs-up");
    }

    #[test]
    fn monotone_data_fails() {
        let test = RunsUpTest::default();
        let ramp: Vec<f64> = (0..5000).map(f64::from).collect();
        assert!(!test.passes(&ramp));
    }

    #[test]
    fn short_data_fails_by_definition() {
        let test = RunsUpTest::default();
        assert!(!test.passes(&lcg_stream(1, RunsUpTest::MIN_OBSERVATIONS - 1)));
        assert_eq!(test.statistic(&[1.0, 2.0]), None);
    }

    #[test]
    fn find_lag_is_one_for_iid() {
        let test = RunsUpTest::default();
        assert_eq!(find_lag(&lcg_stream(9, 5000), 32, &test), 1);
    }

    #[test]
    fn find_lag_grows_with_autocorrelation() {
        let test = RunsUpTest::default();
        let weak = find_lag(&ar1_stream(5, 5000, 0.6), 32, &test);
        let strong = find_lag(&ar1_stream(5, 5000, 0.99), 32, &test);
        assert!(weak >= 1);
        assert!(
            strong > weak,
            "stronger autocorrelation should need larger lag ({strong} vs {weak})"
        );
    }

    #[test]
    fn find_lag_falls_back_to_max() {
        let test = RunsUpTest::default();
        let ramp: Vec<f64> = (0..5000).map(f64::from).collect();
        // A ramp never passes at any lag; fall back to max_lag.
        assert_eq!(find_lag(&ramp, 8, &test), 8);
    }

    #[test]
    #[should_panic(expected = "significance must be in (0, 1)")]
    fn rejects_bad_significance() {
        let _ = RunsUpTest::new(1.5);
    }

    /// Run counts always total the number of runs: sum == number of
    /// descents + 1.
    #[test]
    fn run_counts_sum_matches_descents() {
        check("run_counts_sum_matches_descents", 256, |g| {
            let data = g.vec(2..500, |g| g.range(0.0..1.0));
            let counts = RunsUpTest::run_counts(&data);
            let runs: u64 = counts.iter().sum();
            let descents = data.windows(2).filter(|w| w[0] >= w[1]).count() as u64;
            assert_eq!(runs, descents + 1);
        });
    }
}

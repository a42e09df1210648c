//! One operation, its correctness check, and the order statistics the
//! harness reports.

use std::hint::black_box;
use std::time::Instant;

use bighouse::prelude::*;

use crate::workloads::{Runner, Scale, WorkloadSpec, MAX_EVENTS};

/// Tolerance of the closed-form check, as in `tests/queueing_theory.rs`.
pub const ORACLE_TOLERANCE: f64 = 0.08;

/// What one run to convergence produced, reduced to what the harness
/// checks and reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Events fired; on a parallel run, master calibration plus every slave.
    pub events: u64,
    /// Final simulated time (0 on a parallel run, which has no single clock).
    pub simulated_seconds: f64,
    /// Final estimates.
    pub estimates: Vec<MetricEstimate>,
    /// Whether the run reported convergence.
    pub converged: bool,
}

impl From<SimulationReport> for Outcome {
    fn from(report: SimulationReport) -> Self {
        Outcome {
            events: report.events_fired,
            simulated_seconds: report.simulated_seconds,
            estimates: report.estimates,
            converged: report.converged,
        }
    }
}

impl From<ParallelOutcome> for Outcome {
    fn from(outcome: ParallelOutcome) -> Self {
        Outcome {
            events: outcome.total_events(),
            simulated_seconds: 0.0,
            converged: outcome.converged,
            estimates: outcome.estimates,
        }
    }
}

impl Outcome {
    /// FNV-1a over the event count, the final clock and the bit pattern of
    /// every estimate field. Two runs that simulated the same thing agree
    /// on it; it compares only within one build environment.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv::default();
        hash.word(self.events);
        hash.word(self.simulated_seconds.to_bits());
        for e in &self.estimates {
            hash.bytes(e.name.as_bytes());
            for x in [e.mean, e.std_dev, e.mean_half_width, e.relative_accuracy] {
                hash.word(x.to_bits());
            }
            for q in &e.quantiles {
                for x in [q.q, q.value, q.half_width_probability] {
                    hash.word(x.to_bits());
                }
                hash.word(q.half_width_value.map_or(u64::MAX, f64::to_bits));
            }
            hash.word(e.samples_kept);
            hash.word(e.lag as u64);
            hash.word(e.total_observed);
        }
        hash.0
    }

    /// Mean of the named metric.
    pub fn mean(&self, metric: MetricKind) -> Option<f64> {
        let name = metric.name();
        self.estimates
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.mean)
    }
}

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }
}

/// Runs `config` to convergence the way the workload says.
pub fn converge(runner: Runner, config: &ExperimentConfig, seed: u64) -> Result<Outcome, SimError> {
    match runner {
        Runner::Serial => run_serial(config, seed).map(Outcome::from),
        Runner::Lockstep(slaves) => ParallelRunner::new(config.clone(), slaves)
            .with_backend(ExecBackend::ThreadLockstep)
            .run(seed)
            .map(Outcome::from),
    }
}

/// Why an operation does not count.
pub fn failure(outcome: &Outcome) -> Option<String> {
    if !outcome.converged {
        Some("did not converge".to_owned())
    } else if outcome.events >= MAX_EVENTS {
        Some("hit the event cap".to_owned())
    } else {
        None
    }
}

/// What one draw of [`probe`] takes on the reference machine when nothing
/// slows it. Only sets the scale of the normalised timings: with it they
/// read as seconds on that machine.
const PROBE_NOMINAL_S_PER_DRAW: f64 = 0.049 / 4e6;

/// A fixed piece of work that calls nothing of the simulator but is shaped
/// like its inner loop: a generator step, a binary search in a sorted
/// table, a square root, a histogram increment. Returns the seconds it
/// took — about 50 ms.
///
/// The reference machine's speed drifts by a quarter and more for minutes
/// on end, taking whole runs with it, so no statistic inside a run removes
/// it; but the probe slows by the same factor as the simulator does. Timing
/// it around every timed run and scaling the run's timings by it cuts the
/// run-to-run spread about threefold (see the README).
fn probe(draws: u32) -> f64 {
    let table: Vec<f64> = (0..1024).map(|i| (f64::from(i) / 1024.0).powi(2)).collect();
    let mut bins = vec![0u32; 4096];
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0.0;
    let t = Instant::now();
    for _ in 0..draws {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        let i = table.partition_point(|&q| q < u);
        acc += (u + i as f64).sqrt();
        bins[(x >> 52) as usize] += 1;
    }
    black_box((acc, &bins));
    t.elapsed().as_secs_f64() / f64::from(draws)
}

/// Runs `f` between two probes. Returns what it returns with the host's
/// speed around it: 1 is the reference machine undisturbed, 0.8 a host that
/// takes a quarter longer over the same work. A clocked time × the speed is
/// the time on the undisturbed reference machine.
pub fn with_host_speed<T>(scale: Scale, f: impl FnOnce() -> T) -> (T, f64) {
    let draws = scale.pick(4_000_000, 40_000);
    let before = probe(draws);
    let value = f();
    let after = probe(draws);
    (value, PROBE_NOMINAL_S_PER_DRAW / ((before + after) / 2.0))
}

/// One timed operation: everything from nothing to a converged report.
#[derive(Debug)]
pub struct Operation {
    /// Workload synthesis + config build + `ClusterSim::new` + `prime`, as
    /// clocked.
    pub setup_s: f64,
    /// The run call, until it returned, as clocked.
    pub wall_s: f64,
    /// The host's speed around the operation ([`with_host_speed`]).
    pub host_speed: f64,
    /// What the run returned.
    pub outcome: Outcome,
}

/// Builds the workload and its cluster from scratch, then runs it once.
pub fn operation(spec: &WorkloadSpec, scale: Scale, seed: u64) -> Result<Operation, SimError> {
    let (timed, host_speed) = with_host_speed(scale, || -> Result<_, SimError> {
        let t0 = Instant::now();
        let config = (spec.config)(scale);
        let mut sim = ClusterSim::new(config.clone(), seed)?;
        let mut calendar = Calendar::new();
        sim.prime(&mut calendar);
        black_box((&sim, &calendar));
        let setup_s = t0.elapsed().as_secs_f64();
        drop((sim, calendar));

        let t1 = Instant::now();
        let outcome = converge(spec.runner, &config, seed)?;
        Ok((setup_s, t1.elapsed().as_secs_f64(), outcome))
    });
    let (setup_s, wall_s, outcome) = timed?;
    Ok(Operation {
        setup_s,
        wall_s,
        host_speed,
        outcome,
    })
}

/// Order statistics of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`; quartiles as Python's
    /// `statistics.quantiles(samples, n=4)` gives them.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or a NaN.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
        let n = sorted.len();
        assert!(n > 0, "no samples to summarise");
        // The "exclusive" method: the k-th quartile sits at rank
        // k(n+1)/4, counted from 1, interpolating between neighbours and
        // clamping to the ends.
        let quartile = |k: usize| {
            let rank = (k * (n + 1)) as f64 / 4.0;
            let below = (rank.floor() as usize).clamp(1, n);
            let above = (below + 1).min(n);
            let frac = (rank - below as f64).clamp(0.0, 1.0);
            sorted[below - 1] + frac * (sorted[above - 1] - sorted[below - 1])
        };
        Summary {
            n,
            min: sorted[0],
            q1: quartile(1),
            median: quartile(2),
            q3: quartile(3),
            max: sorted[n - 1],
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`); `None` off
/// Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcome() -> Outcome {
        Outcome {
            events: 1234,
            simulated_seconds: 5.5,
            converged: true,
            estimates: vec![MetricEstimate {
                name: "response_time".into(),
                mean: 0.02,
                std_dev: 0.019,
                mean_half_width: 0.001,
                relative_accuracy: 0.05,
                quantiles: vec![bighouse::stats::QuantileEstimate {
                    q: 0.95,
                    value: 0.06,
                    half_width_probability: 0.002,
                    half_width_value: Some(0.003),
                }],
                samples_kept: 600,
                lag: 1,
                total_observed: 7000,
            }],
        }
    }

    fn flip(x: &mut f64) {
        *x = f64::from_bits(x.to_bits() ^ 1);
    }

    #[test]
    fn equal_outcomes_fingerprint_alike() {
        assert_eq!(
            sample_outcome().fingerprint(),
            sample_outcome().fingerprint()
        );
    }

    #[test]
    fn one_flipped_bit_in_any_field_changes_the_fingerprint() {
        let base = sample_outcome().fingerprint();
        let edits: [fn(&mut Outcome); 13] = [
            |o| o.events ^= 1,
            |o| flip(&mut o.simulated_seconds),
            |o| flip(&mut o.estimates[0].mean),
            |o| flip(&mut o.estimates[0].std_dev),
            |o| flip(&mut o.estimates[0].mean_half_width),
            |o| flip(&mut o.estimates[0].relative_accuracy),
            |o| flip(&mut o.estimates[0].quantiles[0].q),
            |o| flip(&mut o.estimates[0].quantiles[0].value),
            |o| flip(&mut o.estimates[0].quantiles[0].half_width_probability),
            |o| {
                flip(
                    o.estimates[0].quantiles[0]
                        .half_width_value
                        .as_mut()
                        .unwrap(),
                )
            },
            |o| o.estimates[0].samples_kept ^= 1,
            |o| o.estimates[0].lag ^= 1,
            |o| o.estimates[0].total_observed ^= 1,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut o = sample_outcome();
            edit(&mut o);
            assert_ne!(
                o.fingerprint(),
                base,
                "edit {i} left the fingerprint unchanged"
            );
        }
        let mut o = sample_outcome();
        o.estimates[0].quantiles[0].half_width_value = None;
        assert_ne!(o.fingerprint(), base);
        let mut o = sample_outcome();
        o.estimates[0].name.push('x');
        assert_ne!(o.fingerprint(), base);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        let s = Summary::of(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 5.0, 7.5));
        assert_eq!((s.n, s.min, s.max), (9, 1.0, 9.0));
        // statistics.quantiles([1, 2, 3, 4, 10, 20], n=4) == [1.75, 3.5, 12.5]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 3.5, 12.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], which the
        // harness clamps to the data.
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.5, 2.0));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    fn unconverged_and_capped_runs_fail() {
        let mut o = sample_outcome();
        assert_eq!(failure(&o), None);
        o.events = MAX_EVENTS;
        assert!(failure(&o).is_some());
        o.events = 1234;
        o.converged = false;
        assert!(failure(&o).is_some());
    }
}

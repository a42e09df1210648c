//! The BigHouse statistics package.
//!
//! BigHouse terminates a simulation at the minimum runtime needed for a
//! desired accuracy (§2.3 of the paper). This crate implements the machinery
//! that makes that possible, from scratch:
//!
//! - [`math`] — standard-normal and chi-square functions (inverse normal CDF
//!   via Acklam's approximation + Halley refinement; regularized incomplete
//!   gamma via series/continued fraction),
//! - [`RunningStats`] — Welford mean/variance accumulators,
//! - [`Histogram`] — the one mergeable histogram, log-bucketed at a fixed
//!   relative accuracy, for Chen & Kelton's space-efficient quantile
//!   estimation,
//! - [`RunsUpTest`] and [`find_lag`] — Knuth's runs-up independence test,
//!   used during calibration to find the lag spacing *l*,
//! - [`OutputMetric`] — the per-metric phase machine (warm-up → calibration
//!   → measurement → convergence, Figure 2 of the paper, except that the
//!   calibration sample is kept as measured data),
//! - [`StatsCollection`] — the multi-metric registry with the paper's two
//!   global constraints (leave warm-up only when *all* metrics are warm;
//!   terminate only when *all* metrics converge).
//!
//! # Examples
//!
//! Drive a metric through the phases with i.i.d.-like data (where the
//! calibration sample already meets the targets, it converges as
//! calibration ends):
//!
//! ```
//! use bighouse_stats::{MetricSpec, OutputMetric, Phase};
//!
//! let spec = MetricSpec::new("response_time")
//!     .with_target_accuracy(0.05)
//!     .with_confidence(0.95)
//!     .with_quantile(0.95)
//!     .with_warmup(100)
//!     .with_calibration(1000);
//! let mut metric = OutputMetric::new(spec); // self-gating: one metric alone
//!
//! // A deterministic low-discrepancy input converges quickly.
//! let mut x = 0.0f64;
//! while !metric.is_converged() {
//!     x = (x + 0.754877666).fract();
//!     metric.record(1.0 + x);
//! }
//! assert_eq!(metric.phase(), Phase::Converged);
//! let est = metric.estimate().expect("converged metrics have estimates");
//! assert!((est.mean - 1.5).abs() < 0.05);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod math;

mod batch_means;
mod collection;
mod confidence;
mod histogram;
mod metric;
mod runs_test;
mod welford;

pub use batch_means::BatchMeans;
pub use collection::{MetricId, StatsCollection};
pub use confidence::half_width_mean;
pub use histogram::Histogram;
pub use metric::{MetricEstimate, MetricSpec, OutputMetric, Phase, QuantileEstimate};
pub use runs_test::{find_lag, RunsUpTest};
pub use welford::RunningStats;

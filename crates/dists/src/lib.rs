//! Probability distributions for BigHouse workload and system models.
//!
//! BigHouse represents workloads not as traces or binaries but as
//! *distributions* of task inter-arrival and service times (§2.2 of the
//! paper). This crate provides:
//!
//! - [`Empirical`] distributions — the compact, serializable,
//!   quantile-table representation the paper highlights ("a typical
//!   distribution occupies less than 1 MB"); every arrival and service
//!   draw the simulator makes comes from one, through its
//!   [`QuantileGuide`], and [`Empirical::scaled`] does the QPS load scaling,
//! - the object-safe [`Distribution`] trait (sampling + closed-form moments),
//! - the analytic families the experiments tabulate or draw from:
//!   [`Deterministic`], [`Exponential`] and [`HyperExponential`] (with a
//!   crate-private gamma, the families [`fit::fit_mean_cv`] picks to
//!   synthesize Table 1 workloads from their published moments),
//!   [`Exponential`] and
//!   [`Weibull`] (fault processes) and [`Erlang`] (the "Low C_v" arrivals
//!   of Figure 5). A family only a test or an oracle needs is drawn inline
//!   there and tabulated through [`Empirical::from_samples`].
//!
//! # Examples
//!
//! ```
//! use bighouse_des::SimRng;
//! use bighouse_dists::{Distribution, Exponential};
//!
//! let service = Exponential::from_mean(0.075).unwrap(); // 75 ms, like "Web"
//! assert!((service.mean() - 0.075).abs() < 1e-12);
//! assert!((service.cv() - 1.0).abs() < 1e-12);
//!
//! let mut rng = SimRng::from_seed(1);
//! let x = service.sample(&mut rng);
//! assert!(x > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod deterministic;
mod empirical;
mod erlang;
mod error;
mod exponential;
pub mod fit;
mod gamma;
mod guide;
mod hyperexp;
mod traits;
mod weibull;

pub use deterministic::Deterministic;
pub use empirical::Empirical;
pub use erlang::Erlang;
pub use error::DistributionError;
pub use exponential::Exponential;
pub(crate) use gamma::Gamma;
pub use guide::QuantileGuide;
pub use hyperexp::HyperExponential;
pub use traits::Distribution;
pub(crate) use traits::DynDistribution;
pub use weibull::Weibull;

//! Probability distributions for BigHouse workload and system models.
//!
//! BigHouse represents workloads not as traces or binaries but as
//! *distributions* of task inter-arrival and service times (§2.2 of the
//! paper). This crate provides:
//!
//! - the object-safe [`Distribution`] trait (sampling + closed-form moments),
//! - the analytic families needed by the paper's experiments — exponential
//!   (the "Exponential" arrival scenario of Figure 5), [`Erlang`] (the
//!   "Low C_v" scenario), [`Gamma`], [`LogNormal`], [`Weibull`], [`Pareto`],
//!   [`HyperExponential`] (the heavy-tailed C_v > 1 regime of Figure 8),
//! - [`Empirical`] distributions — the compact, serializable,
//!   quantile-table representation the paper highlights ("a typical
//!   distribution occupies less than 1 MB"),
//! - combinators ([`Scaled`], [`Shifted`], [`Mixture`]) used for QPS load
//!   scaling and service-time slowdown,
//! - [`fit::fit_mean_cv`], the moment-matching fitter used to synthesize
//!   Table 1 workloads from their published moments.
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

mod combinators;
mod deterministic;
mod empirical;
mod erlang;
mod error;
mod exponential;
pub mod fit;
mod gamma;
mod guide;
mod hyperexp;
mod lognormal;
mod mixture;
mod pareto;
mod traits;
mod uniform;
mod weibull;

pub use combinators::{Scaled, Shifted};
pub use deterministic::Deterministic;
pub use empirical::Empirical;
pub use erlang::Erlang;
pub use error::DistributionError;
pub use exponential::Exponential;
pub use gamma::Gamma;
pub use guide::QuantileGuide;
pub use hyperexp::HyperExponential;
pub use lognormal::LogNormal;
pub use mixture::Mixture;
pub use pareto::Pareto;
pub use traits::Distribution;
pub(crate) use traits::DynDistribution;
pub use uniform::Uniform;
pub use weibull::Weibull;

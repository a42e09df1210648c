//! BigHouse workload models.
//!
//! A BigHouse workload is a pair of empirically measured distributions — the
//! client request **inter-arrival** distribution and the response **service
//! time** distribution (§2.2 of the paper). The original distribution ships
//! five example workloads captured on real hardware (Table 1); since those
//! traces are proprietary, this crate *synthesizes* empirical distributions
//! that match the published moments exactly (see DESIGN.md, substitution 1).
//!
//! # Examples
//!
//! ```
//! use bighouse_workloads::{StandardWorkload, Workload};
//! use bighouse_dists::Distribution;
//!
//! let web = Workload::standard(StandardWorkload::Web);
//! // Table 1: Web service time averages 75 ms.
//! assert!((web.service().mean() - 0.075).abs() < 0.002);
//!
//! // Scale the arrival process to 60% of peak load on a 4-core server.
//! let loaded = web.at_utilization(0.6, 4);
//! let rho = web.service().mean() / (4.0 * loaded.interarrival().mean());
//! assert!((rho - 0.6).abs() < 0.02);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod moments;
mod table1;
mod workload;

pub use moments::TaskMoments;
pub use table1::StandardWorkload;
pub use workload::{Workload, WorkloadError, WorkloadRef};

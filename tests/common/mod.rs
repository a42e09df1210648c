//! Workload builders shared by the closed-form oracles
//! (`queueing_theory.rs`, `power_theory.rs`).

use bighouse::prelude::*;

/// Tabulates 400 000 draws of `dist` as an empirical distribution (as all
/// BigHouse workloads are).
pub fn table(dist: &dyn Distribution, rng: &mut SimRng) -> Empirical {
    let draws: Vec<f64> = (0..400_000).map(|_| dist.sample(rng).max(1e-12)).collect();
    Empirical::from_samples(&draws).unwrap()
}

/// Builds a workload with the given arrival and service distributions.
pub fn workload(arrivals: &dyn Distribution, service: &dyn Distribution, seed: u64) -> Workload {
    let mut rng = SimRng::from_seed(seed);
    let arr = table(arrivals, &mut rng);
    Workload::new("validation", arr, table(service, &mut rng))
}

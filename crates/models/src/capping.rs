//! The global power-capping coordinator (§4.1).
//!
//! "Power capping … assigns hard limits, or 'caps', to each server's power
//! consumption. These limits are enforced by throttling a server's
//! performance." The paper's demonstration scheme is deliberately simple:
//! a fair, **proportional** budgeting mechanism — every server gets a
//! budget in proportion to its utilization in the previous budgeting
//! interval — recomputed every second, enforced through idealized DVFS.
//!
//! The salient property for simulator performance (and for Figure 9's
//! "+Capping" metric) is that the scheme is *global*: all server models
//! interact each simulated second through this coordinator.

use crate::power::{DvfsModel, LinearPowerModel};

/// The result of one budgeting epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct CappingOutcome {
    /// Frequency factor assigned to each server for the next epoch.
    pub frequencies: Vec<f64>,
    /// Per-server capping level: how much more power (watts) the server
    /// would draw beyond its budget without a cap (0 when under budget).
    /// "At each budgeting epoch, the capping level can be observed."
    pub capping_levels: Vec<f64>,
    /// Per-server budgets assigned this epoch (watts).
    pub budgets: Vec<f64>,
}

bighouse_json::json_struct!(CappingOutcome {
    frequencies,
    capping_levels,
    budgets
});

impl CappingOutcome {
    /// Aggregate capping level across the cluster (watts).
    #[must_use]
    pub fn total_capping_level(&self) -> f64 {
        self.capping_levels.iter().sum()
    }
}

/// The proportional-budget power capper.
///
/// # Examples
///
/// ```
/// use bighouse_models::{DvfsModel, LinearPowerModel, PowerCapper};
///
/// let capper = PowerCapper::new(
///     LinearPowerModel::typical_server(),
///     DvfsModel::default(),
///     300.0, // provisioned for well under 2 servers' peak (2 × 200 W)
/// );
/// let outcome = capper.rebudget(&[1.0, 1.0]);
/// // Both servers are equally busy: equal budgets, equal throttling.
/// assert_eq!(outcome.budgets[0], outcome.budgets[1]);
/// assert!(outcome.frequencies[0] < 1.0);
/// assert!(outcome.capping_levels[0] > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerCapper {
    power_model: LinearPowerModel,
    dvfs: DvfsModel,
    total_budget_watts: f64,
}

// A file may name the budget alone: the models default to a typical
// server at the paper's α.
bighouse_json::json_struct!(PowerCapper {
    power_model = LinearPowerModel::typical_server(),
    dvfs = DvfsModel::default(),
    total_budget_watts
});

impl PowerCapper {
    /// The paper's budgeting interval: "budgets are calculated every
    /// second".
    pub const DEFAULT_EPOCH_SECONDS: f64 = 1.0;

    /// Creates a capper distributing `total_budget_watts` across servers
    /// sharing the given power and DVFS models.
    ///
    /// # Panics
    ///
    /// Panics if `total_budget_watts` is not finite and positive.
    #[must_use]
    pub fn new(power_model: LinearPowerModel, dvfs: DvfsModel, total_budget_watts: f64) -> Self {
        assert!(
            total_budget_watts.is_finite() && total_budget_watts > 0.0,
            "total budget must be finite and positive, got {total_budget_watts}"
        );
        PowerCapper {
            power_model,
            dvfs,
            total_budget_watts,
        }
    }

    /// Total cluster power budget in watts.
    #[must_use]
    pub fn total_budget_watts(&self) -> f64 {
        self.total_budget_watts
    }

    /// The shared power model.
    #[must_use]
    pub fn power_model(&self) -> &LinearPowerModel {
        &self.power_model
    }

    /// Computes the next epoch's budgets, frequencies, and capping levels
    /// from each server's utilization over the previous epoch.
    ///
    /// Budgets are proportional to utilization (with every server
    /// guaranteed a floor share covering participation, so an idle server
    /// is not starved to zero and can still run its idle power).
    ///
    /// # Panics
    ///
    /// Panics if `utilizations` is empty or any value is outside `[0, 1]`.
    #[must_use]
    pub fn rebudget(&self, utilizations: &[f64]) -> CappingOutcome {
        assert!(
            !utilizations.is_empty(),
            "rebudget needs at least one server"
        );
        for &u in utilizations {
            assert!(
                (0.0..=1.0).contains(&u),
                "utilization must be in [0, 1], got {u}"
            );
        }
        // Proportional shares with a small floor so idle servers keep a
        // budget for their idle draw.
        const FLOOR: f64 = 0.01;
        let total_weight: f64 = utilizations.iter().map(|u| u + FLOOR).sum();
        let mut frequencies = Vec::with_capacity(utilizations.len());
        let mut capping_levels = Vec::with_capacity(utilizations.len());
        let mut budgets = Vec::with_capacity(utilizations.len());
        for &u in utilizations {
            let budget = self.total_budget_watts * (u + FLOOR) / total_weight;
            let uncapped = self.power_model.power(u, 1.0);
            let capping_level = (uncapped - budget).max(0.0);
            let f = self
                .power_model
                .frequency_for_budget(u, budget, DvfsModel::F_MIN);
            frequencies.push(f);
            capping_levels.push(capping_level);
            budgets.push(budget);
        }
        CappingOutcome {
            frequencies,
            capping_levels,
            budgets,
        }
    }

    /// The DVFS model used to translate assigned frequencies into service
    /// rates.
    #[must_use]
    pub fn dvfs(&self) -> &DvfsModel {
        &self.dvfs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capper(total: f64) -> PowerCapper {
        PowerCapper::new(
            LinearPowerModel::typical_server(),
            DvfsModel::default(),
            total,
        )
    }

    #[test]
    fn generous_budget_means_no_capping() {
        let c = capper(10_000.0);
        let outcome = c.rebudget(&[0.5, 0.9, 0.1]);
        assert!(outcome.frequencies.iter().all(|&f| f == 1.0));
        assert_eq!(outcome.total_capping_level(), 0.0);
    }

    #[test]
    fn budgets_are_proportional_to_utilization() {
        let c = capper(400.0);
        let outcome = c.rebudget(&[0.8, 0.2]);
        assert!(outcome.budgets[0] > outcome.budgets[1]);
        let total: f64 = outcome.budgets.iter().sum();
        assert!(
            (total - 400.0).abs() < 1e-9,
            "budgets must exhaust the pool"
        );
    }

    #[test]
    fn tight_budget_throttles_busy_servers() {
        let c = capper(250.0); // two busy servers want 400 W total
        let outcome = c.rebudget(&[1.0, 1.0]);
        assert!(outcome.frequencies[0] < 1.0);
        assert!(outcome.frequencies[0] >= DvfsModel::F_MIN);
        assert!(outcome.capping_levels[0] > 0.0);
    }

    #[test]
    fn frequency_floor_is_respected() {
        let c = capper(50.0); // below even one server's idle power
        let outcome = c.rebudget(&[1.0, 1.0, 1.0, 1.0]);
        assert!(outcome
            .frequencies
            .iter()
            .all(|&f| (f - DvfsModel::F_MIN).abs() < 1e-12));
    }

    #[test]
    fn capping_level_matches_definition() {
        let c = capper(300.0);
        let outcome = c.rebudget(&[1.0, 1.0]);
        // Uncapped each draws 200 W; budget 150 W each: level = 50 W.
        for (&level, &budget) in outcome.capping_levels.iter().zip(&outcome.budgets) {
            assert!((level - (200.0 - budget)).abs() < 1e-9);
        }
    }

    #[test]
    fn single_server_gets_whole_budget() {
        let c = capper(180.0);
        let outcome = c.rebudget(&[0.7]);
        assert!((outcome.budgets[0] - 180.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn rebudget_rejects_empty() {
        let _ = capper(100.0).rebudget(&[]);
    }

    #[test]
    #[should_panic(expected = "utilization must be in [0, 1]")]
    fn rebudget_rejects_bad_utilization() {
        let _ = capper(100.0).rebudget(&[1.5]);
    }
}

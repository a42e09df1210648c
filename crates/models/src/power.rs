//! Power and performance models (paper Eqs. 4–6).

/// The linear server power model of Eq. 4, with a cubic CPU/DVFS term
/// (Eq. 5) and an idle low-power (nap) state:
///
/// ```text
/// P_total = P_idle + P_dynamic · U · f³      (awake, frequency factor f)
/// P_total = P_nap                            (napping)
/// ```
///
/// The model was validated by Fan et al. and Rivoire et al. (paper refs. 15 and 31); parameters follow "typical server
/// specification from industry" (ref. 5).
///
/// # Examples
///
/// ```
/// use bighouse_models::LinearPowerModel;
///
/// let model = LinearPowerModel::typical_server();
/// let idle = model.power(0.0, 1.0);
/// let peak = model.power(1.0, 1.0);
/// assert!(idle < peak);
/// // Halving frequency cuts the dynamic term by 8x (cubic scaling, Eq. 5).
/// let half = model.power(1.0, 0.5);
/// assert!((half - idle - (peak - idle) / 8.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearPowerModel {
    idle_watts: f64,
    dynamic_watts: f64,
    nap_watts: f64,
    /// Draw while the server is failed (down, awaiting repair). `None`
    /// means "same as idle": a hung server still burns its floor power.
    failed_watts: Option<f64>,
}

bighouse_json::json_struct!(LinearPowerModel {
    idle_watts,
    dynamic_watts,
    nap_watts,
    failed_watts,
});

impl LinearPowerModel {
    /// Creates a power model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is negative or non-finite, or if
    /// `nap_watts > idle_watts` (a nap state that costs more than idling is
    /// a configuration error).
    #[must_use]
    pub fn new(idle_watts: f64, dynamic_watts: f64, nap_watts: f64) -> Self {
        for (name, v) in [
            ("idle_watts", idle_watts),
            ("dynamic_watts", dynamic_watts),
            ("nap_watts", nap_watts),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{name} must be finite and non-negative, got {v}"
            );
        }
        assert!(
            nap_watts <= idle_watts,
            "nap power ({nap_watts} W) cannot exceed idle power ({idle_watts} W)"
        );
        LinearPowerModel {
            idle_watts,
            dynamic_watts,
            nap_watts,
            failed_watts: None,
        }
    }

    /// Sets the failed-state power draw (default: same as idle).
    ///
    /// # Panics
    ///
    /// Panics if `failed_watts` is negative or non-finite.
    #[must_use]
    pub fn with_failed_watts(mut self, failed_watts: f64) -> Self {
        assert!(
            failed_watts.is_finite() && failed_watts >= 0.0,
            "failed power must be finite and non-negative, got {failed_watts}"
        );
        self.failed_watts = Some(failed_watts);
        self
    }

    /// A typical commodity server per the Barroso & Hölzle synthesis
    /// lecture the paper cites: 200 W peak, 50% of it idle, ~5 W in a
    /// PowerNap-style sleep state.
    #[must_use]
    pub fn typical_server() -> Self {
        LinearPowerModel::new(100.0, 100.0, 5.0)
    }

    /// Idle (awake, zero-utilization) power in watts.
    #[must_use]
    pub fn idle_watts(&self) -> f64 {
        self.idle_watts
    }

    /// Dynamic power range in watts (peak minus idle at full frequency).
    #[must_use]
    pub fn dynamic_watts(&self) -> f64 {
        self.dynamic_watts
    }

    /// Nap-state power in watts.
    #[must_use]
    pub fn nap_watts(&self) -> f64 {
        self.nap_watts
    }

    /// Failed-state power in watts (idle power unless overridden).
    #[must_use]
    pub fn failed_watts(&self) -> f64 {
        self.failed_watts.unwrap_or(self.idle_watts)
    }

    /// Peak power at full utilization and frequency.
    #[must_use]
    pub fn peak_watts(&self) -> f64 {
        self.idle_watts + self.dynamic_watts
    }

    /// Awake power at utilization `u` and relative frequency `f` (Eqs. 4–5).
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside `[0, 1]` or `f` outside `(0, 1]`.
    #[must_use]
    pub fn power(&self, u: f64, f: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&u),
            "utilization must be in [0, 1], got {u}"
        );
        assert!(
            f > 0.0 && f <= 1.0,
            "frequency factor must be in (0, 1], got {f}"
        );
        self.idle_watts + self.dynamic_watts * u * f * f * f
    }

    /// Inverts Eqs. 4–5: the largest frequency factor (clamped to
    /// `[f_min, 1]`) whose power at utilization `u` fits within
    /// `budget_watts`.
    ///
    /// This is the capping actuator of §4.1: a server over budget is
    /// throttled to the frequency that brings it back under.
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside `[0, 1]` or `f_min` outside `(0, 1]`.
    #[must_use]
    pub(crate) fn frequency_for_budget(&self, u: f64, budget_watts: f64, f_min: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&u),
            "utilization must be in [0, 1], got {u}"
        );
        assert!(
            f_min > 0.0 && f_min <= 1.0,
            "minimum frequency must be in (0, 1], got {f_min}"
        );
        let dynamic_budget = budget_watts - self.idle_watts;
        let demand = self.dynamic_watts * u;
        if demand <= 0.0 || dynamic_budget >= demand {
            return 1.0;
        }
        if dynamic_budget <= 0.0 {
            return f_min;
        }
        (dynamic_budget / demand).cbrt().clamp(f_min, 1.0)
    }
}

/// The DVFS performance model of Eq. 6: the service-rate multiplier at
/// relative frequency `f` for an application that is a fraction `alpha`
/// CPU-bound:
///
/// ```text
/// µ' = µ · (α·f + (1 − α))
/// ```
///
/// # Examples
///
/// ```
/// use bighouse_des::Time;
/// use bighouse_models::{DvfsModel, Server};
///
/// // α = 0.9: "typical of a CPU-intense application (e.g., LINPACK)" (§4.1)
/// let mut server = Server::new(4).with_dvfs(DvfsModel::new(0.9));
/// assert!((server.speed() - 1.0).abs() < 1e-12);
/// server.set_frequency(0.5, Time::ZERO);
/// assert!((server.speed() - 0.55).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsModel {
    alpha: f64,
}

bighouse_json::json_struct!(DvfsModel { alpha });

impl DvfsModel {
    /// The paper's default CPU-boundedness (§4.1).
    const DEFAULT_ALPHA: f64 = 0.9;

    /// The paper's idealized continuous frequency range: `f ∈ [0.5, 1.0]`.
    pub(crate) const F_MIN: f64 = 0.5;

    /// Creates a DVFS model with CPU-boundedness `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= alpha <= 1`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "alpha must be in [0, 1], got {alpha}"
        );
        DvfsModel { alpha }
    }

    /// CPU-boundedness α.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Relative service rate at frequency factor `f` (Eq. 6).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < f <= 1`.
    #[must_use]
    pub(crate) fn speedup(&self, f: f64) -> f64 {
        assert!(
            f > 0.0 && f <= 1.0,
            "frequency factor must be in (0, 1], got {f}"
        );
        self.alpha * f + (1.0 - self.alpha)
    }
}

impl Default for DvfsModel {
    fn default() -> Self {
        DvfsModel::new(Self::DEFAULT_ALPHA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bighouse_des::check::check;

    #[test]
    fn linear_model_endpoints() {
        let m = LinearPowerModel::new(100.0, 100.0, 5.0);
        assert_eq!(m.power(0.0, 1.0), 100.0);
        assert_eq!(m.power(1.0, 1.0), 200.0);
        assert_eq!(m.peak_watts(), 200.0);
        assert_eq!(m.nap_watts(), 5.0);
    }

    #[test]
    fn power_is_linear_in_utilization() {
        let m = LinearPowerModel::typical_server();
        let p25 = m.power(0.25, 1.0) - m.idle_watts();
        let p75 = m.power(0.75, 1.0) - m.idle_watts();
        assert!((p75 / p25 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn power_is_cubic_in_frequency() {
        let m = LinearPowerModel::typical_server();
        let full = m.power(1.0, 1.0) - m.idle_watts();
        let throttled = m.power(1.0, 0.8) - m.idle_watts();
        assert!((throttled / full - 0.512).abs() < 1e-9);
    }

    #[test]
    fn budget_inversion_round_trips() {
        let m = LinearPowerModel::typical_server();
        for u in [0.3, 0.6, 1.0] {
            for f in [0.6, 0.8, 1.0] {
                let p = m.power(u, f);
                let recovered = m.frequency_for_budget(u, p, 0.5);
                assert!(
                    (recovered - f).abs() < 1e-9,
                    "u={u}, f={f}: recovered {recovered}"
                );
            }
        }
    }

    #[test]
    fn budget_inversion_clamps() {
        let m = LinearPowerModel::typical_server();
        // Generous budget: full speed.
        assert_eq!(m.frequency_for_budget(0.5, 1000.0, 0.5), 1.0);
        // Budget below idle power: floor.
        assert_eq!(m.frequency_for_budget(0.5, 50.0, 0.5), 0.5);
        // Zero utilization: nothing to throttle.
        assert_eq!(m.frequency_for_budget(0.0, 0.0, 0.5), 1.0);
    }

    #[test]
    fn dvfs_speedup_range() {
        let d = DvfsModel::new(0.9);
        assert_eq!(d.speedup(1.0), 1.0);
        assert!((d.speedup(0.5) - 0.55).abs() < 1e-12);
        // A memory-bound app (alpha=0) is unaffected by DVFS.
        assert_eq!(DvfsModel::new(0.0).speedup(0.5), 1.0);
        // A fully CPU-bound app scales proportionally.
        assert_eq!(DvfsModel::new(1.0).speedup(0.5), 0.5);
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn dvfs_rejects_bad_alpha() {
        let _ = DvfsModel::new(1.5);
    }

    #[test]
    fn failed_watts_defaults_to_idle() {
        let m = LinearPowerModel::typical_server();
        assert_eq!(m.failed_watts(), m.idle_watts());
        let off = m.with_failed_watts(0.0);
        assert_eq!(off.failed_watts(), 0.0);
    }

    #[test]
    #[should_panic(expected = "failed power")]
    fn rejects_negative_failed_watts() {
        let _ = LinearPowerModel::typical_server().with_failed_watts(-1.0);
    }

    #[test]
    #[should_panic(expected = "nap power")]
    fn rejects_nap_above_idle() {
        let _ = LinearPowerModel::new(10.0, 100.0, 20.0);
    }

    #[test]
    #[should_panic(expected = "utilization must be in [0, 1]")]
    fn power_rejects_bad_utilization() {
        let _ = LinearPowerModel::typical_server().power(1.5, 1.0);
    }

    /// Power model inversion: the frequency chosen for a budget never
    /// exceeds the budget's power (when above the floor).
    #[test]
    fn budget_inversion_is_safe() {
        check("budget_inversion_is_safe", 256, |g| {
            let (u, budget) = (g.range(0.0..1.0), g.range(0.0..300.0));
            let m = LinearPowerModel::typical_server();
            let f = m.frequency_for_budget(u, budget, 0.5);
            assert!((0.5..=1.0).contains(&f));
            if f > 0.5 && f < 1.0 {
                // Interior solution: power at f equals the budget.
                assert!((m.power(u, f) - budget).abs() <= 1e-6 * budget.max(1.0));
            }
        });
    }
}

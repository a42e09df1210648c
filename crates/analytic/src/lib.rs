//! Closed-form queueing theory: the pen-and-paper baseline.
//!
//! BigHouse exists because "easily-analyzed queuing models (e.g., M/M/1)
//! often poorly represent internet services" and the realistic G/G/k
//! models "have no known closed-form solution" (§1 of the paper). The
//! closed forms that *do* exist remain invaluable — as ground truth for
//! validating the simulator (see `tests/queueing_theory.rs` at the
//! workspace root), and as the strawman whose errors Figure 5 quantifies.
//! This crate implements them:
//!
//! - [`mm1`]: the M/M/1 queue (exact, including response-time quantiles),
//! - [`tandem`]: M/M/1 stations in series (Burke's theorem),
//! - [`mmk`]: the M/M/k queue via the [`erlang_c`] delay formula,
//! - [`mmkk`]: the finite-capacity M/M/k/K queue (truncated birth–death) —
//!   the closed form behind admission-controlled clusters, reducing to
//!   Erlang-B at `K = k` and approaching M/M/k as `K → ∞`,
//! - [`mg1`]: the M/G/1 queue via Pollaczek–Khinchine,
//! - [`erlang_b`]/[`erlang_c`]: the Erlang blocking and delay formulas.
//!
//! All functions take rates/moments in consistent units and return times
//! in those units.
//!
//! # Examples
//!
//! ```
//! use bighouse_analytic::{mm1, mg1};
//!
//! // An M/M/1 queue at 80% load with 10 ms mean service:
//! let t = mm1::mean_response(80.0, 100.0);
//! assert!((t - 0.05).abs() < 1e-12); // 1/(µ−λ) = 50 ms
//!
//! // Deterministic service halves the waiting time (P–K with Cv = 0):
//! let w_md1 = mg1::mean_response(80.0, 0.01, 0.0) - 0.01;
//! let w_mm1 = mg1::mean_response(80.0, 0.01, 1.0) - 0.01;
//! assert!((w_md1 / w_mm1 - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Validates a (λ, µ, servers) triple describes a stable queue; returns ρ.
fn stable_rho(lambda: f64, mu: f64, servers: u32) -> f64 {
    assert!(
        lambda.is_finite() && lambda > 0.0,
        "arrival rate must be finite and positive, got {lambda}"
    );
    assert!(
        mu.is_finite() && mu > 0.0,
        "service rate must be finite and positive, got {mu}"
    );
    assert!(servers > 0, "need at least one server");
    let rho = lambda / (mu * f64::from(servers));
    assert!(
        rho < 1.0,
        "queue is unstable: rho = {rho} (lambda {lambda}, mu {mu}, k {servers})"
    );
    rho
}

/// The Erlang-B blocking probability for an M/M/k/k loss system with
/// offered load `a = λ/µ` Erlangs and `k` servers.
///
/// Computed with the numerically stable recurrence
/// `B(0) = 1; B(j) = a·B(j−1) / (j + a·B(j−1))`.
///
/// # Panics
///
/// Panics if `a` is not positive and finite or `k` is zero.
///
/// # Examples
///
/// ```
/// // 10 Erlangs offered to 10 circuits: ~21.5% blocking.
/// let b = bighouse_analytic::erlang_b(10.0, 10);
/// assert!((b - 0.2146).abs() < 1e-3);
/// ```
#[must_use]
pub fn erlang_b(a: f64, k: u32) -> f64 {
    assert!(
        a.is_finite() && a > 0.0,
        "offered load must be positive, got {a}"
    );
    assert!(k > 0, "need at least one server");
    let mut b = 1.0;
    for j in 1..=k {
        b = a * b / (f64::from(j) + a * b);
    }
    b
}

/// The Erlang-C probability that an arrival must wait in an M/M/k queue
/// with offered load `a = λ/µ < k`.
///
/// Derived from Erlang-B: `C = k·B / (k − a(1 − B))`.
///
/// # Panics
///
/// Panics if `a` is not in `(0, k)` or `k` is zero.
///
/// # Examples
///
/// ```
/// // Heavily loaded single server: P(wait) = rho.
/// let c = bighouse_analytic::erlang_c(0.8, 1);
/// assert!((c - 0.8).abs() < 1e-12);
/// ```
#[must_use]
pub fn erlang_c(a: f64, k: u32) -> f64 {
    assert!(
        a.is_finite() && a > 0.0 && a < f64::from(k),
        "offered load must be in (0, k), got {a} for k = {k}"
    );
    let b = erlang_b(a, k);
    f64::from(k) * b / (f64::from(k) - a * (1.0 - b))
}

/// The M/M/1 queue.
pub mod mm1 {
    use super::stable_rho;

    /// Mean response (sojourn) time: `1 / (µ − λ)`.
    ///
    /// # Panics
    ///
    /// Panics for non-positive rates or an unstable queue.
    #[must_use]
    pub fn mean_response(lambda: f64, mu: f64) -> f64 {
        let _ = stable_rho(lambda, mu, 1);
        1.0 / (mu - lambda)
    }

    /// The `q`-quantile of response time (response is exponential with
    /// rate `µ − λ`): `−ln(1 − q) / (µ − λ)`.
    ///
    /// This exact tail is what Figures 4–5 estimate by simulation for
    /// non-exponential inputs.
    ///
    /// # Panics
    ///
    /// Panics for invalid rates, instability, or `q` outside `(0, 1)`.
    #[must_use]
    pub fn response_quantile(lambda: f64, mu: f64, q: f64) -> f64 {
        let _ = stable_rho(lambda, mu, 1);
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1), got {q}");
        -(1.0 - q).ln() / (mu - lambda)
    }
}

/// M/M/1 stations in tandem: a Jackson network without feedback, the
/// closed form behind a multi-tier pipeline of single-core tiers. By
/// Burke's theorem an M/M/1 station's departures are Poisson at its
/// arrival rate, so every station is an M/M/1 at the same λ and their
/// sojourns add.
pub mod tandem {
    use super::mm1;

    /// Mean end-to-end response time: `Σ 1/(µᵢ − λ)`.
    ///
    /// # Panics
    ///
    /// Panics if `mus` is empty, for non-positive rates, or if any
    /// station is unstable.
    #[must_use]
    pub fn mean_response(lambda: f64, mus: &[f64]) -> f64 {
        assert!(!mus.is_empty(), "a tandem needs at least one station");
        mus.iter().map(|&mu| mm1::mean_response(lambda, mu)).sum()
    }
}

/// The M/M/k queue.
pub mod mmk {
    use super::{erlang_c, stable_rho};

    /// Mean waiting time: `C(k, a) / (kµ − λ)`.
    ///
    /// # Panics
    ///
    /// Panics for non-positive rates or an unstable queue.
    #[must_use]
    pub(crate) fn mean_waiting(lambda: f64, mu: f64, k: u32) -> f64 {
        let _ = stable_rho(lambda, mu, k);
        let a = lambda / mu;
        erlang_c(a, k) / (f64::from(k) * mu - lambda)
    }

    /// Mean response time: `1/µ + W`.
    ///
    /// # Panics
    ///
    /// Panics for non-positive rates or an unstable queue.
    #[must_use]
    pub fn mean_response(lambda: f64, mu: f64, k: u32) -> f64 {
        1.0 / mu + mean_waiting(lambda, mu, k)
    }
}

/// The finite-capacity M/M/k/K queue: `k` servers, at most `K ≥ k` jobs in
/// the system (in service + queued). Arrivals finding `K` jobs are blocked
/// (shed), which is exactly what a bounded-queue admission controller does
/// to an M/M/k cluster — so these closed forms are the CI oracle for
/// `sim::resilience`'s admission control.
///
/// Computed from the truncated birth–death chain: with offered load
/// `a = λ/µ`, the unnormalized state weights are
/// `t_0 = 1; t_n = t_{n−1}·a/n (n ≤ k); t_n = t_{n−1}·a/k (n > k)`,
/// and `P(N = n) = t_n / Σt`. Unlike M/M/k, the chain is ergodic for *any*
/// positive load — blocking keeps it stable even at `a ≥ k`.
pub mod mmkk {
    /// Unnormalized birth–death weights `t_0..t_K` for offered load `a`.
    fn weights(a: f64, k: u32, capacity: u32) -> Vec<f64> {
        assert!(
            a.is_finite() && a > 0.0,
            "offered load must be positive, got {a}"
        );
        assert!(k > 0, "need at least one server");
        assert!(
            capacity >= k,
            "capacity K = {capacity} must be at least the server count k = {k}"
        );
        let mut t = Vec::with_capacity(capacity as usize + 1);
        t.push(1.0f64);
        for n in 1..=capacity {
            let divisor = f64::from(n.min(k));
            let next = t[n as usize - 1] * a / divisor;
            t.push(next);
        }
        // Normalize by the running maximum to keep extreme loads finite;
        // every consumer divides by the sum, so scale cancels.
        let max = t.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
        if max > 1e100 {
            for w in &mut t {
                *w /= max;
            }
        }
        t
    }

    /// Blocking probability `P(N = K)`: the fraction of arrivals shed by a
    /// bounded queue of capacity `K` (PASTA: arrivals see time averages).
    ///
    /// At `K = k` this is exactly [`super::erlang_b`].
    ///
    /// # Panics
    ///
    /// Panics if `a` is not positive and finite, `k` is zero, or
    /// `capacity < k`.
    #[must_use]
    pub fn blocking_probability(a: f64, k: u32, capacity: u32) -> f64 {
        let t = weights(a, k, capacity);
        let sum: f64 = t.iter().sum();
        t[capacity as usize] / sum
    }

    /// Mean number of jobs waiting in the queue: `Σ_{n>k} (n−k)·P(N = n)`.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid inputs as [`blocking_probability`].
    #[must_use]
    pub(crate) fn mean_queue_length(a: f64, k: u32, capacity: u32) -> f64 {
        let t = weights(a, k, capacity);
        let sum: f64 = t.iter().sum();
        t.iter()
            .enumerate()
            .skip(k as usize + 1)
            .map(|(n, w)| (n - k as usize) as f64 * w)
            .sum::<f64>()
            / sum
    }

    /// Mean waiting time of an *admitted* job, by Little's law over the
    /// queue: `W = Lq / λ_eff` with `λ_eff = λ(1 − p_K)`.
    ///
    /// # Panics
    ///
    /// Panics on invalid inputs or a non-positive arrival rate.
    #[must_use]
    pub(crate) fn mean_waiting(lambda: f64, mu: f64, k: u32, capacity: u32) -> f64 {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "arrival rate must be positive, got {lambda}"
        );
        assert!(
            mu.is_finite() && mu > 0.0,
            "service rate must be positive, got {mu}"
        );
        let a = lambda / mu;
        let p_block = blocking_probability(a, k, capacity);
        let effective = lambda * (1.0 - p_block);
        if effective <= 0.0 {
            return 0.0;
        }
        mean_queue_length(a, k, capacity) / effective
    }

    /// Mean response time of an admitted job: `1/µ + W`.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid inputs as [`blocking_probability`], or
    /// for a non-positive arrival or service rate.
    #[must_use]
    pub fn mean_response(lambda: f64, mu: f64, k: u32, capacity: u32) -> f64 {
        1.0 / mu + mean_waiting(lambda, mu, k, capacity)
    }
}

/// The M/G/1 queue (Pollaczek–Khinchine).
pub mod mg1 {
    /// Mean waiting time for service with mean `mean_service` and
    /// coefficient of variation `cv`:
    /// `W = λ·E[S²] / (2(1−ρ))` with `E[S²] = E[S]²(1 + C_v²)`.
    ///
    /// # Panics
    ///
    /// Panics for invalid parameters or an unstable queue.
    #[must_use]
    pub(crate) fn mean_waiting(lambda: f64, mean_service: f64, cv: f64) -> f64 {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "arrival rate must be positive, got {lambda}"
        );
        assert!(
            mean_service.is_finite() && mean_service > 0.0,
            "mean service must be positive, got {mean_service}"
        );
        assert!(
            cv.is_finite() && cv >= 0.0,
            "Cv must be non-negative, got {cv}"
        );
        let rho = lambda * mean_service;
        assert!(rho < 1.0, "queue is unstable: rho = {rho}");
        let second_moment = mean_service * mean_service * (1.0 + cv * cv);
        lambda * second_moment / (2.0 * (1.0 - rho))
    }

    /// Mean response time: `E[S] + W`.
    ///
    /// # Panics
    ///
    /// Panics for invalid parameters or an unstable queue.
    #[must_use]
    pub fn mean_response(lambda: f64, mean_service: f64, cv: f64) -> f64 {
        mean_service + mean_waiting(lambda, mean_service, cv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erlang_b_reference_values() {
        // Classic traffic-engineering table values.
        assert!((erlang_b(1.0, 1) - 0.5).abs() < 1e-12);
        assert!((erlang_b(10.0, 10) - 0.214_616).abs() < 1e-4);
        assert!((erlang_b(5.0, 10) - 0.018_385).abs() < 1e-4);
    }

    #[test]
    fn erlang_c_single_server_is_rho() {
        for rho in [0.1, 0.5, 0.9] {
            assert!((erlang_c(rho, 1) - rho).abs() < 1e-12);
        }
    }

    #[test]
    fn erlang_c_exceeds_erlang_b() {
        // Queued systems delay more often than loss systems block.
        for k in [2u32, 4, 16] {
            let a = f64::from(k) * 0.8;
            assert!(erlang_c(a, k) > erlang_b(a, k));
        }
    }

    #[test]
    fn mm1_relations() {
        let (lambda, mu) = (8.0, 10.0);
        assert!((mm1::mean_response(lambda, mu) - 0.5).abs() < 1e-12);
        // Median < mean for the exponential response.
        assert!(mm1::response_quantile(lambda, mu, 0.5) < mm1::mean_response(lambda, mu));
        // p95 = -ln(0.05)/(µ-λ) ≈ 1.498.
        assert!((mm1::response_quantile(lambda, mu, 0.95) - 1.4979).abs() < 1e-3);
    }

    #[test]
    fn tandem_is_the_sum_of_its_mm1_stations() {
        let lambda = 6.0;
        assert_eq!(
            tandem::mean_response(lambda, &[10.0]),
            mm1::mean_response(lambda, 10.0)
        );
        let mus = [10.0, 20.0, 8.57];
        let sum: f64 = mus.iter().map(|&mu| mm1::mean_response(lambda, mu)).sum();
        assert!((tandem::mean_response(lambda, &mus) - sum).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn tandem_with_an_unstable_station_is_rejected() {
        let _ = tandem::mean_response(6.0, &[10.0, 6.0]);
    }

    #[test]
    fn mmk_reduces_to_mm1() {
        let (lambda, mu) = (0.7, 1.0);
        assert!((mmk::mean_response(lambda, mu, 1) - mm1::mean_response(lambda, mu)).abs() < 1e-12);
        let mm1_waiting = mm1::mean_response(lambda, mu) - 1.0 / mu;
        assert!((mmk::mean_waiting(lambda, mu, 1) - mm1_waiting).abs() < 1e-12);
    }

    #[test]
    fn mmk_pooling_beats_mm1_at_same_rho() {
        // k pooled servers outperform one server at the same utilization.
        let mu = 1.0;
        let t1 = mm1::mean_response(0.8, mu);
        let t4 = mmk::mean_response(3.2, mu, 4);
        assert!(t4 < t1, "pooling should reduce response: {t4} vs {t1}");
    }

    #[test]
    fn mmkk_at_capacity_k_is_erlang_b() {
        for (a, k) in [(0.5, 1u32), (3.0, 4), (10.0, 10), (20.0, 8)] {
            let loss = mmkk::blocking_probability(a, k, k);
            let b = erlang_b(a, k);
            assert!(
                (loss - b).abs() < 1e-12,
                "M/M/{k}/{k} blocking {loss} vs Erlang-B {b}"
            );
            // A pure loss system has no queue.
            assert!(mmkk::mean_queue_length(a, k, k).abs() < 1e-12);
        }
    }

    #[test]
    fn mmkk_large_capacity_approaches_mmk() {
        let (lambda, mu, k) = (3.2, 1.0, 4u32);
        let w_inf = mmk::mean_waiting(lambda, mu, k);
        let w_big = mmkk::mean_waiting(lambda, mu, k, 400);
        assert!(
            (w_big - w_inf).abs() / w_inf < 1e-6,
            "M/M/k/K waiting {w_big} vs M/M/k {w_inf}"
        );
        assert!(mmkk::blocking_probability(lambda / mu, k, 400) < 1e-9);
    }

    #[test]
    fn mmkk_blocking_decreases_with_capacity() {
        let (a, k) = (6.0, 4u32);
        let mut prev = 1.0;
        for capacity in [4u32, 6, 8, 16, 32] {
            let p = mmkk::blocking_probability(a, k, capacity);
            assert!(p < prev, "blocking must shrink as K grows: {p} vs {prev}");
            assert!(p > 0.0 && p < 1.0);
            prev = p;
        }
    }

    #[test]
    fn mmkk_stable_even_when_overloaded() {
        // a > k would make M/M/k diverge; the bounded queue stays ergodic
        // and sheds most arrivals.
        let p = mmkk::blocking_probability(40.0, 4, 8);
        assert!(p > 0.85 && p < 1.0, "overload blocking {p}");
        // Waiting stays bounded by the full queue drained at rate kµ.
        let w = mmkk::mean_waiting(40.0, 1.0, 4, 8);
        assert!(w > 0.0 && w <= 4.0 / 4.0 + 1e-9, "overload waiting {w}");
    }

    #[test]
    fn mmkk_mean_response_adds_service() {
        let (lambda, mu, k, cap) = (3.0, 1.0, 4u32, 12u32);
        let w = mmkk::mean_waiting(lambda, mu, k, cap);
        let t = mmkk::mean_response(lambda, mu, k, cap);
        assert!((t - (w + 1.0 / mu)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be at least the server count")]
    fn mmkk_rejects_capacity_below_k() {
        let _ = mmkk::blocking_probability(1.0, 4, 3);
    }

    #[test]
    fn mg1_reduces_to_mm1_at_cv_one() {
        let (lambda, mu) = (6.0, 10.0);
        let pk = mg1::mean_response(lambda, 1.0 / mu, 1.0);
        assert!((pk - mm1::mean_response(lambda, mu)).abs() < 1e-12);
    }

    #[test]
    fn mg1_waiting_scales_with_one_plus_cv_squared() {
        let w0 = mg1::mean_waiting(5.0, 0.1, 0.0);
        let w2 = mg1::mean_waiting(5.0, 0.1, 2.0);
        assert!((w2 / w0 - 5.0).abs() < 1e-12); // (1+4)/(1+0)
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn unstable_queue_rejected() {
        let _ = mm1::mean_response(10.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "must be in (0, k)")]
    fn erlang_c_rejects_saturation() {
        let _ = erlang_c(4.0, 4);
    }
}

//! Property tests for [`TelemetrySnapshot::absorb`]: the merge used to
//! stitch a run's telemetry from epochs (sequential order) and a sweep's
//! from its configs (any completion order) must not depend on *how* the
//! stitching is bracketed, and its order-insensitive parts must not depend
//! on the order either — otherwise a resumed run and an uninterrupted run
//! of the same experiment, or two sweeps of the same grid, would disagree
//! about what happened.
//!
//! Float caveat: `absorb` sums histogram `sum` fields with `f64 +`, which
//! commutes bitwise but is *not* associative for arbitrary reals. The
//! stitching contract only ever sums values the simulator recorded, and
//! the associativity property below is stated over dyadic-rational samples
//! (multiples of 0.25 well inside the 53-bit mantissa), where every
//! partial sum is exact and associativity holds bit-for-bit.

use bighouse_des::check::{check, Gen};
use bighouse_telemetry::{FixedBinHistogram, PhaseTransition, TelemetrySnapshot};

/// Ops pick names from fixed pools instead of generating strings, so the
/// shards of one case share keys and the merges collide.
const COUNTERS: [&str; 3] = ["sim.jobs", "des.events", "stats.samples"];
const GAUGES: [&str; 2] = ["sim.queue_depth", "stats.lag"];

#[derive(Debug)]
enum Op {
    Counter(usize, u64),
    GaugeSet(usize, i16),
    /// Observed as `n * 0.25` — an exact dyadic rational.
    Observe(u8),
    Phase(u8),
}

fn op(g: &mut Gen) -> Op {
    match g.range(0..4) {
        0 => Op::Counter(g.range(0..COUNTERS.len()), g.range(0..1000)),
        1 => Op::GaugeSet(g.range(0..GAUGES.len()), g.any()),
        2 => Op::Observe(g.any()),
        _ => Op::Phase(g.any()),
    }
}

/// Builds a snapshot from an op list. Every snapshot carries the same
/// histogram shape, as every epoch of one run does.
fn snapshot_from(ops: &[Op]) -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::default();
    let mut lat = FixedBinHistogram::linear(0.0, 32.0, 8);
    for op in ops {
        match *op {
            Op::Counter(i, d) => snap.counter_add(COUNTERS[i], d),
            Op::GaugeSet(i, v) => {
                snap.gauges.insert(GAUGES[i].into(), f64::from(v));
            }
            Op::Observe(n) => lat.observe(f64::from(n) * 0.25),
            Op::Phase(n) => snap.phases.push(PhaseTransition {
                metric: "response_time".into(),
                from: "warm-up".into(),
                to: "calibration".into(),
                simulated_seconds: f64::from(n),
                wall_seconds: 0.0,
                total_observed: u64::from(n),
            }),
        }
    }
    snap.histograms.insert("lat".into(), lat);
    snap
}

fn ops(g: &mut Gen) -> Vec<Op> {
    g.vec(0..40, op)
}

/// Bracketing must not matter: `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)` for the
/// *entire* snapshot. Counters are u64 sums, histogram sums are exact
/// by construction, gauges are last-writer-wins (associative), and
/// phase logs concatenate (associative).
#[test]
fn absorb_is_associative() {
    check("absorb_is_associative", 256, |g| {
        let (a, b, c) = (ops(g), ops(g), ops(g));
        let left = {
            let mut ab = snapshot_from(&a);
            ab.absorb(&snapshot_from(&b));
            ab.absorb(&snapshot_from(&c));
            ab
        };
        let right = {
            let mut bc = snapshot_from(&b);
            bc.absorb(&snapshot_from(&c));
            let mut abc = snapshot_from(&a);
            abc.absorb(&bc);
            abc
        };
        assert_eq!(&left, &right);
        // Bit-for-bit: the JSON renderings agree byte by byte, the same
        // comparison CI's determinism gates make.
        assert_eq!(
            bighouse_json::to_string(&left),
            bighouse_json::to_string(&right)
        );
    });
}

/// Merge order must not matter for the order-insensitive namespaces:
/// counters and histograms of `a ⊕ b` and `b ⊕ a` agree exactly.
/// (Gauges and phase logs are *defined* to be order-dependent — last
/// writer wins and log concatenation — so they are excluded.)
#[test]
fn counters_and_histograms_commute() {
    check("counters_and_histograms_commute", 256, |g| {
        let (a, b) = (ops(g), ops(g));
        let ab = {
            let mut r = snapshot_from(&a);
            r.absorb(&snapshot_from(&b));
            r
        };
        let ba = {
            let mut r = snapshot_from(&b);
            r.absorb(&snapshot_from(&a));
            r
        };
        assert_eq!(&ab.counters, &ba.counters);
        assert_eq!(&ab.histograms, &ba.histograms);
    });
}

/// The concrete contract the runner and the sweep rely on: stitching the
/// same shards in epoch order (a, b, c sequentially) and in an arrival
/// order (c first, then a, then b) agree on every order-insensitive
/// namespace.
#[test]
fn epoch_and_slave_stitching_orders_agree() {
    check("epoch_and_slave_stitching_orders_agree", 256, |g| {
        let (a, b, c) = (ops(g), ops(g), ops(g));
        let epoch_order = {
            let mut r = snapshot_from(&a);
            r.absorb(&snapshot_from(&b));
            r.absorb(&snapshot_from(&c));
            r
        };
        let slave_order = {
            let mut r = snapshot_from(&c);
            r.absorb(&snapshot_from(&a));
            r.absorb(&snapshot_from(&b));
            r
        };
        assert_eq!(&epoch_order.counters, &slave_order.counters);
        assert_eq!(&epoch_order.histograms, &slave_order.histograms);
        assert_eq!(epoch_order.phases.len(), slave_order.phases.len());
    });
}

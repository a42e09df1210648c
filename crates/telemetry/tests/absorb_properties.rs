//! Property tests for [`MemoryRecorder::absorb`]: the merge used to stitch
//! a run's telemetry from epochs (sequential order) and parallel slaves
//! (arbitrary order) must not depend on *how* the stitching is bracketed,
//! and its order-insensitive parts must not depend on the order either —
//! otherwise an instrumented resumed run and an instrumented parallel run
//! of the same experiment would disagree about what happened.
//!
//! Float caveat: `absorb` sums histogram `sum` fields with `f64 +`, which
//! commutes bitwise but is *not* associative for arbitrary reals. The
//! stitching contract only ever sums values the simulator recorded, and
//! the associativity property below is stated over dyadic-rational samples
//! (multiples of 0.25 well inside the 53-bit mantissa), where every
//! partial sum is exact and associativity holds bit-for-bit.

use bighouse_telemetry::{FixedBinHistogram, MemoryRecorder, PhaseTransition};
use proptest::prelude::*;

/// Names are `&'static str` by the `MemoryRecorder` contract, so ops pick from
/// fixed pools instead of generating strings.
const COUNTERS: [&str; 3] = ["sim.jobs", "des.events", "stats.samples"];
const GAUGES: [&str; 2] = ["sim.queue_depth", "stats.lag"];

#[derive(Debug, Clone)]
enum Op {
    Counter(usize, u64),
    GaugeSet(usize, i16),
    GaugeMax(usize, i16),
    /// Observed as `n * 0.25` — an exact dyadic rational.
    Observe(u8),
    Phase(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..COUNTERS.len(), 0u64..1000).prop_map(|(i, d)| Op::Counter(i, d)),
        (0..GAUGES.len(), any::<i16>()).prop_map(|(i, v)| Op::GaugeSet(i, v)),
        (0..GAUGES.len(), any::<i16>()).prop_map(|(i, v)| Op::GaugeMax(i, v)),
        any::<u8>().prop_map(Op::Observe),
        any::<u8>().prop_map(Op::Phase),
    ]
}

/// Builds a recorder from an op list. Every recorder registers the same
/// histogram shape, as every epoch/slave of one run does.
fn recorder_from(ops: &[Op]) -> MemoryRecorder {
    let mut rec =
        MemoryRecorder::new().with_histogram("lat", FixedBinHistogram::linear(0.0, 32.0, 8));
    for op in ops {
        match *op {
            Op::Counter(i, d) => rec.counter_add(COUNTERS[i], d),
            Op::GaugeSet(i, v) => rec.gauge_set(GAUGES[i], f64::from(v)),
            Op::GaugeMax(i, v) => rec.gauge_max(GAUGES[i], f64::from(v)),
            Op::Observe(n) => rec.observe("lat", f64::from(n) * 0.25),
            Op::Phase(n) => rec.phase_transition(PhaseTransition {
                metric: "response_time".into(),
                from: "warm-up".into(),
                to: "calibration".into(),
                simulated_seconds: f64::from(n),
                wall_seconds: 0.0,
                total_observed: u64::from(n),
            }),
        }
    }
    rec
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(), 0..40)
}

proptest! {
    /// Bracketing must not matter: `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)` for the
    /// *entire* snapshot. Counters are u64 sums, histogram sums are exact
    /// by construction, gauges are last-writer-wins (associative), and
    /// phase logs concatenate (associative).
    #[test]
    fn absorb_is_associative(a in ops(), b in ops(), c in ops()) {
        let left = {
            let mut ab = recorder_from(&a);
            ab.absorb(&recorder_from(&b));
            ab.absorb(&recorder_from(&c));
            ab.snapshot()
        };
        let right = {
            let mut bc = recorder_from(&b);
            bc.absorb(&recorder_from(&c));
            let mut abc = recorder_from(&a);
            abc.absorb(&bc);
            abc.snapshot()
        };
        prop_assert_eq!(&left, &right);
        // Bit-for-bit: the JSON renderings agree byte by byte, the same
        // comparison CI's determinism gates make.
        prop_assert_eq!(
            serde_json::to_string(&left).unwrap(),
            serde_json::to_string(&right).unwrap()
        );
    }

    /// Merge order must not matter for the order-insensitive namespaces:
    /// counters and histograms of `a ⊕ b` and `b ⊕ a` agree exactly.
    /// (Gauges and phase logs are *defined* to be order-dependent — last
    /// writer wins and log concatenation — so they are excluded.)
    #[test]
    fn counters_and_histograms_commute(a in ops(), b in ops()) {
        let ab = {
            let mut r = recorder_from(&a);
            r.absorb(&recorder_from(&b));
            r.snapshot()
        };
        let ba = {
            let mut r = recorder_from(&b);
            r.absorb(&recorder_from(&a));
            r.snapshot()
        };
        prop_assert_eq!(&ab.counters, &ba.counters);
        prop_assert_eq!(&ab.histograms, &ba.histograms);
    }

    /// The concrete contract the runner relies on: stitching the same
    /// shards in epoch order (a, b, c sequentially) and in a slave
    /// arrival order (c first, then a, then b) agree on every
    /// order-insensitive namespace.
    #[test]
    fn epoch_and_slave_stitching_orders_agree(a in ops(), b in ops(), c in ops()) {
        let epoch_order = {
            let mut r = recorder_from(&a);
            r.absorb(&recorder_from(&b));
            r.absorb(&recorder_from(&c));
            r.snapshot()
        };
        let slave_order = {
            let mut r = recorder_from(&c);
            r.absorb(&recorder_from(&a));
            r.absorb(&recorder_from(&b));
            r.snapshot()
        };
        prop_assert_eq!(&epoch_order.counters, &slave_order.counters);
        prop_assert_eq!(&epoch_order.histograms, &slave_order.histograms);
        prop_assert_eq!(epoch_order.phases.len(), slave_order.phases.len());
    }
}

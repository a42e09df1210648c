//! Each leaf layer driven alone, through its public functions, with the
//! workload's own distributions, core count, calendar depth and metric
//! spec. The costs are per call; `trace` multiplies them by the counts of
//! the end-to-end run to get each layer's share.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bighouse::dists::QuantileGuide;
use bighouse::prelude::*;
use bighouse::stats::find_lag;

use crate::measure::Summary;

/// Nanoseconds per call of each leaf operation.
#[derive(Debug, Clone, Copy)]
pub struct LeafCosts {
    /// `Calendar::schedule` at the workload's depth.
    pub schedule_ns: f64,
    /// `Calendar::pop` at the workload's depth.
    pub pop_ns: f64,
    /// `Calendar::cancel` at the workload's depth.
    pub cancel_ns: f64,
    /// One raw draw of the simulation generator.
    pub rng_next_ns: f64,
    /// `Empirical::sample` of the service distribution, draw included.
    pub empirical_sample_ns: f64,
    /// The same draw through a `QuantileGuide`.
    pub guide_sample_ns: f64,
    /// `Server::arrive_into` and the `next_event` the cluster asks for after it.
    pub arrive_ns: f64,
    /// `Server::sync_into` at a completion, and the `next_event` after it.
    pub sync_ns: f64,
    /// `LoadBalancer::pick_by` over the workload's server count.
    pub pick_ns: f64,
    /// `OutputMetric::record` of a kept observation, `required_samples` included.
    pub record_kept_ns: f64,
    /// `OutputMetric::record` of an observation the lag skips.
    pub record_skipped_ns: f64,
    /// `OutputMetric::required_samples` alone.
    pub required_samples_ns: f64,
    /// `StatsCollection::all_converged` over the workload's metrics.
    pub all_converged_ns: f64,
    /// `find_lag` on a calibration sample that reaches the spec's lag cap.
    pub find_lag_ms: f64,
}

impl LeafCosts {
    /// Every cost multiplied by `k`.
    pub fn scaled(self, k: f64) -> LeafCosts {
        LeafCosts {
            schedule_ns: self.schedule_ns * k,
            pop_ns: self.pop_ns * k,
            cancel_ns: self.cancel_ns * k,
            rng_next_ns: self.rng_next_ns * k,
            empirical_sample_ns: self.empirical_sample_ns * k,
            guide_sample_ns: self.guide_sample_ns * k,
            arrive_ns: self.arrive_ns * k,
            sync_ns: self.sync_ns * k,
            pick_ns: self.pick_ns * k,
            record_kept_ns: self.record_kept_ns * k,
            record_skipped_ns: self.record_skipped_ns * k,
            required_samples_ns: self.required_samples_ns * k,
            all_converged_ns: self.all_converged_ns * k,
            find_lag_ms: self.find_lag_ms * k,
        }
    }
}

/// What the replay needs to know about a workload.
#[derive(Debug)]
pub struct ReplayInput<'a> {
    /// The workload's configuration.
    pub config: &'a ExperimentConfig,
    /// Its front-end policy, if arrivals are balanced.
    pub front_end: Option<BalancerPolicy>,
    /// Pending-event high-water mark of its end-to-end run.
    pub depth: usize,
}

/// Measures every leaf cost, spending about `slice` on each.
pub fn leaf_costs(input: &ReplayInput<'_>, slice: Duration) -> LeafCosts {
    let bench = Bench::new(slice);
    let service = input.config.workload().service();
    let draws = service_draws(service);
    let (schedule_ns, pop_ns, cancel_ns) = bench.calendar(input.depth);
    let (arrive_ns, sync_ns) = bench.server(input);
    let (record_kept_ns, record_skipped_ns, required_samples_ns) =
        bench.metric(&input.config.metric_specs()[0].1, &draws);
    LeafCosts {
        schedule_ns,
        pop_ns,
        cancel_ns,
        rng_next_ns: {
            let mut rng = SimRng::from_seed(1);
            bench.per_call(|| black_box(rng.raw_u64()))
        },
        empirical_sample_ns: {
            let mut rng = SimRng::from_seed(2);
            bench.per_call(|| black_box(service.sample(&mut rng)))
        },
        guide_sample_ns: {
            let mut rng = SimRng::from_seed(2);
            let guide = QuantileGuide::new(service);
            bench.per_call(|| black_box(guide.sample_from_bits(rng.raw_u64())))
        },
        arrive_ns,
        sync_ns,
        pick_ns: bench.balancer(input),
        record_kept_ns,
        record_skipped_ns,
        required_samples_ns,
        all_converged_ns: {
            let mut stats = StatsCollection::new();
            for (_, spec) in input.config.metric_specs() {
                stats.add_metric(spec);
            }
            bench.per_call(|| black_box(black_box(&stats).all_converged()))
        },
        find_lag_ms: bench.find_lag(&input.config.metric_specs()[0].1),
    }
}

/// A few thousand service times to feed the statistics replay, so it
/// times recording and not sampling.
fn service_draws(service: &Empirical) -> Vec<f64> {
    let mut rng = SimRng::from_seed(3);
    (0..4096).map(|_| service.sample(&mut rng)).collect()
}

/// Deterministic uniform variates in `(0, 1)` without an RNG dependency,
/// as `perf_baseline`'s calendar microbenchmark draws them.
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// Median cost in nanoseconds of reading the clock twice, which every
/// timed region includes once.
pub fn clock_overhead_ns() -> f64 {
    let pairs: Vec<f64> = (0..1000)
        .map(|_| {
            let t = Instant::now();
            black_box(t.elapsed()).as_nanos() as f64
        })
        .collect();
    Summary::of(&pairs).median
}

/// Timing loops sharing one time slice and one estimate of what reading
/// the clock costs.
struct Bench {
    slice: Duration,
    /// [`clock_overhead_ns`], subtracted from every timed region.
    clock_ns: f64,
}

impl Bench {
    fn new(slice: Duration) -> Self {
        Bench {
            slice,
            clock_ns: clock_overhead_ns(),
        }
    }

    /// Nanoseconds of a timed region holding `calls` calls.
    fn region(&self, started: Instant, calls: usize) -> f64 {
        (started.elapsed().as_nanos() as f64 - self.clock_ns).max(0.0) / calls as f64
    }

    /// Runs `round` until the slice is spent (at least three times) and
    /// returns the median of each column of what it returns.
    fn rounds<const N: usize>(&self, mut round: impl FnMut() -> [f64; N]) -> [f64; N] {
        let mut columns: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
        round(); // warm caches and grow buffers
        let started = Instant::now();
        while columns[0].len() < 3 || started.elapsed() < self.slice {
            for (column, value) in columns.iter_mut().zip(round()) {
                column.push(value);
            }
        }
        columns.map(|c| Summary::of(&c).median)
    }

    /// Median cost of one call of `op`, timed in batches of 1024.
    fn per_call<T>(&self, mut op: impl FnMut() -> T) -> f64 {
        const BATCH: usize = 1024;
        let [ns] = self.rounds(|| {
            let t = Instant::now();
            for _ in 0..BATCH {
                op();
            }
            [self.region(t, BATCH)]
        });
        ns
    }

    /// Steady state at `depth` pending events: pop a batch, schedule a
    /// batch a random delay ahead, schedule and cancel a batch.
    fn calendar(&self, depth: usize) -> (f64, f64, f64) {
        let depth = depth.max(1);
        let batch = (depth / 8).clamp(1, 64);
        let mut lcg = Lcg(0x9e37_79b9_7f4a_7c15);
        let mut cal = Calendar::<u64>::new();
        for i in 0..depth {
            cal.schedule_in(lcg.unit(), i as u64);
        }
        let mut handles = Vec::with_capacity(batch);
        let [schedule_ns, pop_ns, cancel_ns] = self.rounds(|| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(cal.pop());
            }
            let pop_ns = self.region(t, batch);
            let t = Instant::now();
            for i in 0..batch {
                black_box(cal.schedule_in(lcg.unit(), i as u64));
            }
            let schedule_ns = self.region(t, batch);
            handles.clear();
            for i in 0..batch {
                handles.push(cal.schedule_in(lcg.unit(), i as u64));
            }
            let t = Instant::now();
            for &handle in &handles {
                black_box(cal.cancel(handle));
            }
            [schedule_ns, pop_ns, self.region(t, batch)]
        });
        (schedule_ns, pop_ns, cancel_ns)
    }

    /// One of the workload's servers fed its share of the arrival stream:
    /// each arrival and each completion is timed on its own, with the
    /// `next_event` query the cluster makes after either.
    fn server(&self, input: &ReplayInput<'_>) -> (f64, f64) {
        const EVENTS: usize = 4096;
        let workload = input.config.workload();
        // A balanced front end spreads one stream over every server.
        let spread = input
            .front_end
            .map_or(1.0, |_| input.config.servers() as f64);
        let mut rng = SimRng::from_seed(4);
        let mut server = Server::new(input.config.cores_per_server());
        let mut finished = Vec::new();
        let mut next_arrival = Time::ZERO + workload.interarrival().sample(&mut rng) * spread;
        let mut jobs = 0u64;
        let [arrive_ns, sync_ns] = self.rounds(|| {
            let (mut arrive, mut arrivals) = (0.0, 0usize);
            let (mut sync, mut syncs) = (0.0, 0usize);
            for _ in 0..EVENTS {
                finished.clear();
                match server.next_event() {
                    Some(due) if due <= next_arrival => {
                        let t = Instant::now();
                        server.sync_into(due, &mut finished);
                        black_box(server.next_event());
                        sync += self.region(t, 1);
                        syncs += 1;
                    }
                    _ => {
                        let size = workload.service().sample(&mut rng).max(1e-12);
                        let job = Job::new(JobId::new(jobs), next_arrival, size);
                        jobs += 1;
                        let t = Instant::now();
                        server.arrive_into(job, next_arrival, &mut finished);
                        black_box(server.next_event());
                        arrive += self.region(t, 1);
                        arrivals += 1;
                        next_arrival += workload.interarrival().sample(&mut rng) * spread;
                    }
                }
            }
            [arrive / arrivals.max(1) as f64, sync / syncs.max(1) as f64]
        });
        (arrive_ns, sync_ns)
    }

    /// The front end's pick over queue lengths that drift as it picks.
    /// A workload without a front end is measured with join-shortest-queue
    /// and counted zero times.
    fn balancer(&self, input: &ReplayInput<'_>) -> f64 {
        let servers = input.config.servers();
        let policy = input.front_end.unwrap_or(BalancerPolicy::JoinShortestQueue);
        let mut balancer = LoadBalancer::new(policy, servers);
        let mut rng = SimRng::from_seed(5);
        let mut lengths = vec![1usize; servers];
        self.per_call(|| {
            let picked = balancer.pick_by(|i| lengths[i], &mut rng);
            lengths[picked] += 1;
            let drained = (rng.raw_u64() % servers as u64) as usize;
            lengths[drained] = lengths[drained].saturating_sub(1);
            picked
        })
    }

    /// `record` in the measurement phase, kept and skipped, and
    /// `required_samples` alone. The accuracy target is unreachable so the
    /// metric never converges and every kept observation re-derives the
    /// required sample size, as it does until the last one of a real run.
    fn metric(&self, spec: &MetricSpec, draws: &[f64]) -> (f64, f64, f64) {
        let measuring = |max_lag: usize, calibration: &mut dyn Iterator<Item = f64>| {
            let spec = spec
                .clone()
                .with_target_accuracy(1e-9)
                .with_warmup(0)
                .with_max_lag(max_lag);
            let mut metric = OutputMetric::new(spec);
            while metric.phase() != Phase::Measurement {
                metric.record(calibration.next().expect("endless iterator"));
            }
            metric
        };
        let per_record = |metric: &mut OutputMetric| {
            let mut i = 0;
            self.per_call(|| {
                metric.record(draws[i % draws.len()]);
                i += 1;
            })
        };

        let mut kept = measuring(1, &mut draws.iter().copied().cycle());
        assert_eq!(kept.lag(), 1);
        let record_kept_ns = per_record(&mut kept);
        let required_samples_ns = self.per_call(|| black_box(black_box(&kept).required_samples()));

        // A rising ramp fails the runs test at every lag, so calibration
        // settles on the cap: 1 observation in LAG kept, the rest skipped.
        const LAG: usize = 32;
        let mut spaced = measuring(LAG, &mut (0..).map(f64::from));
        assert_eq!(spaced.lag(), LAG);
        let mixed_ns = per_record(&mut spaced);
        let record_skipped_ns =
            ((mixed_ns * LAG as f64 - record_kept_ns) / (LAG - 1) as f64).max(0.0);
        (record_kept_ns, record_skipped_ns, required_samples_ns)
    }

    /// The calibration-phase lag search at the spec's sample size and cap,
    /// on a sample that fails at every lag — the search every frozen
    /// workload performs, since each reaches its cap.
    fn find_lag(&self, spec: &MetricSpec) -> f64 {
        let sample: Vec<f64> = (0..spec.calibration() as u32).map(f64::from).collect();
        let test = RunsUpTest::new(1.0 - spec.confidence());
        let [ns] = self.rounds(|| {
            let t = Instant::now();
            black_box(find_lag(black_box(&sample), spec.max_lag(), &test));
            [self.region(t, 1)]
        });
        ns / 1e6
    }
}

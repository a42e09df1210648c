//! The traced run: where one workload's wall time goes, outside in.
//!
//! Everything is measured from this crate, around calls into each layer's
//! public functions. Three sources, all on the workload's own
//! configuration and seed:
//!
//! 1. **Counts** — one run with telemetry on.
//! 2. **Driven trace** — the harness owns the event loop: a primed
//!    `Calendar`, and an `Engine` over a wrapper that times a sample of
//!    `ClusterSim::handle` calls. That is the calendar engine on every
//!    workload, whatever the default engine selection is.
//! 3. **Replay** — each leaf layer alone ([`crate::replay`]).
//!
//! A layer's share is its count × its replayed cost ÷ the driven loop's
//! wall time; what the handlers spend that no leaf explains is reported as
//! `sim.cluster.glue_frac`, never hidden. Every time is scaled to the
//! nominal host speed by the probes around the run it comes from
//! ([`with_host_speed`]), so that times taken minutes apart on a drifting
//! host can be divided by one another.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use bighouse::prelude::*;

use crate::measure::{failure, with_host_speed, Outcome, Summary};
use crate::replay::{clock_overhead_ns, leaf_costs, ReplayInput};
use crate::workloads::{mm_jobs, Runner, Scale, WorkloadSpec, JSQ, MAX_EVENTS};

/// Untraced default-engine runs the traced numbers are compared with.
const REFERENCE_RUNS: usize = 2;
/// One `handle` call in this many is timed.
const SAMPLE_EVERY: u32 = 61;
/// Slaves of the parallel section on a workload that is not itself parallel.
const SLAVES: usize = 2;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer entered.
    pub layer: &'static str,
    /// Start, in nanoseconds since the traced run began.
    pub start_ns: u64,
    /// End, on the same clock.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// The spans of one traced run, kept in memory until it ends.
#[derive(Debug)]
pub struct Spans {
    /// Identifier every span of this run shares.
    pub run_id: u64,
    /// Sizes the probes of [`Spans::normalised`].
    scale: Scale,
    began: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new(run_id: u64, scale: Scale) -> Self {
        Spans {
            run_id,
            scale,
            began: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.began.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns what it returns with the span's
    /// length in seconds.
    fn within<T>(
        &mut self,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Spans, usize) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        let value = f(self, id);
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (value, (end_ns - start_ns) as f64 / 1e9)
    }

    /// As [`Spans::within`], between two probes: the length comes back
    /// scaled to the nominal host speed, followed by that speed.
    fn normalised<T>(
        &mut self,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Spans, usize) -> T,
    ) -> (T, f64, f64) {
        let scale = self.scale;
        let ((value, seconds), speed) = with_host_speed(scale, || self.within(layer, parent, f));
        (value, seconds * speed, speed)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one span per line: `run id parent layer start_ns end_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("run\tid\tparent\tlayer\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{:016x}\t{id}\t{parent}\t{}\t{}\t{}",
                self.run_id, s.layer, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, text)
    }
}

/// What the traced run reports.
#[derive(Debug)]
pub struct TraceReport {
    /// Every per-layer metric, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Fingerprint of the untraced reference run.
    pub fingerprint: u64,
    /// Runs to convergence made along the way.
    pub runs_attempted: u32,
    /// How many of them do not count.
    pub runs_failed: u32,
    /// Why.
    pub failures: Vec<String>,
    /// The spans.
    pub spans: Spans,
}

/// Runs and failures so far; serial runs must all fingerprint alike.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u32,
    failed: u32,
    failures: Vec<String>,
    fingerprint: Option<u64>,
}

impl Ledger {
    /// Books one run; `why` is empty if it counts.
    fn book(&mut self, what: &str, why: impl IntoIterator<Item = String>) {
        self.attempted += 1;
        let before = self.failures.len();
        self.failures
            .extend(why.into_iter().map(|w| format!("{what}: {w}")));
        if self.failures.len() > before {
            self.failed += 1;
        }
    }

    /// A run that must have converged.
    fn run(&mut self, what: &str, outcome: &Outcome) {
        self.book(what, failure(outcome));
    }

    /// A serial run of the workload's configuration and seed: whatever
    /// engine or instrument it went through, it simulated the same thing.
    fn serial(&mut self, what: &str, outcome: &Outcome) {
        let fingerprint = outcome.fingerprint();
        let reference = *self.fingerprint.get_or_insert(fingerprint);
        let differs = (fingerprint != reference).then(|| {
            format!(
                "fingerprint {fingerprint:016x} differs from the untraced run's {reference:016x}"
            )
        });
        self.book(what, failure(outcome).into_iter().chain(differs));
    }
}

type Event = <ClusterSim as Simulation>::Event;

/// `ClusterSim` with a sample of its `handle` calls timed.
struct Traced {
    sim: ClusterSim,
    until_sample: u32,
    /// Entry and exit of each timed call, converted to span times only
    /// after the run so the timed path is two clock reads and a push.
    samples: Vec<(Instant, Instant)>,
}

impl Simulation for Traced {
    type Event = Event;

    fn handle(&mut self, now: Time, event: Event, cal: &mut Calendar<Event>) -> Control {
        self.until_sample -= 1;
        if self.until_sample > 0 {
            return self.sim.handle(now, event, cal);
        }
        self.until_sample = SAMPLE_EVERY;
        let entered = Instant::now();
        let control = self.sim.handle(now, event, cal);
        self.samples.push((entered, Instant::now()));
        control
    }
}

/// Primes a fresh cluster and calendar and runs `wrap(cluster)` to
/// convergence on the plain calendar engine. Returns the loop's wall time,
/// the wrapped simulation and what the run produced.
fn drive<S: Simulation<Event = Event>>(
    config: &ExperimentConfig,
    seed: u64,
    wrap: impl FnOnce(ClusterSim) -> S,
    cluster: impl FnOnce(&S) -> &ClusterSim,
) -> Result<(f64, S, Outcome), SimError> {
    let mut sim = ClusterSim::new(config.clone(), seed)?;
    let mut calendar = Calendar::new();
    sim.prime(&mut calendar);
    let mut engine = Engine::from_parts(wrap(sim), calendar);
    let t = Instant::now();
    let run = engine.run_with_limit(MAX_EVENTS);
    let loop_s = t.elapsed().as_secs_f64();
    let simulated_seconds = engine.now().as_seconds();
    let wrapped = engine.into_simulation();
    let stats = cluster(&wrapped).stats();
    let outcome = Outcome {
        events: run.events_fired,
        simulated_seconds,
        estimates: stats.estimates(),
        converged: stats.all_converged(),
    };
    Ok((loop_s, wrapped, outcome))
}

/// Exact counts of the end-to-end run, from its telemetry.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    scheduled: f64,
    fired: f64,
    cancelled: f64,
    sift_steps: f64,
    depth_high_water: f64,
    recorded: f64,
    kept: f64,
    lag_discarded: f64,
    max_lag: f64,
    jobs_completed: f64,
    retries: f64,
    timeouts: f64,
}

impl Counts {
    fn of(report: &SimulationReport) -> Counts {
        let telemetry = report
            .runtime
            .telemetry
            .as_ref()
            .expect("the counts run has telemetry on");
        let counter = |key: &str| telemetry.counters.get(key).copied().unwrap_or(0) as f64;
        let gauge = |key: &str| telemetry.gauges.get(key).copied().unwrap_or(0.0);
        let mut counts = Counts {
            scheduled: counter("des.events_scheduled"),
            fired: counter("des.events_fired"),
            cancelled: counter("des.events_cancelled"),
            sift_steps: counter("des.sift_steps"),
            depth_high_water: gauge("des.calendar_depth_high_water"),
            recorded: counter("stats.samples_recorded"),
            jobs_completed: report.cluster.jobs_completed as f64,
            retries: counter("sim.retries"),
            timeouts: counter("sim.timeouts"),
            ..Counts::default()
        };
        for estimate in &report.estimates {
            let name = &estimate.name;
            counts.kept += counter(&format!("stats.{name}.samples_kept"));
            counts.lag_discarded += counter(&format!("stats.{name}.samples_discarded"));
            counts.max_lag = counts.max_lag.max(gauge(&format!("stats.{name}.lag")));
        }
        counts
    }
}

/// `perf_baseline`'s sweep scenario: utilization {0.5, 0.6, 0.7} × servers
/// {8, 16} over the M/M job stream.
fn sweep_grid(scale: Scale) -> Vec<SweepEntry> {
    let workload = mm_jobs();
    let mut entries = Vec::new();
    for servers in [8usize, 16] {
        for tenths in [5u32, 6, 7] {
            let config =
                ExperimentConfig::new(workload.at_utilization(f64::from(tenths) / 10.0, 1))
                    .with_servers(servers)
                    .with_arrival_mode(ArrivalMode::LoadBalanced(JSQ))
                    .with_target_accuracy(0.005)
                    .with_warmup(500)
                    .with_calibration(2_000)
                    .with_max_events(match scale {
                        Scale::Full => 500_000,
                        Scale::Smoke => 20_000,
                    });
            entries.push(SweepEntry::new(
                format!("servers={servers},utilization=0.{tenths}"),
                config,
            ));
        }
    }
    entries
}

/// Traces one workload. `slice` is the time each replayed leaf gets.
pub fn trace(
    spec: &WorkloadSpec,
    scale: Scale,
    seed: u64,
    slice: Duration,
) -> Result<TraceReport, SimError> {
    let mut spans = Spans::new(seed ^ 0x7261_6365_7472_6163, scale);
    let mut ledger = Ledger::default();
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();

    let (result, _) = spans.within("trace", None, |spans, root| -> Result<(), SimError> {
        let root = Some(root);
        let (config, synthesize_s, _) =
            spans.normalised("workloads", root, |_, _| (spec.config)(scale));
        metrics.push(("workloads.synthesize_ms", synthesize_s * 1e3));

        // The untraced reference: the default engine selection.
        let mut walls = Vec::new();
        let mut serial_events = 0.0;
        for _ in 0..REFERENCE_RUNS {
            let (outcome, wall, _) =
                spans.normalised("sim.runner", root, |_, _| run_serial(&config, seed));
            let outcome = Outcome::from(outcome?);
            ledger.serial("untraced run", &outcome);
            serial_events = outcome.events as f64;
            walls.push(wall);
        }
        let serial_wall = Summary::of(&walls).median;

        // 1. Counts.
        let counted = config.clone().with_telemetry(true);
        let (report, telemetry_wall, _) =
            spans.normalised("telemetry", root, |_, _| run_serial(&counted, seed));
        let report = report?;
        let counts = Counts::of(&report);
        ledger.serial("telemetry run", &report.into());
        metrics.extend([
            ("des.calendar.scheduled", counts.scheduled),
            ("des.calendar.fired", counts.fired),
            ("des.calendar.cancelled", counts.cancelled),
            ("des.calendar.sift_steps", counts.sift_steps),
            ("des.calendar.depth_high_water", counts.depth_high_water),
            ("stats.metric.recorded", counts.recorded),
            ("stats.metric.kept", counts.kept),
            ("stats.metric.lag_discarded", counts.lag_discarded),
            ("stats.metric.max_lag", counts.max_lag),
            ("models.server.jobs_completed", counts.jobs_completed),
            ("sim.cluster.retries", counts.retries),
            ("sim.cluster.timeouts", counts.timeouts),
            (
                "telemetry.overhead_frac",
                telemetry_wall / serial_wall - 1.0,
            ),
        ]);

        // 2. The driven trace, then the same loop without spans.
        let (driven, _, traced_speed) = spans.normalised("des.engine", root, |spans, parent| {
            let driven = drive(
                &config,
                seed,
                |sim| Traced {
                    sim,
                    until_sample: SAMPLE_EVERY,
                    // Sized up front: the loop must not stop to grow it.
                    samples: Vec::with_capacity(serial_events as usize / SAMPLE_EVERY as usize + 1),
                },
                |traced| &traced.sim,
            );
            if let Ok((_, traced, _)) = &driven {
                let began = spans.began;
                let since = |at: Instant| at.duration_since(began).as_nanos() as u64;
                spans
                    .spans
                    .extend(traced.samples.iter().map(|&(entered, left)| Span {
                        layer: "sim.cluster",
                        start_ns: since(entered),
                        end_ns: since(left),
                        parent: Some(parent),
                    }));
            }
            driven
        });
        let (traced_loop_s, traced, outcome) = driven?;
        let traced_loop_s = traced_loop_s * traced_speed;
        ledger.serial("traced loop", &outcome);
        let (plain, _, plain_speed) = spans.normalised("des.engine", root, |_, _| {
            drive(&config, seed, |sim| sim, |sim| sim)
        });
        let (loop_s, _, outcome) = plain?;
        let loop_s = loop_s * plain_speed;
        ledger.serial("driven loop", &outcome);
        let fired = outcome.events as f64;
        let sampled: f64 = traced
            .samples
            .iter()
            .map(|&(entered, left)| left.duration_since(entered).as_nanos() as f64)
            .sum();
        let handle_ns = (sampled / traced.samples.len().max(1) as f64 - clock_overhead_ns())
            .max(0.0)
            * traced_speed;
        let handle_frac = handle_ns * fired / (loop_s * 1e9);
        metrics.extend([
            ("des.engine.loop_s", loop_s),
            ("des.engine.self_frac", 1.0 - handle_frac),
            ("sim.cluster.handle_frac", handle_frac),
            ("sim.cluster.handle_ns", handle_ns),
            ("trace.overhead_frac", traced_loop_s / loop_s - 1.0),
            ("sim.runner.default_over_calendar", serial_wall / loop_s),
        ]);

        // 3. Replay, and the shares it explains.
        let (leaf, _, replay_speed) = spans.normalised("replay", root, |_, _| {
            leaf_costs(
                &ReplayInput {
                    config: &config,
                    front_end: spec.front_end,
                    depth: counts.depth_high_water as usize,
                },
                slice,
            )
        });
        let leaf = leaf.scaled(replay_speed);
        // Every job costs an arrival (an interarrival and a service draw,
        // an `arrive_into`, a pick if there is a front end); every other
        // event is counted as a server's attention.
        let jobs = counts.jobs_completed;
        let picks = spec.front_end.map_or(0.0, |_| jobs);
        let loop_ns = loop_s * 1e9;
        let calendar_share =
            (counts.scheduled * leaf.schedule_ns + counts.cancelled * leaf.cancel_ns) / loop_ns;
        let dists_share = 2.0 * jobs * leaf.empirical_sample_ns / loop_ns;
        let models_share =
            (jobs * leaf.arrive_ns + (fired - jobs).max(0.0) * leaf.sync_ns + picks * leaf.pick_ns)
                / loop_ns;
        let stats_share = (counts.kept * leaf.record_kept_ns
            + counts.lag_discarded * leaf.record_skipped_ns
            + fired * leaf.all_converged_ns)
            / loop_ns;
        metrics.extend([
            ("des.calendar.schedule_ns", leaf.schedule_ns),
            ("des.calendar.pop_ns", leaf.pop_ns),
            ("des.calendar.cancel_ns", leaf.cancel_ns),
            ("des.rng.next_ns", leaf.rng_next_ns),
            ("dists.empirical.sample_ns", leaf.empirical_sample_ns),
            ("dists.guide.sample_ns", leaf.guide_sample_ns),
            ("models.server.arrive_ns", leaf.arrive_ns),
            ("models.server.sync_ns", leaf.sync_ns),
            ("models.balancer.pick_ns", leaf.pick_ns),
            ("stats.metric.record_kept_ns", leaf.record_kept_ns),
            ("stats.metric.record_skipped_ns", leaf.record_skipped_ns),
            ("stats.metric.required_samples_ns", leaf.required_samples_ns),
            ("stats.collection.all_converged_ns", leaf.all_converged_ns),
            ("stats.calibration.find_lag_ms", leaf.find_lag_ms),
            ("des.calendar.share", calendar_share),
            ("dists.share", dists_share),
            ("models.share", models_share),
            ("stats.share", stats_share),
            (
                "sim.cluster.glue_frac",
                handle_frac - calendar_share - dists_share - models_share - stats_share,
            ),
        ]);

        // The run fabric: the same configuration on lockstep slaves, then
        // on whatever backend a caller who names none gets.
        let slaves = match spec.runner {
            Runner::Lockstep(n) => n,
            Runner::Serial => SLAVES,
        };
        let (lockstep, lockstep_wall, _) = spans.normalised("sim.parallel", root, |_, _| {
            ParallelRunner::new(config.clone(), slaves)
                .with_backend(ExecBackend::ThreadLockstep)
                .run(seed)
        });
        let lockstep = lockstep?;
        let critical_path = lockstep.master_calibration_events
            + lockstep.slave_events.iter().copied().max().unwrap_or(0);
        let master_calibration = lockstep.master_calibration_events;
        ledger.run("lockstep run", &lockstep.into());
        let (default, default_wall, _) = spans.normalised("sim.parallel", root, |_, _| {
            ParallelRunner::new(config.clone(), slaves).run(seed)
        });
        ledger.run("default-backend run", &default?.into());
        metrics.extend([
            (
                "sim.parallel.master_calibration_events",
                master_calibration as f64,
            ),
            ("sim.parallel.critical_path_events", critical_path as f64),
            (
                "sim.parallel.work_speedup",
                serial_events / critical_path as f64,
            ),
            ("sim.parallel.wall_speedup", serial_wall / lockstep_wall),
            ("sim.parallel.default_backend_wall_s", default_wall),
            (
                "sim.parallel.lockstep_over_default",
                lockstep_wall / default_wall,
            ),
        ]);

        // The sweep orchestrator, once per invocation.
        let grid = sweep_grid(scale);
        let options = SweepOptions {
            workers: 2,
            epoch_events: 100_000,
            ..SweepOptions::default()
        };
        let (sweep, sweep_wall, _) =
            spans.normalised("sim.sweep", root, |_, _| run_sweep(&grid, 2012, &options));
        let sweep = sweep?;
        ledger.book(
            "sweep",
            (sweep.completed.len() != grid.len()).then(|| {
                format!(
                    "{} of {} configurations completed",
                    sweep.completed.len(),
                    grid.len()
                )
            }),
        );
        let sweep_events: u64 = sweep.completed.iter().map(|o| o.report.events_fired).sum();
        metrics.extend([
            (
                "sim.sweep.configs_per_s",
                sweep.completed.len() as f64 / sweep_wall,
            ),
            ("sim.sweep.events_per_s", sweep_events as f64 / sweep_wall),
        ]);
        Ok(())
    });
    result?;

    Ok(TraceReport {
        metrics,
        fingerprint: ledger.fingerprint.unwrap_or(0),
        runs_attempted: ledger.attempted,
        runs_failed: ledger.failed,
        failures: ledger.failures,
        spans,
    })
}

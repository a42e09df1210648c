//! The master/slave parallel runner (Figure 3), with supervision.
//!
//! "Each slave then executes its own BigHouse instance … using a unique
//! random seed … Samples are collected at each slave until their aggregate
//! size is sufficient to achieve the desired accuracy. Finally, in the
//! merge phase, each slave sends its histogram to the master, which
//! aggregates the histograms and reports estimates."
//!
//! One departure from the figure: the master runs no warm-up and
//! calibration of its own and broadcasts no bin scheme. Every histogram
//! has the same log buckets ([`Histogram`]), so the master spawns the
//! slaves at once and merges whatever they send (DESIGN.md "One
//! log-bucketed histogram").
//!
//! "Its own BigHouse instance" is meant literally: a slave is a resumable
//! run ([`RunState`], seeded with the slave's seed) behind a link, and both
//! loop over `fastpath::epoch_step` — one step, two callers. A slave adds
//! no stopping rule of its own, a hook after every chunk and a link for
//! its checkpoints (DESIGN.md "One epoch loop").
//!
//! This module owns the protocol around that loop: the messages, the job a
//! slot is spawned with ([`HelloJob`], run by [`run_job`] on either
//! transport), the slave's half ([`slave_session`]), the lockstep master's
//! half ([`supervise`]), the [`Transport`] seam with its in-thread
//! implementation, and the [`AttemptBudget`] both masters — this one and
//! [`crate::run_sweep`]'s — charge a failure to. [`crate::procslave`] adds
//! what exists because of a process boundary — the frame codec, the
//! child-process transport and the child's entry point — on top of the same
//! halves. The dependency runs one way: this module names `procslave` only
//! for [`ExecBackend::Processes`] (the variant's payload and its transport)
//! and for the exit code a [`UpFrame::Fatal`] carries. The paper's hosts were
//! separate machines — see DESIGN.md substitution 3.
//!
//! # Decide at chunks, recover at epochs
//!
//! A slave simulates in chunks of [`CHUNK_EVENTS`] events. After every
//! chunk it sends an [`UpFrame::Heartbeat`] carrying its per-metric sample
//! moments and **parks** until the master answers with a [`Directive`].
//! The master evaluates aggregate sufficiency only when every live slave
//! has parked at the same chunk barrier, on the moments each sent with
//! that chunk, so the stopping decision is a pure function of (config,
//! seeds, epoch size, slave count) — never of wall-clock scheduling — and
//! a run stops within one chunk per slave of the sample it needed.
//!
//! Every `slave_epoch_events` events (a whole number of chunks, the last one
//! short if need be) the slave ends an *epoch*: it rebuilds its simulation
//! from the next seed of its run's seed stream and ships an
//! [`UpFrame::EpochDone`] checkpoint — the [`RunState`] (statistics, cluster
//! totals, audit, the stream's position) and the barrier count — which the
//! master stores and nobody waits on. A slave that panics, is SIGKILLed or
//! severs its link is *resurrected* from that checkpoint with a fresh
//! incarnation number fencing off stale frames, up to three times with
//! full-jitter backoff (`MAX_RESTARTS`). It replays the lost
//! chunks from the same epoch seed, the master answers the barriers it has
//! already decided the way it decided them, and the final report — estimates
//! and pooled [`ParallelOutcome::cluster`] alike, a replayed epoch's totals
//! counted once — is bit-identical to an undisturbed run on either transport.
//! Only when restarts are exhausted does the runner drop the slave
//! ([`ParallelOutcome::dead_slaves`]).
//!
//! ```text
//!            spawn(inc=0)                 Heartbeat        Directive
//!  [FRESH] ──────────────▶ [RUNNING] ───────────────▶ [PARKED] ─────▶ [RUNNING]
//!                              │  crash/SIGKILL            │ Finalize
//!                              ▼  (incarnation fenced)     ▼
//!                         [RESPAWN WAIT] ── full-jitter ──▶ spawn(inc+1) from the
//!                              │  restarts exhausted        last EpochDone checkpoint
//!                              ▼
//!                           [DEAD]  (dropped from the merge, reported honestly)
//! ```
//!
//! A cooperative interrupt flag ([`ParallelRunner::with_interrupt`]) lets a
//! signal handler wind the run down gracefully, with partial estimates and
//! an honest [`TerminationReason`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::sync::mpsc as channel;

use bighouse_des::SeedStream;
use bighouse_stats::{Histogram, MetricEstimate, MetricSpec, RunningStats};
use bighouse_telemetry::TelemetrySnapshot;

use crate::audit::{AuditConfig, AuditReport};
use crate::checkpoint::{fnv1a, RunState, RunTotals};
use crate::config::ExperimentConfig;
use crate::error::SimError;
use crate::fastpath::epoch_step;
use crate::procslave::exit_code;
use crate::report::{ClusterSummary, RuntimeStats, SimulationReport, TerminationReason};
use crate::runner::{run_resumable, RunOptions};

/// How many events a slave simulates between chunk barriers.
const CHUNK_EVENTS: u64 = 20_000;

/// How often a master re-checks deadlines, interrupts, and due respawns
/// while waiting for messages from its slots.
pub(crate) const WATCHDOG_TICK: Duration = Duration::from_millis(25);

/// How many times a crashed slave is resurrected from its checkpoint
/// before the runner drops it.
const MAX_RESTARTS: u32 = 3;

/// Base delay before failed work runs again; see [`AttemptBudget::fail`].
const RETRY_BACKOFF: Duration = Duration::from_millis(25);

/// How long a master waits for a cooperative wind-down before it kills.
pub(crate) const REAP_GRACE: Duration = Duration::from_secs(3);

/// The result of a parallel run.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// Merged estimates, one per metric that collected data.
    pub estimates: Vec<MetricEstimate>,
    /// Whether the aggregate sample reached the required size (as opposed
    /// to slaves exhausting their event caps or an interrupt).
    pub converged: bool,
    /// Why the run stopped monitoring for new samples.
    pub termination: TerminationReason,
    /// Always 0: the master simulates nothing, so a slave's own warm-up
    /// and calibration are the whole serial fraction (Figure 10's Amdahl
    /// bottleneck). Kept while the benchmark harness still reads it.
    pub master_calibration_events: u64,
    /// Events simulated by each slave (zero for a slave that died).
    pub slave_events: Vec<u64>,
    /// Cluster-level facts pooled over the surviving slaves, each of which
    /// simulates the whole cluster: fractions and average power weighted
    /// by each replica's simulated seconds, energy and the job, fault and
    /// resilience counts summed.
    pub cluster: ClusterSummary,
    /// Simulated seconds summed over the surviving slaves' replicas.
    pub simulated_seconds: f64,
    /// Slaves that died *permanently* (restarts exhausted); their samples
    /// are excluded from the merge.
    pub dead_slaves: Vec<usize>,
    /// Slave restarts performed from in-memory checkpoints. A resurrected
    /// slave keeps its sample pool, so it does **not** appear in
    /// [`ParallelOutcome::dead_slaves`].
    pub resurrections: u64,
    /// Wall-clock runtime of the whole parallel run in seconds.
    pub wall_seconds: f64,
    /// Merged invariant-audit report across all surviving slaves (`None`
    /// unless the experiment enables paranoid mode). Any slave's violation
    /// fails the whole run.
    pub audit: Option<AuditReport>,
    /// Master-side telemetry (`None` unless the experiment enables
    /// telemetry). Like serial telemetry, everything outside its `wall`
    /// map is a pure function of the configuration, seed, slave count and
    /// epoch size — of an undisturbed run: resurrections are counted.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl ParallelOutcome {
    /// Looks up a merged estimate by metric name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&MetricEstimate> {
        self.estimates.iter().find(|e| e.name == name)
    }

    /// Total events across all slaves.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.slave_events.iter().sum::<u64>()
    }

    /// The outcome as the report a serial run returns, so one printer and
    /// one JSON shape serve both.
    #[must_use]
    pub fn report(&self) -> SimulationReport {
        SimulationReport {
            converged: self.converged,
            termination: self.termination,
            estimates: self.estimates.clone(),
            events_fired: self.total_events(),
            simulated_seconds: self.simulated_seconds,
            runtime: RuntimeStats {
                wall_seconds: self.wall_seconds,
                telemetry: self.telemetry.clone(),
            },
            cluster: self.cluster.clone(),
            audit: self.audit.clone(),
        }
    }
}

/// A slave's resumable state: everything the master needs to restart it
/// without losing samples. Checkpointed at epoch boundaries, when no
/// calendar state is in flight. Serializable so the process transport can
/// ship it across the IPC fabric verbatim.
#[derive(Debug, Clone)]
pub(crate) struct SlaveState {
    /// The slave's own resumable run, seeded with the slave's seed: epoch
    /// index, events, seed stream, statistics, cluster totals and audit.
    run: RunState,
    /// Chunk barriers passed across completed epochs, so a resurrection
    /// resumes the barrier numbering where the checkpoint left it.
    barriers: u64,
}

bighouse_json::json_struct!(SlaveState { run, barriers });

/// Which transport carries a master's slots — [`ParallelRunner`]'s slaves
/// or [`crate::run_sweep`]'s attempts. Both run the same jobs and produce
/// bit-identical results.
#[derive(Debug, Clone, Default)]
pub enum ExecBackend {
    /// Threads of this process, over in-memory channels.
    #[default]
    ThreadLockstep,
    /// Sandboxed child OS processes over the checksummed frame fabric
    /// (see [`crate::slave_main`]).
    Processes(crate::procslave::ProcSlaveConfig),
}

impl ExecBackend {
    /// The transport this backend names, with `slots` slots.
    pub(crate) fn transport(&self, slots: usize) -> Box<dyn Transport> {
        match self {
            ExecBackend::ThreadLockstep => Box::new(ThreadTransport::new(slots)),
            ExecBackend::Processes(cfg) => {
                Box::new(crate::procslave::ProcessTransport::new(slots, cfg.clone()))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------------

/// Master → slave barrier decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Directive {
    /// Simulate the next chunk.
    Continue,
    /// Stop at the parked chunk boundary and deliver the final shard.
    Finalize,
}

bighouse_json::json_enum!(Directive { Continue, Finalize });

/// Chaos hooks for crash-safety tests: deterministic faults injected into
/// exactly one slave — into its **first** incarnation only, except
/// [`ProcChaos::PanicOnEverySpawn`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcChaos {
    /// Master SIGKILLs the slave's child mid-epoch (on the first heartbeat
    /// after its first epoch checkpoint). Thread transports treat this as
    /// [`ProcChaos::PanicAfterFirstEpoch`] — a thread cannot be killed.
    KillMidEpoch {
        /// Victim slave index.
        slave: usize,
    },
    /// The slave calls `std::process::abort()` right after its first epoch
    /// checkpoint — the failure a thread slot cannot contain.
    AbortAfterFirstEpoch {
        /// Victim slave index.
        slave: usize,
    },
    /// The slave panics right after its first epoch checkpoint.
    PanicAfterFirstEpoch {
        /// Victim slave index.
        slave: usize,
    },
    /// The slave panics before simulating anything — a transient fault the
    /// supervisor recovers from by resurrection.
    PanicOnSpawn {
        /// Victim slave index.
        slave: usize,
    },
    /// The slave panics at the start of **every** incarnation — a hard
    /// fault that exhausts its restart budget and exercises the fallback
    /// drop semantics.
    PanicOnEverySpawn {
        /// Victim slave index.
        slave: usize,
    },
}

bighouse_json::json_enum!(ProcChaos {
    KillMidEpoch { slave },
    AbortAfterFirstEpoch { slave },
    PanicAfterFirstEpoch { slave },
    PanicOnSpawn { slave },
    PanicOnEverySpawn { slave },
});

/// What a finished slave delivers: the run as it stands — statistics for
/// the merge, events, cluster totals, audit — and its telemetry shard.
#[derive(Debug, Clone)]
pub(crate) struct FinalShard {
    /// The slave's resumable run after its last epoch.
    pub run: RunState,
    /// The slave's own counters, merged into master telemetry.
    pub telemetry: SlaveTelemetryShard,
}

bighouse_json::json_struct!(FinalShard { run, telemetry });

/// A slave's self-reported counters; riding the final frame keeps the
/// fabric's data flow one-directional and cheap.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SlaveTelemetryShard {
    /// Epochs completed by this incarnation.
    pub epochs: u64,
    /// Heartbeats sent by this incarnation.
    pub heartbeats: u64,
}

bighouse_json::json_struct!(SlaveTelemetryShard { epochs, heartbeats });

/// Slot → master frames. None names its sender: the transport stamps every
/// frame with the slot and incarnation it read it from (`SlaveEvent`), so
/// the master can fence what an abandoned incarnation still sends and no
/// frame can claim to come from another.
#[derive(Debug, Clone)]
pub(crate) enum UpFrame {
    /// The slave accepted its hello and is about to simulate.
    Ready,
    /// Chunk barrier, sent every 20 000 events: everything the stopping
    /// rule reads. The slave now blocks until the master answers with a
    /// [`Directive`].
    Heartbeat {
        /// Chunks completed since the run began (cumulative, incl. restored
        /// checkpoint) — the index of the barrier this frame parks at.
        barrier: u64,
        /// Per-metric sample moments at this chunk boundary.
        moments: Vec<Option<RunningStats>>,
        /// Whether the slave's event cap is exhausted (it cannot continue).
        exhausted: bool,
    },
    /// Epoch checkpoint: the slave's full resumable state at the epoch
    /// boundary, stored by the master for resurrection. Nobody waits on it.
    EpochDone(Box<SlaveState>),
    /// Terminal frame of a successful lockstep incarnation: the merge shard.
    Final(Box<FinalShard>),
    /// Terminal frame of a [`HelloJob::Solo`] job: the whole run's report.
    SoloReport(Box<SimulationReport>),
    /// Terminal frame of a failed incarnation: a typed error and the exit
    /// code a child is about to die with.
    Fatal {
        /// Rendering of the error.
        error: String,
        /// The exit code the child will exit with (see
        /// [`crate::procslave::exit_code`]).
        code: u8,
    },
}

bighouse_json::json_enum!(UpFrame {
    Ready,
    Heartbeat { barrier, moments, exhausted },
    EpochDone(Box<SlaveState>),
    Final(Box<FinalShard>),
    SoloReport(Box<SimulationReport>),
    Fatal { error, code },
});

/// A fault injected into a [`HelloJob::Solo`] job, for robustness tests.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SoloFault {
    /// Panic with this message before simulating anything.
    Panic(String),
    /// Wedge, simulating nothing, until the slot is killed or interrupted.
    Stall,
}

bighouse_json::json_enum!(SoloFault { Panic(String), Stall });

/// The work order a slot is spawned with; `run_job` runs it on either
/// transport.
#[derive(Debug, Clone)]
pub(crate) enum HelloJob {
    /// One lockstep slave of a parallel run.
    Lockstep {
        /// What every slave of the run shares (Figure 3's broadcast).
        ctx: Box<SharedCtx>,
        /// Checkpoint to resume from (the fresh run of the slave's unique
        /// seed for incarnation 0).
        state: Box<SlaveState>,
    },
    /// A whole self-contained run — one attempt of one sweep config — with
    /// estimates bit-identical to [`run_resumable`] at the same seed and
    /// epoch size, whichever transport carries it.
    Solo {
        /// The experiment to run.
        config: Box<ExperimentConfig>,
        /// Master seed for the run.
        master_seed: u64,
        /// Epoch granularity (also the interrupt-poll granularity).
        epoch_events: u64,
        /// Test hook: the fault this attempt suffers.
        fault: Option<SoloFault>,
    },
}

bighouse_json::json_enum!(HelloJob {
    Lockstep { ctx, state },
    Solo { config, master_seed, epoch_events, fault },
});

/// How often one unit of work — a slave, a sweep config — may fail before
/// its master gives up on it. Every failure but the last buys a delay, the
/// same way for both masters.
#[derive(Debug, Clone)]
pub(crate) struct AttemptBudget {
    failed: u32,
    retries: u32,
    salt: u64,
}

impl AttemptBudget {
    /// A budget of `retries + 1` attempts; `salt` (a slave index, a config
    /// id's hash) decorrelates its delays from its neighbours'.
    pub(crate) fn new(retries: u32, salt: u64) -> Self {
        AttemptBudget {
            failed: 0,
            retries,
            salt,
        }
    }

    /// Attempts that have failed so far.
    pub(crate) fn failed(&self) -> u32 {
        self.failed
    }

    /// Charges one failed attempt: `Some(delay)` until the next may start,
    /// or `None` once `retries + 1` attempts have failed.
    pub(crate) fn fail(&mut self) -> Option<Duration> {
        self.failed += 1;
        (self.failed <= self.retries)
            .then(|| full_jitter_backoff(RETRY_BACKOFF, self.failed, self.salt))
    }
}

/// Doubling backoff with **full jitter**: a delay drawn uniformly from
/// `(0, base·2^min(attempt-1, 6)]`, deterministically from `(salt,
/// attempt)` — so respawn/retry storms decorrelate across a pool (a
/// machine-wide hiccup does not make every victim retry in lockstep)
/// without introducing nondeterminism. Floored at 1 ms so a respawn can
/// never hot-loop.
fn full_jitter_backoff(base: Duration, attempt: u32, salt: u64) -> Duration {
    let cap = base * 2u32.pow(attempt.saturating_sub(1).min(6));
    let mut bytes = [0u8; 12];
    bytes[..8].copy_from_slice(&salt.to_le_bytes());
    bytes[8..].copy_from_slice(&attempt.to_le_bytes());
    let frac = (fnv1a(&bytes) >> 11) as f64 / (1u64 << 53) as f64;
    cap.mul_f64(frac).max(Duration::from_millis(1))
}

/// The distributed-simulation coordinator.
///
/// # Examples
///
/// ```no_run
/// use bighouse_sim::{ExperimentConfig, ParallelRunner};
/// use bighouse_workloads::{StandardWorkload, Workload};
///
/// let config = ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
///     .with_utilization(0.5);
/// let outcome = ParallelRunner::new(config, 4).run(1234).unwrap();
/// println!("p95 = {:?}", outcome.metric("response_time"));
/// ```
#[derive(Debug)]
pub struct ParallelRunner {
    config: ExperimentConfig,
    slaves: usize,
    slave_epoch_events: u64,
    interrupt: Option<Arc<AtomicBool>>,
    backend: ExecBackend,
    proc_chaos: Option<ProcChaos>,
}

impl ParallelRunner {
    /// Creates a runner with `slaves` slave simulations.
    ///
    /// # Panics
    ///
    /// Panics if `slaves` is zero.
    #[must_use]
    pub fn new(config: ExperimentConfig, slaves: usize) -> Self {
        assert!(slaves > 0, "parallel run needs at least one slave");
        ParallelRunner {
            config,
            slaves,
            slave_epoch_events: 500_000,
            interrupt: None,
            backend: ExecBackend::default(),
            proc_chaos: None,
        }
    }

    /// Selects the transport the slaves run on: threads of this process
    /// (the default) or sandboxed child OS processes over the checksummed
    /// IPC fabric (see [`crate::slave_main`]). Both produce bit-identical
    /// estimates for a given (config, seed, slave count, epoch size) —
    /// even across transports and slave crashes.
    #[must_use]
    pub fn with_backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Chaos hook: injects a deterministic crash (kill/abort/panic) into
    /// one slave, at the point its [`ProcChaos`] variant names.
    #[doc(hidden)]
    #[must_use]
    pub fn with_proc_chaos(mut self, chaos: ProcChaos) -> Self {
        self.proc_chaos = Some(chaos);
        self
    }

    /// Sets the slave checkpoint epoch in events. Smaller epochs bound the
    /// work a resurrection replays; larger epochs reduce checkpoint
    /// traffic. The stopping decision is made every 20 000 events
    /// whatever the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `events` is zero.
    #[must_use]
    pub fn with_slave_epoch(mut self, events: u64) -> Self {
        assert!(events > 0, "slave epoch must be at least one event");
        self.slave_epoch_events = events;
        self
    }

    /// Installs a cooperative interrupt flag: once set (e.g. by a
    /// SIGINT/SIGTERM handler), the run winds down, merges whatever the
    /// slaves collected, and reports [`TerminationReason::Interrupted`].
    #[must_use]
    pub fn with_interrupt(mut self, flag: Arc<AtomicBool>) -> Self {
        self.interrupt = Some(flag);
        self
    }

    /// Executes the full Figure 3 protocol and returns merged estimates.
    ///
    /// Slave panics are contained: the supervisor resurrects the slave
    /// from its last epoch checkpoint (up to the restart budget), and only
    /// then drops it, listing it in [`ParallelOutcome::dead_slaves`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration is
    /// internally inconsistent, and [`SimError::NoSurvivingSlaves`] if
    /// every slave dies permanently before delivering results.
    pub fn run(&self, master_seed: u64) -> Result<ParallelOutcome, SimError> {
        let start = Instant::now();
        self.config.validate()?;

        // Derive the merged-estimate bookkeeping order from the config.
        let specs: Vec<MetricSpec> = self
            .config
            .metric_specs()
            .into_iter()
            .map(|(_, spec)| spec)
            .chain(self.config.tier_specs())
            .collect();

        // Slaves with unique seeds, aggregate monitoring, merge.
        // Each slave is a fresh resumable run of its own seed, whose stream
        // of epoch seeds its checkpoints carry: a resurrected slave replays
        // a lost partial epoch exactly as the dead incarnation ran it. (No
        // fingerprint: a slave's state travels with its config, never apart.)
        let mut seed_stream = SeedStream::new(master_seed ^ 0x5A5A_5A5A_5A5A_5A5A);
        let fresh: Vec<SlaveState> = (0..self.slaves)
            .map(|_| SlaveState {
                run: RunState::fresh(seed_stream.next_seed(), 0),
                barriers: 0,
            })
            .collect();
        let ctx = SharedCtx {
            config: self.config.clone(),
            epoch_events: self.slave_epoch_events,
            chaos: self.proc_chaos,
        };
        let mut transport = self.backend.transport(self.slaves);
        supervise(self, &specs, transport.as_mut(), &ctx, fresh, start)
    }
}

// ---------------------------------------------------------------------------
// The slot's half (shared by the in-thread and in-child loops)
// ---------------------------------------------------------------------------

/// The slot's half of the fabric, abstracted over thread channels vs.
/// stdio frames.
pub(crate) trait SlaveLink {
    /// Ships a frame to the master; `false` means the master is gone.
    fn send(&mut self, frame: UpFrame) -> bool;
    /// Where the master's barrier decisions arrive.
    fn directives(&self) -> &channel::Receiver<Directive>;
    /// The incarnation's cooperative stop signal (interrupt, kill).
    fn stop_flag(&self) -> &Arc<AtomicBool>;
    /// Whether the stop signal is raised.
    fn should_stop(&self) -> bool {
        self.stop_flag().load(Ordering::Relaxed)
    }
    /// Child-side resource-cap check; `Some` means a cap was exceeded, and
    /// the session ends with [`SimError::SlaveProcess`]. Caps are
    /// meaningful only across a process boundary.
    fn limit_exceeded(&mut self) -> Option<String> {
        None
    }
    /// Blocks until the master decides the parked barrier. Wind-down
    /// (Shutdown frame, stop flag, severed link) returns `Finalize`.
    fn wait_directive(&mut self) -> Directive {
        loop {
            if self.should_stop() {
                return Directive::Finalize;
            }
            match self.directives().recv_timeout(Duration::from_millis(5)) {
                Ok(d) => return d,
                Err(channel::RecvTimeoutError::Timeout) => {}
                Err(channel::RecvTimeoutError::Disconnected) => return Directive::Finalize,
            }
        }
    }
}

/// Runs one job on one slot to its terminal frame, on either transport: the
/// thread transport's closure and [`crate::slave_main`] both end here. A
/// typed failure is shipped as [`UpFrame::Fatal`]; the return value is the
/// [`exit_code`] a child dies with. A panic is the caller's to contain.
pub(crate) fn run_job<L: SlaveLink>(
    link: &mut L,
    slave: usize,
    incarnation: u32,
    job: HelloJob,
) -> u8 {
    let result = match job {
        HelloJob::Lockstep { ctx, state } => slave_session(link, slave, incarnation, &ctx, *state),
        HelloJob::Solo {
            config,
            master_seed,
            epoch_events,
            fault,
        } => {
            match fault {
                Some(SoloFault::Panic(message)) => panic!("{message}"),
                // Wedge exactly like a non-advancing run would: hold the
                // slot until the master kills or interrupts it.
                Some(SoloFault::Stall) => {
                    while !link.should_stop() {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                None => {}
            }
            let opts = RunOptions {
                epoch_events,
                interrupt: Some(Arc::clone(link.stop_flag())),
                ..RunOptions::default()
            };
            run_resumable(&config, master_seed, &opts).and_then(|report| {
                if link.send(UpFrame::SoloReport(Box::new(report))) {
                    Ok(())
                } else {
                    Err(SimError::Frame {
                        detail: "the report did not reach the master".to_string(),
                    })
                }
            })
        }
    };
    let Err(e) = result else {
        return exit_code::OK;
    };
    // An exceeded cap is the one failure of the child's own making that
    // the master may cure by respawning.
    let code = match e {
        SimError::SlaveProcess { .. } => exit_code::RESOURCE,
        SimError::Frame { .. } => exit_code::FRAME,
        _ => exit_code::SIM,
    };
    let _ = link.send(UpFrame::Fatal {
        error: e.to_string(),
        code,
    });
    code
}

/// One incarnation of one slave, on either transport: a resumable run
/// ([`epoch_step`]) resumed from the checkpoint, that parks at a barrier
/// after every chunk until the master's directive and ships its state up
/// the link at every epoch boundary.
fn slave_session<L: SlaveLink>(
    link: &mut L,
    slave: usize,
    incarnation: u32,
    ctx: &SharedCtx,
    mut state: SlaveState,
) -> Result<(), SimError> {
    let (config, chaos) = (&ctx.config, ctx.chaos);
    let mut telemetry = SlaveTelemetryShard::default();
    // The circuit breaker spans epochs within an incarnation (a
    // resurrection restarts its windows, which only makes it more lenient).
    let mut guard = config.audit().map(AuditConfig::progress_guard);

    let panics_on_spawn = match chaos {
        Some(ProcChaos::PanicOnSpawn { slave: victim }) => victim == slave && incarnation == 0,
        Some(ProcChaos::PanicOnEverySpawn { slave: victim }) => victim == slave,
        _ => false,
    };
    if panics_on_spawn {
        panic!("forced slave panic (chaos hook)");
    }
    if !link.send(UpFrame::Ready) {
        return Ok(());
    }

    let mut finalize = false;
    while !finalize
        && !link.should_stop()
        && !state.run.audit_failed()
        && state.run.events_done < config.max_events
    {
        let before = state.run.events_done;
        let barriers = &mut state.barriers;
        let step = epoch_step(
            config,
            &mut state.run,
            true,
            ctx.epoch_events,
            CHUNK_EVENTS,
            guard.as_mut(),
            |epoch, fired| {
                if let Some(detail) = link.limit_exceeded() {
                    return Err(SimError::SlaveProcess { slave, detail });
                }
                telemetry.heartbeats += 1;
                *barriers += 1;
                let moments = epoch
                    .simulation()
                    .stats()
                    .iter()
                    .map(|m| m.moments().copied())
                    .collect();
                // A master that is gone has nothing to merge into: wind down.
                finalize = !link.send(UpFrame::Heartbeat {
                    barrier: *barriers,
                    moments,
                    exhausted: before + fired >= config.max_events,
                }) || link.wait_directive() == Directive::Finalize;
                Ok(!finalize && !link.should_stop())
            },
        )?;
        if !step.complete || finalize || link.should_stop() {
            break;
        }
        telemetry.epochs += 1;
        if !link.send(UpFrame::EpochDone(Box::new(state.clone()))) {
            return Ok(());
        }
        if incarnation == 0 && state.run.next_epoch == 1 {
            match chaos {
                Some(ProcChaos::AbortAfterFirstEpoch { slave: victim }) if victim == slave => {
                    // The failure a thread slot cannot contain.
                    std::process::abort();
                }
                Some(ProcChaos::PanicAfterFirstEpoch { slave: victim }) if victim == slave => {
                    panic!("forced slave panic (chaos hook)");
                }
                _ => {}
            }
        }
    }

    let _ = link.send(UpFrame::Final(Box::new(FinalShard {
        run: state.run,
        telemetry,
    })));
    Ok(())
}

// ---------------------------------------------------------------------------
// Transports (master side)
// ---------------------------------------------------------------------------

/// What a master's event loop consumes, regardless of transport: something
/// that happened to one incarnation of one slot. The transport stamps both,
/// and the master drops an event whose incarnation is not the slot's
/// current one — the fence.
pub(crate) struct SlaveEvent {
    pub(crate) slave: usize,
    pub(crate) incarnation: u32,
    pub(crate) what: Happened,
}

/// What a [`SlaveEvent`] reports; all but a non-terminal frame end the
/// incarnation.
pub(crate) enum Happened {
    /// The incarnation sent a frame.
    Up(UpFrame),
    /// A thread slot's job panicked (the rendered payload) and is gone.
    Panicked(String),
    /// A child process is gone without a terminal frame — it exited, or its
    /// stream was severed or corrupt: what happened, with the exit status
    /// once the transport has reaped it.
    Exited(String),
}

/// What every incarnation of every slave of one parallel run is spawned
/// with.
#[derive(Debug, Clone)]
pub(crate) struct SharedCtx {
    pub(crate) config: ExperimentConfig,
    pub(crate) epoch_events: u64,
    pub(crate) chaos: Option<ProcChaos>,
}

bighouse_json::json_struct!(SharedCtx {
    config,
    epoch_events,
    chaos
});

/// What only a transport with a wire can count; all zero for threads.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WireCounters {
    /// Hello and directive frames written; Shutdowns are not counted.
    pub(crate) frames_sent: u64,
    pub(crate) frames_received: u64,
    pub(crate) frame_decode_failures: u64,
    /// Children that reported exceeding a self-enforced resource cap.
    pub(crate) cap_kills: u64,
}

/// The seam both masters drive: slots that run one [`HelloJob`] at a time.
pub(crate) trait Transport {
    /// Starts `job` on a free slot as the given incarnation.
    fn spawn(&mut self, slave: usize, incarnation: u32, job: HelloJob) -> Result<(), SimError>;
    /// Answers a parked slave's barrier.
    fn directive(&mut self, slave: usize, d: Directive);
    /// Cooperative wind-down signal to every live slot: each stops at its
    /// next chunk or epoch boundary and still delivers its terminal frame.
    fn interrupt_all(&mut self);
    /// Ends one slot's current incarnation now and frees the slot: SIGKILL
    /// and reap for a process; for a thread, which cannot be killed, raise
    /// its stop flag and abandon it (it exits at its next chunk or epoch
    /// boundary, and the master's fence drops whatever it still sends).
    /// A no-op on an empty slot, so every settled slot may be passed here.
    fn kill(&mut self, slave: usize);
    /// Waits up to `timeout` for the next event.
    fn recv_timeout(&mut self, timeout: Duration) -> Option<SlaveEvent>;
    /// Final cleanup: cooperative wind-down, then force; joins/reaps every
    /// child so no zombie or orphan survives the run.
    fn reap(&mut self);
    /// Wire-level tallies so far.
    fn wire_counters(&self) -> WireCounters;
}

// --- threads ---------------------------------------------------------------

struct ThreadSlot {
    directive_tx: channel::Sender<Directive>,
    stop: Arc<AtomicBool>,
}

struct ThreadTransport {
    tx: channel::Sender<SlaveEvent>,
    rx: channel::Receiver<SlaveEvent>,
    slots: Vec<Option<ThreadSlot>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

struct ThreadLink {
    slave: usize,
    incarnation: u32,
    tx: channel::Sender<SlaveEvent>,
    directive_rx: channel::Receiver<Directive>,
    stop: Arc<AtomicBool>,
}

impl ThreadLink {
    fn tell(&self, what: Happened) -> bool {
        let event = SlaveEvent {
            slave: self.slave,
            incarnation: self.incarnation,
            what,
        };
        self.tx.send(event).is_ok()
    }
}

impl SlaveLink for ThreadLink {
    fn send(&mut self, frame: UpFrame) -> bool {
        self.tell(Happened::Up(frame))
    }

    fn directives(&self) -> &channel::Receiver<Directive> {
        &self.directive_rx
    }

    fn stop_flag(&self) -> &Arc<AtomicBool> {
        &self.stop
    }
}

impl ThreadTransport {
    fn new(slots: usize) -> Self {
        let (tx, rx) = channel::channel();
        ThreadTransport {
            tx,
            rx,
            slots: (0..slots).map(|_| None).collect(),
            handles: Vec::new(),
        }
    }
}

impl Transport for ThreadTransport {
    fn spawn(&mut self, slave: usize, incarnation: u32, mut job: HelloJob) -> Result<(), SimError> {
        // A thread cannot be SIGKILLed or survive an abort; in-process the
        // kill/abort chaos hooks degrade to a panic at the same point.
        if let HelloJob::Lockstep { ctx, .. } = &mut job {
            ctx.chaos = ctx.chaos.map(|c| match c {
                ProcChaos::KillMidEpoch { slave } | ProcChaos::AbortAfterFirstEpoch { slave } => {
                    ProcChaos::PanicAfterFirstEpoch { slave }
                }
                other => other,
            });
        }
        let (directive_tx, directive_rx) = channel::channel();
        let stop = Arc::new(AtomicBool::new(false));
        self.slots[slave] = Some(ThreadSlot {
            directive_tx,
            stop: Arc::clone(&stop),
        });
        let mut link = ThreadLink {
            slave,
            incarnation,
            tx: self.tx.clone(),
            directive_rx,
            stop,
        };
        // A sweep spawns one thread per attempt: let go of the finished
        // ones (their closure cannot panic), `reap` joins the rest.
        self.handles.retain(|handle| !handle.is_finished());
        self.handles.push(std::thread::spawn(move || {
            let run = AssertUnwindSafe(|| run_job(&mut link, slave, incarnation, job));
            if let Err(payload) = catch_unwind(run) {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                link.tell(Happened::Panicked(message));
            }
        }));
        Ok(())
    }

    fn directive(&mut self, slave: usize, d: Directive) {
        if let Some(slot) = &self.slots[slave] {
            let _ = slot.directive_tx.send(d);
        }
    }

    fn interrupt_all(&mut self) {
        for slot in self.slots.iter().flatten() {
            slot.stop.store(true, Ordering::Relaxed);
        }
    }

    fn kill(&mut self, slave: usize) {
        if let Some(slot) = self.slots[slave].take() {
            slot.stop.store(true, Ordering::Relaxed);
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<SlaveEvent> {
        self.rx.recv_timeout(timeout).ok()
    }

    fn reap(&mut self) {
        for slave in 0..self.slots.len() {
            self.kill(slave);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }

    fn wire_counters(&self) -> WireCounters {
        WireCounters::default() // in-process channels: no frames on a wire
    }
}

// ---------------------------------------------------------------------------
// The supervisor (master side)
// ---------------------------------------------------------------------------

struct Barrier {
    /// Highest chunk barrier for which a directive has been decided.
    decided: u64,
    /// Once set, every barrier from this one on resolves to Finalize.
    finalize_at: Option<u64>,
    /// Per-slave parked barrier (a Heartbeat awaiting its directive).
    parked: Vec<Option<u64>>,
    /// Per-slave "cannot continue" flag from its latest Heartbeat.
    exhausted: Vec<bool>,
}

/// Everything the master tracks about a run in flight, in one place so
/// that a slave's death — wherever it is observed — is one call.
struct Supervision<'a> {
    specs: &'a [MetricSpec],
    /// Current incarnation of each slave; frames from older incarnations
    /// are fenced off.
    incarnations: Vec<u32>,
    /// What is left of each slave's restarts.
    budgets: Vec<AttemptBudget>,
    /// Last epoch checkpoint received from each slave (the fresh run of
    /// its seed initially).
    checkpoints: Vec<SlaveState>,
    /// When each slave's pending (re)spawn becomes due: at once, to begin.
    respawn_at: Vec<Option<Instant>>,
    /// The final shard of each slave that delivered one.
    shards: Vec<Option<Box<FinalShard>>>,
    /// Slaves that died permanently (restarts exhausted).
    dead: Vec<bool>,
    barrier: Barrier,
    /// Per-slave sample moments at the newest barrier each has parked at.
    latest: Vec<Vec<Option<RunningStats>>>,
    outcome: ParallelOutcome,
    /// Wind-down has begun (interrupt or a poisoned audit): no further
    /// barrier is decided.
    stop_requested: bool,
}

impl<'a> Supervision<'a> {
    fn new(fresh: Vec<SlaveState>, specs: &'a [MetricSpec]) -> Self {
        let slaves = fresh.len();
        Supervision {
            specs,
            incarnations: vec![0; slaves],
            budgets: (0..slaves)
                .map(|slave| AttemptBudget::new(MAX_RESTARTS, slave as u64))
                .collect(),
            checkpoints: fresh,
            respawn_at: vec![Some(Instant::now()); slaves],
            shards: (0..slaves).map(|_| None).collect(),
            dead: vec![false; slaves],
            barrier: Barrier {
                decided: 0,
                finalize_at: None,
                parked: vec![None; slaves],
                exhausted: vec![false; slaves],
            },
            latest: vec![vec![None; specs.len()]; slaves],
            outcome: ParallelOutcome {
                estimates: Vec::new(),
                converged: false,
                termination: TerminationReason::Deadline,
                master_calibration_events: 0,
                slave_events: vec![0; slaves],
                cluster: RunTotals::default().summary(0),
                simulated_seconds: 0.0,
                dead_slaves: Vec::new(),
                resurrections: 0,
                wall_seconds: 0.0,
                audit: None,
                telemetry: None,
            },
            stop_requested: false,
        }
    }

    /// Whether the slave has reached a terminal state (Final delivered or
    /// permanently dead).
    fn settled(&self, slave: usize) -> bool {
        self.shards[slave].is_some() || self.dead[slave]
    }

    /// One observed death (crash, severed link, failed spawn): reap
    /// what is left of the incarnation and fence it, then either schedule
    /// a full-jitter-backoff resurrection from the last checkpoint or —
    /// restarts exhausted — mark the slave permanently dead; either way
    /// the pending barrier may now be complete without it.
    fn slave_died(&mut self, slave: usize, transport: &mut dyn Transport) {
        transport.kill(slave);
        self.incarnations[slave] += 1;
        self.barrier.parked[slave] = None;
        if let Some(backoff) = self.budgets[slave].fail() {
            self.respawn_at[slave] = Some(Instant::now() + backoff);
        } else {
            self.dead[slave] = true;
            self.outcome.dead_slaves.push(slave);
            // A dead slave's samples never reach the merge; forget its
            // progress so convergence is not declared on data that will
            // not be delivered. Too late to restart the survivors (they
            // may already be finishing); report honestly.
            self.latest[slave] = vec![None; self.specs.len()];
            if self.outcome.converged && !aggregate_sufficient(self.specs, &self.latest) {
                self.outcome.converged = false;
            }
        }
        self.try_decide(transport);
    }

    /// A slave's final shard is in: settle it, and wind everyone down if
    /// its audit failed — one slave's broken invariants poison the merge.
    fn delivered(&mut self, slave: usize, shard: Box<FinalShard>, transport: &mut dyn Transport) {
        self.barrier.parked[slave] = None;
        if shard.run.audit_failed() && !self.stop_requested {
            self.stop_requested = true;
            transport.interrupt_all();
        }
        self.shards[slave] = Some(shard);
        self.try_decide(transport);
    }

    /// Completes the pending barrier if every live participant has parked:
    /// evaluates aggregate sufficiency on the moments each sent with that
    /// chunk (the deterministic stopping rule) and broadcasts the directive.
    fn try_decide(&mut self, transport: &mut dyn Transport) {
        if self.barrier.finalize_at.is_some() || self.stop_requested {
            // Finalization is already answered per-Heartbeat; wind-down is
            // driven by Shutdown frames.
            return;
        }
        let next = self.barrier.decided + 1;
        let participants: Vec<usize> = (0..self.incarnations.len())
            .filter(|&s| !self.settled(s))
            .collect();
        if participants.is_empty()
            || !participants
                .iter()
                .all(|&s| self.barrier.parked[s] == Some(next))
        {
            return;
        }
        let sufficient = aggregate_sufficient(self.specs, &self.latest);
        let all_exhausted = participants.iter().all(|&s| self.barrier.exhausted[s]);
        self.barrier.decided = next;
        let d = if sufficient || all_exhausted {
            self.outcome.converged = sufficient;
            self.barrier.finalize_at = Some(next);
            Directive::Finalize
        } else {
            Directive::Continue
        };
        for &slave in &participants {
            self.barrier.parked[slave] = None;
            transport.directive(slave, d);
        }
    }
}

#[allow(clippy::too_many_lines)]
fn supervise(
    runner: &ParallelRunner,
    specs: &[MetricSpec],
    transport: &mut dyn Transport,
    ctx: &SharedCtx,
    fresh: Vec<SlaveState>,
    start: Instant,
) -> Result<ParallelOutcome, SimError> {
    let slaves = runner.slaves;
    let mut sup = Supervision::new(fresh, specs);
    let mut interrupted = false;
    // The master-side kill chaos arms on the victim's first epoch
    // checkpoint and fires on its next heartbeat — genuinely mid-epoch.
    let kill_chaos_victim = match runner.proc_chaos {
        Some(ProcChaos::KillMidEpoch { slave }) => Some(slave),
        _ => None,
    };
    let mut kill_chaos_armed = false;

    while (0..slaves).any(|s| !sup.settled(s)) {
        // Launch due spawns: every slave's first, from the fresh run of its
        // seed, and resurrections from the last checkpoint, which proceed
        // even after stop so the slave's sample pool stays in the merge.
        let now = Instant::now();
        for slave in 0..slaves {
            if sup.respawn_at[slave].is_some_and(|at| now >= at) {
                sup.respawn_at[slave] = None;
                sup.outcome.resurrections += u64::from(sup.incarnations[slave] > 0);
                let state = sup.checkpoints[slave].clone();
                // If wind-down already began (or the run finalized at a
                // barrier the checkpoint has reached), a respawn must not
                // simulate past the decided trajectory: the checkpoint is
                // the slave's final state, and nothing need be spawned.
                if sup.stop_requested
                    || sup.barrier.finalize_at.is_some_and(|n| state.barriers >= n)
                {
                    let shard = FinalShard {
                        run: state.run,
                        telemetry: SlaveTelemetryShard::default(),
                    };
                    sup.delivered(slave, Box::new(shard), transport);
                } else {
                    let job = HelloJob::Lockstep {
                        ctx: Box::new(ctx.clone()),
                        state: Box::new(state),
                    };
                    if transport
                        .spawn(slave, sup.incarnations[slave], job)
                        .is_err()
                    {
                        sup.slave_died(slave, transport);
                    }
                }
            }
        }
        let event = transport.recv_timeout(WATCHDOG_TICK);

        if let Some(flag) = &runner.interrupt {
            if !interrupted && flag.load(Ordering::Relaxed) {
                interrupted = true;
                sup.stop_requested = true;
                transport.interrupt_all();
            }
        }

        // Fenced: an event from a stale or nonsensical incarnation, or about
        // a slave that has already settled, is dropped.
        let event = event.filter(|e| {
            e.slave < slaves && e.incarnation == sup.incarnations[e.slave] && !sup.settled(e.slave)
        });
        if let Some(SlaveEvent {
            slave,
            incarnation,
            what,
        }) = event
        {
            match what {
                Happened::Up(UpFrame::Ready) => {}
                Happened::Up(UpFrame::Heartbeat {
                    barrier: completed,
                    moments,
                    exhausted,
                }) => {
                    if kill_chaos_armed && kill_chaos_victim == Some(slave) && incarnation == 0 {
                        kill_chaos_armed = false;
                        sup.slave_died(slave, transport);
                    } else if let Some(n) = sup.barrier.finalize_at {
                        let d = if completed >= n {
                            Directive::Finalize
                        } else {
                            Directive::Continue
                        };
                        transport.directive(slave, d);
                    } else if completed <= sup.barrier.decided {
                        // A respawn catching up through already-decided
                        // barriers (deterministic replay).
                        transport.directive(slave, Directive::Continue);
                    } else {
                        sup.latest[slave] = moments;
                        sup.barrier.exhausted[slave] = exhausted;
                        sup.barrier.parked[slave] = Some(completed);
                        sup.try_decide(transport);
                    }
                }
                Happened::Up(UpFrame::EpochDone(state)) => {
                    sup.checkpoints[slave] = *state;
                    if kill_chaos_victim == Some(slave) && incarnation == 0 {
                        kill_chaos_armed = true;
                    }
                }
                Happened::Up(UpFrame::Final(shard)) => sup.delivered(slave, shard, transport),
                // Gone, a typed failure, or a frame no lockstep slave sends
                // (a protocol violation): either way the incarnation is over.
                Happened::Panicked(_)
                | Happened::Exited(_)
                | Happened::Up(UpFrame::Fatal { .. } | UpFrame::SoloReport(_)) => {
                    sup.slave_died(slave, transport);
                }
            }
        }
    }

    transport.reap();

    let (mut outcome, shards) = (sup.outcome, sup.shards);
    // Merge phase: combine surviving slave histograms bucket-wise.
    outcome.estimates = merge_finals(specs, &shards, &mut outcome.slave_events);
    let servers = runner.config.total_servers();
    let mut pooled = RunTotals::default();
    let mut told = SlaveTelemetryShard::default();
    for shard in shards.iter().flatten() {
        pooled.merge(&shard.run.totals);
        told.epochs += shard.telemetry.epochs;
        told.heartbeats += shard.telemetry.heartbeats;
        if let Some(audit) = &shard.run.audit {
            outcome
                .audit
                .get_or_insert_with(AuditReport::default)
                .merge(audit);
        }
    }
    outcome.simulated_seconds = pooled.simulated_seconds;
    outcome.cluster = pooled.summary(servers);
    outcome.dead_slaves.sort_unstable();
    if outcome.dead_slaves.len() == slaves {
        return Err(SimError::NoSurvivingSlaves {
            panicked: outcome.dead_slaves.len(),
        });
    }
    let audit_failed = outcome.audit.as_ref().is_some_and(|a| !a.passed());
    if audit_failed {
        // Merged estimates built on violated invariants must never be
        // reported as converged.
        outcome.converged = false;
    }
    outcome.termination =
        TerminationReason::classify(outcome.audit.as_ref(), interrupted, outcome.converged);
    outcome.wall_seconds = start.elapsed().as_secs_f64();
    if runner.config.telemetry_enabled() {
        let wire = transport.wire_counters();
        let mut snap = TelemetrySnapshot::default();
        for (key, count) in [
            ("parallel.slaves", slaves as u64),
            ("parallel.resurrections", outcome.resurrections),
            ("parallel.dead_slaves", outcome.dead_slaves.len() as u64),
            ("procslave.frames_sent", wire.frames_sent),
            ("procslave.frames_received", wire.frames_received),
            (
                "procslave.frame_decode_failures",
                wire.frame_decode_failures,
            ),
            ("procslave.respawns", outcome.resurrections),
            ("procslave.cap_kills", wire.cap_kills),
            ("procslave.slave_epochs", told.epochs),
            ("procslave.slave_heartbeats", told.heartbeats),
        ] {
            snap.counter_add(key, count);
        }
        // Per-slave facts carry dynamic (index-named) keys, like the
        // per-metric stats keys in serial runs.
        for (i, &events) in outcome.slave_events.iter().enumerate() {
            snap.counter_add(&format!("parallel.slave{i}.events"), events);
        }
        snap.gauges.insert(
            "parallel.slave_events_total".into(),
            outcome.slave_events.iter().sum::<u64>() as f64,
        );
        snap.wall
            .insert("wall_seconds".into(), outcome.wall_seconds);
        outcome.telemetry = Some(snap);
    }
    Ok(outcome)
}

/// Whether the merged sample across slaves satisfies every metric's
/// stopping rule — the serial rule, applied to the aggregate.
fn aggregate_sufficient(specs: &[MetricSpec], latest: &[Vec<Option<RunningStats>>]) -> bool {
    specs.iter().enumerate().all(|(idx, spec)| {
        let mut merged = RunningStats::new();
        for moments in latest.iter().filter_map(|slave| slave.get(idx)?.as_ref()) {
            merged.merge(moments);
        }
        spec.satisfied_by(&merged)
    })
}

/// Merge phase: bucket-wise histogram merge, and moment merge, of the
/// surviving slaves' final shards (indexed by slave).
fn merge_finals(
    specs: &[MetricSpec],
    finals: &[Option<Box<FinalShard>>],
    slave_events: &mut [u64],
) -> Vec<MetricEstimate> {
    let mut merged: Vec<Option<(RunningStats, Histogram)>> = vec![None; specs.len()];
    let mut lags: Vec<usize> = vec![1; specs.len()];
    let mut observed: Vec<u64> = vec![0; specs.len()];
    for (slave, shard) in finals.iter().enumerate() {
        let Some(shard) = shard else { continue };
        slave_events[slave] = shard.run.events_done;
        for (idx, metric) in shard.run.stats.iter().flat_map(|s| s.iter()).enumerate() {
            let (Some(moments), Some(hist)) = (metric.moments(), metric.histogram()) else {
                continue;
            };
            observed[idx] += metric.total_observed();
            lags[idx] = lags[idx].max(metric.lag());
            match &mut merged[idx] {
                Some((acc_moments, acc_hist)) => {
                    acc_moments.merge(moments);
                    acc_hist.merge(hist);
                }
                slot @ None => *slot = Some((*moments, hist.clone())),
            }
        }
    }
    specs
        .iter()
        .enumerate()
        .filter_map(|(idx, spec)| {
            let (moments, hist) = merged[idx].as_ref()?;
            if hist.count() == 0 {
                return None;
            }
            Some(MetricEstimate::from_histogram(
                spec.name(),
                moments,
                hist,
                spec.confidence(),
                spec.quantiles(),
                lags[idx],
                observed[idx],
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bighouse_workloads::{StandardWorkload, Workload};

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
            .with_utilization(0.5)
            .with_target_accuracy(0.1)
            .with_warmup(50)
            .with_calibration(500)
            .with_max_events(20_000_000)
    }

    #[test]
    fn parallel_run_converges_and_merges() {
        let outcome = ParallelRunner::new(quick_config(), 2).run(99).unwrap();
        assert!(outcome.converged);
        assert_eq!(outcome.termination, TerminationReason::Converged);
        assert!(outcome.dead_slaves.is_empty());
        assert_eq!(outcome.resurrections, 0);
        assert_eq!(outcome.slave_events.len(), 2);
        assert!(outcome.slave_events.iter().all(|&e| e > 0));
        let est = outcome.metric("response_time").expect("merged estimate");
        assert!(est.samples_kept >= 30);
        assert!(est.mean > 0.0);
    }

    #[test]
    fn default_backend_is_bit_reproducible() {
        // No backend named: what a caller gets by default must not depend
        // on how the host schedules the slave threads.
        let run = || ParallelRunner::new(quick_config(), 3).run(424_242).unwrap();
        let a = run();
        let b = run();
        assert!(a.converged);
        assert_eq!(a.slave_events, b.slave_events);
        assert_eq!(a.estimates, b.estimates, "runs must be bit-identical");
        assert!(a.cluster.jobs_completed > 0);
        assert_eq!(a.cluster, b.cluster);
        assert_eq!(a.simulated_seconds.to_bits(), b.simulated_seconds.to_bits());
    }

    #[test]
    fn parallel_run_reports_a_real_cluster() {
        // The power-capping example (Fig. 10's subject): what the slaves'
        // replicas did reaches the report, and agrees with a serial run of
        // the same experiment. The capping metric stays off to keep it short.
        use bighouse_models::{DvfsModel, LinearPowerModel, PowerCapper};
        // A budget the four servers overrun at this load, so the capper
        // throttles and utilization settles above the offered 0.4; tight
        // enough an accuracy that either run's time averages have settled.
        let capper = PowerCapper::new(
            LinearPowerModel::typical_server(),
            DvfsModel::default(),
            500.0,
        );
        let config = quick_config()
            .with_servers(4)
            .with_utilization(0.4)
            .with_target_accuracy(0.01)
            .with_capper(capper);
        let serial = crate::run_serial(&config, 31).unwrap();
        let outcome = ParallelRunner::new(config, 2).run(31).unwrap();
        assert!(outcome.converged);
        assert!(outcome.simulated_seconds > 0.0);
        assert_eq!(outcome.cluster.servers, 4);
        assert!(outcome.cluster.jobs_completed > 0);
        for (what, parallel, reference) in [
            (
                "mean_utilization",
                outcome.cluster.mean_utilization,
                serial.cluster.mean_utilization,
            ),
            (
                "average_power_watts",
                outcome.cluster.average_power_watts,
                serial.cluster.average_power_watts,
            ),
        ] {
            assert!(reference > 0.0, "{what}: serial reports {reference}");
            let rel = (parallel - reference).abs() / reference;
            assert!(
                rel < 0.05,
                "{what}: parallel {parallel} vs serial {reference}"
            );
        }
        let report = outcome.report();
        assert_eq!(report.cluster, outcome.cluster);
        assert_eq!(report.simulated_seconds, outcome.simulated_seconds);
        assert_eq!(report.events_fired, outcome.total_events());
    }

    #[test]
    fn stopping_decision_is_made_at_chunk_barriers() {
        // A run that needs well under one epoch per slave stops at the
        // first chunk barrier where the aggregate suffices: every slave at
        // the same event count, none of them having finished an epoch.
        let runner = ParallelRunner::new(quick_config(), 3);
        let outcome = runner.run(99).unwrap();
        assert!(outcome.converged);
        let events = outcome.slave_events[0];
        assert!(outcome.slave_events.iter().all(|&e| e == events));
        assert!(events.is_multiple_of(CHUNK_EVENTS) && events < runner.slave_epoch_events);
    }

    #[test]
    fn parallel_agrees_with_tight_serial_reference() {
        // Compare the merged parallel estimate against a high-accuracy
        // serial reference (E = 0.01), not against another equally noisy
        // estimate: with a heavy-tailed, autocorrelated metric, two E=0.05
        // estimators can legitimately disagree by more than 2E.
        let reference = crate::run_serial(&quick_config().with_target_accuracy(0.01), 101).unwrap();
        let parallel = ParallelRunner::new(quick_config().with_target_accuracy(0.05), 3)
            .run(101)
            .unwrap();
        let r = reference.metric("response_time").unwrap();
        let p = parallel.metric("response_time").unwrap();
        let rel = (r.mean - p.mean).abs() / r.mean;
        assert!(
            rel < 0.15,
            "reference mean {} vs parallel mean {} differ by {rel}",
            r.mean,
            p.mean
        );
    }

    #[test]
    fn single_slave_works() {
        let outcome = ParallelRunner::new(quick_config(), 1).run(77).unwrap();
        assert!(outcome.converged);
        assert!(outcome.metric("response_time").is_some());
    }

    #[test]
    fn event_capped_run_reports_unconverged() {
        // The cap lands inside the second epoch, so the last epoch's
        // budget is the short one.
        let config = quick_config()
            .with_target_accuracy(0.01)
            .with_max_events(60_000);
        let outcome = ParallelRunner::new(config, 2)
            .with_slave_epoch(50_000)
            .run(55)
            .unwrap();
        assert!(!outcome.converged);
        assert_eq!(outcome.termination, TerminationReason::Deadline);
        assert_eq!(outcome.slave_events, vec![60_000, 60_000]);
    }

    #[test]
    fn a_run_whose_metrics_never_finish_calibrating_reports_no_estimates() {
        // 100 events end every slave in warm-up: the master has nothing to
        // merge, and says so rather than failing.
        let outcome = ParallelRunner::new(quick_config().with_max_events(100), 2)
            .run(25)
            .unwrap();
        assert!(!outcome.converged);
        assert_eq!(outcome.termination, TerminationReason::Deadline);
        assert!(outcome.estimates.is_empty());
        assert_eq!(outcome.slave_events, vec![100, 100]);
        assert_eq!(outcome.master_calibration_events, 0);
    }

    #[test]
    fn forced_panic_slave_is_resurrected() {
        // The acceptance criterion of the supervisor: a transiently
        // panicking slave is resurrected from its checkpoint, the run
        // converges, and nobody is reported dead.
        let outcome = ParallelRunner::new(quick_config(), 3)
            .with_proc_chaos(ProcChaos::PanicOnSpawn { slave: 1 })
            .run(88)
            .unwrap();
        assert!(
            outcome.dead_slaves.is_empty(),
            "slave 1 was resurrected, not dropped"
        );
        assert!(
            outcome.resurrections >= 1,
            "the panic forced at least one restart"
        );
        assert!(outcome.converged);
        assert_eq!(outcome.termination, TerminationReason::Converged);
        assert!(outcome.metric("response_time").is_some());
    }

    #[test]
    fn chaos_mid_run_recovers_bit_identically() {
        // The determinism claim under fire: a slave crashing (or killed by
        // the master on its next heartbeat) right after its first epoch
        // checkpoint is resurrected, replays, and the merged estimates
        // equal the undisturbed run's exactly — also when the epoch is not
        // a whole number of chunks. Accuracy is tight enough that the run
        // spans several epochs: the hooks arm on the first epoch
        // checkpoint, which a run that stops inside its first epoch never
        // writes.
        for (epoch, slaves, chaos) in [
            (50_000, 2, ProcChaos::PanicAfterFirstEpoch { slave: 1 }),
            (70_000, 3, ProcChaos::PanicAfterFirstEpoch { slave: 2 }),
            (70_000, 3, ProcChaos::KillMidEpoch { slave: 1 }),
        ] {
            let runner = || {
                ParallelRunner::new(quick_config().with_target_accuracy(0.01), slaves)
                    .with_slave_epoch(epoch)
            };
            let clean = runner().run(777).unwrap();
            let chaotic = runner().with_proc_chaos(chaos).run(777).unwrap();
            assert!(clean.converged && clean.slave_events[0] >= 2 * epoch);
            assert!(chaotic.resurrections >= 1, "{chaos:?} did not fire");
            assert!(chaotic.dead_slaves.is_empty());
            assert_eq!(clean.slave_events, chaotic.slave_events, "{chaos:?}");
            assert_eq!(
                clean.estimates, chaotic.estimates,
                "resurrection must reproduce the undisturbed trajectory ({chaos:?})"
            );
            // A replayed epoch's totals are counted once.
            assert!(clean.cluster.jobs_completed > 0);
            assert_eq!(clean.cluster, chaotic.cluster, "{chaos:?}");
            assert_eq!(
                clean.simulated_seconds.to_bits(),
                chaotic.simulated_seconds.to_bits(),
                "{chaos:?}"
            );
        }
    }

    #[test]
    fn persistently_panicking_slave_falls_back_to_drop_semantics() {
        // A slave that dies on every incarnation exhausts its restart
        // budget and the runner degrades to the original drop behavior.
        let outcome = ParallelRunner::new(quick_config(), 3)
            .with_slave_epoch(50_000)
            .with_proc_chaos(ProcChaos::PanicOnEverySpawn { slave: 1 })
            .run(88)
            .unwrap();
        assert_eq!(outcome.dead_slaves, vec![1]);
        assert_eq!(
            outcome.resurrections,
            u64::from(MAX_RESTARTS),
            "every restart was attempted"
        );
        assert_eq!(outcome.slave_events[1], 0, "dead slave delivered nothing");
        assert!(outcome.slave_events[0] > 0 && outcome.slave_events[2] > 0);
        // Survivors still deliver a merged estimate.
        let est = outcome.metric("response_time").expect("survivor estimates");
        assert!(est.mean > 0.0);
        assert!(outcome.converged, "two healthy slaves suffice");
    }

    #[test]
    fn sole_slave_panicking_is_an_error() {
        let result = ParallelRunner::new(quick_config(), 1)
            .with_proc_chaos(ProcChaos::PanicOnEverySpawn { slave: 0 })
            .run(66);
        assert!(matches!(
            result,
            Err(SimError::NoSurvivingSlaves { panicked: 1 })
        ));
    }

    #[test]
    fn interrupt_flag_winds_down_with_partial_estimates() {
        // Pre-armed flag + unreachable accuracy: the run must stop almost
        // immediately and report Interrupted with whatever was collected.
        let flag = Arc::new(AtomicBool::new(true));
        let config = quick_config()
            .with_target_accuracy(0.0005)
            .with_max_events(u64::MAX / 2);
        let outcome = ParallelRunner::new(config, 2)
            .with_interrupt(Arc::clone(&flag))
            .run(43)
            .unwrap();
        assert_eq!(outcome.termination, TerminationReason::Interrupted);
        assert!(!outcome.converged);
        assert!(
            outcome.wall_seconds < 30.0,
            "interrupt failed to bound the run"
        );
    }

    #[test]
    #[should_panic(expected = "at least one slave")]
    fn zero_slaves_rejected() {
        let _ = ParallelRunner::new(quick_config(), 0);
    }

    #[test]
    fn audited_parallel_run_converges_with_clean_report() {
        // Past one slave epoch: a slave's guard spans its epochs, whose
        // clocks all start at zero.
        let config = quick_config()
            .with_target_accuracy(0.01)
            .with_audit(crate::audit::AuditConfig::default());
        let outcome = ParallelRunner::new(config, 2)
            .with_slave_epoch(50_000)
            .run(45)
            .unwrap();
        assert!(outcome.slave_events[0] >= 2 * 50_000);
        assert!(outcome.converged);
        assert_eq!(outcome.termination, TerminationReason::Converged);
        let audit = outcome.audit.expect("audited slaves must report");
        assert!(audit.passed(), "violations: {:?}", audit.violations);
        assert!(audit.enabled);
        assert!(audit.checks_run > 0);
        // Both slaves contributed sweeps to the merged report.
        assert!(audit.observations_checked > 0);
    }

    #[test]
    fn attempt_budget_backs_off_with_bounded_decorrelated_jitter_then_exhausts() {
        // The one retry mechanism, pinned once for both masters: `retries`
        // failures each buy a deterministic delay in [1 ms, base·2^min(n-1, 6)],
        // failure `retries + 1` exhausts the budget.
        let delays = |retries: u32, salt: u64| {
            let mut budget = AttemptBudget::new(retries, salt);
            let delays: Vec<Duration> = std::iter::from_fn(|| budget.fail()).collect();
            assert_eq!(budget.failed(), retries + 1, "exhausted at max + 1");
            assert_eq!(budget.fail(), None, "and stays exhausted");
            delays
        };
        for salt in 0..8u64 {
            let run = delays(10, salt);
            assert_eq!(run.len(), 10);
            for (n, d) in run.iter().enumerate() {
                let cap = RETRY_BACKOFF * 2u32.pow((n as u32).min(6));
                assert!(*d >= Duration::from_millis(1));
                assert!(*d <= cap, "failure {} salt {salt}: {d:?} > {cap:?}", n + 1);
            }
            assert_eq!(run, delays(10, salt), "a pure function of (salt, failure)");
        }
        assert!(
            delays(0, 3).is_empty(),
            "no retries: the first failure is final"
        );
        // Different salts must not synchronize (the respawn-storm fix).
        let third: std::collections::HashSet<Duration> =
            (0..16u64).map(|salt| delays(3, salt)[2]).collect();
        assert!(third.len() > 8, "jitter collapsed: {third:?}");
    }
}

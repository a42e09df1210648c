//! Fault-tolerant orchestration of experiment *sweeps*.
//!
//! The paper's workflow runs one SQS experiment at a time; production use
//! is sweeps — a QPS grid × cluster sizes × power policies rendered into a
//! figure. [`run_sweep`] is the paper's master (§2.4, Fig. 3) with a
//! different unit of work: where the parallel runner's master hands each
//! slot one lockstep shard of one run, this one hands each slot one
//! *attempt* of one config (a [`HelloJob::Solo`]) — over the same
//! transport, threads or child processes ([`SweepOptions::backend`]) — and
//! assumes individual configs will panic, stall, or diverge:
//!
//! - **One queue.** Undecided configs sit in one list, and a slot that
//!   falls free takes the next: a 10-second config never waits behind a
//!   10-minute one, and nothing is dealt out in batches that would then
//!   need stealing back.
//! - **Deterministic seeding.** Each config's seed is derived from the
//!   sweep's master seed and the config's *id* (not its position), so
//!   editing the grid never reshuffles the seeds of configs that stayed,
//!   and a config's estimates are bit-identical to running it alone via
//!   [`run_resumable`](crate::run_resumable) at [`config_seed`], on either
//!   backend.
//! - **Poison quarantine.** The transport contains what an attempt does to
//!   itself: a panic on a thread slot, and also an abort, a segfault or an
//!   OOM kill in a child process. A failed attempt frees its slot at once
//!   and runs again after a full-jitter backoff (the parallel runner's
//!   restart budget, `AttemptBudget`); a config that fails
//!   `max_retries + 1` times is parked with a typed [`SweepError`] instead
//!   of sinking the sweep.
//! - **Crash-resumable.** Every decided config — completed or quarantined —
//!   lands in a ledger saved at once through the checkpoint store (the same
//!   sealed bytes and atomic rename, `bighouse.sweep` stem), so a SIGKILL'd sweep
//!   resumes exactly where it was and — because per-config trajectories
//!   are deterministic — reproduces the identical [`SweepReport`].
//! - **Deadlines kill, interrupts ask.** An attempt past its wall-clock
//!   deadline has failed whatever it would still say, so the master kills
//!   its slot there and then. An interrupt (SIGINT/SIGTERM in the CLI)
//!   makes no such judgement: dispatch stops, every attempt in flight is
//!   asked to stop at its next epoch boundary, one that finishes first
//!   still counts, and the ledger and a partial report are written.
//!
//! One honest limitation of a thread slot: a thread cannot be killed, so
//! "kill" raises its stop flag and abandons it — the attempt is decided at
//! once, but a config wedged *inside* an epoch (a livelock in the engine
//! itself) keeps its thread spinning until the process exits. Arm paranoid
//! mode ([`ExperimentConfig::with_audit`]) so the in-engine circuit
//! breakers break such livelocks from within — or run the sweep on
//! [`ExecBackend::Processes`], where a wedged, aborting, or segfaulting
//! config is SIGKILLed and surfaces as a typed [`SweepError::Crashed`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bighouse_des::hash::fnv1a;
use bighouse_telemetry::TelemetrySnapshot;

use crate::audit::AuditReport;
use crate::checkpoint::{config_fingerprint, CheckpointStore};
use crate::config::ExperimentConfig;
use crate::error::SimError;
use crate::parallel::{
    AttemptBudget, ExecBackend, Happened, HelloJob, SlaveEvent, SoloFault, Transport, UpFrame,
    REAP_GRACE, WATCHDOG_TICK,
};
use crate::procslave::exit_code;
use crate::report::{SimulationReport, TerminationReason};
use crate::runner::RunOptions;

/// Derives the deterministic seed for one sweep entry.
///
/// A pure function of the sweep's master seed and the entry's **id** (not
/// its position), so adding or removing configs never reshuffles the seeds
/// — and therefore the estimates — of the configs that stayed.
#[must_use]
pub fn config_seed(master_seed: u64, id: &str) -> u64 {
    let mut bytes = Vec::with_capacity(8 + id.len());
    bytes.extend_from_slice(&master_seed.to_le_bytes());
    bytes.extend_from_slice(id.as_bytes());
    fnv1a(&bytes)
}

/// One experiment in a sweep: a unique id and its configuration.
#[derive(Debug, Clone)]
pub struct SweepEntry {
    /// Unique name of this configuration within the sweep. Seeds, the
    /// resume ledger, and the report are all keyed by it.
    pub id: String,
    /// The experiment to run.
    pub config: ExperimentConfig,
}

impl SweepEntry {
    /// Creates an entry.
    pub fn new(id: impl Into<String>, config: ExperimentConfig) -> Self {
        SweepEntry {
            id: id.into(),
            config,
        }
    }
}

/// Why a configuration was quarantined. Typed and serialized into the
/// ledger and report, so a trend pipeline can distinguish "this config
/// panics" from "this config never converges".
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The config panicked inside the runner, on a thread slot (which
    /// contains it); the payload is the rendered panic message.
    Panicked {
        /// Rendered panic payload.
        message: String,
    },
    /// The config exceeded its per-attempt wall-clock deadline and its
    /// slot was killed.
    DeadlineExceeded {
        /// The configured deadline, in seconds.
        seconds: f64,
    },
    /// The runtime invariant auditor (or a progress circuit breaker)
    /// stopped the run.
    AuditFailed {
        /// Rendering of the first violation.
        violation: String,
    },
    /// The runner returned a typed error, rendered.
    RunFailed {
        /// Rendering of the underlying [`SimError`].
        error: String,
    },
    /// The config's sandboxed child process died without delivering a
    /// report — panic, segfault, abort, OOM-kill, resource-cap kill, a
    /// corrupt IPC stream or a frame no solo job sends — or could not be
    /// spawned. Only produced on [`ExecBackend::Processes`]; a thread slot
    /// cannot survive (or observe) these failure classes.
    Crashed {
        /// Rendering of what happened to the child ("exit status: 101",
        /// "signal: 6 (SIGABRT)", "checksum mismatch", …).
        detail: String,
    },
}

bighouse_json::json_enum!(SweepError {
    Panicked { message },
    DeadlineExceeded { seconds },
    AuditFailed { violation },
    RunFailed { error },
    Crashed { detail },
});

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Panicked { message } => write!(f, "panicked: {message}"),
            SweepError::DeadlineExceeded { seconds } => {
                write!(f, "exceeded the {seconds}s per-attempt deadline")
            }
            SweepError::AuditFailed { violation } => write!(f, "audit failed: {violation}"),
            SweepError::RunFailed { error } => write!(f, "run failed: {error}"),
            SweepError::Crashed { detail } => write!(f, "child process crashed: {detail}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// A successfully completed configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigOutcome {
    /// The entry's id.
    pub id: String,
    /// The derived per-config seed ([`config_seed`]).
    pub seed: u64,
    /// Attempts it took (1 = succeeded first try).
    pub attempts: u32,
    /// The config's full simulation report.
    pub report: SimulationReport,
}

bighouse_json::json_struct!(ConfigOutcome {
    id,
    seed,
    attempts,
    report
});

/// A quarantined (poison) configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedConfig {
    /// The entry's id.
    pub id: String,
    /// The derived per-config seed.
    pub seed: u64,
    /// Attempts made before parking (always `max_retries + 1`).
    pub attempts: u32,
    /// The last attempt's failure.
    pub error: SweepError,
}

bighouse_json::json_struct!(QuarantinedConfig {
    id,
    seed,
    attempts,
    error
});

/// The crash-consistent resume ledger, persisted through
/// [`CheckpointStore`] under the `bighouse.sweep` stem.
#[derive(Debug, Clone)]
struct SweepLedger {
    /// Master seed of the sweep (resume must match).
    master_seed: u64,
    /// Fingerprint over (sorted ids, per-config fingerprints, epoch
    /// size); a mismatch on resume means a different sweep.
    sweep_fingerprint: u64,
    /// Epoch size every config ran with (part of the determinism
    /// contract).
    epoch_events: u64,
    /// Configs that finished, keyed by id.
    completed: BTreeMap<String, ConfigOutcome>,
    /// Configs that were parked, keyed by id.
    quarantined: BTreeMap<String, QuarantinedConfig>,
}

bighouse_json::json_struct!(SweepLedger {
    master_seed,
    sweep_fingerprint,
    epoch_events,
    completed,
    quarantined,
});

impl SweepLedger {
    fn decided(&self) -> usize {
        self.completed.len() + self.quarantined.len()
    }
}

/// Non-deterministic facts about a sweep execution, quarantined from the
/// deterministic sections exactly like
/// [`RuntimeStats`](crate::RuntimeStats) on a single run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepRuntime {
    /// Wall-clock seconds for this invocation.
    pub wall_seconds: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Configs restored from the resume ledger instead of re-run.
    pub resumed: usize,
}

bighouse_json::json_struct!(SweepRuntime {
    wall_seconds,
    workers,
    resumed
});

/// Aggregated result of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Configurations in the sweep (completed + quarantined + any left
    /// unfinished by an interrupt).
    pub total_configs: usize,
    /// Completed configurations, sorted by id.
    pub completed: Vec<ConfigOutcome>,
    /// Quarantined configurations, sorted by id.
    pub quarantined: Vec<QuarantinedConfig>,
    /// Failed attempts that were retried, summed across all configs.
    pub retries: u32,
    /// Whether the sweep wound down before deciding every config
    /// (interrupt or `max_decided`); `--resume` finishes the rest.
    pub interrupted: bool,
    /// Per-config telemetry snapshots absorbed in id order, plus
    /// `sweep.*` counters (`None` when no config was instrumented).
    pub telemetry: Option<TelemetrySnapshot>,
    /// Audit findings merged across completed configs in id order
    /// (`None` when no config was audited).
    pub audit: Option<AuditReport>,
    /// Non-deterministic execution facts.
    pub runtime: SweepRuntime,
}

bighouse_json::json_struct!(SweepReport {
    total_configs,
    completed,
    quarantined,
    retries,
    interrupted,
    telemetry; skip_if Option::is_none,
    audit; skip_if Option::is_none,
    runtime = SweepRuntime::default(),
});

impl SweepReport {
    /// Returns a copy with every wall-clock-derived value zeroed: the
    /// sweep runtime section, each per-config report's wall clock, and
    /// all telemetry wall namespaces. What remains is a pure function of
    /// (entries, master seed, epoch size) — the projection the
    /// kill/resume bit-identity tests and CI compare.
    #[must_use]
    pub fn canonical(&self) -> SweepReport {
        let mut clean = self.clone();
        clean.runtime = SweepRuntime::default();
        for outcome in &mut clean.completed {
            outcome.report.runtime.wall_seconds = 0.0;
            if let Some(snap) = &mut outcome.report.runtime.telemetry {
                *snap = snap.without_wall_times();
            }
        }
        clean.telemetry = clean.telemetry.map(|snap| snap.without_wall_times());
        clean
    }
}

/// Progress notification streamed to [`SweepOptions::on_event`] from the
/// master as configs are decided.
#[derive(Debug, Clone)]
pub enum SweepEvent {
    /// A config finished (possibly unconverged, but with valid
    /// estimates).
    Completed {
        /// The entry's id.
        id: String,
        /// Attempts it took.
        attempts: u32,
        /// Whether its metrics converged.
        converged: bool,
    },
    /// An attempt failed; the config retries after backoff.
    Retrying {
        /// The entry's id.
        id: String,
        /// The attempt that just failed (1-based).
        attempt: u32,
        /// Why it failed.
        error: SweepError,
    },
    /// A config exhausted its retry budget and was parked.
    Quarantined {
        /// The entry's id.
        id: String,
        /// Attempts made.
        attempts: u32,
        /// The final failure.
        error: SweepError,
    },
}

/// Shared progress callback invoked from the master's thread as each
/// config is decided (see [`SweepOptions::on_event`]).
pub(crate) type SweepEventHook = Arc<dyn Fn(&SweepEvent) + Send + Sync>;

/// Seeded failures for robustness tests, injected into the job each
/// attempt is spawned with: ids in `panic_ids` panic on every attempt; ids
/// in `stall_ids` wedge (holding their slot) until the deadline kills them
/// or a sweep interrupt stops them.
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct SweepFaultInjection {
    /// Ids that panic on every attempt.
    pub panic_ids: Vec<String>,
    /// Ids that stall until cancelled.
    pub stall_ids: Vec<String>,
}

/// Options for [`run_sweep`].
#[derive(Clone)]
pub struct SweepOptions {
    /// Transport slots — attempts in flight at once (0 = one per available
    /// core, clamped to the number of pending configs).
    pub workers: usize,
    /// Failed attempts tolerated per config before quarantine: a config
    /// runs at most `max_retries + 1` times.
    pub max_retries: u32,
    /// Per-attempt wall-clock deadline. When it expires the master kills
    /// the attempt's slot and the attempt counts as failed. `None`
    /// disables.
    pub deadline: Option<Duration>,
    /// Event budget per epoch for every config (0 = the runner default).
    /// Part of the determinism contract: a config's estimates are
    /// bit-identical to a standalone [`run_resumable`](crate::run_resumable) only at the same
    /// epoch size.
    pub epoch_events: u64,
    /// Directory of the resume ledger (`None` disables). The ledger is
    /// saved after every decided config, and once more at the end.
    pub checkpoint: Option<PathBuf>,
    /// Resume from the ledger instead of starting fresh. Requires
    /// `checkpoint` and a loadable ledger from the *same* sweep.
    pub resume: bool,
    /// Cooperative interrupt: set it (e.g. from a SIGINT handler) and the
    /// sweep stops dispatching, stops in-flight configs at their next
    /// epoch boundary, saves the ledger, and reports partial results.
    pub interrupt: Option<Arc<AtomicBool>>,
    /// Stop dispatching after this many configs have been decided
    /// *this invocation* — a deterministic programmatic pause point, the
    /// sweep-level analogue of [`RunOptions::max_epochs`].
    pub max_decided: Option<usize>,
    /// Progress callback, invoked from the master's thread.
    pub on_event: Option<SweepEventHook>,
    /// The transport attempts run on. [`ExecBackend::Processes`] runs every
    /// attempt in a sandboxed child OS process (re-exec via the hidden
    /// `__slave` entrypoint): a poison config that aborts, segfaults, or
    /// wedges mid-epoch is killed and quarantined as
    /// [`SweepError::Crashed`] without taking the sweep down. Estimates are
    /// bit-identical on both; threads (the default) contain panics only.
    pub backend: ExecBackend,
    /// Test hook: seeded per-id failures.
    #[doc(hidden)]
    pub fault_injection: Option<SweepFaultInjection>,
}

impl SweepOptions {
    /// Default failed attempts tolerated before quarantine.
    pub(crate) const DEFAULT_MAX_RETRIES: u32 = 2;
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            workers: 0,
            max_retries: Self::DEFAULT_MAX_RETRIES,
            deadline: None,
            epoch_events: 0,
            checkpoint: None,
            resume: false,
            interrupt: None,
            max_decided: None,
            on_event: None,
            backend: ExecBackend::default(),
            fault_injection: None,
        }
    }
}

impl fmt::Debug for SweepOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepOptions")
            .field("workers", &self.workers)
            .field("max_retries", &self.max_retries)
            .field("deadline", &self.deadline)
            .field("epoch_events", &self.epoch_events)
            .field("checkpoint", &self.checkpoint)
            .field("resume", &self.resume)
            .field("max_decided", &self.max_decided)
            .field("on_event", &self.on_event.as_ref().map(|_| "Fn(..)"))
            .field("backend", &self.backend)
            .field("fault_injection", &self.fault_injection)
            .finish_non_exhaustive()
    }
}

/// One config on its way to a decision: the entry, its derived seed and
/// what is left of its retries.
struct Candidate<'a> {
    entry: &'a SweepEntry,
    seed: u64,
    budget: AttemptBudget,
}

/// An attempt in flight on a transport slot.
struct InFlight<'a> {
    candidate: Candidate<'a>,
    /// When the master kills the slot: the attempt's deadline, or the end
    /// of the grace an interrupt allows.
    kill_at: Option<Instant>,
}

/// The sweep's master: one event loop over the transport that owns
/// dispatch, deadlines, the interrupt, retry-after-backoff, quarantine, the
/// ledger and `on_event`.
struct Master<'a> {
    epoch_events: u64,
    opts: &'a SweepOptions,
    store: Option<&'a CheckpointStore>,
    interrupt: &'a AtomicBool,
    transport: Box<dyn Transport>,
    /// Configs not yet started, in entry order.
    queue: VecDeque<Candidate<'a>>,
    /// Configs waiting out a backoff, with the time their retry is due: a
    /// failed attempt frees its slot for the next config meanwhile.
    waiting: Vec<(Instant, Candidate<'a>)>,
    slots: Vec<Option<InFlight<'a>>>,
    /// Current incarnation of each slot; a settled attempt's is fenced off.
    incarnations: Vec<u32>,
    ledger: SweepLedger,
    decided_now: usize,
    save_error: Option<SimError>,
}

impl<'a> Master<'a> {
    fn emit(&self, event: &SweepEvent) {
        if let Some(callback) = &self.opts.on_event {
            callback(event);
        }
    }

    /// Runs the sweep to the end (or to a wind-down) and hands the ledger
    /// back.
    fn run(mut self) -> Result<SweepLedger, SimError> {
        let mut winding_down = false;
        loop {
            if !winding_down && self.interrupt.load(Ordering::Relaxed) {
                winding_down = true;
                self.transport.interrupt_all();
                // A child wedged mid-epoch never reaches the boundary it
                // was asked to stop at.
                let grace = Instant::now() + REAP_GRACE;
                for flight in self.slots.iter_mut().flatten() {
                    flight.kill_at = Some(flight.kill_at.map_or(grace, |at| at.min(grace)));
                }
            }
            for slot in 0..self.slots.len() {
                if !winding_down && self.slots[slot].is_none() {
                    if let Some(candidate) = self.next_due() {
                        self.start(slot, candidate);
                    }
                }
            }
            let idle = self.slots.iter().all(Option::is_none);
            if idle && (winding_down || (self.queue.is_empty() && self.waiting.is_empty())) {
                break;
            }

            if let Some(event) = self.transport.recv_timeout(WATCHDOG_TICK) {
                self.handle(event);
            }
            let now = Instant::now();
            for slot in 0..self.slots.len() {
                let due = |flight: &InFlight| flight.kill_at.is_some_and(|at| now >= at);
                if self.slots[slot].as_ref().is_some_and(due) {
                    let candidate = self.settle(slot).expect("the slot was in flight");
                    // Wound down on request, the config stays undecided.
                    if !winding_down {
                        let seconds = self.opts.deadline.map_or(0.0, |d| d.as_secs_f64());
                        self.failed(candidate, SweepError::DeadlineExceeded { seconds });
                    }
                }
            }
        }
        self.transport.reap();
        match self.save_error {
            Some(e) => Err(e),
            None => Ok(self.ledger),
        }
    }

    /// The next config to start: a retry whose backoff has run out, else
    /// the next fresh one.
    fn next_due(&mut self) -> Option<Candidate<'a>> {
        let now = Instant::now();
        match self.waiting.iter().position(|(due, _)| *due <= now) {
            Some(at) => Some(self.waiting.remove(at).1),
            None => self.queue.pop_front(),
        }
    }

    /// Spawns the candidate's next attempt on a free slot.
    fn start(&mut self, slot: usize, candidate: Candidate<'a>) {
        let entry = candidate.entry;
        let listed = |ids: &[String]| ids.contains(&entry.id);
        let fault = match &self.opts.fault_injection {
            Some(faults) if listed(&faults.panic_ids) => Some(SoloFault::Panic(format!(
                "injected poison panic for `{}`",
                entry.id
            ))),
            Some(faults) if listed(&faults.stall_ids) => Some(SoloFault::Stall),
            _ => None,
        };
        let job = HelloJob::Solo {
            config: Box::new(entry.config.clone()),
            master_seed: candidate.seed,
            epoch_events: self.epoch_events,
            fault,
        };
        match self.transport.spawn(slot, self.incarnations[slot], job) {
            Ok(()) => {
                let kill_at = self.opts.deadline.map(|d| Instant::now() + d);
                self.slots[slot] = Some(InFlight { candidate, kill_at });
            }
            Err(SimError::SlaveProcess { detail, .. } | SimError::Frame { detail }) => {
                self.failed(candidate, SweepError::Crashed { detail });
            }
            Err(e) => {
                let error = e.to_string();
                self.failed(candidate, SweepError::RunFailed { error });
            }
        }
    }

    /// Ends the attempt on `slot`: reaps what is left of it, fences its
    /// incarnation and frees the slot.
    fn settle(&mut self, slot: usize) -> Option<Candidate<'a>> {
        self.transport.kill(slot);
        self.incarnations[slot] += 1;
        self.slots[slot].take().map(|flight| flight.candidate)
    }

    /// One event off the transport. Whatever a stale or nonsensical
    /// incarnation sends is fenced; anything else ends its slot's attempt.
    fn handle(&mut self, event: SlaveEvent) {
        let slot = event.slave;
        if self.incarnations.get(slot) != Some(&event.incarnation) || self.slots[slot].is_none() {
            return;
        }
        let candidate = self.settle(slot).expect("the slot was in flight");
        let error = match event.what {
            Happened::Up(UpFrame::SoloReport(report)) => return self.reported(candidate, *report),
            Happened::Up(UpFrame::Fatal { error, code }) if code == exit_code::SIM => {
                SweepError::RunFailed { error }
            }
            Happened::Up(UpFrame::Fatal { error, .. }) => SweepError::Crashed {
                detail: format!("child failed: {error}"),
            },
            Happened::Up(_) => SweepError::Crashed {
                detail: "protocol violation: a lockstep frame from a solo job".to_owned(),
            },
            Happened::Panicked(message) => SweepError::Panicked { message },
            Happened::Exited(detail) => SweepError::Crashed { detail },
        };
        self.failed(candidate, error);
    }

    /// An attempt delivered its report: the termination says what it is.
    fn reported(&mut self, candidate: Candidate<'a>, report: SimulationReport) {
        match report.termination {
            // Wound down on request: the config stays undecided and a
            // resume will run it from scratch.
            TerminationReason::Interrupted => {}
            TerminationReason::AuditViolation | TerminationReason::Livelock => {
                let violation = report
                    .audit
                    .as_ref()
                    .and_then(|a| a.violations.first().map(ToString::to_string))
                    .unwrap_or_else(|| "unspecified violation".to_owned());
                self.failed(candidate, SweepError::AuditFailed { violation });
            }
            _ => {
                let outcome = ConfigOutcome {
                    id: candidate.entry.id.clone(),
                    seed: candidate.seed,
                    attempts: candidate.budget.failed() + 1,
                    report,
                };
                let event = SweepEvent::Completed {
                    id: outcome.id.clone(),
                    attempts: outcome.attempts,
                    converged: outcome.report.converged,
                };
                self.ledger.completed.insert(outcome.id.clone(), outcome);
                self.decided(&event);
            }
        }
    }

    /// An attempt failed: charge the budget, then retry after its backoff
    /// or quarantine.
    fn failed(&mut self, mut candidate: Candidate<'a>, error: SweepError) {
        let id = candidate.entry.id.clone();
        let backoff = candidate.budget.fail();
        let attempts = candidate.budget.failed();
        match backoff {
            Some(backoff) => {
                self.emit(&SweepEvent::Retrying {
                    id,
                    attempt: attempts,
                    error,
                });
                self.waiting.push((Instant::now() + backoff, candidate));
            }
            None => {
                let event = SweepEvent::Quarantined {
                    id: id.clone(),
                    attempts,
                    error: error.clone(),
                };
                let quarantined = QuarantinedConfig {
                    seed: candidate.seed,
                    id: id.clone(),
                    attempts,
                    error,
                };
                self.ledger.quarantined.insert(id, quarantined);
                self.decided(&event);
            }
        }
    }

    /// A config just entered the ledger: persist it, tell the caller, and
    /// honour `max_decided`.
    fn decided(&mut self, event: &SweepEvent) {
        self.decided_now += 1;
        if let (Some(store), None) = (self.store, &self.save_error) {
            // Persistence failing must not lose the in-memory sweep:
            // finish, then report.
            self.save_error = store.save(&self.ledger).err();
        }
        self.emit(event);
        if self
            .opts
            .max_decided
            .is_some_and(|max| self.decided_now >= max)
        {
            self.interrupt.store(true, Ordering::Relaxed);
        }
    }
}

/// Runs a sweep. See the module docs for the machinery; see
/// [`SweepOptions`] for the knobs.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for an empty sweep or duplicate
/// ids, [`SimError::Checkpoint`] for resume/ledger problems (no ledger,
/// corrupt ledger, or a ledger from a different sweep), and
/// [`SimError::Io`] when the ledger cannot be persisted. Individual
/// config failures never surface here — they are quarantined into the
/// report.
pub fn run_sweep(
    entries: &[SweepEntry],
    master_seed: u64,
    opts: &SweepOptions,
) -> Result<SweepReport, SimError> {
    let began = Instant::now();
    if entries.is_empty() {
        return Err(SimError::InvalidParameter {
            name: "sweep.entries",
            value: "0 configs".to_owned(),
            requirement: "at least one config",
        });
    }
    let mut ids = BTreeSet::new();
    for entry in entries {
        if !ids.insert(entry.id.as_str()) {
            return Err(SimError::InvalidParameter {
                name: "sweep.entries",
                value: entry.id.clone(),
                requirement: "unique per-config ids",
            });
        }
    }
    let epoch_events = RunOptions {
        epoch_events: opts.epoch_events,
        ..RunOptions::default()
    }
    .epoch_budget();
    // The sweep fingerprint chains the per-config fingerprints in id
    // order, so resume rejects a ledger whose grid, seeds, or epoch size
    // differ. Per-config fingerprints already ignore the observational
    // toggles (audit, telemetry).
    let mut acc = format!("sweep|seed={master_seed}|epoch={epoch_events}");
    let mut sorted: Vec<&SweepEntry> = entries.iter().collect();
    sorted.sort_by(|a, b| a.id.cmp(&b.id));
    for entry in sorted {
        let fp = config_fingerprint(&entry.config, config_seed(master_seed, &entry.id));
        acc.push_str(&format!("|{}:{fp:016x}", entry.id));
    }
    let sweep_fingerprint = fnv1a(acc.as_bytes());

    let store = (opts.checkpoint.as_ref())
        .map(|dir| CheckpointStore::with_stem(dir, "bighouse.sweep"))
        .transpose()?;
    let ledger = if opts.resume {
        let Some(store) = &store else {
            return Err(SimError::Checkpoint(
                "sweep resume requested without a checkpoint directory".to_owned(),
            ));
        };
        let Some(ledger) = store.load::<SweepLedger>()? else {
            return Err(SimError::Checkpoint(format!(
                "resume requested but no sweep ledger exists at {}",
                store.current_path().display()
            )));
        };
        if ledger.master_seed != master_seed
            || ledger.sweep_fingerprint != sweep_fingerprint
            || ledger.epoch_events != epoch_events
        {
            return Err(SimError::Checkpoint(
                "stale sweep ledger: it was written by a different sweep \
                 (configs, master seed, or epoch size differ)"
                    .to_owned(),
            ));
        }
        ledger
    } else {
        SweepLedger {
            master_seed,
            sweep_fingerprint,
            epoch_events,
            completed: BTreeMap::new(),
            quarantined: BTreeMap::new(),
        }
    };
    let resumed = ledger.decided();

    // The salt (the config's id hash) decorrelates retry schedules across
    // configs, so a batch that all crashed at once (a machine-wide hiccup
    // under process isolation) does not retry in lockstep.
    let queue: VecDeque<Candidate> = entries
        .iter()
        .filter(|e| {
            !ledger.completed.contains_key(&e.id) && !ledger.quarantined.contains_key(&e.id)
        })
        .map(|entry| Candidate {
            entry,
            seed: config_seed(master_seed, &entry.id),
            budget: AttemptBudget::new(opts.max_retries, fnv1a(entry.id.as_bytes())),
        })
        .collect();

    let interrupt = opts
        .interrupt
        .clone()
        .unwrap_or_else(|| Arc::new(AtomicBool::new(false)));
    let workers = if opts.workers > 0 {
        opts.workers
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
    .min(queue.len().max(1));

    let ledger = Master {
        epoch_events,
        opts,
        store: store.as_ref(),
        interrupt: &interrupt,
        transport: opts.backend.transport(workers),
        queue,
        waiting: Vec::new(),
        slots: (0..workers).map(|_| None).collect(),
        incarnations: vec![0; workers],
        ledger,
        decided_now: 0,
        save_error: None,
    }
    .run()?;

    // Final ledger write, so even a sweep interrupted before its first
    // decision (or one that decided nothing new) leaves a resumable
    // ledger behind.
    if let Some(store) = &store {
        store.save(&ledger)?;
    }

    let completed: Vec<ConfigOutcome> = ledger.completed.into_values().collect();
    let quarantined: Vec<QuarantinedConfig> = ledger.quarantined.into_values().collect();
    let retries = completed
        .iter()
        .map(|c| c.attempts - 1)
        .chain(quarantined.iter().map(|q| q.attempts - 1))
        .sum();

    let mut telemetry: Option<TelemetrySnapshot> = None;
    for outcome in &completed {
        if let Some(snap) = &outcome.report.runtime.telemetry {
            telemetry
                .get_or_insert_with(TelemetrySnapshot::default)
                .absorb(snap);
        }
    }
    if let Some(snap) = telemetry.as_mut() {
        snap.counters
            .insert("sweep.configs_completed".to_owned(), completed.len() as u64);
        snap.counters.insert(
            "sweep.configs_quarantined".to_owned(),
            quarantined.len() as u64,
        );
        snap.counters
            .insert("sweep.retries".to_owned(), u64::from(retries));
        snap.wall.insert(
            "sweep.wall_seconds".to_owned(),
            began.elapsed().as_secs_f64(),
        );
    }
    let mut audit: Option<AuditReport> = None;
    for outcome in &completed {
        if let Some(report) = &outcome.report.audit {
            audit.get_or_insert_with(AuditReport::default).merge(report);
        }
    }

    let decided = completed.len() + quarantined.len();
    Ok(SweepReport {
        total_configs: entries.len(),
        interrupted: decided < entries.len(),
        completed,
        quarantined,
        retries,
        telemetry,
        audit,
        runtime: SweepRuntime {
            wall_seconds: began.elapsed().as_secs_f64(),
            workers,
            resumed,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MetricKind;
    use crate::procslave::ProcSlaveConfig;
    use crate::runner::run_resumable;
    use bighouse_workloads::{StandardWorkload, Workload};
    use std::path::PathBuf;
    use std::sync::Mutex;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bighouse-sweep-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quick_config(utilization: f64) -> ExperimentConfig {
        ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
            .with_utilization(utilization)
            .with_target_accuracy(0.2)
            .with_warmup(50)
            .with_calibration(500)
    }

    fn grid(utilizations: &[f64]) -> Vec<SweepEntry> {
        utilizations
            .iter()
            .map(|&u| SweepEntry::new(format!("utilization={u}"), quick_config(u)))
            .collect()
    }

    fn estimates_json(report: &SimulationReport) -> String {
        bighouse_json::to_string(&report.estimates)
    }

    #[test]
    fn sweep_matches_individual_runs_bit_for_bit() {
        let entries = grid(&[0.3, 0.5, 0.7]);
        let opts = SweepOptions {
            workers: 2,
            epoch_events: 50_000,
            ..SweepOptions::default()
        };
        let report = run_sweep(&entries, 2012, &opts).unwrap();
        assert_eq!(report.completed.len(), 3);
        assert!(report.quarantined.is_empty());
        assert!(!report.interrupted);
        assert_eq!(report.retries, 0);
        for outcome in &report.completed {
            let entry = entries.iter().find(|e| e.id == outcome.id).unwrap();
            assert_eq!(outcome.seed, config_seed(2012, &entry.id));
            let solo = run_resumable(
                &entry.config,
                outcome.seed,
                &RunOptions {
                    epoch_events: 50_000,
                    ..RunOptions::default()
                },
            )
            .unwrap();
            assert_eq!(estimates_json(&outcome.report), estimates_json(&solo));
            assert_eq!(outcome.report.events_fired, solo.events_fired);
            assert_eq!(
                outcome.report.simulated_seconds.to_bits(),
                solo.simulated_seconds.to_bits()
            );
        }
    }

    #[test]
    fn config_seed_depends_on_id_not_position() {
        assert_ne!(config_seed(1, "a"), config_seed(1, "b"));
        assert_ne!(config_seed(1, "a"), config_seed(2, "a"));
        assert_eq!(config_seed(7, "x"), config_seed(7, "x"));
    }

    #[test]
    fn panicking_config_is_quarantined_after_bounded_retries() {
        let mut entries = grid(&[0.4, 0.6]);
        entries.push(SweepEntry::new("poison", quick_config(0.5)));
        let retry_events = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&retry_events);
        let opts = SweepOptions {
            workers: 2,
            max_retries: 1,
            epoch_events: 50_000,
            fault_injection: Some(SweepFaultInjection {
                panic_ids: vec!["poison".to_owned()],
                stall_ids: vec![],
            }),
            on_event: Some(Arc::new(move |event| {
                if let SweepEvent::Retrying { id, .. } = event {
                    seen.lock().unwrap().push(id.clone());
                }
            })),
            ..SweepOptions::default()
        };
        let report = run_sweep(&entries, 99, &opts).unwrap();
        assert_eq!(report.completed.len(), 2);
        assert_eq!(report.quarantined.len(), 1);
        let poison = &report.quarantined[0];
        assert_eq!(poison.id, "poison");
        assert_eq!(poison.attempts, 2, "max_retries=1 means two attempts");
        assert!(matches!(&poison.error, SweepError::Panicked { message }
            if message.contains("injected")));
        assert_eq!(report.retries, 1);
        assert_eq!(retry_events.lock().unwrap().as_slice(), ["poison"]);
        assert!(!report.interrupted);
    }

    #[test]
    fn a_config_waiting_out_its_backoff_does_not_hold_a_slot() {
        // One slot, the poison config first in line: its failed attempt
        // frees the slot, so the healthy config runs during the backoff and
        // is decided before the poison one's last attempt.
        let mut entries = vec![SweepEntry::new("poison", quick_config(0.5))];
        entries.extend(grid(&[0.5]));
        let decided = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&decided);
        let opts = SweepOptions {
            workers: 1,
            max_retries: 1,
            epoch_events: 50_000,
            fault_injection: Some(SweepFaultInjection {
                panic_ids: vec!["poison".to_owned()],
                stall_ids: vec![],
            }),
            on_event: Some(Arc::new(move |event| match event {
                SweepEvent::Completed { id, .. } | SweepEvent::Quarantined { id, .. } => {
                    seen.lock().unwrap().push(id.clone());
                }
                SweepEvent::Retrying { .. } => {}
            })),
            ..SweepOptions::default()
        };
        let report = run_sweep(&entries, 3, &opts).unwrap();
        assert_eq!(report.completed.len(), 1);
        assert_eq!(report.quarantined[0].attempts, 2);
        assert_eq!(
            decided.lock().unwrap().as_slice(),
            ["utilization=0.5", "poison"]
        );
    }

    #[test]
    fn stalling_config_hits_deadline_and_is_quarantined() {
        let mut entries = grid(&[0.5]);
        entries.push(SweepEntry::new("wedged", quick_config(0.5)));
        let opts = SweepOptions {
            workers: 2,
            max_retries: 1,
            deadline: Some(Duration::from_millis(400)),
            epoch_events: 50_000,
            fault_injection: Some(SweepFaultInjection {
                panic_ids: vec![],
                stall_ids: vec!["wedged".to_owned()],
            }),
            ..SweepOptions::default()
        };
        let report = run_sweep(&entries, 4, &opts).unwrap();
        assert_eq!(report.completed.len(), 1);
        assert_eq!(report.quarantined.len(), 1);
        let wedged = &report.quarantined[0];
        assert_eq!(wedged.attempts, 2);
        assert!(matches!(
            wedged.error,
            SweepError::DeadlineExceeded { seconds } if seconds > 0.0
        ));
    }

    #[test]
    fn killed_and_resumed_sweep_reproduces_identical_report() {
        let dir = temp_dir("resume");
        let entries = grid(&[0.3, 0.45, 0.6, 0.75]);

        let reference = run_sweep(
            &entries,
            2012,
            &SweepOptions {
                workers: 2,
                epoch_events: 50_000,
                ..SweepOptions::default()
            },
        )
        .unwrap();

        // "Kill" after two decisions, then resume from the ledger.
        let partial = run_sweep(
            &entries,
            2012,
            &SweepOptions {
                workers: 2,
                epoch_events: 50_000,
                checkpoint: Some(dir.clone()),
                max_decided: Some(2),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        // At least the two decided configs are in the ledger; in-flight
        // ones may have completed before the wind-down reached them, so
        // only the lower bound is deterministic.
        assert!(partial.completed.len() >= 2);

        let resumed = run_sweep(
            &entries,
            2012,
            &SweepOptions {
                workers: 2,
                epoch_events: 50_000,
                checkpoint: Some(dir.clone()),
                resume: true,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert!(!resumed.interrupted);
        assert!(resumed.runtime.resumed >= 2);
        assert_eq!(
            bighouse_json::to_string(&resumed.canonical()),
            bighouse_json::to_string(&reference.canonical()),
            "kill + resume must reproduce the identical report"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_ledger_payloads_never_panic() {
        let config = quick_config(0.5);
        let report = crate::run_serial(&config, 3).unwrap();
        let outcome = |id: &str| ConfigOutcome {
            id: id.to_owned(),
            seed: 3,
            attempts: 1,
            report: report.clone(),
        };
        let ledger = SweepLedger {
            master_seed: 2012,
            sweep_fingerprint: 42,
            epoch_events: 50_000,
            completed: [("a".to_owned(), outcome("a"))].into(),
            quarantined: [(
                "b".to_owned(),
                QuarantinedConfig {
                    id: "b".to_owned(),
                    seed: 4,
                    attempts: 2,
                    error: SweepError::DeadlineExceeded { seconds: 1.5 },
                },
            )]
            .into(),
        };
        crate::envelope::check_hostile_payloads(
            "hostile_ledger_payloads_never_panic",
            "hostile.sweep",
            &ledger,
        );
    }

    #[test]
    fn stale_ledger_is_rejected() {
        let dir = temp_dir("stale");
        let entries = grid(&[0.4, 0.6]);
        let opts = SweepOptions {
            workers: 2,
            epoch_events: 50_000,
            checkpoint: Some(dir.clone()),
            ..SweepOptions::default()
        };
        run_sweep(&entries, 1, &opts).unwrap();
        // Same directory, different master seed: must refuse.
        let resume = SweepOptions {
            resume: true,
            ..opts
        };
        let err = run_sweep(&entries, 2, &resume).unwrap_err();
        assert!(matches!(err, SimError::Checkpoint(ref msg) if msg.contains("stale")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_checkpoint_dir_is_an_error() {
        let entries = grid(&[0.5]);
        let err = run_sweep(
            &entries,
            1,
            &SweepOptions {
                resume: true,
                ..SweepOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Checkpoint(_)));
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let entries = vec![
            SweepEntry::new("same", quick_config(0.4)),
            SweepEntry::new("same", quick_config(0.6)),
        ];
        let err = run_sweep(&entries, 1, &SweepOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidParameter { name, .. } if name == "sweep.entries"
        ));
    }

    #[test]
    fn empty_sweep_is_rejected() {
        let err = run_sweep(&[], 1, &SweepOptions::default()).unwrap_err();
        assert!(matches!(err, SimError::InvalidParameter { .. }));
    }

    #[test]
    fn pre_armed_interrupt_decides_nothing() {
        let entries = grid(&[0.4, 0.6]);
        let flag = Arc::new(AtomicBool::new(true));
        let report = run_sweep(
            &entries,
            1,
            &SweepOptions {
                interrupt: Some(flag),
                epoch_events: 50_000,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert!(report.interrupted);
        assert!(report.completed.is_empty());
        assert!(report.quarantined.is_empty());
    }

    #[test]
    fn telemetry_and_audit_aggregate_across_configs() {
        let entries: Vec<SweepEntry> = grid(&[0.4, 0.6])
            .into_iter()
            .map(|e| SweepEntry {
                id: e.id,
                config: e
                    .config
                    .with_telemetry(true)
                    .with_audit(crate::audit::AuditConfig::default()),
            })
            .collect();
        let report = run_sweep(
            &entries,
            5,
            &SweepOptions {
                workers: 2,
                epoch_events: 50_000,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        let telemetry = report.telemetry.as_ref().expect("instrumented configs");
        assert_eq!(telemetry.counters["sweep.configs_completed"], 2);
        assert_eq!(telemetry.counters["sweep.configs_quarantined"], 0);
        let audit = report.audit.as_ref().expect("audited configs");
        assert!(audit.enabled);
        assert!(audit.passed());
        assert!(audit.checks_run > 0);
        // The quarantined wall namespace never leaks into canonical form.
        let canonical = report.canonical();
        assert!(canonical.telemetry.unwrap().wall.is_empty());
    }

    #[test]
    fn unspawnable_isolated_config_is_quarantined_as_crashed() {
        // Process isolation with a program that cannot exist: every
        // attempt fails at spawn, which must surface as a typed
        // `Crashed` quarantine — never a panic or a hung sweep.
        let entries = grid(&[0.5]);
        let opts = SweepOptions {
            workers: 1,
            max_retries: 1,
            epoch_events: 50_000,
            backend: ExecBackend::Processes(ProcSlaveConfig {
                program: Some("/nonexistent/bighouse-slave-binary".into()),
                ..ProcSlaveConfig::default()
            }),
            ..SweepOptions::default()
        };
        let report = run_sweep(&entries, 11, &opts).unwrap();
        assert!(report.completed.is_empty());
        assert_eq!(report.quarantined.len(), 1);
        let crashed = &report.quarantined[0];
        assert_eq!(crashed.attempts, 2);
        assert!(
            matches!(&crashed.error, SweepError::Crashed { detail } if detail.contains("spawn")),
            "{:?}",
            crashed.error
        );
    }

    #[test]
    fn metric_trend_is_monotonic_across_the_grid() {
        // The whole point of a sweep: response time grows with load.
        let entries = grid(&[0.2, 0.8]);
        let report = run_sweep(
            &entries,
            2012,
            &SweepOptions {
                workers: 2,
                epoch_events: 50_000,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        let mean = |id: &str| {
            report
                .completed
                .iter()
                .find(|c| c.id == id)
                .and_then(|c| c.report.metric(MetricKind::ResponseTime.name()))
                .map(|m| m.mean)
                .unwrap()
        };
        assert!(mean("utilization=0.8") > mean("utilization=0.2"));
    }
}

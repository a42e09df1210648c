//! Crash-consistent checkpoints for long simulations.
//!
//! BigHouse runs "only as long as needed" (§2.3), but tight accuracy
//! targets can still mean hours of wall clock — and a killed process used
//! to throw every accumulated sample away. This module snapshots the full
//! resumable state of a run at **epoch boundaries** (points where the event
//! calendar has been drained into summary statistics, so no in-flight
//! calendar state needs serializing) and restores it bit-identically.
//!
//! A snapshot file is one sealed message (`crate::envelope`: magic and
//! format version, payload length, FNV-1a checksum, JSON payload), the
//! same bytes a slave process sends its master. Writes are atomic (write
//! to temp file, fsync, rename) and the previous snapshot is kept as a
//! fallback, so a crash at *any* point — including mid-checkpoint — leaves
//! at least one loadable snapshot.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use bighouse_des::hash::fnv1a;
use bighouse_des::SeedStream;
use bighouse_json::{FromJson, ToJson};
use bighouse_stats::StatsCollection;

use crate::audit::AuditReport;
use crate::config::ExperimentConfig;
use crate::envelope;
use crate::error::SimError;
use crate::report::{ClusterSummary, FaultSummary};
use crate::resilience::{ClassDisposition, ResilienceSummary};

/// Where and how often to checkpoint a resumable run.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding the snapshot files (created if absent).
    pub dir: PathBuf,
    /// Snapshot every this-many epochs (the final state is always written).
    pub interval_epochs: u64,
}

impl CheckpointConfig {
    /// Checkpoints into `dir` at every epoch boundary.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            interval_epochs: 1,
        }
    }

    /// Sets the snapshot interval in epochs.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero.
    #[must_use]
    pub fn with_interval(mut self, epochs: u64) -> Self {
        assert!(epochs > 0, "checkpoint interval must be at least 1 epoch");
        self.interval_epochs = epochs;
        self
    }
}

/// The fault section of [`RunTotals`]: exact counts, and the failed-server
/// fraction as a time integral like the other weights.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct FaultTotals {
    /// Server failure events injected.
    pub server_failures: u64,
    /// Requests admitted to the cluster.
    pub admitted: u64,
    /// Requests dropped after exhausting the retry budget.
    pub timed_out: u64,
    /// Requests completed within their timeout budget.
    pub goodput: u64,
    /// Retry dispatches performed.
    pub retries: u64,
    /// Job executions preempted by a server failure.
    pub preempted_jobs: u64,
    /// Requests in flight at an epoch boundary (dropped with the epoch's
    /// calendar; counted so the disposition invariant still balances).
    pub in_flight_dropped: u64,
    /// Integral of the failed-server fraction over simulated time.
    pub failed_weight: f64,
}

bighouse_json::json_struct!(FaultTotals {
    server_failures,
    admitted,
    timed_out,
    goodput,
    retries,
    preempted_jobs,
    in_flight_dropped,
    failed_weight,
});

/// Cluster-level facts of a run: what one epoch reports
/// ([`ClusterSim::totals`](crate::ClusterSim::totals)), and what a run's
/// epochs and a parallel run's slaves pool with [`RunTotals::merge`].
///
/// Time-*fractions* (idle, napping, utilization, failed) are held as
/// `fraction × seconds` weights, so parts of different lengths pool by
/// plain addition; [`RunTotals::summary`] divides them back out.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunTotals {
    /// Simulated seconds covered.
    pub simulated_seconds: f64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Total energy consumed in joules.
    pub energy_joules: f64,
    /// Integral of the full-system-idle fraction over simulated time.
    pub idle_weight: f64,
    /// Integral of the napping fraction over simulated time.
    pub nap_weight: f64,
    /// Integral of utilization over simulated time.
    pub utilization_weight: f64,
    /// Fault bookkeeping (`None` when fault injection is off).
    pub faults: Option<FaultTotals>,
    /// Resilience bookkeeping: pure counts, so parts add directly (`None`
    /// when resilience is off).
    pub resilience: Option<ResilienceSummary>,
}

bighouse_json::json_struct!(RunTotals {
    simulated_seconds,
    jobs_completed,
    energy_joules,
    idle_weight,
    nap_weight,
    utilization_weight,
    faults,
    resilience,
});

impl RunTotals {
    /// Folds another part (a later epoch, a slave's run) into the totals:
    /// weights, seconds, energy and counts add, per-class dispositions
    /// element-wise.
    pub fn merge(&mut self, other: &RunTotals) {
        self.simulated_seconds += other.simulated_seconds;
        self.jobs_completed += other.jobs_completed;
        self.energy_joules += other.energy_joules;
        self.idle_weight += other.idle_weight;
        self.nap_weight += other.nap_weight;
        self.utilization_weight += other.utilization_weight;
        if let Some(f) = &other.faults {
            let totals = self.faults.get_or_insert_with(FaultTotals::default);
            totals.server_failures += f.server_failures;
            totals.admitted += f.admitted;
            totals.goodput += f.goodput;
            totals.timed_out += f.timed_out;
            totals.retries += f.retries;
            totals.preempted_jobs += f.preempted_jobs;
            totals.in_flight_dropped += f.in_flight_dropped;
            totals.failed_weight += f.failed_weight;
        }
        if let Some(r) = &other.resilience {
            let totals = self
                .resilience
                .get_or_insert_with(ResilienceSummary::default);
            totals.offered += r.offered;
            totals.admitted += r.admitted;
            totals.shed += r.shed;
            totals.goodput += r.goodput;
            totals.timed_out += r.timed_out;
            totals.in_flight_at_end += r.in_flight_at_end;
            totals.hedges_launched += r.hedges_launched;
            totals.hedge_wins += r.hedge_wins;
            totals.hedge_cancelled += r.hedge_cancelled;
            totals.slo_met += r.slo_met;
            if totals.per_class.len() < r.per_class.len() {
                totals
                    .per_class
                    .resize(r.per_class.len(), ClassDisposition::default());
            }
            for (acc, c) in totals.per_class.iter_mut().zip(&r.per_class) {
                acc.offered += c.offered;
                acc.shed += c.shed;
                acc.goodput += c.goodput;
                acc.slo_met += c.slo_met;
            }
        }
    }

    /// The report's view of the totals: every weight divided by the
    /// seconds it covers.
    #[must_use]
    pub fn summary(&self, servers: usize) -> ClusterSummary {
        let t = self.simulated_seconds;
        let frac = |weight: f64| if t > 0.0 { weight / t } else { 0.0 };
        ClusterSummary {
            servers,
            jobs_completed: self.jobs_completed,
            mean_full_idle_fraction: frac(self.idle_weight),
            mean_nap_fraction: frac(self.nap_weight),
            mean_utilization: frac(self.utilization_weight),
            total_energy_joules: self.energy_joules,
            average_power_watts: frac(self.energy_joules),
            faults: self.faults.as_ref().map(|f| FaultSummary {
                server_failures: f.server_failures,
                admitted: f.admitted,
                goodput: f.goodput,
                timed_out: f.timed_out,
                retries: f.retries,
                preempted_jobs: f.preempted_jobs,
                in_flight_at_end: f.in_flight_dropped,
                mean_failed_fraction: frac(f.failed_weight),
            }),
            resilience: self.resilience.clone(),
        }
    }
}

/// The complete resumable state of an epoch-structured run.
///
/// Deliberately calendar-free: a snapshot is only taken *between* epochs,
/// when every in-flight event has been folded into `stats` and `totals`,
/// so restoring is "rebuild a fresh simulation, hand it these
/// accumulators, draw the next seed".
#[derive(Debug, Clone)]
pub(crate) struct RunState {
    /// Master seed of the run (resume must match it).
    pub master_seed: u64,
    /// Fingerprint of the experiment configuration + seed; a mismatch on
    /// resume means the checkpoint belongs to a different experiment.
    pub config_fingerprint: u64,
    /// Next epoch index to simulate.
    pub next_epoch: u64,
    /// Events dispatched across all completed epochs.
    pub events_done: u64,
    /// Wall-clock seconds consumed before this snapshot (resumed runs keep
    /// accumulating so the report reflects total effort).
    pub wall_seconds: f64,
    /// Position in the per-epoch seed stream.
    pub seeds: SeedStream,
    /// Statistics carried across epochs (`None` before the first epoch).
    pub stats: Option<StatsCollection>,
    /// Time-weighted cluster totals.
    pub totals: RunTotals,
    /// Merged audit findings across completed epochs (`None` when paranoid
    /// mode is off; absent in checkpoints written before auditing existed).
    pub audit: Option<AuditReport>,
}

bighouse_json::json_struct!(RunState {
    master_seed,
    config_fingerprint,
    next_epoch,
    events_done,
    wall_seconds,
    seeds,
    stats,
    totals,
    audit,
});

impl RunState {
    /// The state of a run that has not simulated anything yet.
    #[must_use]
    pub(crate) fn fresh(master_seed: u64, config_fingerprint: u64) -> Self {
        RunState {
            master_seed,
            config_fingerprint,
            next_epoch: 0,
            events_done: 0,
            wall_seconds: 0.0,
            seeds: SeedStream::new(master_seed),
            stats: None,
            totals: RunTotals::default(),
            audit: None,
        }
    }

    /// Whether every metric in the carried statistics has converged.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.stats
            .as_ref()
            .is_some_and(StatsCollection::all_converged)
    }

    /// Whether a completed epoch's audit found a violation: the run must
    /// stop, and nothing it estimated counts as converged.
    pub(crate) fn audit_failed(&self) -> bool {
        self.audit.as_ref().is_some_and(|a| !a.passed())
    }
}

/// Atomic, checksummed, rotating checkpoint storage in one directory.
///
/// Layout (for the default stem): `bighouse.ckpt` (current),
/// `bighouse.ckpt.prev` (previous good snapshot), `bighouse.ckpt.tmp`
/// (in-progress write, never loaded). The sweep orchestrator reuses the
/// same machinery under the `bighouse.sweep` stem, so a single directory
/// can hold both a run checkpoint and a sweep ledger without collision.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointStore {
    dir: PathBuf,
    stem: &'static str,
    /// Test hook: pretend the disk filled after this many payload bytes.
    fail_write_after: Option<usize>,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, SimError> {
        Self::with_stem(dir, "bighouse.ckpt")
    }

    /// Opens a store whose files are named `<stem>`, `<stem>.prev`,
    /// `<stem>.tmp` — used by the sweep ledger to share a directory with
    /// run checkpoints.
    pub(crate) fn with_stem(dir: impl Into<PathBuf>, stem: &'static str) -> Result<Self, SimError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| {
            SimError::Checkpoint(format!(
                "cannot create checkpoint directory {}: {e}",
                dir.display()
            ))
        })?;
        Ok(CheckpointStore {
            dir,
            stem,
            fail_write_after: None,
        })
    }

    /// Test hook: makes every subsequent [`save`](Self::save) fail with an
    /// injected out-of-space error after `bytes` bytes have been written —
    /// a deterministic stand-in for ENOSPC / short writes.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_failing_writes_after(mut self, bytes: usize) -> Self {
        self.fail_write_after = Some(bytes);
        self
    }

    /// Path of the current snapshot.
    #[must_use]
    pub(crate) fn current_path(&self) -> PathBuf {
        self.dir.join(self.stem)
    }

    /// Path of the previous (fallback) snapshot.
    #[must_use]
    pub(crate) fn previous_path(&self) -> PathBuf {
        self.dir.join(format!("{}.prev", self.stem))
    }

    /// Writes a snapshot crash-consistently.
    ///
    /// Protocol: serialize → write to `bighouse.ckpt.tmp` → fsync →
    /// rotate `current` to `.prev` → rename tmp over `current` → fsync the
    /// directory. A crash before the first rename leaves the old current
    /// intact; a crash between the renames leaves `.prev` loadable.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] — naming the offending path — on any
    /// filesystem failure. A failed write never leaves the in-progress
    /// `.tmp` file behind: it is garbage by construction, and a later
    /// recovery scan must not mistake it for salvageable state.
    pub fn save<T: ToJson>(&self, state: &T) -> Result<(), SimError> {
        let bytes = envelope::seal(state);

        let tmp = self.dir.join(format!("{}.tmp", self.stem));
        let current = self.current_path();
        let io_err = |op: &'static str, path: &Path, e: &std::io::Error| SimError::Io {
            op,
            path: path.display().to_string(),
            cause: e.to_string(),
        };
        let write_tmp = || -> Result<(), SimError> {
            let mut file = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, &e))?;
            if let Some(limit) = self.fail_write_after {
                // Injected ENOSPC: land a short write, then fail exactly
                // as a full disk would.
                let limit = limit.min(bytes.len());
                file.write_all(&bytes[..limit])
                    .map_err(|e| io_err("write", &tmp, &e))?;
                let full = std::io::Error::new(
                    std::io::ErrorKind::StorageFull,
                    "injected: no space left on device",
                );
                return Err(io_err("write", &tmp, &full));
            }
            file.write_all(&bytes)
                .map_err(|e| io_err("write", &tmp, &e))?;
            file.sync_all().map_err(|e| io_err("fsync", &tmp, &e))?;
            Ok(())
        };
        if let Err(e) = write_tmp() {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        if current.exists() {
            fs::rename(&current, self.previous_path()).map_err(|e| {
                let _ = fs::remove_file(&tmp);
                io_err("rotate", &current, &e)
            })?;
        }
        fs::rename(&tmp, &current).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            io_err("publish", &tmp, &e)
        })?;
        // Persist the renames themselves on platforms where directories
        // can be fsynced; without this a power loss can undo the rename.
        #[cfg(unix)]
        if let Ok(dir) = fs::File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    /// Loads the most recent good snapshot.
    ///
    /// Tries the current file first; on corruption (bad magic, truncated,
    /// checksum mismatch, malformed JSON) falls back to the previous
    /// snapshot. Returns `Ok(None)` when no snapshot exists at all.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] only when snapshots exist but
    /// *none* of them is loadable — silent restarts from scratch would
    /// discard data the operator believes is safe.
    pub fn load<T: FromJson>(&self) -> Result<Option<T>, SimError> {
        let mut first_error = None;
        for path in [self.current_path(), self.previous_path()] {
            let error = match fs::read(&path) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => SimError::Io {
                    op: "read",
                    path: path.display().to_string(),
                    cause: e.to_string(),
                },
                Ok(bytes) => match envelope::open(&bytes) {
                    Ok(state) => return Ok(Some(state)),
                    Err(why) => SimError::Checkpoint(format!(
                        "corrupt checkpoint {}: {why}",
                        path.display()
                    )),
                },
            };
            first_error.get_or_insert(error);
        }
        first_error.map_or(Ok(None), Err)
    }
}

/// Fingerprint of an experiment configuration + master seed.
///
/// Hashes the config's compact JSON: any observable difference in the
/// experiment (workload, fleet size, metric set, accuracy targets, fault
/// process, …) changes the fingerprint, so a resume against a checkpoint
/// from a *different* experiment is rejected instead of silently merging
/// incompatible statistics. The JSON is the same bytes a config file
/// reads back from: a key an older build wrote and this one ignores
/// cannot move it, and neither can a new field that is left out of the
/// output while it holds its default (as `tiers` is when empty).
///
/// The audit and telemetry configurations are deliberately excluded: both
/// are purely observational (bit-identical estimates), so toggling them
/// must not invalidate an existing checkpoint — a run started plain can
/// resume audited or instrumented.
#[must_use]
pub(crate) fn config_fingerprint(config: &ExperimentConfig, master_seed: u64) -> u64 {
    let mut config = config.clone();
    config.audit = None;
    config.telemetry = false;
    let mut rendered = bighouse_json::to_string(&config);
    rendered.push_str(&format!("|seed={master_seed}"));
    fnv1a(rendered.as_bytes())
}

/// A run a few epochs in with two metrics' statistics: what a snapshot or
/// a slave's frame carries.
#[cfg(test)]
pub(crate) fn sample_state() -> RunState {
    let mut state = RunState::fresh(42, 777);
    state.next_epoch = 3;
    state.events_done = 1_234_567;
    state.wall_seconds = 12.5;
    state.seeds.next_seed();
    state.seeds.next_seed();
    state.totals.simulated_seconds = 99.25;
    state.totals.jobs_completed = 4_000;
    let mut stats = StatsCollection::new();
    let ids = ["response_time", "waiting_time"]
        .map(|name| stats.add_metric(bighouse_stats::MetricSpec::new(name).with_warmup(5)));
    for i in 0..200 {
        stats.record(ids[i % 2], 1.0 + f64::from(i as u32 % 7));
    }
    state.stats = Some(stats);
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use bighouse_workloads::{StandardWorkload, Workload};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bighouse-ckpt-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn json(state: &RunState) -> String {
        bighouse_json::to_string(state)
    }

    #[test]
    fn save_load_round_trip() {
        let dir = temp_dir("round-trip");
        let store = CheckpointStore::new(&dir).unwrap();
        assert_eq!(store.load().unwrap().map(|s| json(&s)), None);
        let state = sample_state();
        store.save(&state).unwrap();
        let loaded = store.load().unwrap().expect("snapshot present");
        assert_eq!(json(&state), json(&loaded));
        // The seed stream resumes where it left off, not at the start.
        let mut a = state.seeds.clone();
        let mut b = loaded.seeds.clone();
        assert_eq!(a.next_seed(), b.next_seed());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_keeps_previous_snapshot_as_fallback() {
        let dir = temp_dir("rotation");
        let store = CheckpointStore::new(&dir).unwrap();
        let first = sample_state();
        store.save(&first).unwrap();
        let mut second = sample_state();
        second.next_epoch = 9;
        store.save(&second).unwrap();
        assert!(store.previous_path().exists());
        // Corrupt the current snapshot: load falls back to the previous.
        fs::write(store.current_path(), b"garbage").unwrap();
        let loaded = store.load().unwrap().expect("fallback present");
        assert_eq!(json(&loaded), json(&first));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_everything_is_an_error_not_a_silent_restart() {
        let dir = temp_dir("corrupt-all");
        let store = CheckpointStore::new(&dir).unwrap();
        store.save(&sample_state()).unwrap();
        store.save(&sample_state()).unwrap();
        fs::write(store.current_path(), b"garbage").unwrap();
        fs::write(store.previous_path(), b"more garbage").unwrap();
        assert!(matches!(
            store.load::<RunState>(),
            Err(SimError::Checkpoint(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_checkpoint_payloads_never_panic() {
        crate::envelope::check_hostile_payloads(
            "hostile_checkpoint_payloads_never_panic",
            "hostile.ckpt",
            &sample_state(),
        );
    }

    /// A foreign file, and a snapshot an older build wrote at format
    /// version 4, are refused by their magic with a typed error naming the
    /// file.
    #[test]
    fn bad_magic_is_rejected() {
        let dir = temp_dir("magic");
        let store = CheckpointStore::new(&dir).unwrap();
        store.save(&sample_state()).unwrap();
        let sealed = fs::read(store.current_path()).unwrap();
        for (at, byte, why) in [(0, b'X', "bad magic"), (7, 4, "format version 4")] {
            let mut bytes = sealed.clone();
            bytes[at] = byte;
            fs::write(store.current_path(), &bytes).unwrap();
            match store.load::<RunState>() {
                Err(SimError::Checkpoint(msg)) => {
                    assert!(msg.contains(why), "got: {msg}");
                    assert!(msg.contains("bighouse.ckpt"), "got: {msg}");
                }
                other => panic!("not refused: {:?}", other.map(|_| ())),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_writer_surfaces_typed_io_error_and_cleans_tmp() {
        let dir = temp_dir("enospc");
        let store = CheckpointStore::new(&dir).unwrap();
        let state = sample_state();
        store.save(&state).unwrap();

        // Disk "fills" ten bytes into the next snapshot.
        let failing = store.clone().with_failing_writes_after(10);
        let err = failing.save(&state).unwrap_err();
        match &err {
            SimError::Io { op, path, cause } => {
                assert_eq!(*op, "write");
                assert!(path.contains("bighouse.ckpt.tmp"), "path: {path}");
                assert!(cause.contains("no space left"), "cause: {cause}");
            }
            other => panic!("expected SimError::Io, got {other:?}"),
        }
        // The orphaned tmp file is cleaned up, and the previous good
        // snapshot is untouched and still loadable.
        assert!(!dir.join("bighouse.ckpt.tmp").exists());
        let loaded = store.load().unwrap().expect("old snapshot intact");
        assert_eq!(json(&state), json(&loaded));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_tmp_is_a_create_error() {
        let dir = temp_dir("create-fail");
        let store = CheckpointStore::new(&dir).unwrap();
        // A directory squatting on the tmp path makes File::create fail.
        fs::create_dir_all(dir.join("bighouse.ckpt.tmp")).unwrap();
        let err = store.save(&sample_state()).unwrap_err();
        assert!(
            matches!(&err, SimError::Io { op, .. } if *op == "create"),
            "got: {err:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stems_partition_the_directory() {
        let dir = temp_dir("stems");
        let run_store = CheckpointStore::new(&dir).unwrap();
        let sweep_store = CheckpointStore::with_stem(&dir, "bighouse.sweep").unwrap();
        run_store.save(&sample_state()).unwrap();
        // The sweep stem sees nothing: different namespace, same dir.
        assert_eq!(sweep_store.load::<RunState>().unwrap().map(|_| ()), None);
        assert_ne!(run_store.current_path(), sweep_store.current_path());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_distinguishes_configs_and_seeds() {
        let a = ExperimentConfig::new(Workload::standard(StandardWorkload::Web));
        let b = a.clone().with_servers(16);
        assert_ne!(config_fingerprint(&a, 1), config_fingerprint(&b, 1));
        assert_ne!(config_fingerprint(&a, 1), config_fingerprint(&a, 2));
        assert_eq!(config_fingerprint(&a, 1), config_fingerprint(&a, 1));
    }

    #[test]
    fn fingerprint_distinguishes_fault_processes() {
        use bighouse_faults::FaultProcess;
        // Every process prints its parameters, unequal shapes included, so
        // its JSON alone tells means and shapes apart.
        let base = ExperimentConfig::new(Workload::standard(StandardWorkload::Web));
        let short = FaultProcess::weibull(0.7, 500.0, 2.0, 20.0).unwrap();
        let long = FaultProcess::weibull(0.7, 5000.0, 2.0, 200.0).unwrap();
        let reshaped = FaultProcess::weibull(0.7, 500.0, 3.0, 20.0).unwrap();
        let a = base.clone().with_faults(short);
        for other in [long, reshaped] {
            let b = base.clone().with_faults(other);
            assert_ne!(config_fingerprint(&a, 1), config_fingerprint(&b, 1));
        }
        assert_eq!(
            config_fingerprint(&a, 1),
            config_fingerprint(&base.with_faults(short), 1)
        );
    }

    #[test]
    fn fingerprint_ignores_audit_toggle() {
        // Paranoid mode is observational; switching it on must still
        // accept a checkpoint written with it off (and vice versa).
        let plain = ExperimentConfig::new(Workload::standard(StandardWorkload::Web));
        let audited = plain
            .clone()
            .with_audit(crate::audit::AuditConfig::default());
        assert_eq!(
            config_fingerprint(&plain, 1),
            config_fingerprint(&audited, 1)
        );
    }

    /// A config's fingerprint is pinned: it moves only when the config's
    /// JSON does, which is what invalidates older checkpoints and ledgers.
    #[test]
    fn fingerprint_is_pinned() {
        let config = ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
            .with_servers(4)
            .with_target_accuracy(0.1);
        assert_eq!(
            config_fingerprint(&config, 2012),
            16_617_921_997_861_025_278
        );
    }

    #[test]
    fn fingerprint_ignores_retired_keys_and_omitted_defaults() {
        let config = ExperimentConfig::new(Workload::standard(StandardWorkload::Web));
        let json = bighouse_json::to_string(&config);
        // An empty `tiers` is left out, so configs from before tiers
        // existed fingerprint as they print.
        assert!(!json.contains("\"tiers\""));
        let legacy = json.replacen('{', r#"{"fastpath":"Off","#, 1);
        let plain: ExperimentConfig = bighouse_json::from_str(&json).unwrap();
        let old: ExperimentConfig = bighouse_json::from_str(&legacy).unwrap();
        assert_eq!(
            config_fingerprint(&plain, 2012),
            config_fingerprint(&config, 2012)
        );
        assert_eq!(
            config_fingerprint(&old, 2012),
            config_fingerprint(&config, 2012)
        );
    }

    #[test]
    fn legacy_state_without_audit_field_parses() {
        let state = sample_state();
        let rendered = json(&state).replace(",\"audit\":null", "");
        assert!(
            !rendered.contains("\"audit\""),
            "field must be stripped for the test"
        );
        let back: RunState = bighouse_json::from_str(&rendered).unwrap();
        assert_eq!(back.audit, None);
        assert_eq!(back.events_done, state.events_done);
    }

    #[test]
    fn totals_average_time_weighted_fractions() {
        let mut totals = RunTotals::default();
        let epoch = |seconds: f64, idle: f64, util: f64, jobs: u64| RunTotals {
            simulated_seconds: seconds,
            jobs_completed: jobs,
            energy_joules: 10.0,
            idle_weight: idle * seconds,
            utilization_weight: util * seconds,
            ..RunTotals::default()
        };
        // A 10-second epoch at 0.8 idle and a 30-second epoch at 0.4 idle
        // must average to 0.5, not the unweighted 0.6.
        totals.merge(&epoch(10.0, 0.8, 0.2, 100));
        totals.merge(&epoch(30.0, 0.4, 0.6, 300));
        let summary = totals.summary(2);
        assert_eq!(summary.servers, 2);
        assert_eq!(summary.jobs_completed, 400);
        assert!((summary.mean_full_idle_fraction - 0.5).abs() < 1e-12);
        assert!((summary.mean_utilization - 0.5).abs() < 1e-12);
        assert!((summary.total_energy_joules - 20.0).abs() < 1e-12);
        assert!((summary.average_power_watts - 0.5).abs() < 1e-12);
    }

    /// One epoch's (or one slave's) totals: fractions of random seconds as
    /// weights, and a fault and a resilience section half the time each.
    fn random_totals(g: &mut bighouse_des::check::Gen) -> RunTotals {
        let seconds = g.range(0.5..100.0);
        let count = |g: &mut bighouse_des::check::Gen| g.range(0..1_000u64);
        RunTotals {
            simulated_seconds: seconds,
            jobs_completed: count(g),
            energy_joules: g.range(0.0..1e4),
            idle_weight: g.range(0.0..1.0) * seconds,
            nap_weight: g.range(0.0..1.0) * seconds,
            utilization_weight: g.range(0.0..1.0) * seconds,
            faults: g.option(|g| FaultTotals {
                server_failures: count(g),
                admitted: count(g),
                timed_out: count(g),
                goodput: count(g),
                retries: count(g),
                preempted_jobs: count(g),
                in_flight_dropped: count(g),
                failed_weight: g.range(0.0..1.0) * seconds,
            }),
            resilience: g.option(|g| ResilienceSummary {
                offered: count(g),
                admitted: count(g),
                shed: count(g),
                goodput: count(g),
                timed_out: count(g),
                in_flight_at_end: count(g),
                hedges_launched: count(g),
                hedge_wins: count(g),
                hedge_cancelled: count(g),
                slo_met: count(g),
                per_class: g.vec(0..4, |g| ClassDisposition {
                    offered: count(g),
                    shed: count(g),
                    goodput: count(g),
                    slo_met: count(g),
                }),
            }),
        }
    }

    #[test]
    fn merge_is_one_order_free_fold() {
        bighouse_des::check::check("merge_is_one_order_free_fold", 256, |g| {
            let parts = g.vec(1..6, random_totals);
            let fold = |parts: &[&RunTotals]| {
                let mut acc = RunTotals::default();
                for part in parts {
                    acc.merge(part);
                }
                acc
            };
            let in_order = fold(&parts.iter().collect::<Vec<_>>());

            // Any order, any grouping: a shuffle cut in two, each side
            // folded on its own first. Every integer field is equal.
            let mut shuffled: Vec<&RunTotals> = parts.iter().collect();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, g.range(0..i + 1));
            }
            let cut = g.range(0..shuffled.len() + 1);
            let mut regrouped = fold(&shuffled[cut..]);
            regrouped.merge(&fold(&shuffled[..cut]));
            let counts = |t: &RunTotals| {
                let faults = t.faults.map(|f| FaultTotals {
                    failed_weight: 0.0,
                    ..f
                });
                (t.jobs_completed, faults, t.resilience.clone())
            };
            assert_eq!(counts(&in_order), counts(&regrouped));

            // The fold's fractions are the seconds-weighted mean of the
            // parts' fractions.
            let total: f64 = parts.iter().map(|p| p.simulated_seconds).sum();
            let fractions = |t: &RunTotals| {
                let s = t.summary(4);
                [
                    s.mean_full_idle_fraction,
                    s.mean_nap_fraction,
                    s.mean_utilization,
                    s.average_power_watts,
                    s.faults.map_or(0.0, |f| f.mean_failed_fraction),
                ]
            };
            let mut expected = [0.0; 5];
            for part in &parts {
                for (e, f) in expected.iter_mut().zip(fractions(part)) {
                    *e += f * part.simulated_seconds / total;
                }
            }
            for (got, want) in fractions(&in_order).into_iter().zip(expected) {
                assert!(
                    (got - want).abs() <= 1e-12 * got.abs().max(want.abs()),
                    "{got} vs {want}"
                );
            }

            // The empty totals are the identity, on either side of every
            // part and of the fold.
            for part in parts.iter().chain([&in_order]) {
                let mut right = part.clone();
                right.merge(&RunTotals::default());
                let mut left = RunTotals::default();
                left.merge(part);
                for merged in [right, left] {
                    assert_eq!(format!("{merged:?}"), format!("{part:?}"));
                }
            }
        });
    }

    #[test]
    fn empty_totals_summary_is_all_zero() {
        let summary = RunTotals::default().summary(4);
        assert_eq!(summary.servers, 4);
        assert_eq!(summary.mean_utilization, 0.0);
        assert_eq!(summary.average_power_watts, 0.0);
        assert!(summary.faults.is_none());
    }
}

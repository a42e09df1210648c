//! Crash-consistent checkpoints for long simulations.
//!
//! BigHouse runs "only as long as needed" (§2.3), but tight accuracy
//! targets can still mean hours of wall clock — and a killed process used
//! to throw every accumulated sample away. This module snapshots the full
//! resumable state of a run at **epoch boundaries** (points where the event
//! calendar has been drained into summary statistics, so no in-flight
//! calendar state needs serializing) and restores it bit-identically.
//!
//! The on-disk format is defensive: an 8-byte magic + format-version
//! header, the payload length, and an FNV-1a checksum, followed by a JSON
//! payload. Writes are atomic (write to temp file, fsync, rename) and the
//! previous snapshot is kept as a fallback, so a crash at *any* point —
//! including mid-checkpoint — leaves at least one loadable snapshot.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use bighouse_des::SeedStream;
use bighouse_stats::StatsCollection;

use crate::audit::AuditReport;
use crate::config::ExperimentConfig;
use crate::error::SimError;
use crate::report::{ClusterSummary, FaultSummary};
use crate::resilience::{ClassDisposition, ResilienceSummary};

/// File magic + format version: `BHCKPT` then a NUL and the version byte.
/// Bump the final byte on any incompatible payload change.
const MAGIC: &[u8; 8] = b"BHCKPT\x00\x01";
/// Magic (8) + payload length (8, LE) + FNV-1a checksum (8, LE).
const HEADER_LEN: usize = 24;

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

/// Exact totals a resumable run accumulates across epochs for the fault
/// section of the final [`ClusterSummary`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultTotals {
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

/// Exact totals a resumable run accumulates across epochs for the
/// resilience section of the final [`ClusterSummary`]. Pure counts, so
/// epochs add directly.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResilienceTotals {
    /// Arrivals offered to the cluster.
    pub offered: u64,
    /// Arrivals admitted past admission control and shedding.
    pub admitted: u64,
    /// Arrivals shed at the front door.
    pub shed: u64,
    /// Admitted requests that completed.
    pub goodput: u64,
    /// Admitted requests dropped after exhausting retries.
    pub timed_out: u64,
    /// Requests in flight at an epoch boundary (dropped with the epoch's
    /// calendar; counted so the disposition invariant still balances).
    pub in_flight_dropped: u64,
    /// Hedge duplicates launched.
    pub hedges_launched: u64,
    /// Requests whose hedge finished first.
    pub hedge_wins: u64,
    /// Losing duplicates cancelled mid-service.
    pub hedge_cancelled: u64,
    /// Goodput completions within the SLO deadline.
    pub slo_met: u64,
    /// Per-class dispositions (empty for a single class).
    pub per_class: Vec<ClassDisposition>,
}

/// Time-weighted cluster totals accumulated across epochs.
///
/// Each epoch reports time-*fractions* (idle, napping, utilization); the
/// totals store `fraction × epoch_seconds` so epochs of different lengths
/// average correctly in the final summary.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunTotals {
    /// Total simulated seconds across all completed epochs.
    pub simulated_seconds: f64,
    /// Jobs completed across all epochs.
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
    /// Resilience bookkeeping (`None` when resilience is off; absent in
    /// checkpoints written before the subsystem existed).
    #[serde(default)]
    pub resilience: Option<ResilienceTotals>,
}

impl RunTotals {
    /// Folds one finished epoch's summary into the totals.
    pub fn absorb(&mut self, summary: &ClusterSummary, seconds: f64) {
        self.simulated_seconds += seconds;
        self.jobs_completed += summary.jobs_completed;
        self.energy_joules += summary.total_energy_joules;
        self.idle_weight += summary.mean_full_idle_fraction * seconds;
        self.nap_weight += summary.mean_nap_fraction * seconds;
        self.utilization_weight += summary.mean_utilization * seconds;
        if let Some(f) = &summary.faults {
            let totals = self.faults.get_or_insert_with(FaultTotals::default);
            totals.server_failures += f.server_failures;
            totals.admitted += f.admitted;
            totals.goodput += f.goodput;
            totals.timed_out += f.timed_out;
            totals.retries += f.retries;
            totals.preempted_jobs += f.preempted_jobs;
            totals.in_flight_dropped += f.in_flight_at_end;
            totals.failed_weight += f.mean_failed_fraction * seconds;
        }
        if let Some(r) = &summary.resilience {
            let totals = self
                .resilience
                .get_or_insert_with(ResilienceTotals::default);
            totals.offered += r.offered;
            totals.admitted += r.admitted;
            totals.shed += r.shed;
            totals.goodput += r.goodput;
            totals.timed_out += r.timed_out;
            totals.in_flight_dropped += r.in_flight_at_end;
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

    /// Collapses the totals into a [`ClusterSummary`] for the final report.
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
            resilience: self.resilience.as_ref().map(|r| ResilienceSummary {
                offered: r.offered,
                admitted: r.admitted,
                shed: r.shed,
                goodput: r.goodput,
                timed_out: r.timed_out,
                in_flight_at_end: r.in_flight_dropped,
                hedges_launched: r.hedges_launched,
                hedge_wins: r.hedge_wins,
                hedge_cancelled: r.hedge_cancelled,
                slo_met: r.slo_met,
                per_class: r.per_class.clone(),
            }),
        }
    }
}

/// The complete resumable state of an epoch-structured run.
///
/// Deliberately calendar-free: a snapshot is only taken *between* epochs,
/// when every in-flight event has been folded into `stats` and `totals`,
/// so restoring is "rebuild a fresh simulation, hand it these
/// accumulators, draw the next seed".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunState {
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
    #[serde(default)]
    pub audit: Option<AuditReport>,
}

impl RunState {
    /// The state of a run that has not simulated anything yet.
    #[must_use]
    pub fn fresh(master_seed: u64, config_fingerprint: u64) -> Self {
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
pub struct CheckpointStore {
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
    #[doc(hidden)]
    #[must_use]
    pub fn with_failing_writes_after(mut self, bytes: usize) -> Self {
        self.fail_write_after = Some(bytes);
        self
    }

    /// Path of the current snapshot.
    #[must_use]
    pub fn current_path(&self) -> PathBuf {
        self.dir.join(self.stem)
    }

    /// Path of the previous (fallback) snapshot.
    #[must_use]
    pub fn previous_path(&self) -> PathBuf {
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
    /// Returns [`SimError::Checkpoint`] on serialization failure and
    /// [`SimError::Io`] — naming the offending path — on any filesystem
    /// failure. A failed write never leaves the in-progress `.tmp` file
    /// behind: it is garbage by construction, and a later recovery scan
    /// must not mistake it for salvageable state.
    pub fn save(&self, state: &RunState) -> Result<(), SimError> {
        self.save_payload(state)
    }

    /// Generic form of [`save`](Self::save); the sweep ledger persists
    /// through this with the same framing, atomicity, and rotation.
    pub(crate) fn save_payload<T: Serialize>(&self, state: &T) -> Result<(), SimError> {
        let payload = serde_json::to_vec(state)
            .map_err(|e| SimError::Checkpoint(format!("cannot serialize run state: {e}")))?;
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);

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
    pub fn load(&self) -> Result<Option<RunState>, SimError> {
        self.load_payload()
    }

    /// Generic form of [`load`](Self::load) for non-`RunState` payloads
    /// (the sweep ledger).
    pub(crate) fn load_payload<T: DeserializeOwned>(&self) -> Result<Option<T>, SimError> {
        let mut first_error: Option<SimError> = None;
        let mut any_present = false;
        for path in [self.current_path(), self.previous_path()] {
            match Self::read_file(&path) {
                Ok(Some(state)) => return Ok(Some(state)),
                Ok(None) => {}
                Err(e) => {
                    any_present = true;
                    first_error.get_or_insert(e);
                }
            }
        }
        if any_present {
            Err(first_error.expect("an unreadable snapshot recorded an error"))
        } else {
            Ok(None)
        }
    }

    /// Reads and validates one snapshot file. `Ok(None)` means the file
    /// does not exist; `Err` means it exists but is corrupt or unreadable.
    fn read_file<T: DeserializeOwned>(path: &Path) -> Result<Option<T>, SimError> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(SimError::Io {
                    op: "read",
                    path: path.display().to_string(),
                    cause: e.to_string(),
                })
            }
        };
        let corrupt = |why: &str| {
            SimError::Checkpoint(format!("corrupt checkpoint {}: {why}", path.display()))
        };
        if bytes.len() < HEADER_LEN {
            return Err(corrupt("truncated header"));
        }
        if &bytes[..8] != MAGIC {
            return Err(corrupt("bad magic or unsupported format version"));
        }
        let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
        let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        let payload = &bytes[HEADER_LEN..];
        if payload.len() != len {
            return Err(corrupt("truncated payload"));
        }
        if fnv1a(payload) != checksum {
            return Err(corrupt("checksum mismatch"));
        }
        let state: T = serde_json::from_slice(payload)
            .map_err(|e| corrupt(&format!("malformed payload: {e}")))?;
        Ok(Some(state))
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free, and plenty for detecting torn or
/// bit-rotted snapshots (this is corruption *detection*, not security).
/// Also the hash behind [`config_fingerprint`] and the sweep orchestrator's
/// per-config seed derivation.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Fingerprint of an experiment configuration + master seed.
///
/// Hashes the config's `Debug` rendering: any observable difference in the
/// experiment (workload, fleet size, metric set, accuracy targets, fault
/// process, …) changes the fingerprint, so a resume against a checkpoint
/// from a *different* experiment is rejected instead of silently merging
/// incompatible statistics.
///
/// The audit and telemetry configurations are deliberately excluded: both
/// are purely observational (bit-identical estimates), so toggling them
/// must not invalidate an existing checkpoint — a run started plain can
/// resume audited or instrumented.
#[must_use]
pub fn config_fingerprint(config: &ExperimentConfig, master_seed: u64) -> u64 {
    let mut config = config.clone();
    config.audit = None;
    config.telemetry = false;
    let rendered = format!("{config:?}|seed={master_seed}");
    fnv1a(rendered.as_bytes())
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

    fn sample_state() -> RunState {
        let mut state = RunState::fresh(42, 777);
        state.next_epoch = 3;
        state.events_done = 1_234_567;
        state.wall_seconds = 12.5;
        state.seeds.next_seed();
        state.seeds.next_seed();
        state.totals.simulated_seconds = 99.25;
        state.totals.jobs_completed = 4_000;
        state
    }

    fn json(state: &RunState) -> String {
        serde_json::to_string(state).unwrap()
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
        assert!(matches!(store.load(), Err(SimError::Checkpoint(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_detects_payload_corruption() {
        let dir = temp_dir("checksum");
        let store = CheckpointStore::new(&dir).unwrap();
        store.save(&sample_state()).unwrap();
        // Flip one payload byte without touching the header.
        let mut bytes = fs::read(store.current_path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(store.current_path(), &bytes).unwrap();
        let err = store.load().unwrap_err();
        assert!(err.to_string().contains("checksum"), "got: {err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let dir = temp_dir("magic");
        let store = CheckpointStore::new(&dir).unwrap();
        store.save(&sample_state()).unwrap();
        let mut bytes = fs::read(store.current_path()).unwrap();
        bytes[0] = b'X';
        fs::write(store.current_path(), &bytes).unwrap();
        let err = store.load().unwrap_err();
        assert!(err.to_string().contains("magic"), "got: {err}");
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
        assert_eq!(
            sweep_store.load_payload::<RunState>().unwrap().map(|_| ()),
            None
        );
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

    #[test]
    fn legacy_state_without_audit_field_parses() {
        let state = sample_state();
        let rendered = json(&state).replace(",\"audit\":null", "");
        assert!(
            !rendered.contains("\"audit\""),
            "field must be stripped for the test"
        );
        let back: RunState = serde_json::from_str(&rendered).unwrap();
        assert_eq!(back.audit, None);
        assert_eq!(back.events_done, state.events_done);
    }

    #[test]
    fn totals_average_time_weighted_fractions() {
        let mut totals = RunTotals::default();
        let epoch = |idle: f64, util: f64, jobs: u64| ClusterSummary {
            servers: 2,
            jobs_completed: jobs,
            mean_full_idle_fraction: idle,
            mean_nap_fraction: 0.0,
            mean_utilization: util,
            total_energy_joules: 10.0,
            average_power_watts: 0.0,
            faults: None,
            resilience: None,
        };
        // A 10-second epoch at 0.8 idle and a 30-second epoch at 0.4 idle
        // must average to 0.5, not the unweighted 0.6.
        totals.absorb(&epoch(0.8, 0.2, 100), 10.0);
        totals.absorb(&epoch(0.4, 0.6, 300), 30.0);
        let summary = totals.summary(2);
        assert_eq!(summary.servers, 2);
        assert_eq!(summary.jobs_completed, 400);
        assert!((summary.mean_full_idle_fraction - 0.5).abs() < 1e-12);
        assert!((summary.mean_utilization - 0.5).abs() < 1e-12);
        assert!((summary.total_energy_joules - 20.0).abs() < 1e-12);
        assert!((summary.average_power_watts - 0.5).abs() < 1e-12);
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

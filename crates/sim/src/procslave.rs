//! Process-isolated slots: what the supervision fabric needs *because of a
//! process boundary*.
//!
//! BigHouse's deployment model (Figure 3) runs slaves as separate
//! processes on separate machines; the thread transport in
//! `crate::parallel` collapses that into one address space, where a
//! single slave abort, OOM kill, or segfault destroys the whole run. This
//! module restores the process boundary: slaves run as sandboxed child OS
//! processes (a re-exec of the current binary via the hidden
//! `bighouse __slave` entrypoint) speaking a length-prefixed,
//! FNV-1a-checksummed, versioned frame protocol over stdin/stdout.
//!
//! The protocol itself — the messages, the job a slot runs, the slave
//! session, chunk barriers and epoch checkpoints — lives in that module and
//! is the same on both transports, and so are the two masters that drive a
//! transport: the parallel runner's supervisor and [`crate::run_sweep`]'s
//! event loop, for which a child is one attempt of one config
//! ([`HelloJob::Solo`]). Here are the frame codec, the `ProcessTransport`
//! those masters drive when [`ExecBackend::Processes`] is chosen, the
//! child's half of the link with its self-enforced resource caps
//! ([`ProcLimits`]) and the child entry point ([`slave_main`]).
//!
//! # Frame format
//!
//! ```text
//! [u32 LE body_len][body = u8 version ++ JSON payload][u64 LE fnv1a(body)]
//! ```
//!
//! Corruption anywhere — truncation, a flipped bit, an oversized length, a
//! version skew — surfaces as [`SimError::Frame`], never a panic and never
//! a silently-accepted frame ([`read_frame`] / [`write_frame`] are public
//! precisely so the fuzz suite can attack them directly).

use std::io::{BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::sync::mpsc as channel;

use crate::checkpoint::fnv1a;
use crate::error::SimError;
use crate::parallel::{
    run_job, Happened, SlaveEvent, SlaveLink, Transport, WireCounters, REAP_GRACE,
};
pub use crate::parallel::{
    Directive, ExecBackend, FinalShard, HelloJob, ProcChaos, SharedCtx, SlaveState,
    SlaveTelemetryShard, SoloFault, UpFrame,
};

/// Protocol version stamped into every frame body; a master and a slave
/// from different builds refuse to talk rather than mis-merge. Version 2
/// moved the barrier from the epoch to the chunk; version 3 added the
/// spawn-time [`ProcChaos`] variants; version 4 made the checkpoint and the
/// final shard a [`crate::RunState`] (plus the barrier count and the
/// telemetry shard), which carries the slave's seed, and dropped the
/// hello's `slave_seed` and `winddown` and the heartbeat's `events`; version
/// 5 moved the slot and incarnation from the lockstep job to the hello and
/// out of every up-frame (the master's transport stamps what it reads, so a
/// solo job's report is fenced like any other frame), and made a solo job's
/// injected fault a [`SoloFault`].
pub const PROTOCOL_VERSION: u8 = 5;

/// Upper bound on a frame body. A corrupted length prefix must not make
/// the decoder allocate gigabytes before the checksum can reject it.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Environment variable set on every spawned slave child, so tests (and
/// operators) can find stragglers: no process carrying it may survive the
/// master.
pub const SLAVE_ENV_MARKER: &str = "BIGHOUSE_PROCSLAVE";

/// Slave child exit codes (sysexits where one fits). The CLI forwards
/// these verbatim, and the master's telemetry distinguishes them.
pub mod exit_code {
    /// Clean shutdown: final shard delivered (or master vanished).
    pub const OK: u8 = 0;
    /// EX_DATAERR: a frame on stdin was truncated, corrupt, or version-skewed.
    pub const FRAME: u8 = 65;
    /// EX_SOFTWARE: the simulation itself failed with a typed [`crate::SimError`].
    pub const SIM: u8 = 70;
    /// EX_TEMPFAIL: a cooperative memory/CPU cap was exceeded; the master
    /// may respawn the slave from its checkpoint.
    pub const RESOURCE: u8 = 75;
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// Serializes one frame to `w`: length prefix, version byte + JSON body,
/// FNV-1a checksum. Flushes so a frame is never left straddling a buffer.
///
/// # Errors
///
/// Returns [`SimError::Frame`] if the value will not encode, exceeds
/// [`MAX_FRAME_BYTES`], or the underlying write fails (a dead pipe).
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, frame: &T) -> Result<(), SimError> {
    let json = serde_json::to_vec(frame).map_err(|e| SimError::Frame {
        detail: format!("encode: {e}"),
    })?;
    let mut body = Vec::with_capacity(json.len() + 1);
    body.push(PROTOCOL_VERSION);
    body.extend_from_slice(&json);
    let len = u32::try_from(body.len()).unwrap_or(u32::MAX);
    if len > MAX_FRAME_BYTES {
        return Err(SimError::Frame {
            detail: format!("frame body of {len} bytes exceeds cap {MAX_FRAME_BYTES}"),
        });
    }
    let io_err = |e: std::io::Error| SimError::Frame {
        detail: format!("write: {e}"),
    };
    w.write_all(&len.to_le_bytes()).map_err(io_err)?;
    w.write_all(&body).map_err(io_err)?;
    w.write_all(&fnv1a(&body).to_le_bytes()).map_err(io_err)?;
    w.flush().map_err(io_err)
}

/// Reads `buf.len()` bytes; `Ok(false)` on clean EOF **before the first
/// byte**, [`SimError::Frame`] on EOF mid-buffer (a torn frame).
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<bool, SimError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(SimError::Frame {
                    detail: format!(
                        "truncated {what}: EOF after {filled} of {} bytes",
                        buf.len()
                    ),
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(SimError::Frame {
                    detail: format!("read {what}: {e}"),
                })
            }
        }
    }
    Ok(true)
}

/// Decodes the next frame from `r`. `Ok(None)` means the stream ended
/// cleanly **between** frames; every other irregularity — truncation,
/// checksum mismatch, version skew, oversized or zero length, undecodable
/// JSON — is a typed [`SimError::Frame`].
///
/// # Errors
///
/// Returns [`SimError::Frame`] as described above; never panics on
/// attacker-controlled bytes.
pub fn read_frame<R: Read, T: DeserializeOwned>(r: &mut R) -> Result<Option<T>, SimError> {
    let mut len_buf = [0u8; 4];
    if !read_exact_or_eof(r, &mut len_buf, "length prefix")? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(SimError::Frame {
            detail: format!("frame length {len} outside (0, {MAX_FRAME_BYTES}]"),
        });
    }
    let mut body = vec![0u8; len as usize];
    if !read_exact_or_eof(r, &mut body, "frame body")? {
        return Err(SimError::Frame {
            detail: format!("truncated frame body: EOF before {len} bytes"),
        });
    }
    let mut sum_buf = [0u8; 8];
    if !read_exact_or_eof(r, &mut sum_buf, "checksum")? {
        return Err(SimError::Frame {
            detail: "truncated frame: EOF before checksum".to_string(),
        });
    }
    let stored = u64::from_le_bytes(sum_buf);
    let computed = fnv1a(&body);
    if stored != computed {
        return Err(SimError::Frame {
            detail: format!("checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"),
        });
    }
    if body[0] != PROTOCOL_VERSION {
        return Err(SimError::Frame {
            detail: format!(
                "protocol version {} (this build speaks {PROTOCOL_VERSION})",
                body[0]
            ),
        });
    }
    serde_json::from_slice(&body[1..])
        .map(Some)
        .map_err(|e| SimError::Frame {
            detail: format!("decode: {e}"),
        })
}

// ---------------------------------------------------------------------------
// Down frames and child configuration (up frames: `crate::parallel`)
// ---------------------------------------------------------------------------

/// Caps a slave child enforces on itself at chunk boundaries (read from
/// `/proc/self`; a hard rlimit would need libc). Exceeding a cap exits
/// with [`exit_code::RESOURCE`], which the master treats as a crash —
/// bounded respawn, not a wedged run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ProcLimits {
    /// Maximum resident set size in bytes.
    pub max_rss_bytes: Option<u64>,
    /// Maximum user+system CPU time in seconds (USER_HZ = 100 assumed).
    pub max_cpu_seconds: Option<f64>,
}

impl ProcLimits {
    fn armed(&self) -> bool {
        self.max_rss_bytes.is_some() || self.max_cpu_seconds.is_some()
    }
}

/// Master → slave frames.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DownFrame {
    /// First frame on a child's stdin: identity, resource caps, and job.
    Hello {
        /// Slot index within the run.
        slave: usize,
        /// Incarnation (respawn generation) — echoed in every up-frame so
        /// the master can fence stragglers.
        incarnation: u32,
        /// Self-enforced resource caps.
        limits: ProcLimits,
        /// The work order (boxed: it dwarfs the other variants).
        job: Box<HelloJob>,
    },
    /// Barrier decision for the slave's parked chunk.
    Directive(Directive),
    /// Cooperative wind-down: finalize from current state and exit.
    Shutdown,
}

/// How to spawn the child processes of [`ExecBackend::Processes`].
#[derive(Debug, Clone)]
pub struct ProcSlaveConfig {
    /// Binary to execute; `None` re-execs the current binary
    /// (`std::env::current_exe`).
    pub program: Option<PathBuf>,
    /// Arguments that put the binary into slave mode.
    pub args: Vec<String>,
    /// Self-enforced resource caps per slave.
    pub limits: ProcLimits,
}

impl Default for ProcSlaveConfig {
    fn default() -> Self {
        ProcSlaveConfig {
            program: None,
            args: vec!["__slave".to_string()],
            limits: ProcLimits::default(),
        }
    }
}

/// Starts one slave child with piped stdin/stdout, marked with
/// [`SLAVE_ENV_MARKER`]; `slave` names it in the error.
fn spawn_child(cfg: &ProcSlaveConfig, slave: usize) -> Result<Child, SimError> {
    let program = match &cfg.program {
        Some(p) => p.clone(),
        None => std::env::current_exe().map_err(|e| SimError::SlaveProcess {
            slave,
            detail: format!("current_exe: {e}"),
        })?,
    };
    Command::new(&program)
        .args(&cfg.args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .env(SLAVE_ENV_MARKER, std::process::id().to_string())
        .spawn()
        .map_err(|e| SimError::SlaveProcess {
            slave,
            detail: format!("spawn {}: {e}", program.display()),
        })
}

// ---------------------------------------------------------------------------
// The process transport (master side)
// ---------------------------------------------------------------------------

struct ProcSlot {
    incarnation: u32,
    child: Child,
    stdin: std::process::ChildStdin,
    reader: std::thread::JoinHandle<()>,
}

/// A master's transport over child processes: one child per incarnation,
/// a reader thread per child decoding its stdout.
pub(crate) struct ProcessTransport {
    cfg: ProcSlaveConfig,
    tx: channel::Sender<SlaveEvent>,
    rx: channel::Receiver<SlaveEvent>,
    slots: Vec<Option<ProcSlot>>,
    frames_sent: u64,
    frames_received: Arc<AtomicU64>,
    decode_failures: Arc<AtomicU64>,
    cap_kills: Arc<AtomicU64>,
}

impl ProcessTransport {
    pub(crate) fn new(slots: usize, cfg: ProcSlaveConfig) -> Self {
        let (tx, rx) = channel::channel();
        ProcessTransport {
            cfg,
            tx,
            rx,
            slots: (0..slots).map(|_| None).collect(),
            frames_sent: 0,
            frames_received: Arc::new(AtomicU64::new(0)),
            decode_failures: Arc::new(AtomicU64::new(0)),
            cap_kills: Arc::new(AtomicU64::new(0)),
        }
    }

    fn send_down(&mut self, slave: usize, frame: &DownFrame) {
        if let Some(slot) = &mut self.slots[slave] {
            // A dead child's pipe raises EPIPE; its Gone event is already
            // in flight, so the failed write is deliberately ignored.
            if write_frame(&mut slot.stdin, frame).is_ok() {
                self.frames_sent += 1;
            }
        }
    }

    /// Empties a slot: SIGKILL (a no-op if the child already exited), reap
    /// — no zombies — and join the reader, which the EOF after the kill
    /// ends. Returns how the child went.
    fn reap_slot(&mut self, slave: usize) -> Option<ExitStatus> {
        let mut slot = self.slots[slave].take()?;
        let _ = slot.child.kill();
        let status = slot.child.wait().ok();
        drop(slot.stdin);
        let _ = slot.reader.join();
        status
    }
}

impl Transport for ProcessTransport {
    fn spawn(&mut self, slave: usize, incarnation: u32, job: HelloJob) -> Result<(), SimError> {
        job.config().check_wire()?;
        let mut child = spawn_child(&self.cfg, slave)?;
        let mut stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let hello = DownFrame::Hello {
            slave,
            incarnation,
            limits: self.cfg.limits,
            job: Box::new(job),
        };
        if let Err(e) = write_frame(&mut stdin, &hello) {
            let _ = child.kill();
            let _ = child.wait();
            return Err(e);
        }
        self.frames_sent += 1;
        let tx = self.tx.clone();
        let frames = Arc::clone(&self.frames_received);
        let failures = Arc::clone(&self.decode_failures);
        let cap_kills = Arc::clone(&self.cap_kills);
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(stdout);
            let tell = |what| {
                let event = SlaveEvent {
                    slave,
                    incarnation,
                    what,
                };
                tx.send(event).is_ok()
            };
            let gone = loop {
                match read_frame::<_, UpFrame>(&mut r) {
                    Ok(Some(frame)) => {
                        frames.fetch_add(1, Ordering::Relaxed);
                        if let UpFrame::Fatal {
                            code: exit_code::RESOURCE,
                            ..
                        } = frame
                        {
                            cap_kills.fetch_add(1, Ordering::Relaxed);
                        }
                        if !tell(Happened::Up(frame)) {
                            return;
                        }
                    }
                    Ok(None) => break "child exited without a terminal frame".to_string(),
                    Err(e) => {
                        // Corruption on the pipe: indistinguishable from a
                        // crashing child as far as supervision goes.
                        failures.fetch_add(1, Ordering::Relaxed);
                        break format!("corrupt stream from child: {e}");
                    }
                }
            };
            tell(Happened::Exited(gone));
        });
        self.slots[slave] = Some(ProcSlot {
            incarnation,
            child,
            stdin,
            reader,
        });
        Ok(())
    }

    fn directive(&mut self, slave: usize, d: Directive) {
        self.send_down(slave, &DownFrame::Directive(d));
    }

    fn interrupt_all(&mut self) {
        for slave in 0..self.slots.len() {
            self.send_down(slave, &DownFrame::Shutdown);
        }
    }

    fn kill(&mut self, slave: usize) {
        self.reap_slot(slave);
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<SlaveEvent> {
        let mut event = self.rx.recv_timeout(timeout).ok()?;
        // A child whose stream ended is reaped here, so the master learns
        // its exit status with its death.
        if let Happened::Exited(detail) = &mut event.what {
            let live = self.slots[event.slave].as_ref();
            if live.is_some_and(|slot| slot.incarnation == event.incarnation) {
                if let Some(status) = self.reap_slot(event.slave) {
                    *detail = format!("{detail} ({status})");
                }
            }
        }
        Some(event)
    }

    fn reap(&mut self) {
        // Cooperative first: children that already sent their terminal
        // frame exit on their own; stragglers get Shutdown and a grace
        // period.
        self.interrupt_all();
        let deadline = Instant::now() + REAP_GRACE;
        loop {
            let mut live = 0;
            for slot in self.slots.iter_mut().flatten() {
                match slot.child.try_wait() {
                    Ok(Some(_)) => {}
                    _ => live += 1,
                }
            }
            if live == 0 || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Escalate, then reap unconditionally: `wait` after `kill` cannot
        // leave a zombie behind.
        for slave in 0..self.slots.len() {
            self.kill(slave);
        }
    }

    fn wire_counters(&self) -> WireCounters {
        WireCounters {
            frames_sent: self.frames_sent,
            frames_received: self.frames_received.load(Ordering::Relaxed),
            frame_decode_failures: self.decode_failures.load(Ordering::Relaxed),
            cap_kills: self.cap_kills.load(Ordering::Relaxed),
        }
    }
}

impl Drop for ProcessTransport {
    fn drop(&mut self) {
        // Last line of defense (e.g. an early `?` return in a master):
        // never leak a child past the master's lifetime.
        for slave in 0..self.slots.len() {
            self.kill(slave);
        }
    }
}

// ---------------------------------------------------------------------------
// The child entrypoint
// ---------------------------------------------------------------------------

struct ChildLink {
    stdout: std::io::Stdout,
    directive_rx: channel::Receiver<Directive>,
    stop: Arc<AtomicBool>,
    limits: ProcLimits,
}

impl SlaveLink for ChildLink {
    fn send(&mut self, frame: UpFrame) -> bool {
        let mut out = self.stdout.lock();
        write_frame(&mut out, &frame).is_ok()
    }

    fn directives(&self) -> &channel::Receiver<Directive> {
        &self.directive_rx
    }

    fn stop_flag(&self) -> &Arc<AtomicBool> {
        &self.stop
    }

    fn limit_exceeded(&mut self) -> Option<String> {
        check_limits(&self.limits)
    }
}

/// Cooperative cap check against `/proc/self` (Linux only; a no-op where
/// procfs is absent). Checked at chunk boundaries — coarse, but it needs
/// no libc and the master treats an exceeded cap exactly like a crash.
fn check_limits(limits: &ProcLimits) -> Option<String> {
    if !limits.armed() || !cfg!(target_os = "linux") {
        return None;
    }
    if let Some(cap) = limits.max_rss_bytes {
        let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
        let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
        let rss = resident_pages * 4096;
        if rss > cap {
            return Some(format!("resident set {rss} B exceeds cap {cap} B"));
        }
    }
    if let Some(cap) = limits.max_cpu_seconds {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Fields after the parenthesized comm (which may contain spaces).
        let after = stat.rsplit_once(')')?.1;
        let fields: Vec<&str> = after.split_whitespace().collect();
        let utime: u64 = fields.get(11)?.parse().ok()?;
        let stime: u64 = fields.get(12)?.parse().ok()?;
        let cpu = (utime + stime) as f64 / 100.0; // USER_HZ = 100
        if cpu > cap {
            return Some(format!("CPU time {cpu:.2} s exceeds cap {cap:.2} s"));
        }
    }
    None
}

/// The hidden `bighouse __slave` entrypoint: reads its hello frame from
/// stdin, runs the job, streams frames to stdout, and exits with a mapped
/// code ([`exit_code`]). EOF on stdin — the master died — winds the child
/// down, so a SIGKILLed master leaves no orphans behind.
///
/// Deliberately infallible at the API level: every failure maps to an
/// exit code, because a slave has nobody to propagate an `Err` to.
#[must_use]
pub fn slave_main() -> u8 {
    // `Stdin` (not its `!Send` lock) moves into the watcher thread below;
    // it buffers internally, so framing survives the handoff.
    let mut stdin = std::io::stdin();
    let hello = read_frame::<_, DownFrame>(&mut stdin);
    let Ok(Some(DownFrame::Hello {
        slave,
        incarnation,
        limits,
        job,
    })) = hello
    else {
        return exit_code::FRAME; // EOF, corruption, or a non-hello first frame
    };

    // The stdin watcher: directives feed the session's barrier waits;
    // Shutdown, EOF, or corruption all raise the stop flag.
    let (directive_tx, directive_rx) = channel::channel();
    let stop = Arc::new(AtomicBool::new(false));
    let frame_poison = Arc::new(AtomicBool::new(false));
    {
        let stop = Arc::clone(&stop);
        let frame_poison = Arc::clone(&frame_poison);
        std::thread::spawn(move || loop {
            match read_frame::<_, DownFrame>(&mut stdin) {
                Ok(Some(DownFrame::Directive(d))) => {
                    if directive_tx.send(d).is_err() {
                        break;
                    }
                }
                Ok(Some(DownFrame::Shutdown)) | Ok(Some(DownFrame::Hello { .. })) | Ok(None) => {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
                Err(_) => {
                    frame_poison.store(true, Ordering::Relaxed);
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
        });
    }

    let mut link = ChildLink {
        stdout: std::io::stdout(),
        directive_rx,
        stop,
        limits,
    };
    let code = run_job(&mut link, slave, incarnation, *job);
    if frame_poison.load(Ordering::Relaxed) {
        return exit_code::FRAME;
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use bighouse_stats::RunningStats;

    #[test]
    fn frame_roundtrip() {
        let mut stats = RunningStats::new();
        stats.push(1.5);
        stats.push(4.0);
        let frame = UpFrame::Heartbeat {
            barrier: 6,
            moments: vec![Some(stats), None],
            exhausted: true,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let mut cursor = &buf[..];
        let back: UpFrame = read_frame(&mut cursor).unwrap().expect("one frame");
        match back {
            UpFrame::Heartbeat {
                barrier,
                moments,
                exhausted,
            } => {
                assert_eq!((barrier, exhausted), (6, true));
                assert_eq!(moments, vec![Some(stats), None]);
            }
            other => panic!("wrong frame: {other:?}"),
        }
        // Clean EOF between frames is Ok(None), not an error.
        assert!(read_frame::<_, UpFrame>(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncation_and_bitflips_are_typed_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &DownFrame::Shutdown).unwrap();
        // Every strict prefix must fail typed (except the empty one = EOF).
        for cut in 1..buf.len() {
            let mut cursor = &buf[..cut];
            let err = read_frame::<_, DownFrame>(&mut cursor).unwrap_err();
            assert!(matches!(err, SimError::Frame { .. }), "cut at {cut}: {err}");
        }
        // Any single flipped bit must fail typed, never be accepted.
        for byte in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[byte] ^= 0x10;
            let mut cursor = &corrupt[..];
            match read_frame::<_, DownFrame>(&mut cursor) {
                Err(SimError::Frame { .. }) => {}
                Ok(decoded) => panic!("flip at byte {byte} silently accepted: {decoded:?}"),
                Err(other) => panic!("flip at byte {byte} gave non-frame error: {other}"),
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 32]);
        let mut cursor = &buf[..];
        let err = read_frame::<_, UpFrame>(&mut cursor).unwrap_err();
        assert!(matches!(err, SimError::Frame { .. }));
        assert!(err.to_string().contains("length"));
    }

    #[test]
    fn version_skew_is_rejected() {
        // A newer build's frame, and a version-1 frame (the epoch-barrier
        // protocol, whose Heartbeat carried no barrier).
        for version in [PROTOCOL_VERSION + 1, 1] {
            let mut buf = Vec::new();
            write_frame(&mut buf, &DownFrame::Shutdown).unwrap();
            buf[4] = version; // version byte, first of the body
                              // Recompute the checksum so only the version check can reject it.
            let len = buf.len();
            let sum = fnv1a(&buf[4..len - 8]);
            buf[len - 8..].copy_from_slice(&sum.to_le_bytes());
            let mut cursor = &buf[..];
            let err = read_frame::<_, DownFrame>(&mut cursor).unwrap_err();
            assert!(matches!(err, SimError::Frame { .. }), "{err}");
            assert!(err.to_string().contains("version"), "{err}");
        }
    }
}

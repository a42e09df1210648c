//! The `bighouse` command-line tool.
//!
//! ```text
//! bighouse run <experiment.json> [seed=N] [out=report.json]
//!              [checkpoint-dir=DIR] [checkpoint-interval=EPOCHS]
//!              [epoch-events=N] [telemetry=out.json]
//!              [backend=threads|processes]
//!              [slave-mem-mb=N] [slave-cpu-secs=S]
//!              [--resume] [--paranoid] [--telemetry-summary]
//! bighouse sweep <sweep.json> [seed=N] [out=report.json]
//!              [checkpoint-dir=DIR] [workers=N]
//!              [backend=threads|processes]
//!              [slave-mem-mb=N] [slave-cpu-secs=S]
//!              [--resume] [--paranoid] [--telemetry]
//! bighouse workloads
//! bighouse export-workload <name> <path>
//! bighouse example-config [path]
//! ```
//!
//! Exit codes follow sysexits conventions so scripts can tell failure
//! classes apart: 64 usage, 65 bad spec/data, 69 quarantined configs in
//! an otherwise-finished sweep, 70 invariant-audit violation, 1 other.
//!
//! A hidden `bighouse __slave` entrypoint turns the binary into a
//! sandboxed slave child for the process-isolated execution backend
//! (`backend=processes`, on `run` and `sweep` alike); it is spawned by a
//! supervising `bighouse` master, speaks length-prefixed checksummed
//! frames on stdin/stdout, and exits 0 ok / 65 corrupt frame stream /
//! 70 simulation error / 75 resource cap exceeded / 101 panic.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bighouse::dists::Distribution;
use bighouse::sim::{
    run_resumable, run_serial, run_sweep, AuditConfig, CheckpointConfig, ExecBackend,
    ParallelRunner, ProcChaos, ProcLimits, ProcSlaveConfig, RunOptions, SimError, SimulationReport,
    SweepEntry, SweepEvent, SweepOptions, TerminationReason,
};
use bighouse::telemetry::TelemetrySnapshot;
use bighouse::workloads::{StandardWorkload, Workload};
use bighouse_cli::{ExperimentSpec, SweepSpec};

/// Command line misuse: unknown command, missing/contradictory arguments
/// (sysexits `EX_USAGE`).
const EXIT_USAGE: u8 = 64;
/// The input spec file is malformed or invalid (sysexits `EX_DATAERR`).
const EXIT_SPEC: u8 = 65;
/// The sweep finished but quarantined at least one poison config
/// (sysexits `EX_UNAVAILABLE`: part of the requested service was not
/// rendered).
const EXIT_QUARANTINED: u8 = 69;
/// A paranoid-mode invariant audit failed (sysexits `EX_SOFTWARE`).
const EXIT_AUDIT: u8 = 70;

/// A CLI failure carrying its exit-code class. `From<String>` maps
/// untyped runtime errors (I/O, simulation) to the generic failure code,
/// so `?` keeps working on `map_err(|e| e.to_string())` call sites.
enum CliError {
    Usage(String),
    Spec(String),
    Quarantined(usize),
    Audit(String),
    Other(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => EXIT_USAGE,
            CliError::Spec(_) => EXIT_SPEC,
            CliError::Quarantined(_) => EXIT_QUARANTINED,
            CliError::Audit(_) => EXIT_AUDIT,
            CliError::Other(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Other(msg) => write!(f, "{msg}"),
            CliError::Spec(msg) => write!(f, "{msg}"),
            CliError::Quarantined(n) => {
                write!(f, "{n} config(s) quarantined; see the report for details")
            }
            CliError::Audit(msg) => write!(f, "invariant audit failed: {msg}"),
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Other(msg)
    }
}

/// Raw SIGINT/SIGTERM handling with no dependencies: the C `signal(2)`
/// entry point flips a static flag that a bridge thread forwards to the
/// runner's cooperative interrupt. Installed only for resumable runs —
/// plain runs keep the default (immediate) Ctrl+C behavior.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn handle(_signum: i32) {
        INTERRUPTED.store(true, Ordering::Relaxed);
    }

    /// Installs SIGHUP (1), SIGINT (2), and SIGTERM (15) handlers;
    /// returns the flag they set. Idempotent. SIGHUP is treated exactly
    /// like SIGTERM — a dropped terminal winds the run down gracefully
    /// (final checkpoint, partial report, every slave child reaped)
    /// instead of killing it mid-epoch.
    pub fn install() -> &'static AtomicBool {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGHUP: i32 = 1;
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGHUP, handle as usize);
            signal(SIGINT, handle as usize);
            signal(SIGTERM, handle as usize);
        }
        &INTERRUPTED
    }
}

/// Installs signal handlers (where supported) and returns an interrupt
/// flag kept in sync by a background bridge thread.
fn interrupt_flag() -> Arc<AtomicBool> {
    let flag = Arc::new(AtomicBool::new(false));
    #[cfg(unix)]
    {
        let raw = signals::install();
        let bridge = Arc::clone(&flag);
        std::thread::spawn(move || loop {
            if raw.load(Ordering::Relaxed) {
                bridge.store(true, Ordering::Relaxed);
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }
    flag
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Slave mode is dispatched before anything else: the child must not
    // parse user flags, print banners, or install the wind-down signal
    // handlers (its lifecycle is owned by the master over stdin).
    if args.first().map(String::as_str) == Some("__slave") {
        return ExitCode::from(bighouse::sim::slave_main());
    }
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("workloads") => cmd_workloads(),
        Some("export-workload") => cmd_export(&args[1..]),
        Some("example-config") => cmd_example_config(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown command `{other}`; try `bighouse help`"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn print_usage() {
    println!("BigHouse: a simulation infrastructure for data center systems");
    println!();
    println!("USAGE:");
    println!("  bighouse run <experiment.json> [seed=N] [out=report.json]");
    println!("               [checkpoint-dir=DIR] [checkpoint-interval=EPOCHS]");
    println!("               [epoch-events=N] [telemetry=out.json]");
    println!("               [backend=threads|processes]");
    println!("               [slave-mem-mb=N] [slave-cpu-secs=S]");
    println!("               [--resume] [--paranoid] [--telemetry-summary]");
    println!("      Run the experiment described by a JSON configuration file;");
    println!("      prints estimates, optionally writing the full report as JSON.");
    println!("      With checkpoint-dir the run snapshots itself at epoch");
    println!("      boundaries and winds down gracefully on SIGINT/SIGTERM;");
    println!("      --resume continues a killed run from its last snapshot with");
    println!("      bit-identical final estimates. --paranoid arms the runtime");
    println!("      invariant auditor: conservation/energy sweeps, NaN tripwires,");
    println!("      and livelock circuit breakers, at no change to the estimates.");
    println!("      telemetry=out.json collects run telemetry (counters, gauges,");
    println!("      latency histograms, phase transitions) and writes the snapshot");
    println!("      as JSON; --telemetry-summary prints a human-readable table.");
    println!("      Telemetry is observational: estimates stay bit-identical.");
    println!("      With slaves > 1 in the spec, backend=processes");
    println!("      sandboxes every slave in a child OS");
    println!("      process over a checksummed IPC fabric: a slave that");
    println!("      segfaults, aborts, or is OOM-killed is respawned from its");
    println!("      epoch checkpoint with bit-identical final estimates.");
    println!("      backend=threads (the default) runs the same deterministic");
    println!("      chunk-barrier protocol on in-process threads.");
    println!("      slave-mem-mb / slave-cpu-secs arm");
    println!("      per-child resource caps (a slave over its cap exits 75");
    println!("      and is counted, not resurrected).");
    println!("  bighouse sweep <sweep.json> [seed=N] [out=report.json]");
    println!("               [checkpoint-dir=DIR] [workers=N]");
    println!("               [backend=threads|processes]");
    println!("               [slave-mem-mb=N] [slave-cpu-secs=S]");
    println!("               [--resume] [--paranoid] [--telemetry]");
    println!("      Run an experiment grid (a base spec crossed with value axes)");
    println!("      on `workers` transport slots. Each config gets a deterministic");
    println!("      seed derived from its id; panicking or stalling configs are");
    println!("      retried with backoff and quarantined instead of sinking the");
    println!("      sweep. With checkpoint-dir the completed-config ledger is");
    println!("      snapshotted so a killed sweep resumes bit-identically with");
    println!("      --resume; SIGHUP/SIGINT/SIGTERM wind down with a partial");
    println!("      report. backend=processes runs every attempt in a sandboxed");
    println!("      child process: segfaults, aborts, and wedged configs are");
    println!("      killed and quarantined as `crashed` instead of sinking the");
    println!("      sweep (`isolate_processes` in the spec makes it the default).");
    println!("      Exits 69 if any config was quarantined (see sysexits note).");
    println!("  bighouse workloads");
    println!("      List the built-in Table 1 workload models and their moments.");
    println!("  bighouse export-workload <name> <path>");
    println!("      Write a built-in workload to a JSON file (editable/shareable).");
    println!("  bighouse example-config [path]");
    println!("      Print (or write) a template experiment configuration.");
}

/// `key=value` lookup; leading dashes on the key are ignored so both
/// `checkpoint-dir=...` and `--checkpoint-dir=...` work.
fn kv_arg(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .filter_map(|a| a.trim_start_matches('-').split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.to_owned())
}

/// Bare boolean flag: `--resume`, `resume`, or `resume=true`.
fn flag_arg(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a.trim_start_matches('-') == key)
        || kv_arg(args, key).is_some_and(|v| v == "1" || v == "true")
}

/// Parses the per-child resource caps (`slave-mem-mb=`, `slave-cpu-secs=`)
/// of the process backend.
fn limits_args(args: &[String]) -> Result<ProcLimits, CliError> {
    let max_rss_bytes = kv_arg(args, "slave-mem-mb")
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| CliError::Usage(format!("bad slave-mem-mb `{s}`")))
        })
        .transpose()?
        .map(|mb| mb.saturating_mul(1024 * 1024));
    let max_cpu_seconds = kv_arg(args, "slave-cpu-secs")
        .map(|s| {
            s.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| CliError::Usage(format!("bad slave-cpu-secs `{s}`")))
        })
        .transpose()?;
    Ok(ProcLimits {
        max_rss_bytes,
        max_cpu_seconds,
    })
}

/// Parses the transport selection of a parallel run or a sweep:
/// `backend=processes` sandboxes each slot in a child OS process behind the
/// checksummed IPC fabric; `backend=threads` runs the same jobs on
/// in-process threads. `default_processes` is what no `backend=` means.
fn backend_arg(args: &[String], default_processes: bool) -> Result<ExecBackend, CliError> {
    let processes = match kv_arg(args, "backend").as_deref() {
        None => default_processes,
        Some("threads") => false,
        Some("processes") => true,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "bad backend `{other}` (expected threads or processes)"
            )))
        }
    };
    Ok(if processes {
        ExecBackend::Processes(ProcSlaveConfig {
            limits: limits_args(args)?,
            ..ProcSlaveConfig::default()
        })
    } else {
        ExecBackend::ThreadLockstep
    })
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let path = args
        .iter()
        .find(|a| !a.contains('=') && !a.starts_with('-'))
        .ok_or_else(|| CliError::Usage(
            "usage: bighouse run <experiment.json> [seed=N] [out=report.json] [checkpoint-dir=DIR] [--resume]".into(),
        ))?;
    let seed: u64 = kv_arg(args, "seed")
        .map(|s| {
            s.parse()
                .map_err(|_| CliError::Usage(format!("bad seed `{s}`")))
        })
        .transpose()?
        .unwrap_or(2012);
    let checkpoint_dir = kv_arg(args, "checkpoint-dir");
    let checkpoint_interval: u64 = kv_arg(args, "checkpoint-interval")
        .map(|s| {
            s.parse()
                .map_err(|_| CliError::Usage(format!("bad checkpoint-interval `{s}`")))
        })
        .transpose()?
        .unwrap_or(1);
    if checkpoint_interval == 0 {
        return Err(CliError::Usage(
            "checkpoint-interval must be at least 1".into(),
        ));
    }
    let epoch_events: u64 = kv_arg(args, "epoch-events")
        .map(|s| {
            s.parse()
                .map_err(|_| CliError::Usage(format!("bad epoch-events `{s}`")))
        })
        .transpose()?
        .unwrap_or(RunOptions::DEFAULT_EPOCH_EVENTS);
    let resume = flag_arg(args, "resume");
    if resume && checkpoint_dir.is_none() {
        return Err(CliError::Usage(
            "--resume requires checkpoint-dir=DIR".into(),
        ));
    }
    let paranoid = flag_arg(args, "paranoid");
    let telemetry_out = kv_arg(args, "telemetry");
    let telemetry_summary = flag_arg(args, "telemetry-summary");
    let spec = ExperimentSpec::from_file(path).map_err(|e| CliError::Spec(e.to_string()))?;
    let mut config = spec.resolve().map_err(|e| CliError::Spec(e.to_string()))?;
    // --paranoid arms the default auditor; a `paranoid` block in the spec
    // already configured (possibly tighter) thresholds and wins.
    if paranoid && config.audit().is_none() {
        config = config.with_audit(AuditConfig::default());
    }
    if telemetry_out.is_some() || telemetry_summary {
        config = config.with_telemetry(true);
    }

    let report: SimulationReport = match spec.slaves {
        Some(slaves) if slaves > 1 => {
            if resume {
                return Err(CliError::Usage(
                    "resume is only supported for serial runs (slaves=1)".into(),
                ));
            }
            let backend = backend_arg(args, false)?;
            eprintln!(
                "running with {slaves} parallel slaves ({} backend, master seed {seed})...",
                match &backend {
                    ExecBackend::ThreadLockstep => "thread",
                    ExecBackend::Processes(_) => "process",
                }
            );
            let mut runner = ParallelRunner::new(config, slaves)
                .with_interrupt(interrupt_flag())
                .with_backend(backend);
            // epoch-events also sizes the slaves' checkpoint epochs (the
            // granularity of crash recovery).
            if kv_arg(args, "epoch-events").is_some() && epoch_events > 0 {
                runner = runner.with_slave_epoch(epoch_events);
            }
            // Chaos-smoke hook for CI: deterministically crash one slave
            // (kill:N, abort:N, panic:N) to prove supervised recovery.
            if let Some(chaos) = std::env::var("BIGHOUSE_PROC_CHAOS")
                .ok()
                .as_deref()
                .and_then(ProcChaos::from_env_str)
            {
                runner = runner.with_proc_chaos(chaos);
            }
            let outcome = runner.run(seed).map_err(|e| e.to_string())?;
            println!(
                "supervision: {} resurrections, {} dead slaves{}",
                outcome.resurrections,
                outcome.dead_slaves.len(),
                if outcome.dead_slaves.is_empty() {
                    String::new()
                } else {
                    format!(" {:?}", outcome.dead_slaves)
                }
            );
            if !outcome.dead_slaves.is_empty() {
                eprintln!(
                    "warning: slaves {:?} died permanently; estimates merged from survivors",
                    outcome.dead_slaves
                );
            }
            outcome.report()
        }
        _ if checkpoint_dir.is_some() => {
            // Resumable serial run: epoch-structured, checkpointed, and
            // wound down gracefully (final checkpoint + partial report)
            // on SIGINT/SIGTERM.
            eprintln!("running serially with checkpoints (seed {seed})...");
            let opts = RunOptions {
                epoch_events,
                checkpoint: checkpoint_dir
                    .map(|dir| CheckpointConfig::new(dir).with_interval(checkpoint_interval)),
                resume,
                max_epochs: None,
                interrupt: Some(interrupt_flag()),
            };
            run_resumable(&config, seed, &opts).map_err(|e| e.to_string())?
        }
        _ => {
            eprintln!("running serially (seed {seed})...");
            run_serial(&config, seed).map_err(|e| e.to_string())?
        }
    };

    println!(
        "converged: {} ({})   events: {}   wall: {:.2}s",
        report.converged, report.termination, report.events_fired, report.runtime.wall_seconds
    );
    for est in &report.estimates {
        print!(
            "  {:<16} mean {:.6} (±{:.2}%)",
            est.name,
            est.mean,
            est.relative_accuracy * 100.0
        );
        for q in &est.quantiles {
            print!("   p{:.0} {:.6}", q.q * 100.0, q.value);
        }
        println!("   [n={}, lag={}]", est.samples_kept, est.lag);
    }
    if let Some(audit) = &report.audit {
        println!(
            "  audit: {} sweeps, {} observations vetted, {} violations, {} warnings",
            audit.checks_run,
            audit.observations_checked,
            audit.violations.len(),
            audit.warnings.len()
        );
        for violation in &audit.violations {
            eprintln!("  audit violation: {violation}");
        }
        for warning in &audit.warnings {
            eprintln!("  audit warning: {warning}");
        }
        if !audit.passed() {
            eprintln!(
                "paranoid mode stopped the run: the estimates above are partial and \
                 the accounting behind them is suspect"
            );
        }
    }
    if let Some(fs) = &report.cluster.faults {
        println!(
            "  faults: {} server failures, goodput {}/{} admitted, {} timed out, {} retries",
            fs.server_failures, fs.goodput, fs.admitted, fs.timed_out, fs.retries
        );
    }
    if let Some(rs) = &report.cluster.resilience {
        println!(
            "  resilience: {}/{} admitted ({} shed), goodput {}, {} timed out",
            rs.admitted, rs.offered, rs.shed, rs.goodput, rs.timed_out
        );
        if rs.hedges_launched > 0 {
            println!(
                "  hedging: {} launched, {} won, {} cancelled",
                rs.hedges_launched, rs.hedge_wins, rs.hedge_cancelled
            );
        }
        for (class, c) in rs.per_class.iter().enumerate() {
            println!(
                "    class {class}: offered {}, shed {}, goodput {}, slo met {}",
                c.offered, c.shed, c.goodput, c.slo_met
            );
        }
    }
    if report.termination == TerminationReason::Interrupted {
        eprintln!(
            "interrupted: estimates are partial — unbiased but with wider confidence \
             intervals than the accuracy target; resume with --resume to finish"
        );
    }

    if telemetry_summary {
        match &report.runtime.telemetry {
            Some(snap) => print_telemetry_summary(snap),
            None => eprintln!("warning: no telemetry collected for this run mode"),
        }
    }
    if let Some(tel_path) = &telemetry_out {
        match &report.runtime.telemetry {
            Some(snap) => {
                let json = serde_json::to_string_pretty(snap).map_err(|e| e.to_string())?;
                std::fs::write(tel_path, json).map_err(|e| e.to_string())?;
                eprintln!("telemetry written to {tel_path}");
            }
            None => eprintln!("warning: no telemetry collected; {tel_path} not written"),
        }
    }
    if let Some(out) = kv_arg(args, "out") {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(&out, json).map_err(|e| e.to_string())?;
        eprintln!("report written to {out}");
    }
    // An audit failure is an exit-code failure: scripts watching a paranoid
    // run must not mistake a tripped breaker for a clean convergence. The
    // report (and out= file) above still carries the partial estimates.
    if let Some(audit) = &report.audit {
        if !audit.passed() {
            let first = audit
                .violations
                .first()
                .map_or_else(|| "violation list empty".to_owned(), ToString::to_string);
            return Err(CliError::Audit(first));
        }
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), CliError> {
    let path = args
        .iter()
        .find(|a| !a.contains('=') && !a.starts_with('-'))
        .ok_or_else(|| {
            CliError::Usage(
                "usage: bighouse sweep <sweep.json> [seed=N] [out=report.json] \
                 [checkpoint-dir=DIR] [workers=N] [backend=threads|processes] \
                 [--resume] [--paranoid] [--telemetry]"
                    .into(),
            )
        })?;
    let seed: u64 = kv_arg(args, "seed")
        .map(|s| {
            s.parse()
                .map_err(|_| CliError::Usage(format!("bad seed `{s}`")))
        })
        .transpose()?
        .unwrap_or(2012);
    let checkpoint_dir = kv_arg(args, "checkpoint-dir");
    let resume = flag_arg(args, "resume");
    if resume && checkpoint_dir.is_none() {
        return Err(CliError::Usage(
            "--resume requires checkpoint-dir=DIR".into(),
        ));
    }
    let paranoid = flag_arg(args, "paranoid");
    let telemetry = flag_arg(args, "telemetry");
    let workers_override: Option<usize> = kv_arg(args, "workers")
        .map(|s| {
            s.parse()
                .map_err(|_| CliError::Usage(format!("bad workers `{s}`")))
        })
        .transpose()?;

    let sweep = SweepSpec::from_file(path).map_err(|e| CliError::Spec(e.to_string()))?;
    let rendered = sweep.render().map_err(|e| CliError::Spec(e.to_string()))?;
    let mut entries = Vec::with_capacity(rendered.len());
    for (id, spec) in rendered {
        let mut config = spec
            .resolve()
            .map_err(|e| CliError::Spec(format!("config `{id}`: {e}")))?;
        if paranoid && config.audit().is_none() {
            config = config.with_audit(AuditConfig::default());
        }
        if telemetry {
            config = config.with_telemetry(true);
        }
        entries.push(SweepEntry::new(id, config));
    }

    let workers = workers_override.unwrap_or(sweep.workers);
    eprintln!(
        "sweeping {} configs (master seed {seed}, {} workers)...",
        entries.len(),
        if workers == 0 {
            "auto".to_owned()
        } else {
            workers.to_string()
        }
    );
    let opts = SweepOptions {
        workers,
        max_retries: sweep.max_retries,
        deadline: sweep.config_deadline_seconds.map(Duration::from_secs_f64),
        epoch_events: sweep.epoch_events,
        checkpoint: checkpoint_dir.map(CheckpointConfig::new),
        resume,
        interrupt: Some(interrupt_flag()),
        backend: backend_arg(args, sweep.isolate_processes)?,
        on_event: Some(Arc::new(|event: &SweepEvent| match event {
            SweepEvent::Completed {
                id,
                attempts,
                converged,
            } => eprintln!(
                "  done {id} (attempt {attempts}{})",
                if *converged { "" } else { ", not converged" }
            ),
            SweepEvent::Retrying { id, attempt, error } => {
                eprintln!("  retry {id} (attempt {attempt} failed: {error})");
            }
            SweepEvent::Quarantined {
                id,
                attempts,
                error,
            } => eprintln!("  QUARANTINED {id} after {attempts} attempts: {error}"),
        })),
        ..SweepOptions::default()
    };
    let report = run_sweep(&entries, seed, &opts).map_err(|e| match e {
        SimError::InvalidParameter { .. } | SimError::Checkpoint(_) => {
            CliError::Spec(e.to_string())
        }
        other => CliError::Other(other.to_string()),
    })?;

    // Trend table: one line per completed config, first metric's estimate.
    println!(
        "sweep: {}/{} completed, {} quarantined, {} retries, {} resumed{}   wall: {:.2}s",
        report.completed.len(),
        report.total_configs,
        report.quarantined.len(),
        report.retries,
        report.runtime.resumed,
        if report.interrupted {
            " [interrupted]"
        } else {
            ""
        },
        report.runtime.wall_seconds,
    );
    for outcome in &report.completed {
        print!(
            "  {:<40} seed {:<20} {:>12} events",
            outcome.id, outcome.seed, outcome.report.events_fired
        );
        if let Some(est) = outcome.report.estimates.first() {
            print!(
                "   {} {:.6} (±{:.2}%)",
                est.name,
                est.mean,
                est.relative_accuracy * 100.0
            );
        }
        println!();
    }
    for q in &report.quarantined {
        eprintln!(
            "  quarantined {:<28} after {} attempts: {}",
            q.id, q.attempts, q.error
        );
    }
    if report.interrupted {
        eprintln!(
            "interrupted: the sweep is partial; rerun with --resume and the same \
             checkpoint-dir to finish the remaining configs"
        );
    }
    if let Some(out) = kv_arg(args, "out") {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(&out, json).map_err(|e| e.to_string())?;
        eprintln!("sweep report written to {out}");
    }
    if !report.quarantined.is_empty() {
        return Err(CliError::Quarantined(report.quarantined.len()));
    }
    Ok(())
}

/// Renders a telemetry snapshot as a human-readable table: counters and
/// gauges by name, histogram summaries (count/mean/min/max), the phase
/// transition log, and the quarantined wall-clock figures last.
fn print_telemetry_summary(snap: &TelemetrySnapshot) {
    println!("telemetry:");
    if !snap.counters.is_empty() {
        println!("  counters:");
        for (name, value) in &snap.counters {
            println!("    {name:<44} {value:>14}");
        }
    }
    if !snap.gauges.is_empty() {
        println!("  gauges:");
        for (name, value) in &snap.gauges {
            println!("    {name:<44} {value:>14.6}");
        }
    }
    if !snap.histograms.is_empty() {
        println!("  histograms:");
        for (name, h) in &snap.histograms {
            let mean = h.mean().map_or_else(|| "-".into(), |m| format!("{m:.4}"));
            let min = h.min.map_or_else(|| "-".into(), |v| format!("{v:.4}"));
            let max = h.max.map_or_else(|| "-".into(), |v| format!("{v:.4}"));
            println!(
                "    {name:<32} n={:<10} mean={mean} min={min} max={max} overflow={}",
                h.count, h.overflow
            );
        }
    }
    if !snap.phases.is_empty() {
        println!("  phase transitions:");
        for p in &snap.phases {
            println!(
                "    {:<16} {:>12} -> {:<12} sim {:>12.4}s  wall {:>8.3}s  n={}",
                p.metric, p.from, p.to, p.simulated_seconds, p.wall_seconds, p.total_observed
            );
        }
    }
    if !snap.wall.is_empty() {
        println!("  wall-clock (non-deterministic):");
        for (name, value) in &snap.wall {
            println!("    {name:<44} {value:>14.4}");
        }
    }
}

fn cmd_workloads() -> Result<(), CliError> {
    println!(
        "{:<8} {:>16} {:>10} {:>14} {:>10}",
        "name", "interarrival", "Cv", "service", "Cv"
    );
    for which in StandardWorkload::ALL {
        let w = Workload::standard(which);
        println!(
            "{:<8} {:>13.6} s {:>10.2} {:>11.6} s {:>10.2}",
            which.name(),
            w.interarrival().mean(),
            w.interarrival().cv(),
            w.service().mean(),
            w.service().cv(),
        );
    }
    Ok(())
}

fn cmd_export(args: &[String]) -> Result<(), CliError> {
    let (name, path) = match args {
        [name, path] => (name, path),
        _ => {
            return Err(CliError::Usage(
                "usage: bighouse export-workload <name> <path>".into(),
            ))
        }
    };
    let which = StandardWorkload::ALL
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| CliError::Spec(format!("unknown workload `{name}`")))?;
    Workload::standard(which)
        .save(path)
        .map_err(|e| e.to_string())?;
    eprintln!("workload `{}` written to {path}", which.name());
    Ok(())
}

fn cmd_example_config(args: &[String]) -> Result<(), CliError> {
    let json =
        serde_json::to_string_pretty(&ExperimentSpec::template()).map_err(|e| e.to_string())?;
    match args.first() {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| e.to_string())?;
            eprintln!("template written to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

//! End-to-end acceptance of the process-isolated slave backend, run
//! WITHOUT the libtest harness (`harness = false` in Cargo.toml): slave
//! children are spawned by re-executing this very binary with the
//! `__slave` argument, and libtest's stdout chatter would corrupt the
//! length-prefixed frame stream the protocol runs over.
//!
//! The headline claims under test, straight from the design contract:
//!
//! 1. A clean run on the process transport is bit-identical to one on the
//!    in-process thread transport at the same seed.
//! 2. A slave SIGKILLed mid-epoch — and, separately, one that calls
//!    `std::process::abort()` (which `catch_unwind` cannot contain) — is
//!    resurrected from its epoch checkpoint and the merged estimates and
//!    the pooled cluster summary are still bit-identical to the
//!    undisturbed run.
//! 3. A sweep is the same fabric with a different job: the same grid on the
//!    thread and the process transport completes the same configs bit for
//!    bit and quarantines the same poison one — as a contained panic on a
//!    thread slot, as a crashed child (exit status 101) in a process.
//! 4. No zombie or orphan slave children survive any of it.

use bighouse_sim::{
    run_sweep, ExecBackend, ExperimentConfig, ParallelRunner, ProcChaos, ProcSlaveConfig,
    SweepEntry, SweepError, SweepFaultInjection, SweepOptions,
};
use bighouse_workloads::{StandardWorkload, Workload};

const SEED: u64 = 20_120_613;
const EPOCH: u64 = 50_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Slave mode: this process was spawned by a test below. It must not
    // print anything to stdout except protocol frames.
    if args.first().map(String::as_str) == Some("__slave") {
        std::process::exit(i32::from(bighouse_sim::slave_main()));
    }

    let tests: &[(&str, fn())] = &[
        (
            "clean_process_run_is_bit_identical_to_lockstep",
            clean_process_run_is_bit_identical_to_lockstep,
        ),
        (
            "sigkilled_slave_is_resurrected_bit_identically",
            sigkilled_slave_is_resurrected_bit_identically,
        ),
        (
            "aborting_slave_is_resurrected_bit_identically",
            aborting_slave_is_resurrected_bit_identically,
        ),
        (
            "sweep_agrees_across_transports_and_quarantines_the_poison_config",
            sweep_agrees_across_transports_and_quarantines_the_poison_config,
        ),
        (
            "no_zombie_or_orphan_children_remain",
            no_zombie_or_orphan_children_remain,
        ),
    ];
    let mut failed = 0usize;
    for (name, test) in tests {
        print!("test {name} ... ");
        match std::panic::catch_unwind(test) {
            Ok(()) => println!("ok"),
            Err(_) => {
                println!("FAILED");
                failed += 1;
            }
        }
    }
    println!(
        "\ntest result: {}. {} passed; {failed} failed",
        if failed == 0 { "ok" } else { "FAILED" },
        tests.len() - failed
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

// Accuracy tight enough that the run spans several epochs: the stopping
// decision is made at every chunk barrier, and the chaos hooks arm on the
// victim's first epoch checkpoint, which a run that stops inside its
// first epoch never writes.
fn config() -> ExperimentConfig {
    ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
        .with_utilization(0.5)
        .with_target_accuracy(0.01)
        .with_warmup(50)
        .with_calibration(500)
        .with_max_events(50_000_000)
}

/// Everything deterministic a run reports: the merged estimates, the
/// pooled cluster summary and the simulated time, bit for bit.
fn reported(outcome: &bighouse_sim::ParallelOutcome) -> String {
    assert!(outcome.cluster.jobs_completed > 0 && outcome.simulated_seconds > 0.0);
    serde_json::to_string(&(
        &outcome.estimates,
        &outcome.cluster,
        outcome.simulated_seconds.to_bits(),
    ))
    .expect("report serializes")
}

fn lockstep_reference() -> bighouse_sim::ParallelOutcome {
    ParallelRunner::new(config(), 2)
        .with_backend(ExecBackend::ThreadLockstep)
        .with_slave_epoch(EPOCH)
        .run(SEED)
        .expect("lockstep reference run")
}

fn process_runner() -> ParallelRunner {
    ParallelRunner::new(config(), 2)
        .with_backend(ExecBackend::Processes(ProcSlaveConfig::default()))
        .with_slave_epoch(EPOCH)
}

fn clean_process_run_is_bit_identical_to_lockstep() {
    let reference = lockstep_reference();
    let proc = process_runner().run(SEED).expect("process-backend run");
    assert!(proc.converged, "clean run converges");
    assert_eq!(proc.resurrections, 0, "no chaos, no respawns");
    assert_eq!(
        reported(&reference),
        reported(&proc),
        "process backend must reproduce the lockstep trajectory exactly"
    );
}

fn sigkilled_slave_is_resurrected_bit_identically() {
    let reference = lockstep_reference();
    let chaotic = process_runner()
        .with_proc_chaos(ProcChaos::KillMidEpoch { slave: 1 })
        .run(SEED)
        .expect("chaos run survives a SIGKILL");
    assert!(chaotic.resurrections >= 1, "the SIGKILL chaos never fired");
    assert!(chaotic.dead_slaves.is_empty(), "the victim must come back");
    assert_eq!(
        reported(&reference),
        reported(&chaotic),
        "a SIGKILLed-mid-epoch slave must replay to the identical report"
    );
}

fn aborting_slave_is_resurrected_bit_identically() {
    // `std::process::abort()` raises SIGABRT with no unwinding: the
    // in-thread transport fundamentally cannot contain it. The process
    // transport must treat it exactly like any other child death.
    let reference = lockstep_reference();
    let chaotic = process_runner()
        .with_proc_chaos(ProcChaos::AbortAfterFirstEpoch { slave: 0 })
        .run(SEED)
        .expect("chaos run survives an abort");
    assert!(chaotic.resurrections >= 1, "the abort chaos never fired");
    assert!(chaotic.dead_slaves.is_empty(), "the victim must come back");
    assert_eq!(
        reported(&reference),
        reported(&chaotic),
        "an aborting slave must replay to the identical report"
    );
}

fn sweep_agrees_across_transports_and_quarantines_the_poison_config() {
    let quick = |utilization: f64| {
        ExperimentConfig::new(Workload::standard(StandardWorkload::Web))
            .with_utilization(utilization)
            .with_target_accuracy(0.2)
            .with_warmup(50)
            .with_calibration(500)
    };
    let entries: Vec<SweepEntry> = [0.3, 0.5, 0.7]
        .iter()
        .map(|&u| SweepEntry::new(format!("utilization={u}"), quick(u)))
        .chain([SweepEntry::new("poison", quick(0.5))])
        .collect();
    let sweep = |backend: ExecBackend| {
        let opts = SweepOptions {
            workers: 2,
            max_retries: 1,
            epoch_events: EPOCH,
            backend,
            fault_injection: Some(SweepFaultInjection {
                panic_ids: vec!["poison".to_owned()],
                stall_ids: vec![],
            }),
            ..SweepOptions::default()
        };
        run_sweep(&entries, SEED, &opts)
            .expect("sweep runs")
            .canonical()
    };
    let threads = sweep(ExecBackend::ThreadLockstep);
    let procs = sweep(ExecBackend::Processes(ProcSlaveConfig::default()));
    for report in [&threads, &procs] {
        assert_eq!(
            report.completed.len(),
            3,
            "the poison's neighbours complete"
        );
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].id, "poison");
        assert_eq!(report.quarantined[0].attempts, 2, "max_retries = 1");
        assert_eq!(report.retries, 1);
        assert!(!report.interrupted);
    }
    assert_eq!(
        serde_json::to_string(&threads.completed).expect("outcomes serialize"),
        serde_json::to_string(&procs.completed).expect("outcomes serialize"),
        "every completed config must agree across transports bit for bit"
    );
    // The injected fault is a real panic: a thread slot contains it and
    // keeps its message, a child dies of it with the panic exit status.
    assert!(
        matches!(&threads.quarantined[0].error, SweepError::Panicked { message }
            if message.contains("injected")),
        "{:?}",
        threads.quarantined[0].error
    );
    assert!(
        matches!(&procs.quarantined[0].error, SweepError::Crashed { detail }
            if detail.contains("exit status: 101")),
        "{:?}",
        procs.quarantined[0].error
    );
}

/// Scans `/proc` for leftover slave children of this process: any process
/// whose parent is us (zombies included — their state shows as `Z`) or
/// whose environment carries our slave marker. Linux-only; a no-op pass
/// elsewhere.
fn no_zombie_or_orphan_children_remain() {
    if !cfg!(target_os = "linux") {
        return;
    }
    // Give the reaper a beat: the runs above have returned, which already
    // implies reaping, but the assertion below is stronger than the API
    // contract and deserves a settled /proc.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let me = std::process::id();
    let marker = format!("BIGHOUSE_PROCSLAVE={me}");
    let mut leftovers = Vec::new();
    for entry in std::fs::read_dir("/proc")
        .expect("/proc readable")
        .flatten()
    {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        if pid == me {
            continue;
        }
        // stat: "pid (comm) state ppid ..." — comm may contain spaces,
        // so parse from the last ')'.
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
        let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
        let mut fields = after.split_whitespace();
        let state = fields.next().unwrap_or("");
        let ppid: u32 = fields.next().and_then(|p| p.parse().ok()).unwrap_or(0);
        let is_child = ppid == me;
        let is_zombie_child = is_child && state == "Z";
        let has_marker = std::fs::read(format!("/proc/{pid}/environ"))
            .map(|env| env.split(|b| *b == 0).any(|kv| kv == marker.as_bytes()))
            .unwrap_or(false);
        if is_zombie_child || has_marker {
            leftovers.push((pid, state.to_string(), is_child));
        }
    }
    assert!(
        leftovers.is_empty(),
        "slave children leaked past the supervisor: {leftovers:?}"
    );
}

//! End-to-end tests of the `bighouse` binary.

use std::process::Command;

/// Sysexits-style exit codes (mirrors the constants in `main.rs`).
const EXIT_USAGE: i32 = 64;
const EXIT_SPEC: i32 = 65;
const EXIT_QUARANTINED: i32 = 69;
const EXIT_AUDIT: i32 = 70;

fn bighouse() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bighouse"))
}

fn temp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bighouse-cli-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn help_lists_commands() {
    let out = bighouse().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "run",
        "sweep",
        "workloads",
        "export-workload",
        "example-config",
    ] {
        assert!(text.contains(cmd), "help is missing `{cmd}`");
    }
}

#[test]
fn no_args_prints_usage() {
    let out = bighouse().output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = bighouse().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn workloads_lists_table1() {
    let out = bighouse().arg("workloads").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["DNS", "Mail", "Shell", "Google", "Web"] {
        assert!(text.contains(name), "missing workload {name}");
    }
}

#[test]
fn example_config_is_valid_json() {
    let out = bighouse().arg("example-config").output().expect("spawn");
    assert!(out.status.success());
    let parsed: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("template must be valid JSON");
    assert!(parsed.get("workload").is_some());
}

#[test]
fn export_then_run_round_trip() {
    let dir = temp_dir().join("round-trip");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let workload_path = dir.join("dns.json");
    let out = bighouse()
        .args(["export-workload", "dns", workload_path.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A small, fast experiment referencing the exported file.
    let spec = serde_json::json!({
        "workload": { "file": workload_path.to_str().unwrap() },
        "servers": 1,
        "cores": 4,
        "utilization": 0.4,
        "accuracy": 0.2,
        "warmup": 50,
        "calibration": 500,
        "max_events": 5_000_000u64,
    });
    let spec_path = dir.join("exp.json");
    std::fs::write(&spec_path, spec.to_string()).expect("write spec");

    let report_path = dir.join("report.json");
    let out = bighouse()
        .args([
            "run",
            spec_path.to_str().unwrap(),
            "seed=3",
            &format!("out={}", report_path.display()),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("converged: true"), "output: {text}");
    assert!(text.contains("response_time"));

    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&report_path).expect("report written"))
            .expect("report is JSON");
    assert_eq!(report["converged"], serde_json::Value::Bool(true));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_run_can_resume() {
    let dir = temp_dir().join("resume-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = serde_json::json!({
        "workload": { "standard": "web" },
        "utilization": 0.5,
        "accuracy": 0.2,
        "warmup": 50,
        "calibration": 500,
    });
    let spec_path = dir.join("exp.json");
    std::fs::write(&spec_path, spec.to_string()).expect("write spec");
    let ckpt_dir = dir.join("ckpt");
    let first_out = dir.join("first.json");
    let out = bighouse()
        .args([
            "run",
            spec_path.to_str().unwrap(),
            "seed=11",
            &format!("checkpoint-dir={}", ckpt_dir.display()),
            "epoch-events=20000",
            &format!("out={}", first_out.display()),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ckpt_dir.join("bighouse.ckpt").exists(), "snapshot written");

    // Resuming the finished run re-emits its report without simulating.
    let second_out = dir.join("second.json");
    let out = bighouse()
        .args([
            "run",
            spec_path.to_str().unwrap(),
            "seed=11",
            &format!("checkpoint-dir={}", ckpt_dir.display()),
            "epoch-events=20000",
            "--resume",
            &format!("out={}", second_out.display()),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("(resumed)"));
    let read = |p: &std::path::Path| -> serde_json::Value {
        serde_json::from_str(&std::fs::read_to_string(p).expect("report written"))
            .expect("report is JSON")
    };
    let (a, b) = (read(&first_out), read(&second_out));
    assert_eq!(
        a["estimates"], b["estimates"],
        "resume must re-emit the same estimates"
    );
    assert_eq!(a["events_fired"], b["events_fired"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_flag_writes_snapshot_and_keeps_estimates_identical() {
    let dir = temp_dir().join("telemetry-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = serde_json::json!({
        "workload": { "standard": "web" },
        "utilization": 0.5,
        "accuracy": 0.2,
        "warmup": 50,
        "calibration": 500,
    });
    let spec_path = dir.join("exp.json");
    std::fs::write(&spec_path, spec.to_string()).expect("write spec");

    let plain_out = dir.join("plain.json");
    let out = bighouse()
        .args([
            "run",
            spec_path.to_str().unwrap(),
            "seed=7",
            &format!("out={}", plain_out.display()),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let instr_out = dir.join("instrumented.json");
    let tel_out = dir.join("telemetry.json");
    let out = bighouse()
        .args([
            "run",
            spec_path.to_str().unwrap(),
            "seed=7",
            &format!("out={}", instr_out.display()),
            &format!("telemetry={}", tel_out.display()),
            "--telemetry-summary",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("telemetry:"), "summary table missing: {text}");
    assert!(
        text.contains("counters:"),
        "summary table missing counters: {text}"
    );

    let read = |p: &std::path::Path| -> serde_json::Value {
        serde_json::from_str(&std::fs::read_to_string(p).expect("file written"))
            .expect("valid JSON")
    };
    // The tentpole guarantee, end to end: instrumentation changes nothing.
    let (plain, instrumented) = (read(&plain_out), read(&instr_out));
    assert_eq!(
        plain["estimates"], instrumented["estimates"],
        "telemetry must not perturb the estimates"
    );
    assert_eq!(plain["events_fired"], instrumented["events_fired"]);
    // The plain report carries no telemetry section at all.
    assert!(plain["runtime"].get("telemetry").is_none());
    // The snapshot file is well-formed and covers every layer.
    let snap = read(&tel_out);
    assert!(snap["counters"]["des.events_fired"].as_u64().unwrap() > 0);
    assert!(snap["counters"]["stats.samples_recorded"].as_u64().unwrap() > 0);
    assert!(
        snap["histograms"]["sim.queue_depth"]["count"]
            .as_u64()
            .unwrap()
            > 0
    );
    assert!(snap["wall"]["wall_seconds"].as_f64().is_some());
    // And the embedded report section matches the standalone file's
    // deterministic parts.
    assert_eq!(
        instrumented["runtime"]["telemetry"]["counters"],
        snap["counters"]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_without_checkpoint_dir_is_rejected() {
    let out = bighouse()
        .args(["run", "/nonexistent/exp.json", "--resume"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("checkpoint-dir"));
}

#[test]
fn run_rejects_missing_file() {
    let out = bighouse()
        .args(["run", "/nonexistent/exp.json"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn exit_codes_classify_failures() {
    // Usage errors: EX_USAGE (64).
    let out = bighouse().arg("frobnicate").output().expect("spawn");
    assert_eq!(out.status.code(), Some(EXIT_USAGE), "unknown command");
    let out = bighouse().arg("run").output().expect("spawn");
    assert_eq!(out.status.code(), Some(EXIT_USAGE), "run without a spec");
    let out = bighouse()
        .args(["sweep", "/nonexistent/sweep.json", "--resume"])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(EXIT_USAGE),
        "sweep --resume without checkpoint-dir"
    );

    // Spec errors: EX_DATAERR (65).
    let dir = temp_dir().join("exit-codes");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad_spec = dir.join("bad.json");
    std::fs::write(
        &bad_spec,
        r#"{"workload": {"standard": "web"}, "accuracy": -0.5}"#,
    )
    .expect("write spec");
    let out = bighouse()
        .args(["run", bad_spec.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(EXIT_SPEC),
        "invalid experiment spec"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("accuracy"));
    let bad_sweep = dir.join("bad-sweep.json");
    std::fs::write(
        &bad_sweep,
        r#"{"base": {"workload": {"standard": "web"}}, "axes": {"nosuch": [1]}}"#,
    )
    .expect("write spec");
    let out = bighouse()
        .args(["sweep", bad_sweep.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(EXIT_SPEC), "invalid sweep axis");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_violation_exits_70() {
    // A storm budget of 0.5 events per simulated second trips the
    // event-storm breaker on any healthy run — the run stops with an
    // honest partial report and the CLI must exit EX_SOFTWARE.
    let dir = temp_dir().join("audit-exit");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = serde_json::json!({
        "workload": { "standard": "web" },
        "utilization": 0.5,
        "accuracy": 0.2,
        "warmup": 50,
        "calibration": 500,
        "paranoid": {
            "storm_budget_events_per_sim_second": 0.5,
            "storm_window_events": 1000,
        },
    });
    let spec_path = dir.join("exp.json");
    std::fs::write(&spec_path, spec.to_string()).expect("write spec");
    let out = bighouse()
        .args(["run", spec_path.to_str().unwrap(), "seed=3"])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(EXIT_AUDIT),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("invariant audit failed"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_runs_a_grid_and_reports_a_trend() {
    let dir = temp_dir().join("sweep-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sweep = serde_json::json!({
        "base": {
            "workload": { "standard": "web" },
            "accuracy": 0.2,
            "warmup": 50,
            "calibration": 500,
        },
        "axes": { "utilization": [0.3, 0.6] },
        "workers": 2,
        "epoch_events": 50_000u64,
    });
    let sweep_path = dir.join("sweep.json");
    std::fs::write(&sweep_path, sweep.to_string()).expect("write spec");
    let report_path = dir.join("report.json");
    let out = bighouse()
        .args([
            "sweep",
            sweep_path.to_str().unwrap(),
            "seed=9",
            &format!("out={}", report_path.display()),
        ])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2/2 completed"), "output: {text}");
    assert!(text.contains("utilization=0.3"), "output: {text}");

    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&report_path).expect("report written"))
            .expect("report is JSON");
    assert_eq!(report["total_configs"], 2);
    assert_eq!(report["completed"].as_array().unwrap().len(), 2);
    assert_eq!(report["quarantined"].as_array().unwrap().len(), 0);
    // Ids sort deterministically; seeds derive from ids, not positions.
    assert_eq!(report["completed"][0]["id"], "utilization=0.3");
    assert_eq!(report["completed"][1]["id"], "utilization=0.6");
    assert_ne!(
        report["completed"][0]["seed"],
        report["completed"][1]["seed"]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_quarantines_poison_configs_and_exits_69() {
    // Sweeping the paranoid block itself: one grid point is healthy, one
    // carries an impossible storm budget that fails every attempt. The
    // sweep must finish the healthy config, quarantine the poison one,
    // and exit EX_UNAVAILABLE — after writing the report.
    let dir = temp_dir().join("sweep-poison-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sweep = serde_json::json!({
        "base": {
            "workload": { "standard": "web" },
            "utilization": 0.5,
            "accuracy": 0.2,
            "warmup": 50,
            "calibration": 500,
        },
        "axes": {
            "paranoid": [
                null,
                { "storm_budget_events_per_sim_second": 0.5, "storm_window_events": 1000 },
            ],
        },
        "workers": 2,
        "max_retries": 1,
    });
    let sweep_path = dir.join("sweep.json");
    std::fs::write(&sweep_path, sweep.to_string()).expect("write spec");
    let report_path = dir.join("report.json");
    let out = bighouse()
        .args([
            "sweep",
            sweep_path.to_str().unwrap(),
            "seed=5",
            &format!("out={}", report_path.display()),
        ])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(EXIT_QUARANTINED),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&report_path).expect("report written"))
            .expect("report is JSON");
    assert_eq!(report["completed"].as_array().unwrap().len(), 1);
    assert_eq!(report["completed"][0]["id"], "paranoid=null");
    let quarantined = report["quarantined"].as_array().unwrap();
    assert_eq!(quarantined.len(), 1);
    // max_retries = 1 → exactly two attempts before quarantine.
    assert_eq!(quarantined[0]["attempts"], 2);
    assert!(quarantined[0]["error"].get("AuditFailed").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_resume_reemits_identical_results() {
    let dir = temp_dir().join("sweep-resume-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sweep = serde_json::json!({
        "base": {
            "workload": { "standard": "web" },
            "accuracy": 0.2,
            "warmup": 50,
            "calibration": 500,
        },
        "axes": { "utilization": [0.4, 0.7] },
        "workers": 2,
        "epoch_events": 50_000u64,
    });
    let sweep_path = dir.join("sweep.json");
    std::fs::write(&sweep_path, sweep.to_string()).expect("write spec");
    let ckpt = dir.join("ckpt");
    let first = dir.join("first.json");
    let out = bighouse()
        .args([
            "sweep",
            sweep_path.to_str().unwrap(),
            "seed=13",
            &format!("checkpoint-dir={}", ckpt.display()),
            &format!("out={}", first.display()),
        ])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ckpt.join("bighouse.sweep").exists(), "sweep ledger written");

    // Resuming the finished sweep re-emits every result from the ledger.
    let second = dir.join("second.json");
    let out = bighouse()
        .args([
            "sweep",
            sweep_path.to_str().unwrap(),
            "seed=13",
            &format!("checkpoint-dir={}", ckpt.display()),
            "--resume",
            &format!("out={}", second.display()),
        ])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |p: &std::path::Path| -> serde_json::Value {
        serde_json::from_str(&std::fs::read_to_string(p).expect("report written"))
            .expect("report is JSON")
    };
    let (a, b) = (read(&first), read(&second));
    assert_eq!(
        a["completed"], b["completed"],
        "resume must be bit-identical"
    );
    assert_eq!(a["quarantined"], b["quarantined"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn export_rejects_unknown_workload() {
    let dir = temp_dir().join("unknown-workload");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = bighouse()
        .args([
            "export-workload",
            "nosuch",
            dir.join("x.json").to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// The hidden slave entrypoint must fail closed: with no master on the
/// other end of stdin there is no hello frame, and the child exits with
/// the frame-protocol code (65) without touching any user-facing path.
#[test]
fn slave_entrypoint_without_a_master_fails_closed() {
    let out = bighouse()
        .arg("__slave")
        .stdin(std::process::Stdio::null())
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(65),
        "EOF before hello is EX_DATAERR"
    );
    assert!(out.stdout.is_empty(), "no frames may be emitted");
}

/// Writes a parallel experiment spec and returns its path.
fn parallel_spec(dir: &std::path::Path, accuracy: f64, slaves: u64) -> std::path::PathBuf {
    let spec = serde_json::json!({
        "workload": { "standard": "web" },
        "utilization": 0.5,
        "accuracy": accuracy,
        "warmup": 50,
        "calibration": 500,
        "slaves": slaves,
        "max_events": 100_000_000u64,
    });
    let path = dir.join("parallel.json");
    std::fs::write(&path, spec.to_string()).expect("write spec");
    path
}

/// A slave SIGKILLed mid-run under the process backend must be
/// resurrected (respawn counter > 0) and the final report must be
/// bit-identical to an undisturbed in-process run on the default thread
/// backend — the CLI face of the determinism-under-fire contract, and the
/// same comparison the `proc-chaos-smoke` CI job makes with `jq`.
#[test]
fn slave_processes_chaos_run_matches_lockstep_bit_for_bit() {
    let dir = temp_dir().join("proc-chaos");
    std::fs::create_dir_all(&dir).expect("temp dir");
    // Tight enough to span several 50 000-event epochs: the kill arms on
    // the victim's first epoch checkpoint.
    let spec_path = parallel_spec(&dir, 0.01, 2);
    let clean_path = dir.join("clean.json");
    let chaos_path = dir.join("chaos.json");

    let clean = bighouse()
        .args([
            "run",
            spec_path.to_str().unwrap(),
            "seed=7",
            "epoch-events=50000",
            &format!("out={}", clean_path.display()),
        ])
        .output()
        .expect("spawn");
    assert!(
        clean.status.success(),
        "clean run failed: {}",
        String::from_utf8_lossy(&clean.stderr)
    );

    let chaos = bighouse()
        .args([
            "run",
            spec_path.to_str().unwrap(),
            "seed=7",
            "backend=processes",
            "epoch-events=50000",
            &format!("out={}", chaos_path.display()),
        ])
        .env("BIGHOUSE_PROC_CHAOS", "kill:1")
        .output()
        .expect("spawn");
    assert!(
        chaos.status.success(),
        "chaos run failed: {}",
        String::from_utf8_lossy(&chaos.stderr)
    );
    let text = String::from_utf8_lossy(&chaos.stdout);
    let resurrections: u64 = text
        .lines()
        .find_map(|l| {
            l.strip_prefix("supervision: ")?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .expect("supervision line present");
    assert!(resurrections >= 1, "the SIGKILL chaos never fired: {text}");

    let clean_report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&clean_path).unwrap()).unwrap();
    let chaos_report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&chaos_path).unwrap()).unwrap();
    // The pooled cluster summary too: a resurrection that counted the
    // replayed epoch's totals twice would keep the estimates and move it.
    assert!(clean_report["cluster"]["jobs_completed"].as_u64().unwrap() > 0);
    for key in ["estimates", "cluster", "simulated_seconds"] {
        assert_eq!(
            clean_report[key], chaos_report[key],
            "a SIGKILLed slave must replay to an identical `{key}`"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGHUP must behave exactly like SIGTERM: the master winds the run
/// down gracefully (exit 0, partial estimates) and leaves no slave
/// child behind — not running, not zombied.
#[cfg(unix)]
#[test]
fn sighup_winds_down_process_backend_without_orphans() {
    let dir = temp_dir().join("sighup");
    std::fs::create_dir_all(&dir).expect("temp dir");
    // An accuracy target this run cannot hit quickly: the master will
    // still be supervising when the signal lands.
    let spec_path = parallel_spec(&dir, 0.005, 2);
    let mut master = bighouse()
        .args([
            "run",
            spec_path.to_str().unwrap(),
            "seed=11",
            "backend=processes",
            "epoch-events=50000",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn master");
    let master_pid = master.id();
    // Let calibration finish and the slave children come up.
    std::thread::sleep(std::time::Duration::from_millis(1500));
    let hup = std::process::Command::new("kill")
        .args(["-HUP", &master_pid.to_string()])
        .status()
        .expect("send SIGHUP");
    assert!(hup.success(), "kill -HUP failed");

    // The master must exit cleanly within the wind-down budget.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = master.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "master ignored SIGHUP for 30s"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    assert!(status.success(), "graceful wind-down exits 0: {status:?}");

    // No slave child survives: scan /proc for our master's slave marker.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let marker = format!("BIGHOUSE_PROCSLAVE={master_pid}");
    let mut leftovers = Vec::new();
    if let Ok(entries) = std::fs::read_dir("/proc") {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
                continue;
            };
            if std::fs::read(format!("/proc/{pid}/environ"))
                .map(|env| env.split(|b| *b == 0).any(|kv| kv == marker.as_bytes()))
                .unwrap_or(false)
            {
                leftovers.push(pid);
            }
        }
    }
    assert!(
        leftovers.is_empty(),
        "orphaned slave children: {leftovers:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `sweep backend=processes` quarantines a config whose child cannot even
/// spawn the experiment — here the poison is an impossible audit budget, which
/// under process isolation still ends as a typed quarantine and exit 69,
/// with the healthy config completing normally.
#[test]
fn isolated_sweep_still_quarantines_and_completes_neighbors() {
    let dir = temp_dir().join("isolated-sweep");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sweep = serde_json::json!({
        "base": {
            "workload": { "standard": "web" },
            "accuracy": 0.2,
            "warmup": 50,
            "calibration": 500,
        },
        "axes": {
            "paranoid": [
                null,
                { "storm_budget_events_per_sim_second": 1e-9, "storm_window_events": 100 },
            ],
        },
        "workers": 2,
        "max_retries": 0,
        "epoch_events": 50_000u64,
    });
    let sweep_path = dir.join("sweep.json");
    std::fs::write(&sweep_path, sweep.to_string()).expect("write spec");
    let report_path = dir.join("report.json");
    let out = bighouse()
        .args([
            "sweep",
            sweep_path.to_str().unwrap(),
            "seed=13",
            "backend=processes",
            &format!("out={}", report_path.display()),
        ])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(EXIT_QUARANTINED),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    assert_eq!(report["completed"].as_array().unwrap().len(), 1);
    assert_eq!(report["quarantined"].as_array().unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

//! End-to-end tests of the `bighouse` binary.

use std::ffi::OsStr;
use std::path::Path;
use std::process::Command;

use bighouse_json::Value;

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

/// The path of a checked-in spec under `ci/specs/`.
fn fixture(name: &str) -> String {
    format!("{}/../../ci/specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Runs `bighouse args…`, asserts it exits 0 and returns its stdout.
fn succeed<S: AsRef<OsStr> + std::fmt::Debug>(args: &[S]) -> String {
    let out = bighouse().args(args).output().expect("spawn");
    assert!(
        out.status.success(),
        "bighouse {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Parses a JSON file the binary wrote.
fn read_json(path: &Path) -> Value {
    bighouse_json::from_str(&std::fs::read_to_string(path).expect("file written"))
        .expect("valid JSON")
}

/// Starts `bighouse args…`, SIGKILLs it as soon as `marker` (its first
/// checkpoint or ledger) exists, and asserts that the kill, not the run's
/// own end, stopped it.
#[cfg(unix)]
fn kill_once_written<S: AsRef<OsStr> + std::fmt::Debug>(args: &[S], marker: &Path) {
    use std::os::unix::process::ExitStatusExt;
    let mut child = bighouse()
        .args(args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn");
    while !marker.exists() {
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("bighouse {args:?} ended ({status}) without writing {marker:?}");
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    child.kill().expect("SIGKILL");
    let status = child.wait().expect("wait");
    assert_eq!(
        status.signal(),
        Some(9),
        "bighouse {args:?} ended ({status}) before the kill landed"
    );
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
    let parsed: bighouse_json::Value =
        bighouse_json::from_slice(&out.stdout).expect("template must be valid JSON");
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
    let spec = format!(
        r#"{{
        "workload": {{ "file": {workload} }},
        "servers": 1,
        "cores_per_server": 4,
        "utilization": 0.4,
        "target_accuracy": 0.2,
        "warmup": 50,
        "calibration": 500,
        "max_events": 5000000
    }}"#,
        workload = bighouse_json::to_string(workload_path.to_str().unwrap()),
    );
    let spec_path = dir.join("exp.json");
    std::fs::write(&spec_path, spec).expect("write spec");

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

    let report = read_json(&report_path);
    assert_eq!(report["converged"], Value::Bool(true));
    std::fs::remove_dir_all(&dir).ok();
}

/// A run SIGKILLed mid-flight and resumed from its checkpoint converges
/// to the estimates of an uninterrupted run, bit for bit; resuming a
/// finished run re-emits its report without simulating.
#[cfg(unix)]
#[test]
fn checkpointed_run_can_resume() {
    let dir = temp_dir().join("resume-e2e");
    let _ = std::fs::remove_dir_all(&dir); // the kill waits for a fresh file
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = fixture("crash.json");
    let run = |ckpt: &str, rest: &[&str]| -> Vec<String> {
        let mut args = vec![
            "run".to_owned(),
            spec.clone(),
            "seed=2012".to_owned(),
            format!("checkpoint-dir={}", dir.join(ckpt).display()),
            "epoch-events=100000".to_owned(),
        ];
        args.extend(rest.iter().map(|s| s.to_string()));
        args
    };
    let out = |name: &str| format!("out={}", dir.join(name).display());

    succeed(&run("ref", &[&out("ref.json")]));
    assert!(dir.join("ref/bighouse.ckpt").exists(), "snapshot written");
    let reference = read_json(&dir.join("ref.json"));

    // Resuming the finished run re-emits its report without simulating.
    let stdout = succeed(&run("ref", &["--resume", &out("again.json")]));
    assert!(stdout.contains("(resumed)"));
    let again = read_json(&dir.join("again.json"));
    assert_eq!(
        reference["estimates"], again["estimates"],
        "resume must re-emit the same estimates"
    );
    assert_eq!(reference["events_fired"], again["events_fired"]);

    kill_once_written(&run("crash", &[]), &dir.join("crash/bighouse.ckpt"));
    succeed(&run("crash", &["--resume", &out("resumed.json")]));
    let resumed = read_json(&dir.join("resumed.json"));
    assert_eq!(
        reference["estimates"], resumed["estimates"],
        "a killed and resumed run must match the uninterrupted one"
    );
    assert_eq!(resumed["converged"], Value::Bool(true));
    std::fs::remove_dir_all(&dir).ok();
}

/// Neither `telemetry=` nor `--paranoid` may change an estimate; the
/// snapshot covers every layer, and the auditor sweeps and finds the run
/// clean.
#[test]
fn telemetry_and_paranoid_flags_keep_estimates_identical() {
    let dir = temp_dir().join("telemetry-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = fixture("paranoid.json");
    let run = |rest: &[&str]| {
        let mut args = vec!["run", &spec, "seed=2012"];
        args.extend_from_slice(rest);
        succeed(&args)
    };
    let out = |name: &str| dir.join(name);
    run(&[&format!("out={}", out("plain.json").display())]);
    let text = run(&[
        &format!("out={}", out("instrumented.json").display()),
        &format!("telemetry={}", out("telemetry.json").display()),
        "--telemetry-summary",
    ]);
    assert!(text.contains("telemetry:"), "summary table missing: {text}");
    assert!(
        text.contains("counters:"),
        "summary table missing counters: {text}"
    );
    run(&[
        "--paranoid",
        &format!("out={}", out("audited.json").display()),
    ]);

    // The tentpole guarantee, end to end: instrumentation changes nothing.
    let plain = read_json(&out("plain.json"));
    let instrumented = read_json(&out("instrumented.json"));
    assert_eq!(
        plain["estimates"], instrumented["estimates"],
        "telemetry must not perturb the estimates"
    );
    assert_eq!(plain["events_fired"], instrumented["events_fired"]);
    // The plain report carries no telemetry section at all.
    assert!(plain["runtime"].get("telemetry").is_none());
    // The snapshot file is well-formed and covers every layer.
    let snap = read_json(&out("telemetry.json"));
    assert!(snap["counters"]["des.events_fired"].as_u64().unwrap() > 0);
    assert!(snap["counters"]["stats.samples_recorded"].as_u64().unwrap() > 0);
    assert!(
        snap["histograms"]["sim.queue_depth"]["count"]
            .as_u64()
            .unwrap()
            > 0
    );
    assert!(snap["wall"]["wall_seconds"].as_f64().unwrap() > 0.0);
    // And the embedded report section matches the standalone file's
    // deterministic parts.
    assert_eq!(
        instrumented["runtime"]["telemetry"]["counters"],
        snap["counters"]
    );

    let audited = read_json(&out("audited.json"));
    assert_eq!(
        plain["estimates"], audited["estimates"],
        "the auditor must not perturb the estimates"
    );
    assert_eq!(audited["converged"], Value::Bool(true));
    let audit = &audited["audit"];
    assert_eq!(audit["enabled"], Value::Bool(true));
    assert_eq!(
        audit["violations"].as_array().unwrap().len(),
        0,
        "{audit:?}"
    );
    assert!(audit["checks_run"].as_u64().unwrap() > 0);
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
        r#"{"workload": {"standard": "web"}, "target_accuracy": -0.5}"#,
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
    assert!(String::from_utf8_lossy(&out.stderr).contains("target_accuracy"));
    // A hostile idle policy is refused by name, never a panic.
    for policy in [
        r#"{"PowerNap": {"wake_latency": -1.0}}"#,
        r#"{"DreamWeaver": {"max_delay": "NaN", "wake_latency": 0.001}}"#,
    ] {
        let bad_policy = dir.join("bad-policy.json");
        std::fs::write(
            &bad_policy,
            format!(r#"{{"workload": {{"standard": "web"}}, "idle_policy": {policy}}}"#),
        )
        .expect("write spec");
        let out = bighouse()
            .args(["run", bad_policy.to_str().unwrap()])
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(EXIT_SPEC), "{policy}: {stderr}");
        assert!(stderr.contains("idle_policy."), "{stderr}");
    }
    // A run-shape argument a run would ignore is a usage error, whatever
    // the file holds.
    for rest in [
        &["backend=bogus"][..],
        &["backend=threads"],
        &["slave-mem-mb=xyz"],
        &["slave-cpu-secs=5"],
        &["checkpoint-interval=5"],
        &["epoch-events=5"],
        &["slaves=0"],
        &["epoch-events=0", "checkpoint-dir=/nonexistent/ckpt"],
        &["slaves=2", "epoch-events=0"],
        &["slaves=2", "slave-mem-mb=xyz"],
        &["slaves=2", "checkpoint-dir=/nonexistent/ckpt"],
    ] {
        let out = bighouse()
            .args(["run", bad_spec.to_str().unwrap()])
            .args(rest)
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(EXIT_USAGE), "{rest:?}: {stderr}");
    }
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
    // A number no f64 holds is refused by the parser, naming its field.
    let out = bighouse()
        .args(["run", &fixture("hostile.json")])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_SPEC), "hostile spec: {stderr}");
    assert!(stderr.contains("target_accuracy"), "{stderr}");
    assert!(!stderr.to_lowercase().contains("panic"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_violation_exits_70() {
    // A storm budget of 0.5 events per simulated second trips the
    // event-storm breaker on any healthy run — the run stops with an
    // honest partial report and the CLI must exit EX_SOFTWARE.
    let dir = temp_dir().join("audit-exit");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = r#"{
        "workload": { "standard": "web" },
        "utilization": 0.5,
        "target_accuracy": 0.2,
        "warmup": 50,
        "calibration": 500,
        "audit": {
            "storm_budget_events_per_sim_second": 0.5,
            "storm_window_events": 1000
        }
    }"#;
    let spec_path = dir.join("exp.json");
    std::fs::write(&spec_path, spec).expect("write spec");
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
    let sweep = r#"{
        "base": {
            "workload": { "standard": "web" },
            "target_accuracy": 0.2,
            "warmup": 50,
            "calibration": 500
        },
        "axes": { "utilization": [0.3, 0.6] },
        "workers": 2,
        "epoch_events": 50000
    }"#;
    let sweep_path = dir.join("sweep.json");
    std::fs::write(&sweep_path, sweep).expect("write spec");
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

    let report = read_json(&report_path);
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
    // Sweeping the audit block itself: one grid point is healthy, one
    // carries an impossible storm budget that fails every attempt. The
    // sweep must finish the healthy config, quarantine the poison one,
    // and exit EX_UNAVAILABLE — after writing the report.
    let dir = temp_dir().join("sweep-poison-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let report_path = dir.join("report.json");
    let out = bighouse()
        .args([
            "sweep",
            &fixture("sweep-poison.json"),
            "seed=7",
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
    let report = read_json(&report_path);
    assert_eq!(report["completed"].as_array().unwrap().len(), 1);
    assert_eq!(report["completed"][0]["id"], "audit=null");
    let quarantined = report["quarantined"].as_array().unwrap();
    assert_eq!(quarantined.len(), 1);
    // max_retries = 1 → exactly two attempts before quarantine.
    assert_eq!(quarantined[0]["attempts"], 2);
    assert!(quarantined[0]["error"].get("AuditFailed").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

/// What a sweep's results must not owe to how it ran — interrupted or
/// not, on threads or child processes: each config's id, seed, attempts,
/// events and estimates.
fn per_config(report: &Value) -> Vec<[Value; 5]> {
    report["completed"]
        .as_array()
        .unwrap()
        .iter()
        .map(|c| {
            [
                c["id"].clone(),
                c["seed"].clone(),
                c["attempts"].clone(),
                c["report"]["events_fired"].clone(),
                c["report"]["estimates"].clone(),
            ]
        })
        .collect()
}

/// A sweep SIGKILLed mid-flight and resumed from its ledger reports every
/// config bit for bit as an uninterrupted sweep does, and so does the same
/// grid with one child process per attempt.
#[cfg(unix)]
#[test]
fn sweep_resume_reemits_identical_results() {
    let dir = temp_dir().join("sweep-resume-e2e");
    let _ = std::fs::remove_dir_all(&dir); // the kill waits for a fresh file
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = fixture("sweep.json");
    let sweep = |rest: &[&str]| -> Vec<String> {
        let mut args = vec!["sweep".to_owned(), spec.clone(), "seed=2012".to_owned()];
        args.extend(rest.iter().map(|s| s.to_string()));
        args
    };
    let ckpt = |name: &str| format!("checkpoint-dir={}", dir.join(name).display());
    let out = |name: &str| format!("out={}", dir.join(name).display());

    succeed(&sweep(&[&ckpt("ref"), &out("ref.json")]));
    assert!(
        dir.join("ref/bighouse.sweep").exists(),
        "sweep ledger written"
    );
    let reference = read_json(&dir.join("ref.json"));
    assert_eq!(reference["completed"].as_array().unwrap().len(), 6);
    assert_eq!(reference["quarantined"].as_array().unwrap().len(), 0);

    // Resuming the finished sweep re-emits every result from the ledger.
    succeed(&sweep(&[&ckpt("ref"), "--resume", &out("again.json")]));
    let again = read_json(&dir.join("again.json"));
    assert_eq!(
        reference["completed"], again["completed"],
        "resume must be bit-identical"
    );
    assert_eq!(reference["quarantined"], again["quarantined"]);

    kill_once_written(&sweep(&[&ckpt("crash")]), &dir.join("crash/bighouse.sweep"));
    succeed(&sweep(&[&ckpt("crash"), "--resume", &out("resumed.json")]));
    let resumed = read_json(&dir.join("resumed.json"));
    assert_eq!(per_config(&reference), per_config(&resumed));
    assert_eq!(resumed["quarantined"].as_array().unwrap().len(), 0);

    succeed(&sweep(&["backend=processes", &out("procs.json")]));
    assert_eq!(
        per_config(&reference),
        per_config(&read_json(&dir.join("procs.json"))),
        "thread and process transports must agree"
    );
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

/// Writes an experiment spec for a parallel run and returns its path.
fn parallel_spec(dir: &Path, accuracy: f64) -> std::path::PathBuf {
    let spec = format!(
        r#"{{
        "workload": {{ "standard": "web" }},
        "utilization": 0.5,
        "target_accuracy": {accuracy:?},
        "warmup": 50,
        "calibration": 500,
        "max_events": 100000000
    }}"#
    );
    let path = dir.join("parallel.json");
    std::fs::write(&path, spec).expect("write spec");
    path
}

/// `backend=processes` runs each slave as a `bighouse __slave` child; its
/// report must be bit-identical to the default thread backend's. (A slave
/// SIGKILLed or aborted mid-epoch replays to the same report:
/// `procslave_e2e` in bighouse-sim.)
#[test]
fn process_backend_run_matches_threads_bit_for_bit() {
    let dir = temp_dir().join("proc-backend");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = fixture("proc.json");
    let run = |rest: &[&str]| {
        let mut args = vec!["run", &spec, "seed=7", "slaves=2", "epoch-events=50000"];
        args.extend_from_slice(rest);
        succeed(&args)
    };
    let (threads_out, procs_out) = (dir.join("threads.json"), dir.join("procs.json"));
    run(&[&format!("out={}", threads_out.display())]);
    run(&["backend=processes", &format!("out={}", procs_out.display())]);
    let (threads, procs) = (read_json(&threads_out), read_json(&procs_out));
    // A parallel report carries the slaves' pooled cluster summary, not a
    // zero shell.
    assert!(threads["cluster"]["jobs_completed"].as_u64().unwrap() > 0);
    assert!(threads["simulated_seconds"].as_f64().unwrap() > 0.0);
    for key in ["estimates", "cluster", "simulated_seconds"] {
        assert_eq!(
            threads[key], procs[key],
            "the transports must agree on `{key}`"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The metastable retry storm behind admission control, through the
/// spec path: the ramp trips the bounded queue, the queue bound holds,
/// the disposition ledger balances exactly, and a second run at the same
/// seed reports the same ledger and estimates.
#[test]
fn retry_storm_ledger_balances_and_is_deterministic() {
    let dir = temp_dir().join("retry-storm");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |name: &str| {
        let path = dir.join(name);
        succeed(&[
            "run",
            &fixture("retry-storm.json"),
            "seed=2012",
            &format!("out={}", path.display()),
        ]);
        read_json(&path)
    };
    let (first, second) = (run("first.json"), run("second.json"));
    let rs = &first["cluster"]["resilience"];
    let n = |key: &str| rs[key].as_u64().unwrap();
    assert_eq!(n("offered"), n("admitted") + n("shed"), "{rs:?}");
    assert_eq!(
        n("admitted"),
        n("goodput") + n("timed_out") + n("in_flight_at_end"),
        "{rs:?}"
    );
    assert!(n("shed") > 0, "the ramp must trip admission control");
    assert!(n("in_flight_at_end") <= 12, "the queue bound must hold");
    assert_eq!(first["estimates"], second["estimates"]);
    assert_eq!(*rs, second["cluster"]["resilience"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Hedged requests through the spec path: hedges launch, wins stay
/// bounded by launches, and the ledger balances.
#[test]
fn hedged_run_wins_at_most_what_it_launches() {
    let dir = temp_dir().join("hedged");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("hedged.json");
    succeed(&[
        "run",
        &fixture("hedged.json"),
        "seed=7",
        &format!("out={}", path.display()),
    ]);
    let report = read_json(&path);
    let rs = &report["cluster"]["resilience"];
    let n = |key: &str| rs[key].as_u64().unwrap();
    assert!(n("hedges_launched") > 0, "{rs:?}");
    assert!(n("hedge_wins") <= n("hedges_launched"), "{rs:?}");
    assert_eq!(
        n("admitted"),
        n("goodput") + n("timed_out") + n("in_flight_at_end"),
        "{rs:?}"
    );
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
    let spec_path = parallel_spec(&dir, 0.005);
    let mut master = bighouse()
        .args([
            "run",
            spec_path.to_str().unwrap(),
            "seed=11",
            "slaves=2",
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
    let sweep = r#"{
        "base": {
            "workload": { "standard": "web" },
            "target_accuracy": 0.2,
            "warmup": 50,
            "calibration": 500
        },
        "axes": {
            "audit": [
                null,
                { "storm_budget_events_per_sim_second": 1e-9, "storm_window_events": 100 }
            ]
        },
        "workers": 2,
        "max_retries": 0,
        "epoch_events": 50000
    }"#;
    let sweep_path = dir.join("sweep.json");
    std::fs::write(&sweep_path, sweep).expect("write spec");
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
    let report = read_json(&report_path);
    assert_eq!(report["completed"].as_array().unwrap().len(), 1);
    assert_eq!(report["quarantined"].as_array().unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// What the one schema reaches that the old experiment files could not:
/// `examples/three_tier.rs`'s 400 req/s pipeline (load-balanced arrivals,
/// two downstream tiers, its own service tables), written by the library,
/// runs through `bighouse run` to the library's estimates bit for bit.
#[test]
fn a_written_three_tier_config_runs_bit_for_bit() {
    use bighouse::prelude::*;
    use bighouse::sim::TierConfig;

    fn empirical(mean: f64, cv: f64, seed: u64) -> Empirical {
        let dist = fit_mean_cv(mean, cv).expect("fittable moments");
        let mut rng = SimRng::from_seed(seed);
        let samples: Vec<f64> = (0..100_000)
            .map(|_| dist.sample(&mut rng).max(1e-12))
            .collect();
        Empirical::from_samples(&samples).expect("non-empty")
    }
    let web = Workload::new(
        "three-tier",
        empirical(1.0 / 400.0, 1.0, 4),
        empirical(0.002, 1.5, 1),
    );
    let config = ExperimentConfig::new(web)
        .with_servers(2)
        .with_cores(2)
        .with_arrival_mode(ArrivalMode::LoadBalanced(BalancerPolicy::JoinShortestQueue))
        .with_tier(TierConfig::new(2, 4, empirical(0.010, 2.0, 2)))
        .with_tier(TierConfig::new(1, 8, empirical(0.015, 1.2, 3)))
        .with_target_accuracy(0.05)
        .with_warmup(500)
        .with_calibration(2000)
        .with_max_events(100_000_000);

    let dir = temp_dir().join("three-tier");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (spec, out) = (dir.join("three_tier.json"), dir.join("report.json"));
    std::fs::write(&spec, bighouse_json::to_string_pretty(&config)).expect("write spec");
    succeed(&[
        "run",
        spec.to_str().unwrap(),
        "seed=11",
        &format!("out={}", out.display()),
    ]);
    let expected = run_serial(&config, 11).expect("valid config");
    assert!(expected.converged);
    let estimates = bighouse_json::to_value(&expected.estimates).expect("estimates");
    assert_eq!(read_json(&out)["estimates"], estimates);
    std::fs::remove_dir_all(&dir).ok();
}

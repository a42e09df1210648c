//! Runs every workload and its trace at smoke scale, and checks that the
//! names the binary emits, the names it declares and the names in
//! `BENCHMARK.json` are the same set.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_bighouse-perf");

const WORKLOADS: [&str; 5] = [
    "fcfs_small",
    "fcfs_1k",
    "capping_1k",
    "tracked_faults",
    "parallel_2",
];

/// `BENCHMARK.json`, found by walking up from the manifest that built
/// this test (the workspace member's or the offline one's).
fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .map(|dir| dir.join("BENCHMARK.json"))
        .find(|path| path.is_file())
        .expect("BENCHMARK.json above the crate");
    std::fs::read_to_string(path).expect("BENCHMARK.json is readable")
}

/// Every `"name": "<x>"` in the file, by substring scan.
fn declared_names(json: &str) -> BTreeSet<String> {
    json.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap().to_owned())
        .collect()
}

/// Runs the binary and returns its standard output; panics unless it
/// exits with `code`.
fn perf(args: &[&str], code: i32) -> String {
    let out = Command::new(BIN).args(args).output().expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(code),
        "bighouse-perf {args:?}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("output is UTF-8")
}

/// The metric names in the line the driver reads, which must be the last.
fn emitted_names(stdout: &str) -> BTreeSet<String> {
    let line = stdout.lines().last().expect("some output");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": ") && line.contains("\"failed\": 0"),
        "not a clean result line: {line}"
    );
    let (_, metrics) = line.split_once("\"metrics\": {").expect("a metrics object");
    metrics
        .split("\": {\"value\": ")
        .map(|before| before.rsplit('"').next().unwrap().to_owned())
        .filter(|name| !name.contains('}'))
        .collect()
}

/// What `BENCHMARK.json` must say about each line of `list`.
fn expected_entry(line: &str) -> String {
    let (kind, rest) = line.split_once(' ').expect("a kind");
    let (name, rest) = rest.split_once(' ').expect("a name");
    match kind {
        "workload" => format!("{{\"name\": \"{name}\", \"why\": \"{rest}\"}}"),
        "end_to_end" => {
            let fields: Vec<&str> = rest.split(' ').collect();
            format!(
                "{{\"name\": \"{name}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                fields[0], fields[1], fields[2]
            )
        }
        "per_layer" => format!("{{\"name\": \"{name}\", \"unit\": \"{rest}\", \"better\": "),
        _ => panic!("unknown kind in `list`: {line}"),
    }
}

#[test]
fn every_workload_runs_and_the_names_match_benchmark_json() {
    let json = benchmark_json();
    let declared = declared_names(&json);
    let list = perf(&["list"], 0);
    for line in list.lines() {
        let entry = expected_entry(line);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        list.lines().count(),
        declared.len(),
        "BENCHMARK.json names something `bighouse-perf list` does not"
    );

    let mut emitted: BTreeSet<String> = WORKLOADS.iter().map(|w| (*w).to_owned()).collect();
    let mut per_run = None;
    let mut per_trace = None;
    for workload in WORKLOADS {
        // The driver's own flag order, through `run`.
        let common = ["--workload", workload, "--seed", "7", "--smoke", "--trace"];
        let run = emitted_names(&perf(&[&["run"][..], &common[..], &["0"][..]].concat(), 0));
        let trace = emitted_names(&perf(&[&["run"][..], &common[..], &["1"][..]].concat(), 0));
        // Every workload reports every metric.
        assert_eq!(per_run.get_or_insert_with(|| run.clone()), &run);
        assert_eq!(per_trace.get_or_insert_with(|| trace.clone()), &trace);
        emitted.extend(run);
        emitted.extend(trace);
    }
    assert_eq!(
        emitted, declared,
        "the binary emits and BENCHMARK.json declares different names"
    );
}

#[test]
fn results_written_by_run_agree_with_themselves() {
    let dir = std::env::temp_dir().join(format!("bighouse-perf-smoke-{}", std::process::id()));
    let (a, b) = (dir.join("a"), dir.join("b"));
    for set in [&a, &b] {
        std::fs::create_dir_all(set).unwrap();
    }
    for workload in WORKLOADS {
        let out = a.join(format!("{workload}.json"));
        perf(
            &[
                "run",
                "--workload",
                workload,
                "--smoke",
                "--out",
                out.to_str().unwrap(),
            ],
            0,
        );
        std::fs::copy(&out, b.join(format!("{workload}.json"))).unwrap();
    }
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    perf(&["agree", a, b], 0);

    // A different event count is a disagreement whatever the timings say.
    let edited = Path::new(b).join("fcfs_1k.json");
    let text = std::fs::read_to_string(&edited).unwrap();
    let line = text
        .lines()
        .find(|l| l.contains("\"events_to_converge.median\""))
        .unwrap();
    std::fs::write(
        &edited,
        text.replace(line, "  \"events_to_converge.median\": 1,"),
    )
    .unwrap();
    perf(&["agree", a, b], 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_full_scale_run_is_refused_from_a_build_with_debug_assertions() {
    if cfg!(debug_assertions) {
        perf(&["run", "--workload", "fcfs_small"], 2);
        perf(&["trace", "--workload", "fcfs_small"], 2);
    }
    perf(&["run", "--workload", "no_such_workload", "--smoke"], 2);
    perf(&["run", "--smoke"], 2);
}

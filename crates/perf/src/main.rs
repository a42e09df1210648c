//! `bighouse-perf`: the repository's benchmark.
//!
//! BigHouse's product is host wall time to a converged estimate at a
//! stated accuracy, so one *operation* here builds a workload and its
//! cluster from nothing and runs it to convergence, and the end-to-end
//! metrics are what a user of the simulator sees of that: set-up time,
//! wall time, event rate, events needed, peak memory. A separate traced
//! run says where the wall time went, layer by layer.
//!
//! ```text
//! bighouse-perf run   --workload <name> [--seed <u64>] [--seconds <s>] [--out <path>]
//! bighouse-perf trace --workload <name> [--seed <u64>] [--seconds <s>] [--out <path>] [--spans <path>]
//! bighouse-perf agree <dir-a> <dir-b>
//! bighouse-perf list
//! ```
//!
//! `run --trace 1` is `trace`; `BENCHMARK.json`'s command ends in `run` and
//! the driver appends the flags. See this crate's README for the workload
//! table, the protocol and how to read the layer metrics.

mod measure;
mod metrics;
mod replay;
mod report;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use bighouse::prelude::MetricKind;

use measure::{failure, operation, peak_rss_mib, Operation, Summary, ORACLE_TOLERANCE};
use metrics::{END_TO_END, PER_LAYER};
use report::Record;
use workloads::{Runner, Scale, WorkloadSpec, WORKLOADS};

/// Stamped into every result; bumped when the protocol or a workload's
/// frozen numbers change, so results of different harnesses are not compared.
const HARNESS: &str = "bighouse-perf/1";
/// The seed the committed baselines were taken with.
const DEFAULT_SEED: u64 = 2012;
/// Timed operations per run when no time budget is given.
const TIMED_OPERATIONS: usize = 9;
/// Exit code for a run that measured but must not be believed.
const FAILED: u8 = 1;
/// Exit code for a run that never started.
const REFUSED: u8 = 2;

/// Parsed command line of `run` and `trace`.
#[derive(Debug)]
struct Args {
    spec: &'static WorkloadSpec,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    scale: Scale,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: bighouse-perf run|trace --workload <{}> [--seed <u64>] [--seconds <s>] \
         [--trace 0|1] [--out <path>] [--spans <path>] [--smoke]\n       \
         bighouse-perf agree <dir-a> <dir-b>\n       \
         bighouse-perf list",
        names.join("|")
    )
}

fn parse_args(mut traced: bool, args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds) = (None, DEFAULT_SEED, None);
    let (mut scale, mut out, mut spans) = (Scale::Full, None, None);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            scale = Scale::Smoke;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read {value}");
        match flag.as_str() {
            "--workload" => workload = Some(workloads::find(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let budget: f64 = value.parse().map_err(|_| bad())?;
                if !(budget.is_finite() && budget > 0.0) {
                    return Err(bad());
                }
                seconds = Some(budget);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
        scale,
        out,
        spans,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The fields every result starts with: what measured, what was measured,
/// and on what.
fn header(kind: &str, args: &Args) -> Record {
    let mut record = Record::default();
    record.text("harness", HARNESS);
    record.text("kind", kind);
    record.text("workload", args.spec.name);
    record.number("seed", args.seed);
    record.text(
        "scale",
        match args.scale {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        },
    );
    record.number("nproc", nproc());
    record.text("rustc", env!("BIGHOUSE_PERF_RUSTC"));
    record
}

/// The line the benchmark driver reads. It is printed only for a run in
/// which nothing failed, so `correct` and `failed` are constants.
fn driver_line(attempted: usize, metrics: &[(&str, f64, &str)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Ends a `run` or `trace`: writes `--out`, then either the driver's line
/// or, if anything failed or a metric is not a finite number, the reasons.
fn finish(
    args: &Args,
    record: &Record,
    attempted: usize,
    mut failures: Vec<String>,
    metrics: &[(&str, f64, &str)],
) -> ExitCode {
    for (name, value, _) in metrics {
        if !value.is_finite() {
            failures.push(format!("{name} is {value}"));
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, record.render()) {
            failures.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    if failures.is_empty() {
        println!("{}", driver_line(attempted, metrics));
        return ExitCode::SUCCESS;
    }
    for failure in &failures {
        eprintln!("FAILED  {failure}");
    }
    ExitCode::from(FAILED)
}

/// One number read off a timed operation.
type Reading = fn(&Operation) -> f64;

/// `run`: one discarded warm-up operation, then the timed ones, each
/// checked for convergence, against the first one's fingerprint, and
/// against the closed form where there is one.
fn run(args: &Args) -> ExitCode {
    let spec = args.spec;
    let expected = spec.oracle.map(|oracle| oracle(&(spec.config)(args.scale)));
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut reference = None;
    let mut rel_err = None;
    let mut timed: Vec<Operation> = Vec::new();
    let mut spent = 0.0;
    // With a time budget: at least three timed operations, then as many as
    // it takes to fill the budget. Without: the protocol's nine.
    while match (args.seconds, args.scale) {
        (Some(budget), _) => timed.len() < 3 || spent < budget,
        (None, Scale::Full) => timed.len() < TIMED_OPERATIONS,
        (None, Scale::Smoke) => timed.len() < 2,
    } {
        attempted += 1;
        let op = match operation(spec, args.scale, args.seed) {
            Ok(op) => op,
            Err(e) => {
                failed += 1;
                failures.push(format!("operation {attempted}: {e}"));
                break;
            }
        };
        let mut why = Vec::new();
        why.extend(failure(&op.outcome));
        let fingerprint = op.outcome.fingerprint();
        let (first, _) = *reference.get_or_insert((fingerprint, op.outcome.events));
        if fingerprint != first {
            why.push(format!(
                "fingerprint {fingerprint:016x} differs from the first operation's {first:016x}"
            ));
        }
        if let Some(expected) = expected {
            let mean = op
                .outcome
                .mean(MetricKind::ResponseTime)
                .unwrap_or(f64::NAN);
            let err = (mean - expected).abs() / expected;
            // A NaN fails too.
            if err.is_nan() || err > ORACLE_TOLERANCE {
                why.push(format!(
                    "mean response {mean} is {err:.4} from the closed form's {expected}"
                ));
            }
            rel_err = Some(err);
        }
        if !why.is_empty() {
            failed += 1;
            failures.extend(why.iter().map(|w| format!("operation {attempted}: {w}")));
        }
        if attempted == 1 {
            continue; // the warm-up: checked, not timed
        }
        spent += op.setup_s + op.wall_s;
        timed.push(op);
    }
    let (Some((fingerprint, events)), false) = (reference, timed.is_empty()) else {
        return finish(args, &header("run", args), attempted, failures, &[]);
    };

    let summary = |f: Reading| Summary::of(&timed.iter().map(f).collect::<Vec<f64>>());
    // The metrics are the timings scaled to the nominal host speed.
    let timings = [
        summary(|op| op.setup_s * op.host_speed),
        summary(|op| op.wall_s * op.host_speed),
        summary(|op| op.outcome.events as f64 / (op.wall_s * op.host_speed)),
    ];
    let medians = [
        timings[0].median,
        timings[1].median,
        timings[2].median,
        events as f64,
        peak_rss_mib().unwrap_or(f64::NAN),
    ];

    let mut record = header("run", args);
    record.number("ops_attempted", attempted);
    record.number("ops_failed", failed);
    record.text("fingerprint", &format!("{fingerprint:016x}"));
    println!(
        "{HARNESS}  run  workload={}  seed={}  nproc={}  {}",
        spec.name,
        args.seed,
        nproc(),
        env!("BIGHOUSE_PERF_RUSTC")
    );
    for (i, (metric, median)) in END_TO_END.iter().zip(medians).enumerate() {
        record.number(&format!("{}.median", metric.name), median);
        print!("  {:<19} {:>16.6} {:<9}", metric.name, median, metric.unit);
        // The three timings carry their spread; the count and the peak are
        // single readings.
        if let Some(t) = timings.get(i) {
            for (stat, value) in [("q1", t.q1), ("q3", t.q3), ("min", t.min), ("max", t.max)] {
                record.number(&format!("{}.{stat}", metric.name), value);
                print!(" {stat} {value:.6}");
            }
            record.number(&format!("{}.n", metric.name), t.n);
            print!(" n {}", t.n);
        }
        println!();
    }
    // Beside them, the speed and the timings as the clock read them.
    let clocked: [(&str, &str, Reading); 3] = [
        ("host_speed", "ratio", |op| op.host_speed),
        ("setup_s.clocked", "s", |op| op.setup_s),
        ("converge_wall_s.clocked", "s", |op| op.wall_s),
    ];
    for (name, unit, f) in clocked {
        let median = summary(f).median;
        record.number(&format!("{name}.median"), median);
        println!("  {name:<23} {median:>12.6} {unit}");
    }
    println!("  {:<19} {fingerprint:016x}", "fingerprint");
    match rel_err {
        Some(err) => {
            record.number("rel_err_vs_analytic", err);
            println!(
                "  {:<19} {err:.6} (mean response against analytic::mmk, tolerance {ORACLE_TOLERANCE})",
                "rel_err_vs_analytic"
            );
        }
        None => {
            record.text("validation", "unvalidated - fingerprint only");
            println!("  {:<19} unvalidated - fingerprint only", "validation");
        }
    }
    println!("  ops_attempted {attempted}  ops_failed {failed}");

    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(medians)
        .map(|(m, median)| (m.name, median, m.unit))
        .collect();
    finish(args, &record, attempted, failures, &metrics)
}

/// `trace`: the separate traced run.
fn traced(args: &Args) -> ExitCode {
    // Each replayed leaf gets a hundredth of the time budget.
    let slice = match (args.seconds, args.scale) {
        (Some(seconds), _) => Duration::from_secs_f64(seconds / 100.0),
        (None, Scale::Full) => Duration::from_millis(150),
        (None, Scale::Smoke) => Duration::from_millis(2),
    };
    let report = match trace::trace(args.spec, args.scale, args.seed, slice) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("FAILED  traced run: {e}");
            return ExitCode::from(FAILED);
        }
    };
    let mut failures = report.failures;
    let mut record = header("trace", args);
    record.number("runs_attempted", report.runs_attempted);
    record.number("runs_failed", report.runs_failed);
    record.text("fingerprint", &format!("{:016x}", report.fingerprint));
    record.number("spans", report.spans.len());
    println!(
        "{HARNESS}  trace  workload={}  seed={}  nproc={}  {}",
        args.spec.name,
        args.seed,
        nproc(),
        env!("BIGHOUSE_PERF_RUSTC")
    );
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        match report.metrics.iter().find(|(n, _)| *n == name) {
            Some(&(_, value)) => {
                record.number(name, value);
                println!("  {name:<40} {value:>18.6} {unit}");
                metrics.push((name, value, unit));
            }
            None => failures.push(format!("{name} was not measured")),
        }
    }
    println!(
        "  fingerprint {:016x}  spans {}  runs_attempted {}  runs_failed {}",
        report.fingerprint,
        report.spans.len(),
        report.runs_attempted,
        report.runs_failed
    );
    if let Some(path) = &args.spans {
        if let Err(e) = report.spans.write(path) {
            failures.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    finish(
        args,
        &record,
        report.runs_attempted as usize,
        failures,
        &metrics,
    )
}

/// `list`: every workload and metric the harness knows, as declared.
/// One per line: kind, name, then what `BENCHMARK.json` says about it.
fn list() {
    for w in &WORKLOADS {
        println!("workload {} {}", w.name, w.why);
    }
    for m in &END_TO_END {
        println!(
            "end_to_end {} {} {} {}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound
        );
    }
    for (name, unit) in PER_LAYER {
        println!("per_layer {name} {unit}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args.first().map(String::as_str) {
        Some("list") => {
            list();
            return ExitCode::SUCCESS;
        }
        Some("agree") if args.len() == 3 => {
            return match report::agree(Path::new(&args[1]), Path::new(&args[2])) {
                Ok(disagreements) if disagreements.is_empty() => {
                    println!("the two sets agree within the benchmark's bounds");
                    ExitCode::SUCCESS
                }
                Ok(disagreements) => {
                    for d in &disagreements {
                        eprintln!("DISAGREE  {d}");
                    }
                    ExitCode::from(FAILED)
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(REFUSED)
                }
            };
        }
        Some("run") => parse_args(false, &args[1..]),
        Some("trace") => parse_args(true, &args[1..]),
        _ => Err("expected run, trace, agree or list".to_owned()),
    };
    let parsed = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(REFUSED);
        }
    };
    if cfg!(debug_assertions) && parsed.scale == Scale::Full {
        eprintln!(
            "this build has debug assertions on; its timings are not the simulator's. \
             Build with --release (or pass --smoke to exercise the harness only)."
        );
        return ExitCode::from(REFUSED);
    }
    if nproc() < 2 && parsed.spec.runner != Runner::Serial {
        eprintln!(
            "warning: nproc = {} < 2: the slaves of {} share a core, so its wall-time metrics are unresolved",
            nproc(),
            parsed.spec.name
        );
    }
    if parsed.traced {
        traced(&parsed)
    } else {
        run(&parsed)
    }
}

//! The harness's own result files — flat JSON, one field per line, written
//! and read here without a JSON library — and `agree`, which holds two
//! sets of them against the benchmark's bounds.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::path::Path;

use crate::metrics::{Better, END_TO_END};
use crate::workloads::WORKLOADS;

/// An ordered list of fields, each rendered as a JSON literal.
#[derive(Debug, Default)]
pub struct Record(Vec<(String, String)>);

impl Record {
    /// Appends a string field.
    pub fn text(&mut self, key: &str, value: &str) {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.0.push((key.to_owned(), format!("\"{escaped}\"")));
    }

    /// Appends a numeric field.
    pub fn number(&mut self, key: &str, value: impl Display) {
        self.0.push((key.to_owned(), value.to_string()));
    }

    /// The record as a JSON object, one field per line.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.0.iter().enumerate() {
            let comma = if i + 1 < self.0.len() { "," } else { "" };
            let _ = writeln!(out, "  \"{key}\": {value}{comma}");
        }
        out.push_str("}\n");
        out
    }
}

/// Reads back what [`Record::render`] wrote: field name to value, strings
/// unquoted. It reads this harness's output and nothing else.
pub fn parse(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut fields = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "{" || line == "}" {
            continue;
        }
        let (key, value) = line
            .split_once("\": ")
            .ok_or_else(|| format!("not a field: {line}"))?;
        let key = key
            .strip_prefix('"')
            .ok_or_else(|| format!("unquoted field name: {line}"))?;
        let value = match value.strip_prefix('"') {
            Some(quoted) => quoted
                .strip_suffix('"')
                .ok_or_else(|| format!("unterminated string: {line}"))?
                .replace("\\\"", "\"")
                .replace("\\\\", "\\"),
            None => value.to_owned(),
        };
        fields.insert(key.to_owned(), value);
    }
    Ok(fields)
}

fn read_set(dir: &Path, workload: &str) -> Result<BTreeMap<String, String>, String> {
    let path = dir.join(format!("{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn field<'a>(set: &'a BTreeMap<String, String>, key: &str) -> Result<&'a str, String> {
    set.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("field {key} is missing"))
}

fn number(set: &BTreeMap<String, String>, key: &str) -> Result<f64, String> {
    let raw = field(set, key)?;
    raw.parse()
        .map_err(|_| format!("field {key} is not a number: {raw}"))
}

/// By what share of `a` the metric is worse in `b` (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => b / a - 1.0,
        Better::Higher => a / b - 1.0,
    }
}

/// Compares two directories of `run --out` files, one file per workload.
/// Prints a row per metric and returns the disagreements: any end-to-end
/// median worse in either direction by more than its bound, any failed
/// operation, and any difference in event counts or fingerprints.
pub fn agree(a: &Path, b: &Path) -> Result<Vec<String>, String> {
    let mut disagreements = Vec::new();
    println!(
        "{:<15} {:<19} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "a", "b", "diff %", "bound"
    );
    for spec in &WORKLOADS {
        let (set_a, set_b) = (read_set(a, spec.name)?, read_set(b, spec.name)?);
        for (which, set) in [("a", &set_a), ("b", &set_b)] {
            if number(set, "ops_failed")? != 0.0 {
                disagreements.push(format!("{}: set {which} has failed operations", spec.name));
            }
        }
        for key in ["seed", "scale", "fingerprint", "events_to_converge.median"] {
            let (va, vb) = (field(&set_a, key)?, field(&set_b, key)?);
            if va != vb {
                disagreements.push(format!("{}: {key} differs, {va} against {vb}", spec.name));
            }
        }
        for metric in &END_TO_END {
            let key = format!("{}.median", metric.name);
            let (va, vb) = (number(&set_a, &key)?, number(&set_b, &key)?);
            let bound = metric.bound;
            let diff = worsening(metric.better, va, vb);
            println!(
                "{:<15} {:<19} {:>14.6} {:>14.6} {:>+8.2} {:>6.0}",
                spec.name,
                metric.name,
                va,
                vb,
                diff * 100.0,
                bound * 100.0
            );
            let worse = diff.max(worsening(metric.better, vb, va));
            if worse.is_nan() || worse > bound {
                disagreements.push(format!(
                    "{}: {} differs by {:.2} %, over its bound of {:.0} %",
                    spec.name,
                    metric.name,
                    worse * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    Ok(disagreements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_reads_back() {
        let mut record = Record::default();
        record.text("rustc", "rustc 1.87.0 (\"quoted\" \\ slashed)");
        record.number("seed", 2012u64);
        record.number("setup_s.median", 0.023_456_789_f64);
        let fields = parse(&record.render()).unwrap();
        assert_eq!(fields["rustc"], "rustc 1.87.0 (\"quoted\" \\ slashed)");
        assert_eq!(fields["seed"], "2012");
        assert_eq!(
            fields["setup_s.median"].parse::<f64>().unwrap(),
            0.023_456_789
        );
        assert_eq!(fields.len(), 3);
        assert!(parse("  nonsense\n").is_err());
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Lower, 1.0, 0.9) < 0.0);
        assert!((worsening(Better::Higher, 110.0, 100.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 110.0) < 0.0);
    }
}

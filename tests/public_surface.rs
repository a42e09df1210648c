//! Keeps the library crates' public surface to what callers use.
//!
//! The test walks `crates/*/src`, except `crates/perf` (the benchmark
//! harness) and the `bighouse` facade (which only re-exports), and collects
//! every `pub` fn, struct, enum, trait, type alias, const and static that is
//! not test-only code. An item counts as used when its name appears as a
//! word in some `.rs` file outside its own crate's `src`: another crate
//! (`crates/perf` included), a crate's `tests/`, or the root `tests/`,
//! `examples/` and `src/`. The facade's `pub use` lists do not count: a
//! re-export is not a caller. Nor does a full-line `//` comment, which
//! compiles to nothing; `///` and `//!` lines do, because their doctests
//! compile. A `main.rs` under `src` is a binary crate of its own, so it
//! counts as a caller of the library beside it.
//!
//! The scan matches words, so a common name (`new`, `len`) always passes.
//! What it catches is the specific name that only its own crate knows: make
//! that item `pub(crate)`, delete it, or give it a caller outside the crate.
//! An item that must stay public without one goes in [`ALLOWED`] with the
//! reason.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Items that stay public although no other crate names them, as
/// `(crate directory, item, reason)`. All but `erlang_c` are a field,
/// argument or return type or a bound of a public item: narrowing one would
/// trip the compiler's `private_interfaces` or `private_bounds` lint.
#[rustfmt::skip]
const ALLOWED: &[(&str, &str, &str)] = &[
    ("analytic", "erlang_c", "the Erlang-C closed form beside `erlang_b`, for oracles"),
    ("des", "FastHasher", "the hasher of the public `FastMap` and `FastSet`"),
    ("des", "Uniform", "the bound on the public `Gen::range`'s argument"),
    ("models", "CappingOutcome", "returned by `PowerCapper::rebudget`"),
    ("stats", "HistogramSpecError", "the error of `HistogramSpec::new`"),
    ("sim", "AuditWarning", "the element type of `AuditReport::warnings`"),
    ("sim", "ClusterEvent", "the `Simulation::Event` of `ClusterSim`"),
    ("sim", "ClusterSummary", "the type of `SimulationReport::cluster`"),
    ("sim", "FaultSummary", "the type of `ClusterSummary::faults`"),
    ("sim", "RuntimeStats", "the type of `SimulationReport::runtime`"),
    ("sim", "SheddingPolicy", "the type of `ResilienceConfig::shedding`"),
    ("sim", "HedgePolicy", "the type of `ResilienceConfig::hedge`"),
    ("sim", "OverloadRamp", "the type of `ResilienceConfig::ramp`"),
    ("sim", "ClassDisposition", "the element type of `ResilienceSummary::per_class`"),
    ("sim", "ConfigOutcome", "the element type of `SweepReport::completed`"),
    ("sim", "QuarantinedConfig", "the element type of `SweepReport::quarantined`"),
    ("sim", "SweepRuntime", "the type of `SweepReport::runtime`"),
    ("sim", "TraceEntry", "the element type of `Trace::new` and `Trace::entries`"),
    ("sim", "TraceError", "the error of `Trace::new`, `Trace::load` and `Trace::save`"),
    ("sim", "TraceReplayReport", "returned by `replay_trace`"),
];

/// The declaration keywords the scan collects.
const KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// A `pub` item declared in a library crate.
struct Item {
    krate: String,
    name: String,
    file: PathBuf,
    line: usize,
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The library crate whose `src` holds `path`, if any: `cli` for
/// `crates/cli/src/lib.rs`, none for `crates/cli/src/main.rs`.
fn library_of(root: &Path, path: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let mut parts = rel.components().map(|c| c.as_os_str().to_string_lossy());
    if parts.next()? != "crates" {
        return None;
    }
    let krate = parts.next()?.into_owned();
    if parts.next()? != "src" || path.file_name()? == "main.rs" {
        return None;
    }
    Some(krate)
}

/// The words of `text`, outside full-line plain `//` comments.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .filter(|line| {
            let line = line.trim_start();
            !line.starts_with("//") || line.starts_with("///") || line.starts_with("//!")
        })
        .flat_map(|line| line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')))
        .filter(|w| !w.is_empty())
}

/// `text` without its `pub use …;` statements.
fn without_reexports(text: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(start) = rest.find("pub use ") {
        out.push_str(&rest[..start]);
        rest = rest[start..].split_once(';').map_or("", |(_, tail)| tail);
    }
    out.push_str(rest);
    out
}

/// The name a line declares, if it opens a `pub` item of a collected kind.
fn declared_name(line: &str) -> Option<&str> {
    let mut tokens = line.trim_start().strip_prefix("pub ")?.split_whitespace();
    let mut token = tokens.next()?;
    loop {
        match token {
            "unsafe" | "async" | "extern" | "\"C\"" | "mut" => token = tokens.next()?,
            "const" => {
                let next = tokens.next()?;
                if next == "fn" || next == "unsafe" {
                    token = next;
                } else {
                    return ident(next);
                }
            }
            "static" => {
                let next = tokens.next()?;
                return ident(if next == "mut" { tokens.next()? } else { next });
            }
            kind if KINDS.contains(&kind) => return ident(tokens.next()?),
            _ => return None,
        }
    }
}

fn ident(token: &str) -> Option<&str> {
    let end = token
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(token.len());
    let name = &token[..end];
    (!name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit())).then_some(name)
}

/// The `pub` items of one source file, up to its `#[cfg(test)] mod`. An
/// item under its own `#[cfg(test)]` is test code too and is skipped.
fn declarations(krate: &str, file: &Path, text: &str, out: &mut Vec<Item>) {
    let mut test_only = false;
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            let next = lines[i + 1..]
                .iter()
                .map(|l| l.trim_start())
                .find(|l| !l.is_empty() && !l.starts_with("#[") && !l.starts_with("//"));
            if next.is_some_and(|l| l.split_whitespace().take(2).any(|t| t == "mod")) {
                return;
            }
            test_only = true;
            continue;
        }
        if let Some(name) = declared_name(line) {
            if !std::mem::take(&mut test_only) && !name.starts_with("__") {
                out.push(Item {
                    krate: krate.to_owned(),
                    name: name.to_owned(),
                    file: file.to_owned(),
                    line: i + 1,
                });
            }
        } else if !trimmed.is_empty() && !trimmed.starts_with("#[") && !trimmed.starts_with("//") {
            test_only = false;
        }
    }
}

#[test]
fn every_public_item_has_a_caller_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let this_file = root.join(file!());
    let mut files = Vec::new();
    rust_files(root, &mut files);
    files.retain(|f| *f != this_file);

    // For every word, the libraries whose `src` names it; `None` stands for
    // any file outside a library's `src`.
    let mut seen_in: BTreeMap<String, BTreeSet<Option<String>>> = BTreeMap::new();
    let mut items = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("readable source file");
        let krate = library_of(root, file);
        let text = if krate.as_deref() == Some("bighouse") {
            without_reexports(&text)
        } else {
            text
        };
        for word in words(&text) {
            seen_in
                .entry(word.to_owned())
                .or_default()
                .insert(krate.clone());
        }
        if let Some(k) = krate
            .as_deref()
            .filter(|k| !["perf", "bighouse"].contains(k))
        {
            declarations(k, file, &text, &mut items);
        }
    }
    assert!(
        items.len() > 100,
        "the scan found only {} items",
        items.len()
    );

    let used_outside = |item: &Item| {
        seen_in[&item.name]
            .iter()
            .any(|owner| owner.as_deref() != Some(item.krate.as_str()))
    };
    let allowed = |item: &Item| {
        ALLOWED
            .iter()
            .any(|&(k, name, _)| k == item.krate && name == item.name)
    };

    let mut problems = Vec::new();
    for item in &items {
        if !used_outside(item) && !allowed(item) {
            problems.push(format!(
                "{}:{}: `{}` is public but no other crate names it",
                item.file.strip_prefix(root).unwrap_or(&item.file).display(),
                item.line,
                item.name
            ));
        }
    }
    for &(k, name, reason) in ALLOWED {
        assert!(
            !reason.is_empty(),
            "allowlist entry `{k}::{name}` gives no reason"
        );
        let matching: Vec<&Item> = items
            .iter()
            .filter(|i| i.krate == k && i.name == name)
            .collect();
        if matching.is_empty() {
            problems.push(format!(
                "allowlist entry `{k}::{name}` names no public item"
            ));
        } else if matching.iter().all(|i| used_outside(i)) {
            problems.push(format!(
                "allowlist entry `{k}::{name}` is no longer needed: a caller outside names it"
            ));
        }
    }
    assert!(
        problems.is_empty(),
        "{} public items have no caller outside their crate:\n{}",
        problems.len(),
        problems.join("\n")
    );
}

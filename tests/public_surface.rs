//! Keeps the library crates' public surface to what callers use.
//!
//! The test walks `crates/*/src`, except `crates/perf` (the benchmark
//! harness) and the `bighouse` facade (which only re-exports), and collects
//! every `pub` mod, fn, struct, enum, trait, type alias, const and static
//! that is not test-only code. An item counts as used when its name appears
//! as a word of code in some `.rs` file outside its own crate: another
//! crate's `src` or `tests/` (`crates/perf` included), or the root `tests/`,
//! `examples/` and `src/`. A crate's own `tests/` is the crate itself, not a
//! caller. A `main.rs` under `src` is a binary crate of its own, so it
//! counts as a caller of the library beside it.
//!
//! Only code counts. Comments (`//`, trailing or whole-line, and `/* */`)
//! are skipped. Of a `///` or `//!` doc comment only the lines inside a
//! doctest fence count, because those compile: a fence tagged `text` or
//! `json` is prose. Of a string literal only the words inside an inline
//! format argument, `{NAME}` or `{NAME:>WIDTH$}`, count: the rest of the
//! string is text. The facade's `pub use` lists do not count either: a
//! re-export is not a caller.
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
/// `(crate directory, item, reason)`. They are of three kinds:
/// - a field, argument or return type or a bound of a public item, which
///   the compiler's `private_interfaces` or `private_bounds` lint keeps
///   public;
/// - a closed form kept beside its sibling for oracles (`erlang_c`,
///   `normal_cdf`);
/// - `ClusterSim::{into_stats, restore_stats}`, which the calendar-engine
///   reference in `crates/sim/tests/common` drives until ROADMAP item 7
///   replaces them.
#[rustfmt::skip]
const ALLOWED: &[(&str, &str, &str)] = &[
    ("analytic", "erlang_c", "the Erlang-C closed form beside `erlang_b`, for oracles"),
    ("des", "FastHasher", "the hasher of the public `FastMap` and `FastSet`"),
    ("des", "Uniform", "the bound on the public `Gen::range`'s argument"),
    ("des", "Arbitrary", "the bound on the public `Gen::any`"),
    ("models", "CappingOutcome", "returned by `PowerCapper::rebudget`"),
    ("stats", "HistogramSpecError", "the error of `HistogramSpec::new`"),
    ("stats", "normal_cdf", "the normal CDF beside `normal_quantile`, the p95 truth of the AR(1) coverage row"),
    ("sim", "AuditReport", "the type of the public `SimulationReport::audit`"),
    ("sim", "AuditViolation", "the element type of `AuditReport::violations`"),
    ("sim", "AuditWarning", "the element type of `AuditReport::warnings`"),
    ("sim", "into_stats", "the calendar-engine reference of `crates/sim/tests/common` (ROADMAP item 7)"),
    ("sim", "restore_stats", "the calendar-engine reference of `crates/sim/tests/common` (ROADMAP item 7)"),
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
const KINDS: &[&str] = &[
    "mod", "fn", "struct", "enum", "trait", "type", "const", "static",
];

/// The doctest fence tags whose block compiles; any other tag is prose.
const CODE_FENCES: &[&str] = &["", "rust", "no_run", "should_panic", "compile_fail"];

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

/// The crate that owns the file at `rel` (relative to the repository root),
/// and whether the file is in that crate's library `src`: `("cli", true)`
/// for `crates/cli/src/lib.rs`, `("cli", false)` for `crates/cli/tests/…`,
/// none for `crates/cli/src/main.rs` or a file outside `crates/*/{src,tests}`.
fn owner_of(rel: &Path) -> Option<(String, bool)> {
    let mut parts = rel.components().map(|c| c.as_os_str().to_string_lossy());
    if parts.next()? != "crates" {
        return None;
    }
    let krate = parts.next()?.into_owned();
    match &*parts.next()? {
        "src" if rel.file_name()? != "main.rs" => Some((krate, true)),
        "tests" => Some((krate, false)),
        _ => None,
    }
}

/// Calls `sink` with every word of `text`'s code and of the inline format
/// arguments of its string literals. Comments are skipped; of `///` and
/// `//!` lines only those inside a doctest fence count.
fn code_words(text: &str, sink: &mut dyn FnMut(&str)) {
    let bytes = text.as_bytes();
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut doctests = String::new();
    // `Some(true)` inside a doctest fence, `Some(false)` inside a prose one.
    let mut fence: Option<bool> = None;
    let mut i = 0;
    while i < bytes.len() {
        let rest = &bytes[i..];
        if rest.starts_with(b"//") {
            let end = rest
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |n| i + n);
            let line = &text[i..end];
            let doc =
                (line.starts_with("///") && !line.starts_with("////")) || line.starts_with("//!");
            if doc {
                let content = line[3..].trim_start();
                if let Some(tag) = content.strip_prefix("```") {
                    fence = match fence {
                        Some(_) => None,
                        None => Some(tag.split(',').all(|t| CODE_FENCES.contains(&t.trim()))),
                    };
                } else if fence == Some(true) {
                    doctests.push_str(content);
                    doctests.push('\n');
                }
            }
            i = end;
        } else if rest.starts_with(b"/*") {
            let mut depth = 0;
            while i < bytes.len() {
                if bytes[i..].starts_with(b"/*") {
                    depth += 1;
                    i += 2;
                } else if bytes[i..].starts_with(b"*/") {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if rest[0] == b'"' {
            let end = string_end(bytes, i + 1);
            format_args_of(&text[i..end], sink);
            i = end;
        } else if rest[0] == b'\'' {
            // A char literal is skipped; a lifetime's name is a word.
            let c = text[i + 1..].chars().next().unwrap_or(' ');
            if c == '\\' {
                i = bytes[i + 3..]
                    .iter()
                    .position(|&b| b == b'\'')
                    .map_or(bytes.len(), |n| i + 4 + n);
            } else if bytes.get(i + 1 + c.len_utf8()) == Some(&b'\'') {
                i += 2 + c.len_utf8();
            } else {
                i += 1;
            }
        } else if is_word(rest[0]) {
            let len = rest.iter().position(|&b| !is_word(b)).unwrap_or(rest.len());
            let word = &text[i..i + len];
            i += len;
            // A raw string `r#"…"#` (or `br`); `b"…"` is an escaped string.
            let hashes = bytes[i..].iter().take_while(|&&b| b == b'#').count();
            if matches!(word, "r" | "br") && bytes.get(i + hashes) == Some(&b'"') {
                let close = [&b"\""[..], &vec![b'#'; hashes]].concat();
                let from = i + hashes + 1;
                let end = bytes[from..]
                    .windows(close.len())
                    .position(|w| w == close)
                    .map_or(bytes.len(), |n| from + n + close.len());
                format_args_of(&text[from..end], sink);
                i = end;
            } else if word == "b" && bytes.get(i) == Some(&b'"') {
                i = string_end(bytes, i + 1);
            } else {
                sink(word);
            }
        } else {
            i += 1;
        }
    }
    if !doctests.is_empty() {
        code_words(&doctests, sink);
    }
}

/// Calls `sink` with the words a format string reads as code in `text`, a
/// string literal's body: those inside each `{…}`. `{{` is a literal brace.
fn format_args_of(text: &str, sink: &mut dyn FnMut(&str)) {
    let mut rest = text;
    while let Some(open) = rest.find('{') {
        rest = &rest[open + 1..];
        if let Some(escaped) = rest.strip_prefix('{') {
            rest = escaped;
            continue;
        }
        let close = rest.find('}').unwrap_or(rest.len());
        rest[..close]
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .for_each(&mut *sink);
        rest = &rest[close..];
    }
}

/// The index just past the `"` that closes an escaped string whose body
/// starts at `from`.
fn string_end(bytes: &[u8], mut from: usize) -> usize {
    while from < bytes.len() {
        match bytes[from] {
            b'\\' => from += 2,
            b'"' => return from + 1,
            _ => from += 1,
        }
    }
    bytes.len()
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

/// Scans `files`, given as (path relative to the repository root, text),
/// against the allowlist `allowed`. Returns how many `pub` items the scan
/// collected and one line per problem: an item no other crate's code
/// names, or an allowlist entry that is stale.
fn scan(files: &[(PathBuf, String)], allowed: &[(&str, &str, &str)]) -> (usize, Vec<String>) {
    // For every word, the crates whose code names it; `None` stands for any
    // file that no crate owns.
    let mut seen_in: BTreeMap<String, BTreeSet<Option<String>>> = BTreeMap::new();
    let mut items = Vec::new();
    for (file, text) in files {
        let owner = owner_of(file);
        let krate = owner.as_ref().map(|(k, _)| k.clone());
        let in_library = owner.as_ref().is_some_and(|&(_, src)| src);
        let text = if in_library && krate.as_deref() == Some("bighouse") {
            without_reexports(text)
        } else {
            text.clone()
        };
        code_words(&text, &mut |word| {
            if !seen_in.get(word).is_some_and(|s| s.contains(&krate)) {
                seen_in
                    .entry(word.to_owned())
                    .or_default()
                    .insert(krate.clone());
            }
        });
        if let Some(k) = krate
            .as_deref()
            .filter(|k| in_library && !["perf", "bighouse"].contains(k))
        {
            declarations(k, file, &text, &mut items);
        }
    }

    let used_outside = |item: &Item| {
        seen_in.get(&item.name).is_some_and(|owners| {
            owners
                .iter()
                .any(|owner| owner.as_deref() != Some(item.krate.as_str()))
        })
    };
    let is_allowed = |item: &Item| {
        allowed
            .iter()
            .any(|&(k, name, _)| k == item.krate && name == item.name)
    };

    let mut problems = Vec::new();
    for item in &items {
        if !used_outside(item) && !is_allowed(item) {
            problems.push(format!(
                "{}:{}: `{}` is public but no other crate names it",
                item.file.display(),
                item.line,
                item.name
            ));
        }
    }
    for &(k, name, reason) in allowed {
        if reason.is_empty() {
            problems.push(format!("allowlist entry `{k}::{name}` gives no reason"));
        }
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
    (items.len(), problems)
}

#[test]
fn every_public_item_has_a_caller_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let this_file = root.join(file!());
    let mut paths = Vec::new();
    rust_files(root, &mut paths);
    let files: Vec<(PathBuf, String)> = paths
        .into_iter()
        .filter(|p| *p != this_file)
        .map(|p| {
            let text = fs::read_to_string(&p).expect("readable source file");
            let rel = p.strip_prefix(root).expect("under the root").to_owned();
            (rel, text)
        })
        .collect();

    let (collected, problems) = scan(&files, ALLOWED);
    assert!(collected > 100, "the scan found only {collected} items");
    assert!(
        problems.is_empty(),
        "{} public items have no caller outside their crate:\n{}",
        problems.len(),
        problems.join("\n")
    );
}

#[test]
fn the_scan_counts_code_and_not_prose_or_own_tests() {
    let library = "\
pub mod used_mod;
pub fn in_prose() {}
pub fn in_text_fence() {}
pub fn in_trailing_comment() {}
pub fn in_block_comment() {}
pub fn in_string() {}
pub fn in_raw_string() {}
pub fn in_escaped_braces() {}
pub fn in_format_arg() {}
pub fn in_raw_format_arg() {}
pub fn in_own_tests() {}
pub fn in_doctest() {}
pub fn called() {}
#[cfg(test)]
pub fn test_only() {}
";
    let caller = r##"
//! Calls `in_prose`.
//!
//! ```text
//! in_text_fence();
//! ```
//!
//! ```no_run
//! // not in_prose either
//! in_doctest();
//! ```

/// ```json
/// {"in_text_fence": 1}
/// ```
pub fn caller() -> &'static str {
    used_mod::called(); // in_trailing_comment
    /* in_block_comment /* nested */ */
    let _ = ('"', '\''); // in_trailing_comment "
    let _ = r#"in_raw_string "quoted" {in_raw_format_arg:>8}"#;
    let _ = format!("{{in_escaped_braces}} {in_format_arg}");
    "in_string"
}
"##;
    let fixture = |files: &[(&str, &str)]| {
        let files: Vec<(PathBuf, String)> = files
            .iter()
            .map(|&(path, text)| (PathBuf::from(path), text.to_owned()))
            .collect();
        scan(&files, &[]).1
    };
    let problems = fixture(&[
        ("crates/a/src/lib.rs", library),
        ("crates/a/tests/own.rs", "fn t() { a::in_own_tests(); }"),
        ("crates/b/src/lib.rs", caller),
    ]);
    let named: Vec<&str> = problems
        .iter()
        .filter(|p| p.starts_with("crates/a/"))
        .filter_map(|p| p.split('`').nth(1))
        .collect();
    assert_eq!(
        named,
        [
            "in_prose",
            "in_text_fence",
            "in_trailing_comment",
            "in_block_comment",
            "in_string",
            "in_raw_string",
            "in_escaped_braces",
            "in_own_tests"
        ],
        "{problems:#?}"
    );

    // The gate: an item whose only mention is prose fails the check, and
    // the check names it.
    let problems = fixture(&[
        ("crates/a/src/lib.rs", "pub fn documented_only() {}"),
        ("src/main.rs", "/// See `documented_only`.\nfn main() {}"),
    ]);
    assert_eq!(
        problems,
        ["crates/a/src/lib.rs:1: `documented_only` is public but no other crate names it"]
    );
}

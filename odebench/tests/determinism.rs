//! The benchmark's own self-test: a seed fixes the statement stream and
//! every count the benchmark reports, every workload runs correctly at a
//! tiny size, and the output names exactly the metrics `BENCHMARK.json`
//! lists.
//!
//! Runs go through the built binary, one process each: the storage
//! manager spreads allocations over shards by a process-wide thread
//! counter, so counts repeat exactly run to run, not between runs that
//! share a process.

use odebench::{served_snapshot, trigger_post, wal_evict, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn oids(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("{}:{}", 3 + i / 100, i % 100))
        .collect()
}

#[test]
fn same_seed_gives_the_same_stream() {
    let cards = oids(32);
    assert_eq!(
        trigger_post::stream(7, &cards, 2000),
        trigger_post::stream(7, &cards, 2000)
    );
    let objects = oids(3000);
    assert_eq!(
        wal_evict::stream(7, 900, &objects, 2000),
        wal_evict::stream(7, 900, &objects, 2000)
    );
    assert_eq!(
        served_snapshot::requests(7, 16, 2000),
        served_snapshot::requests(7, 16, 2000)
    );
}

#[test]
fn different_seeds_give_different_streams() {
    let cards = oids(32);
    assert_ne!(
        trigger_post::stream(7, &cards, 200),
        trigger_post::stream(8, &cards, 200)
    );
    let objects = oids(3000);
    assert_ne!(
        wal_evict::stream(7, 900, &objects, 200),
        wal_evict::stream(8, 900, &objects, 200)
    );
    assert_ne!(
        served_snapshot::requests(7, 16, 200),
        served_snapshot::requests(8, 16, 200)
    );
}

/// One parsed result line: `correct`, `attempted`, `failed`, and the
/// metrics as name → (value, unit).
struct Output {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

/// The text after `"key": ` in `line`.
fn after<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\": ");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    &line[at + pat.len()..]
}

/// The leading number or bare word of `s`.
fn word(s: &str) -> &str {
    let end = s
        .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
        .unwrap_or(s.len());
    &s[..end]
}

/// Every `"name": {"value": v, "unit": "u"}` pair, in order.
fn metric_pairs(s: &str) -> Vec<(String, f64, String)> {
    let mut out = Vec::new();
    let mut rest = s;
    while let Some(at) = rest.find(": {\"value\": ") {
        let name_end = rest[..at].rfind('"').expect("name");
        let name_start = rest[..name_end].rfind('"').expect("name") + 1;
        let name = rest[name_start..name_end].to_string();
        let value_text = &rest[at + ": {\"value\": ".len()..];
        let value = word(value_text).parse().expect("value");
        let unit = after(value_text, "unit");
        let unit = unit[1..unit[1..].find('"').expect("unit") + 1].to_string();
        out.push((name, value, unit));
        rest = &value_text[1..];
    }
    out
}

fn parse(line: &str) -> Output {
    Output {
        correct: word(after(line, "correct")) == "true",
        attempted: word(after(line, "attempted")).parse().expect("attempted"),
        failed: word(after(line, "failed")).parse().expect("failed"),
        metrics: metric_pairs(after(line, "metrics"))
            .into_iter()
            .map(|(n, v, u)| (n, (v, u)))
            .collect(),
    }
}

/// `(name, unit)` of every entry in `BENCHMARK.json`'s `section` (the
/// unit is empty for workloads).
fn listed(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let body = after(&text, section);
    let body = &body[..body.find(']').expect("list end")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let quoted = |s: &str| s[1..s[1..].find('"').unwrap() + 1].to_string();
            let unit = match entry.contains("\"unit\": ") {
                true => quoted(after(entry, "unit")),
                false => String::new(),
            };
            (quoted(after(entry, "name")), unit)
        })
        .collect()
}

fn run(workload: &str, seed: u64, trace: bool) -> Output {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_odebench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny"])
        .current_dir(&dir)
        .output()
        .expect("run odebench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = parse(stdout.lines().last().expect("a result line"));
    assert!(result.correct, "{workload}: {stdout}");
    assert!(result.attempted > 0);
    assert_eq!(result.failed, 0, "{workload}: the model disagreed");
    result
}

/// Metrics read off a clock; everything else is a count or a ratio of
/// counts and must repeat exactly.
fn is_timing(name: &str, unit: &str) -> bool {
    matches!(unit, "us" | "ns" | "s" | "1/s" | "MB") || name == "trace.overhead_frac"
}

fn counts(result: &Output) -> Vec<(String, f64)> {
    result
        .metrics
        .iter()
        .filter(|(name, (_, unit))| !is_timing(name, unit))
        .map(|(name, (value, _))| (name.clone(), *value))
        .collect()
}

/// Each workload, untraced and traced, twice with one seed: no failures,
/// exactly the listed metrics with their units, and identical counts.
fn check_workload(workload: &str) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let (a, b) = (run(workload, 11, trace), run(workload, 11, trace));
        let names: Vec<(String, String)> = a
            .metrics
            .iter()
            .map(|(n, (_, u))| (n.clone(), u.clone()))
            .collect();
        let mut want = listed(section);
        want.sort();
        assert_eq!(names, want, "{workload}: {section} metrics");
        assert!(!counts(&a).is_empty());
        assert_eq!(counts(&a), counts(&b), "{workload}: {section} counts");
    }
}

#[test]
fn every_workload_is_listed() {
    let names: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn trigger_post_runs_tiny_and_repeats_its_counts() {
    check_workload("trigger_post");
}

#[test]
fn wal_evict_runs_tiny_and_repeats_its_counts() {
    check_workload("wal_evict");
}

#[test]
fn served_snapshot_runs_tiny_and_repeats_its_counts() {
    check_workload("served_snapshot");
}

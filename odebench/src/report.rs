//! Output: the stamp line and the result line (the last line of
//! standard output), written as JSON by hand.

use crate::measure::Summary;
use crate::Outcome;
use std::fmt::Write as _;

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A JSON number; non-finite values (which no metric should produce)
/// print as 0 so the line stays valid JSON.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
pub fn end_to_end(summary: &Summary, setup_s: f64, space_amp: f64) -> Vec<Metric> {
    vec![
        metric("stmts_per_s", summary.stmts_per_s, "1/s"),
        metric("write_p50_us", summary.write_p50_us, "us"),
        metric("write_p99_us", summary.write_p99_us, "us"),
        metric("read_p50_us", summary.read_p50_us, "us"),
        metric("read_p99_us", summary.read_p99_us, "us"),
        metric("setup_s", setup_s, "s"),
        metric("space_amp", space_amp, "ratio"),
        metric("peak_rss_mb", crate::measure::peak_rss_mb(), "MB"),
    ]
}

/// The sample counts behind a run's timings.
pub fn samples(summary: &Summary, setups: usize) -> Vec<(&'static str, u64)> {
    vec![
        ("stmts", summary.stmts),
        ("write_requests", summary.requests[0]),
        ("read_requests", summary.requests[1]),
        ("windows", summary.windows as u64),
        ("fast_windows", summary.fast_windows as u64),
        ("fast_write_samples", summary.fast_writes),
        ("fast_read_samples", summary.fast_reads),
        ("setups", setups as u64),
    ]
}

/// The host reference kernel and the spread of window throughput, for
/// judging how much of a run fell into slow-host episodes.
pub fn window_notes(summary: &Summary) -> Vec<(&'static str, String)> {
    let deciles = summary
        .rate_deciles
        .iter()
        .map(|x| format!("{x:.0}"))
        .collect::<Vec<_>>()
        .join(" ");
    vec![
        ("host_ref_kernel_us", format!("{:.1}", summary.kernel_us)),
        ("window_stmts_per_s_deciles", deciles),
    ]
}

/// Everything a reader needs to place the result: commit, host shape,
/// engine, flush policy, seed, and the sample counts.
pub struct Stamp<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Seed.
    pub seed: u64,
    /// Traced run.
    pub trace: bool,
    /// `git rev-parse HEAD`, or why it is unknown.
    pub commit: String,
    /// Available parallelism before pinning (what `nproc` prints).
    pub nproc: usize,
    /// The CPU the run was pinned to, if pinning succeeded.
    pub cpu: Option<usize>,
    /// Whether every thread allocates from one malloc arena.
    pub one_arena: bool,
}

/// The stamp line printed before the result line.
pub fn stamp_line(stamp: &Stamp<'_>, outcome: &Outcome) -> String {
    let mut s = String::from("{\"stamp\": {");
    let _ = write!(
        s,
        "\"workload\": {}, \"seed\": {}, \"trace\": {}, \"commit\": {}, \"nproc\": {}, \
         \"pinned_cpu\": {}, \"one_malloc_arena\": {}, \"engine\": {}, \"fsync\": \"off\", \"flush_policy\": {}, \
         \"failed_frac\": {}",
        string(stamp.workload),
        stamp.seed,
        stamp.trace,
        string(&stamp.commit),
        stamp.nproc,
        stamp.cpu.map_or("null".to_string(), |c| c.to_string()),
        stamp.one_arena,
        string(outcome.engine),
        string(match outcome.engine {
            "memory" => "no WAL (memory engine); no timer threads",
            _ =>
                "WAL written at every commit with group commit, never fsynced; \
                  fuzzy checkpoint every N commits; no timer threads",
        }),
        num(crate::ratio(
            outcome.failed as f64,
            outcome.attempted as f64
        )),
    );
    s.push_str(", \"samples\": {");
    for (i, (k, v)) in outcome.samples.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}{}: {v}", string(k));
    }
    s.push('}');
    for (k, v) in &outcome.notes {
        let _ = write!(s, ", {}: {}", string(k), string(v));
    }
    s.push_str("}}");
    s
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            string(m.name),
            num(m.value),
            string(m.unit)
        );
    }
    s.push_str("}}");
    s
}

//! The closed-loop measured phase: a fixed statement count cut into short
//! windows of equal work, per-request latencies by kind, and the host
//! reference kernel timed once per window.
//!
//! The host runs code up to about 1.7× slower in episodes that come and
//! go within seconds and cover anywhere from a tenth to all of a run.
//! Every reported timing is therefore taken from the windows that ran
//! while the host was in its fast state. A window's host score is the
//! sum of its median write latency and its median read latency: a slow
//! episode slows every request and moves both medians, while a rare
//! stall in the window (an eviction flush, a version-GC burst, a lock
//! wait, a slow dependent firing) moves only the window's tail and
//! leaves its medians, and so the selection, alone. The [`FAST_SHARE`]
//! of windows with the lowest scores are pooled: throughput is their
//! statements over their time, stalls included, and each latency
//! percentile comes from their pooled samples, stalls included.
//!
//! A window holds a fixed amount of work, counted in units the workload
//! chooses. Where the program does periodic work (a fuzzy checkpoint every
//! N commits, a snapshot cycle every 16 frames), a window spans whole
//! periods, so every window carries the same share of it.

use std::time::{Duration, Instant};

/// Share of a run's windows, the fastest, that the timings come from.
pub const FAST_SHARE: f64 = 0.05;

/// What a request was, for latency bucketing and per-layer attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A request that writes (one `CALL`/`NEW`, or one batch frame).
    Write = 0,
    /// A point read (one `GET`).
    Read = 1,
    /// Anything else (snapshot `BEGIN READ ONLY`/`COMMIT`).
    Other = 2,
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Request kind.
    pub kind: Kind,
    /// Client-side latency of the request.
    pub latency: Duration,
    /// Statements the request carried.
    pub stmts: u64,
    /// Window units the request fills (statements, logged commits, or
    /// transactions, as the workload counts windows).
    pub units: u64,
}

/// Per-run summary of the measured passes.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Statements completed.
    pub stmts: u64,
    /// Requests completed, by [`Kind`].
    pub requests: [u64; 3],
    /// Statements per second over the fast windows.
    pub stmts_per_s: f64,
    /// Write-request p50 over the fast windows' samples.
    pub write_p50_us: f64,
    /// Write-request p99 over the fast windows' samples.
    pub write_p99_us: f64,
    /// Read-request p50 over the fast windows' samples.
    pub read_p50_us: f64,
    /// Read-request p99 over the fast windows' samples.
    pub read_p99_us: f64,
    /// Complete windows measured.
    pub windows: usize,
    /// Windows the timings come from.
    pub fast_windows: usize,
    /// Write samples behind the write percentiles.
    pub fast_writes: u64,
    /// Read samples behind the read percentiles.
    pub fast_reads: u64,
    /// Median over windows of the host reference kernel.
    pub kernel_us: f64,
    /// Window throughput at every tenth percentile, slowest first.
    pub rate_deciles: Vec<f64>,
}

/// Steps of the host reference kernel (about 0.1 ms).
const REF_KERNEL_STEPS: usize = 4096;
/// The kernel's table: 512 KiB, a good part of a core's cache, so the
/// kernel feels cache contention as well as CPU contention.
const REF_TABLE_WORDS: usize = 1 << 16;

/// A fixed dependent walk over a table, timed: a diagnostic for
/// slow-host episodes.
pub fn ref_kernel() -> Duration {
    static TABLE: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        (0..REF_TABLE_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    });
    let started = Instant::now();
    let mut i = 0usize;
    let mut acc = 0u64;
    for _ in 0..REF_KERNEL_STEPS {
        let v = table[i];
        acc = acc.wrapping_add(v.rotate_left(7) ^ acc);
        i = (v ^ acc) as usize & (REF_TABLE_WORDS - 1);
    }
    std::hint::black_box(acc);
    started.elapsed()
}

/// Nearest-rank percentile of sorted nanosecond samples, in µs.
pub fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * p).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64 / 1000.0
}

/// The `q` quantile, interpolating linearly between order statistics;
/// 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The median; 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The upper median of nanosecond latencies; 0 when empty.
fn median_ns(latencies: &[u32]) -> u64 {
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    sorted.get(sorted.len() / 2).map_or(0, |&ns| ns.into())
}

/// One complete window.
#[derive(Debug)]
struct Window {
    stmts: u64,
    secs: f64,
    /// Latencies in nanoseconds.
    writes: Vec<u32>,
    reads: Vec<u32>,
}

impl Window {
    /// The host score: lower is faster (see the module notes).
    fn score(&self) -> u64 {
        median_ns(&self.writes) + median_ns(&self.reads)
    }
}

/// Collects windows, possibly over several passes, and reads the
/// [`Summary`] off them.
#[derive(Debug, Default)]
pub struct Recorder {
    per_window: u64,
    windows: Vec<Window>,
    kernels: Vec<f64>,
    stmts: u64,
    requests: [u64; 3],
}

impl Recorder {
    /// Windows of `per_window` units.
    pub fn new(per_window: u64) -> Recorder {
        Recorder {
            per_window: per_window.max(1),
            ..Recorder::default()
        }
    }

    /// Drive `step` until `stmts` statements have completed, window by
    /// window; a window cut short by the end of the pass is not kept.
    /// `step` issues one request, checks its reply, and reports it.
    pub fn run(
        &mut self,
        stmts: u64,
        mut step: impl FnMut() -> Result<Sample, String>,
    ) -> Result<(), String> {
        let mut done = 0;
        while done < stmts {
            self.kernels.push(ref_kernel().as_secs_f64() * 1e6);
            let mut w = Window {
                stmts: 0,
                secs: 0.0,
                writes: Vec::new(),
                reads: Vec::new(),
            };
            let mut units = 0;
            let started = Instant::now();
            while units < self.per_window && done < stmts {
                let sample = step()?;
                done += sample.stmts;
                units += sample.units;
                w.stmts += sample.stmts;
                self.requests[sample.kind as usize] += 1;
                let ns = sample.latency.as_nanos().min(u32::MAX as u128) as u32;
                match sample.kind {
                    Kind::Write => w.writes.push(ns),
                    Kind::Read => w.reads.push(ns),
                    Kind::Other => {}
                }
            }
            w.secs = started.elapsed().as_secs_f64();
            self.stmts += w.stmts;
            if units >= self.per_window {
                self.windows.push(w);
            }
        }
        Ok(())
    }

    /// The summary over the fast windows recorded.
    pub fn finish(mut self) -> Summary {
        let rate = |w: &Window| w.stmts as f64 / w.secs;
        self.windows.sort_by_cached_key(Window::score);
        let n = self.windows.len();
        let fast = ((n as f64 * FAST_SHARE).ceil() as usize).clamp(n.min(1), n);
        let top = &self.windows[..fast];
        let pool = |pick: fn(&Window) -> &Vec<u32>| {
            let mut v: Vec<u64> = top.iter().flat_map(pick).map(|&ns| ns as u64).collect();
            v.sort_unstable();
            v
        };
        let writes = pool(|w| &w.writes);
        let reads = pool(|w| &w.reads);
        let mut rates: Vec<f64> = self.windows.iter().map(rate).collect();
        let rate_deciles = match rates.is_empty() {
            true => Vec::new(),
            false => (0..=10)
                .map(|d| quantile(&mut rates, d as f64 / 10.0))
                .collect(),
        };
        Summary {
            stmts: self.stmts,
            requests: self.requests,
            stmts_per_s: crate::ratio(
                top.iter().map(|w| w.stmts as f64).sum(),
                top.iter().map(|w| w.secs).sum(),
            ),
            write_p50_us: percentile_us(&writes, 0.50),
            write_p99_us: percentile_us(&writes, 0.99),
            read_p50_us: percentile_us(&reads, 0.50),
            read_p99_us: percentile_us(&reads, 0.99),
            windows: n,
            fast_windows: fast,
            fast_writes: writes.len() as u64,
            fast_reads: reads.len() as u64,
            kernel_us: median(&mut self.kernels),
            rate_deciles,
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

//! `odebench` — the Ode reproduction's end-to-end benchmark.
//!
//! One load-generator thread drives three workloads through the public
//! entry points (`Session::execute`, and `ode-server` through
//! `WireClient`) in a closed loop, checks every reply against a model of
//! the workload, and reports end-to-end metrics. A separate traced run
//! (`--trace 1`) reports per-layer metrics by timing the benchmark's own
//! calls into each module's public functions and by reading the counters
//! the program already exports. See `odebench/README.md`.

pub mod measure;
pub mod report;
pub mod rng;
pub mod served_snapshot;
pub mod trace;
pub mod trigger_post;
pub mod wal_evict;

use measure::{median, Recorder};
use ode_core::{Database, Engine};
use report::{end_to_end, samples, window_notes};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use trace::{layer_metrics, LayerTimes, Layers, Tracer};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["trigger_post", "wal_evict", "served_snapshot"];

/// What one run does. Everything that shapes the work is derived from
/// the seed and the statement count, so two runs with the same
/// configuration execute the same statement streams.
///
/// An end-to-end run is `segments` segments, each a fresh set-up, a
/// measured pass of `stmts / segments` statements with its own stream,
/// and a verification; a segment's engine is dropped before the next
/// one starts, so memory stays bounded by one segment. A traced run is
/// two passes of one segment's size: untraced, then traced.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: the statement streams and every generated value.
    pub seed: u64,
    /// Statements measured in an end-to-end run, over all segments.
    pub stmts: u64,
    /// Segments of an end-to-end run.
    pub segments: u64,
    /// Work per window, in the workload's window units (see
    /// [`measure`] for how windows become one figure).
    pub window_units: u64,
    /// Set-ups per segment (the last one is measured); `setup_s` is the
    /// median over all of them.
    pub setups: usize,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Scratch directory for on-disk databases (removed by the caller).
    pub dir: PathBuf,
    /// Test-sized data sets (a few hundred objects) instead of the
    /// benchmark's.
    pub tiny: bool,
}

impl Config {
    /// A test-sized configuration: small data, two segments, short
    /// windows, one set-up per segment.
    pub fn tiny(seed: u64, stmts: u64, dir: PathBuf) -> Config {
        Config {
            seed,
            stmts,
            segments: 2,
            window_units: 16,
            setups: 1,
            trace: false,
            dir,
            tiny: true,
        }
    }

    /// Statements in one segment's pass.
    pub fn segment_stmts(&self) -> u64 {
        self.stmts / self.segments.max(1)
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Storage engine the workload ran on (`memory` or `disk`).
    pub engine: &'static str,
    /// Checks made against the model: one per statement (per transaction
    /// and per read pair on served_snapshot), plus verification reads.
    pub attempted: u64,
    /// Errors the model did not predict plus wrong answers.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<report::Metric>,
    /// Sample counts behind the timings (`write`, `read`, …).
    pub samples: Vec<(&'static str, u64)>,
    /// Workload-specific facts stamped next to the result.
    pub notes: Vec<(&'static str, String)>,
}

/// Counts attempted statements and mismatches against the model, and
/// prints each mismatch with its seed and statement index.
#[derive(Debug)]
pub struct Checker {
    seed: u64,
    /// Statements checked.
    pub attempted: u64,
    /// Statements whose outcome the model did not predict.
    pub failed: u64,
}

impl Checker {
    /// A checker for the stream of `seed`.
    pub fn new(seed: u64) -> Checker {
        Checker {
            seed,
            attempted: 0,
            failed: 0,
        }
    }

    /// Count one checked statement (`at` is its index in the stream, or
    /// a verification label); when `ok` is false count a failure and
    /// print `detail` to stderr.
    pub fn check(&mut self, at: impl std::fmt::Display, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("mismatch seed={} stmt={at}: {}", self.seed, detail());
        }
    }
}

/// How a workload sizes an end-to-end run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// `--seconds` × this = statements measured per run (sized so a run
    /// measures for about `--seconds` on a 2-vCPU host).
    pub stmts_per_second: u64,
    /// Segments per run. Set-ups happen at segment starts, so many short
    /// segments let the set-ups sample the host at many moments of the
    /// run: set-up times are bimodal with the host's state, and a median
    /// over a few clusters of set-ups flips between the two levels.
    pub segments: u64,
    /// Work per window, in units the workload counts (see
    /// [`measure::Sample::units`]).
    pub window_units: u64,
    /// Set-ups per segment.
    pub setups: usize,
}

/// Requests whose texts, events and objects feed a traced run's
/// isolated layer timings.
pub const LAYER_SAMPLE: usize = 20_000;

/// A segment's stream: `(seed, segment, statements)`.
pub type Segment = (u64, u64, u64);

/// What a workload brings to [`run`]: its set-up, its measured pass, its
/// model check, and its inputs to the isolated layer timings.
pub trait Workload {
    /// One set-up: engine, schema, population, armed triggers, client
    /// connections, and the model of what the database holds.
    type Rig;
    /// Storage engine the workload runs on (`memory` or `disk`).
    const ENGINE: &'static str;

    /// A fresh set-up; on-disk databases go under `dir`.
    fn setup(&mut self, dir: &Path) -> Result<Self::Rig, String>;
    /// The engine and database the tracer reads counters from.
    fn handles(rig: &Self::Rig) -> (&Arc<Engine>, &Arc<Database>);
    /// One measured pass of `segment`'s stream, every reply checked
    /// against the rig's model.
    fn pass(
        &mut self,
        rig: &mut Self::Rig,
        rec: &mut Recorder,
        segment: Segment,
        check: &mut Checker,
        tracer: Option<&mut Tracer>,
    ) -> Result<(), String>;
    /// Bytes of live user fields, for `space_amp`.
    fn payload_bytes(rig: &Self::Rig) -> u64;
    /// The isolated layer timings over the first `n` requests of
    /// `seed`'s first segment.
    fn layer_times(
        &mut self,
        rig: &mut Self::Rig,
        seed: u64,
        n: usize,
    ) -> Result<LayerTimes, String>;
    /// Check the database's final state against the model, then shut
    /// the rig down.
    fn verify(&mut self, rig: Self::Rig, check: &mut Checker) -> Result<(), String>;
    /// Workload-specific facts stamped next to the result.
    fn notes(&self) -> Vec<(&'static str, String)>;
}

/// Run `workload` as `cfg` says.
///
/// End to end: every segment sets up `cfg.setups` times (each timed),
/// runs its measured pass on the last set-up, and verifies it. Traced:
/// one segment's stream untraced on a fresh set-up, then the same stream
/// traced on another, then the isolated layer timings, then the check.
pub fn run<W: Workload>(workload: &mut W, cfg: &Config) -> Result<Outcome, String> {
    let mut check = Checker::new(cfg.seed);
    let mut out = Outcome {
        engine: W::ENGINE,
        ..Outcome::default()
    };
    let stmts = cfg.segment_stmts();
    if cfg.trace {
        let first = (cfg.seed, 0, stmts);
        let mut untraced = Recorder::new(cfg.window_units);
        let mut rig = workload.setup(&cfg.dir.join("untraced"))?;
        workload.pass(&mut rig, &mut untraced, first, &mut check, None)?;
        drop(rig);
        let mut rig = workload.setup(&cfg.dir.join("traced"))?;
        let mut traced = Recorder::new(cfg.window_units);
        let (engine, db) = W::handles(&rig);
        let mut tracer = Tracer::new(engine, db);
        workload.pass(&mut rig, &mut traced, first, &mut check, Some(&mut tracer))?;
        let trace = tracer.finish();
        let traced = traced.finish();
        let sent = traced.requests.iter().sum::<u64>() as usize;
        let times = workload.layer_times(&mut rig, cfg.seed, LAYER_SAMPLE.min(sent).max(1))?;
        workload.verify(rig, &mut check)?;
        out.metrics = layer_metrics(&Layers {
            untraced: &untraced.finish(),
            traced: &traced,
            trace: &trace,
            times,
            failed_frac: ratio(check.failed as f64, check.attempted as f64),
        });
        out.samples = samples(&traced, 2);
    } else {
        let mut rec = Recorder::new(cfg.window_units);
        let (mut setup_times, mut space) = (Vec::new(), Vec::new());
        for segment in 0..cfg.segments {
            let dir = cfg.dir.join(format!("seg{segment}"));
            let mut rig = timed_setups(cfg.setups, &mut setup_times, |i| {
                workload.setup(&dir.join(i.to_string()))
            })?;
            workload.pass(
                &mut rig,
                &mut rec,
                (cfg.seed, segment, stmts),
                &mut check,
                None,
            )?;
            let (_, db) = W::handles(&rig);
            space.push(space_amp(db.storage(), W::payload_bytes(&rig)));
            workload.verify(rig, &mut check)?;
            let _ = std::fs::remove_dir_all(&dir);
        }
        let summary = rec.finish();
        out.metrics = end_to_end(&summary, median(&mut setup_times), median(&mut space));
        out.samples = samples(&summary, setup_times.len());
        out.notes.extend(window_notes(&summary));
    }
    out.notes.extend(workload.notes());
    out.attempted = check.attempted;
    out.failed = check.failed;
    Ok(out)
}

/// Run `setup` `n` times, timing each into `times` (seconds), and keep
/// the last result (earlier ones are dropped as soon as the next one
/// starts).
pub fn timed_setups<T>(
    n: usize,
    times: &mut Vec<f64>,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<T, String> {
    let mut kept = None;
    for i in 0..n.max(1) {
        drop(kept.take());
        let started = std::time::Instant::now();
        let value = setup(i)?;
        times.push(started.elapsed().as_secs_f64());
        kept = Some(value);
    }
    Ok(kept.expect("at least one set-up"))
}

/// Execute a set-up statement, turning an error into a message naming it.
pub fn exec(session: &mut ode_core::Session, stmt: &str) -> Result<String, String> {
    session.execute(stmt).map_err(|e| format!("{stmt}: {e}"))
}

/// Parse an object id as the engine prints it (`<page>:<slot>`).
pub fn parse_oid(text: &str) -> Option<ode_storage::Oid> {
    let (page, slot) = text.split_once(':')?;
    Some(ode_storage::Oid::new(
        page.trim().parse().ok()?,
        slot.trim().parse().ok()?,
    ))
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Space amplification: data pages plus the WAL file over the bytes of
/// live user fields.
pub fn space_amp(storage: &ode_storage::Storage, live_payload_bytes: u64) -> f64 {
    let bytes = storage.page_count() as u64 * ode_storage::page::PAGE_SIZE as u64
        + storage.wal_file_len().unwrap_or(0);
    ratio(bytes as f64, live_payload_bytes as f64)
}

//! The traced run's per-layer numbers.
//!
//! Counts come from the stats the program already exports
//! (`Database::stats()`, `Engine::stats()`, `Storage::pool_stats()` and
//! `Storage::version_stats()`), read after every request of the traced
//! pass and attributed to the request's kind. Times come from the
//! benchmark's own calls into each module's public functions: the DDL
//! parser, the FSM run-time, the storage manager, and the wire. Nothing
//! here adds tracing inside the program.

use crate::measure::{median, percentile_us, Kind, Summary};
use crate::ratio;
use crate::report::{metric, Metric};
use ode_core::{Database, Engine};
use ode_events::{Dfa, EventId, MaskId};
use ode_obs::HistogramSnapshot;
use ode_storage::{Oid, Storage};
use std::sync::Arc;
use std::time::Instant;

macro_rules! counts {
    (counters { $($c:ident,)+ } histograms { $($h:ident,)+ }) => {
        /// Counter readings (or deltas) the per-layer metrics are built from.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counts {
            $(#[allow(missing_docs)] pub $c: u64,)+
            $(#[allow(missing_docs)] pub $h: HistogramSnapshot,)+
        }

        impl Counts {
            /// `self - before`, field by field.
            pub fn delta(&self, before: &Counts) -> Counts {
                Counts {
                    $($c: self.$c - before.$c,)+
                    $($h: hist_delta(&self.$h, &before.$h),)+
                }
            }

            /// Accumulate a delta.
            pub fn add(&mut self, d: &Counts) {
                $(self.$c += d.$c;)+
                $(hist_add(&mut self.$h, &d.$h);)+
            }
        }
    };
}

counts! {
    counters {
        lock_acquisitions,
        lock_upgrades,
        lock_waits,
        wal_appends,
        wal_bytes,
        wal_group_commits,
        commits,
        buf_hits,
        buf_misses,
        evictions,
        steals,
        checkpoints,
        wal_truncated_bytes,
        fsm_advances,
        mask_evals,
        state_writebacks,
        state_cache_hits,
        state_cache_misses,
        firings,
        dependent_firings,
        versions_gced,
        snapshot_reads,
        prepared_hits,
        prepared_misses,
    }
    histograms {
        post_micros,
        evict_flush_micros,
        version_chain_len,
        stmts_per_frame,
    }
}

fn hist_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut d = *after;
    for (b, x) in d.buckets.iter_mut().zip(before.buckets) {
        *b -= x;
    }
    d.sum -= before.sum;
    d.count -= before.count;
    d
}

fn hist_add(acc: &mut HistogramSnapshot, d: &HistogramSnapshot) {
    for (b, x) in acc.buckets.iter_mut().zip(d.buckets) {
        *b += x;
    }
    acc.sum += d.sum;
    acc.count += d.count;
    acc.max = acc.max.max(d.max);
}

impl Counts {
    /// Read every counter now.
    pub fn read(db: &Database, engine: &Engine) -> Counts {
        let m = db.stats();
        let pool = db.storage().pool_stats();
        let es = engine.stats();
        Counts {
            lock_acquisitions: m.lock_shared_acquisitions + m.lock_exclusive_acquisitions,
            lock_upgrades: m.lock_upgrades,
            lock_waits: m.lock_shared_waits + m.lock_exclusive_waits,
            wal_appends: m.wal_appends,
            wal_bytes: m.wal_bytes,
            wal_group_commits: m.wal_group_commits,
            commits: m.txn_commits,
            buf_hits: pool.map_or(0, |p| p.hits),
            buf_misses: pool.map_or(0, |p| p.misses),
            evictions: pool.map_or(0, |p| p.evictions),
            steals: pool.map_or(0, |p| p.steals),
            checkpoints: m.checkpoints,
            wal_truncated_bytes: m.wal_truncated_bytes,
            fsm_advances: m.fsm_advances,
            mask_evals: m.mask_evaluations,
            state_writebacks: m.state_writebacks,
            state_cache_hits: m.state_cache_hits,
            state_cache_misses: m.state_cache_misses,
            firings: m.firings_immediate
                + m.firings_end
                + m.firings_dependent
                + m.firings_independent,
            dependent_firings: m.firings_dependent,
            versions_gced: m.versions_gced,
            snapshot_reads: m.snapshot_reads,
            prepared_hits: es.prepared_hits(),
            prepared_misses: es.prepared_misses(),
            post_micros: m.post_micros,
            evict_flush_micros: m.evict_flush_micros,
            version_chain_len: m.version_chain_len,
            stmts_per_frame: es.stmts_per_frame.snapshot(),
        }
    }
}

/// What the traced pass attributed, by request [`Kind`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Counter deltas by request kind.
    pub by_kind: [Counts; 3],
    /// Requests by kind.
    pub requests: [u64; 3],
    /// Statements by kind.
    pub stmts: [u64; 3],
    /// Data-modifying statements (`CALL`, `NEW`).
    pub writes: u64,
    /// Most committed versions retained at once (`version_stats()`
    /// sampled after every request).
    pub versions_peak: usize,
}

impl Trace {
    /// Deltas over all request kinds.
    pub fn total(&self) -> Counts {
        let mut t = Counts::default();
        for k in &self.by_kind {
            t.add(k);
        }
        t
    }
}

/// Per-request counter attribution for the traced pass.
pub struct Tracer {
    engine: Arc<Engine>,
    db: Arc<Database>,
    last: Counts,
    trace: Trace,
}

impl Tracer {
    /// Start attributing from the counters' current values.
    pub fn new(engine: &Arc<Engine>, db: &Arc<Database>) -> Tracer {
        Tracer {
            last: Counts::read(db, engine),
            engine: Arc::clone(engine),
            db: Arc::clone(db),
            trace: Trace::default(),
        }
    }

    /// Attribute everything counted since the previous request to this
    /// one, and return it.
    pub fn after(&mut self, kind: Kind, stmts: u64, writes: u64) -> Counts {
        let now = Counts::read(&self.db, &self.engine);
        let delta = now.delta(&self.last);
        let t = &mut self.trace;
        t.by_kind[kind as usize].add(&delta);
        self.last = now;
        t.requests[kind as usize] += 1;
        t.stmts[kind as usize] += stmts;
        t.writes += writes;
        let versions = self.db.storage().version_stats().versions;
        t.versions_peak = t.versions_peak.max(versions);
        delta
    }

    /// Stop attributing and release the database handles.
    pub fn finish(self) -> Trace {
        self.trace
    }
}

/// Median µs per `ode_core::ddl::parse_statement` over the workload's own
/// statement texts.
pub fn time_parse(texts: &[String]) -> Result<f64, String> {
    let mut ns = Vec::with_capacity(texts.len());
    for text in texts {
        let started = Instant::now();
        let parsed = ode_core::ddl::parse_statement(text);
        ns.push(started.elapsed().as_nanos() as u64);
        parsed.map_err(|e| format!("parse {text:?}: {e}"))?;
    }
    ns.sort_unstable();
    Ok(percentile_us(&ns, 0.5))
}

/// One trigger instance's event stream, with the mask answers the model
/// gives at each posting (indexed by `MaskId`).
pub type EventStream = (Vec<EventId>, Vec<Vec<bool>>);

/// Nanoseconds per event per machine for `Dfa::run_stream_with` over the
/// workload's own event streams (median of five repetitions).
pub fn time_fsm(machines: &[Dfa], streams: &[EventStream]) -> f64 {
    let events: usize = streams.iter().map(|(e, _)| e.len()).sum::<usize>() * machines.len();
    if events == 0 {
        return 0.0;
    }
    let mut reps = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let mut fired = 0;
        for machine in machines {
            for (stream, answers) in streams {
                fired += machine.run_stream_with(stream, |i, MaskId(m)| {
                    i > 0 && answers[i - 1].get(m as usize).copied().unwrap_or(false)
                });
            }
        }
        std::hint::black_box(fired);
        reps.push(started.elapsed().as_nanos() as f64 / events as f64);
    }
    median(&mut reps)
}

/// Median µs of each storage call when the workload's own read and write
/// sets are replayed through `Storage` directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct StorageTimes {
    /// `Storage::read` in a 2PL transaction.
    pub read_us: f64,
    /// `Storage::update` (the object's own bytes written back).
    pub update_us: f64,
    /// `Storage::commit_deferred` + `Storage::commit_wait`.
    pub commit_us: f64,
}

/// Replay `reads` and `writes` through the storage manager: one
/// transaction per object, writes store the bytes they read, so the
/// database's contents do not change.
pub fn replay_storage(
    storage: &Storage,
    reads: &[Oid],
    writes: &[Oid],
) -> Result<StorageTimes, String> {
    let err = |e: ode_storage::StorageError| e.to_string();
    let (mut read_ns, mut update_ns, mut commit_ns) = (Vec::new(), Vec::new(), Vec::new());
    for &oid in reads {
        let txn = storage.begin().map_err(err)?;
        let started = Instant::now();
        let data = storage.read(txn, oid).map_err(err)?;
        read_ns.push(started.elapsed().as_nanos() as u64);
        std::hint::black_box(data);
        storage.commit(txn).map_err(err)?;
    }
    for &oid in writes {
        let txn = storage.begin().map_err(err)?;
        let data = storage.read(txn, oid).map_err(err)?;
        let started = Instant::now();
        storage.update(txn, oid, &data).map_err(err)?;
        update_ns.push(started.elapsed().as_nanos() as u64);
        let started = Instant::now();
        let ticket = storage.commit_deferred(txn).map_err(err)?;
        storage.commit_wait(ticket).map_err(err)?;
        commit_ns.push(started.elapsed().as_nanos() as u64);
    }
    for v in [&mut read_ns, &mut update_ns, &mut commit_ns] {
        v.sort_unstable();
    }
    Ok(StorageTimes {
        read_us: percentile_us(&read_ns, 0.5),
        update_us: percentile_us(&update_ns, 0.5),
        commit_us: percentile_us(&commit_ns, 0.5),
    })
}

/// The isolated layer timings of a traced run: the benchmark's own calls
/// into each module's public functions, over the workload's own inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `ddl.parse_us`.
    pub parse_us: f64,
    /// `events.fsm_ns_per_event` (0 where no trigger is armed).
    pub fsm_ns_per_event: f64,
    /// `storage.*_us`.
    pub storage: StorageTimes,
    /// `server.noop_rtt_us`, on the served workload only.
    pub noop_rtt_us: Option<f64>,
}

/// Everything a traced run measured.
pub struct Layers<'a> {
    /// The traced run's untraced pass (same stream, fresh set-up).
    pub untraced: &'a Summary,
    /// The traced pass.
    pub traced: &'a Summary,
    /// Its counter attribution.
    pub trace: &'a Trace,
    /// The isolated layer timings.
    pub times: LayerTimes,
    /// Failures over attempts across the whole run.
    pub failed_frac: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn layer_metrics(l: &Layers<'_>) -> Vec<Metric> {
    let LayerTimes {
        parse_us,
        fsm_ns_per_event,
        storage,
        noop_rtt_us,
    } = l.times;
    let t = l.trace.total();
    let read = &l.trace.by_kind[Kind::Read as usize];
    let write = &l.trace.by_kind[Kind::Write as usize];
    let stmts = l.trace.stmts.iter().sum::<u64>() as f64;
    let writes = l.trace.writes as f64;
    let reads = l.trace.requests[Kind::Read as usize] as f64;
    let commits = t.commits as f64;
    let hit_ratio = ratio(
        t.prepared_hits as f64,
        (t.prepared_hits + t.prepared_misses) as f64,
    );
    let served = noop_rtt_us.is_some();

    // The ledger: the traced write p50 minus the isolated cost of every
    // layer one write request crosses.
    let write_requests = l.trace.requests[Kind::Write as usize] as f64;
    let per_request = |n: f64| ratio(n, write_requests);
    let explained = noop_rtt_us.unwrap_or(0.0)
        + parse_us * (1.0 - hit_ratio) * per_request(l.trace.stmts[Kind::Write as usize] as f64)
        + (storage.read_us + storage.update_us) * per_request(writes)
        + storage.commit_us * per_request(write.commits as f64)
        + fsm_ns_per_event / 1000.0 * per_request(write.fsm_advances as f64);

    vec![
        metric(
            "server.frame_rtt_us",
            if served { l.traced.write_p50_us } else { 0.0 },
            "us",
        ),
        metric("server.noop_rtt_us", noop_rtt_us.unwrap_or(0.0), "us"),
        metric(
            "server.stmts_per_frame",
            ratio(t.stmts_per_frame.sum as f64, t.stmts_per_frame.count as f64),
            "count",
        ),
        metric("ddl.parse_us", parse_us, "us"),
        metric("ddl.cache_hit_ratio", hit_ratio, "ratio"),
        metric("events.fsm_ns_per_event", fsm_ns_per_event, "ns"),
        metric(
            "core.fsm_advances_per_write",
            ratio(t.fsm_advances as f64, writes),
            "count",
        ),
        metric(
            "core.mask_evals_per_write",
            ratio(t.mask_evals as f64, writes),
            "count",
        ),
        metric(
            "core.state_writebacks_per_write",
            ratio(t.state_writebacks as f64, writes),
            "count",
        ),
        metric(
            "core.state_cache_hit_ratio",
            ratio(
                t.state_cache_hits as f64,
                (t.state_cache_hits + t.state_cache_misses) as f64,
            ),
            "ratio",
        ),
        metric(
            "core.firings_per_write",
            ratio(t.firings as f64, writes),
            "count",
        ),
        metric(
            "core.dependent_firings_per_write",
            ratio(t.dependent_firings as f64, writes),
            "count",
        ),
        metric("core.post_us_p50", t.post_micros.p50() as f64, "us"),
        metric(
            "lock.acquisitions_per_stmt",
            ratio(t.lock_acquisitions as f64, stmts),
            "count",
        ),
        metric(
            "lock.upgrades_per_stmt",
            ratio(t.lock_upgrades as f64, stmts),
            "count",
        ),
        metric(
            "lock.waits_per_stmt",
            ratio(t.lock_waits as f64, stmts),
            "count",
        ),
        metric(
            "lock.acquisitions_per_get",
            ratio(read.lock_acquisitions as f64, reads),
            "count",
        ),
        metric("storage.read_us", storage.read_us, "us"),
        metric("storage.update_us", storage.update_us, "us"),
        metric("storage.commit_us", storage.commit_us, "us"),
        metric(
            "wal.appends_per_commit",
            ratio(t.wal_appends as f64, commits),
            "count",
        ),
        metric(
            "wal.group_commits_per_commit",
            ratio(t.wal_group_commits as f64, commits),
            "count",
        ),
        metric(
            "wal.bytes_per_commit",
            ratio(t.wal_bytes as f64, commits),
            "bytes",
        ),
        metric(
            "wal_bytes_per_write",
            ratio(t.wal_bytes as f64, writes),
            "bytes",
        ),
        metric(
            "buffer.miss_ratio",
            ratio(t.buf_misses as f64, (t.buf_hits + t.buf_misses) as f64),
            "ratio",
        ),
        metric(
            "buffer.evictions_per_op",
            ratio(t.evictions as f64, stmts),
            "count",
        ),
        metric(
            "buffer.steals_per_op",
            ratio(t.steals as f64, stmts),
            "count",
        ),
        metric(
            "buffer.evict_flush_us_p99",
            t.evict_flush_micros.p99() as f64,
            "us",
        ),
        metric("checkpoint.count", t.checkpoints as f64, "count"),
        metric(
            "checkpoint.truncated_bytes_per_write",
            ratio(t.wal_truncated_bytes as f64, writes),
            "bytes",
        ),
        metric(
            "version.chain_len_p99",
            t.version_chain_len.p99() as f64,
            "count",
        ),
        metric(
            "version.versions_peak",
            l.trace.versions_peak as f64,
            "count",
        ),
        metric(
            "version.gced_per_write",
            ratio(t.versions_gced as f64, writes),
            "count",
        ),
        metric(
            "version.snapshot_reads_per_read",
            ratio(read.snapshot_reads as f64, reads),
            "count",
        ),
        metric(
            "ledger.residual_us",
            l.traced.write_p50_us - explained,
            "us",
        ),
        metric(
            "trace.overhead_frac",
            ratio(l.traced.stmts_per_s, l.untraced.stmts_per_s),
            "ratio",
        ),
        metric("host.ref_kernel_us", l.untraced.kernel_us, "us"),
        metric("failed_frac", l.failed_frac, "ratio"),
    ]
}

//! `served_snapshot` — the wire, session dispatch and MVCC version
//! chains, over `ode-server` on loopback (disk engine, fsync off, data
//! that fits the pool, one `DenyCredit` armed per card).
//!
//! One thread alternates between two connections, so at most one server
//! connection thread is busy. The writer sends protocol-v2 batch frames
//! of explicit transactions, each moving both cards of a fixed pair by
//! the same amount. The reader holds a `BEGIN READ ONLY` snapshot across
//! several writer frames and sends v1 `GET` frames; every read must equal
//! the model at the snapshot point, and the two cards of a pair must
//! match.

use crate::measure::{percentile_us, Kind, Recorder, Sample};
use crate::rng::Rng;
use crate::trace::{replay_storage, time_fsm, time_parse, EventStream, LayerTimes, Tracer};
use crate::{parse_oid, Checker, Segment, Shape, Workload};
use ode_core::{Database, Engine};
use ode_events::{Alphabet, Dfa, EventId};
use ode_server::Server;
use ode_storage::{EngineKind, StorageOptions};
use ode_testutil::WireClient;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The class: Figure 1's `CredCard` with a limit no workload reaches.
pub const CLASS: &str = "CREATE CLASS CredCard { \
    FIELD cred_lim = 1000000000; FIELD curr_bal = 0; FIELD good_hist = 1; \
    EVENT AFTER Buy; EVENT AFTER PayBill; \
    MASK OverLimit WHEN curr_bal > cred_lim; }";

/// Figure 1's `DenyCredit`, armed on every card.
pub const DENY_CREDIT: &str = "CREATE TRIGGER DenyCredit ON CredCard PERPETUAL \
    WHEN after Buy & OverLimit() COUPLING immediate DO ABORT 'Over Limit'";

const PAIRS: usize = 256;
const TINY_PAIRS: usize = 8;
/// Explicit transactions per writer frame (4 statements each).
const TXNS_PER_FRAME: usize = 4;
/// Pairs the reader reads (two `GET`s each) after every writer frame.
const PAIRS_READ_PER_FRAME: usize = 2;
/// Writer frames one reader snapshot is held across.
const FRAMES_PER_SNAPSHOT: u64 = 16;
const AMOUNTS: [i64; 3] = [1, 2, 5];
const POOL_PAGES: usize = 256;
/// Committed transactions between fuzzy checkpoints: a multiple of the
/// transactions in a snapshot cycle. A frame that carries a checkpoint
/// is the slowest kind; at 256, one frame in 64 (1.6%) carries one, so
/// the frame p99 falls inside their population. At 512 (0.8%) it fell
/// at its edge and swung 514–782 µs between seeds.
pub const CHECKPOINT_EVERY: u64 = 256;
/// Statements per set-up batch frame.
const SETUP_BATCH: usize = 64;
const NOOP_ROUND_TRIPS: usize = 2000;
const TOKEN: &str = "odebench";
const SALT: u64 = 3;

/// Run sizing: windows of 512 committed transactions (128 writer frames,
/// about 60 ms), so each window holds exactly two fuzzy checkpoints and
/// eight snapshot cycles; fifteen segments; two set-ups of a few tens of
/// milliseconds per segment.
pub const SHAPE: Shape = Shape {
    stmts_per_second: 40_000,
    segments: 15,
    window_units: 2 * CHECKPOINT_EVERY,
    setups: 2,
};

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Writer: one batch frame of `(pair, delta)` transactions.
    Frame(Vec<(usize, i64)>),
    /// Reader: `COMMIT` the held snapshot.
    EndSnapshot,
    /// Reader: `BEGIN READ ONLY`.
    BeginSnapshot,
    /// Reader: `GET <card> curr_bal` for one card (0 or 1) of a pair.
    Get(usize, usize),
}

/// The seeded request generator.
pub struct Gen {
    rng: Rng,
    pairs: usize,
    frames: u64,
}

impl Gen {
    /// The stream of `seed`'s segment `segment` over `pairs` card pairs.
    pub fn new(seed: u64, segment: u64, pairs: usize) -> Gen {
        Gen {
            rng: Rng::new(seed, SALT + (segment << 8)),
            pairs,
            frames: 0,
        }
    }

    /// The next round: a fresh snapshot every `FRAMES_PER_SNAPSHOT`
    /// frames, one writer frame, then reads of two pairs.
    pub fn next_round(&mut self, out: &mut VecDeque<Request>) {
        if self.frames.is_multiple_of(FRAMES_PER_SNAPSHOT) {
            if self.frames > 0 {
                out.push_back(Request::EndSnapshot);
            }
            out.push_back(Request::BeginSnapshot);
        }
        self.frames += 1;
        let txns = (0..TXNS_PER_FRAME)
            .map(|_| {
                let pair = self.rng.index(self.pairs);
                let amount = AMOUNTS[self.rng.index(AMOUNTS.len())];
                let delta = if self.rng.below(2) == 0 {
                    amount
                } else {
                    -amount
                };
                (pair, delta)
            })
            .collect();
        out.push_back(Request::Frame(txns));
        for _ in 0..PAIRS_READ_PER_FRAME {
            let pair = self.rng.index(self.pairs);
            out.push_back(Request::Get(pair, 0));
            out.push_back(Request::Get(pair, 1));
        }
    }
}

/// The statements of one writer frame.
pub fn frame_texts(txns: &[(usize, i64)], oids: &[String]) -> Vec<String> {
    let mut stmts = Vec::with_capacity(txns.len() * 4);
    for &(pair, delta) in txns {
        stmts.push("BEGIN".to_string());
        for card in [2 * pair, 2 * pair + 1] {
            stmts.push(if delta >= 0 {
                format!("CALL {} Buy SET curr_bal = curr_bal + {delta}", oids[card])
            } else {
                format!(
                    "CALL {} PayBill SET curr_bal = curr_bal - {}",
                    oids[card], -delta
                )
            });
        }
        stmts.push("COMMIT".to_string());
    }
    stmts
}

/// The statement texts of a request.
pub fn request_texts(req: &Request, oids: &[String]) -> Vec<String> {
    match req {
        Request::Frame(txns) => frame_texts(txns, oids),
        Request::EndSnapshot => vec!["COMMIT".into()],
        Request::BeginSnapshot => vec!["BEGIN READ ONLY".into()],
        Request::Get(pair, half) => vec![format!("GET {} curr_bal", oids[2 * pair + half])],
    }
}

/// The first `n` requests of `seed`'s first segment.
pub fn requests(seed: u64, pairs: usize, n: usize) -> Vec<Request> {
    let mut gen = Gen::new(seed, 0, pairs);
    let mut queue = VecDeque::new();
    while queue.len() < n {
        gen.next_round(&mut queue);
    }
    queue.into_iter().take(n).collect()
}

/// The storage options every set-up uses.
pub fn options() -> StorageOptions {
    StorageOptions {
        engine: EngineKind::Disk,
        buffer_pages: POOL_PAGES,
        fsync: false,
        group_commit: true,
        checkpoint_every: CHECKPOINT_EVERY,
        checkpoint_interval: None,
        ..StorageOptions::default()
    }
}

/// A served database with its two client connections, and each card's
/// balance as the model has it.
pub struct Rig {
    server: Option<Server>,
    engine: Arc<Engine>,
    db: Arc<Database>,
    writer: WireClient,
    reader: WireClient,
    oids: Vec<String>,
    model: Vec<i64>,
}

impl Drop for Rig {
    /// Close both connections, stop the server, and wait until its
    /// connection threads have dropped their sessions.
    fn drop(&mut self) {
        let _ = self.writer.send("QUIT");
        let _ = self.reader.send("QUIT");
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.engine.stats().sessions_open() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// One v1 round trip; the reply payload, or the `ERR` message.
fn wire(client: &mut WireClient, stmt: &str) -> Result<String, String> {
    let mut out = String::new();
    client.exec_into(stmt, &mut out)?;
    Ok(out)
}

/// One batch frame; the raw per-statement replies.
fn batch(client: &mut WireClient, stmts: &[String]) -> Result<Vec<String>, String> {
    let refs: Vec<&str> = stmts.iter().map(String::as_str).collect();
    let mut replies = Vec::new();
    client.send_batch(&refs, true).map_err(|e| e.to_string())?;
    client
        .read_batch_reply_into(&mut replies)
        .map_err(|e| e.to_string())?;
    Ok(replies)
}

/// A set-up batch whose every statement must succeed; the payloads.
fn setup_batch(client: &mut WireClient, stmts: &[String]) -> Result<Vec<String>, String> {
    batch(client, stmts)?
        .into_iter()
        .zip(stmts)
        .map(|(reply, stmt)| match reply.strip_prefix("OK") {
            Some(payload) => Ok(payload.trim_start().to_string()),
            None => Err(format!("{stmt}: {reply}")),
        })
        .collect()
}

/// Each card's `DenyCredit` event stream over the first `n` requests
/// (`OverLimit` never holds: the limit is out of reach).
fn event_streams(seed: u64, pairs: usize, n: usize) -> Vec<EventStream> {
    let mut streams: Vec<EventStream> = vec![(Vec::new(), Vec::new()); 2 * pairs];
    for req in requests(seed, pairs, n) {
        if let Request::Frame(txns) = req {
            for (pair, delta) in txns {
                for card in [2 * pair, 2 * pair + 1] {
                    let event = EventId(if delta >= 0 { 0 } else { 1 });
                    streams[card].0.push(event);
                    streams[card].1.push(vec![false]);
                }
            }
        }
    }
    streams
}

fn deny_credit_machine() -> Result<Dfa, String> {
    let mut alphabet = Alphabet::new();
    alphabet.add_event(EventId(0), "after Buy");
    alphabet.add_event(EventId(1), "after PayBill");
    alphabet.add_mask("OverLimit");
    let te =
        ode_events::parse("after Buy & OverLimit()", &alphabet).map_err(|e| format!("{e:?}"))?;
    Ok(Dfa::compile(&te, &alphabet))
}

/// The workload over a number of card pairs.
pub struct ServedSnapshot {
    pairs: usize,
}

impl ServedSnapshot {
    /// The benchmark's 256 pairs, or the self-test's 8.
    pub fn new(tiny: bool) -> ServedSnapshot {
        ServedSnapshot {
            pairs: if tiny { TINY_PAIRS } else { PAIRS },
        }
    }
}

impl Workload for ServedSnapshot {
    type Rig = Rig;
    const ENGINE: &'static str = "disk";

    fn setup(&mut self, dir: &Path) -> Result<Rig, String> {
        let _ = std::fs::remove_dir_all(dir);
        let engine = Engine::open(dir, options()).map_err(|e| e.to_string())?;
        let server =
            Server::start(Arc::clone(&engine), "127.0.0.1:0", TOKEN).map_err(|e| e.to_string())?;
        let addr = server.addr().to_string();
        let mut writer = WireClient::connect(&addr, TOKEN).map_err(|e| e.to_string())?;
        let mut reader = WireClient::connect(&addr, TOKEN).map_err(|e| e.to_string())?;
        for stmt in ["CREATE DATABASE bank", "USE bank", CLASS, DENY_CREDIT] {
            wire(&mut writer, stmt).map_err(|e| format!("{stmt}: {e}"))?;
        }
        wire(&mut reader, "USE bank")?;
        let cards = 2 * self.pairs;
        let mut oids = Vec::with_capacity(cards);
        while oids.len() < cards {
            let n = SETUP_BATCH.min(cards - oids.len());
            oids.extend(setup_batch(
                &mut writer,
                &vec!["NEW CredCard".to_string(); n],
            )?);
        }
        for chunk in oids.chunks(SETUP_BATCH) {
            let stmts: Vec<String> = chunk
                .iter()
                .map(|oid| format!("ACTIVATE DenyCredit ON {oid}"))
                .collect();
            setup_batch(&mut writer, &stmts)?;
        }
        let db = engine.database("bank").map_err(|e| e.to_string())?;
        Ok(Rig {
            server: Some(server),
            engine,
            db,
            writer,
            reader,
            oids,
            model: vec![0; cards],
        })
    }

    fn handles(rig: &Rig) -> (&Arc<Engine>, &Arc<Database>) {
        (&rig.engine, &rig.db)
    }

    /// One measured pass. Traced, a snapshot `GET` must also take no
    /// lock.
    fn pass(
        &mut self,
        rig: &mut Rig,
        rec: &mut Recorder,
        (seed, segment, stmts): Segment,
        check: &mut Checker,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<(), String> {
        let Rig {
            writer,
            reader,
            oids,
            model,
            ..
        } = rig;
        let mut gen = Gen::new(seed, segment, model.len() / 2);
        let mut queue = VecDeque::new();
        let mut snapshot: Vec<i64> = Vec::new();
        let mut in_snapshot = false;
        let mut first_of_pair = None;
        let mut index = 0u64;
        rec.run(stmts, || {
            if queue.is_empty() {
                gen.next_round(&mut queue);
            }
            let req = queue.pop_front().expect("a round queues requests");
            let texts = request_texts(&req, oids);
            let started = Instant::now();
            let sample = match &req {
                Request::Frame(txns) => {
                    let replies = batch(writer, &texts)?;
                    let latency = started.elapsed();
                    for (t, &(pair, delta)) in txns.iter().enumerate() {
                        let mine = replies.get(4 * t..4 * t + 4).unwrap_or(&[]);
                        let ok = mine.len() == 4 && mine.iter().all(|r| r == "OK");
                        if ok {
                            model[2 * pair] += delta;
                            model[2 * pair + 1] += delta;
                        }
                        check.check(format_args!("{segment}.{index}.{t}"), ok, || {
                            format!("{:?}: got {mine:?}", &texts[4 * t..4 * t + 4])
                        });
                    }
                    Sample {
                        kind: Kind::Write,
                        latency,
                        stmts: texts.len() as u64,
                        units: txns.len() as u64,
                    }
                }
                Request::EndSnapshot | Request::BeginSnapshot => {
                    let reply = wire(reader, &texts[0]);
                    let latency = started.elapsed();
                    in_snapshot = req == Request::BeginSnapshot;
                    if in_snapshot {
                        snapshot.clear();
                        snapshot.extend_from_slice(model);
                    }
                    check.check(format_args!("{segment}.{index}"), reply.is_ok(), || {
                        format!("{:?}: got {reply:?}", texts[0])
                    });
                    Sample {
                        kind: Kind::Other,
                        latency,
                        stmts: 1,
                        units: 0,
                    }
                }
                &Request::Get(pair, half) => {
                    let reply = wire(reader, &texts[0]);
                    let latency = started.elapsed();
                    let card = 2 * pair + half;
                    let got = reply.as_ref().ok().and_then(|v| v.parse::<i64>().ok());
                    check.check(
                        format_args!("{segment}.{index}"),
                        got == Some(snapshot[card]),
                        || {
                            format!(
                                "{:?} in a snapshot: expected {}, got {reply:?}",
                                texts[0], snapshot[card]
                            )
                        },
                    );
                    if half == 0 {
                        first_of_pair = got;
                    } else {
                        let pair_ok = got.is_some() && got == first_of_pair;
                        check.check(format_args!("{segment}.{index}.pair"), pair_ok, || {
                            format!(
                                "torn pair {} / {}: {first_of_pair:?} vs {got:?}",
                                oids[2 * pair],
                                oids[2 * pair + 1]
                            )
                        });
                    }
                    Sample {
                        kind: Kind::Read,
                        latency,
                        stmts: 1,
                        units: 0,
                    }
                }
            };
            if let Some(t) = tracer.as_mut() {
                let writes = match &req {
                    Request::Frame(txns) => 2 * txns.len() as u64,
                    _ => 0,
                };
                let delta = t.after(sample.kind, sample.stmts, writes);
                if sample.kind == Kind::Read {
                    let locks = delta.lock_acquisitions;
                    check.check(format_args!("{segment}.{index}.locks"), locks == 0, || {
                        format!("{:?} in a snapshot took {locks} locks", texts[0])
                    });
                }
            }
            index += 1;
            Ok(sample)
        })?;
        if in_snapshot {
            wire(reader, "COMMIT")?;
        }
        Ok(())
    }

    fn payload_bytes(rig: &Rig) -> u64 {
        (rig.oids.len() * 3 * 8) as u64
    }

    fn layer_times(&mut self, rig: &mut Rig, seed: u64, n: usize) -> Result<LayerTimes, String> {
        let mut noop = Vec::with_capacity(NOOP_ROUND_TRIPS);
        for _ in 0..NOOP_ROUND_TRIPS {
            let started = Instant::now();
            wire(&mut rig.writer, "TRACE OFF")?;
            noop.push(started.elapsed().as_nanos() as u64);
        }
        noop.sort_unstable();

        let sample = requests(seed, self.pairs, n);
        let texts: Vec<String> = sample
            .iter()
            .flat_map(|r| request_texts(r, &rig.oids))
            .collect();
        let parse_us = time_parse(&texts)?;
        let fsm_ns_per_event = time_fsm(
            &[deny_credit_machine()?],
            &event_streams(seed, self.pairs, sample.len()),
        );
        let oid = |card: usize| {
            parse_oid(&rig.oids[card]).ok_or_else(|| format!("bad oid {}", rig.oids[card]))
        };
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        for req in &sample {
            match req {
                Request::Get(pair, half) => reads.push(oid(2 * pair + half)?),
                Request::Frame(txns) => {
                    for (pair, _) in txns {
                        writes.push(oid(2 * pair)?);
                        writes.push(oid(2 * pair + 1)?);
                    }
                }
                _ => {}
            }
        }
        Ok(LayerTimes {
            parse_us,
            fsm_ns_per_event,
            storage: replay_storage(rig.db.storage(), &reads, &writes)?,
            noop_rtt_us: Some(percentile_us(&noop, 0.5)),
        })
    }

    /// Every card must read back as the model says, outside any
    /// snapshot.
    fn verify(&mut self, mut rig: Rig, check: &mut Checker) -> Result<(), String> {
        for (i, (oid, want)) in rig.oids.iter().zip(&rig.model).enumerate() {
            let stmt = format!("GET {oid} curr_bal");
            let got = wire(&mut rig.writer, &stmt);
            let ok = matches!(&got, Ok(v) if v.parse::<i64>().ok() == Some(*want));
            check.check(format_args!("verify-{i}"), ok, || {
                format!("final {stmt:?}: expected {want}, got {got:?}")
            });
        }
        Ok(())
    }

    fn notes(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }
}

//! `wal_evict` — storage under memory pressure, embedded on the disk
//! engine (EOS-style: WAL, group commit, a steal buffer pool, fuzzy
//! checkpoints every N commits, fsync off).
//!
//! 100K `Account` objects on about three times as many pages as the pool
//! holds. The class declares events but no trigger is armed. The mix is
//! uniform `CALL … Deposit SET` updates, some `NEW`, and point `GET`s;
//! every update and insert carries its statement index, so nearly every
//! statement text is distinct and is parsed. After the pass the database
//! is closed cleanly, reopened with `Engine::open`, and every object must
//! read back as the model last acknowledged it.

use crate::measure::{Kind, Recorder, Sample};
use crate::rng::Rng;
use crate::trace::{replay_storage, time_parse, LayerTimes, Tracer};
use crate::{exec, parse_oid, Checker, Segment, Shape, Workload};
use ode_core::{Database, Engine};
use ode_storage::{EngineKind, StorageOptions};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The class: three fields, two declared events, no trigger.
pub const CLASS: &str = "CREATE CLASS Account { \
    FIELD bal = 0; FIELD ver = 0; FIELD owner = 0; \
    EVENT AFTER Deposit; EVENT AFTER Withdraw; }";

const OBJECTS: usize = 100_000;
const POOL_PAGES: usize = 256;
/// Logged commits between fuzzy checkpoints.
pub const CHECKPOINT_EVERY: u64 = 4096;
const TINY_OBJECTS: usize = 600;
const TINY_POOL_PAGES: usize = 4;
const TINY_CHECKPOINT_EVERY: u64 = 64;
/// `NEW` statements per set-up transaction.
const POPULATE_BATCH: usize = 1000;
/// Fields per object, 8 bytes each.
const FIELDS: u64 = 3;
const SALT: u64 = 2;

/// Run sizing: windows of [`CHECKPOINT_EVERY`] logged commits (write
/// statements), so each window holds exactly one fuzzy checkpoint
/// (about 0.2 s); nine segments; one set-up of about half a second per
/// segment.
pub const SHAPE: Shape = Shape {
    stmts_per_second: 40_000,
    segments: 9,
    window_units: CHECKPOINT_EVERY,
    setups: 1,
};

/// One generated statement. Objects are indexes into the population,
/// which grows with every `NEW`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `CALL <obj> Deposit SET bal = <bal>, ver = <stmt index>`
    Set(usize, u64),
    /// `NEW Account SET bal = <bal>, ver = <stmt index>`
    New(u64),
    /// `GET <obj> bal`
    Get(usize),
}

/// The seeded statement generator.
pub struct Gen {
    rng: Rng,
    objects: usize,
}

impl Gen {
    /// The stream of `seed`'s segment `segment` over an initial
    /// population of `objects`.
    pub fn new(seed: u64, segment: u64, objects: usize) -> Gen {
        Gen {
            rng: Rng::new(seed, SALT + (segment << 8)),
            objects,
        }
    }

    /// The next statement: 55% update, 5% insert, 40% point read, over
    /// objects chosen uniformly.
    pub fn next_op(&mut self) -> Op {
        let r = self.rng.below(100);
        let obj = self.rng.index(self.objects);
        let bal = self.rng.below(1_000_000_000);
        match r {
            0..=54 => Op::Set(obj, bal),
            55..=59 => {
                self.objects += 1;
                Op::New(bal)
            }
            _ => Op::Get(obj),
        }
    }
}

/// Render statement `index` of the stream; `oid` names an object.
pub fn write_text<'a>(op: Op, index: u64, oid: impl Fn(usize) -> &'a str, out: &mut String) {
    let _ = match op {
        Op::Set(o, bal) => write!(
            out,
            "CALL {} Deposit SET bal = {bal}, ver = {index}",
            oid(o)
        ),
        Op::New(bal) => write!(out, "NEW Account SET bal = {bal}, ver = {index}"),
        Op::Get(o) => write!(out, "GET {} bal", oid(o)),
    };
}

/// The first `n` statement texts of `seed`'s first segment over `oids`
/// (which must name every object the first `n` statements touch).
pub fn stream(seed: u64, initial: usize, oids: &[String], n: usize) -> Vec<String> {
    let mut gen = Gen::new(seed, 0, initial);
    (0..n as u64)
        .map(|i| {
            let mut s = String::new();
            write_text(gen.next_op(), i, |o| oids[o].as_str(), &mut s);
            s
        })
        .collect()
}

/// One object as the model last acknowledged it.
#[derive(Debug, Clone)]
struct Object {
    oid: String,
    bal: u64,
    ver: u64,
    owner: u64,
}

/// The storage options every set-up uses.
pub fn options(tiny: bool) -> StorageOptions {
    StorageOptions {
        engine: EngineKind::Disk,
        buffer_pages: if tiny { TINY_POOL_PAGES } else { POOL_PAGES },
        fsync: false,
        group_commit: true,
        checkpoint_every: if tiny {
            TINY_CHECKPOINT_EVERY
        } else {
            CHECKPOINT_EVERY
        },
        checkpoint_interval: None,
        ..StorageOptions::default()
    }
}

/// One set-up, with the objects as the model last acknowledged them.
pub struct Rig {
    engine: Arc<Engine>,
    db: Arc<Database>,
    dir: PathBuf,
    objects: Vec<Object>,
}

/// The workload over an initial population, remembering the data pages
/// of the last verified pass.
pub struct WalEvict {
    population: usize,
    opts: StorageOptions,
    pages: u32,
}

impl WalEvict {
    /// The benchmark's 100K objects, or the self-test's 600.
    pub fn new(tiny: bool) -> WalEvict {
        WalEvict {
            population: if tiny { TINY_OBJECTS } else { OBJECTS },
            opts: options(tiny),
            pages: 0,
        }
    }
}

impl Workload for WalEvict {
    type Rig = Rig;
    const ENGINE: &'static str = "disk";

    fn setup(&mut self, dir: &Path) -> Result<Rig, String> {
        let _ = std::fs::remove_dir_all(dir);
        let engine = Engine::open(dir, self.opts.clone()).map_err(|e| e.to_string())?;
        let mut s = engine.session();
        exec(&mut s, "CREATE DATABASE acct")?;
        exec(&mut s, "USE acct")?;
        exec(&mut s, CLASS)?;
        let mut population = Vec::with_capacity(self.population);
        let mut stmt = String::new();
        for chunk in (0..self.population as u64)
            .collect::<Vec<_>>()
            .chunks(POPULATE_BATCH)
        {
            exec(&mut s, "BEGIN")?;
            for &owner in chunk {
                stmt.clear();
                let _ = write!(stmt, "NEW Account SET owner = {owner}");
                let oid = exec(&mut s, &stmt)?;
                population.push(Object {
                    oid,
                    bal: 0,
                    ver: 0,
                    owner,
                });
            }
            exec(&mut s, "COMMIT")?;
        }
        let db = engine.database("acct").map_err(|e| e.to_string())?;
        Ok(Rig {
            engine,
            db,
            dir: dir.to_path_buf(),
            objects: population,
        })
    }

    fn handles(rig: &Rig) -> (&Arc<Engine>, &Arc<Database>) {
        (&rig.engine, &rig.db)
    }

    /// One measured pass on a fresh session.
    fn pass(
        &mut self,
        rig: &mut Rig,
        rec: &mut Recorder,
        (seed, segment, stmts): Segment,
        check: &mut Checker,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<(), String> {
        let mut session = rig.engine.session();
        session.use_database("acct").map_err(|e| e.to_string())?;
        let mut gen = Gen::new(seed, segment, rig.objects.len());
        let objects = &mut rig.objects;
        let mut text = String::new();
        let mut index = 0;
        rec.run(stmts, || {
            let op = gen.next_op();
            text.clear();
            write_text(op, index, |o| objects[o].oid.as_str(), &mut text);
            let started = Instant::now();
            let reply = session.execute(&text);
            let latency = started.elapsed();
            let (kind, ok) = match (op, &reply) {
                (Op::Set(o, bal), Ok(_)) => {
                    objects[o].bal = bal;
                    objects[o].ver = index;
                    (Kind::Write, true)
                }
                (Op::New(bal), Ok(oid)) if parse_oid(oid).is_some() => {
                    objects.push(Object {
                        oid: oid.clone(),
                        bal,
                        ver: index,
                        owner: 0,
                    });
                    (Kind::Write, true)
                }
                (Op::New(_), _) => {
                    // Later statements name the new object by its position;
                    // without it the stream cannot continue.
                    return Err(format!(
                        "seed={seed} stmt={segment}.{index}: {text:?} failed: {reply:?}"
                    ));
                }
                (Op::Get(o), Ok(v)) => (Kind::Read, v.parse::<u64>().ok() == Some(objects[o].bal)),
                (Op::Get(_), Err(_)) => (Kind::Read, false),
                (Op::Set(..), Err(_)) => (Kind::Write, false),
            };
            check.check(format_args!("{segment}.{index}"), ok, || {
                format!("{text:?}: got {reply:?}")
            });
            index += 1;
            if let Some(t) = tracer.as_mut() {
                t.after(kind, 1, u64::from(kind == Kind::Write));
            }
            Ok(Sample {
                kind,
                latency,
                stmts: 1,
                units: u64::from(kind == Kind::Write),
            })
        })
    }

    fn payload_bytes(rig: &Rig) -> u64 {
        rig.objects.len() as u64 * FIELDS * 8
    }

    fn layer_times(&mut self, rig: &mut Rig, seed: u64, n: usize) -> Result<LayerTimes, String> {
        let oids: Vec<String> = rig.objects.iter().map(|o| o.oid.clone()).collect();
        let parse_us = time_parse(&stream(seed, self.population, &oids, n))?;
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        let mut gen = Gen::new(seed, 0, self.population);
        for _ in 0..n {
            match gen.next_op() {
                Op::Get(o) => reads.push(o),
                Op::Set(o, _) => writes.push(o),
                Op::New(_) => {}
            }
        }
        let to_oids = |idx: Vec<usize>| -> Result<Vec<_>, String> {
            idx.into_iter()
                .map(|o| parse_oid(&oids[o]).ok_or_else(|| format!("bad oid {}", oids[o])))
                .collect()
        };
        Ok(LayerTimes {
            parse_us,
            fsm_ns_per_event: 0.0,
            storage: replay_storage(rig.db.storage(), &to_oids(reads)?, &to_oids(writes)?)?,
            noop_rtt_us: None,
        })
    }

    /// Close the database cleanly, reopen the root with `Engine::open`,
    /// and read every object back.
    fn verify(&mut self, rig: Rig, check: &mut Checker) -> Result<(), String> {
        let Rig {
            engine,
            db,
            dir,
            objects,
        } = rig;
        self.pages = db.storage().page_count();
        drop(engine);
        let db = Arc::try_unwrap(db).map_err(|_| "database still shared at close".to_string())?;
        db.close().map_err(|e| e.to_string())?;
        let engine = Engine::open(&dir, self.opts.clone()).map_err(|e| e.to_string())?;
        let mut s = engine.session();
        exec(&mut s, "USE acct")?;
        exec(&mut s, CLASS)?;
        let mut stmt = String::new();
        for (i, obj) in objects.iter().enumerate() {
            stmt.clear();
            let _ = write!(stmt, "GET {}", obj.oid);
            let got = s.execute(&stmt);
            let want = format!("bal={} ver={} owner={}", obj.bal, obj.ver, obj.owner);
            let ok = matches!(&got, Ok(v) if *v == want);
            check.check(format_args!("reopen-{i}"), ok, || {
                format!("after reopen {stmt:?}: expected {want:?}, got {got:?}")
            });
        }
        Ok(())
    }

    fn notes(&self) -> Vec<(&'static str, String)> {
        vec![(
            "data_pages_per_pool_frame",
            format!("{} / {}", self.pages, self.opts.buffer_pages),
        )]
    }
}

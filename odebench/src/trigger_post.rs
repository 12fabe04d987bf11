//! `trigger_post` — the trigger run-time under load, embedded on the
//! memory engine (MM-Ode over Dali).
//!
//! Figure 1's `CredCard` with `DenyCredit`, two `AutoRaiseLimit`
//! instances and the dependent `SettleDependent` armed on every card.
//! The mix is mostly `CALL … Buy`/`PayBill` with some `GET`. Buys push
//! balances against the limit, so a share of them is denied by
//! `DenyCredit`; the model predicts exactly which. Every statement text
//! repeats (32 cards × 12 texts < the 512-entry parse cache), so the
//! parse cache serves nearly every statement.

use crate::measure::{Kind, Recorder, Sample};
use crate::rng::Rng;
use crate::trace::{replay_storage, time_fsm, time_parse, EventStream, LayerTimes, Tracer};
use crate::{exec, parse_oid, Checker, Segment, Shape, Workload};
use ode_core::{Database, Engine};
use ode_events::{Alphabet, Dfa, EventId};
use ode_storage::StorageOptions;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The schema: Figure 1's class and its three triggers.
pub const SCHEMA: [&str; 4] = [
    "CREATE CLASS CredCard { \
        FIELD cred_lim = 1000; FIELD curr_bal = 0; FIELD good_hist = 1; \
        EVENT AFTER Buy; EVENT AFTER PayBill; \
        MASK OverLimit WHEN curr_bal > cred_lim; \
        MASK MoreCred WHEN curr_bal > 0.8 * cred_lim AND good_hist == 1; }",
    "CREATE TRIGGER DenyCredit ON CredCard PERPETUAL \
        WHEN after Buy & OverLimit() COUPLING immediate DO ABORT 'Over Limit'",
    "CREATE TRIGGER AutoRaiseLimit ON CredCard \
        WHEN relative((after Buy & MoreCred()), after PayBill) \
        COUPLING immediate DO SET cred_lim = cred_lim + PARAM",
    "CREATE TRIGGER SettleDependent ON CredCard PERPETUAL \
        WHEN after PayBill COUPLING dependent DO SET good_hist = 1",
];

/// The event expressions of [`SCHEMA`]'s triggers, for the isolated FSM
/// timing.
const EXPRESSIONS: [&str; 3] = [
    "after Buy & OverLimit()",
    "relative((after Buy & MoreCred()), after PayBill)",
    "after PayBill",
];

const BUYS: [u32; 6] = [50, 100, 150, 200, 300, 400];
const PAYS: [u32; 4] = [100, 200, 300, 400];
/// Activation parameters of the two `AutoRaiseLimit` instances per card.
const RAISES: [f64; 2] = [500.0, 1000.0];
const CARDS: usize = 32;
const TINY_CARDS: usize = 4;
const SALT: u64 = 1;

/// Run sizing: windows of 3,000 statements (about 50 ms), fifteen
/// segments, two set-ups of a few milliseconds per segment.
pub const SHAPE: Shape = Shape {
    stmts_per_second: 60_000,
    segments: 15,
    window_units: 3_000,
    setups: 2,
};

/// A card field a `GET` reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// `curr_bal`
    Bal,
    /// `cred_lim`
    Lim,
}

/// One generated statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `CALL <card> Buy SET curr_bal = curr_bal + <amount>`
    Buy(usize, u32),
    /// `CALL <card> PayBill SET curr_bal = curr_bal - <amount>`
    PayBill(usize, u32),
    /// `GET <card> <field>`
    Get(usize, Field),
}

/// The seeded statement generator.
pub struct Gen {
    rng: Rng,
    cards: usize,
}

impl Gen {
    /// The stream of `seed`'s segment `segment` over `cards` cards.
    pub fn new(seed: u64, segment: u64, cards: usize) -> Gen {
        Gen {
            rng: Rng::new(seed, SALT + (segment << 8)),
            cards,
        }
    }

    /// The next statement: 55% Buy, 30% PayBill, 15% GET.
    pub fn next_op(&mut self) -> Op {
        let card = self.rng.index(self.cards);
        match self.rng.below(100) {
            0..=54 => Op::Buy(card, BUYS[self.rng.index(BUYS.len())]),
            55..=84 => Op::PayBill(card, PAYS[self.rng.index(PAYS.len())]),
            r if r % 2 == 0 => Op::Get(card, Field::Bal),
            _ => Op::Get(card, Field::Lim),
        }
    }
}

/// Render `op` against the cards' object ids.
pub fn write_text(op: Op, oids: &[String], out: &mut String) {
    let _ = match op {
        Op::Buy(c, a) => write!(out, "CALL {} Buy SET curr_bal = curr_bal + {a}", oids[c]),
        Op::PayBill(c, a) => write!(
            out,
            "CALL {} PayBill SET curr_bal = curr_bal - {a}",
            oids[c]
        ),
        Op::Get(c, Field::Bal) => write!(out, "GET {} curr_bal", oids[c]),
        Op::Get(c, Field::Lim) => write!(out, "GET {} cred_lim", oids[c]),
    };
}

/// The first `n` statement texts of `seed`'s first segment.
pub fn stream(seed: u64, oids: &[String], n: usize) -> Vec<String> {
    let mut gen = Gen::new(seed, 0, oids.len());
    (0..n)
        .map(|_| {
            let mut s = String::new();
            write_text(gen.next_op(), oids, &mut s);
            s
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Raise {
    Armed,
    /// `after Buy & MoreCred()` seen; the next PayBill fires.
    Seen,
    Fired,
}

#[derive(Debug, Clone)]
struct Card {
    lim: f64,
    bal: f64,
    hist: f64,
    raise: [Raise; 2],
}

/// What the model expects a statement to return.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// Success.
    Ok,
    /// `DenyCredit` aborts the statement.
    Denied,
    /// A `GET` returns this value.
    Value(f64),
}

/// The trigger semantics of [`SCHEMA`], per card.
#[derive(Debug, Clone)]
pub struct Model {
    cards: Vec<Card>,
    /// Buys attempted.
    pub buys: u64,
    /// Buys denied.
    pub denied: u64,
}

impl Model {
    /// Every card fresh: limit 1000, balance 0, both raises armed.
    pub fn new(cards: usize) -> Model {
        Model {
            cards: vec![
                Card {
                    lim: 1000.0,
                    bal: 0.0,
                    hist: 1.0,
                    raise: [Raise::Armed; 2],
                };
                cards
            ],
            buys: 0,
            denied: 0,
        }
    }

    /// The mask answers (`OverLimit`, `MoreCred`) after `op`'s body, as
    /// the FSMs see them when the `after` event is posted.
    fn masks(&self, op: Op) -> Vec<bool> {
        let (c, bal) = match op {
            Op::Buy(c, a) => (c, self.cards[c].bal + a as f64),
            Op::PayBill(c, a) => (c, self.cards[c].bal - a as f64),
            Op::Get(c, _) => (c, self.cards[c].bal),
        };
        let card = &self.cards[c];
        vec![bal > card.lim, bal > 0.8 * card.lim && card.hist == 1.0]
    }

    /// Apply `op` and return what the engine must reply.
    pub fn apply(&mut self, op: Op) -> Expect {
        match op {
            Op::Buy(c, a) => {
                self.buys += 1;
                let card = &mut self.cards[c];
                let bal = card.bal + a as f64;
                if bal > card.lim {
                    // The abort rolls back the write and every FSM advance.
                    self.denied += 1;
                    return Expect::Denied;
                }
                card.bal = bal;
                let more_cred = bal > 0.8 * card.lim && card.hist == 1.0;
                for r in &mut card.raise {
                    if *r == Raise::Armed && more_cred {
                        *r = Raise::Seen;
                    }
                }
                Expect::Ok
            }
            Op::PayBill(c, a) => {
                let card = &mut self.cards[c];
                card.bal -= a as f64;
                for (r, amount) in card.raise.iter_mut().zip(RAISES) {
                    if *r == Raise::Seen {
                        card.lim += amount;
                        *r = Raise::Fired;
                    }
                }
                card.hist = 1.0;
                Expect::Ok
            }
            Op::Get(c, Field::Bal) => Expect::Value(self.cards[c].bal),
            Op::Get(c, Field::Lim) => Expect::Value(self.cards[c].lim),
        }
    }
}

/// One set-up: engine, schema, cards and armed triggers, and the model.
pub struct Rig {
    engine: Arc<Engine>,
    db: Arc<Database>,
    oids: Vec<String>,
    model: Model,
}

/// The workload over `cards` cards, tallying Buys and denials over
/// every verified pass.
pub struct TriggerPost {
    cards: usize,
    buys: u64,
    denied: u64,
}

impl TriggerPost {
    /// The benchmark's 32 cards, or the self-test's 4.
    pub fn new(tiny: bool) -> TriggerPost {
        TriggerPost {
            cards: if tiny { TINY_CARDS } else { CARDS },
            buys: 0,
            denied: 0,
        }
    }
}

/// The three trigger machines, compiled from their expressions.
fn machines() -> Result<Vec<Dfa>, String> {
    let mut alphabet = Alphabet::new();
    alphabet.add_event(EventId(0), "after Buy");
    alphabet.add_event(EventId(1), "after PayBill");
    alphabet.add_mask("OverLimit");
    alphabet.add_mask("MoreCred");
    EXPRESSIONS
        .iter()
        .map(|expr| {
            ode_events::parse(expr, &alphabet)
                .map(|te| Dfa::compile(&te, &alphabet))
                .map_err(|e| format!("{expr}: {e:?}"))
        })
        .collect()
}

/// Each card's event stream over the first `n` statements, with the
/// model's mask answers at every posting.
fn event_streams(seed: u64, cards: usize, n: usize) -> Vec<EventStream> {
    let mut gen = Gen::new(seed, 0, cards);
    let mut model = Model::new(cards);
    let mut streams: Vec<EventStream> = vec![(Vec::new(), Vec::new()); cards];
    for _ in 0..n {
        let op = gen.next_op();
        let (card, event) = match op {
            Op::Buy(c, _) => (c, EventId(0)),
            Op::PayBill(c, _) => (c, EventId(1)),
            Op::Get(..) => continue,
        };
        streams[card].1.push(model.masks(op));
        streams[card].0.push(event);
        model.apply(op);
    }
    streams
}

impl Workload for TriggerPost {
    type Rig = Rig;
    const ENGINE: &'static str = "memory";

    fn setup(&mut self, _dir: &Path) -> Result<Rig, String> {
        let engine = Engine::volatile_with(StorageOptions::memory());
        let mut s = engine.session();
        exec(&mut s, "CREATE DATABASE bank")?;
        exec(&mut s, "USE bank")?;
        for stmt in SCHEMA {
            exec(&mut s, stmt)?;
        }
        let mut oids = Vec::with_capacity(self.cards);
        for _ in 0..self.cards {
            let oid = exec(&mut s, "NEW CredCard")?;
            exec(&mut s, &format!("ACTIVATE DenyCredit ON {oid}"))?;
            for amount in RAISES {
                exec(
                    &mut s,
                    &format!("ACTIVATE AutoRaiseLimit ON {oid} WITH {amount}"),
                )?;
            }
            exec(&mut s, &format!("ACTIVATE SettleDependent ON {oid}"))?;
            oids.push(oid);
        }
        let db = engine.database("bank").map_err(|e| e.to_string())?;
        Ok(Rig {
            engine,
            db,
            oids,
            model: Model::new(self.cards),
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
        session.use_database("bank").map_err(|e| e.to_string())?;
        let mut gen = Gen::new(seed, segment, rig.oids.len());
        let mut text = String::new();
        let mut index = 0;
        rec.run(stmts, || {
            let op = gen.next_op();
            text.clear();
            write_text(op, &rig.oids, &mut text);
            let expect = rig.model.apply(op);
            let started = Instant::now();
            let reply = session.execute(&text);
            let latency = started.elapsed();
            let ok = match (expect, &reply) {
                (Expect::Ok, Ok(_)) => true,
                (Expect::Denied, Err(e)) => e.to_string().contains("Over Limit"),
                (Expect::Value(v), Ok(got)) => got.parse::<f64>().ok() == Some(v),
                _ => false,
            };
            check.check(format_args!("{segment}.{index}"), ok, || {
                format!("{text:?}: expected {expect:?}, got {reply:?}")
            });
            index += 1;
            let kind = match op {
                Op::Get(..) => Kind::Read,
                _ => Kind::Write,
            };
            if let Some(t) = tracer.as_mut() {
                t.after(kind, 1, u64::from(kind == Kind::Write));
            }
            Ok(Sample {
                kind,
                latency,
                stmts: 1,
                units: 1,
            })
        })
    }

    fn payload_bytes(rig: &Rig) -> u64 {
        (rig.oids.len() * 3 * 8) as u64
    }

    fn layer_times(&mut self, rig: &mut Rig, seed: u64, n: usize) -> Result<LayerTimes, String> {
        let parse_us = time_parse(&stream(seed, &rig.oids, n))?;
        let fsm_ns_per_event = time_fsm(&machines()?, &event_streams(seed, self.cards, n));
        let oids = rig
            .oids
            .iter()
            .map(|o| parse_oid(o).ok_or_else(|| format!("bad oid {o}")))
            .collect::<Result<Vec<_>, _>>()?;
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        let mut gen = Gen::new(seed, 0, self.cards);
        for _ in 0..n {
            match gen.next_op() {
                Op::Get(c, _) => reads.push(oids[c]),
                Op::Buy(c, _) | Op::PayBill(c, _) => writes.push(oids[c]),
            }
        }
        Ok(LayerTimes {
            parse_us,
            fsm_ns_per_event,
            storage: replay_storage(rig.db.storage(), &reads, &writes)?,
            noop_rtt_us: None,
        })
    }

    /// Every card's fields must equal the model's.
    fn verify(&mut self, rig: Rig, check: &mut Checker) -> Result<(), String> {
        let mut session = rig.engine.session();
        session.use_database("bank").map_err(|e| e.to_string())?;
        for (i, (oid, card)) in rig.oids.iter().zip(&rig.model.cards).enumerate() {
            for (field, want) in [
                ("curr_bal", card.bal),
                ("cred_lim", card.lim),
                ("good_hist", card.hist),
            ] {
                let stmt = format!("GET {oid} {field}");
                let got = session.execute(&stmt);
                let ok = matches!(&got, Ok(v) if v.parse::<f64>().ok() == Some(want));
                check.check(format_args!("verify-{i}"), ok, || {
                    format!("final {stmt:?}: expected {want}, got {got:?}")
                });
            }
        }
        self.buys += rig.model.buys;
        self.denied += rig.model.denied;
        Ok(())
    }

    fn notes(&self) -> Vec<(&'static str, String)> {
        vec![("denied_buys", format!("{} of {}", self.denied, self.buys))]
    }
}

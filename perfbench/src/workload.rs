//! The two benchmark workloads, generated from a workload seed.
//!
//! All of them estimate a bank of [`BANK_SIZE`] Boolean queries under
//! `M^{uo,1}` (uniform operations, singleton removals; Theorem 7.5) with
//! the adaptive stopping rule at `(ε, δ) = (0.25, 0.2)`.  Each query
//! carries the answer the benchmark expects, derived outside every timer
//! from the database it is asked over.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use ucqa_core::budget::{EstimateOutcome, QueryOutcome};
use ucqa_core::fpras::{ApproximationParams, EstimatorMode};
use ucqa_db::{ConflictIndex, Database, Fact, FactId, FdSet, Value};
use ucqa_query::{parser::parse_query, LineageBank, QueryEvaluator};
use ucqa_repair::GeneratorSpec;
use ucqa_workload::{SkewedJoinWorkload, StreamWorkload};

/// Queries per bank.
pub const BANK_SIZE: usize = 8;
/// Relative error of every estimate.
pub const EPSILON: f64 = 0.25;
/// Failure probability of the whole bank (each query gets `δ / k`).
pub const DELTA: f64 = 0.2;
/// Stopping-rule cut-off.  Every query of these workloads converges within
/// about a thousand draws; the cut-off bounds the time a broken program
/// (a query that can never reach its target) spends before failing.
pub const MAX_SAMPLES: u64 = 10_000;

/// Facts of the initial database of every workload.
const FACTS: usize = 20_000;
/// Facts per queried primary-key block of window-churn: a membership
/// query over such a block has probability `1 / QUERIED_BLOCK`.
const QUERIED_BLOCK: usize = 3;
/// Facts per conflict group of a join-bank tail fact: each join-bank
/// query has probability `1 / TAIL_GROUP` (up to an `e^-60` term).
const TAIL_GROUP: usize = 2;

/// The generator every workload estimates under.
pub fn spec() -> GeneratorSpec {
    GeneratorSpec::uniform_operations().with_singleton_only()
}

/// The estimation parameters every workload uses.
pub fn params() -> ApproximationParams {
    ApproximationParams::new(EPSILON, DELTA)
        .expect("valid parameters")
        .with_mode(EstimatorMode::OptimalStopping {
            max_samples: MAX_SAMPLES,
        })
}

/// The answer the benchmark expects for one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// Entailed by every repair: the estimate is exactly 1.
    Certain,
    /// True probability `p`: the estimate lands within `2ε` relative.
    Near(f64),
}

impl Expect {
    /// Whether `outcome` converged and matches the expectation.
    pub fn accepts(self, outcome: &QueryOutcome) -> bool {
        outcome.status.is_converged()
            && match self {
                Expect::Certain => outcome.estimate == 1.0,
                Expect::Near(p) => ((outcome.estimate - p) / p).abs() <= 2.0 * EPSILON,
            }
    }
}

/// Answers of `outcome` that failed their check against `expect`.
pub fn failed_answers(expect: &[Expect], outcome: &EstimateOutcome) -> usize {
    expect
        .iter()
        .zip(&outcome.queries)
        .filter(|(expect, answer)| !expect.accepts(answer))
        .count()
}

/// A static workload: one database and one bank, asked again and again.
pub struct StaticWorkload {
    pub db: Database,
    pub sigma: FdSet,
    pub evaluators: Vec<QueryEvaluator>,
    pub expect: Vec<Expect>,
}

fn plan(db: &Database, text: &str) -> QueryEvaluator {
    let query = parse_query(db.schema(), text).expect("bank query parses");
    QueryEvaluator::with_stats(query, db).expect("bank query plans")
}

/// The key of a fact of `R(K, V)`.
fn key_of(fact: &Fact) -> &Value {
    &fact.values()[0]
}

/// `count` primary-key blocks of exactly `size` facts, chosen by their
/// oldest fact, newest first — so a count window expires them last.
/// Each block is returned as its key and its fact ids, ascending.
fn newest_blocks(db: &Database, size: usize, count: usize) -> Vec<(Value, Vec<FactId>)> {
    let mut blocks: BTreeMap<Value, Vec<FactId>> = BTreeMap::new();
    for (id, fact) in db.iter() {
        blocks.entry(key_of(&fact).clone()).or_default().push(id);
    }
    let mut chosen: Vec<(Value, Vec<FactId>)> = blocks
        .into_iter()
        .filter(|(_, ids)| ids.len() == size)
        .collect();
    chosen.sort_by_key(|(_, ids)| std::cmp::Reverse(ids[0]));
    assert!(
        chosen.len() >= count,
        "only {} blocks of {size} facts",
        chosen.len()
    );
    chosen.truncate(count);
    chosen
}

/// The e21 bank shape over chosen blocks: block queries `R(k, x)` on the
/// first half, fact-membership queries `R(k, v)` on the newest fact of
/// each block of the second half.
fn block_bank_texts(db: &Database, blocks: &[(Value, Vec<FactId>)]) -> Vec<String> {
    let half = blocks.len() / 2;
    blocks
        .iter()
        .enumerate()
        .map(|(i, (key, ids))| {
            if i < half {
                format!("Ans() :- R({key}, x)")
            } else {
                let newest = db.fact(*ids.last().expect("non-empty block"));
                format!("Ans() :- R({key}, {})", newest.values()[1])
            }
        })
        .collect()
}

impl StaticWorkload {
    /// `join-bank`: two relations with a non-key FD `C → B` each, half of
    /// every relation on one hot anchor, and the hot-suffix bank
    /// `R0(hot₀, v, …), R1(hot₁, v, …), R1(tailᵢ, …)`.  The tails are
    /// drawn by seed among R1 facts whose conflict group is a clique of
    /// exactly two facts, so every query has probability 1/2.
    pub fn join_bank(seed: u64) -> Self {
        let workload = SkewedJoinWorkload::new(FACTS, 2, 50, FACTS, FACTS / 4, seed);
        let (db, sigma) = workload.generate();
        let r1 = db.schema().relation_id("R1").expect("relation R1");
        let hot1 = workload.hot_value(1);
        // R1's conflict groups (facts sharing C), with the B value and the
        // anchor of each member.
        let mut groups: BTreeMap<Value, Vec<(Value, Value)>> = BTreeMap::new();
        for (_, fact) in db.iter().filter(|(_, f)| f.relation() == r1) {
            let v = fact.values();
            groups
                .entry(v[2].clone())
                .or_default()
                .push((v[1].clone(), v[0].clone()));
        }
        let mut tails: Vec<Value> = groups
            .values()
            .filter(|members| {
                let distinct_b: BTreeSet<&Value> = members.iter().map(|(b, _)| b).collect();
                members.len() == TAIL_GROUP && distinct_b.len() == TAIL_GROUP
            })
            .flat_map(|members| members.iter().map(|(_, a)| a.clone()))
            .filter(|a| *a != hot1)
            .collect();
        tails.sort();
        tails.shuffle(&mut StdRng::seed_from_u64(seed));
        assert!(tails.len() >= BANK_SIZE, "too few clique-group tails");
        let hot0 = workload.hot_value(0);
        let evaluators = tails[..BANK_SIZE]
            .iter()
            .map(|tail| {
                plan(
                    &db,
                    &format!(
                        "Ans() :- R0({hot0}, v, w1, w2), R1({hot1}, v, w3, w4), \
                         R1({tail}, u1, u2, u3)"
                    ),
                )
            })
            .collect();
        StaticWorkload {
            db,
            sigma,
            evaluators,
            expect: vec![Expect::Near(1.0 / TAIL_GROUP as f64); BANK_SIZE],
        }
    }
}

/// `window-churn`: the e21 stream.  A count window of 20,000 facts over
/// `R(K, V)`; each tick inserts 50 facts and retracts 25, and every 4th
/// tick grows one block-queried block.  Churn never lands in a queried
/// block otherwise (retractions and inserts on queried keys are dropped),
/// and the stream ends before the window could expire a queried fact, so
/// the tick profile is the same on every seed: reuse ticks at zero draws,
/// and one re-enrollment every 4th tick.
pub struct WindowWorkload {
    stream: StreamWorkload,
    pub sigma: FdSet,
    pub queries: Vec<(QueryEvaluator, Vec<Value>)>,
    /// Per query: `None` for a block query (expect exactly 1), else the
    /// key of the membership query's block.
    pub member_key: Vec<Option<Value>>,
    block_keys: Vec<Value>,
    queried: BTreeSet<Value>,
    /// The oldest fact of any queried block.
    oldest_queried: FactId,
}

/// Live facts the window keeps.
pub const WINDOW: usize = FACTS;
const INSERTS_PER_TICK: usize = 50;
const RETRACTS_PER_TICK: usize = 25;

impl WindowWorkload {
    /// The stream and its initial database.
    pub fn new(seed: u64) -> (Self, Database) {
        let mut stream =
            StreamWorkload::new(FACTS / 2, INSERTS_PER_TICK, RETRACTS_PER_TICK, 0.3, seed);
        let (mut db, sigma) = stream.initial(FACTS);
        let blocks = newest_blocks(&db, QUERIED_BLOCK, BANK_SIZE);
        let texts = block_bank_texts(&db, &blocks);
        let half = BANK_SIZE / 2;
        let block_keys: Vec<Value> = blocks[..half].iter().map(|(k, _)| k.clone()).collect();
        // Anchor each block-queried block with one extra fact, so the
        // stream can never empty it.
        for key in &block_keys {
            let Value::Int(k) = key else {
                panic!("stream keys are integers")
            };
            db.insert_values("R", [key.clone(), Value::int(-1 - k)])
                .expect("schema matches");
        }
        let oldest_queried = blocks
            .iter()
            .map(|(_, ids)| ids[0])
            .min()
            .expect("non-empty bank");
        let queries = texts.iter().map(|t| (plan(&db, t), Vec::new())).collect();
        let member_key = blocks
            .iter()
            .enumerate()
            .map(|(i, (k, _))| (i >= half).then(|| k.clone()))
            .collect();
        let queried = blocks.into_iter().map(|(k, _)| k).collect();
        let workload = WindowWorkload {
            stream,
            sigma,
            queries,
            member_key,
            block_keys,
            queried,
            oldest_queried,
        };
        (workload, db)
    }

    /// `true` once the next tick could slide a queried fact out of the
    /// window.  A tick removes at most one fact per insert and retraction,
    /// oldest first for the expiries, so the queried facts are safe while
    /// more live facts than that are older than all of them.
    pub fn exhausted(&self, db: &Database) -> bool {
        let older = db
            .fact_ids()
            .take_while(|&id| id < self.oldest_queried)
            .count();
        older <= INSERTS_PER_TICK + 1 + RETRACTS_PER_TICK
    }

    /// The `(inserts, retracts)` of tick `tick` (1-based) against the
    /// current window.
    pub fn tick(&mut self, db: &Database, tick: usize) -> (Vec<Fact>, Vec<Fact>) {
        let (mut inserts, mut retracts) = self.stream.tick(db);
        retracts.retain(|f| !self.queried.contains(key_of(f)));
        inserts.retain(|f| !self.queried.contains(key_of(f)));
        if tick.is_multiple_of(4) {
            let relation = db.schema().relation_id("R").expect("stream relation");
            let key = self.block_keys[tick / 4 % self.block_keys.len()].clone();
            inserts.push(Fact::new(
                relation,
                vec![key, Value::int(-1_000_000_000 - tick as i64)],
            ));
        }
        (inserts, retracts)
    }

    /// The expected answers over the current window: block queries are
    /// certain, a membership query has probability `1 / |block|`.
    pub fn expect(&self, db: &Database) -> Vec<Expect> {
        let dict = db.dictionary();
        self.member_key
            .iter()
            .map(|key| match key {
                None => Expect::Certain,
                Some(key) => {
                    let sym = dict.lookup(key).expect("queried key is interned");
                    let size = db.fact_ids().filter(|&id| db.sym(id, 0) == sym).count();
                    Expect::Near(1.0 / size as f64)
                }
            })
            .collect()
    }
}

/// What a workload looks like to the estimator: the numbers
/// `BENCHMARK.json` records next to each workload's reason.
pub struct Descriptors {
    pub facts: usize,
    pub conflicting: usize,
    pub components: usize,
    pub largest_component: usize,
    pub witnesses: usize,
    /// Share of the conflicting facts whose conflict component holds a
    /// witness fact of the bank — the part of each walk that can affect
    /// an answer.
    pub relevant_share: f64,
}

impl Descriptors {
    pub fn of(db: &Database, index: &ConflictIndex, bank: &LineageBank) -> Self {
        let components = index.components();
        let mut witness_facts = vec![false; db.len()];
        for entry in 0..bank.len() {
            for witness in bank.witnesses_of(entry).unwrap_or_default() {
                for id in witness.iter() {
                    witness_facts[id.index()] = true;
                }
            }
        }
        let relevant: usize = components
            .iter()
            .filter(|c| c.iter().any(|id| witness_facts[id.index()]))
            .map(Vec::len)
            .sum();
        let conflicting = index.conflicting_facts().len();
        Descriptors {
            facts: db.live_count(),
            conflicting,
            components: components.len(),
            largest_component: components.iter().map(Vec::len).max().unwrap_or(0),
            witnesses: bank.witness_count(),
            relevant_share: relevant as f64 / conflicting.max(1) as f64,
        }
    }
}

impl std::fmt::Display for Descriptors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "facts={} conflicting={} components={} largest_component={} witnesses={} \
             draw_relevant_share={:.4}",
            self.facts,
            self.conflicting,
            self.components,
            self.largest_component,
            self.witnesses,
            self.relevant_share
        )
    }
}

//! The traced replica of the estimator's batched stopping loop, built
//! from public calls only, with a span around each layer.
//!
//! `BatchEstimator` drives a private experiment: draw one repair with
//! the operations walk, check it against the live part of the lineage
//! bank (the evaluator answers fallback entries), and shrink the live
//! set as queries retire.  [`TracedExperiment`] makes the same calls in
//! the same order through the public API, so under the same seed its
//! estimates and draw counts are bit-identical to the library's — which
//! the benchmark checks on every traced request — and it times the draw
//! and the check of each draw separately.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::RngCore;
use ucqa_core::budget::EstimateOutcome;
use ucqa_core::fpras::BatchQuery;
use ucqa_core::montecarlo::{StoppingBatchExperiment, StoppingRuleOutcome};
use ucqa_core::sample_operations::{OperationWalkSampler, WalkScratch};
use ucqa_db::{Database, FactSet};
use ucqa_query::{BankLiveSet, BankScratch, LineageBank};

/// Every this many draws, the hit ratio of the witness scan is counted.
/// Counting repeats the scan, so it runs outside the spans and only on a
/// sample of the draws, to keep its cache traffic out of the check.
const HIT_SAMPLE_EVERY: u64 = 8;

/// Whether the replica's outcomes and draw count equal the library's bit
/// for bit.
pub fn bit_identical(
    library: &EstimateOutcome,
    replica: &[StoppingRuleOutcome],
    replica_draws: u64,
) -> bool {
    library.total_draws == replica_draws
        && library.queries.len() == replica.len()
        && library.queries.iter().zip(replica).all(|(l, r)| {
            l.estimate.to_bits() == r.estimate.to_bits()
                && l.samples == r.samples
                && l.successes == r.successes
                && l.status.is_converged() != r.truncated
        })
}

/// Whether two generators sit at the same position of the same stream:
/// the replica must consume exactly the library's randomness.
pub fn same_position(library: &StdRng, replica: &StdRng) -> bool {
    library.clone().next_u64() == replica.clone().next_u64()
}

/// Spans and counts of one traced estimation loop.
#[derive(Debug, Default, Clone)]
pub struct LayerClock {
    pub draw: Duration,
    pub check: Duration,
    /// Time spent counting witness hits; not part of any layer.
    pub counting: Duration,
    pub draws: u64,
    /// Live witnesses the check scanned, summed over draws.
    pub scans: u64,
    pub sampled_scans: u64,
    pub sampled_hits: u64,
    pub fallback_evals: u64,
}

/// The bank's witness arena as seen from outside: the distinct witnesses
/// `LineageBank::witnesses_of` hands out (identified by address), and
/// which entries reference each.
struct WitnessMirror<'b> {
    witnesses: Vec<&'b FactSet>,
    per_entry: Vec<Vec<usize>>,
    refs: Vec<u32>,
}

impl<'b> WitnessMirror<'b> {
    fn new(bank: &'b LineageBank, live: &[usize]) -> Self {
        let mut slot: HashMap<*const FactSet, usize> = HashMap::new();
        let mut witnesses = Vec::new();
        let per_entry: Vec<Vec<usize>> = (0..bank.len())
            .map(|entry| {
                bank.witnesses_of(entry)
                    .unwrap_or_default()
                    .into_iter()
                    .map(|w| {
                        *slot.entry(w as *const FactSet).or_insert_with(|| {
                            witnesses.push(w);
                            witnesses.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        let mut refs = vec![0u32; witnesses.len()];
        for &entry in live {
            for &w in &per_entry[entry] {
                refs[w] += 1;
            }
        }
        WitnessMirror {
            witnesses,
            per_entry,
            refs,
        }
    }

    fn retire(&mut self, entry: usize) {
        for &w in &self.per_entry[entry] {
            self.refs[w] -= 1;
        }
    }

    /// `(live witnesses, live witnesses contained in repair)`.
    fn count(&self, repair: &FactSet) -> (u64, u64) {
        let mut scanned = 0;
        let mut hits = 0;
        for (w, &refs) in self.witnesses.iter().zip(&self.refs) {
            if refs > 0 {
                scanned += 1;
                hits += u64::from(repair.contains_all(w));
            }
        }
        (scanned, hits)
    }
}

/// The replica's per-draw work, mirroring the library's batched stopping
/// experiment call for call.
pub struct TracedExperiment<'e> {
    sampler: &'e OperationWalkSampler<'e>,
    db: &'e Database,
    bank: &'e LineageBank,
    queries: &'e [BatchQuery<'e>],
    live: BankLiveSet,
    mirror: WitnessMirror<'e>,
    repair: FactSet,
    walk: WalkScratch,
    scratch: BankScratch,
    pub clock: LayerClock,
}

impl<'e> TracedExperiment<'e> {
    /// A replica over `bank` with the queries of `live` enrolled.
    pub fn new(
        sampler: &'e OperationWalkSampler<'e>,
        db: &'e Database,
        bank: &'e LineageBank,
        queries: &'e [BatchQuery<'e>],
        live: BankLiveSet,
    ) -> Self {
        let started = Instant::now();
        let mirror = WitnessMirror::new(bank, live.live_queries());
        let clock = LayerClock {
            counting: started.elapsed(),
            ..LayerClock::default()
        };
        TracedExperiment {
            sampler,
            db,
            bank,
            queries,
            live,
            mirror,
            repair: FactSet::empty(db.len()),
            walk: WalkScratch::new(),
            scratch: BankScratch::new(),
            clock,
        }
    }
}

impl StoppingBatchExperiment<StdRng> for TracedExperiment<'_> {
    fn draw(&mut self, rng: &mut StdRng, hits: &mut [bool]) {
        let started = Instant::now();
        self.sampler
            .sample_result_into(rng, &mut self.repair, &mut self.walk);
        let drawn = Instant::now();
        self.bank
            .evaluate_live_into(&self.live, &self.repair, &mut self.scratch, hits);
        for &q in self.live.live_queries() {
            if self.bank.is_fallback(q) {
                let query = &self.queries[q];
                hits[q] = query
                    .evaluator
                    .has_answer(self.db, &self.repair, query.candidate)
                    .expect("candidate arity was validated by the bank compile");
                self.clock.fallback_evals += 1;
            }
        }
        let checked = Instant::now();
        self.clock.draw += drawn - started;
        self.clock.check += checked - drawn;
        self.clock.draws += 1;
        self.clock.scans += self.live.live_witness_count() as u64;
        if self.clock.draws % HIT_SAMPLE_EVERY == 1 {
            let (scanned, contained) = self.mirror.count(&self.repair);
            assert_eq!(
                scanned,
                self.live.live_witness_count() as u64,
                "the witness mirror lost track of the live set"
            );
            self.clock.sampled_scans += scanned;
            self.clock.sampled_hits += contained;
            self.clock.counting += checked.elapsed();
        }
    }

    fn retire(&mut self, query: usize) {
        // A resumed loop re-announces entries that were never enrolled;
        // for those the call is a no-op.
        let was_live = self.live.is_live(query);
        self.live.retire(self.bank, query);
        if was_live {
            let started = Instant::now();
            self.mirror.retire(query);
            self.clock.counting += started.elapsed();
        }
    }
}

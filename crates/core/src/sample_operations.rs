//! The uniform-operations random walk (Lemmas 7.2 and D.7).
//!
//! Sampling a leaf of `M^uo_Σ(D)` (or `M^{uo,1}_Σ(D)`) according to its
//! leaf distribution is straightforward because the generator is *local*:
//! starting from `D`, repeatedly pick one of the currently justified
//! operations uniformly at random and apply it, until the database is
//! consistent.  The walk works for **arbitrary FDs** — this locality is
//! precisely what Section 7 exploits to push approximability beyond
//! primary keys.
//!
//! The hot path is backed by the precomputed incremental
//! [`ConflictIndex`]: `V(D, Σ)` is computed **once** when the sampler is
//! built, each walk resets a [`LiveOps`] cursor and maintains the justified
//! operation sets under removals in O(degree) per removed fact, and the
//! uniform pick over `Ops_s(D, Σ)` is O(1) per step.  A singleton-only
//! walk (`M^{uo,1}`) never picks a pair, so it resets the cursor with
//! [`LiveOps::reset_singletons`] and pays nothing for pair operations.
//! The tests cross-check the maintained operation sets against a
//! from-scratch [`ViolationSet`](ucqa_db::ViolationSet) recompute after
//! every step.

use rand::Rng;

use ucqa_db::{ConflictIndex, Database, FactId, FactSet, FdSet, LiveOps};
use ucqa_numeric::LogFloat;
use ucqa_repair::{operation::justified_operations_from_index, Operation, RepairingSequence};

/// Reusable buffers for the allocation-free walk
/// [`OperationWalkSampler::sample_result_into`].
///
/// Holding the mutable walk state outside the sampler keeps
/// `OperationWalkSampler` `Sync` (one sampler is shared across threads by
/// the parallel estimator); each sampling loop owns one scratch.
#[derive(Debug, Default, Clone)]
pub struct WalkScratch {
    /// The incremental live-operations cursor of the index-backed walk.
    ops: LiveOps,
}

impl WalkScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        WalkScratch::default()
    }
}

/// The outcome of one uniform-operations walk.
#[derive(Debug, Clone)]
pub struct WalkOutcome {
    /// The sampled complete repairing sequence.
    pub sequence: RepairingSequence,
    /// Its result `s(D)` — an operational repair.
    pub result: FactSet,
    /// The leaf probability `π(s)` of the sampled sequence (a product of
    /// `1/|Ops_s|` factors, kept in log-space because it underflows `f64`
    /// for large databases).
    pub probability: LogFloat,
}

/// A sampler for the leaf distribution of `M^uo_Σ(D)` / `M^{uo,1}_Σ(D)`.
///
/// Unlike the primary-key samplers, this one accepts any set of FDs.
///
/// Construction computes `V(D, Σ)` once and builds the incremental
/// [`ConflictIndex`]; every walk then costs O(conflicting facts + |V| +
/// |D|/64) in total — a reset of the live operations, a removal per step
/// that touches only the removed fact's violations, and the copy of the
/// result — instead of O(|D|) *per step*.  A full (`M^uo`) walk adds
/// O(pair operations) for the pair set; a singleton-only (`M^{uo,1}`)
/// walk never builds it.  The sampler itself is immutable after
/// construction (`Sync`), so the parallel estimator shares one instance
/// across its worker threads; the per-walk mutable state lives in
/// [`WalkScratch`].
#[derive(Debug, Clone)]
pub struct OperationWalkSampler<'a> {
    db: &'a Database,
    index: ConflictIndex,
    singleton_only: bool,
}

impl<'a> OperationWalkSampler<'a> {
    /// Creates a sampler over all justified operations (`M^uo_Σ`),
    /// computing the violations of `D` once.
    pub fn new(db: &'a Database, sigma: &'a FdSet) -> Self {
        OperationWalkSampler {
            db,
            index: ConflictIndex::build(db, sigma),
            singleton_only: false,
        }
    }

    /// As [`OperationWalkSampler::new`], reusing a caller-maintained
    /// [`ConflictIndex`] — typically one kept current across database
    /// mutations with [`ConflictIndex::refresh`] — instead of rebuilding
    /// the violations from scratch.  Walks are bit-identical to a sampler
    /// built by [`OperationWalkSampler::new`] under the same seed; only
    /// the construction cost differs.  The index already encodes `Σ`;
    /// the FD set is taken only to mirror [`OperationWalkSampler::new`].
    ///
    /// # Panics
    /// Panics if `index` is stale: its universe must equal `db.len()` and
    /// its changelog version must equal `db.version()` (a freshly built or
    /// just-refreshed index satisfies both).
    pub fn with_index(db: &'a Database, _sigma: &'a FdSet, index: ConflictIndex) -> Self {
        assert_eq!(
            index.universe(),
            db.len(),
            "conflict index universe is stale"
        );
        assert_eq!(
            index.version(),
            db.version(),
            "conflict index version is stale; refresh it first"
        );
        OperationWalkSampler {
            db,
            index,
            singleton_only: false,
        }
    }

    /// Restricts the walk to singleton removals (`M^{uo,1}_Σ`).
    pub fn singleton_only(mut self) -> Self {
        self.singleton_only = true;
        self
    }

    /// Whether the walk is restricted to singleton removals.
    pub fn is_singleton_only(&self) -> bool {
        self.singleton_only
    }

    /// The precomputed conflict index backing the walks.
    pub fn conflict_index(&self) -> &ConflictIndex {
        &self.index
    }

    /// One step of the walk: a uniform pick over the live operations,
    /// applied to the cursor.  Returns the removed fact(s) and the size of
    /// the operation set `|Ops_s(D, Σ)|` the pick was uniform over, or
    /// `None` when the live sub-database is already consistent.
    ///
    /// Every walk variant goes through this helper (after
    /// [`OperationWalkSampler::reset`]), so the operation universe and the
    /// pick are defined in exactly one place.
    fn step<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        ops: &mut LiveOps,
    ) -> Option<(FactId, Option<FactId>, usize)> {
        let singles = ops.single_count();
        if singles == 0 {
            return None;
        }
        let pairs = if self.singleton_only {
            0
        } else {
            ops.pair_count()
        };
        let count = singles + pairs;
        let choice = rng.random_range(0..count);
        let (first, second) = if choice < singles {
            (ops.single(choice), None)
        } else {
            let (f, g) = ops.pair(&self.index, choice - singles);
            (f, Some(g))
        };
        ops.remove_fact(&self.index, first);
        if let Some(second) = second {
            ops.remove_fact(&self.index, second);
        }
        Some((first, second, count))
    }

    /// Resets `ops` to the root of the walk: the full database with every
    /// operation the walk can pick.  A singleton-only walk never reads
    /// the pair set, so it is not built; the pick consumes the same
    /// randomness either way.
    fn reset(&self, ops: &mut LiveOps) {
        if self.singleton_only {
            ops.reset_singletons(&self.index);
        } else {
            ops.reset_full(&self.index);
        }
    }

    /// Runs one walk: a sequence drawn according to the leaf distribution
    /// of the uniform-operations Markov chain.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> WalkOutcome {
        let mut ops = LiveOps::new();
        self.reset(&mut ops);
        let mut operations = Vec::new();
        let mut probability = LogFloat::one();
        while let Some((first, second, count)) = self.step(rng, &mut ops) {
            probability *= LogFloat::from_value(1.0 / count as f64);
            operations.push(match second {
                None => Operation::remove_one(first),
                Some(second) => Operation::remove_pair(first, second),
            });
        }
        WalkOutcome {
            sequence: RepairingSequence::from_operations(operations),
            result: ops.live().clone(),
            probability,
        }
    }

    /// Runs one walk and returns only the resulting repair (the common case
    /// for Monte-Carlo estimation).
    pub fn sample_result<R: Rng + ?Sized>(&self, rng: &mut R) -> FactSet {
        self.sample(rng).result
    }

    /// As [`OperationWalkSampler::sample_result`], writing the repair into a
    /// reused buffer and reusing `scratch` across walks, so the walk
    /// performs no heap allocation once the buffers reach steady-state
    /// capacity.
    ///
    /// Each walk resets the scratch's [`LiveOps`] cursor against the
    /// precomputed index and maintains it incrementally: a uniform pick
    /// over the live singleton/pair arrays is O(1), and each removal
    /// updates only the operations touching the removed fact.  The live
    /// operation sets equal `Ops_s(D, Σ)` at every step (the property the
    /// cross-checking tests assert), hence the leaf distribution is the
    /// same as [`OperationWalkSampler::sample`]'s.
    ///
    /// # Panics
    /// Panics if `out`'s universe differs from the sampler's database.
    pub fn sample_result_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut FactSet,
        scratch: &mut WalkScratch,
    ) {
        assert_eq!(out.universe(), self.db.len(), "buffer universe mismatch");
        let ops = &mut scratch.ops;
        self.reset(ops);
        while self.step(rng, ops).is_some() {}
        out.copy_from(ops.live());
    }

    /// Counts the justified operations available on `subset` — the factor
    /// `|Ops_s(D, Σ)|` of the leaf distribution, exposed for diagnostics
    /// and the lower-bound experiments.
    pub fn available_operation_count(&self, subset: &FactSet) -> usize {
        let mut ops = LiveOps::new();
        ops.reset_to(&self.index, subset);
        let singles = ops.single_count();
        if self.singleton_only {
            singles
        } else {
            singles + ops.pair_count()
        }
    }

    /// The justified operations available on `subset`, in canonical order.
    pub fn available_operations(&self, subset: &FactSet) -> Vec<Operation> {
        let mut ops = LiveOps::new();
        ops.reset_to(&self.index, subset);
        justified_operations_from_index(&self.index, &ops, self.singleton_only)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;
    use ucqa_db::{FunctionalDependency, Schema, Value, ViolationSet};
    use ucqa_repair::{GeneratorSpec, OperationalSemantics, TreeLimits};

    fn running_example() -> (Database, FdSet) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B", "C"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("R", [Value::str("a1"), Value::str("b1"), Value::str("c1")])
            .unwrap();
        db.insert_values("R", [Value::str("a1"), Value::str("b2"), Value::str("c2")])
            .unwrap();
        db.insert_values("R", [Value::str("a2"), Value::str("b1"), Value::str("c2")])
            .unwrap();
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["C"], &["B"]).unwrap());
        (db, sigma)
    }

    #[test]
    fn walks_produce_valid_complete_sequences() {
        let (db, sigma) = running_example();
        let sampler = OperationWalkSampler::new(&db, &sigma);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let outcome = sampler.sample(&mut rng);
            let result = outcome.sequence.validate(&db, &sigma).unwrap();
            assert_eq!(result, outcome.result);
            assert!(outcome.sequence.is_complete(&db, &sigma));
            assert!(outcome.probability.to_f64() > 0.0);
        }
    }

    #[test]
    fn repair_distribution_matches_exact_uniform_operations_semantics() {
        let (db, sigma) = running_example();
        let chain = GeneratorSpec::uniform_operations()
            .build_chain(&db, &sigma, TreeLimits::default())
            .unwrap();
        let semantics = OperationalSemantics::from_chain(&chain);
        let exact: HashMap<Vec<usize>, f64> = semantics
            .repairs()
            .iter()
            .map(|entry| {
                (
                    entry.repair.iter().map(|f| f.index()).collect(),
                    entry.probability.to_f64(),
                )
            })
            .collect();
        let sampler = OperationWalkSampler::new(&db, &sigma);
        let mut rng = StdRng::seed_from_u64(9);
        let samples = 40_000usize;
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        for _ in 0..samples {
            let result = sampler.sample_result(&mut rng);
            *counts
                .entry(result.iter().map(|f| f.index()).collect())
                .or_insert(0) += 1;
        }
        assert_eq!(counts.len(), exact.len());
        for (repair, probability) in exact {
            let observed = counts.get(&repair).copied().unwrap_or(0) as f64 / samples as f64;
            assert!(
                (observed - probability).abs() < 0.02,
                "repair {repair:?}: observed {observed}, exact {probability}"
            );
        }
    }

    #[test]
    fn running_example_leaf_probabilities_are_fifth_or_fifteenth() {
        let (db, sigma) = running_example();
        let sampler = OperationWalkSampler::new(&db, &sigma);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let outcome = sampler.sample(&mut rng);
            let p = outcome.probability.to_f64();
            let matches_one_fifth = (p - 0.2).abs() < 1e-12;
            let matches_one_fifteenth = (p - 1.0 / 15.0).abs() < 1e-12;
            assert!(
                matches_one_fifth || matches_one_fifteenth,
                "unexpected leaf probability {p}"
            );
        }
    }

    #[test]
    fn buffered_walk_matches_exact_uniform_operations_semantics() {
        let (db, sigma) = running_example();
        let chain = GeneratorSpec::uniform_operations()
            .build_chain(&db, &sigma, TreeLimits::default())
            .unwrap();
        let semantics = OperationalSemantics::from_chain(&chain);
        let exact: HashMap<Vec<usize>, f64> = semantics
            .repairs()
            .iter()
            .map(|entry| {
                (
                    entry.repair.iter().map(|f| f.index()).collect(),
                    entry.probability.to_f64(),
                )
            })
            .collect();
        let sampler = OperationWalkSampler::new(&db, &sigma);
        let mut rng = StdRng::seed_from_u64(31);
        let mut repair = FactSet::empty(db.len());
        let mut scratch = WalkScratch::new();
        let samples = 40_000usize;
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        for _ in 0..samples {
            sampler.sample_result_into(&mut rng, &mut repair, &mut scratch);
            assert!(ucqa_db::ViolationSet::compute(&db, &sigma, &repair).is_empty());
            *counts
                .entry(repair.iter().map(|f| f.index()).collect())
                .or_insert(0) += 1;
        }
        assert_eq!(counts.len(), exact.len());
        for (repair, probability) in exact {
            let observed = counts.get(&repair).copied().unwrap_or(0) as f64 / samples as f64;
            assert!(
                (observed - probability).abs() < 0.02,
                "repair {repair:?}: observed {observed}, exact {probability}"
            );
        }
    }

    #[test]
    fn incremental_walk_state_matches_recompute_at_every_step() {
        // Drive the index-backed walk by hand on a general-FD database and
        // cross-check the live operation sets against a from-scratch
        // recompute after every removal.
        let (db, sigma) = ucqa_workload_like_database();
        let sampler = OperationWalkSampler::new(&db, &sigma);
        let index = sampler.conflict_index();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let mut ops = ucqa_db::LiveOps::new();
            ops.reset_full(index);
            let mut subset = db.all_facts();
            while !ops.is_consistent() {
                let singles = ops.single_count();
                let choice = rng.random_range(0..singles + ops.pair_count());
                if choice < singles {
                    let f = ops.single(choice);
                    ops.remove_fact(index, f);
                    subset.remove(f);
                } else {
                    let (f, g) = ops.pair(index, choice - singles);
                    ops.remove_fact(index, f);
                    ops.remove_fact(index, g);
                    subset.remove(f);
                    subset.remove(g);
                }
                let violations = ViolationSet::compute(&db, &sigma, &subset);
                let mut singles: Vec<_> = ops.live_singles().to_vec();
                singles.sort();
                let mut pairs: Vec<_> = ops.live_pairs(index).collect();
                pairs.sort();
                assert_eq!(singles, violations.conflicting_facts());
                assert_eq!(pairs, violations.conflicting_pairs());
                assert_eq!(ops.live(), &subset);
            }
            assert!(ViolationSet::compute(&db, &sigma, &subset).is_empty());
        }
        // The singleton reset of the `M^{uo,1}` walk: the live singletons
        // track `V(D', Σ)` at every step while the pair set stays empty.
        for _ in 0..50 {
            let mut ops = ucqa_db::LiveOps::new();
            ops.reset_singletons(index);
            assert_eq!(ops.live_singles(), index.conflicting_facts());
            assert_eq!(ops.pair_count(), 0);
            let mut subset = db.all_facts();
            while !ops.is_consistent() {
                let f = ops.single(rng.random_range(0..ops.single_count()));
                ops.remove_fact(index, f);
                subset.remove(f);
                let violations = ViolationSet::compute(&db, &sigma, &subset);
                let mut singles: Vec<_> = ops.live_singles().to_vec();
                singles.sort();
                assert_eq!(singles, violations.conflicting_facts());
                assert_eq!(ops.pair_count(), 0);
                assert_eq!(ops.live_pairs(index).count(), 0);
                assert_eq!(ops.live(), &subset);
            }
            assert!(ViolationSet::compute(&db, &sigma, &subset).is_empty());
        }
    }

    #[test]
    fn singleton_reset_walks_visit_the_facts_of_a_full_reset_walk_in_order() {
        // A singleton pick reads only the singleton array, so a cursor
        // that never tracks pairs must keep that array in exactly the
        // order of one that does: same pick, same fact, same stream.
        let (db, sigma) = ucqa_workload_like_database();
        let sampler = OperationWalkSampler::new(&db, &sigma);
        let index = sampler.conflict_index();
        let mut rng = StdRng::seed_from_u64(11);
        let (mut full, mut lean) = (ucqa_db::LiveOps::new(), ucqa_db::LiveOps::new());
        for _ in 0..50 {
            full.reset_full(index);
            lean.reset_singletons(index);
            while !full.is_consistent() {
                assert_eq!(full.live_singles(), lean.live_singles());
                let choice = rng.random_range(0..full.single_count());
                let fact = full.single(choice);
                assert_eq!(fact, lean.single(choice));
                full.remove_fact(index, fact);
                lean.remove_fact(index, fact);
            }
            assert!(lean.is_consistent());
            assert_eq!(full.live(), lean.live());
        }
        // And the sampler's singleton walk is the hand-driven one above.
        let singleton = OperationWalkSampler::new(&db, &sigma).singleton_only();
        let (mut a, mut b) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        let mut repair = FactSet::empty(db.len());
        let mut scratch = WalkScratch::new();
        for _ in 0..50 {
            singleton.sample_result_into(&mut a, &mut repair, &mut scratch);
            full.reset_full(index);
            while !full.is_consistent() {
                let fact = full.single(b.random_range(0..full.single_count()));
                full.remove_fact(index, fact);
            }
            assert_eq!(&repair, full.live());
        }
        assert_eq!(a.random_range(0..u64::MAX), b.random_range(0..u64::MAX));
    }

    /// A small multi-FD database with overlapping, non-key FDs.
    fn ucqa_workload_like_database() -> (Database, FdSet) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B", "C", "P"]).unwrap();
        let mut db = Database::with_schema(schema);
        for (payload, (a, b, c)) in [
            (0, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (1, 1, 1),
            (1, 0, 0),
            (2, 2, 1),
            (2, 2, 2),
            (2, 0, 2),
            (0, 2, 2),
            (1, 1, 0),
        ]
        .into_iter()
        .enumerate()
        {
            db.insert_values(
                "R",
                [
                    Value::int(a),
                    Value::int(b),
                    Value::int(c),
                    Value::int(payload as i64),
                ],
            )
            .unwrap();
        }
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["C"], &["B"]).unwrap());
        (db, sigma)
    }

    #[test]
    fn buffered_singleton_walk_only_removes_single_facts() {
        let (db, sigma) = running_example();
        let sampler = OperationWalkSampler::new(&db, &sigma).singleton_only();
        let mut rng = StdRng::seed_from_u64(13);
        let mut repair = FactSet::empty(db.len());
        let mut scratch = WalkScratch::new();
        for _ in 0..200 {
            sampler.sample_result_into(&mut rng, &mut repair, &mut scratch);
            // Singleton walks keep at least one fact of the running example
            // (removing everything requires a pair removal).
            assert!(!repair.is_empty());
            assert!(ucqa_db::ViolationSet::compute(&db, &sigma, &repair).is_empty());
        }
    }

    #[test]
    fn singleton_walk_never_uses_pair_removals() {
        let (db, sigma) = running_example();
        let sampler = OperationWalkSampler::new(&db, &sigma).singleton_only();
        assert!(sampler.is_singleton_only());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let outcome = sampler.sample(&mut rng);
            assert!(outcome.sequence.is_singleton_only());
            assert!(!outcome.result.is_empty());
        }
        assert_eq!(sampler.available_operation_count(&db.all_facts()), 3);
        assert_eq!(
            OperationWalkSampler::new(&db, &sigma).available_operation_count(&db.all_facts()),
            5
        );
    }

    #[test]
    fn works_with_general_fds_not_just_keys() {
        // The Proposition D.6 family for n = 4: R(0,0,0) conflicts with
        // three facts R(0,1,i) under R : A1 → A2.
        let mut schema = Schema::new();
        schema.add_relation("R", &["A1", "A2", "A3"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("R", [Value::int(0), Value::int(0), Value::int(0)])
            .unwrap();
        for i in 1..=3 {
            db.insert_values("R", [Value::int(0), Value::int(1), Value::int(i)])
                .unwrap();
        }
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A1"], &["A2"]).unwrap());
        let sampler = OperationWalkSampler::new(&db, &sigma);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..200 {
            let outcome = sampler.sample(&mut rng);
            assert!(outcome.sequence.is_complete(&db, &sigma));
        }
    }
}

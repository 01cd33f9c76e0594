//! Property-based tests over randomly generated instances, checking the
//! structural invariants the paper's proofs rely on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use uocqa::core::counting;
use uocqa::core::RunBudget;
use uocqa::db::{
    ConflictGraph, ConflictIndex, Database, Fact, FactId, FactSet, LiveOps, Value, ViolationSet,
};
use uocqa::numeric::Ratio;
use uocqa::query::{Atom, ConjunctiveQuery, LineageBank, QueryEvaluator, Term};
use uocqa::repair::{GeneratorSpec, OperationalSemantics, RepairingTree, TreeLimits};

mod common;
use common::{
    all_specs, block_database, canonical_witnesses, fd_database, multi_fd_database,
    parse_membership,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Lemma C.1 dynamic program always agrees with brute-force tree
    /// enumeration, and the closed-form repair counts match as well.
    #[test]
    fn counting_formulas_match_enumeration(profile in prop::collection::vec(1usize..4, 1..4)) {
        let (db, sigma) = block_database(&profile);
        let tree = RepairingTree::build(&db, &sigma, false, TreeLimits::default()).unwrap();
        let sizes = counting::block_sizes(&db, &sigma, &db.all_facts()).unwrap();
        prop_assert_eq!(
            counting::count_complete_sequences(&sizes).to_u64().unwrap(),
            tree.leaf_count() as u64
        );
        prop_assert_eq!(
            counting::count_candidate_repairs(&sizes).to_u64().unwrap(),
            tree.candidate_repairs().len() as u64
        );
        let singleton_tree = RepairingTree::build(&db, &sigma, true, TreeLimits::default()).unwrap();
        prop_assert_eq!(
            counting::count_complete_sequences_singleton(&sizes).to_u64().unwrap(),
            singleton_tree.leaf_count() as u64
        );
        prop_assert_eq!(
            counting::count_candidate_repairs_singleton(&sizes).to_u64().unwrap(),
            singleton_tree.candidate_repairs().len() as u64
        );
    }

    /// Every candidate repair produced by the tree is a consistent subset,
    /// and every leaf distribution sums to exactly 1 under all generators.
    #[test]
    fn repairs_are_consistent_and_distributions_normalised(pairs in prop::collection::vec((0u8..3, 0u8..3), 1..6)) {
        let (db, sigma) = fd_database(&pairs);
        let tree = RepairingTree::build(&db, &sigma, false, TreeLimits::default()).unwrap();
        for repair in tree.candidate_repairs() {
            prop_assert!(ViolationSet::compute(&db, &sigma, &repair).is_empty());
        }
        for spec in [
            GeneratorSpec::uniform_repairs(),
            GeneratorSpec::uniform_sequences(),
            GeneratorSpec::uniform_operations(),
            GeneratorSpec::uniform_operations().with_singleton_only(),
        ] {
            let chain = spec.build_chain(&db, &sigma, TreeLimits::default()).unwrap();
            prop_assert!(chain.leaf_distribution_sums_to_one());
            let semantics = OperationalSemantics::from_chain(&chain);
            prop_assert!(semantics.total_probability().is_one());
        }
    }

    /// Lemma 5.4 / E.4: for non-trivially connected instances the number of
    /// candidate repairs equals the number of independent sets of the
    /// conflict graph (and the singleton variant equals the non-empty ones).
    #[test]
    fn corep_equals_independent_sets_of_conflict_graph(pairs in prop::collection::vec((0u8..2, 0u8..3), 2..6)) {
        let (db, sigma) = fd_database(&pairs);
        let cg = ConflictGraph::build(&db, &sigma);
        prop_assume!(cg.is_non_trivially_connected());
        // Count independent sets of the conflict graph by brute force.
        let n = db.len();
        let mut independent = 0u64;
        let mut independent_nonempty = 0u64;
        for mask in 0u32..(1 << n) {
            let subset = uocqa::db::FactSet::from_iter(
                n,
                (0..n).filter(|i| (mask >> i) & 1 == 1).map(uocqa::db::FactId::new),
            );
            if cg.is_independent_set(&subset) {
                independent += 1;
                if !subset.is_empty() {
                    independent_nonempty += 1;
                }
            }
        }
        let tree = RepairingTree::build(&db, &sigma, false, TreeLimits::default()).unwrap();
        prop_assert_eq!(tree.candidate_repairs().len() as u64, independent);
        let singleton = RepairingTree::build(&db, &sigma, true, TreeLimits::default()).unwrap();
        prop_assert_eq!(singleton.candidate_repairs().len() as u64, independent_nonempty);
    }

    /// The chain-based probability and the relative-frequency reformulation
    /// agree for uniform repairs and uniform sequences (Sections 5 and 6),
    /// and probabilities always lie in [0, 1].
    #[test]
    fn frequency_reformulations_agree(profile in prop::collection::vec(1usize..4, 1..4), fact_index in 0usize..12) {
        let (db, sigma) = block_database(&profile);
        let solver = uocqa::core::exact::ExactSolver::new(&db, &sigma);
        // Atomic query asking for a specific fact (wrapping the index).
        let target = db.fact(uocqa::db::FactId::new(fact_index % db.len()));
        let terms: Vec<Term> = target.values().iter().cloned().map(Term::Const).collect();
        let query = ConjunctiveQuery::boolean(db.schema(), vec![Atom::new(target.relation(), terms)]).unwrap();
        let evaluator = QueryEvaluator::new(query);
        for spec in [GeneratorSpec::uniform_repairs(), GeneratorSpec::uniform_sequences()] {
            let via_chain = solver.answer_probability(spec, &evaluator, &[]).unwrap();
            let via_freq = solver
                .answer_probability_via_frequencies(spec, &evaluator, &[])
                .unwrap();
            prop_assert_eq!(via_chain.clone(), via_freq);
            prop_assert!(via_chain <= Ratio::one());
        }
    }

    /// The compiled lineage agrees with the backtracking evaluator on
    /// random subsets of seeded workload databases, across single-atom
    /// lookup queries, Boolean fact-membership queries and two-atom join
    /// queries.
    #[test]
    fn compiled_lineage_agrees_with_the_evaluator(
        blocks in 1usize..6,
        block_size in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let (db, _) = uocqa::workload::BlockWorkload::uniform(blocks, block_size, seed).generate();
        let mut queries = vec![
            (uocqa::workload::queries::fact_membership_query(&db, seed).unwrap(), vec![]),
            (uocqa::workload::queries::block_join_query(&db, seed).unwrap(), vec![]),
        ];
        let (lookup, candidate) = uocqa::workload::queries::block_lookup_query(&db, seed).unwrap();
        queries.push((lookup, candidate));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
        for (query, candidate) in queries {
            let evaluator = QueryEvaluator::new(query);
            let lineage = LineageBank::compile(&db, &[(&evaluator, &candidate)]).unwrap();
            prop_assert!(
                !lineage.is_fallback(0),
                "workload lineages stay under the witness cap"
            );
            let mut scratch = uocqa::query::BankScratch::new();
            let mut hits = [false];
            for _ in 0..32 {
                let subset = FactSet::from_iter(
                    db.len(),
                    (0..db.len())
                        .filter(|_| rng.random_bool(0.5))
                        .map(uocqa::db::FactId::new),
                );
                lineage.evaluate_into(&subset, &mut scratch, &mut hits);
                prop_assert_eq!(
                    hits[0],
                    evaluator.has_answer(&db, &subset, &candidate).unwrap(),
                    "subset {:?}", subset
                );
            }
        }
    }

    /// The lower bounds of Lemmas 5.3 / 6.3 / E.3 hold on random
    /// primary-key instances: whenever the frequency is positive it is at
    /// least the stated bound.
    #[test]
    fn lower_bounds_hold(profile in prop::collection::vec(1usize..4, 1..4), fact_index in 0usize..12) {
        let (db, sigma) = block_database(&profile);
        let solver = uocqa::core::exact::ExactSolver::new(&db, &sigma);
        let target = db.fact(uocqa::db::FactId::new(fact_index % db.len()));
        let terms: Vec<Term> = target.values().iter().cloned().map(Term::Const).collect();
        let query = ConjunctiveQuery::boolean(db.schema(), vec![Atom::new(target.relation(), terms)]).unwrap();
        let evaluator = QueryEvaluator::new(query);
        let d = db.len();

        let rrfreq = solver.rrfreq(&evaluator, &[], false).unwrap().to_f64();
        if rrfreq > 0.0 {
            prop_assert!(rrfreq >= uocqa::core::bounds::rrfreq_lower_bound(d, 1).to_f64() - 1e-12);
        }
        let srfreq = solver.srfreq(&evaluator, &[], false).unwrap().to_f64();
        if srfreq > 0.0 {
            prop_assert!(srfreq >= uocqa::core::bounds::srfreq_lower_bound(d, 1).to_f64() - 1e-12);
        }
        let rrfreq1 = solver.rrfreq(&evaluator, &[], true).unwrap().to_f64();
        if rrfreq1 > 0.0 {
            prop_assert!(
                rrfreq1 >= uocqa::core::bounds::singleton_frequency_lower_bound(d, 1).to_f64() - 1e-12
            );
        }
    }

    /// Batched multi-query FPRAS runs are **bit-identical** to per-query
    /// runs under the same seed — a batch of k against k banks of one:
    /// the sequential path against
    /// [`estimate_with_budget`](uocqa::core::fpras::OcqaEstimator::estimate_with_budget),
    /// the rayon-parallel path against `estimate_parallel` — across bank
    /// sizes 1, 2 and 8 (with duplicate queries once the bank wraps
    /// around the database), on random multi-FD, non-key, cross-relation
    /// databases.  The RNG is consumed by the shared repair draw only, so
    /// batching changes the cost of a run, never its outcome.
    #[test]
    fn batched_estimates_match_single_query_runs_bit_for_bit(
        rows in prop::collection::vec((0u8..3, 0u8..3, 0u8..3, 0u8..2), 2..10),
        seed in 0u64..1_000,
    ) {
        use uocqa::core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};

        let (db, sigma) = multi_fd_database(&rows);
        // Non-key FDs: the supported generator is uniform operations with
        // singleton removals (Theorem 7.5).
        let spec = GeneratorSpec::uniform_operations().with_singleton_only();
        let estimator = BatchEstimator::new(&db, &sigma, spec).unwrap();
        let evaluators: Vec<QueryEvaluator> = (0..8usize)
            .map(|i| {
                let fact = db.fact(FactId::new((i + seed as usize) % db.len()));
                let terms: Vec<Term> = fact.values().iter().cloned().map(Term::Const).collect();
                QueryEvaluator::new(
                    ConjunctiveQuery::boolean(
                        db.schema(),
                        vec![Atom::new(fact.relation(), terms)],
                    )
                    .unwrap(),
                )
            })
            .collect();
        let params = ApproximationParams::new(0.2, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::FixedSamples(192));
        for bank_size in [1usize, 2, 8] {
            let bank: Vec<BatchQuery<'_>> = evaluators[..bank_size]
                .iter()
                .map(|e| BatchQuery::new(e, &[]))
                .collect();
            let batched = estimator
                .estimate_batch_with_budget(
                    &bank,
                    params,
                    &RunBudget::unlimited(),
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
            prop_assert_eq!(batched.queries.len(), bank_size);
            for (i, query) in bank.iter().enumerate() {
                let single = estimator
                    .estimator()
                    .estimate_with_budget(
                        query.evaluator,
                        query.candidate,
                        params,
                        &RunBudget::unlimited(),
                        &mut StdRng::seed_from_u64(seed),
                    )
                    .unwrap()
                    .queries[0];
                prop_assert_eq!(
                    batched.queries[i], single,
                    "sequential, bank {}, query {}", bank_size, i
                );
            }
            let batched_parallel = estimator
                .estimate_batch_parallel(&bank, params, seed)
                .unwrap();
            for (i, query) in bank.iter().enumerate() {
                let single = estimator
                    .estimator()
                    .estimate_parallel(query.evaluator, query.candidate, params, seed)
                    .unwrap();
                prop_assert_eq!(
                    batched_parallel.queries[i], single.queries[0],
                    "parallel, bank {}, query {}", bank_size, i
                );
            }
        }
    }

    /// Batched-adaptive (stopping-rule) per-query estimates satisfy the
    /// DKLR relative-error bound against the exact solver on random
    /// multi-FD banks of sizes 1, 2 and 8, and a zero-probability query
    /// appended to the bank truncates at `max_samples` with zero
    /// successes without stalling the retirement of the others.
    ///
    /// The stopping rule guarantees relative error `ε` with probability
    /// `1 − δ` per query; the test asserts the doubled radius `2ε` so a
    /// pass is deterministic in practice (the vendored proptest draws
    /// from fixed per-case seeds, and the probability of exceeding `2ε`
    /// is negligible), while a genuine estimator regression — wrong
    /// normalisation, wrong stream accounting — lands far outside it.
    #[test]
    fn batched_adaptive_estimates_satisfy_the_relative_error_bound(
        rows in prop::collection::vec((0u8..3, 0u8..3, 0u8..3, 0u8..2), 2..8),
        seed in 0u64..1_000,
    ) {
        use uocqa::core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
        use uocqa::query::parser::parse_query;

        let (db, sigma) = multi_fd_database(&rows);
        let spec = GeneratorSpec::uniform_operations().with_singleton_only();
        let estimator = BatchEstimator::new(&db, &sigma, spec).unwrap();
        let evaluators: Vec<QueryEvaluator> = (0..8usize)
            .map(|i| {
                let fact = db.fact(FactId::new((i + seed as usize) % db.len()));
                let terms: Vec<Term> = fact.values().iter().cloned().map(Term::Const).collect();
                QueryEvaluator::new(
                    ConjunctiveQuery::boolean(
                        db.schema(),
                        vec![Atom::new(fact.relation(), terms)],
                    )
                    .unwrap(),
                )
            })
            .collect();
        // A query no repair can ever entail: the constants do not occur in
        // the database.
        let never = QueryEvaluator::new(
            parse_query(db.schema(), "Ans() :- R(9, 9, 9, 9)").unwrap(),
        );
        // Exact ground truth for the whole bank, one pass over ⟦D⟧_M.
        let refs: Vec<(&QueryEvaluator, &[uocqa::db::Value])> =
            evaluators.iter().map(|e| (e, &[] as &[uocqa::db::Value])).collect();
        let exact = uocqa::core::exact::ExactSolver::new(&db, &sigma)
            .answer_probabilities(spec, &refs)
            .unwrap();

        let epsilon = 0.3;
        let max_samples = 20_000u64;
        let params = ApproximationParams::new(epsilon, 0.1)
            .unwrap()
            .with_mode(EstimatorMode::OptimalStopping { max_samples });
        for bank_size in [1usize, 2, 8] {
            let mut bank: Vec<BatchQuery<'_>> = evaluators[..bank_size]
                .iter()
                .map(|e| BatchQuery::new(e, &[]))
                .collect();
            bank.push(BatchQuery::new(&never, &[]));
            let estimates = estimator
                .estimate_stopping_batch_with_budget(
                    &bank,
                    params,
                    &RunBudget::unlimited(),
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
            prop_assert_eq!(estimates.queries.len(), bank_size + 1);
            for (i, estimate) in estimates.queries[..bank_size].iter().enumerate() {
                let p = exact[i].to_f64();
                if p == 0.0 {
                    prop_assert_eq!(estimate.successes, 0, "bank {}, query {}", bank_size, i);
                    prop_assert!(!estimate.status.is_converged());
                } else if p >= 0.05 {
                    // Well-supported queries must retire before the
                    // cut-off and land within the (doubled) error radius.
                    prop_assert!(
                        estimate.status.is_converged(),
                        "bank {}, query {}: truncated at p = {}", bank_size, i, p
                    );
                    prop_assert!(
                        estimate.samples < max_samples,
                        "bank {}, query {} did not retire early", bank_size, i
                    );
                    let relative_error = (estimate.estimate - p).abs() / p;
                    prop_assert!(
                        relative_error < 2.0 * epsilon,
                        "bank {}, query {}: exact {}, estimate {} (relative error {})",
                        bank_size, i, p, estimate.estimate, relative_error
                    );
                } else if estimate.status.is_converged() {
                    // Tiny but positive probabilities may legitimately
                    // truncate; when they do retire, the bound holds.
                    let relative_error = (estimate.estimate - p).abs() / p;
                    prop_assert!(relative_error < 2.0 * epsilon);
                }
            }
            // The impossible query rides the stream to the cut-off …
            let never_estimate = estimates.queries[bank_size];
            prop_assert!(!never_estimate.status.is_converged());
            prop_assert_eq!(never_estimate.samples, max_samples);
            prop_assert_eq!(never_estimate.successes, 0);
            prop_assert_eq!(never_estimate.estimate, 0.0);
            // … and `estimate_batch_with_budget` routes OptimalStopping to
            // the same adaptive loop.
            let routed = estimator
                .estimate_batch_with_budget(
                    &bank,
                    params,
                    &RunBudget::unlimited(),
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
            prop_assert_eq!(routed, estimates);
        }
    }

    /// Plan-based witness enumeration is **witness-set-identical** to the
    /// unplanned backtracking baseline, on random multi-FD databases:
    /// per-query homomorphism sets, compiled-lineage witness antichains,
    /// and whole banks compiled through the shared scan trie (including
    /// overlapping-join banks and over-cap fallback entries) all agree
    /// with the pre-plan path on every tested subset.
    #[test]
    fn planned_enumeration_matches_the_backtracking_baseline(
        rows in prop::collection::vec((0u8..3, 0u8..3, 0u8..3, 0u8..2), 2..10),
        seed in 0u64..1_000,
    ) {
        use uocqa::workload::queries::overlapping_join_bank;

        let (db, _) = multi_fd_database(&rows);
        // A mixed bank: overlapping joins (shared prefixes), atomic
        // membership queries, a candidate-driven lookup, and an
        // unsatisfiable query.
        let mut queries: Vec<(ConjunctiveQuery, Vec<Value>)> = overlapping_join_bank(&db, 3, 1, seed)
            .unwrap()
            .into_iter()
            .map(|q| (q, vec![]))
            .collect();
        for offset in 0..2usize {
            let fact = db.fact(FactId::new((seed as usize + offset) % db.len()));
            let terms: Vec<Term> = fact.values().iter().cloned().map(Term::Const).collect();
            queries.push((
                ConjunctiveQuery::boolean(db.schema(), vec![Atom::new(fact.relation(), terms)]).unwrap(),
                vec![],
            ));
        }
        {
            // A lookup with an answer variable, prebound to a real value.
            let fact = db.fact(FactId::new(seed as usize % db.len()));
            let mut terms: Vec<Term> = fact.values().iter().cloned().map(Term::Const).collect();
            terms[0] = Term::var("x");
            queries.push((
                ConjunctiveQuery::new(
                    db.schema(),
                    vec![uocqa::query::Variable::new("x")],
                    vec![Atom::new(fact.relation(), terms)],
                ).unwrap(),
                vec![fact.values()[0].clone()],
            ));
        }
        queries.push((
            uocqa::query::parser::parse_query(db.schema(), "Ans() :- R(9, 9, 9, 9)").unwrap(),
            vec![],
        ));

        let evaluators: Vec<(QueryEvaluator, Vec<Value>)> = queries
            .into_iter()
            .map(|(q, c)| (QueryEvaluator::new(q), c))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
        let mut subsets: Vec<FactSet> = vec![db.all_facts()];
        for _ in 0..8 {
            subsets.push(FactSet::from_iter(
                db.len(),
                (0..db.len()).filter(|_| rng.random_bool(0.5)).map(FactId::new),
            ));
        }

        // Per-query: planned evaluation and compilation agree with the
        // unplanned baseline.
        for (evaluator, candidate) in &evaluators {
            for subset in &subsets {
                prop_assert_eq!(
                    evaluator.has_answer(&db, subset, candidate).unwrap(),
                    evaluator
                        .for_each_answer_image_unplanned(&db, subset, candidate, |_| true)
                        .unwrap()
                );
                let mut planned = evaluator.homomorphisms(&db, subset, None);
                let mut unplanned = evaluator.homomorphisms_unplanned(&db, subset, None);
                planned.sort_by(|a, b| a.bindings.cmp(&b.bindings).then(a.image.cmp(&b.image)));
                unplanned.sort_by(|a, b| a.bindings.cmp(&b.bindings).then(a.image.cmp(&b.image)));
                prop_assert_eq!(planned, unplanned);
            }
            let one = [(evaluator, candidate.as_slice())];
            let planned = LineageBank::compile(&db, &one).unwrap();
            let unplanned = LineageBank::compile_unplanned(&db, &one).unwrap();
            prop_assert_eq!(
                canonical_witnesses(&planned, 0, None),
                canonical_witnesses(&unplanned, 0, None)
            );
        }

        // Whole-bank: the shared scan trie produces the same entries as
        // one unplanned pass per entry, under the default cap and under a
        // tiny cap that forces fallbacks.
        let refs: Vec<(&QueryEvaluator, &[Value])> =
            evaluators.iter().map(|(e, c)| (e, c.as_slice())).collect();
        for cap in [uocqa::query::DEFAULT_WITNESS_CAP, 1] {
            let shared = LineageBank::compile_with_cap(&db, &refs, cap).unwrap();
            let baseline = LineageBank::compile_unplanned_with_cap(&db, &refs, cap).unwrap();
            let mut scratch = uocqa::query::BankScratch::new();
            let mut shared_hits = vec![false; shared.len()];
            let mut baseline_hits = vec![false; baseline.len()];
            for i in 0..refs.len() {
                prop_assert_eq!(shared.is_fallback(i), baseline.is_fallback(i), "cap {}, entry {}", cap, i);
                prop_assert_eq!(
                    shared.query_witness_count(i),
                    baseline.query_witness_count(i),
                    "cap {}, entry {}", cap, i
                );
            }
            for subset in &subsets {
                shared.evaluate_into(subset, &mut scratch, &mut shared_hits);
                baseline.evaluate_into(subset, &mut scratch, &mut baseline_hits);
                prop_assert_eq!(&shared_hits, &baseline_hits, "cap {}", cap);
            }
        }
    }

    /// Batched estimates are **bit-identical before and after the
    /// planning refactor**: under a fixed seed, driving the shared
    /// sampler loop over the shared-trie-compiled bank returns exactly
    /// the estimates of the same loop over the unplanned per-entry bank
    /// (the pre-refactor compile path), across all six generator specs on
    /// random primary-key databases with overlapping-join banks.
    #[test]
    fn batched_estimates_are_bit_identical_before_and_after_planning(
        profile in prop::collection::vec(1usize..4, 1..4),
        seed in 0u64..1_000,
    ) {
        use uocqa::core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
        use uocqa::workload::queries::overlapping_join_bank;

        let (db, sigma) = block_database(&profile);
        let mut queries: Vec<ConjunctiveQuery> = overlapping_join_bank(&db, 2, 1, seed).unwrap();
        let fact = db.fact(FactId::new(seed as usize % db.len()));
        let terms: Vec<Term> = fact.values().iter().cloned().map(Term::Const).collect();
        queries.push(
            ConjunctiveQuery::boolean(db.schema(), vec![Atom::new(fact.relation(), terms)]).unwrap(),
        );
        let evaluators: Vec<QueryEvaluator> =
            queries.into_iter().map(QueryEvaluator::new).collect();
        let bank: Vec<BatchQuery<'_>> =
            evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
        let params = ApproximationParams::new(0.2, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::FixedSamples(96));
        for spec in all_specs() {
            let estimator = BatchEstimator::new(&db, &sigma, spec).unwrap();
            let planned_bank = estimator.compile_bank(&bank).unwrap();
            let refs: Vec<_> = bank.iter().map(|q| (q.evaluator, q.candidate)).collect();
            let unplanned_bank = uocqa::query::LineageBank::compile_unplanned(&db, &refs).unwrap();
            let planned = estimator
                .estimate_with_bank(
                    &planned_bank,
                    &bank,
                    params,
                    &RunBudget::unlimited(),
                    None,
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
            let unplanned = estimator
                .estimate_with_bank(
                    &unplanned_bank,
                    &bank,
                    params,
                    &RunBudget::unlimited(),
                    None,
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
            prop_assert_eq!(&planned, &unplanned, "spec {}", spec.short_name());
            let routed = estimator
                .estimate_batch_with_budget(
                    &bank,
                    params,
                    &RunBudget::unlimited(),
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
            prop_assert_eq!(&planned, &routed, "spec {}", spec.short_name());
        }
    }

    /// Cost-based join plans are **end-to-end bit-identical** to the
    /// structural baseline: per-query compiled-lineage antichains, bank
    /// witness sets after `minimal_antichain`, fallback flags under the
    /// default and a fallback-forcing cap, and same-seed batched
    /// estimates across all six generator specs all agree between
    /// evaluators planned with `QueryEvaluator::new` (structural order)
    /// and `QueryEvaluator::with_stats` (cost-based order) — the cost
    /// model reorders the enumeration, never the enumerated set.
    #[test]
    fn costed_plans_are_bit_identical_to_structural_plans_across_all_specs(
        profile in prop::collection::vec(1usize..4, 1..4),
        seed in 0u64..200,
    ) {
        use uocqa::core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
        use uocqa::workload::queries::overlapping_join_bank;

        let (db, sigma) = block_database(&profile);
        let mut queries: Vec<ConjunctiveQuery> = overlapping_join_bank(&db, 2, 1, seed).unwrap();
        let fact = db.fact(FactId::new(seed as usize % db.len()));
        let terms: Vec<Term> = fact.values().iter().cloned().map(Term::Const).collect();
        queries.push(
            ConjunctiveQuery::boolean(db.schema(), vec![Atom::new(fact.relation(), terms)]).unwrap(),
        );
        // A never-interned constant exercises the zero-cardinality cost
        // estimate without changing the (empty) witness set.
        queries.push(uocqa::query::parser::parse_query(db.schema(), "Ans() :- R(9, 9)").unwrap());

        let structural: Vec<QueryEvaluator> =
            queries.iter().cloned().map(QueryEvaluator::new).collect();
        let costed: Vec<QueryEvaluator> = queries
            .iter()
            .cloned()
            .map(|q| QueryEvaluator::with_stats(q, &db).unwrap())
            .collect();

        // Per-query compiled lineages (banks of one) hold the same
        // minimal antichain.
        for (s, c) in structural.iter().zip(&costed) {
            let s_lineage = LineageBank::compile(&db, &[(s, &[])]).unwrap();
            let c_lineage = LineageBank::compile(&db, &[(c, &[])]).unwrap();
            prop_assert_eq!(
                canonical_witnesses(&s_lineage, 0, None),
                canonical_witnesses(&c_lineage, 0, None)
            );
        }

        // Whole banks agree entry by entry — witness sets and fallback
        // flags — under the default cap and a cap of 1 that forces
        // fallback entries on every multi-witness query.
        let s_refs: Vec<(&QueryEvaluator, &[Value])> =
            structural.iter().map(|e| (e, &[] as &[Value])).collect();
        let c_refs: Vec<(&QueryEvaluator, &[Value])> =
            costed.iter().map(|e| (e, &[] as &[Value])).collect();
        for cap in [uocqa::query::DEFAULT_WITNESS_CAP, 1] {
            let s_bank = LineageBank::compile_with_cap(&db, &s_refs, cap).unwrap();
            let c_bank = LineageBank::compile_with_cap(&db, &c_refs, cap).unwrap();
            for entry in 0..s_refs.len() {
                prop_assert_eq!(
                    s_bank.is_fallback(entry),
                    c_bank.is_fallback(entry),
                    "cap {}, entry {}", cap, entry
                );
                prop_assert_eq!(
                    canonical_witnesses(&s_bank, entry, None),
                    canonical_witnesses(&c_bank, entry, None),
                    "cap {}, entry {}", cap, entry
                );
            }
        }

        // Same-seed batched estimates agree across all six generator
        // specs: the witness sets being equal, the shared sampler loop
        // consumes the RNG identically on both sides.
        let s_batch: Vec<BatchQuery<'_>> =
            structural.iter().map(|e| BatchQuery::new(e, &[])).collect();
        let c_batch: Vec<BatchQuery<'_>> =
            costed.iter().map(|e| BatchQuery::new(e, &[])).collect();
        let params = ApproximationParams::new(0.2, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::FixedSamples(96));
        for spec in all_specs() {
            let estimator = BatchEstimator::new(&db, &sigma, spec).unwrap();
            let s_estimates = estimator
                .estimate_batch_with_budget(
                    &s_batch,
                    params,
                    &RunBudget::unlimited(),
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
            let c_estimates = estimator
                .estimate_batch_with_budget(
                    &c_batch,
                    params,
                    &RunBudget::unlimited(),
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
            prop_assert_eq!(&s_estimates, &c_estimates, "spec {}", spec.short_name());
        }
    }

    /// The incremental conflict index agrees with a from-scratch
    /// `ViolationSet::recompute` after **every** removal, on randomised
    /// multi-FD, non-key, cross-relation databases — the invariant that
    /// makes the O(ops)-per-step uniform-operations walk realise the same
    /// leaf distribution as the rescan walk.
    #[test]
    fn incremental_conflict_index_matches_recompute_after_every_removal(
        rows in prop::collection::vec((0u8..3, 0u8..3, 0u8..3, 0u8..2), 1..14),
        seed in 0u64..1_000,
    ) {
        let (db, sigma) = multi_fd_database(&rows);
        let index = ConflictIndex::build(&db, &sigma);
        let mut ops = LiveOps::new();
        ops.reset_full(&index);
        // The `M^{uo,1}` cursor: same removals, pair set never tracked.
        let mut lean = LiveOps::new();
        lean.reset_singletons(&index);
        let mut subset = db.all_facts();
        let mut reference = ViolationSet::default();
        let mut recompute_scratch = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut remaining: Vec<FactId> = subset.to_vec();
        // Remove every fact (not only conflicting ones) in random order.
        while !remaining.is_empty() {
            let pick = rng.random_range(0..remaining.len());
            let fact = remaining.swap_remove(pick);
            ops.remove_fact(&index, fact);
            lean.remove_fact(&index, fact);
            subset.remove(fact);
            reference.recompute(&db, &sigma, &subset, &mut recompute_scratch);
            prop_assert_eq!(lean.live_singles(), ops.live_singles());
            prop_assert_eq!(lean.pair_count(), 0);
            prop_assert_eq!(lean.live(), &subset);
            prop_assert_eq!(lean.is_consistent(), reference.is_empty());
            let mut singles = ops.live_singles().to_vec();
            singles.sort();
            prop_assert_eq!(singles, reference.conflicting_facts());
            let mut pairs: Vec<(FactId, FactId)> = ops.live_pairs(&index).collect();
            pairs.sort();
            prop_assert_eq!(pairs, reference.conflicting_pairs());
            prop_assert_eq!(ops.live(), &subset);
            prop_assert_eq!(ops.live_violations(&index).count(), reference.len());
            prop_assert_eq!(ops.is_consistent(), reference.is_empty());
            // A fresh reset to the same subset reaches the same state.
            let mut fresh = LiveOps::new();
            fresh.reset_to(&index, &subset);
            prop_assert_eq!(fresh.single_count(), ops.single_count());
            prop_assert_eq!(fresh.pair_count(), ops.pair_count());
        }
        prop_assert!(ops.is_consistent());
        prop_assert_eq!(ops.live_violations(&index).count(), 0);
    }
}

/// The sharded fixed-sample loop returns bit-identical results for a
/// fixed master seed regardless of the number of worker threads, and the
/// end-to-end `estimate_parallel` agrees with the exact probability.
#[test]
fn parallel_estimation_is_deterministic_across_thread_counts() {
    use uocqa::core::fpras::{ApproximationParams, EstimatorMode, OcqaEstimator};
    use uocqa::core::montecarlo::estimate_fixed_batch_parallel;

    // Raw estimator: a plain Bernoulli experiment as a bank of one.
    let raw = || {
        estimate_fixed_batch_parallel(2024, 100_003, 1_024, 1, || {
            |rng: &mut StdRng, successes: &mut [u64]| {
                if rng.random_bool(0.35) {
                    successes[0] += 1;
                }
            }
        })
    };
    let raw_baseline = raw();
    assert_eq!(raw_baseline.samples, 100_003);

    // End-to-end: the uniform-repairs FPRAS over a seeded block workload.
    let (db, sigma) = uocqa::workload::BlockWorkload::uniform(8, 3, 5).generate();
    let (query, candidate) = uocqa::workload::queries::block_lookup_query(&db, 5).unwrap();
    let evaluator = QueryEvaluator::new(query);
    let estimator = OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
    let params = ApproximationParams::new(0.05, 0.05)
        .unwrap()
        .with_mode(EstimatorMode::FixedSamples(60_000));
    let estimate_baseline = estimator
        .estimate_parallel(&evaluator, &candidate, params, 77)
        .unwrap();

    for threads in [1usize, 2, 3, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");
        assert_eq!(
            pool.install(raw),
            raw_baseline,
            "raw outcome with {threads} threads"
        );
        let estimate = pool
            .install(|| estimator.estimate_parallel(&evaluator, &candidate, params, 77))
            .unwrap();
        assert_eq!(
            estimate, estimate_baseline,
            "estimator outcome with {threads} threads"
        );
    }

    // Sanity: the parallel estimate is close to the exact probability.
    // Under uniform repairs each size-3 block keeps one of its facts or
    // none, uniformly over 4 outcomes, so the candidate fact survives with
    // probability exactly 1/4.
    let exact = 0.25;
    let estimate = estimate_baseline.queries[0].estimate;
    let relative_error = (estimate - exact).abs() / exact;
    assert!(
        relative_error < 0.1,
        "exact {exact}, parallel estimate {estimate} (relative error {relative_error})"
    );
}

/// The parallel *batched* estimator is bit-identical across thread
/// counts, and its per-query results equal the single-query parallel runs
/// under the same master seed.
#[test]
fn parallel_batched_estimation_is_deterministic_across_thread_counts() {
    use uocqa::core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
    use uocqa::workload::queries::fact_membership_query_bank;

    let (db, sigma) = uocqa::workload::BlockWorkload::uniform(8, 3, 5).generate();
    let queries = fact_membership_query_bank(&db, 4, 9).unwrap();
    let evaluators: Vec<QueryEvaluator> = queries.into_iter().map(QueryEvaluator::new).collect();
    let bank: Vec<BatchQuery<'_>> = evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
    let estimator = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
    let params = ApproximationParams::new(0.05, 0.05)
        .unwrap()
        .with_mode(EstimatorMode::FixedSamples(30_000));
    let baseline = estimator
        .estimate_batch_parallel(&bank, params, 77)
        .unwrap();
    for threads in [1usize, 2, 3, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");
        let outcome = pool
            .install(|| estimator.estimate_batch_parallel(&bank, params, 77))
            .unwrap();
        assert_eq!(outcome, baseline, "batched outcome with {threads} threads");
    }
    for (i, query) in bank.iter().enumerate() {
        let single = estimator
            .estimator()
            .estimate_parallel(query.evaluator, query.candidate, params, 77)
            .unwrap();
        assert_eq!(baseline.queries[i], single.queries[0], "query {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tripping the cancellation token at an arbitrary draw index never
    /// panics, marks every still-live query `Cancelled` at exactly that
    /// draw, and resuming with the remaining budget under the same seed
    /// reproduces the uninterrupted estimates bit-for-bit.
    #[test]
    fn cancellation_is_clean_and_resumable(cut in 1u64..400, seed in 0u64..16) {
        use uocqa::core::budget::{BudgetStatus, CancelToken, RunBudget};
        use uocqa::core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};

        let (db, sigma) = block_database(&[2, 3, 1]);
        let q = parse_membership(&db);
        let bank = [BatchQuery::new(&q, &[])];
        let params = ApproximationParams::new(0.25, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::OptimalStopping { max_samples: 100_000 });
        let estimator =
            BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        let uninterrupted = estimator
            .estimate_stopping_batch_with_budget(
                &bank,
                params,
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();

        let mut rng = StdRng::seed_from_u64(seed);
        let budget =
            RunBudget::unlimited().with_cancel_token(CancelToken::tripped_at_draw(cut));
        let partial = estimator
            .estimate_stopping_batch_with_budget(&bank, params, &budget, &mut rng)
            .unwrap();
        if cut < uninterrupted.queries[0].samples {
            // The token fired while the query was still live.
            prop_assert_eq!(partial.total_draws, cut);
            prop_assert_eq!(partial.queries[0].status, BudgetStatus::Cancelled);
            prop_assert_eq!(partial.queries[0].samples, cut);
        } else {
            // The query retired before the token tripped: converged
            // values are kept, bit-identical to the uninterrupted run.
            prop_assert_eq!(partial.queries[0].status, BudgetStatus::Converged);
            prop_assert_eq!(partial.queries[0].samples, uninterrupted.queries[0].samples);
        }
        let compiled = estimator.compile_bank(&bank).unwrap();
        let resumed = estimator
            .estimate_with_bank(
                &compiled,
                &bank,
                params,
                &RunBudget::unlimited(),
                Some(&partial),
                &mut rng,
            )
            .unwrap();
        prop_assert_eq!(resumed.queries[0].status, BudgetStatus::Converged);
        prop_assert_eq!(resumed, uninterrupted);
    }
}

/// A `Value`-level reference evaluator: naive backtracking over *decoded*
/// facts, comparing [`Value`]s directly — no dictionary, no symbols, no
/// index.  This is the pre-encoding semantics the symbol executor must
/// reproduce bit-for-bit; returns the answer set and the set of
/// sorted-deduplicated witness images.
#[allow(clippy::too_many_arguments)]
fn value_level_reference(
    db: &Database,
    subset: &FactSet,
    query: &ConjunctiveQuery,
) -> (
    std::collections::BTreeSet<Vec<Value>>,
    std::collections::BTreeSet<Vec<FactId>>,
) {
    use std::collections::{BTreeMap, BTreeSet};
    use uocqa::query::Variable;

    fn go(
        live: &[(FactId, Fact)],
        query: &ConjunctiveQuery,
        depth: usize,
        env: &mut BTreeMap<Variable, Value>,
        image: &mut Vec<FactId>,
        answers: &mut BTreeSet<Vec<Value>>,
        images: &mut BTreeSet<Vec<FactId>>,
    ) {
        let atoms = query.atoms();
        if depth == atoms.len() {
            answers.insert(query.answer_vars().iter().map(|v| env[v].clone()).collect());
            let mut img = image.clone();
            img.sort();
            img.dedup();
            images.insert(img);
            return;
        }
        let atom = &atoms[depth];
        for (id, fact) in live {
            if fact.relation() != atom.relation() {
                continue;
            }
            let mut added: Vec<Variable> = Vec::new();
            let mut ok = true;
            for (term, value) in atom.terms().iter().zip(fact.values()) {
                match term {
                    Term::Const(c) => {
                        if c != value {
                            ok = false;
                            break;
                        }
                    }
                    Term::Var(v) => match env.get(v) {
                        Some(bound) => {
                            if bound != value {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            env.insert(v.clone(), value.clone());
                            added.push(v.clone());
                        }
                    },
                }
            }
            if ok {
                image.push(*id);
                go(live, query, depth + 1, env, image, answers, images);
                image.pop();
            }
            for v in added {
                env.remove(&v);
            }
        }
    }

    let live: Vec<(FactId, Fact)> = db.iter().filter(|(id, _)| subset.contains(*id)).collect();
    let mut answers = std::collections::BTreeSet::new();
    let mut images = std::collections::BTreeSet::new();
    go(
        &live,
        query,
        0,
        &mut BTreeMap::new(),
        &mut Vec::new(),
        &mut answers,
        &mut images,
    );
    (answers, images)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Dictionary round-trip: decoding every fact of an interned database
    /// and re-inserting the decoded facts into a fresh database (fresh
    /// dictionary) reproduces the database fact-for-fact, id-for-id —
    /// `decode(encode(db)) == db`.
    #[test]
    fn interned_databases_round_trip_through_decode_and_reencode(
        rows in prop::collection::vec((0u8..3, 0u8..3, 0u8..3, 0u8..2), 1..14),
    ) {
        let (db, _) = multi_fd_database(&rows);
        let mut rebuilt = Database::with_schema(db.schema().clone());
        for (_, fact) in db.iter() {
            rebuilt.insert(fact).unwrap();
        }
        prop_assert_eq!(rebuilt.len(), db.len());
        for id in db.fact_ids() {
            prop_assert_eq!(rebuilt.fact(id), db.fact(id));
            prop_assert_eq!(rebuilt.fact_id(&db.fact(id)), Some(id));
        }
        // Interning assigns symbols by first occurrence on both sides, so
        // the rebuilt dictionary covers exactly the same constants.
        prop_assert_eq!(rebuilt.dictionary().len(), db.dictionary().len());
        prop_assert_eq!(rebuilt.active_domain().len(), db.active_domain().len());
    }

    /// The symbol executor agrees with the `Value`-level reference
    /// evaluator on entailment, answer sets and witness images over random
    /// subsets — the dictionary-encoding shell changes the representation,
    /// never the semantics.  Covers joins, constants (both interned and
    /// never-interned) and parameterised answers on both the planned and
    /// unplanned paths.
    #[test]
    fn symbol_evaluation_matches_the_value_level_reference(
        rows in prop::collection::vec((0u8..3, 0u8..3, 0u8..3, 0u8..2), 1..10),
        seed in 0u64..500,
    ) {
        let (db, _) = multi_fd_database(&rows);
        let texts = [
            "Ans() :- R(a, b, c, p)",
            "Ans(b) :- R(a, b, c, p)",
            "Ans() :- R(a, b, c, p), S(a2, b, p2)",
            "Ans(a) :- R(a, 0, c, p)",
            "Ans() :- R(9, 9, 9, 9)",
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        for text in texts {
            let query = uocqa::query::parser::parse_query(db.schema(), text).unwrap();
            let evaluator = QueryEvaluator::new(query.clone());
            for _ in 0..4 {
                let subset = FactSet::from_iter(
                    db.len(),
                    (0..db.len()).filter(|_| rng.random_bool(0.7)).map(FactId::new),
                );
                let (ref_answers, ref_images) = value_level_reference(&db, &subset, &query);
                prop_assert_eq!(
                    evaluator.entails(&db, &subset),
                    !ref_images.is_empty(),
                    "{}", text
                );
                prop_assert_eq!(
                    !evaluator.homomorphisms_unplanned(&db, &subset, Some(1)).is_empty(),
                    !ref_images.is_empty(),
                    "{}", text
                );
                prop_assert_eq!(evaluator.answers(&db, &subset), ref_answers, "{}", text);
                let planned: std::collections::BTreeSet<Vec<FactId>> = evaluator
                    .homomorphisms(&db, &subset, None)
                    .into_iter()
                    .map(|h| h.image)
                    .collect();
                prop_assert_eq!(&planned, &ref_images, "{}", text);
                let unplanned: std::collections::BTreeSet<Vec<FactId>> = evaluator
                    .homomorphisms_unplanned(&db, &subset, None)
                    .into_iter()
                    .map(|h| h.image)
                    .collect();
                prop_assert_eq!(&unplanned, &ref_images, "{}", text);
            }
        }
    }

    /// A database bulk-loaded with `Database::extend` is bit-identical to
    /// the same facts inserted one by one (same ids, rows and symbols),
    /// and under a fixed seed the batched estimates drawn over the two are
    /// bit-identical across **all six generator specs** — bulk loading and
    /// interning change the cost, never a single estimate.
    #[test]
    fn bulk_extend_is_bit_identical_to_per_fact_insert_across_all_specs(
        profile in prop::collection::vec(1usize..4, 1..4),
        seed in 0u64..200,
    ) {
        use uocqa::core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};

        // A primary-key database: the one constraint class every generator
        // spec supports (Theorem 5.1 restricts uniform repairs/sequences
        // to primary keys).
        let (db, sigma) = block_database(&profile);
        let facts: Vec<Fact> = db.iter().map(|(_, fact)| fact).collect();
        let mut one_by_one = Database::with_schema(db.schema().clone());
        for fact in facts.clone() {
            one_by_one.insert(fact).unwrap();
        }
        let mut bulk = Database::with_schema(db.schema().clone());
        bulk.extend(facts).unwrap();
        prop_assert_eq!(one_by_one.len(), bulk.len());
        for id in one_by_one.fact_ids() {
            prop_assert_eq!(one_by_one.relation_of(id), bulk.relation_of(id));
            prop_assert_eq!(one_by_one.row_of(id), bulk.row_of(id));
            prop_assert_eq!(one_by_one.fact(id), bulk.fact(id));
        }
        prop_assert_eq!(one_by_one.dictionary().len(), bulk.dictionary().len());

        let texts = [
            "Ans() :- R(0, v)",
            "Ans() :- R(x, y), R(z, y)",
        ];
        let evaluators: Vec<QueryEvaluator> = texts
            .iter()
            .map(|t| {
                QueryEvaluator::new(
                    uocqa::query::parser::parse_query(one_by_one.schema(), t).unwrap(),
                )
            })
            .collect();
        let bank: Vec<BatchQuery<'_>> =
            evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
        let params = ApproximationParams::new(0.2, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::FixedSamples(64));
        for spec in all_specs() {
            let a = BatchEstimator::new(&one_by_one, &sigma, spec)
                .unwrap()
                .estimate_batch_with_budget(
                    &bank,
                    params,
                    &RunBudget::unlimited(),
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
            let b = BatchEstimator::new(&bulk, &sigma, spec)
                .unwrap()
                .estimate_batch_with_budget(
                    &bank,
                    params,
                    &RunBudget::unlimited(),
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
            prop_assert_eq!(&a, &b, "spec {}", spec.short_name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interleaved `insert` / `delete` / `extend` streams keep the
    /// delta-maintained structures equal to from-scratch rebuilds after
    /// **every** step: the in-place patched relation index against
    /// `RelationIndex::build`, and the changelog-replayed conflict index
    /// against `ConflictIndex::build` — the update-path oracle of the
    /// delta maintenance layer, on multi-FD cross-relation databases.
    #[test]
    fn delta_maintained_indexes_match_rebuilds_after_every_interleaved_step(
        rows in prop::collection::vec((0u8..3, 0u8..3, 0u8..3, 0u8..2), 1..12),
        steps in prop::collection::vec((0u8..4, 0u8..3, 0u8..3, 0u8..3), 1..10),
        seed in 0u64..1_000,
    ) {
        use uocqa::db::RelationIndex;

        let (mut db, sigma) = multi_fd_database(&rows);
        // Materialise the cached index so every mutation patches it in
        // place instead of a later access rebuilding it wholesale.
        let _ = db.relation_index();
        let mut conflict = ConflictIndex::build(&db, &sigma);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut payload = rows.len() as i64;
        let r = db.schema().relation_id("R").unwrap();
        let s = db.schema().relation_id("S").unwrap();
        let fresh_fact = |payload: &mut i64, a: u8, b: u8, c: u8| {
            let (a, b, c) = (
                Value::int(i64::from(a % 3)),
                Value::int(i64::from(b % 3)),
                Value::int(i64::from(c % 3)),
            );
            let fact = if *payload % 2 == 0 {
                Fact::new(r, vec![a, b, c, Value::int(*payload)])
            } else {
                Fact::new(s, vec![a, b, Value::int(*payload)])
            };
            *payload += 1;
            fact
        };
        for (op, a, b, c) in steps {
            match op {
                0 => {
                    db.insert(fresh_fact(&mut payload, a, b, c)).unwrap();
                }
                1 => {
                    let live: Vec<FactId> = db.fact_ids().collect();
                    if !live.is_empty() {
                        db.delete(live[rng.random_range(0..live.len())]).unwrap();
                    }
                }
                2 => {
                    let batch = vec![
                        fresh_fact(&mut payload, a, b, c),
                        fresh_fact(&mut payload, b, c, a),
                    ];
                    db.extend(batch).unwrap();
                }
                _ => {
                    // Delete-then-reinsert the same fact within one step:
                    // the changelog window sees the id both deleted and
                    // (re-)inserted.
                    let live: Vec<FactId> = db.fact_ids().collect();
                    if !live.is_empty() {
                        let victim = live[rng.random_range(0..live.len())];
                        let fact = db.fact(victim);
                        db.delete(victim).unwrap();
                        db.insert(fact).unwrap();
                    }
                }
            }
            conflict.refresh(&db, &sigma);
            prop_assert_eq!(&conflict, &ConflictIndex::build(&db, &sigma));
            let rebuilt = RelationIndex::build(&db);
            let maintained = db.relation_index();
            prop_assert_eq!(maintained, &rebuilt);
            // The cost model reads the maintained index through these
            // accessors, so assert the planner-facing statistics
            // explicitly: a stale cardinality, distinct count or posting
            // length would bias every cost estimate.
            for relation in [r, s] {
                prop_assert_eq!(
                    maintained.relation_cardinality(relation),
                    rebuilt.relation_cardinality(relation)
                );
                for position in 0..db.schema().arity(relation) {
                    prop_assert_eq!(
                        maintained.distinct_count(relation, position),
                        rebuilt.distinct_count(relation, position)
                    );
                    for (sym, _) in db.dictionary().iter() {
                        prop_assert_eq!(
                            maintained.selectivity(relation, position, sym),
                            rebuilt.selectivity(relation, position, sym)
                        );
                    }
                }
            }
        }
    }

    /// After a random mutation window, a `LineageBank` brought up to date
    /// with `refresh` yields **bit-identical** batched estimates to a bank
    /// recompiled from scratch, under the same seed, across all six
    /// generator specs.
    #[test]
    fn refreshed_bank_estimates_match_recompilation_across_all_specs(
        profile in prop::collection::vec(1usize..4, 1..4),
        inserts in prop::collection::vec((0u8..6, 0u8..6), 1..4),
        seed in 0u64..200,
    ) {
        use uocqa::core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
        use uocqa::query::BankQueryRef;

        let (mut db, sigma) = block_database(&profile);
        let texts = [
            "Ans() :- R(0, v)",
            "Ans() :- R(x, y), R(z, y)",
        ];
        let evaluators: Vec<QueryEvaluator> = texts
            .iter()
            .map(|t| {
                QueryEvaluator::new(
                    uocqa::query::parser::parse_query(db.schema(), t).unwrap(),
                )
            })
            .collect();
        let bank_refs: Vec<BankQueryRef<'_>> =
            evaluators.iter().map(|e| (e, &[] as &[Value])).collect();
        let mut bank = LineageBank::compile(&db, &bank_refs).unwrap();

        // The mutation window: fresh blocks inserted, one live fact
        // deleted.  Offsetting `A` by 100 + the insertion index keeps the
        // new facts distinct from the block profile and each other.
        let mut rng = StdRng::seed_from_u64(seed);
        for (i, (a, b)) in inserts.iter().enumerate() {
            db.insert_values(
                "R",
                [
                    Value::int(100 + i64::from(*a) + 10 * i as i64),
                    Value::int(i64::from(*b)),
                ],
            )
            .unwrap();
        }
        let live: Vec<FactId> = db.fact_ids().collect();
        db.delete(live[rng.random_range(0..live.len())]).unwrap();

        bank.refresh(&db, &bank_refs).unwrap();
        let recompiled = LineageBank::compile(&db, &bank_refs).unwrap();
        prop_assert_eq!(bank.witness_count(), recompiled.witness_count());

        let batch: Vec<BatchQuery<'_>> =
            evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
        let params = ApproximationParams::new(0.2, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::FixedSamples(64));
        for spec in all_specs() {
            let estimator = BatchEstimator::new(&db, &sigma, spec).unwrap();
            let refreshed = estimator
                .estimate_with_bank(
                    &bank,
                    &batch,
                    params,
                    &RunBudget::unlimited(),
                    None,
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
            let fresh = estimator
                .estimate_with_bank(
                    &recompiled,
                    &batch,
                    params,
                    &RunBudget::unlimited(),
                    None,
                    &mut StdRng::seed_from_u64(seed),
                )
                .unwrap();
            prop_assert_eq!(&refreshed, &fresh, "spec {}", spec.short_name());
        }
    }

    /// `AchievedBound::at` never reports a NaN, and guards its degenerate
    /// corners: the additive inversion is `+∞` exactly when no draws
    /// happened or `δ ∉ (0, 1)` (including NaN and infinite `δ`), and the
    /// relative inversion is `None` exactly when at most one success was
    /// observed or `δ` is degenerate.
    #[test]
    fn achieved_bounds_guard_their_degenerate_corners(
        samples in 0u64..100_000,
        successes in 0u64..100_000,
        delta_bits in 0u64..u64::MAX,
    ) {
        use uocqa::core::budget::AchievedBound;

        // Reinterpreting raw bits covers the whole f64 surface: NaNs,
        // infinities, subnormals, negatives and ordinary values alike.
        let delta = f64::from_bits(delta_bits);
        let successes = successes.min(samples);
        let bound = AchievedBound::at(samples, successes, delta);
        prop_assert!(!bound.additive_epsilon.is_nan());
        let degenerate_delta = !(delta > 0.0 && delta < 1.0);
        if samples == 0 || degenerate_delta {
            prop_assert_eq!(bound.additive_epsilon, f64::INFINITY);
        } else {
            // A subnormal δ can overflow `2/δ` to +∞, which honestly
            // reports an infinite (useless) bound — never a NaN and never
            // a non-positive one.
            prop_assert!(bound.additive_epsilon > 0.0);
        }
        match bound.relative_epsilon {
            None => prop_assert!(successes <= 1 || degenerate_delta),
            Some(eps) => {
                prop_assert!(successes > 1 && !degenerate_delta);
                prop_assert!(!eps.is_nan());
                prop_assert!(eps > 0.0);
            }
        }
    }
}

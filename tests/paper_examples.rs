//! Cross-crate integration tests reproducing the paper's worked examples
//! end to end through the facade crate.

use uocqa::core::counting;
use uocqa::core::exact::ExactSolver;
use uocqa::core::RunBudget;
use uocqa::db::{Database, FdSet, FunctionalDependency, Schema, Value};
use uocqa::numeric::Ratio;
use uocqa::query::{parser::parse_query, QueryEvaluator};
use uocqa::repair::{GeneratorSpec, OperationalSemantics, RepairingTree, TreeLimits};

/// Example 3.6 / Figure 1: `D = {f1, f2, f3}` with `Σ = {A→B, C→B}`.
fn running_example() -> (Database, FdSet) {
    let mut schema = Schema::new();
    schema.add_relation("R", &["A", "B", "C"]).unwrap();
    let mut db = Database::with_schema(schema);
    for (a, b, c) in [("a1", "b1", "c1"), ("a1", "b2", "c2"), ("a2", "b1", "c2")] {
        db.insert_values("R", [Value::str(a), Value::str(b), Value::str(c)])
            .unwrap();
    }
    let mut sigma = FdSet::new();
    sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
    sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["C"], &["B"]).unwrap());
    (db, sigma)
}

/// Figure 2: blocks of sizes 3, 1, 2 under a single primary key.
fn figure2() -> (Database, FdSet) {
    let mut schema = Schema::new();
    schema.add_relation("R", &["A1", "A2"]).unwrap();
    let mut db = Database::with_schema(schema);
    for (a, b) in [
        ("a1", "b1"),
        ("a1", "b2"),
        ("a1", "b3"),
        ("a2", "b1"),
        ("a3", "b1"),
        ("a3", "b2"),
    ] {
        db.insert_values("R", [Value::str(a), Value::str(b)])
            .unwrap();
    }
    let mut sigma = FdSet::new();
    sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A1"], &["A2"]).unwrap());
    (db, sigma)
}

#[test]
fn figure1_tree_and_all_three_generators() {
    let (db, sigma) = running_example();
    let tree = RepairingTree::build(&db, &sigma, false, TreeLimits::default()).unwrap();
    assert_eq!(tree.node_count(), 12);
    assert_eq!(tree.leaf_count(), 9);
    assert_eq!(tree.candidate_repairs().len(), 5);

    // Section 4, uniform sequences: every leaf has π = 1/9.
    let chain = GeneratorSpec::uniform_sequences()
        .build_chain(&db, &sigma, TreeLimits::default())
        .unwrap();
    for (_, p) in chain.leaf_distribution() {
        assert_eq!(p, Ratio::from_u64(1, 9));
    }

    // Section 4, uniform repairs: five reachable leaves with π = 1/5, and
    // ORep = {∅, {f1}, {f2}, {f3}, {f1,f3}} each with probability 1/5.
    let chain = GeneratorSpec::uniform_repairs()
        .build_chain(&db, &sigma, TreeLimits::default())
        .unwrap();
    assert_eq!(chain.reachable_leaves().len(), 5);
    let semantics = OperationalSemantics::from_chain(&chain);
    assert_eq!(semantics.repair_count(), 5);
    assert!(semantics
        .repairs()
        .iter()
        .all(|r| r.probability == Ratio::from_u64(1, 5)));
    let repair_sizes: Vec<usize> = {
        let mut sizes: Vec<usize> = semantics.repairs().iter().map(|r| r.repair.len()).collect();
        sizes.sort_unstable();
        sizes
    };
    assert_eq!(repair_sizes, vec![0, 1, 1, 1, 2]);

    // Section 4, uniform operations: root edges 1/5, depth-2 edges 1/3.
    let chain = GeneratorSpec::uniform_operations()
        .build_chain(&db, &sigma, TreeLimits::default())
        .unwrap();
    for &child in chain.tree().children(chain.tree().root()) {
        assert_eq!(chain.edge_probability(child), &Ratio::from_u64(1, 5));
    }
}

#[test]
fn figure2_counting_and_relative_frequencies() {
    let (db, sigma) = figure2();
    let sizes = counting::block_sizes(&db, &sigma, &db.all_facts()).unwrap();
    assert_eq!(counting::count_candidate_repairs(&sizes).to_u64(), Some(12));
    assert_eq!(
        counting::count_complete_sequences(&sizes).to_u64(),
        Some(99)
    );
    assert_eq!(
        counting::count_candidate_repairs_singleton(&sizes).to_u64(),
        Some(6)
    );

    let solver = ExactSolver::new(&db, &sigma);
    let query = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
    let evaluator = QueryEvaluator::new(query);
    let candidate = [Value::str("b1")];
    assert_eq!(
        solver.rrfreq(&evaluator, &candidate, false).unwrap(),
        Ratio::from_u64(1, 4)
    );
    assert_eq!(
        solver.srfreq(&evaluator, &candidate, false).unwrap(),
        Ratio::from_u64(24, 99)
    );
    assert_eq!(
        solver.rrfreq(&evaluator, &candidate, true).unwrap(),
        Ratio::from_u64(1, 3)
    );
}

#[test]
fn intro_example_emp_alice_tom() {
    // The introduction's data-integration example: Emp(1, Alice) and
    // Emp(1, Tom) violating the key on the first attribute.  Under every
    // uniform semantics, each of the three repairs {Alice}, {Tom}, ∅ is a
    // candidate; under uniform repairs each has probability 1/3.
    let mut schema = Schema::new();
    schema.add_relation("Emp", &["id", "name"]).unwrap();
    let mut db = Database::with_schema(schema);
    db.insert_values("Emp", [Value::int(1), Value::str("Alice")])
        .unwrap();
    db.insert_values("Emp", [Value::int(1), Value::str("Tom")])
        .unwrap();
    let mut sigma = FdSet::new();
    sigma.add(FunctionalDependency::from_names(db.schema(), "Emp", &["id"], &["name"]).unwrap());
    let solver = ExactSolver::new(&db, &sigma);
    let semantics = solver.semantics(GeneratorSpec::uniform_repairs()).unwrap();
    assert_eq!(semantics.repair_count(), 3);
    let query = parse_query(db.schema(), "Ans() :- Emp(1, 'Alice')").unwrap();
    let evaluator = QueryEvaluator::new(query);
    assert_eq!(
        semantics.entailment_probability(&db, &evaluator),
        Ratio::from_u64(1, 3)
    );
}

#[test]
fn running_example_multi_query_batch_golden_case() {
    // The running example (Figure 1) as a *multi-query* golden case: the
    // batched exact pass and the batched FPRAS answer a bank of three
    // queries from one traversal / one sampling loop.
    //
    // Under M^{uo,1} (singleton removals — the supported generator for
    // these non-key FDs, Theorem 7.5) the walk from D branches uniformly
    // over the removals of the conflicting facts, giving the repair
    // distribution {f1,f3} ↦ 1/3, {f2} ↦ 1/3, {f1} ↦ 1/6, {f3} ↦ 1/6.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uocqa::core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};

    let (db, sigma) = running_example();
    let texts_and_golden = [
        // Some surviving fact with B = b1 (f1 or f3): 1/3 + 1/6 + 1/6.
        ("Ans() :- R(x, 'b1', y)", Ratio::from_u64(2, 3)),
        // Some surviving fact with A = a1 (f1 or f2): 1/3 + 1/3 + 1/6.
        ("Ans() :- R('a1', x, y)", Ratio::from_u64(5, 6)),
        // Both a b1-fact and a b2-fact survive: no repair has both.
        ("Ans() :- R(x, 'b1', y), R(z, 'b2', w)", Ratio::zero()),
    ];
    let evaluators: Vec<QueryEvaluator> = texts_and_golden
        .iter()
        .map(|(t, _)| QueryEvaluator::new(parse_query(db.schema(), t).unwrap()))
        .collect();
    let refs: Vec<(&QueryEvaluator, &[Value])> =
        evaluators.iter().map(|e| (e, &[] as &[Value])).collect();
    let spec = GeneratorSpec::uniform_operations().with_singleton_only();

    // Exact, batched: one pass over ⟦D⟧ answers the whole bank.
    let exact = ExactSolver::new(&db, &sigma)
        .answer_probabilities(spec, &refs)
        .unwrap();
    for ((_, golden), exact) in texts_and_golden.iter().zip(&exact) {
        assert_eq!(exact, golden);
    }

    // Approximate, batched: one sampling loop, estimates within the
    // additive ε, and bit-identical to the single-query runs.
    let bank: Vec<BatchQuery<'_>> = evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
    let estimator = BatchEstimator::new(&db, &sigma, spec).unwrap();
    let params = ApproximationParams::new(0.05, 0.05)
        .unwrap()
        .with_mode(EstimatorMode::FixedAdditive);
    let estimates = estimator
        .estimate_batch_with_budget(
            &bank,
            params,
            &RunBudget::unlimited(),
            &mut StdRng::seed_from_u64(22),
        )
        .unwrap();
    for (i, ((_, golden), estimate)) in texts_and_golden.iter().zip(&estimates.queries).enumerate()
    {
        assert!(
            (estimate.estimate - golden.to_f64()).abs() <= 0.05,
            "query {i}: golden {} ≈ {:.4}, estimate {:.4}",
            golden,
            golden.to_f64(),
            estimate.estimate
        );
        let single = estimator
            .estimator()
            .estimate_with_budget(
                bank[i].evaluator,
                bank[i].candidate,
                params,
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(22),
            )
            .unwrap()
            .queries[0];
        assert_eq!(
            estimates.queries[i], single,
            "query {i} diverged from single-query run"
        );
    }
    // The impossible conjunction is estimated at exactly zero.
    assert_eq!(estimates.queries[2].successes, 0);
}

#[test]
fn proposition_d6_closed_form_matches_enumeration() {
    use uocqa::workload::proposition_d6_database;
    for n in 2..=6usize {
        let (db, sigma) = proposition_d6_database(n);
        let query = parse_query(db.schema(), "Ans() :- R(0, 0, 0)").unwrap();
        let evaluator = QueryEvaluator::new(query);
        let exact = ExactSolver::new(&db, &sigma)
            .answer_probability(GeneratorSpec::uniform_operations(), &evaluator, &[])
            .unwrap();
        let mut closed_form = Ratio::one();
        for p in 1..n as u64 {
            closed_form = &closed_form * &Ratio::from_u64(p, 2 * p + 1);
        }
        assert_eq!(exact, closed_form, "n = {n}");
        // Proposition D.6: 0 < P ≤ 1/2^{n−1}.
        assert!(!exact.is_zero());
        assert!(exact <= Ratio::from_u64(1, 1 << (n - 1)), "n = {n}");
    }
}

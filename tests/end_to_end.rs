//! End-to-end integration tests: workloads → samplers → FPRAS drivers,
//! validated against the exact solvers and the theorems' guarantees.

use rand::rngs::StdRng;
use rand::SeedableRng;

use uocqa::core::exact::ExactSolver;
use uocqa::core::fpras::{ApproximationParams, EstimatorMode, OcqaEstimator};
use uocqa::core::{CoreError, RunBudget};
use uocqa::db::ViolationSet;
use uocqa::query::QueryEvaluator;
use uocqa::repair::GeneratorSpec;
use uocqa::workload::queries::{block_join_query, block_lookup_query, fact_membership_query};
use uocqa::workload::{BlockWorkload, FdWorkload, MultiKeyWorkload};

#[test]
fn all_supported_fpras_combinations_agree_with_exact_on_a_small_instance() {
    // A block workload small enough for exact enumeration (3 blocks of 3).
    let (db, sigma) = BlockWorkload::uniform(3, 3, 5).generate();
    let (query, candidate) = block_lookup_query(&db, 1).unwrap();
    let evaluator = QueryEvaluator::new(query);
    let solver = ExactSolver::new(&db, &sigma);
    let params = ApproximationParams::new(0.05, 0.05).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    for spec in [
        GeneratorSpec::uniform_repairs(),
        GeneratorSpec::uniform_repairs().with_singleton_only(),
        GeneratorSpec::uniform_sequences(),
        GeneratorSpec::uniform_sequences().with_singleton_only(),
        GeneratorSpec::uniform_operations(),
        GeneratorSpec::uniform_operations().with_singleton_only(),
    ] {
        let exact = solver
            .answer_probability(spec, &evaluator, &candidate)
            .unwrap()
            .to_f64();
        let estimator = OcqaEstimator::new(&db, &sigma, spec).unwrap();
        let estimate = estimator
            .estimate_with_budget(
                &evaluator,
                &candidate,
                params,
                &RunBudget::unlimited(),
                &mut rng,
            )
            .unwrap()
            .queries[0];
        assert!(estimate.status.is_converged());
        let error = (estimate.estimate - exact).abs() / exact;
        assert!(
            error < 0.12,
            "{}: exact {exact:.4}, estimate {:.4}",
            spec.short_name(),
            estimate.estimate
        );
    }
}

#[test]
fn batched_estimates_match_exact_within_additive_epsilon() {
    // Accuracy of the batched FPRAS against exact repair counting: with
    // the paper's additive (ε, δ) sample-size bound (Hoeffding,
    // ln(2/δ)/(2ε²) samples) every per-query estimate of the bank must be
    // within ε of the exact probability.
    use uocqa::core::fpras::{BatchEstimator, BatchQuery};
    use uocqa::workload::queries::fact_membership_query_bank;

    let epsilon = 0.1;
    let params = ApproximationParams::new(epsilon, 0.05)
        .unwrap()
        .with_mode(EstimatorMode::FixedAdditive);

    // A primary-key block workload: every generator is supported.
    let (db, sigma) = BlockWorkload::uniform(3, 3, 5).generate();
    let queries = fact_membership_query_bank(&db, 4, 2).unwrap();
    let evaluators: Vec<QueryEvaluator> = queries.into_iter().map(QueryEvaluator::new).collect();
    let bank: Vec<BatchQuery<'_>> = evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
    let refs: Vec<(&QueryEvaluator, &[uocqa::db::Value])> =
        evaluators.iter().map(|e| (e, &[] as &[_])).collect();
    let solver = ExactSolver::new(&db, &sigma);
    for spec in [
        GeneratorSpec::uniform_repairs(),
        GeneratorSpec::uniform_repairs().with_singleton_only(),
        GeneratorSpec::uniform_sequences(),
        GeneratorSpec::uniform_sequences().with_singleton_only(),
        GeneratorSpec::uniform_operations(),
        GeneratorSpec::uniform_operations().with_singleton_only(),
    ] {
        let exact = solver.answer_probabilities(spec, &refs).unwrap();
        let estimator = BatchEstimator::new(&db, &sigma, spec).unwrap();
        let estimates = estimator
            .estimate_batch_with_budget(
                &bank,
                params,
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(31),
            )
            .unwrap();
        for (i, (estimate, exact)) in estimates.queries.iter().zip(&exact).enumerate() {
            assert!(
                (estimate.estimate - exact.to_f64()).abs() <= epsilon,
                "{}, query {i}: exact {:.4}, estimate {:.4}",
                spec.short_name(),
                exact.to_f64(),
                estimate.estimate
            );
        }
    }

    // A non-key FD workload: the singleton-operations generator.
    let (db, sigma) = FdWorkload::new(8, 3, 2, 3).generate();
    let queries = fact_membership_query_bank(&db, 4, 2).unwrap();
    let evaluators: Vec<QueryEvaluator> = queries.into_iter().map(QueryEvaluator::new).collect();
    let bank: Vec<BatchQuery<'_>> = evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
    let refs: Vec<(&QueryEvaluator, &[uocqa::db::Value])> =
        evaluators.iter().map(|e| (e, &[] as &[_])).collect();
    let spec = GeneratorSpec::uniform_operations().with_singleton_only();
    let exact = ExactSolver::new(&db, &sigma)
        .answer_probabilities(spec, &refs)
        .unwrap();
    let estimates = BatchEstimator::new(&db, &sigma, spec)
        .unwrap()
        .estimate_batch_with_budget(
            &bank,
            params,
            &RunBudget::unlimited(),
            &mut StdRng::seed_from_u64(8),
        )
        .unwrap();
    for (i, (estimate, exact)) in estimates.queries.iter().zip(&exact).enumerate() {
        assert!(
            (estimate.estimate - exact.to_f64()).abs() <= epsilon,
            "FD workload, query {i}: exact {:.4}, estimate {:.4}",
            exact.to_f64(),
            estimate.estimate
        );
    }
}

#[test]
fn multi_atom_queries_are_estimated_correctly() {
    let (db, sigma) = BlockWorkload::uniform(3, 2, 9).generate();
    let query = block_join_query(&db, 4).unwrap();
    let evaluator = QueryEvaluator::new(query);
    let solver = ExactSolver::new(&db, &sigma);
    let exact = solver
        .answer_probability(GeneratorSpec::uniform_repairs(), &evaluator, &[])
        .unwrap()
        .to_f64();
    let estimator = OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
    let params = ApproximationParams::new(0.05, 0.05).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let estimate = estimator
        .estimate_with_budget(&evaluator, &[], params, &RunBudget::unlimited(), &mut rng)
        .unwrap()
        .queries[0];
    if exact > 0.0 {
        assert!((estimate.estimate - exact).abs() / exact < 0.12);
    } else {
        assert_eq!(estimate.successes, 0);
    }
}

#[test]
fn keys_beyond_primary_keys_route_to_uniform_operations_only() {
    let (db, sigma) = MultiKeyWorkload::new(30, 6, 2).generate();
    assert!(sigma.is_keys(db.schema()) && !sigma.is_primary_keys(db.schema()));
    for unsupported in [
        GeneratorSpec::uniform_repairs(),
        GeneratorSpec::uniform_sequences(),
    ] {
        assert!(matches!(
            OcqaEstimator::new(&db, &sigma, unsupported).err(),
            Some(CoreError::Unsupported { .. })
        ));
    }
    let estimator = OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
    let query = fact_membership_query(&db, 7).unwrap();
    let evaluator = QueryEvaluator::new(query);
    let params = ApproximationParams::new(0.2, 0.1).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let estimate = estimator
        .estimate_with_budget(&evaluator, &[], params, &RunBudget::unlimited(), &mut rng)
        .unwrap()
        .queries[0];
    assert!(estimate.estimate > 0.0 && estimate.estimate <= 1.0);
}

#[test]
fn fd_instances_require_singleton_operations() {
    let (db, sigma) = FdWorkload::new(40, 6, 3, 13).generate();
    assert!(!sigma.is_keys(db.schema()));
    assert!(matches!(
        OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).err(),
        Some(CoreError::Unsupported { .. })
    ));
    let estimator = OcqaEstimator::new(
        &db,
        &sigma,
        GeneratorSpec::uniform_operations().with_singleton_only(),
    )
    .unwrap();
    let query = fact_membership_query(&db, 3).unwrap();
    let evaluator = QueryEvaluator::new(query);
    let params = ApproximationParams::new(0.15, 0.1).unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let estimate = estimator
        .estimate_with_budget(&evaluator, &[], params, &RunBudget::unlimited(), &mut rng)
        .unwrap()
        .queries[0];
    assert!(estimate.estimate > 0.0 && estimate.estimate <= 1.0);
    // Theorem 7.5 / Lemma D.8: the (non-zero) value respects the bound.
    let bound = estimator.theoretical_lower_bound(&evaluator).to_f64();
    assert!(estimate.estimate >= bound);
}

#[test]
fn fixed_sample_modes_scale_to_larger_workloads() {
    let (db, sigma) = BlockWorkload::uniform(100, 5, 21).generate();
    assert_eq!(db.len(), 500);
    let (query, candidate) = block_lookup_query(&db, 2).unwrap();
    let evaluator = QueryEvaluator::new(query);
    let estimator = OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
    let params = ApproximationParams::new(0.1, 0.1)
        .unwrap()
        .with_mode(EstimatorMode::FixedSamples(4_000));
    let mut rng = StdRng::seed_from_u64(23);
    let estimate = estimator
        .estimate_with_budget(
            &evaluator,
            &candidate,
            params,
            &RunBudget::unlimited(),
            &mut rng,
        )
        .unwrap()
        .queries[0];
    // Exact value for a block of size 5 under uniform repairs is 1/6.
    assert!((estimate.estimate - 1.0 / 6.0).abs() < 0.03);
    assert_eq!(estimate.samples, 4_000);
}

#[test]
fn sampled_repairs_from_every_sampler_are_consistent() {
    use uocqa::core::sample_operations::OperationWalkSampler;
    use uocqa::core::sample_repairs::RepairSampler;
    use uocqa::core::sample_sequences::SequenceSampler;

    let (db, sigma) = BlockWorkload::uniform(10, 4, 31).generate();
    let mut rng = StdRng::seed_from_u64(5);
    let repair_sampler = RepairSampler::new(&db, &sigma).unwrap();
    let sequence_sampler = SequenceSampler::new(&db, &sigma).unwrap();
    let walk = OperationWalkSampler::new(&db, &sigma);
    for _ in 0..25 {
        for repair in [
            repair_sampler.sample(&mut rng),
            repair_sampler.sample_singleton(&mut rng),
            sequence_sampler.sample_result(&mut rng),
            sequence_sampler.sample_result_singleton(&mut rng),
            walk.sample_result(&mut rng),
        ] {
            assert!(ViolationSet::compute(&db, &sigma, &repair).is_empty());
        }
    }
}

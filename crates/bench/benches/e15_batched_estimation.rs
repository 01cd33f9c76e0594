//! E15 — batched multi-query estimation vs. independent single-query
//! runs, on the multi-FD scaling workload.
//!
//! One iteration estimates a bank of `k` fact-membership queries with a
//! fixed per-query sample budget.  The batched path draws each
//! operational repair **once** and updates all per-query hit counters
//! against the shared [`ucqa_query::LineageBank`]; the independent
//! baseline runs `k` separate sampler loops (the pre-bank behaviour).
//! `BENCH_e15.json` (produced by the `e15_report` binary) records the
//! same comparison at larger sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

use ucqa_core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use ucqa_core::RunBudget;
use ucqa_query::QueryEvaluator;
use ucqa_repair::GeneratorSpec;
use ucqa_workload::{queries::fact_membership_query_bank, MultiFdWorkload};

fn bench_batched_estimation(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_batch");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    let spec = GeneratorSpec::uniform_operations().with_singleton_only();
    for facts in [1_000usize, 5_000] {
        let (db, sigma) = MultiFdWorkload::scaling(facts, 42).generate();
        let queries = fact_membership_query_bank(&db, 8, 5).expect("valid bank");
        let evaluators: Vec<QueryEvaluator> =
            queries.into_iter().map(QueryEvaluator::new).collect();
        let bank: Vec<BatchQuery<'_>> =
            evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
        let estimator = BatchEstimator::new(&db, &sigma, spec).expect("FDs with singleton ops");
        let samples = if facts <= 1_000 { 200 } else { 50 };
        let params = ApproximationParams::new(0.2, 0.1)
            .expect("valid parameters")
            .with_mode(EstimatorMode::FixedSamples(samples));

        group.bench_with_input(BenchmarkId::new("bank_of_8", facts), &facts, |b, _| {
            let mut rng = StdRng::seed_from_u64(15);
            b.iter(|| {
                estimator
                    .estimate_batch_with_budget(&bank, params, &RunBudget::unlimited(), &mut rng)
                    .expect("estimation succeeds")
            })
        });
        group.bench_with_input(BenchmarkId::new("independent_x8", facts), &facts, |b, _| {
            let mut rng = StdRng::seed_from_u64(15);
            b.iter(|| {
                bank.iter()
                    .map(|q| {
                        estimator
                            .estimator()
                            .estimate_with_budget(
                                q.evaluator,
                                q.candidate,
                                params,
                                &RunBudget::unlimited(),
                                &mut rng,
                            )
                            .expect("estimation succeeds")
                            .queries[0]
                    })
                    .collect::<Vec<_>>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batched_estimation);
criterion_main!(benches);

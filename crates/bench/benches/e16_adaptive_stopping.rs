//! E16 — the adaptive batched stopping rule vs. independent per-query
//! stopping-rule runs, on the multi-FD scaling workload.
//!
//! One iteration estimates a bank of `k` fact-membership queries under
//! per-query Dagum–Karp–Luby–Ross targets `Υ(ε, δ/k)`.  The batched path
//! drives **one** shared repair stream and retires queries as they
//! converge (the stream stops at the *maximum* per-query sample count);
//! the independent baseline pays the *sum*.  `BENCH_e16.json` (produced
//! by the `e16_report` binary) records the same comparison at larger
//! sizes, plus the skewed-bank retirement study.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

use ucqa_core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use ucqa_core::RunBudget;
use ucqa_query::QueryEvaluator;
use ucqa_repair::GeneratorSpec;
use ucqa_workload::{queries::fact_membership_query_bank, MultiFdWorkload};

fn bench_adaptive_stopping(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_adaptive");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    let spec = GeneratorSpec::uniform_operations().with_singleton_only();
    let bank_size = 8usize;
    {
        let facts = 1_000usize;
        let (db, sigma) = MultiFdWorkload::scaling(facts, 42).generate();
        let queries = fact_membership_query_bank(&db, bank_size, 5).expect("valid bank");
        let evaluators: Vec<QueryEvaluator> =
            queries.into_iter().map(QueryEvaluator::new).collect();
        let bank: Vec<BatchQuery<'_>> =
            evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
        let estimator = BatchEstimator::new(&db, &sigma, spec).expect("FDs with singleton ops");
        let (epsilon, delta) = (0.3, 0.2);
        let adaptive = ApproximationParams::new(epsilon, delta)
            .expect("valid parameters")
            .with_mode(EstimatorMode::OptimalStopping {
                max_samples: 100_000,
            });
        let per_query = ApproximationParams::new(epsilon, delta / bank_size as f64)
            .expect("valid parameters")
            .with_mode(EstimatorMode::OptimalStopping {
                max_samples: 100_000,
            });

        group.bench_with_input(
            BenchmarkId::new("batched_adaptive", facts),
            &facts,
            |b, _| {
                let mut rng = StdRng::seed_from_u64(16);
                b.iter(|| {
                    estimator
                        .estimate_stopping_batch_with_budget(
                            &bank,
                            adaptive,
                            &RunBudget::unlimited(),
                            &mut rng,
                        )
                        .expect("estimation succeeds")
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("independent_adaptive_x8", facts),
            &facts,
            |b, _| {
                let mut rng = StdRng::seed_from_u64(16);
                b.iter(|| {
                    bank.iter()
                        .map(|q| {
                            estimator
                                .estimator()
                                .estimate_with_budget(
                                    q.evaluator,
                                    q.candidate,
                                    per_query,
                                    &RunBudget::unlimited(),
                                    &mut rng,
                                )
                                .expect("estimation succeeds")
                                .queries[0]
                        })
                        .collect::<Vec<_>>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_adaptive_stopping);
criterion_main!(benches);

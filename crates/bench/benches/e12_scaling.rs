//! E12 — the exact-vs-approximate crossover: exact chain construction is
//! exponential in the database size while a single FPRAS run stays
//! polynomial.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

use ucqa_core::exact::ExactSolver;
use ucqa_core::fpras::{ApproximationParams, EstimatorMode, OcqaEstimator};
use ucqa_core::RunBudget;
use ucqa_query::QueryEvaluator;
use ucqa_repair::{GeneratorSpec, TreeLimits};
use ucqa_workload::{queries::block_lookup_query, BlockWorkload};

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_exact_vs_approximate");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));

    // Exact enumeration: only the smallest instances complete.
    for blocks in [2usize, 3, 4] {
        let (db, sigma) = BlockWorkload::uniform(blocks, 4, 21).generate();
        let (query, candidate) = block_lookup_query(&db, 5).expect("valid query");
        let evaluator = QueryEvaluator::new(query);
        group.bench_with_input(
            BenchmarkId::new("exact_rrfreq", db.len()),
            &db.len(),
            |b, _| {
                let solver = ExactSolver::new(&db, &sigma).with_limits(TreeLimits {
                    max_nodes: 5_000_000,
                });
                b.iter(|| {
                    black_box(
                        solver
                            .rrfreq(&evaluator, &candidate, false)
                            .expect("feasible"),
                    )
                })
            },
        );
    }

    // Approximate answering keeps scaling (fixed 2 000 samples so the
    // benchmark measures per-sample cost growth).
    for blocks in [8usize, 32, 128] {
        let (db, sigma) = BlockWorkload::uniform(blocks, 4, 23).generate();
        let (query, candidate) = block_lookup_query(&db, 5).expect("valid query");
        let evaluator = QueryEvaluator::new(query);
        let estimator = OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs())
            .expect("primary keys");
        let params = ApproximationParams::new(0.2, 0.1)
            .expect("valid parameters")
            .with_mode(EstimatorMode::FixedSamples(2_000));
        group.bench_with_input(
            BenchmarkId::new("approximate_rrfreq_2000_samples", db.len()),
            &db.len(),
            |b, _| {
                let mut rng = StdRng::seed_from_u64(12);
                b.iter(|| {
                    black_box(
                        estimator
                            .estimate_with_budget(
                                &evaluator,
                                &candidate,
                                params,
                                &RunBudget::unlimited(),
                                &mut rng,
                            )
                            .expect("estimation succeeds")
                            .queries[0],
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);

//! E6 — end-to-end FPRAS for uniform sequences (Theorem 6.1(2)) on
//! primary-key block workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

use ucqa_core::fpras::{ApproximationParams, OcqaEstimator};
use ucqa_core::RunBudget;
use ucqa_query::QueryEvaluator;
use ucqa_repair::GeneratorSpec;
use ucqa_workload::{queries::block_lookup_query, BlockWorkload};

fn bench_fpras_srfreq(c: &mut Criterion) {
    let mut group = c.benchmark_group("e06_fpras_uniform_sequences");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for blocks in [16usize, 64] {
        let (db, sigma) = BlockWorkload::uniform(blocks, 4, 13).generate();
        let (query, candidate) = block_lookup_query(&db, 5).expect("valid query");
        let evaluator = QueryEvaluator::new(query);
        let estimator = OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_sequences())
            .expect("primary keys");
        let params = ApproximationParams::new(0.2, 0.1).expect("valid parameters");
        group.bench_with_input(
            BenchmarkId::new("epsilon_0.2", db.len()),
            &db.len(),
            |b, _| {
                let mut rng = StdRng::seed_from_u64(6);
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

criterion_group!(benches, bench_fpras_srfreq);
criterion_main!(benches);

//! E8 — the singleton-operation walk and its FPRAS on FD workloads
//! (Theorem 7.5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

use ucqa_core::fpras::{ApproximationParams, OcqaEstimator};
use ucqa_core::sample_operations::OperationWalkSampler;
use ucqa_core::RunBudget;
use ucqa_query::QueryEvaluator;
use ucqa_repair::GeneratorSpec;
use ucqa_workload::{queries::fact_membership_query, FdWorkload};

fn bench_fd_singleton(c: &mut Criterion) {
    let mut group = c.benchmark_group("e08_fd_singleton_operations");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for facts in [25usize, 50, 100] {
        let (db, sigma) = FdWorkload::new(facts, facts / 5, 3, 19).generate();
        let walk = OperationWalkSampler::new(&db, &sigma).singleton_only();
        group.bench_with_input(BenchmarkId::new("walk_sample", facts), &facts, |b, _| {
            let mut rng = StdRng::seed_from_u64(9);
            b.iter(|| black_box(walk.sample_result(&mut rng)))
        });
    }
    for facts in [25usize, 50] {
        let (db, sigma) = FdWorkload::new(facts, facts / 5, 3, 19).generate();
        let query = fact_membership_query(&db, 1).expect("valid query");
        let evaluator = QueryEvaluator::new(query);
        let estimator = OcqaEstimator::new(
            &db,
            &sigma,
            GeneratorSpec::uniform_operations().with_singleton_only(),
        )
        .expect("FDs with singleton operations");
        let params = ApproximationParams::new(0.25, 0.1).expect("valid parameters");
        group.bench_with_input(
            BenchmarkId::new("fpras_epsilon_0.25", facts),
            &facts,
            |b, _| {
                let mut rng = StdRng::seed_from_u64(10);
                b.iter(|| {
                    black_box(
                        estimator
                            .estimate_with_budget(
                                &evaluator,
                                &[],
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

criterion_group!(benches, bench_fd_singleton);
criterion_main!(benches);

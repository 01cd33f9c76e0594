//! E13 — compiled lineage vs. backtracking evaluation of the per-sample
//! entailment check, on the e12-style scaling workload.
//!
//! The FPRAS hot loop asks "does this sampled repair entail the query?"
//! millions of times against one fixed database.  This bench isolates that
//! check: a pool of repairs is pre-sampled, then each iteration runs one
//! entailment check via (a) the compiled-lineage witness scan of a bank of
//! one (`LineageBank::evaluate_into`, the check every estimate runs) and
//! (b) the backtracking evaluator, at growing database sizes.  A third group
//! measures the end-to-end estimator throughput with the compiled pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

use ucqa_core::fpras::{ApproximationParams, EstimatorMode, OcqaEstimator};
use ucqa_core::sample_repairs::RepairSampler;
use ucqa_core::RunBudget;
use ucqa_db::FactSet;
use ucqa_query::{BankScratch, LineageBank, QueryEvaluator};
use ucqa_repair::GeneratorSpec;
use ucqa_workload::{queries::block_lookup_query, BlockWorkload};

/// Pre-samples a pool of repairs to check entailment against.
fn repair_pool(sampler: &RepairSampler, universe: usize, count: usize) -> Vec<FactSet> {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut pool = Vec::with_capacity(count);
    let mut buffer = FactSet::empty(universe);
    for _ in 0..count {
        sampler.sample_into(&mut rng, &mut buffer);
        pool.push(buffer.clone());
    }
    pool
}

fn bench_lineage_vs_backtracking(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_per_sample_check");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));

    for blocks in [25usize, 250, 1250] {
        let (db, sigma) = BlockWorkload::uniform(blocks, 4, 23).generate();
        let (query, candidate) = block_lookup_query(&db, 5).expect("valid query");
        let evaluator = QueryEvaluator::new(query);
        let lineage = LineageBank::compile(&db, &[(&evaluator, &candidate)]).expect("arity ok");
        assert!(!lineage.is_fallback(0), "under witness cap");
        let sampler = RepairSampler::new(&db, &sigma).expect("primary keys");
        let pool = repair_pool(&sampler, db.len(), 64);

        group.bench_with_input(BenchmarkId::new("lineage", db.len()), &db.len(), |b, _| {
            let mut index = 0usize;
            let mut scratch = BankScratch::new();
            let mut hits = [false];
            b.iter(|| {
                let repair = &pool[index % pool.len()];
                index += 1;
                lineage.evaluate_into(repair, &mut scratch, &mut hits);
                black_box(hits[0])
            })
        });
        group.bench_with_input(
            BenchmarkId::new("backtracking", db.len()),
            &db.len(),
            |b, _| {
                let mut index = 0usize;
                b.iter(|| {
                    let repair = &pool[index % pool.len()];
                    index += 1;
                    black_box(
                        evaluator
                            .has_answer(&db, repair, &candidate)
                            .expect("arity validated"),
                    )
                })
            },
        );
    }
    group.finish();

    // End-to-end estimator throughput with the compiled pipeline (fixed
    // 2 000 samples, so the per-sample cost growth is what is measured).
    let mut group = c.benchmark_group("e13_estimator_throughput");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for blocks in [25usize, 250, 1250] {
        let (db, sigma) = BlockWorkload::uniform(blocks, 4, 23).generate();
        let (query, candidate) = block_lookup_query(&db, 5).expect("valid query");
        let evaluator = QueryEvaluator::new(query);
        let estimator = OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs())
            .expect("primary keys");
        let params = ApproximationParams::new(0.2, 0.1)
            .expect("valid parameters")
            .with_mode(EstimatorMode::FixedSamples(2_000));
        group.bench_with_input(
            BenchmarkId::new("estimate_2000_samples", db.len()),
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

criterion_group!(benches, bench_lineage_vs_backtracking);
criterion_main!(benches);

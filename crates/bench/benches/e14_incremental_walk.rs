//! E14 — incremental conflict index vs. per-step violation rescan in the
//! uniform-operations walk, on the multi-FD scaling workload.
//!
//! One iteration is one full walk (a complete repairing sequence drawn
//! from the leaf distribution of `M^uo_Σ(D)`).  The index-backed walk
//! pays O(1) per step plus O(degree) per removed fact against the
//! precomputed [`ucqa_db::ConflictIndex`]; the rescan baseline recomputes
//! `V(D', Σ)` from scratch on every step (O(|D|) per step), which is the
//! pre-index behaviour.  `BENCH_e14.json` (produced by the `e14_report`
//! binary) records the same comparison at larger sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

use ucqa_bench::baselines::{rescan_walk_into, RescanScratch};
use ucqa_core::sample_operations::{OperationWalkSampler, WalkScratch};
use ucqa_db::FactSet;
use ucqa_workload::MultiFdWorkload;

fn bench_incremental_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_walk");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));

    for facts in [1_000usize, 5_000] {
        let (db, sigma) = MultiFdWorkload::scaling(facts, 42).generate();
        let sampler = OperationWalkSampler::new(&db, &sigma);
        group.bench_with_input(BenchmarkId::new("index", facts), &facts, |b, _| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut repair = FactSet::empty(db.len());
            let mut scratch = WalkScratch::new();
            b.iter(|| sampler.sample_result_into(&mut rng, &mut repair, &mut scratch))
        });
        // The rescan baseline is orders of magnitude slower; bench it only
        // at the smallest size to keep the suite fast.
        if facts <= 1_000 {
            group.bench_with_input(BenchmarkId::new("rescan", facts), &facts, |b, _| {
                let mut rng = StdRng::seed_from_u64(7);
                let mut repair = FactSet::empty(db.len());
                let mut scratch = RescanScratch::new();
                b.iter(|| rescan_walk_into(&db, &sigma, &mut rng, &mut repair, &mut scratch))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_incremental_walk);
criterion_main!(benches);

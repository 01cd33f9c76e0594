//! Produces `BENCH_e14.json`: uniform-operations walk throughput with the
//! precomputed incremental conflict index vs. the per-step violation
//! rescan baseline, on the multi-FD scaling workload.
//!
//! ```text
//! cargo run -p ucqa-bench --release --bin e14_report [-- [--smoke] [output.json]]
//! ```
//!
//! With `--smoke` a single tiny size is run with minimal walk budgets and
//! nothing is written to disk — the CI mode that keeps the hot path
//! exercised end-to-end without paying full measurement time.
//!
//! The JSON records, per database size: the conflict structure (violations,
//! conflicting facts, pair operations), the one-off index build time, and
//! the walks/second of the index-backed walk and of the rescan baseline
//! over identical sampler configurations (both realise the same leaf
//! distribution; the cross-checking tests assert it).

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ucqa_bench::baselines::{rescan_walk_into, RescanScratch};
use ucqa_bench::experiments::{emit_report, report_args, time_routine};
use ucqa_core::sample_operations::{OperationWalkSampler, WalkScratch};
use ucqa_db::FactSet;
use ucqa_workload::MultiFdWorkload;

fn main() {
    let (smoke, output) = report_args("BENCH_e14.json");

    // (facts, index walks, rescan walks): the rescan budget shrinks with
    // the database because each of its walks costs O(|D|) per step.
    let plan: &[(usize, u64, u64)] = if smoke {
        &[(300, 50, 10)]
    } else {
        &[(1_000, 2_000, 40), (5_000, 500, 8), (20_000, 200, 2)]
    };

    let mut sizes = String::new();
    for &(facts, index_walks, rescan_walks) in plan {
        let (db, sigma) = MultiFdWorkload::scaling(facts, 42).generate();

        let build_start = Instant::now();
        let sampler = OperationWalkSampler::new(&db, &sigma);
        let index_build_ms = build_start.elapsed().as_secs_f64() * 1e3;
        let index = sampler.conflict_index();
        let (violations, conflicting, pair_ops) = (
            index.violations().len(),
            index.conflicting_facts().len(),
            index.pairs().len(),
        );

        let mut rng = StdRng::seed_from_u64(7);
        let mut repair = FactSet::empty(db.len());
        let mut scratch = WalkScratch::new();
        let (_, index_wps) = time_routine(index_walks, || {
            sampler.sample_result_into(&mut rng, &mut repair, &mut scratch)
        });
        let mut rng = StdRng::seed_from_u64(7);
        let mut rescan_scratch = RescanScratch::new();
        let (_, rescan_wps) = time_routine(rescan_walks, || {
            rescan_walk_into(&db, &sigma, &mut rng, &mut repair, &mut rescan_scratch)
        });
        let speedup = index_wps / rescan_wps;

        let _ = write!(
            sizes,
            "{}    {{\"facts\": {facts}, \"violations\": {violations}, \
             \"conflicting_facts\": {conflicting}, \"pair_ops\": {pair_ops}, \
             \"index_build_ms\": {index_build_ms:.2}, \
             \"index_walks\": {index_walks}, \"index_walks_per_sec\": {index_wps:.1}, \
             \"rescan_walks\": {rescan_walks}, \"rescan_walks_per_sec\": {rescan_wps:.1}, \
             \"speedup\": {speedup:.1}}}",
            if sizes.is_empty() { "\n" } else { ",\n" },
        );
        eprintln!(
            "[e14] n = {facts}: index {index_wps:.1} walks/s, rescan {rescan_wps:.1} walks/s \
             ({speedup:.1}x), build {index_build_ms:.2} ms"
        );
    }

    let json = format!(
        "{{\n  \"experiment\": \"e14_incremental_walk\",\n  \
         \"workload\": \"MultiFdWorkload::scaling(facts, seed 42)\",\n  \
         \"walk\": \"OperationWalkSampler::sample_result_into (index) vs \
         baselines::rescan_walk_into (baseline), pair + singleton operations\",\n  \
         \"sizes\": [{sizes}\n  ]\n}}\n"
    );
    emit_report("e14", smoke, &output, &json);
}

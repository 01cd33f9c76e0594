//! Produces `BENCH_e13.json`: sample-throughput numbers for the compiled
//! lineage + reused-bitset sampling pipeline vs. the backtracking
//! evaluator, on the e12-style scaling workload.  The compiled check is
//! a bank of one's `LineageBank::evaluate_into` — the per-draw check
//! every estimate runs.
//!
//! ```text
//! cargo run -p ucqa-bench --release --bin e13_report [-- [--smoke] [output.json]]
//! ```
//!
//! The JSON records, per database size: the mean per-check time of the
//! compiled-lineage witness scan and of the backtracking homomorphism
//! search (over the same pre-sampled repair pool), the resulting speedup,
//! and the end-to-end estimator sample throughput on the repairs,
//! sequences and operations paths (all of which run the allocation-free
//! `sample_into` hot loop), plus the rayon-parallel throughput.

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ucqa_bench::experiments::{emit_report, report_args, time_routine};
use ucqa_core::fpras::{ApproximationParams, EstimatorMode, OcqaEstimator};
use ucqa_core::sample_repairs::RepairSampler;
use ucqa_core::RunBudget;
use ucqa_db::FactSet;
use ucqa_query::{BankScratch, LineageBank, QueryEvaluator};
use ucqa_repair::GeneratorSpec;
use ucqa_workload::{queries::block_lookup_query, BlockWorkload};

fn main() {
    let (smoke, output) = report_args("BENCH_e13.json");
    let mut sizes = String::new();

    let plan: &[usize] = if smoke { &[25] } else { &[25, 250, 1250] };
    for &blocks in plan {
        let (db, sigma) = BlockWorkload::uniform(blocks, 4, 23).generate();
        let n = db.len();
        let (query, candidate) = block_lookup_query(&db, 5).expect("valid query");
        let evaluator = QueryEvaluator::new(query);
        let lineage = LineageBank::compile(&db, &[(&evaluator, &candidate)]).expect("arity ok");
        assert!(!lineage.is_fallback(0), "under witness cap");

        // A fixed pool of sampled repairs, shared by both check paths.
        let sampler = RepairSampler::new(&db, &sigma).expect("primary keys");
        let mut rng = StdRng::seed_from_u64(4242);
        let mut buffer = FactSet::empty(n);
        let pool: Vec<FactSet> = (0..64)
            .map(|_| {
                sampler.sample_into(&mut rng, &mut buffer);
                buffer.clone()
            })
            .collect();

        let check_iters = 200_000u64;
        let mut index = 0usize;
        let mut scratch = BankScratch::new();
        let mut hits = [false];
        let (lineage_ns, _) = time_routine(check_iters, || {
            let repair = &pool[index % pool.len()];
            index += 1;
            lineage.evaluate_into(repair, &mut scratch, &mut hits);
            std::hint::black_box(hits[0]);
        });
        let mut index = 0usize;
        let backtracking_iters = if n >= 1000 { 20_000 } else { check_iters };
        let (backtracking_ns, _) = time_routine(backtracking_iters, || {
            let repair = &pool[index % pool.len()];
            index += 1;
            std::hint::black_box(
                evaluator
                    .has_answer(&db, repair, &candidate)
                    .expect("arity validated"),
            );
        });
        let speedup = backtracking_ns / lineage_ns;

        // End-to-end estimator throughput (samples/second) per generator.
        //
        // The repairs path scales to every size.  The sequences path is
        // capped at the smallest size because the Lemma C.1 DP table
        // *shape* is still O(blocks² · pairs) even in the log-space-only
        // construction the estimator now uses.  The operations walk runs
        // on the incremental conflict index (see BENCH_e14.json for its
        // dedicated scaling study); its budgets are kept from the rescan
        // era for comparability across report versions.
        let mut throughputs = String::new();
        let mut record = |name: &str, samples: u64, spec: Option<GeneratorSpec>| {
            let budget = ApproximationParams::new(0.2, 0.1)
                .expect("valid parameters")
                .with_mode(EstimatorMode::FixedSamples(samples));
            let (estimate, elapsed) = match spec {
                Some(spec) => {
                    let estimator =
                        OcqaEstimator::new(&db, &sigma, spec).expect("primary keys supported");
                    let mut rng = StdRng::seed_from_u64(12);
                    let start = Instant::now();
                    let estimate = estimator
                        .estimate_with_budget(
                            &evaluator,
                            &candidate,
                            budget,
                            &RunBudget::unlimited(),
                            &mut rng,
                        )
                        .expect("estimation succeeds")
                        .queries[0];
                    (estimate, start.elapsed().as_secs_f64())
                }
                None => {
                    // Parallel repairs path.
                    let estimator =
                        OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs())
                            .expect("primary keys");
                    let start = Instant::now();
                    let estimate = estimator
                        .estimate_parallel(&evaluator, &candidate, budget, 2024)
                        .expect("parallel estimation succeeds")
                        .queries[0];
                    (estimate, start.elapsed().as_secs_f64())
                }
            };
            let _ = write!(
                throughputs,
                "{}\"{name}\": {{\"samples\": {}, \"seconds\": {elapsed:.4}, \
                 \"samples_per_sec\": {:.0}}}",
                if throughputs.is_empty() { "" } else { ", " },
                estimate.samples,
                estimate.samples as f64 / elapsed.max(1e-9),
            );
        };
        record("repairs", 20_000, Some(GeneratorSpec::uniform_repairs()));
        record("repairs_parallel", 200_000, None);
        if blocks <= 25 {
            record(
                "sequences",
                20_000,
                Some(GeneratorSpec::uniform_sequences()),
            );
        }
        if blocks <= 250 {
            let walk_samples = if blocks <= 25 { 20_000 } else { 2_000 };
            record(
                "operations",
                walk_samples,
                Some(GeneratorSpec::uniform_operations()),
            );
        }

        let _ = write!(
            sizes,
            "{}    {{\"facts\": {n}, \"witnesses\": {}, \
             \"lineage_check_ns\": {lineage_ns:.1}, \
             \"backtracking_check_ns\": {backtracking_ns:.1}, \
             \"speedup\": {speedup:.1}, \"estimator_throughput\": {{{throughputs}}}}}",
            if sizes.is_empty() { "\n" } else { ",\n" },
            lineage.witness_count(),
        );
        eprintln!(
            "[e13] n = {n}: lineage {lineage_ns:.1} ns, backtracking {backtracking_ns:.1} ns \
             ({speedup:.1}x)"
        );
    }

    let json = format!(
        "{{\n  \"experiment\": \"e13_lineage_vs_backtracking\",\n  \
         \"workload\": \"BlockWorkload::uniform(blocks, 4, 23) + block_lookup_query(seed 5)\",\n  \
         \"check_pool\": 64,\n  \"sizes\": [{sizes}\n  ]\n}}\n"
    );
    emit_report("e13", smoke, &output, &json);
}

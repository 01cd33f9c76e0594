//! Produces `BENCH_e15.json`: batched multi-query FPRAS throughput — a
//! bank of `k` queries estimated from **one** shared uniform-operations
//! walk loop (`BatchEstimator` + `LineageBank`) vs. `k` independent
//! single-query estimator runs, on the multi-FD scaling workload.
//!
//! ```text
//! cargo run -p ucqa-bench --release --bin e15_report [-- [--smoke] [output.json]]
//! ```
//!
//! With `--smoke` a single tiny size is run with minimal sample budgets
//! and nothing is written to disk — the CI mode.
//!
//! The JSON records, per database size: the shared lineage-bank shape
//! (distinct arena witnesses vs. the sum of per-query witnesses), the
//! wall-clock seconds and query-samples/second of the batched run, of the
//! `k` independent runs, and of the rayon-parallel batched run, the
//! batched-vs-independent speedup, and whether the batched estimates were
//! bit-identical to the independent ones under the shared seed (they must
//! be — the property tests enforce it; the report records it as a
//! cross-check).

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ucqa_bench::experiments::{emit_report, report_args};
use ucqa_core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use ucqa_core::RunBudget;
use ucqa_query::QueryEvaluator;
use ucqa_repair::GeneratorSpec;
use ucqa_workload::{queries::fact_membership_query_bank, MultiFdWorkload};

const BANK_SIZE: usize = 8;

fn main() {
    let (smoke, output) = report_args("BENCH_e15.json");

    // (facts, samples per query): the budgets track the e14 walk
    // throughput so each configuration stays in the seconds range.
    let plan: &[(usize, u64)] = if smoke {
        &[(300, 50)]
    } else {
        &[(1_000, 2_000), (5_000, 400), (20_000, 80)]
    };
    let spec = GeneratorSpec::uniform_operations().with_singleton_only();

    let mut sizes = String::new();
    for &(facts, samples) in plan {
        let (db, sigma) = MultiFdWorkload::scaling(facts, 42).generate();
        let queries = fact_membership_query_bank(&db, BANK_SIZE, 5).expect("valid bank");
        let evaluators: Vec<QueryEvaluator> =
            queries.into_iter().map(QueryEvaluator::new).collect();
        let bank: Vec<BatchQuery<'_>> =
            evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
        let params = ApproximationParams::new(0.2, 0.1)
            .expect("valid parameters")
            .with_mode(EstimatorMode::FixedSamples(samples));

        let build_start = Instant::now();
        let estimator = BatchEstimator::new(&db, &sigma, spec).expect("FDs with singleton ops");
        let build_ms = build_start.elapsed().as_secs_f64() * 1e3;

        // Batched: one walk loop answers the whole bank per draw.
        let start = Instant::now();
        let batched = estimator
            .estimate_batch_with_budget(
                &bank,
                params,
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(15),
            )
            .expect("estimation succeeds");
        let batch_seconds = start.elapsed().as_secs_f64();

        // Independent baseline: k single-query loops over the same
        // estimator (sharing the prebuilt conflict index — the baseline is
        // only charged for what batching actually removes).
        let start = Instant::now();
        let independent: Vec<_> = bank
            .iter()
            .map(|q| {
                estimator
                    .estimator()
                    .estimate_with_budget(
                        q.evaluator,
                        q.candidate,
                        params,
                        &RunBudget::unlimited(),
                        &mut StdRng::seed_from_u64(15),
                    )
                    .expect("estimation succeeds")
                    .queries[0]
            })
            .collect();
        let independent_seconds = start.elapsed().as_secs_f64();
        let bit_identical = batched.queries == independent;

        // Rayon-parallel batched run (same sample count per query).
        let start = Instant::now();
        let _parallel = estimator
            .estimate_batch_parallel(&bank, params, 15)
            .expect("parallel estimation succeeds");
        let parallel_seconds = start.elapsed().as_secs_f64();

        let query_samples = (samples * BANK_SIZE as u64) as f64;
        let speedup = independent_seconds / batch_seconds.max(1e-9);
        let _ = write!(
            sizes,
            "{}    {{\"facts\": {facts}, \"samples_per_query\": {samples}, \
             \"build_ms\": {build_ms:.2}, \
             \"batch_seconds\": {batch_seconds:.4}, \
             \"batch_query_samples_per_sec\": {:.0}, \
             \"independent_seconds\": {independent_seconds:.4}, \
             \"independent_query_samples_per_sec\": {:.0}, \
             \"speedup\": {speedup:.1}, \
             \"parallel_batch_seconds\": {parallel_seconds:.4}, \
             \"parallel_batch_query_samples_per_sec\": {:.0}, \
             \"bit_identical\": {bit_identical}}}",
            if sizes.is_empty() { "\n" } else { ",\n" },
            query_samples / batch_seconds.max(1e-9),
            query_samples / independent_seconds.max(1e-9),
            query_samples / parallel_seconds.max(1e-9),
        );
        eprintln!(
            "[e15] n = {facts}: bank of {BANK_SIZE} in {batch_seconds:.2}s, independent \
             {independent_seconds:.2}s ({speedup:.1}x), parallel {parallel_seconds:.2}s, \
             bit-identical: {bit_identical}"
        );
        assert!(
            bit_identical,
            "batched estimates diverged from the independent runs"
        );
    }

    let json = format!(
        "{{\n  \"experiment\": \"e15_batched_multi_query\",\n  \
         \"workload\": \"MultiFdWorkload::scaling(facts, seed 42) + \
         fact_membership_query_bank(k = {BANK_SIZE}, seed 5)\",\n  \
         \"generator\": \"uniform operations, singleton removals (Theorem 7.5)\",\n  \
         \"bank_size\": {BANK_SIZE},\n  \"sizes\": [{sizes}\n  ]\n}}\n"
    );
    emit_report("e15", smoke, &output, &json);
}

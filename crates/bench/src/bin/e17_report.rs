//! Produces `BENCH_e17.json`: plan-based witness enumeration — bank
//! compilation through the shared scan trie (`LineageBank::compile`:
//! selectivity-ordered join plans over the database's relation indexes,
//! common atom prefixes factored and enumerated once) vs. the unplanned
//! baseline (`LineageBank::compile_unplanned`: one naive body-order
//! backtracking pass per entry, whole-relation scans) — plus the
//! end-to-end batched estimation cost (compile + shared sampling loop).
//!
//! ```text
//! cargo run -p ucqa-bench --release --bin e17_report [-- [--smoke] [output.json]]
//! ```
//!
//! With `--smoke` a single tiny size is run with minimal budgets and
//! nothing is written to disk — the CI mode.
//!
//! Workload: `MultiFdWorkload::scaling` instances at 1k/5k/20k facts with
//! `overlapping_join_bank` banks of 8 and 64 three-atom queries sharing a
//! two-atom prefix.  Every configuration asserts that the shared compile
//! produces the same witness arena shape and **bit-identical** batched
//! estimates as the unplanned baseline under a fixed seed.

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ucqa_bench::experiments::{emit_report, report_args, time_routine};
use ucqa_core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use ucqa_core::RunBudget;
use ucqa_query::{LineageBank, QueryEvaluator};
use ucqa_repair::GeneratorSpec;
use ucqa_workload::{queries::overlapping_join_bank, MultiFdWorkload};

const PREFIX_DEPTH: usize = 2;

fn main() {
    let (smoke, output) = report_args("BENCH_e17.json");
    let spec = GeneratorSpec::uniform_operations().with_singleton_only();

    // (facts, compile iters, estimation samples)
    let plan: &[(usize, u64, u64)] = if smoke {
        &[(300, 3, 500)]
    } else {
        &[(1_000, 20, 4_000), (5_000, 6, 1_000), (20_000, 2, 200)]
    };
    let bank_sizes: &[usize] = if smoke { &[8] } else { &[8, 64] };

    let mut rows = String::new();
    for &(facts, iters, samples) in plan {
        let (db, sigma) = MultiFdWorkload::scaling(facts, 42).generate();
        // Warm the relation index once per database so compile timings
        // measure compilation, not the one-off index build (which is
        // shared by every bank size at this fact count).
        let index_start = Instant::now();
        db.relation_index();
        let index_ms = index_start.elapsed().as_secs_f64() * 1e3;
        for &bank_size in bank_sizes {
            let queries =
                overlapping_join_bank(&db, bank_size, PREFIX_DEPTH, 7).expect("valid bank");
            let evaluators: Vec<QueryEvaluator> =
                queries.into_iter().map(QueryEvaluator::new).collect();
            let bank: Vec<BatchQuery<'_>> =
                evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
            let estimator = BatchEstimator::new(&db, &sigma, spec).expect("FDs with singleton ops");
            let refs: Vec<_> = bank.iter().map(|q| (q.evaluator, q.candidate)).collect();

            let (planned_ns, _) = time_routine(iters, || {
                drop(estimator.compile_bank(&bank).expect("compiles"))
            });
            let (unplanned_ns, _) = time_routine(iters, || {
                drop(LineageBank::compile_unplanned(&db, &refs).expect("compiles"))
            });
            let planned_ms = planned_ns / 1e6;
            let unplanned_ms = unplanned_ns / 1e6;
            let compile_speedup = unplanned_ns / planned_ns.max(1.0);

            // Result identity: same arena shape, same fallback flags,
            // bit-identical estimates under a fixed seed.
            let planned_bank = estimator.compile_bank(&bank).expect("compiles");
            let unplanned_bank = LineageBank::compile_unplanned(&db, &refs).expect("compiles");
            assert_eq!(planned_bank.witness_count(), unplanned_bank.witness_count());
            for entry in 0..bank.len() {
                assert_eq!(
                    planned_bank.query_witness_count(entry),
                    unplanned_bank.query_witness_count(entry),
                    "entry {entry}"
                );
            }
            let params = ApproximationParams::new(0.2, 0.1)
                .expect("valid parameters")
                .with_mode(EstimatorMode::FixedSamples(samples));
            let start = Instant::now();
            let planned_estimates = estimator
                .estimate_with_bank(
                    &planned_bank,
                    &bank,
                    params,
                    &RunBudget::unlimited(),
                    None,
                    &mut StdRng::seed_from_u64(17),
                )
                .expect("estimation succeeds");
            let estimate_seconds = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let unplanned_estimates = estimator
                .estimate_with_bank(
                    &unplanned_bank,
                    &bank,
                    params,
                    &RunBudget::unlimited(),
                    None,
                    &mut StdRng::seed_from_u64(17),
                )
                .expect("estimation succeeds");
            let unplanned_estimate_seconds = start.elapsed().as_secs_f64();
            let bit_identical = planned_estimates == unplanned_estimates;
            assert!(
                bit_identical,
                "shared-trie bank diverged from the unplanned baseline"
            );

            let planned_total = planned_ms / 1e3 + estimate_seconds;
            let unplanned_total = unplanned_ms / 1e3 + unplanned_estimate_seconds;
            let end_to_end_speedup = unplanned_total / planned_total.max(1e-9);
            let _ = write!(
                rows,
                "{}    {{\"facts\": {facts}, \"bank\": {bank_size}, \
                 \"relation_index_ms\": {index_ms:.2}, \
                 \"witnesses\": {}, \
                 \"compile_planned_ms\": {planned_ms:.2}, \
                 \"compile_unplanned_ms\": {unplanned_ms:.2}, \
                 \"compile_speedup\": {compile_speedup:.1}, \
                 \"estimate_samples\": {samples}, \
                 \"estimate_seconds\": {estimate_seconds:.4}, \
                 \"end_to_end_planned_seconds\": {planned_total:.4}, \
                 \"end_to_end_unplanned_seconds\": {unplanned_total:.4}, \
                 \"end_to_end_speedup\": {end_to_end_speedup:.2}, \
                 \"bit_identical_estimates\": {bit_identical}}}",
                if rows.is_empty() { "\n" } else { ",\n" },
                planned_bank.witness_count(),
            );
            eprintln!(
                "[e17] {facts} facts, bank {bank_size}: compile {planned_ms:.2} ms vs \
                 {unplanned_ms:.2} ms unplanned ({compile_speedup:.1}x), end-to-end \
                 {planned_total:.3}s vs {unplanned_total:.3}s ({end_to_end_speedup:.2}x), \
                 bit-identical: {bit_identical}"
            );
        }
    }

    let json = format!(
        "{{\n  \"experiment\": \"e17_plan_based_witness_enumeration\",\n  \
         \"generator\": \"uniform operations, singleton removals (Theorem 7.5)\",\n  \
         \"workload\": \"MultiFdWorkload::scaling(facts, seed 42) + \
         overlapping_join_bank(k, prefix_depth = {PREFIX_DEPTH}, seed 7)\",\n  \
         \"planned\": \"LineageBank::compile — greedy bound-coverage join plans over \
         RelationIndex postings, shared scan trie over common atom prefixes\",\n  \
         \"baseline\": \"LineageBank::compile_unplanned — one body-order backtracking \
         pass per entry, whole-relation scans\",\n  \
         \"sizes\": [{rows}\n  ]\n}}\n"
    );
    emit_report("e17", smoke, &output, &json);
}

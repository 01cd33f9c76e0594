//! Produces `BENCH_e18.json`: the cost and behaviour of the run-budget
//! machinery on the e16 adaptive batched stopping loop.
//!
//! ```text
//! cargo run -p ucqa-bench --release --bin e18_report [-- [--smoke] [output.json]]
//! ```
//!
//! With `--smoke` a single tiny size is run with minimal budgets and
//! nothing is written to disk — the CI mode.
//!
//! Three measurements over the e16 bank workload (multi-FD scaling
//! database, a bank of 8 fact-membership queries, one shared
//! uniform-operations walk stream):
//!
//! * **overhead** — the same adaptive run through
//!   `estimate_stopping_batch_with_budget` with `RunBudget::unlimited()`
//!   ("plain": every per-draw check short-circuits) and with an *armed*
//!   budget whose draw cap and cancel token are set but never reached.
//!   The armed loop polls both before every draw but consumes no
//!   randomness, so the outcomes must be bit-identical and the
//!   wall-clock overhead of the per-draw check is required to stay under
//!   2% (asserted on the full workload; best-of-`REPS` timing to shave
//!   scheduler noise).
//! * **truncation** — the same run under a draw cap at half the
//!   converged stream length: every surviving query reports its partial
//!   estimate with the achieved `(ε′, δ/k)` bound obtained by inverting
//!   the DKLR target at the actual draw count.
//! * **resume** — the capped run continued with the remaining budget;
//!   the concatenated outcome must be bit-identical to the uninterrupted
//!   one (asserted).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ucqa_bench::experiments::{emit_report, report_args};
use ucqa_core::budget::{BudgetStatus, CancelToken, RunBudget};
use ucqa_core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use ucqa_query::QueryEvaluator;
use ucqa_repair::GeneratorSpec;
use ucqa_workload::{queries::fact_membership_query_bank, MultiFdWorkload};

const BANK_SIZE: usize = 8;
const REPS: usize = 5;

fn main() {
    let (smoke, output) = report_args("BENCH_e18.json");
    let spec = GeneratorSpec::uniform_operations().with_singleton_only();

    let (facts, max_samples) = if smoke {
        (300usize, 20_000u64)
    } else {
        (2_000, 200_000)
    };
    let (epsilon, delta) = (0.2, 0.1);

    let (db, sigma) = MultiFdWorkload::scaling(facts, 42).generate();
    let queries = fact_membership_query_bank(&db, BANK_SIZE, 5).expect("valid bank");
    let evaluators: Vec<QueryEvaluator> = queries.into_iter().map(QueryEvaluator::new).collect();
    let bank: Vec<BatchQuery<'_>> = evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
    let params = ApproximationParams::new(epsilon, delta)
        .expect("valid parameters")
        .with_mode(EstimatorMode::OptimalStopping { max_samples });
    let estimator = BatchEstimator::new(&db, &sigma, spec).expect("FDs with singleton ops");
    let unlimited = RunBudget::unlimited();
    let armed = RunBudget::unlimited()
        .with_max_draws(u64::MAX)
        .with_cancel_token(CancelToken::new());

    // ---- overhead: unlimited vs armed-but-unconstrained budget ----
    // Best-of-REPS on both sides; the first armed run is also checked
    // bit-identical against the unlimited one.
    let mut plain_seconds = f64::INFINITY;
    let mut plain_outcome = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let outcome = estimator
            .estimate_stopping_batch_with_budget(
                &bank,
                params,
                &unlimited,
                &mut StdRng::seed_from_u64(18),
            )
            .expect("estimation succeeds");
        plain_seconds = plain_seconds.min(start.elapsed().as_secs_f64());
        plain_outcome.get_or_insert(outcome);
    }
    let plain_outcome = plain_outcome.expect("at least one rep ran");

    let mut budgeted_seconds = f64::INFINITY;
    let mut budgeted_outcome = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let outcome = estimator
            .estimate_stopping_batch_with_budget(
                &bank,
                params,
                &armed,
                &mut StdRng::seed_from_u64(18),
            )
            .expect("estimation succeeds");
        budgeted_seconds = budgeted_seconds.min(start.elapsed().as_secs_f64());
        budgeted_outcome.get_or_insert(outcome);
    }
    let budgeted_outcome = budgeted_outcome.expect("at least one rep ran");

    let bit_identical = plain_outcome == budgeted_outcome && plain_outcome.converged();
    let overhead_percent = (budgeted_seconds / plain_seconds.max(1e-12) - 1.0) * 100.0;
    let stream = plain_outcome.total_draws;
    eprintln!(
        "[e18] n = {facts}, bank {BANK_SIZE}: plain {plain_seconds:.4}s, \
         unconstrained-budget {budgeted_seconds:.4}s (overhead {overhead_percent:+.2}%), \
         stream {stream}, bit-identical: {bit_identical}"
    );
    assert!(
        bit_identical,
        "the armed budget diverged from the unlimited adaptive loop"
    );
    // Timing noise dominates at the smoke size (sub-100ms runs), so the
    // overhead ceiling is asserted on the full workload only.
    assert!(
        smoke || overhead_percent < 2.0,
        "budget-check overhead {overhead_percent:.2}% exceeds the 2% target"
    );

    // ---- truncation: a draw cap at half the converged stream ----
    let cap = (stream / 2).max(1);
    let capped_budget = RunBudget::unlimited().with_max_draws(cap);
    let mut rng = StdRng::seed_from_u64(18);
    let capped = estimator
        .estimate_stopping_batch_with_budget(&bank, params, &capped_budget, &mut rng)
        .expect("estimation succeeds");
    let converged_at_cap = capped
        .queries
        .iter()
        .filter(|q| q.status == BudgetStatus::Converged)
        .count();
    let worst_achieved = capped
        .queries
        .iter()
        .filter_map(|q| q.achieved.relative_epsilon)
        .fold(0.0f64, f64::max);
    eprintln!(
        "[e18] draw cap {cap}: {converged_at_cap}/{BANK_SIZE} queries converged, \
         worst achieved relative epsilon {worst_achieved:.4} (target {epsilon})"
    );

    // ---- resume: continue the capped run to convergence ----
    let compiled = estimator.compile_bank(&bank).expect("bank compiles");
    let resumed = estimator
        .estimate_with_bank(
            &compiled,
            &bank,
            params,
            &unlimited,
            Some(&capped),
            &mut rng,
        )
        .expect("resumption succeeds");
    let resume_bit_identical = resumed == plain_outcome;
    eprintln!("[e18] resume bit-identical to uninterrupted run: {resume_bit_identical}");
    assert!(
        resume_bit_identical,
        "resuming the capped run diverged from the uninterrupted stream"
    );

    let json = format!(
        "{{\n  \"experiment\": \"e18_budgeted_estimation\",\n  \
         \"generator\": \"uniform operations, singleton removals (Theorem 7.5)\",\n  \
         \"workload\": \"MultiFdWorkload::scaling({facts}, seed 42) + \
         fact_membership_query_bank(k = {BANK_SIZE}, seed 5)\",\n  \
         \"epsilon\": {epsilon}, \"delta\": {delta}, \"max_samples\": {max_samples},\n  \
         \"overhead\": {{\n    \"plain_seconds\": {plain_seconds:.4},\n    \
         \"unconstrained_budget_seconds\": {budgeted_seconds:.4},\n    \
         \"overhead_percent\": {overhead_percent:.2},\n    \
         \"stream_samples\": {stream},\n    \
         \"bit_identical\": {bit_identical},\n    \
         \"timing\": \"best of {REPS} repetitions\"\n  }},\n  \
         \"truncation\": {{\n    \"draw_cap\": {cap},\n    \
         \"converged_queries\": {converged_at_cap},\n    \
         \"worst_achieved_relative_epsilon\": {worst_achieved:.4}\n  }},\n  \
         \"resume\": {{\"bit_identical_to_uninterrupted\": {resume_bit_identical}}}\n}}\n"
    );
    emit_report("e18", smoke, &output, &json);
}

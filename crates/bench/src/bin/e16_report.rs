//! Produces `BENCH_e16.json`: the adaptive batched stopping rule — a bank
//! of queries estimated under per-query Dagum–Karp–Luby–Ross success
//! targets `Υ(ε, δ/k)` from **one** shared uniform-operations walk stream
//! (`BatchEstimator::estimate_stopping_batch_with_budget`), with queries *retiring*
//! as they converge — vs. `k` independent per-query stopping-rule runs
//! and vs. the batched fixed-sample loop.
//!
//! ```text
//! cargo run -p ucqa-bench --release --bin e16_report [-- [--smoke] [output.json]]
//! ```
//!
//! With `--smoke` a single tiny size is run with minimal budgets and
//! nothing is written to disk — the CI mode.
//!
//! Two workloads:
//!
//! * **bank** — the e15 multi-FD scaling workload with a bank of 8
//!   fact-membership queries.  The adaptive stream stops at the *maximum*
//!   per-query sample count instead of paying the *sum* like the
//!   independent baseline, so the batched-adaptive run should approach
//!   `k×` the baseline throughput; the sequential loop is bit-identical
//!   to the per-query runs under the shared seed (recorded as a
//!   cross-check).
//! * **skewed** — the star family of Proposition D.6: one rare query
//!   (the star centre survives with probability exactly `1/n`) pins the
//!   stream while a crowd of cheap leaf queries retires within a few
//!   hundred draws.  The JSON records the per-draw live-set shrink
//!   (query evaluations actually performed vs. the no-retirement
//!   `k · N_max`) and the wall-clock ratio against the batched
//!   fixed-sample loop forced to evaluate the full bank for the same
//!   stream length.

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ucqa_bench::experiments::{emit_report, report_args};
use ucqa_core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use ucqa_core::{QueryOutcome, RunBudget};
use ucqa_db::FactId;
use ucqa_query::{Atom, ConjunctiveQuery, QueryEvaluator, Term};
use ucqa_repair::GeneratorSpec;
use ucqa_workload::{
    proposition_d6_database, queries::fact_membership_query_bank, MultiFdWorkload,
};

const BANK_SIZE: usize = 8;

fn main() {
    let (smoke, output) = report_args("BENCH_e16.json");
    let spec = GeneratorSpec::uniform_operations().with_singleton_only();

    // ---- Part A: bank of 8 on the multi-FD scaling workload ----
    let plan: &[(usize, u64)] = if smoke {
        &[(300, 20_000)]
    } else {
        &[(1_000, 200_000), (5_000, 200_000)]
    };
    let (epsilon, delta) = (0.2, 0.1);

    let mut sizes = String::new();
    for &(facts, max_samples) in plan {
        let (db, sigma) = MultiFdWorkload::scaling(facts, 42).generate();
        let queries = fact_membership_query_bank(&db, BANK_SIZE, 5).expect("valid bank");
        let evaluators: Vec<QueryEvaluator> =
            queries.into_iter().map(QueryEvaluator::new).collect();
        let bank: Vec<BatchQuery<'_>> =
            evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
        let params = ApproximationParams::new(epsilon, delta)
            .expect("valid parameters")
            .with_mode(EstimatorMode::OptimalStopping { max_samples });

        let build_start = Instant::now();
        let estimator = BatchEstimator::new(&db, &sigma, spec).expect("FDs with singleton ops");
        let build_ms = build_start.elapsed().as_secs_f64() * 1e3;

        // Batched-adaptive: one shared stream, per-query targets
        // Υ(ε, δ/k), retirement as queries converge.
        let start = Instant::now();
        let adaptive = estimator
            .estimate_stopping_batch_with_budget(
                &bank,
                params,
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(16),
            )
            .expect("estimation succeeds");
        let adaptive_seconds = start.elapsed().as_secs_f64();
        let adaptive_stream = adaptive
            .queries
            .iter()
            .map(|e| e.samples)
            .max()
            .unwrap_or(0);
        let adaptive_draw_evals: u64 = adaptive.queries.iter().map(|e| e.samples).sum();

        // Per-query-adaptive baseline: k independent stopping-rule runs
        // with the same per-query guarantee (ε, δ/k), sharing the
        // prebuilt conflict index.  The sequential batched loop must be
        // bit-identical to these under the shared seed.
        let per_query_params = ApproximationParams::new(epsilon, delta / BANK_SIZE as f64)
            .expect("valid parameters")
            .with_mode(EstimatorMode::OptimalStopping { max_samples });
        let start = Instant::now();
        let independent: Vec<QueryOutcome> = bank
            .iter()
            .map(|q| {
                estimator
                    .estimator()
                    .estimate_with_budget(
                        q.evaluator,
                        q.candidate,
                        per_query_params,
                        &RunBudget::unlimited(),
                        &mut StdRng::seed_from_u64(16),
                    )
                    .expect("estimation succeeds")
                    .queries[0]
            })
            .collect();
        let independent_seconds = start.elapsed().as_secs_f64();
        let independent_draws: u64 = independent.iter().map(|e| e.samples).sum();
        let bit_identical = adaptive.queries == independent;

        // Batched-fixed baseline: the e15 loop forced to the adaptive
        // stream length, evaluating the full bank on every draw.
        let fixed_params = ApproximationParams::new(epsilon, delta)
            .expect("valid parameters")
            .with_mode(EstimatorMode::FixedSamples(adaptive_stream));
        let start = Instant::now();
        let _fixed = estimator
            .estimate_batch_with_budget(
                &bank,
                fixed_params,
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(16),
            )
            .expect("estimation succeeds");
        let fixed_seconds = start.elapsed().as_secs_f64();

        // Round-based parallel adaptive run (guarantee-preserving, not
        // bit-identical — retirement is round-granular).
        let start = Instant::now();
        let _rounds = estimator
            .estimate_batch_parallel(&bank, params, 16)
            .expect("parallel estimation succeeds");
        let rounds_seconds = start.elapsed().as_secs_f64();

        let speedup = independent_seconds / adaptive_seconds.max(1e-9);
        let truncated = adaptive
            .queries
            .iter()
            .filter(|e| !e.status.is_converged())
            .count();
        let _ = write!(
            sizes,
            "{}    {{\"facts\": {facts}, \"build_ms\": {build_ms:.2}, \
             \"adaptive_seconds\": {adaptive_seconds:.4}, \
             \"adaptive_stream_samples\": {adaptive_stream}, \
             \"adaptive_query_draw_evaluations\": {adaptive_draw_evals}, \
             \"independent_seconds\": {independent_seconds:.4}, \
             \"independent_total_samples\": {independent_draws}, \
             \"speedup_vs_independent\": {speedup:.1}, \
             \"fixed_same_stream_seconds\": {fixed_seconds:.4}, \
             \"rounds_parallel_seconds\": {rounds_seconds:.4}, \
             \"truncated_queries\": {truncated}, \
             \"bit_identical_to_per_query_runs\": {bit_identical}}}",
            if sizes.is_empty() { "\n" } else { ",\n" },
        );
        eprintln!(
            "[e16] bank n = {facts}: adaptive {adaptive_seconds:.2}s \
             (stream {adaptive_stream}), independent {independent_seconds:.2}s \
             ({independent_draws} draws, {speedup:.1}x), bit-identical: {bit_identical}"
        );
        assert!(
            bit_identical,
            "sequential batched-adaptive diverged from the per-query stopping runs"
        );
    }

    // ---- Part B: the skewed star workload ----
    // One rare query (the star centre, exact survival probability 1/n
    // under M^{uo,1}) pins the stream; the leaf queries retire early and
    // their witnesses leave the per-draw containment scan.
    let (star_n, leaf_queries, star_eps, star_max) = if smoke {
        (40usize, 8usize, 0.3, 50_000u64)
    } else {
        (400, 64, 0.3, 500_000)
    };
    let (db, sigma) = proposition_d6_database(star_n);
    let mut star_evals: Vec<QueryEvaluator> = Vec::new();
    for index in 0..=leaf_queries {
        // Fact 0 is the centre; facts 1.. are leaves.
        let fact = db.fact(FactId::new(index % db.len()));
        let terms = fact.values().iter().cloned().map(Term::Const).collect();
        let query = ConjunctiveQuery::boolean(db.schema(), vec![Atom::new(fact.relation(), terms)])
            .expect("valid atomic query");
        star_evals.push(QueryEvaluator::new(query));
    }
    let star_bank: Vec<BatchQuery<'_>> =
        star_evals.iter().map(|e| BatchQuery::new(e, &[])).collect();
    let k = star_bank.len();
    let params = ApproximationParams::new(star_eps, delta)
        .expect("valid parameters")
        .with_mode(EstimatorMode::OptimalStopping {
            max_samples: star_max,
        });
    let estimator = BatchEstimator::new(&db, &sigma, spec).expect("FDs with singleton ops");

    let start = Instant::now();
    let adaptive = estimator
        .estimate_stopping_batch_with_budget(
            &star_bank,
            params,
            &RunBudget::unlimited(),
            &mut StdRng::seed_from_u64(61),
        )
        .expect("estimation succeeds");
    let adaptive_seconds = start.elapsed().as_secs_f64();
    let stream = adaptive
        .queries
        .iter()
        .map(|e| e.samples)
        .max()
        .unwrap_or(0);
    let draw_evals: u64 = adaptive.queries.iter().map(|e| e.samples).sum();
    let no_retirement_evals = stream * k as u64;
    let eval_shrink = no_retirement_evals as f64 / draw_evals.max(1) as f64;
    let leaf_retirement: u64 = adaptive.queries[1..]
        .iter()
        .map(|e| e.samples)
        .max()
        .unwrap_or(0);

    // The no-retirement baseline: the fixed batched loop over the same
    // stream length evaluates all k queries on every draw.
    let fixed_params = ApproximationParams::new(star_eps, delta)
        .expect("valid parameters")
        .with_mode(EstimatorMode::FixedSamples(stream));
    let start = Instant::now();
    let _fixed = estimator
        .estimate_batch_with_budget(
            &star_bank,
            fixed_params,
            &RunBudget::unlimited(),
            &mut StdRng::seed_from_u64(61),
        )
        .expect("estimation succeeds");
    let fixed_seconds = start.elapsed().as_secs_f64();

    let rare = adaptive.queries[0];
    let rare_exact = 1.0 / star_n as f64;
    let rare_error = (rare.estimate - rare_exact).abs() / rare_exact;
    let wall_clock_shrink = fixed_seconds / adaptive_seconds.max(1e-9);
    eprintln!(
        "[e16] skewed star n = {star_n}, bank {k}: leaves retired by draw \
         {leaf_retirement}, stream {stream}; per-draw evaluations {draw_evals} vs \
         {no_retirement_evals} without retirement ({eval_shrink:.1}x); adaptive \
         {adaptive_seconds:.2}s vs fixed-full-bank {fixed_seconds:.2}s \
         ({wall_clock_shrink:.2}x); rare query {:.5} (exact {rare_exact:.5}, \
         rel err {rare_error:.3}, truncated: {})",
        rare.estimate,
        !rare.status.is_converged()
    );
    assert!(
        draw_evals < no_retirement_evals,
        "retirement did not shrink the per-draw work"
    );

    let json = format!(
        "{{\n  \"experiment\": \"e16_adaptive_batched_stopping\",\n  \
         \"generator\": \"uniform operations, singleton removals (Theorem 7.5)\",\n  \
         \"stopping_rule\": \"Dagum-Karp-Luby-Ross, per-query target Upsilon(eps, delta/k)\",\n  \
         \"bank\": {{\n    \"workload\": \"MultiFdWorkload::scaling(facts, seed 42) + \
         fact_membership_query_bank(k = {BANK_SIZE}, seed 5)\",\n    \
         \"epsilon\": {epsilon}, \"delta\": {delta},\n    \"sizes\": [{sizes}\n    ]\n  }},\n  \
         \"skewed\": {{\n    \"workload\": \"proposition_d6_database(n = {star_n}) star; \
         1 centre query (exact probability 1/n) + {leaf_queries} leaf queries\",\n    \
         \"epsilon\": {star_eps}, \"delta\": {delta}, \"max_samples\": {star_max},\n    \
         \"stream_samples\": {stream},\n    \"leaves_retired_by_draw\": {leaf_retirement},\n    \
         \"query_draw_evaluations\": {draw_evals},\n    \
         \"no_retirement_evaluations\": {no_retirement_evals},\n    \
         \"per_draw_evaluation_shrink\": {eval_shrink:.1},\n    \
         \"adaptive_seconds\": {adaptive_seconds:.4},\n    \
         \"fixed_full_bank_seconds\": {fixed_seconds:.4},\n    \
         \"wall_clock_shrink\": {wall_clock_shrink:.2},\n    \
         \"rare_query\": {{\"estimate\": {:.6}, \"exact\": {rare_exact:.6}, \
         \"relative_error\": {rare_error:.4}, \"samples\": {}, \"truncated\": {}}}\n  }}\n}}\n",
        rare.estimate,
        rare.samples,
        !rare.status.is_converged()
    );
    emit_report("e16", smoke, &output, &json);
}

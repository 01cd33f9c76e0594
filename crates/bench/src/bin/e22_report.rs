//! Produces `BENCH_e22.json`: cost-based join planning over live
//! statistics versus the coverage-greedy baseline, and subtree-shared
//! bank compilation, on a Zipf-skewed multi-join workload.
//!
//! ```text
//! cargo run -p ucqa-bench --release --bin e22_report [-- [--smoke] [output.json]]
//! ```
//!
//! With `--smoke` a single tiny configuration is run with minimal budgets
//! and nothing is written to disk — the CI mode.
//!
//! Workload: [`SkewedJoinWorkload`] — per relation one **hot** anchor
//! value holding ~half the facts and a tail of singleton anchors, sparse
//! non-key conflicts (`C → B`).  Three head-to-heads per size:
//!
//! * **planning** — a bank of hot-first two-atom joins
//!   ([`ucqa_workload::skew::hot_tail_join_queries`]) compiled under
//!   coverage-greedy plans (`QueryEvaluator::new`, which ties towards the
//!   written hot-first order and scans the hot posting) and under
//!   cost-based plans (`QueryEvaluator::with_stats`, which starts from
//!   the singleton tail posting).  At 20k+ facts the costed enumeration
//!   must be ≥ 2x faster.
//! * **bank compilation** — a bank of 64 queries sharing an expensive
//!   hot⋈hot prefix in written order and diverging in one cheap tail atom
//!   ([`ucqa_workload::skew::hot_suffix_bank`]).  Costed plans move the
//!   tail atom first, destroying prefix sharing; the common-subtree
//!   factoring of `LineageBank` must keep the costed pass count
//!   ([`ucqa_query::CompileStats::steps`]) within 1.3x of the structural prefix-trie
//!   pass count.
//! * **streaming** — a [`WindowedEstimator`] over the skewed schema:
//!   steady-state ticks (fresh singleton inserts) must trigger **zero**
//!   replans, one forced-skew tick (a posting run tripling) exactly one,
//!   and the replan must not disturb the converged-draw reuse path.
//!
//! Every size asserts, outside all timers, that the two planners produce
//! bit-identical witness sets, identical fallback flags, and identical
//! same-seed fixed-samples estimates.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ucqa_bench::experiments::{emit_report, report_args, time_routine};
use ucqa_core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use ucqa_core::{RunBudget, WindowSpec, WindowedEstimator};
use ucqa_db::{Database, Fact, FactId, FdSet, Value};
use ucqa_query::{CompileBudget, ConjunctiveQuery, LineageBank, QueryEvaluator};
use ucqa_repair::GeneratorSpec;
use ucqa_workload::skew::{hot_suffix_bank, hot_tail_join_queries, SkewedJoinWorkload};

const JOIN_QUERIES: usize = 8;
const BANK_SIZE: usize = 64;

/// Canonical per-entry witness sets of a bank (`None` = fallback entry).
fn canonical_witnesses(bank: &LineageBank) -> Vec<Option<BTreeSet<Vec<FactId>>>> {
    (0..bank.len())
        .map(|entry| {
            bank.witnesses_of(entry).map(|witnesses| {
                witnesses
                    .iter()
                    .map(|w| {
                        let mut ids: Vec<FactId> = w.iter().collect();
                        ids.sort_unstable();
                        ids
                    })
                    .collect()
            })
        })
        .collect()
}

/// Asserts the two planners agree on everything but cost: witness sets,
/// fallback flags, and same-seed fixed-samples estimates.
#[allow(clippy::too_many_arguments)]
fn assert_planners_agree(
    db: &Database,
    sigma: &FdSet,
    spec: GeneratorSpec,
    structural: &[QueryEvaluator],
    costed: &[QueryEvaluator],
    structural_bank: &LineageBank,
    costed_bank: &LineageBank,
    probe_samples: usize,
    label: &str,
) {
    assert_eq!(
        canonical_witnesses(structural_bank),
        canonical_witnesses(costed_bank),
        "{label}: witness sets diverged between planners"
    );
    for entry in 0..structural_bank.len() {
        assert_eq!(
            structural_bank.is_fallback(entry),
            costed_bank.is_fallback(entry),
            "{label}: fallback flag of entry {entry} diverged"
        );
    }
    let probe_params = ApproximationParams::new(0.2, 0.2)
        .expect("valid parameters")
        .with_mode(EstimatorMode::FixedSamples(probe_samples as u64));
    let estimator = BatchEstimator::new(db, sigma, spec)
        .expect("non-key FDs support singleton uniform operations");
    let probe = |bank: &LineageBank, evaluators: &[QueryEvaluator]| {
        let batch: Vec<BatchQuery<'_>> =
            evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
        estimator
            .estimate_with_bank(
                bank,
                &batch,
                probe_params,
                &RunBudget::unlimited(),
                None,
                &mut StdRng::seed_from_u64(17),
            )
            .expect("probe estimates")
    };
    assert_eq!(
        probe(structural_bank, structural),
        probe(costed_bank, costed),
        "{label}: same-seed estimates diverged between planners"
    );
}

/// The streaming leg: steady-state ticks keep the compiled plans, a
/// forced-skew tick replans exactly once, and the replan never disturbs
/// the converged-draw reuse path.  Returns `(steady_ticks, replans)`.
fn windowed_replan_study(facts: usize, max_samples: u64) -> (usize, u64) {
    let spec = GeneratorSpec::uniform_operations().with_singleton_only();
    // The scaling profile's conflict cliques (~20 facts per `C` value)
    // push answer probabilities below what the stopping rule can certify
    // cheaply; the drift study only needs *some* conflicts, so widen the
    // conflict domain to blocks of ~2 and keep the anchor skew.
    let workload = SkewedJoinWorkload::new(facts, 2, 50, facts.max(4), (facts / 4).max(1), 11);
    let (db, sigma) = workload.generate();
    let queries: Vec<(QueryEvaluator, Vec<Value>)> = hot_tail_join_queries(&db, 2, 7)
        .expect("well-formed queries")
        .into_iter()
        .map(|q| (QueryEvaluator::new(q), Vec::new()))
        .collect();
    let relations: Vec<_> = (0..2)
        .map(|r| db.schema().relation_id(&format!("R{r}")).expect("relation"))
        .collect();
    let mut w = WindowedEstimator::new(db, sigma, spec, WindowSpec::Unbounded, queries)
        .expect("non-key FDs support singleton uniform operations");
    let params = ApproximationParams::new(0.3, 0.2)
        .expect("valid parameters")
        .with_mode(EstimatorMode::OptimalStopping { max_samples });
    let budget = RunBudget::unlimited();
    let first = w
        .estimate(params, &budget, &mut StdRng::seed_from_u64(5))
        .expect("baseline pass");
    assert!(first.outcome.converged(), "baseline pass converges");

    // Steady state: fresh singleton values everywhere — no posting run
    // or cardinality moves past the 2x drift factor, no conflict forms,
    // no query atom matches.
    let mut next = (facts * 10) as i64;
    let fresh = |next: &mut i64, relation: usize| {
        *next += 4;
        Fact::new(
            relations[relation],
            vec![
                Value::int(*next),
                Value::int(*next + 1),
                Value::int(*next + 2),
                Value::int(*next + 3),
            ],
        )
    };
    let steady_ticks = 3;
    for tick in 0..steady_ticks {
        let inserts = vec![fresh(&mut next, 0), fresh(&mut next, 1)];
        w.tick(inserts, &[]).expect("steady tick");
        assert_eq!(
            w.replans(),
            0,
            "steady-state tick {tick} must keep the compiled plans"
        );
    }

    // Forced skew: three facts sharing one payload value triple that
    // column's longest posting run (1 → 3 > 2x) — exactly one replan.
    let burst: Vec<Fact> = (0..3)
        .map(|_| {
            next += 4;
            Fact::new(
                relations[0],
                vec![
                    Value::int(next),
                    Value::int(next + 1),
                    Value::int(next + 2),
                    Value::int(-7),
                ],
            )
        })
        .collect();
    w.tick(burst, &[]).expect("skew tick");
    assert_eq!(w.replans(), 1, "the forced-skew tick replans exactly once");

    // The replan only re-costed join order: no witness set moved, so the
    // whole bank still answers from the converged baseline at zero draws.
    let reuse = w
        .estimate(params, &budget, &mut StdRng::seed_from_u64(99))
        .expect("post-replan pass");
    assert_eq!(reuse.tick_draws, 0, "replanning must not break draw reuse");
    assert_eq!(reuse.outcome.queries, first.outcome.queries);

    // And the rebased snapshot absorbs the skew: the next steady tick
    // does not replan again.
    let insert = fresh(&mut next, 0);
    w.tick(vec![insert], &[]).expect("post-skew steady tick");
    assert_eq!(w.replans(), 1, "the drift snapshot rebases after a replan");
    (steady_ticks, w.replans())
}

fn main() {
    let (smoke, output) = report_args("BENCH_e22.json");
    let spec = GeneratorSpec::uniform_operations().with_singleton_only();

    let (sizes, compile_iters, probe_samples, windowed_facts, windowed_samples): (
        &[usize],
        u64,
        usize,
        usize,
        u64,
    ) = if smoke {
        (&[800], 5, 20, 200, 20_000)
    } else {
        (&[5_000, 20_000, 40_000], 30, 50, 400, 200_000)
    };

    let mut rows = String::new();
    for &facts in sizes {
        let workload = SkewedJoinWorkload::scaling(facts, 42);
        let (db, sigma) = workload.generate();

        // --- Planning head-to-head: hot-first joins, both planners. ---
        let join_queries = hot_tail_join_queries(&db, JOIN_QUERIES, 7).expect("join queries");
        let plan_both = |queries: &[ConjunctiveQuery],
                         costed: bool|
         -> (Vec<QueryEvaluator>, LineageBank, ucqa_query::CompileStats) {
            let evaluators: Vec<QueryEvaluator> = queries
                .iter()
                .map(|q| {
                    if costed {
                        QueryEvaluator::with_stats(q.clone(), &db).expect("costed plan builds")
                    } else {
                        QueryEvaluator::new(q.clone())
                    }
                })
                .collect();
            let refs: Vec<(&QueryEvaluator, &[Value])> =
                evaluators.iter().map(|e| (e, &[] as &[Value])).collect();
            let (bank, stats) = LineageBank::compile_instrumented(
                &db,
                &refs,
                ucqa_query::DEFAULT_WITNESS_CAP,
                &CompileBudget::unlimited(),
            )
            .expect("bank compiles");
            (evaluators, bank, stats)
        };
        let (structural, structural_bank, structural_stats) = plan_both(&join_queries, false);
        let (costed, costed_bank, costed_stats) = plan_both(&join_queries, true);
        assert_planners_agree(
            &db,
            &sigma,
            spec,
            &structural,
            &costed,
            &structural_bank,
            &costed_bank,
            probe_samples,
            &format!("{facts} facts, join bank"),
        );

        let time_compile = |evaluators: &[QueryEvaluator]| -> f64 {
            let refs: Vec<(&QueryEvaluator, &[Value])> =
                evaluators.iter().map(|e| (e, &[] as &[Value])).collect();
            let (ns, _) = time_routine(compile_iters, || {
                let bank = LineageBank::compile(&db, &refs).expect("bank compiles");
                std::hint::black_box(bank.len());
            });
            ns
        };
        let structural_ns = time_compile(&structural);
        let costed_ns = time_compile(&costed);
        let speedup = structural_ns / costed_ns.max(1e-9);

        // --- Bank compilation: shared written prefix vs costed suffix. ---
        let suffix_queries = hot_suffix_bank(&db, BANK_SIZE, 3).expect("suffix bank");
        let (bank_structural, bank_structural_lb, bank_structural_stats) =
            plan_both(&suffix_queries, false);
        let (bank_costed, bank_costed_lb, bank_costed_stats) = plan_both(&suffix_queries, true);
        for entry in 0..BANK_SIZE {
            assert!(
                !bank_structural_lb.is_fallback(entry),
                "{facts} facts: suffix-bank entry {entry} overflowed the witness cap"
            );
        }
        assert_planners_agree(
            &db,
            &sigma,
            spec,
            &bank_structural,
            &bank_costed,
            &bank_structural_lb,
            &bank_costed_lb,
            probe_samples,
            &format!("{facts} facts, suffix bank"),
        );
        // Costed plans put the distinct tail atom first, so without
        // subtree sharing every query would re-enumerate the hot join;
        // the factoring must keep the pass count within 1.3x of the
        // structural prefix trie.
        assert!(
            bank_costed_stats.shared_subtrees >= 1,
            "{facts} facts: the costed suffix bank shares no subtree"
        );
        assert!(
            bank_costed_stats.replays as usize >= BANK_SIZE,
            "{facts} facts: the shared hot suffix replayed only {} times",
            bank_costed_stats.replays
        );
        let pass_ratio = bank_costed_stats.steps as f64 / bank_structural_stats.steps.max(1) as f64;
        assert!(
            pass_ratio <= 1.3,
            "{facts} facts: costed bank compile pass count {} exceeds 1.3x \
             the prefix-trie pass count {}",
            bank_costed_stats.steps,
            bank_structural_stats.steps
        );

        if !smoke && facts >= 20_000 {
            assert!(
                speedup >= 2.0,
                "costed enumeration speedup {speedup:.2}x < 2x at {facts} facts"
            );
        }

        let _ = write!(
            rows,
            "{}    {{\"facts\": {facts}, \
             \"structural_compile_us\": {:.1}, \"costed_compile_us\": {:.1}, \
             \"speedup\": {speedup:.2}, \
             \"structural_steps\": {}, \"costed_steps\": {}, \
             \"bank_structural_steps\": {}, \"bank_costed_steps\": {}, \
             \"bank_pass_ratio\": {pass_ratio:.3}, \
             \"bank_shared_subtrees\": {}, \"bank_replays\": {}}}",
            if rows.is_empty() { "\n" } else { ",\n" },
            structural_ns / 1e3,
            costed_ns / 1e3,
            structural_stats.steps,
            costed_stats.steps,
            bank_structural_stats.steps,
            bank_costed_stats.steps,
            bank_costed_stats.shared_subtrees,
            bank_costed_stats.replays,
        );
        eprintln!(
            "[e22] {facts} facts: compile structural {:.1} us vs costed {:.1} us ({speedup:.2}x), \
             bank-{BANK_SIZE} passes {} vs {} ({pass_ratio:.3}x, {} shared subtrees)",
            structural_ns / 1e3,
            costed_ns / 1e3,
            bank_structural_stats.steps,
            bank_costed_stats.steps,
            bank_costed_stats.shared_subtrees,
        );
    }

    let (steady_ticks, replans) = windowed_replan_study(windowed_facts, windowed_samples);
    eprintln!(
        "[e22] windowed: {steady_ticks} steady ticks at zero replans, \
         forced skew replanned {replans} time(s), reuse path intact"
    );

    let json = format!(
        "{{\n  \"experiment\": \"e22_cost_based_planning\",\n  \
         \"generator\": \"uniform operations, singleton removals (Theorem 7.5)\",\n  \
         \"workload\": \"SkewedJoinWorkload::scaling (2 relations, one hot anchor per relation \
         at 50%, singleton tails, non-key FD C -> B), {JOIN_QUERIES} hot-first joins + \
         {BANK_SIZE}-query hot-suffix bank\",\n  \
         \"planning\": \"JoinPlan::build_costed (live RelationIndex stats: shortest bound \
         posting run, cardinality / distinct products) vs coverage-greedy written order\",\n  \
         \"bank_compilation\": \"scan-trie prefix sharing + canonical common-subtree factoring \
         (CompileStats pass counts)\",\n  \
         \"streaming\": \"WindowedEstimator drift-gated replanning (factor 2), {steady_ticks} \
         steady ticks at zero replans, forced skew replans {replans}, converged-draw reuse \
         preserved across the replan\",\n  \
         \"bit_identical\": \"witness sets, fallback flags and same-seed estimates asserted \
         equal between planners at every size\",\n  \
         \"sizes\": [{rows}\n  ]\n}}\n"
    );
    emit_report("e22", smoke, &output, &json);
}

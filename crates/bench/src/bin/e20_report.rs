//! Produces `BENCH_e20.json`: sustained estimation under churn — a mixed
//! insert/delete stream applied to a 20k-fact database, with the derived
//! structures (relation index, conflict index, compiled lineage bank)
//! maintained by the delta paths of the update layer and compared, every
//! round, against full rebuilds.
//!
//! ```text
//! cargo run -p ucqa-bench --release --bin e20_report [-- [--smoke] [output.json]]
//! ```
//!
//! With `--smoke` a single tiny configuration is run with minimal budgets
//! and nothing is written to disk — the CI mode.
//!
//! Workload: a sparse-conflict `MultiFdWorkload` (blocks of ~2 facts)
//! plus the `overlapping_join_bank` of e17/e19.  Each round applies one
//! `extend` batch of inserts (fresh payloads, the generator's attribute
//! distribution) and a set of deletes (uniformly chosen live facts), then
//! brings the derived state up to date twice:
//!
//! * **delta** — the relation index is patched in place by the mutations
//!   themselves; `ConflictIndex::refresh` and `LineageBank::refresh`
//!   replay the database changelog.
//! * **rebuild** — `RelationIndex::build`, `ConflictIndex::build` and
//!   `LineageBank::compile` from scratch, the cost the pre-delta code
//!   paid after every invalidation.
//!
//! Every round asserts the delta-maintained structures equal the rebuilt
//! ones, and that batched estimates over the refreshed bank (driven
//! through `BatchEstimator::with_conflict_index`, so the refreshed
//! conflict index backs the walk) are bit-identical to estimates over the
//! recompiled bank under the same seed.  When not `--smoke`, the summed
//! changelog-replay time must be ≥ 2x faster than the summed rebuilds
//! (the raw mutation cost, shared by both pipelines, is reported
//! alongside together with the ratio that charges it to the delta side).

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ucqa_bench::experiments::{emit_report, report_args};
use ucqa_core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use ucqa_core::RunBudget;
use ucqa_db::{ConflictIndex, Fact, FactId, RelationIndex, Value};
use ucqa_query::{BankQueryRef, LineageBank, QueryEvaluator};
use ucqa_repair::GeneratorSpec;
use ucqa_workload::{queries::overlapping_join_bank, MultiFdWorkload};

const PREFIX_DEPTH: usize = 2;
const BANK_SIZE: usize = 8;

fn main() {
    let (smoke, output) = report_args("BENCH_e20.json");
    let spec = GeneratorSpec::uniform_operations().with_singleton_only();

    // (facts, rounds, inserts/round, deletes/round, samples): enough
    // churn per round to exercise every delta path, small enough next to
    // the database that incrementality has something to win.
    let (facts, rounds, inserts_per_round, deletes_per_round, samples) = if smoke {
        (300, 3, 10, 10, 50)
    } else {
        (20_000, 12, 50, 50, 200)
    };

    // The scaling profile at 20k facts is conflict-saturated (|V| ≈ 6.7
    // per fact), which makes every pipeline |V|-bound; a lhs domain of
    // `facts / 4` keeps blocks small (~2 facts) so the conflict structure
    // stays sparse and the full violation rescan is what rebuild pays.
    let workload = MultiFdWorkload::new(facts, 2, (facts / 4).max(1), 3, 42);
    let (mut db, sigma) = workload.generate();
    let relation_ids: Vec<_> = (0..workload.relations)
        .map(|r| {
            db.schema()
                .relation_id(&format!("R{r}"))
                .expect("workload relation exists")
        })
        .collect();

    let queries = overlapping_join_bank(&db, BANK_SIZE, PREFIX_DEPTH, 7).expect("valid bank");
    let evaluators: Vec<QueryEvaluator> = queries.into_iter().map(QueryEvaluator::new).collect();
    let bank_queries: Vec<BankQueryRef<'_>> =
        evaluators.iter().map(|e| (e, &[] as &[Value])).collect();
    let batch: Vec<BatchQuery<'_>> = evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
    let params = ApproximationParams::new(0.2, 0.1)
        .expect("valid parameters")
        .with_mode(EstimatorMode::FixedSamples(samples));

    // The delta-maintained state, built once before the stream starts.
    let mut conflict = ConflictIndex::build(&db, &sigma);
    let mut bank = LineageBank::compile(&db, &bank_queries).expect("bank compiles");

    let mut rng = StdRng::seed_from_u64(5);
    let mut live: Vec<FactId> = db.fact_ids().collect();
    let mut next_payload = facts as i64;

    let mut mutate_seconds = 0.0;
    let mut delta_seconds = 0.0;
    let mut rebuild_seconds = 0.0;
    let mut estimate_seconds = 0.0;
    let mut rows = String::new();
    for round in 0..rounds {
        // Apply the round's mutations.  Inserts follow the generator's
        // attribute distribution with fresh payloads (so no insert is a
        // duplicate); deletes pick uniformly among live facts.  Both
        // pipelines read the same mutated database, so this cost (raw
        // column edits plus the in-place relation-index patch) is common
        // to the two and reported separately from the gate ratio.
        let mutate_start = Instant::now();
        let inserts: Vec<Fact> = (0..inserts_per_round)
            .map(|_| {
                let a = rng.random_range(0..workload.lhs_domain) as i64;
                let b = rng.random_range(0..workload.rhs_domain) as i64;
                let c = rng.random_range(0..workload.lhs_domain) as i64;
                let relation = relation_ids[next_payload as usize % relation_ids.len()];
                let fact = Fact::new(
                    relation,
                    vec![
                        Value::int(a),
                        Value::int(b),
                        Value::int(c),
                        Value::int(next_payload),
                    ],
                );
                next_payload += 1;
                fact
            })
            .collect();
        live.extend(db.extend(inserts).expect("schema matches"));
        for _ in 0..deletes_per_round {
            let victim = live.swap_remove(rng.random_range(0..live.len()));
            db.delete(victim).expect("victim is live");
        }
        let mutate_s = mutate_start.elapsed().as_secs_f64();
        mutate_seconds += mutate_s;

        // Delta pipeline: replay the changelog into the conflict index
        // and the compiled bank.
        let delta_start = Instant::now();
        let applied = conflict.refresh(&db, &sigma);
        let bank_applied = bank.refresh(&db, &bank_queries).expect("bank refreshes");
        let delta_s = delta_start.elapsed().as_secs_f64();
        delta_seconds += delta_s;
        assert_eq!(
            applied, bank_applied,
            "both refreshes replay the same changelog window"
        );

        // Rebuild pipeline: the pre-delta cost — every derived structure
        // from scratch.
        let rebuild_start = Instant::now();
        let rebuilt_relation = RelationIndex::build(&db);
        let rebuilt_conflict = ConflictIndex::build(&db, &sigma);
        let rebuilt_bank = LineageBank::compile(&db, &bank_queries).expect("bank compiles");
        let rebuild_s = rebuild_start.elapsed().as_secs_f64();
        rebuild_seconds += rebuild_s;

        // The delta-maintained structures must be indistinguishable from
        // the rebuilds.
        assert_eq!(
            *db.relation_index(),
            rebuilt_relation,
            "patched relation index diverged from a fresh build"
        );
        assert_eq!(
            conflict, rebuilt_conflict,
            "refreshed conflict index diverged from a fresh build"
        );
        assert_eq!(
            bank.witness_count(),
            rebuilt_bank.witness_count(),
            "refreshed bank witness arena diverged"
        );
        for entry in 0..bank_queries.len() {
            assert_eq!(
                bank.query_witness_count(entry),
                rebuilt_bank.query_witness_count(entry),
                "entry {entry}"
            );
            assert_eq!(
                bank.is_fallback(entry),
                rebuilt_bank.is_fallback(entry),
                "entry {entry}"
            );
        }

        // Estimates over the refreshed state are bit-identical to
        // estimates over the rebuilt state under the same seed — the
        // refreshed conflict index backs the delta walk.
        let estimate_start = Instant::now();
        let delta_estimator =
            BatchEstimator::with_conflict_index(&db, &sigma, spec, conflict.clone())
                .expect("FDs with singleton ops");
        let delta_estimates = delta_estimator
            .estimate_with_bank(
                &bank,
                &batch,
                params,
                &RunBudget::unlimited(),
                None,
                &mut StdRng::seed_from_u64(17),
            )
            .expect("estimation succeeds");
        let estimate_s = estimate_start.elapsed().as_secs_f64();
        estimate_seconds += estimate_s;
        let rebuilt_estimator =
            BatchEstimator::new(&db, &sigma, spec).expect("FDs with singleton ops");
        let rebuilt_estimates = rebuilt_estimator
            .estimate_with_bank(
                &rebuilt_bank,
                &batch,
                params,
                &RunBudget::unlimited(),
                None,
                &mut StdRng::seed_from_u64(17),
            )
            .expect("estimation succeeds");
        assert_eq!(
            delta_estimates, rebuilt_estimates,
            "refreshed-state estimates diverged from the rebuilt baseline"
        );

        let _ = write!(
            rows,
            "{}    {{\"round\": {round}, \"live_facts\": {}, \"mutate_ms\": {:.3}, \
             \"delta_ms\": {:.3}, \"rebuild_ms\": {:.3}, \"estimate_ms\": {:.3}, \
             \"witnesses\": {}}}",
            if rows.is_empty() { "\n" } else { ",\n" },
            live.len(),
            mutate_s * 1e3,
            delta_s * 1e3,
            rebuild_s * 1e3,
            estimate_s * 1e3,
            bank.witness_count(),
        );
        eprintln!(
            "[e20] round {round}: mutate {:.2} ms, delta {:.2} ms, rebuild {:.2} ms, \
             estimate {:.2} ms",
            mutate_s * 1e3,
            delta_s * 1e3,
            rebuild_s * 1e3,
            estimate_s * 1e3,
        );
    }

    // The acceptance gate: bringing the derived structures up to date by
    // changelog replay beats rebuild-everything by ≥ 2x over the whole
    // stream.  (The mutations themselves are common to both pipelines —
    // they share the database — and are reported separately; the ratio
    // with them charged entirely to the delta side is also emitted.)
    let speedup = rebuild_seconds / delta_seconds.max(1e-9);
    let speedup_with_mutation = rebuild_seconds / (mutate_seconds + delta_seconds).max(1e-9);
    if !smoke {
        assert!(
            speedup >= 2.0,
            "delta maintenance speedup {speedup:.2}x < 2x at {facts} facts"
        );
    }
    let estimates_per_sec = (rounds * BANK_SIZE) as f64 / estimate_seconds.max(1e-9);

    let json = format!(
        "{{\n  \"experiment\": \"e20_churn_maintenance\",\n  \
         \"generator\": \"uniform operations, singleton removals (Theorem 7.5)\",\n  \
         \"workload\": \"MultiFdWorkload({facts} facts, 2 relations, lhs domain {facts}/4, seed 42) + \
         overlapping_join_bank({BANK_SIZE}, prefix_depth = {PREFIX_DEPTH}, seed 7), \
         {rounds} rounds x {inserts_per_round} inserts + {deletes_per_round} deletes\",\n  \
         \"delta_pipeline\": \"in-place relation-index patching + ConflictIndex::refresh + \
         LineageBank::refresh over the database changelog\",\n  \
         \"rebuild_pipeline\": \"RelationIndex::build + ConflictIndex::build + \
         LineageBank::compile from scratch each round\",\n  \
         \"mutate_seconds\": {mutate_seconds:.4},\n  \
         \"delta_refresh_seconds\": {delta_seconds:.4},\n  \
         \"rebuild_seconds\": {rebuild_seconds:.4},\n  \
         \"maintenance_speedup\": {speedup:.2},\n  \
         \"maintenance_speedup_including_mutation\": {speedup_with_mutation:.2},\n  \
         \"estimate_samples\": {samples},\n  \
         \"batch_estimates_per_sec\": {estimates_per_sec:.1},\n  \
         \"bit_identical_estimates\": true,\n  \
         \"rounds\": [{rows}\n  ]\n}}\n"
    );
    emit_report("e20", smoke, &output, &json);
}

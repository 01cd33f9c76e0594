//! Produces `BENCH_e21.json`: sliding-window continuous estimation with
//! converged-draw reuse — a 20k-fact count-bounded window under per-tick
//! insert/retract/expiry churn, answered by the `WindowedEstimator`
//! pipeline and compared, every tick, against rebuilding the window from
//! scratch and re-estimating the whole bank from draw zero.
//!
//! ```text
//! cargo run -p ucqa-bench --release --bin e21_report [-- [--smoke] [output.json]]
//! ```
//!
//! With `--smoke` a single tiny configuration is run with minimal budgets
//! and nothing is written to disk — the CI mode.
//!
//! Workload: a `StreamWorkload` over `R(K, V)` (primary key `K → V`,
//! blocks of ~2 facts) sliding through `WindowSpec::Count`, with a bank
//! of block and membership queries pinned to keys that stay in the
//! window.  Each tick the two pipelines answer the same bank:
//!
//! * **windowed** — `WindowedEstimator::tick` (changelog replay into the
//!   maintained conflict index and bank) + `estimate` (entries with an
//!   unchanged fingerprint — witness set *and* conflict-component
//!   context — reuse their converged outcome verbatim at zero draws;
//!   only changed entries re-enter the stopping loop).
//! * **scratch** — a fresh `Database` holding exactly the live window,
//!   `ConflictIndex::build`, `LineageBank::compile`, and a full
//!   stopping-rule pass over every entry.
//!
//! Every tick asserts (outside the timers) that the windowed state is
//! bit-identical to the scratch rebuild — conflict pairs and bank
//! witness sets under the live-id remap, plus a same-seed fixed-samples
//! estimate probe over both states — and that a tick which changed no
//! entry fingerprint was answered from reuse alone at **zero draws**.
//! When not `--smoke`, the windowed pipeline must sustain ≥ 2x the
//! estimates/sec of rebuild-and-re-estimate.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ucqa_bench::experiments::{emit_report, report_args};
use ucqa_core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use ucqa_core::{RunBudget, WindowSpec, WindowedEstimator};
use ucqa_db::{ConflictIndex, Database, FactId, Value};
use ucqa_query::{LineageBank, QueryEvaluator};
use ucqa_repair::GeneratorSpec;
use ucqa_workload::StreamWorkload;

const BANK_SIZE: usize = 8;

fn parse_bank(db: &Database, texts: &[String]) -> Vec<QueryEvaluator> {
    texts
        .iter()
        .map(|t| {
            QueryEvaluator::new(
                ucqa_query::parser::parse_query(db.schema(), t).expect("valid query"),
            )
        })
        .collect()
}

/// Rebuilds a fresh database holding exactly the live window, plus the
/// scratch-position → windowed-id map (ascending, so the remap below is
/// a binary search).
fn rebuild_window(db: &Database) -> (Database, Vec<FactId>) {
    let mut scratch = Database::with_schema(db.schema().clone());
    let mut map = Vec::with_capacity(db.live_count());
    for (id, fact) in db.iter() {
        scratch.insert(fact).expect("schema matches");
        map.push(id);
    }
    (scratch, map)
}

fn remap(map: &[FactId], id: FactId) -> FactId {
    FactId::new(map.binary_search(&id).expect("live id"))
}

/// Asserts the windowed conflict index and bank equal, under the id
/// remap, the structures built from scratch over the rebuilt window.
fn assert_window_matches_scratch(
    w: &WindowedEstimator,
    scratch_conflict: &ConflictIndex,
    scratch_bank: &LineageBank,
    map: &[FactId],
    tick: usize,
) {
    let windowed_pairs: BTreeSet<(FactId, FactId)> = w
        .conflict_index()
        .pairs()
        .iter()
        .map(|&(a, b)| {
            let (a, b) = (remap(map, a), remap(map, b));
            (a.min(b), a.max(b))
        })
        .collect();
    let scratch_pairs: BTreeSet<(FactId, FactId)> = scratch_conflict
        .pairs()
        .iter()
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .collect();
    assert_eq!(
        windowed_pairs, scratch_pairs,
        "tick {tick}: conflict pairs diverged"
    );

    assert_eq!(w.bank().len(), scratch_bank.len());
    for entry in 0..w.bank().len() {
        let canonical = |bank: &LineageBank, remap_ids: bool| -> Option<BTreeSet<Vec<FactId>>> {
            bank.witnesses_of(entry).map(|witnesses| {
                witnesses
                    .iter()
                    .map(|wit| {
                        let mut ids: Vec<FactId> = if remap_ids {
                            wit.iter().map(|id| remap(map, id)).collect()
                        } else {
                            wit.iter().collect()
                        };
                        ids.sort_unstable();
                        ids
                    })
                    .collect()
            })
        };
        assert_eq!(
            canonical(w.bank(), true),
            canonical(scratch_bank, false),
            "tick {tick}: witness sets of entry {entry} diverged"
        );
    }
}

fn main() {
    let (smoke, output) = report_args("BENCH_e21.json");
    let spec = GeneratorSpec::uniform_operations().with_singleton_only();

    // (facts, ticks, inserts/tick, retracts/tick, max_samples, probe):
    // the window holds `facts` live facts; each tick inserts more than it
    // retracts so the count window also expires the oldest facts.
    let (facts, ticks, inserts_per_tick, retracts_per_tick, max_samples, probe_samples) = if smoke {
        (300, 3, 10, 5, 5_000, 20)
    } else {
        (20_000, 12, 50, 25, 50_000, 50)
    };

    let mut workload = StreamWorkload::new(
        (facts / 2).max(4),
        inserts_per_tick,
        retracts_per_tick,
        0.3,
        42,
    );
    let (mut db, sigma) = workload.initial(facts);

    // The query bank: block queries and membership queries pinned to the
    // keys of the *last* initial facts (they expire last, so the queried
    // blocks stay populated — and their answer probabilities stay
    // positive — through the whole stream).
    let live: Vec<FactId> = db.fact_ids().collect();
    let mut texts: Vec<String> = Vec::new();
    let mut queried_keys: BTreeSet<Value> = BTreeSet::new();
    for &id in live.iter().rev() {
        let fact = db.fact(id);
        let (key, value) = (fact.values()[0].clone(), fact.values()[1].clone());
        if !queried_keys.insert(key.clone()) {
            continue;
        }
        if texts.len() < BANK_SIZE / 2 {
            texts.push(format!("Ans() :- R({key}, x)"));
        } else {
            texts.push(format!("Ans() :- R({key}, {value})"));
        }
        if texts.len() == BANK_SIZE {
            break;
        }
    }
    queried_keys.retain(|key| {
        texts
            .iter()
            .any(|t| t.starts_with(&format!("Ans() :- R({key},")))
    });
    assert_eq!(texts.len(), BANK_SIZE, "enough distinct keys in the window");
    // Anchor each queried block with one extra fact inserted last, so
    // random retraction cannot empty a queried block mid-stream.
    let mut block_keys: Vec<Value> = Vec::new();
    for text in &texts[..BANK_SIZE / 2] {
        let key: i64 = text
            .trim_start_matches("Ans() :- R(")
            .split(',')
            .next()
            .expect("block query text")
            .parse()
            .expect("integer key");
        block_keys.push(Value::int(key));
        db.insert_values("R", [Value::int(key), Value::int(-1 - key)])
            .expect("schema matches");
    }

    let windowed_queries: Vec<(QueryEvaluator, Vec<Value>)> = parse_bank(&db, &texts)
        .into_iter()
        .map(|e| (e, Vec::new()))
        .collect();
    let evaluators = parse_bank(&db, &texts);
    let refs: Vec<(&QueryEvaluator, &[Value])> =
        evaluators.iter().map(|e| (e, &[] as &[Value])).collect();
    let batch: Vec<BatchQuery<'_>> = evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();

    let params = ApproximationParams::new(0.25, 0.2)
        .expect("valid parameters")
        .with_mode(EstimatorMode::OptimalStopping { max_samples });
    let probe_params = ApproximationParams::new(0.2, 0.2)
        .expect("valid parameters")
        .with_mode(EstimatorMode::FixedSamples(probe_samples));
    let budget = RunBudget::unlimited();

    let window = WindowSpec::Count(facts);
    let mut w = WindowedEstimator::new(db, sigma.clone(), spec, window, windowed_queries)
        .expect("primary key supports every generator");

    // Warm-up: the windowed pipeline's one-time full pass that seeds the
    // reuse baseline (the scratch pipeline pays this every tick).
    let warmup_start = Instant::now();
    let mut rng = StdRng::seed_from_u64(9);
    let warmup = w.estimate(params, &budget, &mut rng).expect("warm-up pass");
    assert!(warmup.outcome.converged(), "warm-up pass converges");
    let warmup_seconds = warmup_start.elapsed().as_secs_f64();

    let mut windowed_seconds = 0.0;
    let mut scratch_seconds = 0.0;
    let mut windowed_draws = 0u64;
    let mut scratch_draws = 0u64;
    let mut reused_entries = 0usize;
    let mut zero_draw_ticks = 0usize;
    let mut rows = String::new();
    let relation = w.db().schema().relation_id("R").expect("stream relation");
    for tick in 1..=ticks {
        let (mut inserts, mut retracts) = workload.tick(w.db());
        // Keep the queried blocks answerable (positive probability, so
        // the stopping rule converges): random retraction spares them.
        // Insert churn and window expiry still hit every key equally.
        retracts.retain(|f| !queried_keys.contains(&f.values()[0]));
        // Uniform churn over {facts}/2 keys almost never lands in one of
        // the {BANK_SIZE} queried blocks, so every 4th tick grows one
        // *block-queried* block deliberately — adding a witness to that
        // entry's lineage and exercising the enrollment path (changed
        // fingerprint → re-converge) at full scale, not just reuse.
        if tick % 4 == 0 {
            let key = block_keys[tick / 4 % block_keys.len()].clone();
            inserts.push(ucqa_db::Fact::new(
                relation,
                vec![key, Value::int(-(1_000 + tick as i64))],
            ));
        }

        // Windowed pipeline: changelog replay + draw-reuse estimation.
        let windowed_start = Instant::now();
        let report = w.tick(inserts, &retracts).expect("tick applies");
        let pass = w
            .estimate(params, &budget, &mut rng)
            .expect("windowed pass");
        let windowed_s = windowed_start.elapsed().as_secs_f64();
        windowed_seconds += windowed_s;
        assert!(
            pass.outcome.converged(),
            "tick {tick}: windowed pass converges"
        );
        windowed_draws += pass.tick_draws;
        let reused = pass.reused.iter().filter(|&&r| r).count();
        reused_entries += reused;

        // The draw-reuse acceptance assert: a tick that changed no
        // entry fingerprint is answered entirely from the converged
        // baseline, at zero draws.
        if report.changed.iter().all(|&c| !c) {
            assert_eq!(
                pass.tick_draws, 0,
                "tick {tick}: unchanged fingerprints must consume zero draws"
            );
            assert_eq!(reused, BANK_SIZE);
            zero_draw_ticks += 1;
        }

        // Scratch pipeline: rebuild the window from its live facts and
        // re-estimate every entry from draw zero.
        let scratch_start = Instant::now();
        let (scratch_db, map) = rebuild_window(w.db());
        let scratch_conflict = ConflictIndex::build(&scratch_db, &sigma);
        let scratch_bank = LineageBank::compile(&scratch_db, &refs).expect("bank compiles");
        let scratch_estimator = BatchEstimator::with_conflict_index(
            &scratch_db,
            &sigma,
            spec,
            scratch_conflict.clone(),
        )
        .expect("primary key supports singleton operations");
        let scratch_pass = scratch_estimator
            .estimate_stopping_batch_with_budget(
                &batch,
                params,
                &budget,
                &mut StdRng::seed_from_u64(1_000 + tick as u64),
            )
            .expect("scratch pass");
        let scratch_s = scratch_start.elapsed().as_secs_f64();
        scratch_seconds += scratch_s;
        assert!(
            scratch_pass.converged(),
            "tick {tick}: scratch pass converges"
        );
        scratch_draws += scratch_pass.total_draws;

        // Bit-identity of the maintained state against the rebuild,
        // outside both timers: structures under the live-id remap, plus
        // a same-seed fixed-samples estimate probe over the two states.
        assert_window_matches_scratch(&w, &scratch_conflict, &scratch_bank, &map, tick);
        let windowed_probe = BatchEstimator::with_conflict_index(
            w.db(),
            w.sigma(),
            spec,
            w.conflict_index().clone(),
        )
        .expect("primary key supports singleton operations")
        .estimate_with_bank(
            w.bank(),
            &batch,
            probe_params,
            &RunBudget::unlimited(),
            None,
            &mut StdRng::seed_from_u64(17),
        )
        .expect("probe estimates");
        let scratch_probe = scratch_estimator
            .estimate_with_bank(
                &scratch_bank,
                &batch,
                probe_params,
                &RunBudget::unlimited(),
                None,
                &mut StdRng::seed_from_u64(17),
            )
            .expect("probe estimates");
        assert_eq!(
            windowed_probe, scratch_probe,
            "tick {tick}: same-seed estimates over window and rebuild diverged"
        );

        let _ = write!(
            rows,
            "{}    {{\"tick\": {tick}, \"live_facts\": {}, \"expired\": {}, \
             \"changed_entries\": {}, \"reused_entries\": {reused}, \
             \"windowed_draws\": {}, \"scratch_draws\": {}, \
             \"windowed_ms\": {:.3}, \"scratch_ms\": {:.3}}}",
            if rows.is_empty() { "\n" } else { ",\n" },
            w.db().live_count(),
            report.expired.len(),
            report.changed.iter().filter(|&&c| c).count(),
            pass.tick_draws,
            scratch_pass.total_draws,
            windowed_s * 1e3,
            scratch_s * 1e3,
        );
        eprintln!(
            "[e21] tick {tick}: windowed {:.2} ms ({} draws, {reused}/{BANK_SIZE} reused), \
             scratch {:.2} ms ({} draws)",
            windowed_s * 1e3,
            pass.tick_draws,
            scratch_s * 1e3,
            scratch_pass.total_draws,
        );
    }

    // The acceptance gate: the windowed pipeline answers the bank ≥ 2x
    // faster than rebuild-and-re-estimate, sustained over the stream.
    let speedup = scratch_seconds / windowed_seconds.max(1e-9);
    let windowed_rate = (ticks * BANK_SIZE) as f64 / windowed_seconds.max(1e-9);
    let scratch_rate = (ticks * BANK_SIZE) as f64 / scratch_seconds.max(1e-9);
    if !smoke {
        assert!(
            speedup >= 2.0,
            "windowed speedup {speedup:.2}x < 2x at {facts} live facts"
        );
        assert!(zero_draw_ticks > 0, "no tick exercised full draw reuse");
    }

    let json = format!(
        "{{\n  \"experiment\": \"e21_windowed_reuse\",\n  \
         \"generator\": \"uniform operations, singleton removals (Theorem 7.5)\",\n  \
         \"workload\": \"StreamWorkload({facts} live facts, keys = {facts}/2, overlap 0.3, seed 42), \
         WindowSpec::Count({facts}), {ticks} ticks x {inserts_per_tick} inserts + \
         {retracts_per_tick} retracts, bank of {BANK_SIZE} block/membership queries\",\n  \
         \"windowed_pipeline\": \"WindowedEstimator::tick (changelog replay) + estimate \
         (fingerprint-gated converged-draw reuse, enrollment resume for changed entries)\",\n  \
         \"scratch_pipeline\": \"rebuild Database from live facts + ConflictIndex::build + \
         LineageBank::compile + full stopping-rule pass each tick\",\n  \
         \"warmup_seconds\": {warmup_seconds:.4},\n  \
         \"windowed_seconds\": {windowed_seconds:.4},\n  \
         \"scratch_seconds\": {scratch_seconds:.4},\n  \
         \"windowed_draws\": {windowed_draws},\n  \
         \"scratch_draws\": {scratch_draws},\n  \
         \"reused_entries\": {reused_entries},\n  \
         \"zero_draw_ticks\": {zero_draw_ticks},\n  \
         \"windowed_estimates_per_sec\": {windowed_rate:.1},\n  \
         \"scratch_estimates_per_sec\": {scratch_rate:.1},\n  \
         \"speedup\": {speedup:.2},\n  \
         \"bit_identical_state\": true,\n  \
         \"ticks\": [{rows}\n  ]\n}}\n"
    );
    emit_report("e21", smoke, &output, &json);
}

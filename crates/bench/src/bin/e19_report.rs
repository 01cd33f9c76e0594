//! Produces `BENCH_e19.json`: dictionary-encoded columnar fact storage at
//! million-fact scale — the e14-style walk suite (violation scan, conflict
//! index build, uniform-operations walks) and the e17-style bank suite
//! (shared-trie bank compilation plus batched estimation) on the symbol
//! path, with `Value`-path baselines reconstructed in this binary at the
//! smallest size to measure what the encoding buys.
//!
//! ```text
//! cargo run -p ucqa-bench --release --bin e19_report [-- [--smoke] [output.json]]
//! ```
//!
//! With `--smoke` a single tiny size is run with minimal budgets and
//! nothing is written to disk — the CI mode.
//!
//! Workload: `MultiFdWorkload::scaling` at 20k / 100k / 1M facts.  The
//! `Value`-path baselines replay the pre-encoding algorithms over a
//! materialised row store of owned `Fact`s: the hash-grouped violation
//! scan (full database and repair-consistency rescan), the body-order
//! backtracking witness enumeration with `Value` comparisons, and the
//! planned enumeration over hash postings keyed by owned `Value`s.
//! Every baseline result is asserted identical to the symbol path (same
//! violation pairs, same witness images, bit-identical batched estimates
//! between the planned and unplanned banks); at the baseline size the
//! repair-consistency rescan and the planned witness enumeration must
//! each be ≥ 2x faster than the algorithms the `Value` path shipped, and
//! the resident per-fact bytes at the largest size must stay below the
//! pre-encoding per-fact footprint extrapolated from the baseline size.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ucqa_bench::experiments::{emit_report, report_args, time_routine};
use ucqa_core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use ucqa_core::sample_operations::{OperationWalkSampler, WalkScratch};
use ucqa_core::RunBudget;
use ucqa_db::{Database, Fact, FactId, FactSet, FdSet, RelationId, Value, ViolationSet};
use ucqa_query::{ConjunctiveQuery, LineageBank, QueryEvaluator, Term, Variable};
use ucqa_repair::GeneratorSpec;
use ucqa_workload::{queries::overlapping_join_bank, MultiFdWorkload};

const PREFIX_DEPTH: usize = 2;
const BANK_SIZE: usize = 8;

/// The pre-encoding row store: owned `Fact`s grouped per relation — the
/// layout the database used before dictionary encoding.  Materialised
/// outside the timed regions (the old storage held these rows resident).
fn value_store(db: &Database) -> Vec<Vec<(FactId, Fact)>> {
    let mut rows = vec![Vec::new(); db.schema().relation_count()];
    for (id, fact) in db.iter() {
        rows[fact.relation().index()].push((id, fact));
    }
    rows
}

/// Analytic per-database footprint of the pre-encoding storage: owned
/// `Fact`s (relation tag + `Vec<Value>`), the `(relation, values) → id`
/// key map with the same ~1.8x hash slack that
/// `Database::approx_fact_bytes` charges, and a by-relation posting entry.
fn value_path_bytes(db: &Database) -> usize {
    db.iter()
        .map(|(_, fact)| {
            let payload = std::mem::size_of_val(fact.values());
            std::mem::size_of::<Fact>()
                + payload
                + (std::mem::size_of::<(RelationId, Vec<Value>)>()
                    + payload
                    + std::mem::size_of::<FactId>())
                    * 9
                    / 5
                + std::mem::size_of::<FactId>()
        })
        .sum()
}

/// The pre-encoding violation scan: per FD, hash-group the relation's rows
/// by their `Value`-tuple on the left-hand side, then compare right-hand
/// sides pairwise inside each group.  With a `subset`, rows outside it are
/// skipped during grouping — the membership filter the pre-encoding code
/// paid when rescanning a repair handed over as a [`FactSet`].
fn value_violation_pairs_in(
    store: &[Vec<(FactId, Fact)>],
    sigma: &FdSet,
    subset: Option<&FactSet>,
) -> Vec<(FactId, FactId)> {
    let mut pairs = Vec::new();
    for (_, fd) in sigma.iter() {
        let rows = &store[fd.relation().index()];
        let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (row, (id, fact)) in rows.iter().enumerate() {
            if subset.is_some_and(|live| !live.contains(*id)) {
                continue;
            }
            let key: Vec<Value> = fd.lhs().iter().map(|&a| fact.value_at(a).clone()).collect();
            groups.entry(key).or_default().push(row);
        }
        for group in groups.values() {
            for (k, &i) in group.iter().enumerate() {
                for &j in &group[k + 1..] {
                    let (a, b) = (&rows[i], &rows[j]);
                    if !fd.satisfied_by_pair(&a.1, &b.1) {
                        pairs.push((a.0.min(b.0), a.0.max(b.0)));
                    }
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// A query atom lowered onto the pre-encoding representation: `Value`
/// constants and slot-numbered variables.
enum ValueTerm {
    Const(Value),
    Var(usize),
}

struct ValueAtom {
    relation: usize,
    terms: Vec<ValueTerm>,
}

fn value_atoms(query: &ConjunctiveQuery) -> (Vec<ValueAtom>, usize) {
    let mut slots: BTreeMap<Variable, usize> = BTreeMap::new();
    let atoms = query
        .atoms()
        .iter()
        .map(|atom| ValueAtom {
            relation: atom.relation().index(),
            terms: atom
                .terms()
                .iter()
                .map(|term| match term {
                    Term::Const(value) => ValueTerm::Const(value.clone()),
                    Term::Var(var) => {
                        let next = slots.len();
                        ValueTerm::Var(*slots.entry(var.clone()).or_insert(next))
                    }
                })
                .collect(),
        })
        .collect();
    let slot_count = slots.len();
    (atoms, slot_count)
}

/// The pre-encoding witness enumeration: body-order backtracking with
/// whole-relation scans and `Value` comparisons — the algorithm of
/// `for_each_answer_image_unplanned` before symbols, over the row store.
fn value_enumerate(
    store: &[Vec<(FactId, Fact)>],
    atoms: &[ValueAtom],
    slot_count: usize,
    visit: &mut impl FnMut(&[FactId]),
) {
    fn go(
        store: &[Vec<(FactId, Fact)>],
        atoms: &[ValueAtom],
        depth: usize,
        bindings: &mut [Option<Value>],
        image: &mut Vec<FactId>,
        visit: &mut impl FnMut(&[FactId]),
    ) {
        let Some(atom) = atoms.get(depth) else {
            visit(image);
            return;
        };
        let mut added: Vec<usize> = Vec::new();
        for (id, fact) in &store[atom.relation] {
            added.clear();
            let mut ok = true;
            for (term, value) in atom.terms.iter().zip(fact.values()) {
                match term {
                    ValueTerm::Const(constant) => {
                        if constant != value {
                            ok = false;
                            break;
                        }
                    }
                    ValueTerm::Var(slot) => match &bindings[*slot] {
                        Some(bound) => {
                            if bound != value {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            bindings[*slot] = Some(value.clone());
                            added.push(*slot);
                        }
                    },
                }
            }
            if ok {
                image.push(*id);
                go(store, atoms, depth + 1, bindings, image, visit);
                image.pop();
            }
            for &slot in &added {
                bindings[slot] = None;
            }
        }
    }
    let mut bindings: Vec<Option<Value>> = vec![None; slot_count];
    go(store, atoms, 0, &mut bindings, &mut Vec::new(), visit);
}

/// The pre-encoding access paths: `(relation, position, Value) → fact id`
/// posting lists in a hash map — the index shape the planned executor
/// probed before symbols — plus the decoded row store.
struct ValueIndex {
    postings: HashMap<(usize, usize, Value), Vec<FactId>>,
    facts: Vec<Fact>,
    by_relation: Vec<Vec<FactId>>,
}

fn value_index(db: &Database) -> ValueIndex {
    let mut postings: HashMap<(usize, usize, Value), Vec<FactId>> = HashMap::new();
    let mut facts = Vec::with_capacity(db.len());
    let mut by_relation = vec![Vec::new(); db.schema().relation_count()];
    for (id, fact) in db.iter() {
        for (position, value) in fact.values().iter().enumerate() {
            postings
                .entry((fact.relation().index(), position, value.clone()))
                .or_default()
                .push(id);
        }
        by_relation[fact.relation().index()].push(id);
        facts.push(fact);
    }
    ValueIndex {
        postings,
        facts,
        by_relation,
    }
}

/// The pre-encoding planned enumeration: at each join step, probe the
/// hash postings with an owned `(relation, position, Value)` key for every
/// bound position, walk the shortest run, and match candidates by `Value`
/// comparison — the access pattern of the plan executor before symbols
/// replaced hash probes with array offsets.
fn value_planned_enumerate(
    index: &ValueIndex,
    atoms: &[ValueAtom],
    slot_count: usize,
    visit: &mut impl FnMut(&[FactId]),
) {
    const EMPTY: &[FactId] = &[];
    fn go(
        index: &ValueIndex,
        atoms: &[ValueAtom],
        depth: usize,
        bindings: &mut [Option<Value>],
        image: &mut Vec<FactId>,
        visit: &mut impl FnMut(&[FactId]),
    ) {
        let Some(atom) = atoms.get(depth) else {
            visit(image);
            return;
        };
        let mut candidates: Option<&[FactId]> = None;
        for (position, term) in atom.terms.iter().enumerate() {
            let bound = match term {
                ValueTerm::Const(value) => Some(value.clone()),
                ValueTerm::Var(slot) => bindings[*slot].clone(),
            };
            if let Some(value) = bound {
                let run = index
                    .postings
                    .get(&(atom.relation, position, value))
                    .map_or(EMPTY, Vec::as_slice);
                if candidates.is_none_or(|best| run.len() < best.len()) {
                    candidates = Some(run);
                }
            }
        }
        let candidates = candidates.unwrap_or(&index.by_relation[atom.relation]);
        let mut added: Vec<usize> = Vec::new();
        for &id in candidates {
            let fact = &index.facts[id.index()];
            added.clear();
            let mut ok = true;
            for (term, value) in atom.terms.iter().zip(fact.values()) {
                match term {
                    ValueTerm::Const(constant) => {
                        if constant != value {
                            ok = false;
                            break;
                        }
                    }
                    ValueTerm::Var(slot) => match &bindings[*slot] {
                        Some(bound) => {
                            if bound != value {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            bindings[*slot] = Some(value.clone());
                            added.push(*slot);
                        }
                    },
                }
            }
            if ok {
                image.push(id);
                go(index, atoms, depth + 1, bindings, image, visit);
                image.pop();
            }
            for &slot in &added {
                bindings[slot] = None;
            }
        }
    }
    let mut bindings: Vec<Option<Value>> = vec![None; slot_count];
    go(index, atoms, 0, &mut bindings, &mut Vec::new(), visit);
}

fn normalized_image(image: &[FactId]) -> Vec<FactId> {
    let mut img = image.to_vec();
    img.sort_unstable();
    img.dedup();
    img
}

fn main() {
    let (smoke, output) = report_args("BENCH_e19.json");
    let spec = GeneratorSpec::uniform_operations().with_singleton_only();

    // (facts, scan iters, enum iters, compile iters, walks, samples): the
    // budgets shrink with the database so the 1M row stays minutes, not
    // hours; the baselines only run at the first (smallest) size.
    let plan: &[(usize, u64, u64, u64, u64, u64)] = if smoke {
        &[(300, 2, 2, 2, 20, 100)]
    } else {
        &[
            (20_000, 5, 3, 3, 200, 400),
            (100_000, 3, 1, 2, 40, 100),
            (1_000_000, 1, 1, 1, 5, 10),
        ]
    };

    let mut rows = String::new();
    let mut baseline_value_per_fact = f64::NAN;
    let mut last_per_fact = f64::NAN;
    for (size_index, &(facts, scan_iters, enum_iters, compile_iters, walks, samples)) in
        plan.iter().enumerate()
    {
        let baseline = size_index == 0;
        let generate_start = Instant::now();
        let (db, sigma) = MultiFdWorkload::scaling(facts, 42).generate();
        let generate_ms = generate_start.elapsed().as_secs_f64() * 1e3;
        let index_start = Instant::now();
        db.relation_index();
        let index_ms = index_start.elapsed().as_secs_f64() * 1e3;
        let dict_symbols = db.dictionary().len();
        let per_fact = db.approx_fact_bytes() as f64 / db.len() as f64;
        let value_per_fact = value_path_bytes(&db) as f64 / db.len() as f64;
        last_per_fact = per_fact;
        if baseline {
            baseline_value_per_fact = value_per_fact;
        }

        // Walk suite (e14-style): violation scan, conflict-index build,
        // uniform-operations walks.
        let (scan_ns, _) = time_routine(scan_iters, || {
            drop(ViolationSet::of_database(&db, &sigma));
        });
        let scan_ms = scan_ns / 1e6;
        let violations = ViolationSet::of_database(&db, &sigma);
        let conflicting = violations.conflicting_facts().len();
        let mut sym_pairs = violations.conflicting_pairs();
        sym_pairs.sort_unstable();
        sym_pairs.dedup();

        let store = baseline.then(|| value_store(&db));
        let (value_scan_cell, scan_speedup_cell) = match &store {
            Some(store) => {
                let (value_scan_ns, _) = time_routine(scan_iters, || {
                    drop(value_violation_pairs_in(store, &sigma, None));
                });
                assert_eq!(
                    value_violation_pairs_in(store, &sigma, None),
                    sym_pairs,
                    "value-path violation scan diverged from the symbol kernel"
                );
                let speedup = value_scan_ns / scan_ns.max(1.0);
                (
                    format!("{:.2}", value_scan_ns / 1e6),
                    format!("{speedup:.1}"),
                )
            }
            None => ("null".to_string(), "null".to_string()),
        };

        let build_start = Instant::now();
        let sampler = OperationWalkSampler::new(&db, &sigma);
        let sampler_build_ms = build_start.elapsed().as_secs_f64() * 1e3;
        let mut rng = StdRng::seed_from_u64(7);
        let mut repair = FactSet::empty(db.len());
        let mut scratch = WalkScratch::new();
        let (_, walks_per_sec) = time_routine(walks, || {
            sampler.sample_result_into(&mut rng, &mut repair, &mut scratch)
        });

        // The walk's rescan hot path: checking a sampled repair for
        // consistency.  No violations are emitted, so this isolates pure
        // detection cost — posting-run grouping over symbols vs. hashing
        // `Value` tuples.
        let mut rescan_set = ViolationSet::default();
        let mut rescan_live = Vec::new();
        let (repair_scan_ns, _) = time_routine(scan_iters.max(10), || {
            rescan_set.recompute(&db, &sigma, &repair, &mut rescan_live);
        });
        let repair_scan_ms = repair_scan_ns / 1e6;
        assert!(rescan_set.is_empty(), "sampled repair is consistent");
        let (value_repair_scan_cell, repair_speedup_cell) = match &store {
            Some(store) => {
                let (value_repair_ns, _) = time_routine(scan_iters.max(10), || {
                    drop(value_violation_pairs_in(store, &sigma, Some(&repair)));
                });
                assert!(
                    value_violation_pairs_in(store, &sigma, Some(&repair)).is_empty(),
                    "value-path repair scan diverged from the symbol kernel"
                );
                let speedup = value_repair_ns / repair_scan_ns.max(1.0);
                if !smoke {
                    assert!(
                        speedup >= 2.0,
                        "repair consistency scan speedup {speedup:.2}x < 2x at {facts} facts"
                    );
                }
                (
                    format!("{:.2}", value_repair_ns / 1e6),
                    format!("{speedup:.1}"),
                )
            }
            None => ("null".to_string(), "null".to_string()),
        };

        // Bank suite (e17-style): shared-trie compilation, witness
        // enumeration, batched estimation.
        let queries = overlapping_join_bank(&db, BANK_SIZE, PREFIX_DEPTH, 7).expect("valid bank");
        let evaluators: Vec<QueryEvaluator> =
            queries.iter().cloned().map(QueryEvaluator::new).collect();
        let stats_evaluators: Vec<QueryEvaluator> = queries
            .iter()
            .cloned()
            .map(|q| QueryEvaluator::with_stats(q, &db).expect("valid bank query"))
            .collect();
        let bank: Vec<BatchQuery<'_>> =
            evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();
        let estimator = BatchEstimator::new(&db, &sigma, spec).expect("FDs with singleton ops");
        let refs: Vec<_> = bank.iter().map(|q| (q.evaluator, q.candidate)).collect();

        let (planned_ns, _) = time_routine(compile_iters, || {
            drop(estimator.compile_bank(&bank).expect("compiles"))
        });
        let (unplanned_ns, _) = time_routine(compile_iters, || {
            drop(LineageBank::compile_unplanned(&db, &refs).expect("compiles"))
        });
        let compile_speedup = unplanned_ns / planned_ns.max(1.0);
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

        let all = db.all_facts();
        let (planned_enum_ns, _) = time_routine(enum_iters, || {
            for evaluator in &stats_evaluators {
                evaluator
                    .for_each_answer_image(&db, &all, &[], |_| false)
                    .expect("boolean bank query");
            }
        });
        let (unplanned_enum_ns, _) = time_routine(enum_iters, || {
            for evaluator in &evaluators {
                evaluator
                    .for_each_answer_image_unplanned(&db, &all, &[], |_| false)
                    .expect("boolean bank query");
            }
        });
        let (value_enum_cell, value_planned_enum_cell, enum_speedup_cell) = match &store {
            Some(store) => {
                let lowered: Vec<(Vec<ValueAtom>, usize)> =
                    queries.iter().map(value_atoms).collect();
                let (value_enum_ns, _) = time_routine(enum_iters, || {
                    for (atoms, slot_count) in &lowered {
                        value_enumerate(store, atoms, *slot_count, &mut |_| {});
                    }
                });
                // The planned baseline probes hash postings keyed by owned
                // `Value`s — the index shape that preceded the dictionary
                // encoding — built untimed so only probe cost is measured.
                let index = value_index(&db);
                let (value_planned_ns, _) = time_routine(enum_iters, || {
                    for (atoms, slot_count) in &lowered {
                        value_planned_enumerate(&index, atoms, *slot_count, &mut |_| {});
                    }
                });
                // Identity: the naive and planned value-path images, the
                // unplanned symbol images and the stats-planned symbol
                // images all coincide.
                for (((atoms, slot_count), evaluator), stats) in
                    lowered.iter().zip(&evaluators).zip(&stats_evaluators)
                {
                    let mut value_images = BTreeSet::new();
                    value_enumerate(store, atoms, *slot_count, &mut |image| {
                        value_images.insert(normalized_image(image));
                    });
                    let mut value_planned_images = BTreeSet::new();
                    value_planned_enumerate(&index, atoms, *slot_count, &mut |image| {
                        value_planned_images.insert(normalized_image(image));
                    });
                    let mut unplanned_images = BTreeSet::new();
                    evaluator
                        .for_each_answer_image_unplanned(&db, &all, &[], |image| {
                            unplanned_images.insert(normalized_image(image));
                            false
                        })
                        .expect("boolean bank query");
                    let mut planned_images = BTreeSet::new();
                    stats
                        .for_each_answer_image(&db, &all, &[], |image| {
                            planned_images.insert(normalized_image(image));
                            false
                        })
                        .expect("boolean bank query");
                    assert_eq!(value_images, unplanned_images, "value path diverged");
                    assert_eq!(
                        value_planned_images, unplanned_images,
                        "value plan diverged"
                    );
                    assert_eq!(value_images, planned_images, "stats plan diverged");
                }
                // The asserted speedup pits the production path (stats-
                // planned symbol executor) against the algorithm the
                // `Value` path actually shipped: body-order backtracking
                // over the row store.  The planned `Value` executor is
                // reported alongside without an assert — at the baseline
                // size the whole store fits in cache, so hash-probe vs
                // array-offset differences hide behind identical
                // per-candidate compare loops.
                let speedup = value_enum_ns / planned_enum_ns.max(1.0);
                if !smoke {
                    assert!(
                        speedup >= 2.0,
                        "witness enumeration speedup {speedup:.2}x < 2x at {facts} facts"
                    );
                }
                (
                    format!("{:.2}", value_enum_ns / 1e6),
                    format!("{:.2}", value_planned_ns / 1e6),
                    format!("{speedup:.1}"),
                )
            }
            None => ("null".to_string(), "null".to_string(), "null".to_string()),
        };

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
        let bit_identical = planned_estimates == unplanned_estimates;
        assert!(
            bit_identical,
            "planned bank estimates diverged from the unplanned baseline"
        );

        let _ = write!(
            rows,
            "{}    {{\"facts\": {facts}, \"generate_ms\": {generate_ms:.1}, \
             \"relation_index_ms\": {index_ms:.2}, \"dict_symbols\": {dict_symbols}, \
             \"per_fact_bytes\": {per_fact:.1}, \
             \"value_path_per_fact_bytes\": {value_per_fact:.1}, \
             \"violations\": {}, \"conflicting_facts\": {conflicting}, \
             \"violation_scan_ms\": {scan_ms:.2}, \
             \"value_violation_scan_ms\": {value_scan_cell}, \
             \"violation_scan_speedup\": {scan_speedup_cell}, \
             \"repair_scan_ms\": {repair_scan_ms:.3}, \
             \"value_repair_scan_ms\": {value_repair_scan_cell}, \
             \"repair_scan_speedup\": {repair_speedup_cell}, \
             \"sampler_build_ms\": {sampler_build_ms:.1}, \
             \"walks\": {walks}, \"walks_per_sec\": {walks_per_sec:.1}, \
             \"bank\": {BANK_SIZE}, \"witnesses\": {}, \
             \"compile_planned_ms\": {:.2}, \"compile_unplanned_ms\": {:.2}, \
             \"compile_speedup\": {compile_speedup:.1}, \
             \"enum_planned_ms\": {:.2}, \"enum_unplanned_ms\": {:.2}, \
             \"value_enum_ms\": {value_enum_cell}, \
             \"value_planned_enum_ms\": {value_planned_enum_cell}, \
             \"enum_speedup\": {enum_speedup_cell}, \
             \"estimate_samples\": {samples}, \"estimate_seconds\": {estimate_seconds:.4}, \
             \"bit_identical_estimates\": {bit_identical}}}",
            if rows.is_empty() { "\n" } else { ",\n" },
            violations.len(),
            planned_bank.witness_count(),
            planned_ns / 1e6,
            unplanned_ns / 1e6,
            planned_enum_ns / 1e6,
            unplanned_enum_ns / 1e6,
        );
        eprintln!(
            "[e19] n = {facts}: {per_fact:.0} B/fact (value path {value_per_fact:.0}), \
             scan {scan_ms:.1} ms, {walks_per_sec:.1} walks/s, compile {:.1} ms \
             ({compile_speedup:.1}x over unplanned), estimate {estimate_seconds:.2}s, \
             bit-identical: {bit_identical}",
            planned_ns / 1e6,
        );
    }

    // The acceptance gate of the encoding: at the largest size the
    // resident per-fact footprint stays below the pre-encoding footprint
    // extrapolated from the baseline size (per-fact bytes of the old row
    // store are size-independent at fixed arity).
    assert!(
        last_per_fact < baseline_value_per_fact,
        "columnar storage regressed: {last_per_fact:.1} B/fact at the largest size vs \
         pre-encoding extrapolation {baseline_value_per_fact:.1} B/fact"
    );

    let json = format!(
        "{{\n  \"experiment\": \"e19_columnar_storage\",\n  \
         \"generator\": \"uniform operations, singleton removals (Theorem 7.5)\",\n  \
         \"workload\": \"MultiFdWorkload::scaling(facts, seed 42) + \
         overlapping_join_bank({BANK_SIZE}, prefix_depth = {PREFIX_DEPTH}, seed 7)\",\n  \
         \"symbol_path\": \"dictionary-encoded columnar storage: u32 symbol columns, \
         CSR postings, galloping intersection, sort-based violation scan\",\n  \
         \"value_baseline\": \"pre-encoding row store of owned Facts: hash-grouped \
         Value-tuple violation scan, body-order backtracking enumeration with Value \
         comparisons, planned enumeration over Value-keyed hash postings (run at \
         the smallest size, asserted identical)\",\n  \
         \"per_fact_bytes_largest\": {last_per_fact:.1},\n  \
         \"value_path_extrapolation_per_fact_bytes\": {baseline_value_per_fact:.1},\n  \
         \"sizes\": [{rows}\n  ]\n}}\n"
    );
    emit_report("e19", smoke, &output, &json);
}

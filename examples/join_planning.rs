//! Plan-based witness enumeration: join plans, relation indexes, and the
//! shared bank compile.
//!
//! Every compiled lineage starts with witness *enumeration* — finding all
//! homomorphism images of a query in the full database.  This example
//! shows the three layers the plan-based pipeline adds: the greedy join
//! plan of a [`uocqa::query::QueryEvaluator`] (structural bound-coverage
//! order, or cost-based order over the live statistics of the database's
//! [`uocqa::db::RelationIndex`] via
//! [`uocqa::query::QueryEvaluator::with_stats`], both introspectable
//! through [`uocqa::query::PlanExplain`]), and the shared scan trie of
//! [`uocqa::query::LineageBank::compile`] that factors the common atom
//! prefixes and suffix subtrees of an overlapping-join bank into ~one
//! enumeration pass, compared against the unplanned
//! one-backtracking-pass-per-entry baseline.
//!
//! ```text
//! cargo run --release --example join_planning
//! ```

use std::time::Instant;

use uocqa::query::{parser::parse_query, LineageBank, QueryEvaluator};
use uocqa::workload::{queries::overlapping_join_bank, MultiFdWorkload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 5 000-fact multi-FD instance: two relations R0/R1(A, B, C, P).
    let (db, _sigma) = MultiFdWorkload::scaling(5_000, 42).generate();
    println!(
        "database: {} facts, {} posting entries in the relation index",
        db.len(),
        db.relation_index().posting_entries()
    );

    // The planner reorders atoms by bound coverage: the constant-anchored
    // atom leads, then everything joined through its variables becomes an
    // indexed lookup.
    let query = parse_query(db.schema(), "Ans(v) :- R0(x, v, y, p), R0(3, v, z, q)")?;
    let structural = QueryEvaluator::new(query.clone());
    let order: Vec<usize> = structural.plan().atom_order().collect();
    println!(
        "structural free plan: atom order {order:?}, {} of {} steps indexed",
        structural.plan().indexed_steps(),
        structural.plan().len(),
    );
    println!("{}", structural.plan().explain());

    // The cost-based planner consults the live relation-index statistics
    // instead: shortest constant-bound posting run first, variable-bound
    // positions discounted by their distinct counts.  `explain` reports
    // the per-step and cumulative cardinality estimates it planned with.
    let costed = QueryEvaluator::with_stats(query, &db)?;
    let costed_order: Vec<usize> = costed.plan().atom_order().collect();
    println!(
        "cost-based free plan: atom order {costed_order:?}, {} of {} steps indexed",
        costed.plan().indexed_steps(),
        costed.plan().len(),
    );
    println!("{}", costed.plan().explain());
    let answer_order: Vec<usize> = costed.answer_plan().atom_order().collect();
    println!(
        "answer plan (v prebound): atom order {answer_order:?}, {} of {} steps indexed",
        costed.answer_plan().indexed_steps(),
        costed.answer_plan().len(),
    );
    // A bank of 64 overlapping joins sharing a two-atom prefix: the
    // shared scan trie enumerates the prefix once for the whole bank,
    // and canonicalised suffix subtrees recur across entries fill once
    // and replay everywhere else.
    let queries = overlapping_join_bank(&db, 64, 2, 7)?;
    let evaluators: Vec<QueryEvaluator> = queries
        .into_iter()
        .map(|q| QueryEvaluator::with_stats(q, &db))
        .collect::<Result<_, _>>()?;
    let refs: Vec<(&QueryEvaluator, &[uocqa::db::Value])> = evaluators
        .iter()
        .map(|e| (e, &[] as &[uocqa::db::Value]))
        .collect();

    let start = Instant::now();
    let (shared, stats) = LineageBank::compile_instrumented(
        &db,
        &refs,
        uocqa::query::DEFAULT_WITNESS_CAP,
        &uocqa::query::CompileBudget::unlimited(),
    )?;
    let shared_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "shared compile: {} enumeration steps over {} trie nodes, \
         {} shared subtrees replayed {} times",
        stats.steps, stats.trie_nodes, stats.shared_subtrees, stats.replays,
    );
    let start = Instant::now();
    let baseline = LineageBank::compile_unplanned(&db, &refs)?;
    let baseline_ms = start.elapsed().as_secs_f64() * 1e3;

    assert_eq!(shared.witness_count(), baseline.witness_count());
    println!(
        "bank of {}: {} distinct witnesses; shared compile {shared_ms:.2} ms, \
         unplanned per-entry baseline {baseline_ms:.2} ms ({:.1}x)",
        shared.len(),
        shared.witness_count(),
        baseline_ms / shared_ms.max(1e-9),
    );
    Ok(())
}

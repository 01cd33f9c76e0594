//! Budgeted, cancellable estimation with graceful degradation.
//!
//! An interactive dashboard can't let a consistency probe run forever: it
//! hands the estimator a [`RunBudget`] — a draw cap, a wall-clock
//! deadline, a cancellation token wired to a "stop" button — and takes
//! whatever the stream has proven when the budget runs out.  This example
//! walks the full lifecycle over an inconsistent sensor table:
//!
//! 1. an **unconstrained** budget (runs every query to convergence),
//! 2. a **draw cap** cutting the stream mid-flight, with each query
//!    reporting the achieved `(ε′, δ/k)` bound at its actual draw count,
//! 3. **resuming** the interrupted run to convergence with the same RNG
//!    (bit-identical to never having been interrupted),
//! 4. a **cancellation token** tripped by draw index, standing in for a
//!    user-initiated stop.
//!
//! ```text
//! cargo run --example budgeted
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use uocqa::core::budget::{BudgetStatus, CancelToken, RunBudget};
use uocqa::core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use uocqa::db::{Database, FdSet, FunctionalDependency, Schema, Value};
use uocqa::query::{parser::parse_query, QueryEvaluator};
use uocqa::repair::GeneratorSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The adaptive-batch sensor table: one heavily contradicted hub (its
    // lone "ok" reading survives repairing rarely) plus lightly
    // conflicted sensors that certify quickly.
    let mut schema = Schema::new();
    schema.add_relation("Reading", &["sensor", "status", "ts"])?;
    let mut db = Database::with_schema(schema);
    let mut sigma = FdSet::new();
    sigma.add(FunctionalDependency::from_names(
        db.schema(),
        "Reading",
        &["sensor"],
        &["status"],
    )?);
    db.insert_values("Reading", [Value::int(0), Value::str("ok"), Value::int(0)])?;
    for ts in 1..20 {
        db.insert_values(
            "Reading",
            [Value::int(0), Value::str("fault"), Value::int(ts)],
        )?;
    }
    for sensor in 1..4 {
        db.insert_values(
            "Reading",
            [Value::int(sensor), Value::str("ok"), Value::int(100)],
        )?;
        db.insert_values(
            "Reading",
            [Value::int(sensor), Value::str("fault"), Value::int(101)],
        )?;
    }

    let questions: Vec<QueryEvaluator> = (0..4)
        .map(|sensor| {
            let text = format!("Ans() :- Reading({sensor}, 'ok', t)");
            parse_query(db.schema(), &text).map(QueryEvaluator::new)
        })
        .collect::<Result<_, _>>()?;
    let bank: Vec<BatchQuery<'_>> = questions.iter().map(|q| BatchQuery::new(q, &[])).collect();

    let estimator = BatchEstimator::new(
        &db,
        &sigma,
        GeneratorSpec::uniform_operations().with_singleton_only(),
    )?;
    let params = ApproximationParams::new(0.2, 0.1)?.with_mode(EstimatorMode::OptimalStopping {
        max_samples: 500_000,
    });

    // 1. Unconstrained budget: every query runs to convergence, with
    //    per-query status and achieved-bound reporting.
    let full = estimator.estimate_stopping_batch_with_budget(
        &bank,
        params,
        &RunBudget::unlimited(),
        &mut StdRng::seed_from_u64(7),
    )?;
    println!("— unconstrained budget ({} draws) —", full.total_draws);
    for (sensor, q) in full.queries.iter().enumerate() {
        println!(
            "  sensor {sensor}: P ≈ {:.4}  [{:?} after {} draws]",
            q.estimate, q.status, q.samples
        );
    }

    // 2. A draw cap at a tenth of the converged stream: converged
    //    queries keep their values, live ones degrade gracefully to the
    //    achieved bound at the truncated counts.
    let cap = (full.total_draws / 10).max(1);
    let mut rng = StdRng::seed_from_u64(7);
    let capped = estimator.estimate_stopping_batch_with_budget(
        &bank,
        params,
        &RunBudget::unlimited().with_max_draws(cap),
        &mut rng,
    )?;
    println!("— draw cap {cap} —");
    for (sensor, q) in capped.queries.iter().enumerate() {
        match q.achieved.relative_epsilon {
            Some(eps) => println!(
                "  sensor {sensor}: P ≈ {:.4}  [{:?}; achieved ε′ = {eps:.3} \
                 with probability ≥ {:.2}]",
                q.estimate,
                q.status,
                1.0 - q.achieved.delta
            ),
            None => println!(
                "  sensor {sensor}: P ≈ {:.4}  [{:?}; too few successes for a \
                 relative bound, additive ε′ = {:.3}]",
                q.estimate, q.status, q.achieved.additive_epsilon
            ),
        }
    }

    // 3. Resume with the remaining budget: the capped outcome is the
    //    prior of a run over the compiled bank, the same RNG continues the
    //    stream, and the concatenated run equals the uninterrupted one.
    let compiled = estimator.compile_bank(&bank)?;
    let resumed = estimator.estimate_with_bank(
        &compiled,
        &bank,
        params,
        &RunBudget::unlimited(),
        Some(&capped),
        &mut rng,
    )?;
    let identical = resumed
        .queries
        .iter()
        .zip(&full.queries)
        .all(|(r, f)| (r.estimate, r.samples) == (f.estimate, f.samples));
    println!("— resumed to convergence: bit-identical to uninterrupted = {identical} —");
    assert!(identical);

    // 4. A cancellation token, as a stop button would trip it.  Here it
    //    fires deterministically at draw 100; `CancelToken::cancel` (or
    //    the shared `flag()`) does the same from another thread.
    let cancelled = estimator.estimate_stopping_batch_with_budget(
        &bank,
        params,
        &RunBudget::unlimited().with_cancel_token(CancelToken::tripped_at_draw(100)),
        &mut StdRng::seed_from_u64(7),
    )?;
    let still_live = cancelled
        .queries
        .iter()
        .filter(|q| q.status == BudgetStatus::Cancelled)
        .count();
    println!(
        "— cancelled at draw {}: {still_live} of {} queries still in flight —",
        cancelled.total_draws,
        cancelled.queries.len()
    );
    Ok(())
}

//! Batched multi-query estimation: sample operational repairs once,
//! answer a whole bank of queries per draw.
//!
//! A monitoring dashboard asks many questions about the same inconsistent
//! database ("is sensor 3 still trusted?", "do rooms A and B agree?", …).
//! Running one FPRAS per question repeats the expensive part — drawing
//! operational repairs — once per question.  [`uocqa::core::fpras::BatchEstimator`]
//! compiles all questions into one shared [`uocqa::query::LineageBank`]
//! and drives a single sampling loop; each sampled repair updates every
//! per-question counter in one word-level pass, and the estimates are
//! bit-identical to the single-query runs under the same seed.
//!
//! ```text
//! cargo run --example multi_query
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use uocqa::core::exact::ExactSolver;
use uocqa::core::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
use uocqa::core::RunBudget;
use uocqa::db::{Database, FdSet, FunctionalDependency, Schema, Value};
use uocqa::query::{parser::parse_query, QueryEvaluator};
use uocqa::repair::GeneratorSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Sensor readings with a non-key FD: each sensor reports one status
    // per room, but the payload timestamp keeps duplicate reports apart.
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
    for (sensor, status, ts) in [
        (1, "ok", 100),
        (1, "fault", 101),
        (2, "ok", 102),
        (2, "ok", 103),
        (3, "fault", 104),
        (3, "ok", 105),
        (3, "fault", 106),
    ] {
        db.insert_values(
            "Reading",
            [Value::int(sensor), Value::str(status), Value::int(ts)],
        )?;
    }

    // The question bank: one Boolean query per sensor, plus a join.
    let texts = [
        "Ans() :- Reading(1, 'ok', x)",
        "Ans() :- Reading(2, 'ok', x)",
        "Ans() :- Reading(3, 'fault', x)",
        "Ans() :- Reading(x, 'fault', y), Reading(z, 'fault', w)",
    ];
    let evaluators: Vec<QueryEvaluator> = texts
        .iter()
        .map(|t| parse_query(db.schema(), t).map(QueryEvaluator::new))
        .collect::<Result<_, _>>()?;
    let bank: Vec<BatchQuery<'_>> = evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();

    // One shared sampling loop answers all four questions per draw; the
    // FD is not a key, so the supported generator is uniform operations
    // with singleton removals (Theorem 7.5).
    let spec = GeneratorSpec::uniform_operations().with_singleton_only();
    let estimator = BatchEstimator::new(&db, &sigma, spec)?;
    let params = ApproximationParams::new(0.05, 0.05)?.with_mode(EstimatorMode::FixedAdditive);
    let estimates = estimator.estimate_batch_with_budget(
        &bank,
        params,
        &RunBudget::unlimited(),
        &mut StdRng::seed_from_u64(42),
    )?;

    // Exact ground truth (the instance is tiny), also batched: one pass
    // over the operational semantics for the whole bank.
    let refs: Vec<(&QueryEvaluator, &[Value])> =
        evaluators.iter().map(|e| (e, &[] as &[Value])).collect();
    let exact = ExactSolver::new(&db, &sigma).answer_probabilities(spec, &refs)?;

    println!(
        "batched estimates ({} samples each):",
        estimates.total_draws
    );
    for ((text, estimate), exact) in texts.iter().zip(&estimates.queries).zip(&exact) {
        println!(
            "  {text}\n    estimate {:.4}, exact {} ≈ {:.4}",
            estimate.estimate,
            exact,
            exact.to_f64()
        );
    }
    Ok(())
}

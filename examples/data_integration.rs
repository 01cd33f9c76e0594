//! The data-integration scenario from the paper's introduction, scaled up:
//! several sources disagree on key *and* non-key attributes, the resulting
//! constraint set has two keys per relation (so it is *not* a primary-key
//! instance), and the uniform-operations semantics — the only one the paper
//! proves approximable in this regime (Theorem 7.1(2)) — is used to rank
//! answers by the probability that they survive repairing.
//!
//! ```text
//! cargo run --release --example data_integration
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use uocqa::core::fpras::{ApproximationParams, OcqaEstimator};
use uocqa::core::{CoreError, RunBudget};
use uocqa::db::{Database, FdSet, FunctionalDependency, Schema, Value};
use uocqa::query::{parser::parse_query, QueryEvaluator};
use uocqa::repair::GeneratorSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Employees integrated from several sources.  Both `id` and `badge`
    // are meant to identify an employee, giving two keys:
    //   Emp : id    -> badge, name
    //   Emp : badge -> id, name
    let mut schema = Schema::new();
    schema.add_relation("Emp", &["id", "badge", "name"])?;
    let mut db = Database::with_schema(schema);
    let mut sigma = FdSet::new();
    sigma.add(FunctionalDependency::from_names(
        db.schema(),
        "Emp",
        &["id"],
        &["badge", "name"],
    )?);
    sigma.add(FunctionalDependency::from_names(
        db.schema(),
        "Emp",
        &["badge"],
        &["id", "name"],
    )?);

    // The paper's own two-fact example first.
    db.insert_values("Emp", [Value::int(1), Value::int(101), Value::str("Alice")])?;
    db.insert_values("Emp", [Value::int(1), Value::int(101), Value::str("Tom")])?;

    // Then a few hundred synthetic integration records with occasional
    // disagreements on id/badge/name.
    let mut rng = StdRng::seed_from_u64(2026);
    for person in 2..120i64 {
        let sources = rng.random_range(1..=3);
        for s in 0..sources {
            let id = person;
            // 15 % of the extra source records disagree about the badge,
            // 20 % about the name spelling.
            let badge = if s > 0 && rng.random_bool(0.15) {
                1000 + person
            } else {
                100 + person
            };
            let name = if s > 0 && rng.random_bool(0.2) {
                format!("person-{person}-alt")
            } else {
                format!("person-{person}")
            };
            db.insert_values("Emp", [Value::int(id), Value::int(badge), Value::str(name)])?;
        }
    }
    println!(
        "integrated database: {} facts, consistent: {}",
        db.len(),
        sigma.satisfied_by_database(&db)
    );

    // Uniform repairs / sequences are not available here — the constraints
    // are keys but not primary keys — and the library says so explicitly.
    match OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()) {
        Err(CoreError::Unsupported { .. }) => {
            println!("uniform repairs: unsupported for two keys per relation (open problem in the paper)")
        }
        Err(other) => println!("unexpected error: {other}"),
        Ok(_) => println!("unexpected: uniform repairs accepted a non-primary-key instance"),
    }

    // Uniform operations work for arbitrary keys (Theorem 7.1(2)).
    let estimator = OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations())?;
    let params = ApproximationParams::new(0.1, 0.05)?;
    let mut rng = StdRng::seed_from_u64(7);

    println!("\nhow reliable is each reading of employee 1's name?");
    for name in ["Alice", "Tom"] {
        let query = parse_query(db.schema(), &format!("Ans() :- Emp(1, b, '{name}')"))?;
        let evaluator = QueryEvaluator::new(query);
        let estimate = estimator
            .estimate_with_budget(&evaluator, &[], params, &RunBudget::unlimited(), &mut rng)?
            .queries[0];
        println!(
            "  P[{name} survives repairing] ≈ {:.3}   ({} samples)",
            estimate.estimate, estimate.samples
        );
    }

    println!("\nconflict-free employees keep probability ≈ 1:");
    let query = parse_query(db.schema(), "Ans() :- Emp(x, y, 'person-2')")?;
    let evaluator = QueryEvaluator::new(query);
    let estimate = estimator
        .estimate_with_budget(&evaluator, &[], params, &RunBudget::unlimited(), &mut rng)?
        .queries[0];
    println!("  P[person-2 survives] ≈ {:.3}", estimate.estimate);
    Ok(())
}

//! Quickstart: exact and approximate uniform operational CQA on a small
//! inconsistent database.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use uocqa::core::exact::ExactSolver;
use uocqa::core::fpras::{ApproximationParams, OcqaEstimator};
use uocqa::core::RunBudget;
use uocqa::db::{Database, FdSet, FunctionalDependency, Schema, Value};
use uocqa::query::{parser::parse_query, QueryEvaluator};
use uocqa::repair::GeneratorSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Schema and constraints: employees with a primary key on `id`.
    let mut schema = Schema::new();
    schema.add_relation("Emp", &["id", "name", "dept"])?;
    let mut db = Database::with_schema(schema);
    let mut sigma = FdSet::new();
    sigma.add(FunctionalDependency::from_names(
        db.schema(),
        "Emp",
        &["id"],
        &["name", "dept"],
    )?);

    // 2. An inconsistent instance: two sources disagree about employee 1,
    //    three about employee 2.
    for (id, name, dept) in [
        (1, "Alice", "R&D"),
        (1, "Tom", "R&D"),
        (2, "Carol", "Sales"),
        (2, "Carol", "Support"),
        (2, "Caroline", "Sales"),
        (3, "Dave", "R&D"),
    ] {
        db.insert_values("Emp", [Value::int(id), Value::str(name), Value::str(dept)])?;
    }
    println!(
        "database is consistent: {}",
        sigma.satisfied_by_database(&db)
    );

    // 3. A query: which employees work in R&D?
    let query = parse_query(db.schema(), "Ans(n) :- Emp(x, n, 'R&D')")?;
    let evaluator = QueryEvaluator::new(query);

    // 4. Exact operational consistent answers under the uniform-repairs
    //    semantics (the database is small, so exact enumeration is fine).
    let solver = ExactSolver::new(&db, &sigma);
    let semantics = solver.semantics(GeneratorSpec::uniform_repairs())?;
    println!("\nexact operational consistent answers (uniform repairs):");
    for (tuple, probability) in semantics.consistent_answers(&db, &evaluator)? {
        println!(
            "  {} -> probability {} ≈ {:.4}",
            tuple[0],
            probability,
            probability.to_f64()
        );
    }

    // 5. The same answers, approximated with the FPRAS of Theorem 5.1(2)
    //    (ε = 0.05, δ = 0.05) — the path that scales to large databases.
    let estimator = OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs())?;
    let params = ApproximationParams::new(0.05, 0.05)?;
    let mut rng = StdRng::seed_from_u64(42);
    println!("\napproximate answers (FPRAS, ε = 0.05):");
    for name in ["Alice", "Tom", "Dave"] {
        let candidate = [Value::str(name)];
        let outcome = estimator.estimate_with_budget(
            &evaluator,
            &candidate,
            params,
            &RunBudget::unlimited(),
            &mut rng,
        )?;
        let estimate = outcome.queries[0];
        println!(
            "  {name} -> {:.4}  ({} samples)",
            estimate.estimate, estimate.samples
        );
    }
    Ok(())
}

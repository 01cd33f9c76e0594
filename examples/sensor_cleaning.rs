//! Probabilistic cleaning of a large sensor-registry table under a primary
//! key: approximate operational consistent answers at a scale where exact
//! enumeration is hopeless (thousands of candidate repairs per block,
//! astronomically many overall).
//!
//! The example also cross-checks the estimator against the analytically
//! known exact value for the uniform-repairs semantics: the probability
//! that a specific reading of a sensor with `m` conflicting readings
//! survives is exactly `1/(m+1)`.
//!
//! ```text
//! cargo run --release --example sensor_cleaning
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use uocqa::core::fpras::{ApproximationParams, OcqaEstimator};
use uocqa::core::RunBudget;
use uocqa::db::{Database, FdSet, FunctionalDependency, Schema, Value};
use uocqa::query::{parser::parse_query, QueryEvaluator};
use uocqa::repair::GeneratorSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Sensor(sensor_id, location): each sensor should be installed at one
    // location, but the registry accumulated conflicting entries.
    let mut schema = Schema::new();
    schema.add_relation("Sensor", &["sensor", "location"])?;
    let mut db = Database::with_schema(schema);
    let mut sigma = FdSet::new();
    sigma.add(FunctionalDependency::from_names(
        db.schema(),
        "Sensor",
        &["sensor"],
        &["location"],
    )?);

    let mut rng = StdRng::seed_from_u64(99);
    let sensors = 400usize;
    let mut conflicting_readings_of_s0 = 0usize;
    for sensor in 0..sensors {
        // Between 1 and 6 recorded locations per sensor.
        let readings = rng.random_range(1..=6);
        if sensor == 0 {
            conflicting_readings_of_s0 = readings;
        }
        for r in 0..readings {
            db.insert_values(
                "Sensor",
                [
                    Value::int(sensor as i64),
                    Value::str(format!("site-{sensor}-{r}")),
                ],
            )?;
        }
    }
    println!(
        "sensor registry: {} facts over {} sensors, consistent: {}",
        db.len(),
        sensors,
        sigma.satisfied_by_database(&db)
    );

    let estimator = OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs())?;
    let params = ApproximationParams::new(0.05, 0.05)?;
    let mut rng = StdRng::seed_from_u64(7);

    // How likely is it that sensor 0 is really at its first recorded site?
    let query = parse_query(db.schema(), "Ans() :- Sensor(0, 'site-0-0')")?;
    let evaluator = QueryEvaluator::new(query);
    let estimate = estimator
        .estimate_with_budget(&evaluator, &[], params, &RunBudget::unlimited(), &mut rng)?
        .queries[0];
    let exact = 1.0 / (conflicting_readings_of_s0 as f64 + 1.0);
    println!(
        "\nP[sensor 0 is at site-0-0]  estimate {:.4}  (exact {:.4}, {} samples, ε = 0.05)",
        estimate.estimate, exact, estimate.samples
    );

    // Which location should we report for sensor 1?  Rank its candidate
    // locations by answer probability.
    let query = parse_query(db.schema(), "Ans(loc) :- Sensor(1, loc)")?;
    let evaluator = QueryEvaluator::new(query);
    println!("\ncandidate locations for sensor 1, ranked by probability:");
    let candidates: Vec<Value> = db
        .active_domain()
        .into_iter()
        .filter(|v| v.as_str().is_some_and(|s| s.starts_with("site-1-")))
        .collect();
    let mut ranked = Vec::new();
    for location in candidates {
        let estimate = estimator
            .estimate_with_budget(
                &evaluator,
                std::slice::from_ref(&location),
                params,
                &RunBudget::unlimited(),
                &mut rng,
            )?
            .queries[0];
        ranked.push((location, estimate.estimate));
    }
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (location, probability) in ranked {
        println!("  {location}: {probability:.4}");
    }
    println!("\n(each location of a sensor with m readings has survival probability 1/(m+1))");
    Ok(())
}

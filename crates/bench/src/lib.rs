//! # `ucqa-bench`
//!
//! The experiment harness of the reproduction.  Every experiment of
//! `EXPERIMENTS.md` (E1–E12) is implemented as a function returning one or
//! more [`report::Table`]s with *paper value vs. measured value* rows; the
//! `experiments` binary prints them, and the Criterion benches reuse the
//! same workloads for timing.
//!
//! Run everything with
//!
//! ```text
//! cargo run -p ucqa-bench --release --bin experiments -- all
//! cargo bench -p ucqa-bench
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod experiments;
pub mod report;

pub use report::Table;

/// Fixtures shared by the experiments, the benches and the examples.
pub mod fixtures {
    use ucqa_db::{Database, FdSet, FunctionalDependency, Schema, Value};

    /// The running example of the paper (Example 3.6 / Figure 1):
    /// `D = {R(a1,b1,c1), R(a1,b2,c2), R(a2,b1,c2)}`,
    /// `Σ = {R : A → B, R : C → B}`.
    pub fn running_example() -> (Database, FdSet) {
        let mut schema = Schema::new();
        schema
            .add_relation("R", &["A", "B", "C"])
            .expect("fresh schema");
        let mut db = Database::with_schema(schema);
        for (a, b, c) in [("a1", "b1", "c1"), ("a1", "b2", "c2"), ("a2", "b1", "c2")] {
            db.insert_values("R", [Value::str(a), Value::str(b), Value::str(c)])
                .expect("schema matches");
        }
        let mut sigma = FdSet::new();
        sigma.add(
            FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).expect("valid FD"),
        );
        sigma.add(
            FunctionalDependency::from_names(db.schema(), "R", &["C"], &["B"]).expect("valid FD"),
        );
        (db, sigma)
    }

    /// The Figure 2 database: six facts over `R(A1, A2)` with the primary
    /// key `R : A1 → A2`, forming blocks of sizes 3, 1 and 2.
    pub fn figure2() -> (Database, FdSet) {
        let mut schema = Schema::new();
        schema
            .add_relation("R", &["A1", "A2"])
            .expect("fresh schema");
        let mut db = Database::with_schema(schema);
        for (a, b) in [
            ("a1", "b1"),
            ("a1", "b2"),
            ("a1", "b3"),
            ("a2", "b1"),
            ("a3", "b1"),
            ("a3", "b2"),
        ] {
            db.insert_values("R", [Value::str(a), Value::str(b)])
                .expect("schema matches");
        }
        let mut sigma = FdSet::new();
        sigma.add(
            FunctionalDependency::from_names(db.schema(), "R", &["A1"], &["A2"]).expect("valid FD"),
        );
        (db, sigma)
    }
}

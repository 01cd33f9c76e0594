//! # `ucqa-db`
//!
//! Relational database substrate for the uniform operational CQA
//! reproduction (Section 2 of the paper):
//!
//! * [`Value`] — interned constants (the countably infinite set **C**).
//! * [`Schema`], [`RelationId`], [`AttributeId`] — relation names with
//!   arities and named attributes.
//! * [`Fact`], [`FactId`], [`Database`] — facts `R(c₁,…,cₙ)` and finite
//!   sets of facts, with dense fact identifiers and per-relation indexes.
//! * [`FunctionalDependency`], [`FdSet`] — FDs `R : X → Y`, keys, primary
//!   keys, and satisfaction `D ⊨ Σ`.
//! * [`violation`] — FD violations `V(D, Σ)` (Definition 3.2).
//! * [`ConflictGraph`] — the conflict graph `CG(D, Σ)` used throughout the
//!   appendices.
//! * [`ConflictIndex`] / [`LiveOps`] — the precomputed incremental
//!   conflict index backing the O(ops)-per-step uniform-operations walk.
//! * [`RelationIndex`] — per-relation `(position, value) → fact ids`
//!   indexes, built once per database and shared across threads; the
//!   access-path backbone of the plan-based query evaluator.
//! * [`blocks`] — key blocks (facts agreeing on the key's left-hand side),
//!   the combinatorial backbone of the primary-key algorithms.
//!
//! ## Design notes
//!
//! Everything downstream identifies facts by dense [`FactId`]s into one
//! immutable [`Database`], so a *repair* is just a subset of the fact
//! universe — represented as a [`FactSet`] bitset.  The samplers of
//! `ucqa-core` write repairs into it, and the compiled-lineage entailment
//! check of `ucqa-query` probes it one witness fact id at a time
//! ([`FactSet::contains`]), so a check costs the witness's size, not
//! `|D|/64` words.  Values are interned ([`Value`]), so fact comparison
//! never touches strings on hot paths.
//!
//! Violations are *monotone under fact removal*: `V(D', Σ)` is exactly the
//! subset of `V(D, Σ)` whose two facts both survive in `D'`.  That
//! invariant is what lets [`ConflictIndex`] precompute the violation and
//! operation universe once per `(D, Σ)` and [`LiveOps`] maintain the live
//! operation sets of a uniform-operations walk with O(1) uniform picks and
//! O(degree) removals, instead of an O(|D|) rescan per step (see the
//! "Incremental conflict index" section of the README and the property
//! test cross-checking it against [`ViolationSet`] recomputation).
//!
//! A minimal end-to-end construction:
//!
//! ```
//! use ucqa_db::{Database, FdSet, FunctionalDependency, Schema, Value, ViolationSet};
//!
//! let mut schema = Schema::new();
//! schema.add_relation("R", &["A", "B"]).unwrap();
//! let mut db = Database::with_schema(schema);
//! db.insert_values("R", [Value::int(1), Value::str("x")]).unwrap();
//! db.insert_values("R", [Value::int(1), Value::str("y")]).unwrap();
//! let mut sigma = FdSet::new();
//! sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
//! assert!(!sigma.satisfied_by_database(&db));
//! assert_eq!(ViolationSet::of_database(&db, &sigma).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod blocks;
pub mod conflict_graph;
pub mod conflict_index;
pub mod database;
pub mod dictionary;
pub mod error;
pub mod fact;
pub mod fd;
pub mod relation_index;
pub mod schema;
pub mod subset;
pub mod value;
pub mod violation;

pub use blocks::{Block, BlockPartition};
pub use conflict_graph::ConflictGraph;
pub use conflict_index::{ConflictIndex, ConflictStructure, LiveOps};
pub use database::{Database, FactChange};
pub use dictionary::{Dictionary, Sym};
pub use error::DbError;
pub use fact::{Fact, FactId};
pub use fd::{FdId, FdSet, FunctionalDependency};
pub use relation_index::{intersect_postings, RelationIndex, StatsSnapshot};
pub use schema::{AttributeId, RelationId, Schema};
pub use subset::FactSet;
pub use value::Value;
pub use violation::{Violation, ViolationSet};

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use crate::{
        Block, BlockPartition, ConflictGraph, ConflictIndex, Database, DbError, Dictionary, Fact,
        FactChange, FactId, FactSet, FdId, FdSet, FunctionalDependency, LiveOps, RelationId,
        RelationIndex, Schema, StatsSnapshot, Sym, Value, Violation, ViolationSet,
    };
}

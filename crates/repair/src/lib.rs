//! # `ucqa-repair`
//!
//! The operational approach to consistent query answering (Section 3 of the
//! paper), specialised to functional dependencies:
//!
//! * [`Operation`] — fact deletions `−F` with `|F| ∈ {1, 2}`
//!   (Definition 3.1) and justifiedness (Definition 3.3).
//! * [`RepairingSequence`] — sequences of justified operations, their
//!   results, and completeness (Definition 3.4).
//! * [`RepairingTree`] — the explicit rooted tree whose nodes are the
//!   repairing sequences `RS(D, Σ)` and whose leaves are the complete
//!   sequences `CRS(D, Σ)`.
//! * [`RepairingMarkovChain`] — a repairing Markov chain (Definition 3.5):
//!   the tree together with edge probabilities, its leaf distribution and
//!   reachable leaves.
//! * [`generator`] — the uniform Markov-chain generators `M^ur`, `M^us`,
//!   `M^uo` of Section 4 / Appendix A, and their singleton-operation
//!   variants of Section 7 / Appendices D.4 and E.
//! * [`OperationalSemantics`] — operational repairs with probabilities
//!   `⟦D⟧_M` and answer probabilities `P_{M,Q}(D, c̄)`
//!   (Definitions 3.7 / 3.8).
//!
//! Everything in this crate is *exact*: probabilities are rational numbers
//! and the tree is materialised explicitly, which is exponential in `|D|`
//! by nature.  These exact constructions are what the paper's proofs reason
//! about and what the test-suite validates the polynomial samplers of
//! `ucqa-core` against; the samplers themselves never build the tree.
//!
//! ## How the pieces compose
//!
//! The entry point is a [`GeneratorSpec`]: one of the three uniform
//! semantics ([`UniformSemantics::Repairs`] `M^ur`,
//! [`UniformSemantics::Sequences`] `M^us`,
//! [`UniformSemantics::Operations`] `M^uo`), optionally restricted to
//! singleton operations (`M^{·,1}` of Section 7 / Appendix E).
//! `GeneratorSpec::build_chain` materialises the corresponding
//! [`RepairingMarkovChain`] over the explicit [`RepairingTree`] — guarded
//! by [`TreeLimits`], since the tree has `|CRS(D, Σ)|` leaves — and
//! [`OperationalSemantics::from_chain`] folds its leaf distribution into
//! the probability space `⟦D⟧_M` over operational repairs, from which
//! `answer_probability` / batched `answer_probabilities` integrate any
//! query's answer probability as an exact [`ucqa_numeric::Ratio`].
//!
//! Two invariants the test-suite leans on: every leaf distribution sums
//! to exactly `1` (checked per generator on randomised instances), and
//! the uniform generators reproduce the worked probabilities of the
//! paper's running example (`3/9, 1/9, …` — experiment E1) digit for
//! digit.  When a polynomial sampler in `ucqa-core` claims to realise a
//! generator's leaf distribution, the claim is validated against *this*
//! crate's enumeration on small instances.
//!
//! The crate also hosts [`TrustWeightedGenerator`], a beyond-the-paper
//! extension biasing operation choices by per-fact trust weights while
//! keeping the repairing-chain structure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod chain;
pub mod error;
pub mod generator;
pub mod operation;
pub mod semantics;
pub mod sequence;
pub mod tree;
pub mod weighted;

pub use chain::RepairingMarkovChain;
pub use error::RepairError;
pub use generator::{GeneratorSpec, UniformSemantics};
pub use operation::{
    justified_operations, justified_operations_from_index, Operation, OperationScratch,
};
pub use semantics::{OperationalSemantics, RepairProbability};
pub use sequence::RepairingSequence;
pub use tree::{NodeId, RepairingTree, TreeLimits};
pub use weighted::{TrustWeightedGenerator, TrustWeights};

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use crate::{
        justified_operations, GeneratorSpec, Operation, OperationalSemantics, RepairError,
        RepairingMarkovChain, RepairingSequence, RepairingTree, TreeLimits, UniformSemantics,
    };
}

//! # `ucqa-numeric`
//!
//! Exact arithmetic substrate for the uniform operational CQA reproduction.
//!
//! The counting quantities appearing in the paper (numbers of candidate
//! repairs, numbers of complete repairing sequences, the dynamic program of
//! Lemma C.1) grow factorially in the database size and overflow machine
//! integers for databases with only a few dozen facts.  The offline
//! dependency set for this project does not include `num-bigint`, so this
//! crate provides the required arithmetic from scratch:
//!
//! * [`Natural`] — an arbitrary-precision unsigned integer (base `2^32`
//!   limbs) with addition, subtraction, multiplication, division with
//!   remainder, comparison, and conversions.
//! * [`Ratio`] — an exact non-negative rational number over [`Natural`],
//!   always kept in lowest terms, used for exact repair probabilities and
//!   relative frequencies (so the paper's fractions such as `1/9`, `3/5`,
//!   `24/99` are reproduced exactly).
//! * [`combinatorics`] — factorials, binomial coefficients and falling
//!   factorials over [`Natural`].
//! * [`LogFloat`] — a non-negative real stored in log-space, used by the
//!   samplers when exact products of many probabilities would underflow
//!   `f64`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod combinatorics;
mod logfloat;
mod natural;
mod ratio;

pub use logfloat::LogFloat;
pub use natural::Natural;
pub use ratio::Ratio;

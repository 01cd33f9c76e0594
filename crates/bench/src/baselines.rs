//! Historical baselines that the benches measure the library against, kept
//! out of the library's public API and hot-path scratch.
//!
//! * [`rescan_walk_into`] — the pre-index uniform-operations walk, which
//!   recomputes the violation set from scratch on every step (O(|D|) per
//!   step, O(|D|²) per walk).  It is the baseline of the `e14` bench and
//!   an independent implementation of the leaf distribution that
//!   [`OperationWalkSampler::sample_result_into`] draws from with the
//!   incremental conflict index.
//!
//! [`OperationWalkSampler::sample_result_into`]:
//!     ucqa_core::sample_operations::OperationWalkSampler::sample_result_into

use rand::Rng;

use ucqa_db::{Database, FactId, FactSet, FdSet, ViolationSet};

/// Reusable buffers of [`rescan_walk_into`].
#[derive(Debug, Default, Clone)]
pub struct RescanScratch {
    violations: ViolationSet,
    live: Vec<FactId>,
    singles: Vec<FactId>,
    pairs: Vec<(FactId, FactId)>,
}

impl RescanScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        RescanScratch::default()
    }
}

/// One uniform-operations walk (`M^{uo}_Σ`: singleton and pair removals)
/// over `db` under `sigma`, recomputing `V(D', Σ)` on every step, with the
/// resulting repair written to `out`.
///
/// # Panics
/// Panics if `out`'s universe differs from `db.len()`.
pub fn rescan_walk_into<R: Rng + ?Sized>(
    db: &Database,
    sigma: &FdSet,
    rng: &mut R,
    out: &mut FactSet,
    scratch: &mut RescanScratch,
) {
    assert_eq!(out.universe(), db.len(), "buffer universe mismatch");
    out.fill();
    loop {
        scratch
            .violations
            .recompute(db, sigma, out, &mut scratch.live);
        if scratch.violations.is_empty() {
            return;
        }
        scratch
            .violations
            .conflicting_facts_into(&mut scratch.singles);
        scratch
            .violations
            .conflicting_pairs_into(&mut scratch.pairs);
        let choice = rng.random_range(0..scratch.singles.len() + scratch.pairs.len());
        if choice < scratch.singles.len() {
            out.remove(scratch.singles[choice]);
        } else {
            let (f, g) = scratch.pairs[choice - scratch.singles.len()];
            out.remove(f);
            out.remove(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;
    use ucqa_repair::{GeneratorSpec, OperationalSemantics, TreeLimits};

    use crate::fixtures::running_example;

    #[test]
    fn rescan_baseline_matches_exact_uniform_operations_semantics() {
        // The pre-index walk must still realise the same leaf distribution
        // (it is the measured baseline of the e14 bench).
        let (db, sigma) = running_example();
        let chain = GeneratorSpec::uniform_operations()
            .build_chain(&db, &sigma, TreeLimits::default())
            .unwrap();
        let semantics = OperationalSemantics::from_chain(&chain);
        let exact: HashMap<Vec<usize>, f64> = semantics
            .repairs()
            .iter()
            .map(|entry| {
                (
                    entry.repair.iter().map(|f| f.index()).collect(),
                    entry.probability.to_f64(),
                )
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(77);
        let mut repair = FactSet::empty(db.len());
        let mut scratch = RescanScratch::new();
        let samples = 40_000usize;
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        for _ in 0..samples {
            rescan_walk_into(&db, &sigma, &mut rng, &mut repair, &mut scratch);
            *counts
                .entry(repair.iter().map(|f| f.index()).collect())
                .or_insert(0) += 1;
        }
        assert_eq!(counts.len(), exact.len());
        for (repair, probability) in exact {
            let observed = counts.get(&repair).copied().unwrap_or(0) as f64 / samples as f64;
            assert!(
                (observed - probability).abs() < 0.02,
                "repair {repair:?}: observed {observed}, exact {probability}"
            );
        }
    }
}

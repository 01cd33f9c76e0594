//! Compact subsets of a database's facts.

use std::fmt;

use crate::FactId;

/// A subset of the facts of a fixed database, stored as a bit-set over
/// [`FactId`]s.
///
/// The repairing process of the paper only ever moves from a database `D`
/// to subsets `D' ⊆ D` (FDs are repaired by deletions only), so every
/// intermediate state of a repairing sequence, every candidate repair and
/// every operational repair is represented as a [`FactSet`] relative to the
/// original database.  Bit-sets make the per-step operations (removal,
/// membership, iteration) cheap and allocation-light.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactSet {
    words: Vec<u64>,
    universe: usize,
}

impl Default for FactSet {
    /// An empty subset of the empty universe — the state of a scratch
    /// buffer before its first `copy_from`/resize (see e.g.
    /// [`crate::LiveOps`], whose `Default` relies on this).
    fn default() -> Self {
        FactSet::empty(0)
    }
}

impl FactSet {
    /// Creates an empty subset of a universe with `universe` facts.
    pub fn empty(universe: usize) -> Self {
        FactSet {
            words: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// Creates the full subset `{0, …, universe−1}`.
    pub fn full(universe: usize) -> Self {
        let mut set = FactSet::empty(universe);
        set.fill();
        set
    }

    /// Creates a subset from an iterator of fact ids.
    pub fn from_iter(universe: usize, facts: impl IntoIterator<Item = FactId>) -> Self {
        let mut set = FactSet::empty(universe);
        for f in facts {
            set.insert(f);
        }
        set
    }

    /// The size of the universe this subset ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Returns `true` iff `fact` is a member.
    #[inline]
    pub fn contains(&self, fact: FactId) -> bool {
        let idx = fact.index();
        debug_assert!(idx < self.universe, "fact id out of range");
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Inserts `fact`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, fact: FactId) -> bool {
        let idx = fact.index();
        assert!(idx < self.universe, "fact id out of range");
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        let newly = *word & mask == 0;
        *word |= mask;
        newly
    }

    /// Removes `fact`; returns `true` if it was present.
    pub fn remove(&mut self, fact: FactId) -> bool {
        let idx = fact.index();
        assert!(idx < self.universe, "fact id out of range");
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        let present = *word & mask != 0;
        *word &= !mask;
        present
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` iff the subset is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Returns `true` iff `self ⊆ other`.
    pub fn is_subset_of(&self, other: &FactSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` iff `other ⊆ self`, i.e. `self` contains every member
    /// of `other`.
    ///
    /// A word-level scan over the whole universe (`|D|/64` AND/compare
    /// steps, however few members `other` has).  The per-draw lineage
    /// check does not use it: a `LineageBank` stores each witness as a
    /// short list of fact ids and probes them with
    /// [`FactSet::contains`].
    pub fn contains_all(&self, other: &FactSet) -> bool {
        other.is_subset_of(self)
    }

    /// Alias for [`FactSet::contains_all`] mirroring the set-theoretic name.
    pub fn is_superset_of(&self, other: &FactSet) -> bool {
        other.is_subset_of(self)
    }

    /// Removes every member, keeping the allocation.
    pub fn clear(&mut self) {
        for word in &mut self.words {
            *word = 0;
        }
    }

    /// Inserts every element of the universe, filling whole `u64` words and
    /// masking the final partial word.
    pub fn fill(&mut self) {
        for word in &mut self.words {
            *word = u64::MAX;
        }
        self.mask_tail();
    }

    /// Widens the universe to `universe` facts, keeping the membership of
    /// every existing id (new ids start absent).  Shrinking is not
    /// supported — fact ids are never reused, so universes only grow.
    pub fn grow(&mut self, universe: usize) {
        debug_assert!(
            universe >= self.universe,
            "FactSet universes only grow ({} → {universe})",
            self.universe
        );
        self.words.resize(universe.div_ceil(64), 0);
        self.universe = universe;
    }

    /// Returns `true` iff `self ∩ other` is non-empty.  The sets may have
    /// different universes: ids past the shorter universe are absent from
    /// it, so only the common word prefix is scanned.
    pub fn intersects(&self, other: &FactSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// In-place intersection: `self ← self ∩ other`.
    pub fn intersect_with(&mut self, other: &FactSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union: `self ← self ∪ other`.
    pub fn union_with(&mut self, other: &FactSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place difference: `self ← self ∖ other`.
    pub fn difference_with(&mut self, other: &FactSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Copies the contents of `other` into `self` without allocating.
    ///
    /// # Panics
    /// Panics if the universes differ.
    pub fn copy_from(&mut self, other: &FactSet) {
        assert_eq!(
            self.universe, other.universe,
            "copy_from requires equal universes"
        );
        self.words.copy_from_slice(&other.words);
    }

    /// Zeroes the bits above `universe` in the final partial word.
    fn mask_tail(&mut self) {
        let tail_bits = self.universe % 64;
        if tail_bits != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail_bits) - 1;
            }
        }
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = FactId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, word)| {
            let mut word = *word;
            std::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(FactId::new(wi * 64 + bit))
                }
            })
        })
    }

    /// Removes every fact in `facts` from the subset.
    pub fn remove_all(&mut self, facts: impl IntoIterator<Item = FactId>) {
        for f in facts {
            self.remove(f);
        }
    }

    /// Collects the members into a vector of fact ids.
    pub fn to_vec(&self) -> Vec<FactId> {
        self.iter().collect()
    }
}

impl fmt::Debug for FactSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, fact) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fact}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_full_and_membership() {
        let mut set = FactSet::empty(70);
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert!(set.insert(FactId::new(65)));
        assert!(!set.insert(FactId::new(65)));
        assert!(set.contains(FactId::new(65)));
        assert!(!set.contains(FactId::new(64)));
        assert_eq!(set.len(), 1);

        let full = FactSet::full(70);
        assert_eq!(full.len(), 70);
        assert!(set.is_subset_of(&full));
        assert!(!full.is_subset_of(&set));
    }

    #[test]
    fn remove_and_iterate() {
        let mut set = FactSet::full(10);
        assert!(set.remove(FactId::new(3)));
        assert!(!set.remove(FactId::new(3)));
        set.remove_all([FactId::new(0), FactId::new(9)]);
        let members: Vec<usize> = set.iter().map(FactId::index).collect();
        assert_eq!(members, vec![1, 2, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn subset_relation() {
        let a = FactSet::from_iter(8, [FactId::new(1), FactId::new(2)]);
        let b = FactSet::from_iter(8, [FactId::new(1), FactId::new(2), FactId::new(5)]);
        assert!(a.is_subset_of(&b));
        assert!(a.is_subset_of(&a));
        assert!(!b.is_subset_of(&a));
    }

    #[test]
    fn debug_rendering() {
        let set = FactSet::from_iter(4, [FactId::new(0), FactId::new(3)]);
        assert_eq!(format!("{set:?}"), "{f0, f3}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        let mut set = FactSet::empty(4);
        set.insert(FactId::new(4));
    }

    #[test]
    fn full_fills_words_and_masks_the_tail() {
        // Universe sizes around word boundaries: the tail word must not
        // carry bits past the universe, or len()/iter() would be wrong.
        for universe in [0usize, 1, 63, 64, 65, 127, 128, 130] {
            let full = FactSet::full(universe);
            assert_eq!(full.len(), universe, "universe {universe}");
            assert_eq!(full.iter().count(), universe, "universe {universe}");
            if universe > 0 {
                assert!(full.contains(FactId::new(universe - 1)));
            }
            let mut refilled = FactSet::empty(universe);
            refilled.fill();
            assert_eq!(refilled, full);
        }
    }

    #[test]
    fn superset_and_contains_all() {
        let a = FactSet::from_iter(100, [FactId::new(1), FactId::new(70)]);
        let b = FactSet::from_iter(100, [FactId::new(1), FactId::new(70), FactId::new(99)]);
        assert!(b.contains_all(&a));
        assert!(b.is_superset_of(&a));
        assert!(!a.contains_all(&b));
        assert!(a.contains_all(&FactSet::empty(100)));
    }

    #[test]
    fn clear_and_copy_from_reuse_the_allocation() {
        let mut set = FactSet::full(130);
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.universe(), 130);
        let other = FactSet::from_iter(130, [FactId::new(0), FactId::new(129)]);
        set.copy_from(&other);
        assert_eq!(set, other);
    }

    #[test]
    fn word_level_set_operations() {
        let mut a = FactSet::from_iter(70, [FactId::new(1), FactId::new(2), FactId::new(69)]);
        let b = FactSet::from_iter(70, [FactId::new(2), FactId::new(3), FactId::new(69)]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![FactId::new(2), FactId::new(69)]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 4);
        a.difference_with(&b);
        assert_eq!(a.to_vec(), vec![FactId::new(1)]);
    }

    #[test]
    #[should_panic(expected = "equal universes")]
    fn copy_from_rejects_mismatched_universes() {
        let mut a = FactSet::empty(10);
        a.copy_from(&FactSet::empty(11));
    }
}

//! Precomputed incremental conflict index.
//!
//! The uniform-operations walk (Lemmas 7.2 / D.7) repeatedly asks for the
//! justified operations `Ops_s(D, Σ)` of the current sub-database and then
//! removes one or two facts.  Violations are *monotone under removal*:
//! `V(D', Σ)` is exactly the subset of `V(D, Σ)` whose two facts both
//! survive in `D'`.  So instead of rescanning the database on every step
//! (O(|D|) per step, O(|D|²) per walk), the index computes `V(D, Σ)`
//! **once**, stores per-fact adjacency, and maintains the live operation
//! sets incrementally:
//!
//! * [`ConflictIndex`] — the immutable part, built once per `(D, Σ)`:
//!   the violations, CSR adjacency from each fact to the other endpoints
//!   of its violations (one neighbour per violation, so a pair violating
//!   two FDs appears twice) and to the deduplicated conflicting pairs
//!   touching it, and the singleton / pair operation universe.
//!   Shareable across threads.
//! * [`LiveOps`] — the mutable cursor owned by each walk: the live
//!   sub-database, per-fact live-violation degrees, and the live
//!   singleton/pair operation sets as dense swap-remove arrays, so a
//!   uniform pick over `Ops_s(D, Σ)` is O(1) and
//!   [`LiveOps::remove_fact`] is O(degree of the removed fact).  A walk
//!   of `M^{uo,1}` never picks a pair, so [`LiveOps::reset_singletons`]
//!   leaves the pair set empty and removals skip it.

use crate::{Database, FactChange, FactId, FactSet, FdSet, Violation, ViolationSet};

/// Sentinel marking a fact/pair as absent from its dense live array.
const NOT_LIVE: u32 = u32::MAX;

/// Merges two sorted, deduplicated, element-disjoint runs into one sorted
/// list — the linear canonicalisation step of [`ConflictIndex::refresh`].
/// Equal elements would indicate a broken disjointness invariant; they are
/// collapsed (and rejected under `debug_assertions`) so the output stays
/// canonical regardless.
fn merge_disjoint_sorted<T: Ord + Copy>(a: Vec<T>, b: Vec<T>) -> Vec<T> {
    debug_assert!(a.is_sorted() && b.is_sorted(), "runs must be sorted");
    if b.is_empty() {
        return a;
    }
    if a.is_empty() {
        return b;
    }
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                merged.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                debug_assert!(false, "the merged runs must be disjoint");
                merged.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&a[i..]);
    merged.extend_from_slice(&b[j..]);
    merged
}

/// The immutable conflict structure of `(D, Σ)`, precomputed once.
///
/// Holds `V(D, Σ)` plus the adjacency needed to maintain the justified
/// operation sets of any sub-database reached by removals.  All state that
/// changes during a walk lives in [`LiveOps`], so one `ConflictIndex` can
/// back any number of concurrent walks.
///
/// A [`ConflictIndex::build`]-created index remembers the database
/// version it describes and can be brought up to date with
/// [`ConflictIndex::refresh`], which replays the fact-level changelog
/// instead of recomputing `V(D, Σ)` from scratch; the refreshed index is
/// structurally equal to a fresh build (the property-tested oracle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictIndex {
    universe: usize,
    /// The [`Database::version`] this index describes (the changelog
    /// cursor [`ConflictIndex::refresh`] resumes from).
    version: u64,
    /// `V(D, Σ)`, canonically sorted.
    violations: Vec<Violation>,
    /// CSR offsets into [`ConflictIndex::neighbours`] (length
    /// `universe + 1`).
    neighbour_offsets: Vec<u32>,
    /// Per fact, the other endpoint of each violation touching it, in
    /// violation order — one entry per violation, so the run length is
    /// the fact's violation degree.
    neighbours: Vec<FactId>,
    /// The deduplicated conflicting pairs (the pair-operation universe),
    /// canonically sorted.
    pairs: Vec<(FactId, FactId)>,
    /// CSR offsets into [`ConflictIndex::pair_adjacency`] (length
    /// `universe + 1`).
    pair_offsets: Vec<u32>,
    /// Pair ids touching each fact.
    pair_adjacency: Vec<u32>,
    /// Facts involved in at least one violation (the singleton-operation
    /// universe), sorted.
    conflicting: Vec<FactId>,
}

impl ConflictIndex {
    /// Builds the index of `db` w.r.t. `sigma`, computing `V(D, Σ)` once.
    pub fn build(db: &Database, sigma: &FdSet) -> Self {
        let violations = ViolationSet::of_database(db, sigma);
        Self::assemble(db.len(), db.version(), violations.violations().to_vec())
    }

    /// Builds the index over `universe` facts from a precomputed violation
    /// set of the **full** database.
    ///
    /// The index carries version 0; only [`ConflictIndex::build`]-created
    /// indexes track the database version for [`ConflictIndex::refresh`].
    pub fn from_violations(universe: usize, violations: &ViolationSet) -> Self {
        Self::assemble(universe, 0, violations.violations().to_vec())
    }

    /// Assembles the CSR structure from a canonically sorted, deduplicated
    /// violation list — the shared tail of [`ConflictIndex::build`] and
    /// [`ConflictIndex::refresh`], so a refreshed index is reassembled
    /// exactly like a fresh one.
    fn assemble(universe: usize, version: u64, violations: Vec<Violation>) -> Self {
        // Deduplicated pair universe (several FDs may violate the same
        // pair).
        let mut pairs: Vec<(FactId, FactId)> = violations.iter().map(Violation::pair).collect();
        pairs.sort_unstable();
        pairs.dedup();
        Self::assemble_with_pairs(universe, version, violations, pairs)
    }

    /// As [`ConflictIndex::assemble`], with the deduplicated, sorted pair
    /// universe already computed — [`ConflictIndex::refresh`] obtains it
    /// by merging sorted runs instead of re-sorting `2|V|` pairs.
    fn assemble_with_pairs(
        universe: usize,
        version: u64,
        violations: Vec<Violation>,
        pairs: Vec<(FactId, FactId)>,
    ) -> Self {
        debug_assert!(violations.is_sorted(), "violations must be canonical");
        debug_assert!(pairs.is_sorted(), "pairs must be canonical");

        // CSR adjacency fact → violation neighbours (two passes: count,
        // fill), in violation order.
        let mut neighbour_offsets = vec![0u32; universe + 1];
        for v in &violations {
            neighbour_offsets[v.first.index() + 1] += 1;
            neighbour_offsets[v.second.index() + 1] += 1;
        }
        for i in 0..universe {
            neighbour_offsets[i + 1] += neighbour_offsets[i];
        }
        let mut neighbours = vec![FactId::new(0); violations.len() * 2];
        let mut cursor = neighbour_offsets.clone();
        for v in &violations {
            for (fact, other) in [(v.first, v.second), (v.second, v.first)] {
                neighbours[cursor[fact.index()] as usize] = other;
                cursor[fact.index()] += 1;
            }
        }

        // CSR adjacency fact → pair ids.
        let mut pair_offsets = vec![0u32; universe + 1];
        for &(a, b) in &pairs {
            pair_offsets[a.index() + 1] += 1;
            pair_offsets[b.index() + 1] += 1;
        }
        for i in 0..universe {
            pair_offsets[i + 1] += pair_offsets[i];
        }
        let mut pair_adjacency = vec![0u32; pairs.len() * 2];
        let mut cursor = pair_offsets.clone();
        for (id, &(a, b)) in pairs.iter().enumerate() {
            for fact in [a, b] {
                pair_adjacency[cursor[fact.index()] as usize] = id as u32;
                cursor[fact.index()] += 1;
            }
        }

        let conflicting: Vec<FactId> = (0..universe)
            .filter(|&f| neighbour_offsets[f + 1] > neighbour_offsets[f])
            .map(FactId::new)
            .collect();

        ConflictIndex {
            universe,
            version,
            violations,
            neighbour_offsets,
            neighbours,
            pairs,
            pair_offsets,
            pair_adjacency,
            conflicting,
        }
    }

    /// Brings a [`ConflictIndex::build`]-created index up to date with
    /// `db` by replaying the fact-level changelog since the index's
    /// version, returning the number of changes applied.
    ///
    /// Violations are *local*: a violation of the current database either
    /// survives from the old one (neither endpoint was deleted — an O(|V|)
    /// filter) or touches a fact inserted since (discovered through the
    /// maintained [`crate::RelationIndex`]'s posting runs, looking only at
    /// the blocks of the inserted facts).  Survivors keep the canonical
    /// order of the old list and a delta violation always touches a fact
    /// that did not exist at the old version, so the two runs are disjoint
    /// and a linear merge (no re-sort of `|V|` elements) canonicalises the
    /// result; the pair universe is maintained the same way.  The CSR
    /// adjacency is then reassembled, so the result is structurally equal
    /// to `ConflictIndex::build(db, sigma)` — at a cost proportional to
    /// the delta plus `|V|`, not to `|D|`.
    pub fn refresh(&mut self, db: &Database, sigma: &FdSet) -> usize {
        let changes = db.changes_since(self.version);
        if changes.is_empty() {
            return 0;
        }
        let applied = changes.len();
        // Partition the delta: tombstoned ids kill old violations;
        // still-live inserted facts may found new ones.  (A fact inserted
        // and deleted again within the window is marked deleted and
        // filtered from `inserted` by the liveness check.)
        let mut deleted = vec![false; db.len()];
        let mut inserted: Vec<FactId> = Vec::new();
        for change in changes {
            match change {
                FactChange::Inserted(id) => {
                    if db.is_live(*id) {
                        inserted.push(*id);
                    }
                }
                FactChange::Deleted { id, .. } => deleted[id.index()] = true,
            }
        }
        // The filter preserves the canonical order of the old list.
        let survivors: Vec<Violation> = self
            .violations
            .iter()
            .filter(|v| !deleted[v.first.index()] && !deleted[v.second.index()])
            .copied()
            .collect();
        // Every violation of the current database that is not a survivor
        // touches an inserted fact (two live old facts violating an FD
        // already violated it at the old version).  Probe each inserted
        // fact's LHS block through the relation index; pairs of two
        // inserted facts are discovered twice and deduplicated below.
        let mut fresh: Vec<Violation> = Vec::new();
        let index = db.relation_index();
        for &f in &inserted {
            let relation = db.relation_of(f);
            let columns = db.columns_of(relation);
            let row_f = db.row_of(f);
            for (fd_id, fd) in sigma.iter() {
                if fd.relation() != relation {
                    continue;
                }
                let mut lhs = fd.lhs().iter().map(|a| a.index());
                let first = lhs.next().expect("FDs have a non-empty LHS");
                let rest: Vec<usize> = lhs.collect();
                for &g in index.matches(relation, first, columns[first][row_f]) {
                    if g == f {
                        continue;
                    }
                    let row_g = db.row_of(g);
                    let same_lhs = rest
                        .iter()
                        .all(|&attr| columns[attr][row_g] == columns[attr][row_f]);
                    let rhs_differs = fd
                        .rhs()
                        .iter()
                        .any(|r| columns[r.index()][row_g] != columns[r.index()][row_f]);
                    if same_lhs && rhs_differs {
                        fresh.push(Violation::new(fd_id, f, g));
                    }
                }
            }
        }
        // Only the delta is sorted; the big list is reassembled by a
        // linear merge.  A fresh violation involves a fact inserted in the
        // window, and a re-inserted (revived) id is marked `deleted` — its
        // old violations left `survivors` and are rediscovered fresh — so
        // the runs never share an element.
        fresh.sort_unstable();
        fresh.dedup();
        // The pair universe keeps a pair iff both endpoints are live (then
        // every old violation on it survived) and gains the fresh pairs,
        // disjoint for the same reason.
        let surviving_pairs: Vec<(FactId, FactId)> = self
            .pairs
            .iter()
            .filter(|(a, b)| !deleted[a.index()] && !deleted[b.index()])
            .copied()
            .collect();
        let mut fresh_pairs: Vec<(FactId, FactId)> = fresh.iter().map(Violation::pair).collect();
        fresh_pairs.sort_unstable();
        fresh_pairs.dedup();
        let violations = merge_disjoint_sorted(survivors, fresh);
        let pairs = merge_disjoint_sorted(surviving_pairs, fresh_pairs);
        *self = ConflictIndex::assemble_with_pairs(db.len(), db.version(), violations, pairs);
        applied
    }

    /// The size of the fact universe.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The [`Database::version`] this index describes (0 for indexes built
    /// via [`ConflictIndex::from_violations`]).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// `V(D, Σ)` of the full database, canonically sorted.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The deduplicated pair-operation universe of the full database.
    pub fn pairs(&self) -> &[(FactId, FactId)] {
        &self.pairs
    }

    /// The singleton-operation universe of the full database: the facts
    /// involved in at least one violation, sorted.
    pub fn conflicting_facts(&self) -> &[FactId] {
        &self.conflicting
    }

    /// The number of violations touching `fact` in the full database.
    pub fn degree(&self, fact: FactId) -> usize {
        (self.neighbour_offsets[fact.index() + 1] - self.neighbour_offsets[fact.index()]) as usize
    }

    /// The other endpoint of each violation touching `fact`, in violation
    /// order (a fact violating two FDs with `fact` appears twice).
    fn neighbours_of(&self, fact: FactId) -> &[FactId] {
        let start = self.neighbour_offsets[fact.index()] as usize;
        let end = self.neighbour_offsets[fact.index() + 1] as usize;
        &self.neighbours[start..end]
    }

    /// The pair ids touching `fact`.
    fn pairs_of(&self, fact: FactId) -> &[u32] {
        let start = self.pair_offsets[fact.index()] as usize;
        let end = self.pair_offsets[fact.index() + 1] as usize;
        &self.pair_adjacency[start..end]
    }

    /// The connected components of the conflict graph: facts involved in
    /// at least one violation, grouped by reachability over conflicting
    /// pairs.  Each component is sorted ascending; components are sorted
    /// by their smallest fact id.  Conflict-free facts belong to no
    /// component (they survive every repair and play no role in the
    /// repairing process).
    pub fn components(&self) -> Vec<Vec<FactId>> {
        // Union-find over the conflicting facts, path-halving.
        let mut parent: Vec<u32> = (0..self.universe as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for &(a, b) in &self.pairs {
            let (ra, rb) = (
                find(&mut parent, a.index() as u32),
                find(&mut parent, b.index() as u32),
            );
            if ra != rb {
                let (lo, hi) = (ra.min(rb), ra.max(rb));
                parent[hi as usize] = lo;
            }
        }
        // `conflicting` is sorted, so grouping by root yields components
        // sorted ascending internally, in order of their smallest id.
        let mut by_root: std::collections::BTreeMap<u32, Vec<FactId>> = Default::default();
        for &fact in &self.conflicting {
            let root = find(&mut parent, fact.index() as u32);
            by_root.entry(root).or_default().push(fact);
        }
        by_root.into_values().collect()
    }

    /// The conflict structure of the indexed state: a stable digest of
    /// each fact's conflict component, plus a fingerprint of the whole
    /// component list.  See [`ConflictStructure`].
    pub fn structure(&self) -> ConflictStructure {
        ConflictStructure::of(self)
    }
}

/// A digest view of a [`ConflictIndex`]'s conflict-graph components,
/// built once per refresh and consumed by lineage fingerprinting.
///
/// The repair distribution a fact is subject to is determined by its
/// conflict component (under uniform repairs and uniform operations the
/// per-component marginals are independent of the rest of the database;
/// under uniform sequences they additionally depend on the global
/// component structure — see [`ConflictStructure::fingerprint`]).  Two
/// database states assign a fact equal digests iff the fact's component
/// holds the same fact ids, so an estimate that depends only on a set of
/// facts and their components can be proven unchanged across a delta by
/// comparing digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictStructure {
    /// Per fact id: a 64-bit FNV-1a digest of the sorted id-list of the
    /// fact's conflict component, or the digest of `[id]` for a
    /// conflict-free fact (its "component" is the fact alone).
    digests: Vec<u64>,
    /// A digest of the entire component list, in canonical order.
    fingerprint: u64,
}

impl ConflictStructure {
    fn of(index: &ConflictIndex) -> Self {
        let mut digests: Vec<u64> = (0..index.universe)
            .map(|id| {
                let mut h = Fnv::new();
                h.mix(1);
                h.mix(id as u64);
                h.finish()
            })
            .collect();
        let mut global = Fnv::new();
        let components = index.components();
        global.mix(components.len() as u64);
        for component in components {
            let mut h = Fnv::new();
            h.mix(component.len() as u64);
            for &fact in &component {
                h.mix(fact.index() as u64);
            }
            let digest = h.finish();
            global.mix(digest);
            for &fact in &component {
                digests[fact.index()] = digest;
            }
        }
        ConflictStructure {
            digests,
            fingerprint: global.finish(),
        }
    }

    /// The component digest of `fact` (the digest of `[fact]` itself if
    /// it conflicts with nothing).
    pub fn digest(&self, fact: FactId) -> u64 {
        self.digests[fact.index()]
    }

    /// A fingerprint of the whole conflict-component structure: equal
    /// across two states iff they hold the same components over the same
    /// fact ids.  Conflict-free facts do not participate, so consistent
    /// churn leaves the fingerprint intact.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// A minimal incremental FNV-1a hasher over little-endian `u64` words.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn mix(&mut self, value: u64) {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// The mutable state of one walk over a [`ConflictIndex`]: the live
/// sub-database plus the live operation sets `Ops_s(D, Σ)`, maintained
/// incrementally under fact removal.
///
/// The singleton set holds the live facts with at least one live violation;
/// the pair set holds the pair ids whose two facts are both live.  Both are
/// dense arrays with positional back-pointers, so membership updates are
/// O(1) swap-removes and a uniform draw is a single `random_range` plus an
/// array read.  After [`LiveOps::reset_singletons`] the pair set is not
/// tracked at all (it stays empty): the walk of `M^{uo,1}` never reads it.
///
/// A default-constructed `LiveOps` owns no buffers; the first reset sizes
/// them, and later resets reuse the allocations (the walk hot loop is
/// allocation-free).
#[derive(Debug, Clone, Default)]
pub struct LiveOps {
    /// The live sub-database `D'`.
    live: FactSet,
    /// Per fact: number of live violations touching it.
    degree: Vec<u32>,
    /// Dense array of live singleton operations (facts with `degree > 0`).
    singles: Vec<FactId>,
    /// Per fact: its position in `singles`, or [`NOT_LIVE`].
    single_pos: Vec<u32>,
    /// Dense array of live pair operations (pair ids).
    pairs: Vec<u32>,
    /// Per pair id: its position in `pairs`, or [`NOT_LIVE`].
    pair_pos: Vec<u32>,
    /// Whether the pair set is maintained (`false` after
    /// [`LiveOps::reset_singletons`]).
    track_pairs: bool,
}

impl LiveOps {
    /// Creates an empty cursor (no buffers allocated yet).
    pub fn new() -> Self {
        LiveOps::default()
    }

    /// Clears any state left by a previous (possibly abandoned) walk,
    /// restoring the invariant that every `single_pos`/`pair_pos` entry is
    /// [`NOT_LIVE`] and every degree is zero.  O(current live operations) —
    /// the positional arrays are only ever written through `singles` /
    /// `pairs`, so clearing those entries suffices even when the next
    /// reset targets a **different** [`ConflictIndex`].
    fn clear_stale(&mut self) {
        for &fact in &self.singles {
            self.single_pos[fact.index()] = NOT_LIVE;
            self.degree[fact.index()] = 0;
        }
        self.singles.clear();
        for &pair in &self.pairs {
            self.pair_pos[pair as usize] = NOT_LIVE;
        }
        self.pairs.clear();
    }

    /// Resizes the per-fact buffers to match `index` (idempotent), and
    /// the per-pair ones too when `pairs` is set.
    fn ensure_capacity(&mut self, index: &ConflictIndex, pairs: bool) {
        if self.live.universe() != index.universe {
            self.live = FactSet::empty(index.universe);
            self.degree = vec![0; index.universe];
            self.single_pos = vec![NOT_LIVE; index.universe];
        }
        if pairs && self.pair_pos.len() != index.pairs.len() {
            self.pair_pos = vec![NOT_LIVE; index.pairs.len()];
        }
    }

    /// Resets to the full database: every fact live, every operation of the
    /// universe available.  O(conflicting facts + pairs + |D|/64).
    pub fn reset_full(&mut self, index: &ConflictIndex) {
        self.reset_live_singles(index, true);
        for pair in 0..index.pairs.len() as u32 {
            self.pair_pos[pair as usize] = pair;
            self.pairs.push(pair);
        }
    }

    /// Resets to the full database for a singleton-only walk
    /// (`M^{uo,1}`): every fact live and every singleton operation
    /// available, while the pair set is neither filled nor maintained —
    /// [`LiveOps::pair_count`] stays 0 until the next
    /// [`LiveOps::reset_full`]/[`LiveOps::reset_to`].  The singleton set
    /// evolves exactly as after [`LiveOps::reset_full`], in the same
    /// order.  O(conflicting facts + |D|/64).
    pub fn reset_singletons(&mut self, index: &ConflictIndex) {
        self.reset_live_singles(index, false);
    }

    /// The shared head of the full resets: every fact live, every
    /// conflicting fact a live singleton with its full degree, and the
    /// pair set empty (to be filled by the caller iff `pairs`).
    fn reset_live_singles(&mut self, index: &ConflictIndex, pairs: bool) {
        self.clear_stale();
        self.ensure_capacity(index, pairs);
        self.track_pairs = pairs;
        self.live.fill();
        for (position, &fact) in index.conflicting.iter().enumerate() {
            self.degree[fact.index()] = index.degree(fact) as u32;
            self.single_pos[fact.index()] = position as u32;
            self.singles.push(fact);
        }
    }

    /// Resets to an arbitrary sub-database `subset ⊆ D`.  O(|V(D, Σ)| +
    /// conflicting facts + pairs); used by the diagnostics APIs, not by the
    /// walk hot loop.
    ///
    /// # Panics
    /// Panics if `subset`'s universe differs from the index's.
    pub fn reset_to(&mut self, index: &ConflictIndex, subset: &FactSet) {
        assert_eq!(
            subset.universe(),
            index.universe,
            "subset universe mismatch"
        );
        self.clear_stale();
        self.ensure_capacity(index, true);
        self.track_pairs = true;
        self.live.copy_from(subset);
        for v in &index.violations {
            if self.live.contains(v.first) && self.live.contains(v.second) {
                self.degree[v.first.index()] += 1;
                self.degree[v.second.index()] += 1;
            }
        }
        for &fact in &index.conflicting {
            if self.degree[fact.index()] > 0 {
                self.single_pos[fact.index()] = self.singles.len() as u32;
                self.singles.push(fact);
            }
        }
        for (pair, &(a, b)) in index.pairs.iter().enumerate() {
            if self.live.contains(a) && self.live.contains(b) {
                self.pair_pos[pair] = self.pairs.len() as u32;
                self.pairs.push(pair as u32);
            }
        }
    }

    /// Removes a live fact, updating the live operation sets in O(degree):
    /// every violation and pair touching the fact dies, and singleton
    /// neighbours whose last live violation died leave the singleton set.
    ///
    /// # Panics
    /// Panics if `fact` is not live.
    pub fn remove_fact(&mut self, index: &ConflictIndex, fact: FactId) {
        let was_live = self.live.remove(fact);
        assert!(was_live, "removed a fact that is not live");
        self.retire_single(fact);
        self.degree[fact.index()] = 0;
        for &other in index.neighbours_of(fact) {
            // The violation was live iff the other endpoint still is (the
            // removed fact was live until this call), and a fact has a
            // positive degree iff it is live with a live violation — so
            // the degree alone answers, without a probe of `live`.
            let degree = &mut self.degree[other.index()];
            if *degree > 0 {
                *degree -= 1;
                if *degree == 0 {
                    self.retire_single(other);
                }
            }
        }
        if self.track_pairs {
            for &pair in index.pairs_of(fact) {
                self.retire_pair(pair);
            }
        }
    }

    /// Swap-removes `fact` from the singleton set, if present.
    fn retire_single(&mut self, fact: FactId) {
        let position = self.single_pos[fact.index()];
        if position == NOT_LIVE {
            return;
        }
        self.single_pos[fact.index()] = NOT_LIVE;
        let last = self.singles.pop().expect("a positioned fact is present");
        if (position as usize) < self.singles.len() {
            self.singles[position as usize] = last;
            self.single_pos[last.index()] = position;
        }
    }

    /// Swap-removes a pair id from the pair set, if present.
    fn retire_pair(&mut self, pair: u32) {
        let position = self.pair_pos[pair as usize];
        if position == NOT_LIVE {
            return;
        }
        self.pair_pos[pair as usize] = NOT_LIVE;
        let last = self.pairs.pop().expect("a positioned pair is present");
        if (position as usize) < self.pairs.len() {
            self.pairs[position as usize] = last;
            self.pair_pos[last as usize] = position;
        }
    }

    /// The live sub-database `D'`.
    pub fn live(&self) -> &FactSet {
        &self.live
    }

    /// Number of live singleton operations (= live conflicting facts).
    pub fn single_count(&self) -> usize {
        self.singles.len()
    }

    /// Number of live pair operations.
    pub fn pair_count(&self) -> usize {
        self.pairs.len()
    }

    /// The `i`-th live singleton operation (arbitrary but stable order
    /// between mutations).
    pub fn single(&self, i: usize) -> FactId {
        self.singles[i]
    }

    /// The `i`-th live pair operation.
    pub fn pair(&self, index: &ConflictIndex, i: usize) -> (FactId, FactId) {
        index.pairs[self.pairs[i] as usize]
    }

    /// The live singleton operations (unsorted).
    pub fn live_singles(&self) -> &[FactId] {
        &self.singles
    }

    /// The live pair operations (unsorted), resolved against the index.
    pub fn live_pairs<'a>(
        &'a self,
        index: &'a ConflictIndex,
    ) -> impl Iterator<Item = (FactId, FactId)> + 'a {
        self.pairs.iter().map(|&p| index.pairs[p as usize])
    }

    /// Returns `true` iff the live sub-database is consistent, i.e. no
    /// justified operation remains.
    pub fn is_consistent(&self) -> bool {
        self.singles.is_empty()
    }

    /// The live violations, i.e. `V(D', Σ)` for the current sub-database
    /// (for diagnostics and cross-checking tests).
    pub fn live_violations<'a>(
        &'a self,
        index: &'a ConflictIndex,
    ) -> impl Iterator<Item = &'a Violation> + 'a {
        index
            .violations
            .iter()
            .filter(|v| self.live.contains(v.first) && self.live.contains(v.second))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, FunctionalDependency, Schema, Value};

    /// The running example of the paper (Example 3.6).
    fn running_example() -> (Database, FdSet) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B", "C"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("R", [Value::str("a1"), Value::str("b1"), Value::str("c1")])
            .unwrap();
        db.insert_values("R", [Value::str("a1"), Value::str("b2"), Value::str("c2")])
            .unwrap();
        db.insert_values("R", [Value::str("a2"), Value::str("b1"), Value::str("c2")])
            .unwrap();
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["C"], &["B"]).unwrap());
        (db, sigma)
    }

    /// Sorted copies of the live operation sets.
    fn sorted_state(index: &ConflictIndex, ops: &LiveOps) -> (Vec<FactId>, Vec<(FactId, FactId)>) {
        let mut singles = ops.live_singles().to_vec();
        singles.sort();
        let mut pairs: Vec<(FactId, FactId)> = ops.live_pairs(index).collect();
        pairs.sort();
        (singles, pairs)
    }

    #[test]
    fn full_reset_matches_figure1_root_operations() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        assert_eq!(index.universe(), 3);
        assert_eq!(index.violations().len(), 2);
        assert_eq!(index.pairs().len(), 2);
        let mut ops = LiveOps::new();
        ops.reset_full(&index);
        // Root of Figure 1: -f1, -f2, -f3, -{f1,f2}, -{f2,f3}.
        let (singles, pairs) = sorted_state(&index, &ops);
        assert_eq!(
            singles,
            vec![FactId::new(0), FactId::new(1), FactId::new(2)]
        );
        assert_eq!(
            pairs,
            vec![
                (FactId::new(0), FactId::new(1)),
                (FactId::new(1), FactId::new(2))
            ]
        );
        assert!(!ops.is_consistent());
        assert_eq!(ops.live_violations(&index).count(), 2);
    }

    #[test]
    fn removing_the_middle_fact_kills_everything() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        let mut ops = LiveOps::new();
        ops.reset_full(&index);
        // f2 (id 1) is in both violations; removing it repairs the
        // database in one step.
        ops.remove_fact(&index, FactId::new(1));
        assert!(ops.is_consistent());
        assert_eq!(ops.single_count(), 0);
        assert_eq!(ops.pair_count(), 0);
        assert_eq!(ops.live().len(), 2);
        assert_eq!(ops.live_violations(&index).count(), 0);
    }

    #[test]
    fn removing_an_endpoint_keeps_the_other_violation() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        let mut ops = LiveOps::new();
        ops.reset_full(&index);
        // Removing f1 kills the φ1 violation {f1, f2}; {f2, f3} survives.
        ops.remove_fact(&index, FactId::new(0));
        assert!(!ops.is_consistent());
        let (singles, pairs) = sorted_state(&index, &ops);
        assert_eq!(singles, vec![FactId::new(1), FactId::new(2)]);
        assert_eq!(pairs, vec![(FactId::new(1), FactId::new(2))]);
        assert_eq!(ops.pair(&index, 0), (FactId::new(1), FactId::new(2)));
    }

    #[test]
    fn reset_to_matches_recompute_on_all_subsets() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        let mut ops = LiveOps::new();
        for mask in 0u32..(1 << db.len()) {
            let subset = FactSet::from_iter(
                db.len(),
                (0..db.len())
                    .filter(|i| (mask >> i) & 1 == 1)
                    .map(FactId::new),
            );
            ops.reset_to(&index, &subset);
            let violations = ViolationSet::compute(&db, &sigma, &subset);
            let (singles, pairs) = sorted_state(&index, &ops);
            assert_eq!(singles, violations.conflicting_facts(), "mask {mask:b}");
            assert_eq!(pairs, violations.conflicting_pairs(), "mask {mask:b}");
        }
    }

    #[test]
    fn incremental_removal_matches_recompute() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        let mut ops = LiveOps::new();
        // Remove facts one at a time in every order; after each removal the
        // incremental state must match a from-scratch recompute.
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [2, 1, 0], [2, 0, 1]] {
            ops.reset_full(&index);
            let mut subset = db.all_facts();
            for fact in order {
                ops.remove_fact(&index, FactId::new(fact));
                subset.remove(FactId::new(fact));
                let violations = ViolationSet::compute(&db, &sigma, &subset);
                let (singles, pairs) = sorted_state(&index, &ops);
                assert_eq!(singles, violations.conflicting_facts(), "order {order:?}");
                assert_eq!(pairs, violations.conflicting_pairs(), "order {order:?}");
                assert_eq!(ops.live(), &subset);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn double_removal_panics() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        let mut ops = LiveOps::new();
        ops.reset_full(&index);
        ops.remove_fact(&index, FactId::new(0));
        ops.remove_fact(&index, FactId::new(0));
    }

    #[test]
    fn same_pair_violating_two_fds_is_one_pair_operation() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("R", [Value::int(1), Value::int(1)])
            .unwrap();
        db.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["A", "B"]).unwrap());
        let index = ConflictIndex::build(&db, &sigma);
        assert_eq!(index.violations().len(), 2);
        assert_eq!(index.pairs().len(), 1);
        let mut ops = LiveOps::new();
        ops.reset_full(&index);
        assert_eq!(ops.single_count(), 2);
        assert_eq!(ops.pair_count(), 1);
        // Both violations die with one endpoint; the pair dies too, and the
        // surviving fact must leave the singleton set exactly once (its
        // degree was 2).
        ops.remove_fact(&index, FactId::new(0));
        assert!(ops.is_consistent());
        assert_eq!(ops.pair_count(), 0);
    }

    #[test]
    fn abandoned_walk_state_does_not_leak_across_indexes() {
        // An abandoned mid-walk cursor reset against a *different* index of
        // the same universe must not inherit stale positions or degrees.
        let (db_a, sigma_a) = running_example();
        let index_a = ConflictIndex::build(&db_a, &sigma_a);
        // Same universe (3 facts), different conflict structure: only
        // f0/f1 conflict under A → B, f2 is conflict-free.
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db_b = Database::with_schema(schema);
        db_b.insert_values("R", [Value::int(1), Value::int(1)])
            .unwrap();
        db_b.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        db_b.insert_values("R", [Value::int(2), Value::int(1)])
            .unwrap();
        let mut sigma_b = FdSet::new();
        sigma_b.add(FunctionalDependency::from_names(db_b.schema(), "R", &["A"], &["B"]).unwrap());
        let index_b = ConflictIndex::build(&db_b, &sigma_b);

        let mut reused = LiveOps::new();
        reused.reset_full(&index_a);
        // Abandon mid-walk: f2 still live with stale position/degree.
        reused.remove_fact(&index_a, FactId::new(0));
        reused.reset_full(&index_b);
        let mut fresh = LiveOps::new();
        fresh.reset_full(&index_b);
        let (reused_state, fresh_state) = (
            sorted_state(&index_b, &reused),
            sorted_state(&index_b, &fresh),
        );
        assert_eq!(reused_state, fresh_state);
        // Removing the conflict-free fact must leave the singles intact.
        reused.remove_fact(&index_b, FactId::new(2));
        assert_eq!(reused.single_count(), 2);
        assert_eq!(reused.pair_count(), 1);
        // And reset_to after an abandoned walk is clean as well.
        reused.reset_to(&index_a, &db_a.all_facts());
        fresh.reset_to(&index_a, &db_a.all_facts());
        assert_eq!(
            sorted_state(&index_a, &reused),
            sorted_state(&index_a, &fresh)
        );
    }

    #[test]
    fn refresh_replays_the_changelog_and_matches_a_fresh_build() {
        let (mut db, sigma) = running_example();
        let mut index = ConflictIndex::build(&db, &sigma);
        assert_eq!(index.version(), db.version());
        // Nothing changed: refresh is a no-op.
        assert_eq!(index.refresh(&db, &sigma), 0);

        // Insert a fact extending the a1-block (new violations against f1
        // and f2) and delete f3 (kills the φ2 violation {f2, f3}).
        db.insert_values("R", [Value::str("a1"), Value::str("b3"), Value::str("c3")])
            .unwrap();
        db.delete(FactId::new(2)).unwrap();
        assert_eq!(index.refresh(&db, &sigma), 2);
        assert_eq!(index, ConflictIndex::build(&db, &sigma));
        assert_eq!(index.universe(), 4);
        // {f1, f4} under φ1 (b1 ≠ b3), {f2, f4} under φ1 (b2 ≠ b3); the
        // old {f1, f2} survives; {f2, f3} died with f3.
        assert_eq!(index.violations().len(), 3);
        assert!(index
            .violations()
            .iter()
            .all(|v| !v.involves(FactId::new(2))));

        // A fact inserted and deleted again within the window leaves no
        // trace, and a second refresh from the new cursor is a no-op.
        let ephemeral = db
            .insert_values("R", [Value::str("a9"), Value::str("x"), Value::str("y")])
            .unwrap();
        db.delete(ephemeral).unwrap();
        assert_eq!(index.refresh(&db, &sigma), 2);
        assert_eq!(index, ConflictIndex::build(&db, &sigma));
        assert_eq!(index.refresh(&db, &sigma), 0);

        // A refreshed index backs walks exactly like a fresh one.
        let mut ops = LiveOps::new();
        ops.reset_full(&index);
        assert!(!ops.is_consistent());
    }

    #[test]
    fn refresh_discovers_composite_lhs_violations() {
        // FD with a two-attribute LHS: the refresh probe filters the first
        // attribute's posting run by the remaining LHS columns.
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B", "C"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("R", [Value::int(1), Value::int(1), Value::int(1)])
            .unwrap();
        // Same A, different B: agrees on A but not on the full LHS {A, B}.
        db.insert_values("R", [Value::int(1), Value::int(2), Value::int(2)])
            .unwrap();
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A", "B"], &["C"]).unwrap());
        let mut index = ConflictIndex::build(&db, &sigma);
        assert!(index.violations().is_empty());
        // Full LHS match with differing RHS: one new violation against f0.
        db.insert_values("R", [Value::int(1), Value::int(1), Value::int(3)])
            .unwrap();
        index.refresh(&db, &sigma);
        assert_eq!(index, ConflictIndex::build(&db, &sigma));
        assert_eq!(index.violations().len(), 1);
        assert_eq!(
            index.violations()[0].pair(),
            (FactId::new(0), FactId::new(2))
        );
    }

    /// Asserts that each fact's neighbour run lists the other endpoint of
    /// every violation touching it, in violation order, multiplicity
    /// included — and that its length is the fact's degree.
    fn assert_neighbour_runs_match_violations(index: &ConflictIndex) {
        for f in 0..index.universe() {
            let fact = FactId::new(f);
            let expected: Vec<FactId> = index
                .violations()
                .iter()
                .filter(|v| v.involves(fact))
                .map(|v| if v.first == fact { v.second } else { v.first })
                .collect();
            assert_eq!(index.neighbours_of(fact), expected.as_slice(), "fact {f}");
            assert_eq!(index.degree(fact), expected.len(), "fact {f}");
        }
    }

    #[test]
    fn neighbour_runs_list_violation_endpoints_after_build_and_refresh() {
        let (mut db, mut sigma) = running_example();
        // A third FD violated by the same pair as A → B: the neighbour
        // then appears once per violation.
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B", "C"]).unwrap());
        let mut index = ConflictIndex::build(&db, &sigma);
        assert_eq!(index.neighbours_of(FactId::new(0)), &[FactId::new(1); 2]);
        assert_neighbour_runs_match_violations(&index);

        db.insert_values("R", [Value::str("a1"), Value::str("b3"), Value::str("c2")])
            .unwrap();
        db.delete(FactId::new(0)).unwrap();
        db.insert_values("R", [Value::str("a2"), Value::str("b2"), Value::str("c9")])
            .unwrap();
        index.refresh(&db, &sigma);
        assert_eq!(index, ConflictIndex::build(&db, &sigma));
        assert_neighbour_runs_match_violations(&index);
        assert!(index.neighbours_of(FactId::new(0)).is_empty());
    }

    #[test]
    fn singleton_reset_leaves_the_pair_set_untracked() {
        let (db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        let mut ops = LiveOps::new();
        ops.reset_singletons(&index);
        assert_eq!(ops.live_singles(), index.conflicting_facts());
        assert_eq!(ops.pair_count(), 0);
        ops.remove_fact(&index, FactId::new(0));
        assert_eq!(ops.pair_count(), 0);
        let (singles, _) = sorted_state(&index, &ops);
        assert_eq!(singles, vec![FactId::new(1), FactId::new(2)]);
        // A full reset on the same cursor tracks pairs again, and a
        // singleton reset after an abandoned full walk drops them.
        ops.reset_full(&index);
        assert_eq!(ops.pair_count(), 2);
        ops.remove_fact(&index, FactId::new(2));
        ops.reset_singletons(&index);
        assert_eq!(ops.pair_count(), 0);
        assert_eq!(ops.single_count(), 3);
        ops.remove_fact(&index, FactId::new(1));
        assert!(ops.is_consistent());
    }

    #[test]
    fn consistent_database_has_empty_operation_universe() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("R", [Value::int(1), Value::int(1)])
            .unwrap();
        db.insert_values("R", [Value::int(2), Value::int(1)])
            .unwrap();
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        let index = ConflictIndex::build(&db, &sigma);
        assert!(index.violations().is_empty());
        assert!(index.conflicting_facts().is_empty());
        let mut ops = LiveOps::new();
        ops.reset_full(&index);
        assert!(ops.is_consistent());
        assert_eq!(ops.live().len(), 2);
    }

    #[test]
    fn components_group_facts_by_conflict_reachability() {
        // f1 –(A→B)– f2 –(C→B)– f3: one component, not a clique.
        let (mut db, sigma) = running_example();
        let index = ConflictIndex::build(&db, &sigma);
        assert_eq!(
            index.components(),
            vec![vec![FactId::new(0), FactId::new(1), FactId::new(2)]]
        );

        // A conflict-free fact joins no component and leaves the
        // structure fingerprint intact, but carries its own digest.
        let before = index.structure();
        db.insert_values("R", [Value::str("a9"), Value::str("b9"), Value::str("c9")])
            .unwrap();
        let mut index = index;
        index.refresh(&db, &sigma);
        let after = index.structure();
        assert_eq!(index.components().len(), 1);
        assert_eq!(before.fingerprint(), after.fingerprint());
        for f in 0..3 {
            assert_eq!(before.digest(FactId::new(f)), after.digest(FactId::new(f)));
        }

        // A fact that conflicts with f3 (same C, different B) extends the
        // component: every member's digest and the fingerprint move.
        db.insert_values("R", [Value::str("a2"), Value::str("b7"), Value::str("c2")])
            .unwrap();
        index.refresh(&db, &sigma);
        let grown = index.structure();
        assert_ne!(after.fingerprint(), grown.fingerprint());
        assert_ne!(after.digest(FactId::new(2)), grown.digest(FactId::new(2)));
        // The refreshed structure matches a from-scratch build.
        assert_eq!(grown, ConflictIndex::build(&db, &sigma).structure());
    }
}

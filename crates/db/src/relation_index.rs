//! Per-relation symbol indexes: `(position, symbol) → fact ids` as dense
//! sorted runs.
//!
//! The plan-based witness enumeration of `ucqa-query` replaces the naive
//! "scan the whole relation per atom" join with indexed lookups: an atom
//! whose term at some position is already bound (a constant, or a variable
//! bound by an earlier join step) only has to look at the facts carrying
//! that symbol at that position.  [`RelationIndex`] materialises those
//! posting lists **once per database** in CSR form — per (relation,
//! position) one flat `Vec<FactId>` of ascending runs plus an offset array
//! indexed directly by [`Sym`] — so a probe is two array reads and a
//! slice, with no `HashMap<Value, _>` on the path.  The index is immutable
//! afterwards and shared across threads exactly like
//! [`crate::ConflictIndex`].
//!
//! [`crate::Database::relation_index`] builds the index lazily on first
//! use and caches it behind an `Arc`; once built, the cache is
//! *maintained*: database mutations patch it with fact-level deltas
//! (the crate-private `RelationIndex::apply_insert` /
//! `RelationIndex::apply_delete`)
//! instead of invalidating it, and a delta-maintained index is
//! structurally equal to a fresh [`RelationIndex::build`] (the rebuild is
//! the property-tested oracle).  Posting runs preserve insertion order of
//! the underlying fact ids (ascending), so enumeration orders are
//! deterministic — the counting-sort fill visits facts in id order, which
//! also makes the runs valid inputs for [`intersect_postings`].

use crate::{Database, FactId, RelationId, Sym, Value};

/// The posting lists of one `(relation, position)` pair in CSR form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PostingColumn {
    /// `offsets[sym.index()] .. offsets[sym.index() + 1]` delimits the run
    /// of `facts` carrying `sym`; length `sym_bound + 1`.
    offsets: Vec<u32>,
    /// All fact ids of the relation, grouped by symbol, ascending within
    /// each group.
    facts: Vec<FactId>,
    /// Number of distinct symbols with a non-empty run.
    distinct: u32,
}

impl PostingColumn {
    #[inline]
    fn run(&self, sym: Sym) -> &[FactId] {
        let i = sym.index();
        if i + 1 >= self.offsets.len() {
            // A symbol interned after this index was built (or by a
            // sibling database) matches no indexed fact.
            return &[];
        }
        &self.facts[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Immutable per-relation CSR indexes from `(position, symbol)` to the
/// ids of the facts carrying that symbol at that position.
///
/// Built once per [`Database`] (see [`Database::relation_index`]) and
/// shared across threads; all lookups return borrowed slices, so the
/// query-evaluation hot path performs no allocation.  The cardinality
/// accessors ([`RelationIndex::posting_len`],
/// [`RelationIndex::distinct_count`],
/// [`RelationIndex::relation_cardinality`]) expose the exact statistics
/// the join planner uses for selectivity-based ordering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelationIndex {
    /// `columns[relation][position]`: symbol → ascending fact-id run.
    columns: Vec<Vec<PostingColumn>>,
    /// Facts per relation (for planner cardinality estimates).
    cardinalities: Vec<u32>,
}

impl RelationIndex {
    /// Builds the index of `db`: one counting-sort pass per column.
    pub fn build(db: &Database) -> Self {
        let schema = db.schema();
        let sym_bound = db.dictionary().len();
        let mut columns: Vec<Vec<PostingColumn>> = Vec::with_capacity(schema.relation_count());
        let mut cardinalities = Vec::with_capacity(schema.relation_count());
        for relation in schema.relation_ids() {
            let ids = db.facts_of(relation);
            cardinalities.push(ids.len() as u32);
            let mut relation_columns = Vec::with_capacity(schema.arity(relation));
            for column in db.columns_of(relation) {
                // Count, prefix-sum, fill — visiting rows in ascending
                // fact-id order keeps every run ascending.
                let mut offsets = vec![0u32; sym_bound + 1];
                for &sym in column {
                    offsets[sym.index() + 1] += 1;
                }
                let distinct = offsets.iter().filter(|&&n| n > 0).count() as u32;
                for i in 0..sym_bound {
                    offsets[i + 1] += offsets[i];
                }
                let mut facts = vec![FactId::new(0); column.len()];
                let mut cursor = offsets.clone();
                for (row, &sym) in column.iter().enumerate() {
                    facts[cursor[sym.index()] as usize] = ids[row];
                    cursor[sym.index()] += 1;
                }
                relation_columns.push(PostingColumn {
                    offsets,
                    facts,
                    distinct,
                });
            }
            columns.push(relation_columns);
        }
        RelationIndex {
            columns,
            cardinalities,
        }
    }

    /// Iterates the non-empty posting runs of `(relation, position)` in
    /// symbol order.  Each run is the ascending id list of the facts
    /// sharing one symbol at that position — i.e. the runs partition the
    /// relation into its groups of equal `position`-values, which is what
    /// the FD violation scan consumes for single-attribute left-hand
    /// sides.
    ///
    /// # Panics
    /// Panics if `relation` or `position` is out of range for the indexed
    /// database.
    pub fn posting_runs(
        &self,
        relation: RelationId,
        position: usize,
    ) -> impl Iterator<Item = &[FactId]> + '_ {
        let column = &self.columns[relation.index()][position];
        column
            .offsets
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(move |w| &column.facts[w[0] as usize..w[1] as usize])
    }

    /// The ids of the facts of `relation` whose symbol at `position` equals
    /// `sym`, in ascending id order (empty if no fact matches, including
    /// for symbols interned after this index was built).
    ///
    /// # Panics
    /// Panics if `relation` or `position` is out of range for the indexed
    /// database.
    #[inline]
    pub fn matches(&self, relation: RelationId, position: usize, sym: Sym) -> &[FactId] {
        self.columns[relation.index()][position].run(sym)
    }

    /// Value-level probe: resolves `value` through `dict` and returns its
    /// posting run (empty when the value was never interned — it then
    /// occurs in no fact).
    pub fn matches_value(
        &self,
        dict: &crate::Dictionary,
        relation: RelationId,
        position: usize,
        value: &Value,
    ) -> &[FactId] {
        match dict.lookup(value) {
            Some(sym) => self.matches(relation, position, sym),
            None => &[],
        }
    }

    /// The exact length of the posting run of `sym` at
    /// `(relation, position)` — the statistic the join planner uses to
    /// break atom-order ties.
    #[inline]
    pub fn posting_len(&self, relation: RelationId, position: usize, sym: Sym) -> usize {
        self.matches(relation, position, sym).len()
    }

    /// Alias of [`RelationIndex::posting_len`] kept for the run-time
    /// access-path choice in `ucqa-query`.
    pub fn selectivity(&self, relation: RelationId, position: usize, sym: Sym) -> usize {
        self.posting_len(relation, position, sym)
    }

    /// Number of distinct symbols with at least one fact at
    /// `(relation, position)`.
    #[inline]
    pub fn distinct_count(&self, relation: RelationId, position: usize) -> usize {
        self.columns[relation.index()][position].distinct as usize
    }

    /// Alias of [`RelationIndex::distinct_count`] (pre-encoding name).
    pub fn distinct_values(&self, relation: RelationId, position: usize) -> usize {
        self.distinct_count(relation, position)
    }

    /// Number of facts of `relation`.
    #[inline]
    pub fn relation_cardinality(&self, relation: RelationId) -> usize {
        self.cardinalities[relation.index()] as usize
    }

    /// Total number of posting entries across all relations and positions
    /// (= Σ relation arity × fact count; a size diagnostic).
    pub fn posting_entries(&self) -> usize {
        self.columns
            .iter()
            .flatten()
            .map(|column| column.facts.len())
            .sum()
    }

    /// Extends every column's offset array to cover symbols `< bound`,
    /// repeating the final offset (new symbols have empty runs).
    ///
    /// [`RelationIndex::build`] sizes every offset array to the *global*
    /// dictionary bound, so a delta-maintained index must grow its arrays
    /// the same way whenever a mutation interned new constants — otherwise
    /// it could never be structurally equal to a fresh rebuild.
    pub(crate) fn ensure_sym_bound(&mut self, bound: usize) {
        for column in self.columns.iter_mut().flatten() {
            let tail = column.offsets.last().copied().unwrap_or(0);
            if column.offsets.is_empty() {
                column.offsets.push(0);
            }
            while column.offsets.len() < bound + 1 {
                column.offsets.push(tail);
            }
        }
    }

    /// Applies the insertion of fact `id` with symbols `row` into
    /// `relation`: appends `id` to the posting run of each
    /// `(position, symbol)` pair and bumps the relation cardinality.
    ///
    /// `id` must be a *newly assigned* fact id — greater than every id
    /// already indexed — so appending at the end of each run preserves the
    /// ascending-run invariant.  Callers must have called
    /// [`RelationIndex::ensure_sym_bound`] first if the insertion interned
    /// new constants.
    pub(crate) fn apply_insert(&mut self, relation: RelationId, row: &[Sym], id: FactId) {
        self.cardinalities[relation.index()] += 1;
        for (position, &sym) in row.iter().enumerate() {
            let column = &mut self.columns[relation.index()][position];
            let s = sym.index();
            debug_assert!(
                s + 1 < column.offsets.len(),
                "apply_insert without ensure_sym_bound: {sym} out of range"
            );
            let end = column.offsets[s + 1] as usize;
            if column.offsets[s] as usize == end {
                column.distinct += 1;
            }
            debug_assert!(
                end == 0 || column.facts[end - 1] < id,
                "inserted fact id must exceed every indexed id of its run"
            );
            column.facts.insert(end, id);
            for offset in &mut column.offsets[s + 1..] {
                *offset += 1;
            }
        }
    }

    /// Applies the deletion of fact `id` (which carried symbols `row` in
    /// `relation`): removes `id` from the posting run of each
    /// `(position, symbol)` pair and decrements the relation cardinality.
    ///
    /// # Panics
    /// Panics if `id` is not indexed under every `(position, symbol)` of
    /// `row` — the row must be exactly the one the fact was inserted with.
    pub(crate) fn apply_delete(&mut self, relation: RelationId, row: &[Sym], id: FactId) {
        self.cardinalities[relation.index()] -= 1;
        for (position, &sym) in row.iter().enumerate() {
            let column = &mut self.columns[relation.index()][position];
            let s = sym.index();
            let lo = column.offsets[s] as usize;
            let hi = column.offsets[s + 1] as usize;
            let at = match column.facts[lo..hi].binary_search(&id) {
                Ok(at) => lo + at,
                Err(_) => panic!("apply_delete: {id} is not indexed under {sym}"),
            };
            column.facts.remove(at);
            for offset in &mut column.offsets[s + 1..] {
                *offset -= 1;
            }
            if column.offsets[s] == column.offsets[s + 1] {
                column.distinct -= 1;
            }
        }
    }

    /// Snapshots the statistics the cost-based join planner consumes:
    /// per-relation cardinality plus, per column, the distinct-symbol
    /// count and the *longest* posting run (the hot-spot statistic a skew
    /// shift moves first).  The snapshot is the input of the drift
    /// heuristic ([`StatsSnapshot::drifted`]) that gates replanning in
    /// the streaming layer: steady-state ticks keep their compiled plans,
    /// a >2× move in any counter triggers one replan.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let columns = self
            .columns
            .iter()
            .map(|relation_columns| {
                relation_columns
                    .iter()
                    .map(|column| {
                        let longest = column
                            .offsets
                            .windows(2)
                            .map(|w| w[1] - w[0])
                            .max()
                            .unwrap_or(0);
                        (column.distinct, longest)
                    })
                    .collect()
            })
            .collect();
        StatsSnapshot {
            cardinalities: self.cardinalities.clone(),
            columns,
        }
    }

    /// Approximate resident bytes of the index (offset arrays + runs), for
    /// memory reporting.
    pub fn approx_bytes(&self) -> usize {
        self.columns
            .iter()
            .flatten()
            .map(|column| {
                column.offsets.len() * std::mem::size_of::<u32>()
                    + column.facts.len() * std::mem::size_of::<FactId>()
            })
            .sum()
    }
}

/// A compact snapshot of the planner-relevant statistics of a
/// [`RelationIndex`], from [`RelationIndex::stats_snapshot`]: per-relation
/// cardinalities and per-column `(distinct count, longest posting run)`
/// aggregates.
///
/// Cost-based plans (`JoinPlan::build_costed` in `ucqa-query`) are only
/// as good as the statistics they were built from; the streaming layer
/// snapshots the statistics at plan time and compares against the live
/// index each tick.  [`StatsSnapshot::drifted`] is the replan gate, and
/// [`StatsSnapshot::fingerprint`] a cheap "did anything move at all"
/// probe for reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Facts per relation.
    cardinalities: Vec<u32>,
    /// Per relation, per position: `(distinct symbols, longest run)`.
    columns: Vec<Vec<(u32, u32)>>,
}

impl StatsSnapshot {
    /// `true` iff `current` has moved by more than `factor` relative to
    /// `self` in any relation cardinality or any column's longest posting
    /// run — growth or shrink; a counter moving between zero and non-zero
    /// (or a shape change, e.g. a new relation) always counts as drift.
    /// `factor` is a ratio: the streaming layer passes `2.0` for its
    /// ">2× moved ⇒ replan once" policy.
    pub fn drifted(&self, current: &StatsSnapshot, factor: f64) -> bool {
        fn moved(a: u32, b: u32, factor: f64) -> bool {
            if a == b {
                return false;
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            if lo == 0 {
                return true;
            }
            hi as f64 > factor * lo as f64
        }
        if self.cardinalities.len() != current.cardinalities.len()
            || self.columns.len() != current.columns.len()
        {
            return true;
        }
        for (&a, &b) in self.cardinalities.iter().zip(&current.cardinalities) {
            if moved(a, b, factor) {
                return true;
            }
        }
        for (ours, theirs) in self.columns.iter().zip(&current.columns) {
            if ours.len() != theirs.len() {
                return true;
            }
            for (&(_, run_a), &(_, run_b)) in ours.iter().zip(theirs) {
                if moved(run_a, run_b, factor) {
                    return true;
                }
            }
        }
        false
    }

    /// A 64-bit FNV-1a fingerprint over every counter of the snapshot —
    /// equal fingerprints mean (modulo collisions) no planner statistic
    /// moved at all, a stronger condition than the ratio-based
    /// [`StatsSnapshot::drifted`].
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut mix = |value: u32| {
            for byte in value.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(PRIME);
            }
        };
        for &cardinality in &self.cardinalities {
            mix(cardinality);
        }
        for relation_columns in &self.columns {
            mix(relation_columns.len() as u32);
            for &(distinct, longest) in relation_columns {
                mix(distinct);
                mix(longest);
            }
        }
        hash
    }
}

/// Intersects two ascending fact-id runs with a galloping merge, appending
/// the common ids (in ascending order) to `out`.
///
/// When the runs' lengths are lopsided the cost is
/// `O(min · log(max / min))` instead of `O(min + max)`: each element of
/// the shorter run gallops (doubling probe, then binary search) through
/// the longer one.  Both inputs must be strictly ascending, which posting
/// runs of a [`RelationIndex`] always are.
pub fn intersect_postings(a: &[FactId], b: &[FactId], out: &mut Vec<FactId>) {
    // Gallop from the shorter side.
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut lo = 0usize;
    for &id in small {
        if lo >= large.len() {
            break;
        }
        // Exponential probe: after the loop, the first element `>= id`
        // (if any) lies in `[lo, lo + step]`.
        let mut step = 1usize;
        while lo + step < large.len() && large[lo + step] < id {
            lo += step;
            step <<= 1;
        }
        let hi = (lo + step + 1).min(large.len());
        match large[lo..hi].binary_search(&id) {
            Ok(offset) => {
                out.push(id);
                lo += offset + 1;
            }
            Err(offset) => lo += offset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    fn sample_db() -> Database {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        schema.add_relation("S", &["X"]).unwrap();
        let mut db = Database::with_schema(schema);
        for (a, b) in [(1, 1), (1, 2), (2, 1)] {
            db.insert_values("R", [Value::int(a), Value::int(b)])
                .unwrap();
        }
        db.insert_values("S", [Value::str("u")]).unwrap();
        db
    }

    fn sym_of(db: &Database, value: &Value) -> Sym {
        db.dictionary().lookup(value).expect("interned")
    }

    #[test]
    fn postings_group_facts_by_position_and_symbol() {
        let db = sample_db();
        let index = RelationIndex::build(&db);
        let r = db.schema().relation_id("R").unwrap();
        let one = sym_of(&db, &Value::int(1));
        assert_eq!(index.matches(r, 0, one), &[FactId::new(0), FactId::new(1)]);
        assert_eq!(index.matches(r, 1, one), &[FactId::new(0), FactId::new(2)]);
        assert_eq!(index.posting_len(r, 0, sym_of(&db, &Value::int(2))), 1);
        assert_eq!(index.distinct_count(r, 0), 2);
        assert_eq!(index.distinct_count(r, 1), 2);
        assert_eq!(index.relation_cardinality(r), 3);
        let s = db.schema().relation_id("S").unwrap();
        assert_eq!(
            index.matches(s, 0, sym_of(&db, &Value::str("u"))),
            &[FactId::new(3)]
        );
        assert_eq!(index.relation_cardinality(s), 1);
        // 3 facts × arity 2 + 1 fact × arity 1.
        assert_eq!(index.posting_entries(), 7);
        assert!(index.approx_bytes() > 0);
    }

    #[test]
    fn value_probe_resolves_through_the_dictionary() {
        let db = sample_db();
        let index = RelationIndex::build(&db);
        let r = db.schema().relation_id("R").unwrap();
        assert_eq!(
            index.matches_value(db.dictionary(), r, 0, &Value::int(1)),
            &[FactId::new(0), FactId::new(1)]
        );
        // A never-interned value matches nothing (and does not intern).
        assert!(index
            .matches_value(db.dictionary(), r, 0, &Value::int(9))
            .is_empty());
        assert_eq!(db.dictionary().lookup(&Value::int(9)), None);
    }

    #[test]
    fn late_interned_symbols_match_nothing() {
        let mut db = sample_db();
        let index = db.share_relation_index();
        let r = db.schema().relation_id("R").unwrap();
        // Interning a new constant after the index snapshot was taken must
        // not panic — the stale index simply reports no matches.
        db.insert_values("R", [Value::int(50), Value::int(60)])
            .unwrap();
        let late = sym_of(&db, &Value::int(50));
        assert!(index.matches(r, 0, late).is_empty());
        assert_eq!(index.posting_len(r, 0, late), 0);
    }

    #[test]
    fn database_caches_and_maintains_the_index() {
        let mut db = sample_db();
        let r = db.schema().relation_id("R").unwrap();
        let one = Value::int(1);
        let len_of_one = |db: &Database| {
            let sym = db.dictionary().lookup(&one).unwrap();
            db.relation_index().posting_len(r, 0, sym)
        };
        assert_eq!(len_of_one(&db), 2);
        // Re-inserting an existing fact keeps the cache valid.
        db.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        assert_eq!(len_of_one(&db), 2);
        assert_eq!(db.index_builds(), 1);
        assert_eq!(db.index_delta_applies(), 0);
        // A genuinely new fact patches the cached index in place — no
        // rebuild, and the patched index equals a fresh one.
        db.insert_values("R", [Value::int(1), Value::int(3)])
            .unwrap();
        assert_eq!(len_of_one(&db), 3);
        assert_eq!(db.index_builds(), 1);
        assert_eq!(db.index_delta_applies(), 1);
        assert_eq!(*db.relation_index(), RelationIndex::build(&db));
        // Deleting patches too.
        let gone = crate::Fact::new(r, vec![Value::int(1), Value::int(3)]);
        let id = db.fact_id(&gone).unwrap();
        db.delete(id).unwrap();
        assert_eq!(len_of_one(&db), 2);
        assert_eq!(db.index_builds(), 1);
        assert_eq!(db.index_delta_applies(), 2);
        assert_eq!(*db.relation_index(), RelationIndex::build(&db));
        // Clones share the already-built index.
        let shared = db.share_relation_index();
        let clone = db.clone();
        assert_eq!(
            clone.relation_index().posting_entries(),
            shared.posting_entries()
        );
    }

    #[test]
    fn stats_snapshot_drifts_on_big_moves_only() {
        let mut db = sample_db();
        let r = db.schema().relation_id("R").unwrap();
        let baseline = db.relation_index().stats_snapshot();
        assert!(!baseline.drifted(&baseline, 2.0), "self-compare is stable");
        let fp = baseline.fingerprint();

        // One benign insert: cardinality 3 → 4, longest run 2 → 2 for
        // column 0 (key 3 starts a fresh run).  No ratio clears 2×, but
        // the exact fingerprint moves.
        db.insert_values("R", [Value::int(3), Value::int(5)])
            .unwrap();
        let benign = db.relation_index().stats_snapshot();
        assert!(!baseline.drifted(&benign, 2.0), "small moves stay quiet");
        assert_ne!(fp, benign.fingerprint());

        // A skew burst on key 1: its posting run grows 2 → 7, more than
        // 2× — the drift heuristic fires (in both directions).
        for i in 0..5 {
            db.insert_values("R", [Value::int(1), Value::int(100 + i)])
                .unwrap();
        }
        let skewed = db.relation_index().stats_snapshot();
        assert!(baseline.drifted(&skewed, 2.0), "hot-run growth is drift");
        assert!(skewed.drifted(&baseline, 2.0), "shrink is drift too");
        assert_eq!(
            db.relation_index()
                .posting_len(r, 0, db.dictionary().lookup(&Value::int(1)).unwrap()),
            7
        );
    }

    fn ids(raw: &[usize]) -> Vec<FactId> {
        raw.iter().copied().map(FactId::new).collect()
    }

    #[test]
    fn galloping_intersection_matches_naive() {
        let cases: &[(&[usize], &[usize])] = &[
            (&[], &[]),
            (&[1], &[]),
            (&[1, 2, 3], &[2]),
            (&[2], &[1, 2, 3]),
            (&[0, 5, 9], &[1, 2, 3, 4, 5, 6, 7, 8, 9]),
            (&[0, 1, 2, 3], &[4, 5, 6]),
            (&[0, 1, 2, 3], &[0, 1, 2, 3]),
            (&[3, 50, 900], &(0..1000).step_by(3).collect::<Vec<_>>()),
        ];
        for (a, b) in cases {
            let a = ids(a);
            let b = ids(b);
            let naive: Vec<FactId> = a.iter().filter(|x| b.contains(x)).copied().collect();
            let mut out = Vec::new();
            intersect_postings(&a, &b, &mut out);
            assert_eq!(out, naive, "a={a:?} b={b:?}");
            out.clear();
            intersect_postings(&b, &a, &mut out);
            assert_eq!(out, naive, "swapped a={a:?} b={b:?}");
        }
    }

    #[test]
    fn galloping_intersection_on_real_postings() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db = Database::with_schema(schema);
        for i in 0..100i64 {
            db.insert_values("R", [Value::int(i % 4), Value::int(i % 7)])
                .unwrap();
        }
        let r = db.schema().relation_id("R").unwrap();
        let index = db.relation_index();
        let a = index.matches(r, 0, sym_of(&db, &Value::int(1)));
        let b = index.matches(r, 1, sym_of(&db, &Value::int(2)));
        let mut out = Vec::new();
        intersect_postings(a, b, &mut out);
        let naive: Vec<FactId> = a.iter().filter(|x| b.contains(x)).copied().collect();
        assert_eq!(out, naive);
        assert!(!out.is_empty());
    }
}

//! Databases: dictionary-encoded columnar fact storage with dense ids.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::{
    DbError, Dictionary, Fact, FactId, FactSet, RelationId, RelationIndex, Schema, Sym, Value,
};

/// One fact-level change in a database's mutation log.
///
/// [`Database::changes_since`] exposes the suffix of the log past a
/// version cursor, which is what delta consumers ([`crate::ConflictIndex`]
/// refresh, lineage refresh in `ucqa-query`) replay instead of rescanning
/// the database.  Deletions carry the relation and symbol row because the
/// columnar storage physically removes the row — a late reader could not
/// recover it from the database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactChange {
    /// A genuinely new fact was inserted under this id.
    Inserted(FactId),
    /// The fact with this id was deleted.
    Deleted {
        /// The id the fact held (never reused).
        id: FactId,
        /// The relation the fact belonged to.
        relation: RelationId,
        /// The fact's symbol row at deletion time.
        row: Box<[Sym]>,
    },
}

impl FactChange {
    /// The fact id this change concerns.
    pub fn fact(&self) -> FactId {
        match self {
            FactChange::Inserted(id) => *id,
            FactChange::Deleted { id, .. } => *id,
        }
    }
}

/// A database `D` over a schema **S**: a finite set of facts.
///
/// Facts are deduplicated on insertion and receive dense [`FactId`]s in
/// insertion order.  Storage is *columnar and dictionary-encoded*: every
/// constant is interned into a shared [`Dictionary`] and each relation
/// stores its facts as per-position [`Sym`] columns, so the hot paths
/// (violation detection, join probes) compare dense `u32` symbols instead
/// of hashing [`Value`]s.  The [`Value`]-facing API ([`Database::fact`],
/// [`Database::insert`], …) is a thin encode/decode shell over the
/// columns.
///
/// The schema and dictionary are shared behind [`Arc`]s so that derived
/// databases (e.g. the reduction gadgets) and concurrent samplers can
/// reuse them cheaply; the dictionary is cloned copy-on-write only if a
/// snapshot handle is still held when new constants arrive.
pub struct Database {
    schema: Arc<Schema>,
    /// The shared value interner; append-only, copy-on-write under
    /// [`Arc::make_mut`].
    dict: Arc<Dictionary>,
    /// Per relation, per position, per row: the interned symbol.  Rows of
    /// relation `r` align with `by_relation[r]` (insertion order within
    /// the relation).
    columns: Vec<Vec<Vec<Sym>>>,
    /// FactId → owning relation.
    fact_rel: Vec<RelationId>,
    /// FactId → row within its relation's columns.
    fact_row: Vec<u32>,
    by_relation: Vec<Vec<FactId>>,
    /// Dedup map from encoded fact to id.
    by_key: HashMap<(RelationId, Box<[Sym]>), FactId>,
    /// FactId → liveness tombstone.  Ids are never reused: a deleted fact
    /// keeps its id forever, so `FactSet`s and changelogs stay valid
    /// across versions.
    live: Vec<bool>,
    /// Number of live facts (`live` entries that are `true`).
    live_count: usize,
    /// The fact-level mutation log; `version()` is its length.
    log: Vec<FactChange>,
    /// Lazily built `(position, symbol) → fact ids` index backing the
    /// plan-based query evaluator; once built it is *maintained* under
    /// mutations by fact-level delta application instead of being
    /// invalidated and rebuilt.
    value_index: OnceLock<Arc<RelationIndex>>,
    /// Number of times the relation index has been (re)built, for
    /// observing cache behaviour under bulk loads.
    index_builds: AtomicU64,
    /// Number of fact-level deltas applied to the cached relation index
    /// (diagnostics twin of `index_builds`).
    index_delta_applies: u64,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        let value_index = OnceLock::new();
        if let Some(index) = self.value_index.get() {
            // An already-built index describes the same facts; share it.
            let _ = value_index.set(Arc::clone(index));
        }
        Database {
            schema: Arc::clone(&self.schema),
            dict: Arc::clone(&self.dict),
            columns: self.columns.clone(),
            fact_rel: self.fact_rel.clone(),
            fact_row: self.fact_row.clone(),
            by_relation: self.by_relation.clone(),
            by_key: self.by_key.clone(),
            live: self.live.clone(),
            live_count: self.live_count,
            log: self.log.clone(),
            value_index,
            index_builds: AtomicU64::new(self.index_builds.load(Ordering::Relaxed)),
            index_delta_applies: self.index_delta_applies,
        }
    }
}

impl Database {
    /// Creates an empty database over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        Database::with_dictionary(schema, Arc::new(Dictionary::new()))
    }

    /// Creates an empty database taking ownership of `schema`.
    pub fn with_schema(schema: Schema) -> Self {
        Database::new(Arc::new(schema))
    }

    /// Creates an empty database over `schema` that interns into (a
    /// copy-on-write handle of) an existing dictionary.
    ///
    /// Pre-seeding the dictionary lets several databases agree on symbol
    /// assignments, and lets tests exercise symbol-order independence.
    pub fn with_dictionary(schema: Arc<Schema>, dict: Arc<Dictionary>) -> Self {
        let relations = schema.relation_count();
        let columns = (0..relations)
            .map(|r| vec![Vec::new(); schema.arity(RelationId(r as u32))])
            .collect();
        Database {
            schema,
            dict,
            columns,
            fact_rel: Vec::new(),
            fact_row: Vec::new(),
            by_relation: vec![Vec::new(); relations],
            by_key: HashMap::new(),
            live: Vec::new(),
            live_count: 0,
            log: Vec::new(),
            value_index: OnceLock::new(),
            index_builds: AtomicU64::new(0),
            index_delta_applies: 0,
        }
    }

    /// The schema of this database.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// A shared handle to the schema.
    pub fn schema_arc(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// The dictionary this database interns its constants into.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// A shared handle to the dictionary, for decoding symbols on other
    /// threads.  Later inserts of *new* constants copy-on-write the
    /// database's dictionary, leaving the returned snapshot untouched.
    pub fn share_dictionary(&self) -> Arc<Dictionary> {
        Arc::clone(&self.dict)
    }

    /// Validates `fact` against the schema (relation id range and arity)
    /// without interning or mutating anything.
    fn validate_fact(&self, fact: &Fact) -> Result<(), DbError> {
        if fact.relation().index() >= self.schema.relation_count() {
            return Err(DbError::ForeignRelationId {
                index: fact.relation().index(),
                relations: self.schema.relation_count(),
            });
        }
        let arity = self.schema.arity(fact.relation());
        if fact.arity() != arity {
            return Err(DbError::ArityMismatch {
                relation: self.schema.relation_name(fact.relation()).to_string(),
                expected: arity,
                actual: fact.arity(),
            });
        }
        Ok(())
    }

    /// Appends an encoded (validated, deduplicated) row, returning the new
    /// fact's id.  Bumps the version and logs the insertion; does **not**
    /// touch the cached index (the caller patches or skips it).
    fn push_row(&mut self, relation: RelationId, row: Box<[Sym]>) -> FactId {
        let id = FactId::new(self.fact_rel.len());
        let columns = &mut self.columns[relation.index()];
        let row_index = self.by_relation[relation.index()].len() as u32;
        for (column, &sym) in columns.iter_mut().zip(row.iter()) {
            column.push(sym);
        }
        self.by_relation[relation.index()].push(id);
        self.fact_rel.push(relation);
        self.fact_row.push(row_index);
        self.by_key.insert((relation, row), id);
        self.live.push(true);
        self.live_count += 1;
        self.log.push(FactChange::Inserted(id));
        id
    }

    /// Inserts a fact, checking its relation id and arity against the
    /// schema.
    ///
    /// Returns the fact's id (existing id if the fact was already present).
    /// A fact whose [`RelationId`] was minted by a different (larger)
    /// schema is rejected with [`DbError::ForeignRelationId`] instead of
    /// corrupting the per-relation index.  A rejected fact interns
    /// nothing.  A genuinely new fact is *delta-applied* to the cached
    /// [`RelationIndex`] (if one has been built) instead of invalidating
    /// it.
    pub fn insert(&mut self, fact: Fact) -> Result<FactId, DbError> {
        let mut ids = self.extend(std::iter::once(fact))?;
        match ids.pop() {
            Some(id) => Ok(id),
            // `extend` returns exactly one id per input fact.
            None => unreachable!("extend of one fact yields one id"),
        }
    }

    /// Bulk insert with **validate-then-commit** semantics: every fact of
    /// the batch is validated and encoded before any row is pushed, so a
    /// failed bulk load leaves the database — facts, dictionary, cached
    /// index, version — exactly as it was.
    ///
    /// Constants are interned only when the batch commits, and only the
    /// constants of genuinely new facts reach the dictionary: rejected and
    /// duplicate facts cannot grow the symbol table (and therefore cannot
    /// skew `distinct_count`-based planning statistics).  On commit the
    /// cached [`RelationIndex`] (if built) absorbs the batch by fact-level
    /// delta application; it is never invalidated.  Returns the id of each
    /// input fact in order.
    pub fn extend(
        &mut self,
        facts: impl IntoIterator<Item = Fact>,
    ) -> Result<Vec<FactId>, DbError> {
        /// Where each input fact of a staged batch ends up.
        enum Slot {
            /// Already present before the batch.
            Existing(FactId),
            /// The `n`-th genuinely new row of the batch.
            Pending(usize),
        }

        // --- Stage: validate and encode everything, mutate nothing. ---
        // New constants are assigned provisional symbols past the current
        // dictionary bound; they become real only if the whole batch
        // validates.
        let dict = Arc::clone(&self.dict);
        let mut staged_values: Vec<Value> = Vec::new();
        let mut staged_index: HashMap<Value, Sym> = HashMap::new();
        let mut slots: Vec<Slot> = Vec::new();
        let mut pending: Vec<(RelationId, Box<[Sym]>)> = Vec::new();
        let mut pending_keys: HashMap<(RelationId, Box<[Sym]>), usize> = HashMap::new();
        for fact in facts {
            self.validate_fact(&fact)?;
            let row: Box<[Sym]> = fact
                .values()
                .iter()
                .map(|value| {
                    if let Some(sym) = dict.lookup(value) {
                        return Ok(sym);
                    }
                    if let Some(&sym) = staged_index.get(value) {
                        return Ok(sym);
                    }
                    let index = dict.len() + staged_values.len();
                    let sym =
                        Sym::try_new(index).ok_or(DbError::DictionaryFull { symbols: index })?;
                    staged_values.push(value.clone());
                    staged_index.insert(value.clone(), sym);
                    Ok(sym)
                })
                .collect::<Result<_, DbError>>()?;
            let key = (fact.relation(), row);
            if let Some(&id) = self.by_key.get(&key) {
                slots.push(Slot::Existing(id));
            } else if let Some(&position) = pending_keys.get(&key) {
                slots.push(Slot::Pending(position));
            } else {
                slots.push(Slot::Pending(pending.len()));
                pending_keys.insert(key.clone(), pending.len());
                pending.push(key);
            }
        }

        // --- Commit: the batch is valid; now mutate. ---
        if !staged_values.is_empty() {
            let dict = Arc::make_mut(&mut self.dict);
            for value in staged_values {
                // The staged symbols were assigned densely past the old
                // bound, so committing in order reproduces them exactly.
                let sym = dict.try_intern(value)?;
                debug_assert!(sym.index() < dict.len());
            }
        }
        let pending_ids: Vec<FactId> = pending
            .iter()
            .cloned()
            .map(|(relation, row)| self.push_row(relation, row))
            .collect();
        if !pending.is_empty() {
            if let Some(shared) = self.value_index.get_mut() {
                let index = Arc::make_mut(shared);
                index.ensure_sym_bound(self.dict.len());
                for ((relation, row), &id) in pending.iter().zip(&pending_ids) {
                    index.apply_insert(*relation, row, id);
                    self.index_delta_applies += 1;
                }
            }
        }
        Ok(slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Existing(id) => id,
                Slot::Pending(position) => pending_ids[position],
            })
            .collect())
    }

    /// Deletes the fact with the given id, if it is live.
    ///
    /// The id is tombstoned (never reused) and the fact's row is removed
    /// from the symbol columns — later rows of the same relation shift
    /// down, preserving the ascending-id order of
    /// [`Database::facts_of`].  The cached [`RelationIndex`] (if built) is
    /// delta-patched, the version is bumped, and the change is logged with
    /// the deleted symbol row so delta consumers can replay it.  Returns
    /// [`DbError::NoSuchFact`] for an out-of-range or already-deleted id.
    pub fn delete(&mut self, id: FactId) -> Result<(), DbError> {
        if !self.is_live(id) {
            return Err(DbError::NoSuchFact {
                index: id.index(),
                universe: self.len(),
            });
        }
        let relation = self.fact_rel[id.index()];
        let row = self.fact_row[id.index()] as usize;
        let columns = &mut self.columns[relation.index()];
        let syms: Box<[Sym]> = columns.iter().map(|column| column[row]).collect();
        for column in columns.iter_mut() {
            column.remove(row);
        }
        self.by_relation[relation.index()].remove(row);
        for index in row..self.by_relation[relation.index()].len() {
            let later = self.by_relation[relation.index()][index];
            self.fact_row[later.index()] -= 1;
        }
        let key = (relation, syms);
        self.by_key.remove(&key);
        let (relation, syms) = key;
        self.live[id.index()] = false;
        self.live_count -= 1;
        if let Some(shared) = self.value_index.get_mut() {
            Arc::make_mut(shared).apply_delete(relation, &syms, id);
            self.index_delta_applies += 1;
        }
        self.log.push(FactChange::Deleted {
            id,
            relation,
            row: syms,
        });
        Ok(())
    }

    /// Deletes `fact` by value, returning the id it held, or `None` if the
    /// fact was not present (which is not an error — retraction is
    /// idempotent).
    pub fn retract(&mut self, fact: &Fact) -> Result<Option<FactId>, DbError> {
        match self.fact_id(fact) {
            Some(id) => {
                self.delete(id)?;
                Ok(Some(id))
            }
            None => Ok(None),
        }
    }

    /// Expires the oldest live facts until at most `keep` remain,
    /// returning the expired ids, oldest first.  "Oldest" is insertion
    /// order — fact ids are assigned monotonically and never reused, so
    /// the lowest live ids are the ones that slid out of a count-bounded
    /// window.  Each expiry is an ordinary [`Database::delete`]: it
    /// tombstones the id, patches the cached indexes, and logs a
    /// [`FactChange::Deleted`] for delta consumers to replay.
    pub fn expire_oldest(&mut self, keep: usize) -> Result<Vec<FactId>, DbError> {
        let excess = self.live_count.saturating_sub(keep);
        let victims: Vec<FactId> = self.fact_ids().take(excess).collect();
        for &id in &victims {
            self.delete(id)?;
        }
        Ok(victims)
    }

    /// The database version: the number of fact-level changes (insertions
    /// and deletions) ever applied.  Bumped monotonically; duplicates and
    /// rejected facts do not bump it.
    pub fn version(&self) -> u64 {
        self.log.len() as u64
    }

    /// The suffix of the mutation log past a version cursor: everything
    /// that changed since `version` (as previously returned by
    /// [`Database::version`]), oldest first.
    pub fn changes_since(&self, version: u64) -> &[FactChange] {
        let from = usize::try_from(version).unwrap_or(self.log.len());
        &self.log[from.min(self.log.len())..]
    }

    /// Returns `true` iff `id` names a live (inserted and not deleted)
    /// fact.
    #[inline]
    pub fn is_live(&self, id: FactId) -> bool {
        self.live.get(id.index()).copied().unwrap_or(false)
    }

    /// The number of live facts (`len()` minus tombstones).
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Convenience: insert a fact given by relation name and values.
    pub fn insert_values(
        &mut self,
        relation: &str,
        values: impl IntoIterator<Item = Value>,
    ) -> Result<FactId, DbError> {
        let rel = self.schema.relation_id(relation)?;
        self.insert(Fact::new(rel, values.into_iter().collect()))
    }

    /// The id-space size: every [`FactId`] ever assigned is below this
    /// bound.  Equal to the number of live facts until the first deletion
    /// (ids are never reused, so deletions leave the id space unchanged);
    /// use [`Database::live_count`] for the live cardinality `|D|`.
    pub fn len(&self) -> usize {
        self.fact_rel.len()
    }

    /// Returns `true` iff the database has no live facts.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Decodes the fact with the given id.
    ///
    /// Facts are stored columnar, so this materializes an owned [`Fact`]
    /// by decoding one symbol per position; hot paths should work on
    /// [`Database::sym`] / [`Database::columns_of`] instead.
    ///
    /// # Panics
    /// Panics if `id` does not name a live fact.
    pub fn fact(&self, id: FactId) -> Fact {
        assert!(
            self.is_live(id),
            "fact id {id} does not name a live fact (deleted or out of range)"
        );
        let relation = self.fact_rel[id.index()];
        let row = self.fact_row[id.index()] as usize;
        let values = self.columns[relation.index()]
            .iter()
            .map(|column| self.dict.decode(column[row]).clone())
            .collect();
        Fact::new(relation, values)
    }

    /// The owning relation of a fact.
    #[inline]
    pub fn relation_of(&self, id: FactId) -> RelationId {
        self.fact_rel[id.index()]
    }

    /// The row of a fact within its relation's columns (aligned with
    /// [`Database::facts_of`]).
    #[inline]
    pub fn row_of(&self, id: FactId) -> usize {
        self.fact_row[id.index()] as usize
    }

    /// The symbol of a fact at `position`.
    #[inline]
    pub fn sym(&self, id: FactId, position: usize) -> Sym {
        let relation = self.fact_rel[id.index()];
        self.columns[relation.index()][position][self.fact_row[id.index()] as usize]
    }

    /// The per-position symbol columns of `relation` (one `Vec<Sym>` per
    /// position, rows aligned with [`Database::facts_of`]).
    #[inline]
    pub fn columns_of(&self, relation: RelationId) -> &[Vec<Sym>] {
        &self.columns[relation.index()]
    }

    /// One symbol column of `relation`.
    #[inline]
    pub fn column(&self, relation: RelationId, position: usize) -> &[Sym] {
        &self.columns[relation.index()][position]
    }

    /// Looks up the id of a fact, if present.
    ///
    /// A fact containing a constant the dictionary has never seen is
    /// provably absent, so the lookup never interns.
    pub fn fact_id(&self, fact: &Fact) -> Option<FactId> {
        let row: Option<Box<[Sym]>> = fact.values().iter().map(|v| self.dict.lookup(v)).collect();
        self.by_key.get(&(fact.relation(), row?)).copied()
    }

    /// Returns `true` iff the database contains `fact`.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.fact_id(fact).is_some()
    }

    /// Iterates over all live fact ids in insertion order.
    pub fn fact_ids(&self) -> impl Iterator<Item = FactId> + '_ {
        (0..self.len())
            .map(FactId::new)
            .filter(move |&id| self.is_live(id))
    }

    /// Iterates over `(id, fact)` pairs, decoding each fact.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, Fact)> + '_ {
        self.fact_ids().map(|id| (id, self.fact(id)))
    }

    /// The ids of the facts over `relation`.
    pub fn facts_of(&self, relation: RelationId) -> &[FactId] {
        &self.by_relation[relation.index()]
    }

    /// The `(position, symbol) → fact ids` index of this database, built
    /// on first use and thereafter *maintained*: inserts and deletes patch
    /// the cached index with fact-level deltas instead of invalidating it
    /// (see [`Database::index_delta_applies`]).
    ///
    /// This is the access-path backbone of the plan-based query evaluator
    /// in `ucqa-query`: a join step whose term at some position is bound
    /// looks up its posting list here instead of scanning the relation.
    pub fn relation_index(&self) -> &RelationIndex {
        self.value_index.get_or_init(|| {
            self.index_builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(RelationIndex::build(self))
        })
    }

    /// A shared handle to the relation index (building it if necessary),
    /// for sharing across threads like [`crate::ConflictIndex`].
    pub fn share_relation_index(&self) -> Arc<RelationIndex> {
        self.relation_index();
        Arc::clone(self.value_index.get().expect("just initialised"))
    }

    /// How many times the relation index has been (re)built over this
    /// database's lifetime (diagnostics for bulk-load cache behaviour; see
    /// [`Database::extend`]).
    pub fn index_builds(&self) -> u64 {
        self.index_builds.load(Ordering::Relaxed)
    }

    /// How many fact-level deltas have been applied to the cached relation
    /// index (zero while no index is cached — an unbuilt index has nothing
    /// to maintain).
    pub fn index_delta_applies(&self) -> u64 {
        self.index_delta_applies
    }

    /// The live fact set `D` as a [`FactSet`] over this database's id
    /// space (deleted ids are absent).
    pub fn all_facts(&self) -> FactSet {
        let mut set = FactSet::full(self.len());
        if self.live_count != self.len() {
            for (index, &alive) in self.live.iter().enumerate() {
                if !alive {
                    set.remove(FactId::new(index));
                }
            }
        }
        set
    }

    /// The active domain `dom(D)`: the set of constants occurring in `D`.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        // The dictionary may hold constants interned by a sibling database
        // sharing it, so walk the columns, not the dictionary.
        self.columns
            .iter()
            .flat_map(|relation| relation.iter())
            .flat_map(|column| column.iter())
            .map(|&sym| self.dict.decode(sym).clone())
            .collect()
    }

    /// Approximate resident bytes of the fact storage (columns, id maps,
    /// dedup map, and the dictionary), for per-fact memory reporting.
    /// Excludes the lazily built [`RelationIndex`]
    /// (see [`RelationIndex::approx_bytes`]).
    pub fn approx_fact_bytes(&self) -> usize {
        let sym = std::mem::size_of::<Sym>();
        let column_bytes: usize = self
            .columns
            .iter()
            .flat_map(|relation| relation.iter())
            .map(|column| column.len() * sym)
            .sum();
        let per_fact = std::mem::size_of::<RelationId>() // fact_rel
            + std::mem::size_of::<u32>() // fact_row
            + std::mem::size_of::<FactId>(); // by_relation entry
                                             // by_key: key tuple + boxed row + value, with ~1.8x hash slack.
        let key_bytes: usize = self
            .by_key
            .keys()
            .map(|(_, row)| {
                (std::mem::size_of::<(RelationId, Box<[Sym]>)>()
                    + std::mem::size_of::<FactId>()
                    + row.len() * sym)
                    * 9
                    / 5
            })
            .sum();
        column_bytes + self.len() * per_fact + key_bytes + self.dict.approx_bytes()
    }

    /// Materializes the sub-database induced by `subset` as a new
    /// [`Database`] (fresh ids).  Mostly useful for tests and displays; the
    /// algorithms operate on [`FactSet`]s directly.
    pub fn restrict(&self, subset: &FactSet) -> Database {
        let mut db = Database::with_dictionary(self.schema_arc(), self.share_dictionary());
        db.extend(subset.iter().map(|id| self.fact(id)))
            .expect("restricting an existing fact cannot fail arity checks");
        db
    }

    /// Renders `subset` as a set of facts with relation names resolved.
    pub fn render_subset(&self, subset: &FactSet) -> String {
        let mut parts: Vec<String> = subset
            .iter()
            .map(|id| self.fact(id).display(&self.schema).to_string())
            .collect();
        parts.sort();
        format!("{{{}}}", parts.join(", "))
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Database ({} facts):", self.live_count())?;
        for (id, fact) in self.iter() {
            writeln!(f, "  {id}: {}", fact.display(&self.schema))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema_r2() -> Schema {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        schema
    }

    #[test]
    fn expire_oldest_slides_out_the_lowest_live_ids() {
        let mut db = Database::with_schema(schema_r2());
        let ids: Vec<FactId> = (0..6)
            .map(|i| {
                db.insert_values("R", [Value::int(i), Value::int(i)])
                    .unwrap()
            })
            .collect();
        // Tombstone one early id first: expiry must skip it and count
        // only live facts against the window.
        db.delete(ids[1]).unwrap();
        let version = db.version();
        let expired = db.expire_oldest(3).unwrap();
        assert_eq!(expired, vec![ids[0], ids[2]], "oldest live facts first");
        assert_eq!(db.live_count(), 3);
        assert_eq!(db.fact_ids().collect::<Vec<_>>(), &ids[3..]);
        // Each expiry is an ordinary logged deletion for delta replay.
        assert_eq!(db.changes_since(version).len(), 2);
        // Already within the window: a no-op.
        assert_eq!(db.expire_oldest(3).unwrap(), Vec::<FactId>::new());
        assert_eq!(db.version(), version + 2);
    }

    #[test]
    fn insert_and_lookup() {
        let mut db = Database::with_schema(schema_r2());
        let f0 = db
            .insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        let f1 = db
            .insert_values("R", [Value::int(1), Value::int(3)])
            .unwrap();
        assert_eq!(db.len(), 2);
        assert_ne!(f0, f1);
        assert_eq!(db.fact(f0).values()[1], Value::int(2));
        let rel = db.schema().relation_id("R").unwrap();
        assert_eq!(db.facts_of(rel), &[f0, f1]);
    }

    #[test]
    fn duplicate_insertion_returns_same_id() {
        let mut db = Database::with_schema(schema_r2());
        let a = db
            .insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        let b = db
            .insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut db = Database::with_schema(schema_r2());
        let err = db.insert_values("R", [Value::int(1)]).unwrap_err();
        assert!(matches!(err, DbError::ArityMismatch { .. }));
    }

    #[test]
    fn unknown_relation_rejected() {
        let mut db = Database::with_schema(schema_r2());
        let err = db.insert_values("S", [Value::int(1)]).unwrap_err();
        assert!(matches!(err, DbError::UnknownRelation { .. }));
    }

    #[test]
    fn foreign_relation_id_rejected() {
        // Mint a RelationId against a two-relation schema, then insert the
        // fact into a database whose schema declares only one.
        let mut big = Schema::new();
        big.add_relation("R", &["A", "B"]).unwrap();
        big.add_relation("S", &["A", "B"]).unwrap();
        let foreign = big.relation_id("S").unwrap();
        let mut db = Database::with_schema(schema_r2());
        let err = db
            .insert(Fact::new(foreign, vec![Value::int(1), Value::int(2)]))
            .unwrap_err();
        assert!(matches!(
            err,
            DbError::ForeignRelationId {
                index: 1,
                relations: 1
            }
        ));
        assert!(err.to_string().contains("different schema"));
        assert!(db.is_empty());
    }

    #[test]
    fn rejected_fact_does_not_pollute_the_dictionary() {
        let mut db = Database::with_schema(schema_r2());
        db.insert_values("R", [Value::int(1)]).unwrap_err();
        assert!(db.dictionary().is_empty());
    }

    #[test]
    fn active_domain() {
        let mut db = Database::with_schema(schema_r2());
        db.insert_values("R", [Value::int(1), Value::str("a")])
            .unwrap();
        db.insert_values("R", [Value::int(1), Value::str("b")])
            .unwrap();
        let dom = db.active_domain();
        assert_eq!(dom.len(), 3);
        assert!(dom.contains(&Value::int(1)));
        assert!(dom.contains(&Value::str("b")));
    }

    #[test]
    fn restrict_and_render() {
        let mut db = Database::with_schema(schema_r2());
        let f0 = db
            .insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        db.insert_values("R", [Value::int(3), Value::int(4)])
            .unwrap();
        let subset = FactSet::from_iter(db.len(), [f0]);
        let restricted = db.restrict(&subset);
        assert_eq!(restricted.len(), 1);
        assert_eq!(db.render_subset(&subset), "{R(1, 2)}");
    }

    #[test]
    fn columns_align_with_relation_rows() {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        schema.add_relation("S", &["A"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("S", [Value::str("s0")]).unwrap();
        let f1 = db
            .insert_values("R", [Value::str("a"), Value::str("b")])
            .unwrap();
        let f2 = db
            .insert_values("R", [Value::str("a"), Value::str("c")])
            .unwrap();
        let r = db.schema().relation_id("R").unwrap();
        assert_eq!(db.facts_of(r), &[f1, f2]);
        assert_eq!(db.row_of(f1), 0);
        assert_eq!(db.row_of(f2), 1);
        assert_eq!(db.relation_of(f1), r);
        // Shared first column, distinct second column.
        assert_eq!(db.column(r, 0)[0], db.column(r, 0)[1]);
        assert_ne!(db.column(r, 1)[0], db.column(r, 1)[1]);
        assert_eq!(db.sym(f2, 1), db.column(r, 1)[1]);
    }

    #[test]
    fn fact_id_with_unknown_constant_is_none() {
        let mut db = Database::with_schema(schema_r2());
        db.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        let rel = db.schema().relation_id("R").unwrap();
        let stranger = Fact::new(rel, vec![Value::int(1), Value::str("never-seen")]);
        assert_eq!(db.fact_id(&stranger), None);
        assert!(!db.contains(&stranger));
        // The probe must not have interned the stranger's constant.
        assert_eq!(db.dictionary().lookup(&Value::str("never-seen")), None);
    }

    #[test]
    fn shared_dictionary_snapshot_is_copy_on_write() {
        let mut db = Database::with_schema(schema_r2());
        db.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        let snapshot = db.share_dictionary();
        db.insert_values("R", [Value::int(1), Value::int(99)])
            .unwrap();
        // The snapshot still decodes the old symbols but never saw 99.
        assert_eq!(snapshot.lookup(&Value::int(99)), None);
        assert!(db.dictionary().lookup(&Value::int(99)).is_some());
        assert_eq!(
            snapshot.decode(Sym::new(0)),
            db.dictionary().decode(Sym::new(0))
        );
    }

    #[test]
    fn mutations_maintain_the_cached_index_without_rebuilds() {
        let rel_facts = |n: usize| {
            (0..n).map(move |i| {
                Fact::new(
                    RelationId(0),
                    vec![Value::int(i as i64), Value::int((i % 3) as i64)],
                )
            })
        };
        // Interleaved insert + read builds the index exactly once and then
        // patches it with per-fact deltas...
        let mut slow = Database::with_schema(schema_r2());
        for fact in rel_facts(10) {
            slow.insert(fact).unwrap();
            slow.relation_index();
        }
        assert_eq!(slow.index_builds(), 1);
        assert_eq!(slow.index_delta_applies(), 9);
        assert_eq!(
            *slow.relation_index(),
            RelationIndex::build(&slow),
            "delta-maintained index diverged from a fresh rebuild"
        );
        // ...while a bulk extend before the first read needs no patching
        // at all (nothing is cached yet).
        let mut fast = Database::with_schema(schema_r2());
        let ids = fast.extend(rel_facts(10)).unwrap();
        assert_eq!(ids.len(), 10);
        fast.relation_index();
        assert_eq!(fast.index_builds(), 1);
        assert_eq!(fast.index_delta_applies(), 0);
        // Same database either way.
        assert_eq!(slow.len(), fast.len());
        for id in slow.fact_ids() {
            assert_eq!(slow.fact(id), fast.fact(id));
        }
        // An all-duplicate extend leaves the cached index untouched.
        fast.extend(rel_facts(10)).unwrap();
        fast.relation_index();
        assert_eq!(fast.index_builds(), 1);
        assert_eq!(fast.index_delta_applies(), 0);
        // Duplicates report their original ids.
        assert_eq!(fast.extend(rel_facts(3)).unwrap(), ids[..3].to_vec());
    }

    #[test]
    fn extend_rejects_bad_facts() {
        let mut db = Database::with_schema(schema_r2());
        let err = db
            .extend([Fact::new(RelationId(0), vec![Value::int(1)])])
            .unwrap_err();
        assert!(matches!(err, DbError::ArityMismatch { .. }));
    }

    /// Regression: `extend` used to push earlier facts of a batch before a
    /// later fact failed validation, returning early *past* the deferred
    /// index invalidation — a mutated database under a stale cached index.
    #[test]
    fn failed_extend_is_atomic_and_keeps_the_cached_index_fresh() {
        let mut db = Database::with_schema(schema_r2());
        db.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        // Build and cache the index, then attempt a batch whose second
        // fact is invalid.
        db.relation_index();
        let version = db.version();
        let good = Fact::new(RelationId(0), vec![Value::int(7), Value::int(8)]);
        let bad = Fact::new(RelationId(0), vec![Value::int(9)]);
        let err = db.extend([good.clone(), bad]).unwrap_err();
        assert!(matches!(err, DbError::ArityMismatch { .. }));
        // Atomicity: the good fact did not land, the version did not move.
        assert_eq!(db.len(), 1);
        assert_eq!(db.version(), version);
        assert_eq!(db.fact_id(&good), None);
        assert_eq!(db.dictionary().lookup(&Value::int(7)), None);
        // Cache freshness: the cached index still describes the database.
        assert_eq!(db.index_builds(), 1);
        assert_eq!(*db.relation_index(), RelationIndex::build(&db));
    }

    /// Regression: rejected facts (and failed batches) must not intern
    /// constants — `share_dictionary` snapshots stay bit-identical, down
    /// to the very same allocation (copy-on-write is never triggered).
    #[test]
    fn rejected_batch_leaves_dictionary_snapshots_bit_identical() {
        let mut db = Database::with_schema(schema_r2());
        db.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        let snapshot = db.share_dictionary();
        let fresh = Fact::new(RelationId(0), vec![Value::str("fresh"), Value::int(3)]);
        let bad = Fact::new(RelationId(0), vec![Value::int(9)]);
        db.extend([fresh, bad]).unwrap_err();
        // No constant of the failed batch reached the dictionary; the
        // database still shares the snapshot's allocation.
        assert_eq!(db.dictionary().lookup(&Value::str("fresh")), None);
        assert_eq!(db.dictionary().len(), snapshot.len());
        assert!(Arc::ptr_eq(&snapshot, &db.share_dictionary()));
        // A rejected single insert behaves the same.
        db.insert(Fact::new(RelationId(0), vec![Value::str("also-fresh")]))
            .unwrap_err();
        assert!(Arc::ptr_eq(&snapshot, &db.share_dictionary()));
    }

    #[test]
    fn delete_tombstones_ids_and_compacts_columns() {
        let mut db = Database::with_schema(schema_r2());
        let f0 = db
            .insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        let f1 = db
            .insert_values("R", [Value::int(3), Value::int(4)])
            .unwrap();
        let f2 = db
            .insert_values("R", [Value::int(5), Value::int(6)])
            .unwrap();
        let rel = db.schema().relation_id("R").unwrap();
        db.delete(f1).unwrap();
        // Ids are never reused; the id space keeps its size.
        assert_eq!(db.len(), 3);
        assert_eq!(db.live_count(), 2);
        assert!(!db.is_live(f1));
        // Columns and row mappings stay aligned after the shift.
        assert_eq!(db.facts_of(rel), &[f0, f2]);
        assert_eq!(db.row_of(f0), 0);
        assert_eq!(db.row_of(f2), 1);
        assert_eq!(db.sym(f2, 0), db.column(rel, 0)[1]);
        assert_eq!(db.fact(f2).values()[0], Value::int(5));
        // The deleted fact is gone by value and from the live set.
        let gone = Fact::new(rel, vec![Value::int(3), Value::int(4)]);
        assert_eq!(db.fact_id(&gone), None);
        assert!(!db.all_facts().contains(f1));
        assert_eq!(db.fact_ids().collect::<Vec<_>>(), vec![f0, f2]);
        // Deleting twice (or out of range) is a typed error.
        assert!(matches!(
            db.delete(f1),
            Err(DbError::NoSuchFact { index: 1, .. })
        ));
        assert!(matches!(
            db.delete(FactId::new(17)),
            Err(DbError::NoSuchFact { .. })
        ));
        // Re-inserting the same values mints a fresh id.
        let f3 = db
            .insert_values("R", [Value::int(3), Value::int(4)])
            .unwrap();
        assert_ne!(f3, f1);
        assert_eq!(db.len(), 4);
    }

    #[test]
    fn version_and_changelog_track_fact_level_changes() {
        let mut db = Database::with_schema(schema_r2());
        assert_eq!(db.version(), 0);
        let f0 = db
            .insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        // Duplicates and rejected facts do not bump the version.
        db.insert_values("R", [Value::int(1), Value::int(2)])
            .unwrap();
        db.insert_values("R", [Value::int(1)]).unwrap_err();
        assert_eq!(db.version(), 1);
        let cursor = db.version();
        let f1 = db
            .insert_values("R", [Value::int(3), Value::int(4)])
            .unwrap();
        db.delete(f0).unwrap();
        assert_eq!(db.version(), 3);
        let changes = db.changes_since(cursor);
        assert_eq!(changes.len(), 2);
        assert_eq!(changes[0], FactChange::Inserted(f1));
        match &changes[1] {
            FactChange::Deleted { id, relation, row } => {
                assert_eq!(*id, f0);
                assert_eq!(relation.index(), 0);
                assert_eq!(row.len(), 2);
            }
            other => panic!("expected a deletion, got {other:?}"),
        }
        assert!(db.changes_since(db.version()).is_empty());
        assert!(db.changes_since(u64::MAX).is_empty());
        // `retract` resolves by value and tolerates absent facts.
        let fact1 = db.fact(f1);
        assert_eq!(db.retract(&fact1).unwrap(), Some(f1));
        let absent = Fact::new(RelationId(0), vec![Value::int(99), Value::int(99)]);
        assert_eq!(db.retract(&absent).unwrap(), None);
    }
}

//! Compiled query lineage: many queries, one shared witness arena.
//!
//! The FPRAS drivers of `ucqa-core` reduce uniform operational CQA to
//! drawing Bernoulli samples of the form *"does this sampled repair
//! entail the query (with the candidate answer)?"*.  Every repair is a
//! subset `D' ⊆ D` of one fixed database, and conjunctive queries are
//! monotone, so the entailment predicate is a fixed monotone Boolean
//! function of the fact bits: `D' ⊨ Q(c̄)` iff the image of **some**
//! homomorphism `h` with `h(x̄) = c̄` survives in `D'`.
//!
//! [`LineageBank`] materialises that function once for a whole bank of
//! `(query, candidate)` pairs over the same database — a single query is
//! a bank of one.  It enumerates the homomorphism images up front and
//! compiles them, per entry, into a minimal antichain of witnesses, stored
//! in one deduplicated arena (identical queries and overlapping joins
//! share witnesses).  The arena is a CSR of sorted fact ids — one short
//! run per distinct witness — so it costs what the witnesses hold, not
//! what the fact universe holds.  Each entry keeps a bitmask over the
//! arena selecting its own antichain, so the per-sample check is:
//!
//! 1. one containment scan over the *distinct* witnesses (each witness's
//!    ids probed against the repair bitset, each witness checked exactly
//!    once per draw — a few bit probes, independent of `|D|`), then
//! 2. one word-level `mask ∧ contained ≠ 0` pass per query.
//!
//! Witness enumeration is capped per entry (query lineage can be
//! exponential in the query size, [`DEFAULT_WITNESS_CAP`]); entries whose
//! enumeration overflows the cap are kept as
//! [fallback](LineageBank::is_fallback) entries — the caller routes those
//! through the backtracking evaluator while the rest of the bank stays on
//! the compiled path.
//!
//! **Compilation is shared too.**  [`LineageBank::compile`] does not run
//! one witness enumeration per entry: it grounds every `(query,
//! candidate)` pair into its plan-ordered atom sequence (candidate
//! constants substituted, variables renumbered — entries equal up to
//! candidate-constant substitution become *identical* sequences), inserts
//! the sequences into a **shared scan trie**, and enumerates the trie
//! once.  Entries sharing an atom prefix share the partial joins of that
//! prefix, so a bank of `k` overlapping joins costs ~one indexed
//! enumeration pass instead of `k`.  The pre-plan behaviour (one naive
//! backtracking pass per entry) survives as
//! [`LineageBank::compile_unplanned`], the baseline of the `e17` bench.
//!
//! The adaptive batched estimators *retire* queries as they converge;
//! [`BankLiveSet`] tracks the live subset of a bank with a reference
//! count per arena witness, so that witnesses referenced only by retired
//! queries drop out of the per-draw containment scan
//! ([`LineageBank::evaluate_live_into`]) and the per-draw cost shrinks as
//! the bank drains.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use ucqa_db::{
    ConflictStructure, Database, FactChange, FactId, FactSet, RelationIndex, Sym, Value,
};

use crate::plan::{candidate_facts, match_and_bind, unbind, SymAtom, SymTerm};
use crate::{QueryError, QueryEvaluator};

/// Default per-entry cap on the number of witnesses materialised by
/// [`LineageBank::compile`].
///
/// `4096` witnesses of a few facts each are a few tens of KiB of fact ids
/// in the arena, whatever the size of the database — comfortably
/// cache-resident — while the linear witness scan stays far cheaper than
/// a backtracking search that would re-derive those same homomorphisms on
/// every sample.
pub const DEFAULT_WITNESS_CAP: usize = 4096;

/// `a ⊆ b` over sorted, deduplicated fact-id lists (sorted-merge scan).
fn sorted_subset(a: &[FactId], b: &[FactId]) -> bool {
    let mut cursor = 0usize;
    for &fact in a {
        while cursor < b.len() && b[cursor] < fact {
            cursor += 1;
        }
        if cursor == b.len() || b[cursor] != fact {
            return false;
        }
        cursor += 1;
    }
    true
}

/// Reduces one entry's raw witness images to its minimal monotone-DNF
/// antichain: duplicates and supersets absorbed (`w ⊆ w'` makes `w'`
/// redundant), survivors in ascending cardinality order (smaller
/// witnesses are cheaper to check and more likely to be contained).
/// Working on sorted fact-id lists keeps the sort/dedup/containment
/// passes proportional to the witness *sizes* (a handful of ids) instead
/// of the universe size, which is what makes bank compilation cheap on
/// large databases.
fn minimal_antichain_images(mut raw: Vec<Vec<FactId>>) -> Vec<Vec<FactId>> {
    raw.sort_unstable();
    raw.dedup();
    raw.sort_by_key(Vec::len);
    let mut witnesses: Vec<Vec<FactId>> = Vec::new();
    for candidate in raw {
        // Among equal cardinalities `⊆` implies `=`, which the dedup
        // already removed — only strictly smaller kept witnesses (a
        // contiguous prefix) can absorb the candidate.
        let smaller = witnesses.partition_point(|kept| kept.len() < candidate.len());
        if !witnesses[..smaller]
            .iter()
            .any(|kept| sorted_subset(kept, &candidate))
        {
            witnesses.push(candidate);
        }
    }
    witnesses
}

/// One homomorphism image as a witness id-list: sorted, deduplicated.
fn witness_ids(image: &[FactId]) -> Vec<FactId> {
    let mut ids = image.to_vec();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Assembles a bank entry by entry: each entry's raw witness images are
/// reduced to their minimal antichain, and every *distinct* witness is
/// interned once into the shared arena (appended as one run of the CSR)
/// and selected by the entry's mask.  Shared by every path that builds a
/// bank — shared compile, unplanned compile and refresh — so all of them
/// lay out the arena the same way from the same raw images.
struct ArenaBuilder {
    universe: usize,
    offsets: Vec<u32>,
    facts: Vec<FactId>,
    arena_index: HashMap<Vec<FactId>, usize>,
    entries: Vec<BankEntry>,
}

impl ArenaBuilder {
    fn new(universe: usize, entries: usize) -> Self {
        ArenaBuilder {
            universe,
            offsets: vec![0],
            facts: Vec::new(),
            arena_index: HashMap::new(),
            entries: Vec::with_capacity(entries),
        }
    }

    /// Appends the next entry: `None` marks a fallback entry, `Some` its
    /// raw witness id-lists (duplicates and supersets allowed).
    fn push(&mut self, raw: Option<Vec<Vec<FactId>>>) {
        let Some(raw) = raw else {
            self.entries.push(BankEntry::Fallback);
            return;
        };
        let mut mask = Vec::new();
        for witness in minimal_antichain_images(raw) {
            // Probe before moving: witnesses shared with an earlier
            // entry cost a lookup, not an arena slot.
            let index = match self.arena_index.get(&witness) {
                Some(&index) => index,
                None => {
                    let index = self.offsets.len() - 1;
                    self.facts.extend_from_slice(&witness);
                    self.offsets.push(
                        u32::try_from(self.facts.len())
                            .expect("the witness arena holds fewer than 2^32 fact ids"),
                    );
                    self.arena_index.insert(witness, index);
                    index
                }
            };
            let word = index / 64;
            if mask.len() <= word {
                mask.resize(word + 1, 0u64);
            }
            mask[word] |= 1u64 << (index % 64);
        }
        self.entries.push(BankEntry::Compiled { mask });
    }

    /// The assembled bank, current with changelog version `version`.
    fn finish(self, version: u64) -> LineageBank {
        LineageBank {
            universe: self.universe,
            offsets: self.offsets,
            facts: self.facts,
            entries: self.entries,
            version,
            dense: OnceLock::new(),
        }
    }
}

/// One query of a bank entry: an evaluator plus the candidate tuple.
pub type BankQueryRef<'q> = (&'q QueryEvaluator, &'q [Value]);

/// A bound on the *compile-time* work of [`LineageBank::compile`]: a cap
/// on enumeration steps (candidate facts visited by the shared scan-trie
/// DFS) and/or a shared cancellation flag.
///
/// Witness enumeration is output-polynomial per entry thanks to the
/// witness cap, but a pathological bank — many deep joins over a large
/// database — can still spend a long time *reaching* the cap.  A compile
/// budget turns that stall into graceful degradation: when the budget
/// interrupts enumeration, **every** entry of the bank is marked as a
/// [fallback](LineageBank::is_fallback) entry (a partially enumerated
/// witness set would under-report entailment, so no partial bank is ever
/// used), and the caller answers all queries through the backtracking
/// evaluator instead.  Correctness is unaffected; only the per-draw cost
/// degrades.
///
/// The flag is a plain [`AtomicBool`] so callers outside this crate (the
/// run budgets of `ucqa-core`) can share their cancellation token without
/// a dependency cycle.
#[derive(Debug, Clone, Default)]
pub struct CompileBudget {
    max_steps: Option<u64>,
    cancel: Option<Arc<AtomicBool>>,
}

impl CompileBudget {
    /// How many enumeration steps pass between two reads of the
    /// cancellation flag (the step cap is checked on every step).
    const CANCEL_CHECK_INTERVAL: u64 = 256;

    /// No bound: compilation runs to completion.
    pub fn unlimited() -> Self {
        CompileBudget::default()
    }

    /// Caps the number of enumeration steps.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = Some(max_steps);
        self
    }

    /// Attaches a cancellation flag; setting it interrupts compilation at
    /// the next flag check.
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Polls the budget after `steps` enumeration steps.
    pub fn interrupted(&self, steps: u64) -> bool {
        if self.max_steps.is_some_and(|cap| steps > cap) {
            return true;
        }
        if let Some(flag) = &self.cancel {
            if steps.is_multiple_of(Self::CANCEL_CHECK_INTERVAL) && flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        false
    }
}

/// Observability counters from one shared bank compilation
/// ([`LineageBank::compile_instrumented`]).
///
/// `steps` is the *pass count* of the compile: candidate facts visited by
/// the scan-trie DFS, including the fill passes of memoized subtrees but
/// **not** their replays — so it measures how much enumeration work
/// subtree sharing actually saved (the `e22` bench gates on it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Candidate facts visited by the scan-trie DFS.
    pub steps: u64,
    /// Nodes in the shared scan trie after inserting every entry.
    pub trie_nodes: usize,
    /// Shared-subtree groups detected (≥ 2 structurally identical
    /// subtrees, equal up to slot renaming, anywhere in the trie).
    pub shared_subtrees: usize,
    /// Memoized subtree replays: visits that reused a cached enumeration
    /// instead of re-running the subtree's DFS.
    pub replays: u64,
}

/// How one bank entry answers the per-sample check.
#[derive(Debug, Clone)]
enum BankEntry {
    /// Minimal-antichain witnesses, as a bitmask over the shared arena.
    Compiled { mask: Vec<u64> },
    /// Witness enumeration overflowed the cap; the caller must use the
    /// backtracking evaluator for this query.
    Fallback,
}

/// Reusable per-draw scratch of [`LineageBank::evaluate_into`]: one bit per
/// arena witness ("is this witness contained in the current repair?").
#[derive(Debug, Default, Clone)]
pub struct BankScratch {
    contained: Vec<u64>,
}

impl BankScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        BankScratch::default()
    }

    /// Clears the containment bits for an arena of `witnesses` witnesses.
    fn reset(&mut self, witnesses: usize) {
        self.contained.clear();
        self.contained.resize(witnesses.div_ceil(64), 0);
    }

    /// Records that arena witness `index` is contained in the repair.
    fn mark(&mut self, index: usize) {
        self.contained[index / 64] |= 1u64 << (index % 64);
    }

    /// Whether `entry` holds on the repair: some witness of its mask is
    /// contained (always `false` for a fallback entry).
    fn hits(&self, entry: &BankEntry) -> bool {
        match entry {
            BankEntry::Compiled { mask } => {
                mask.iter().zip(&self.contained).any(|(m, c)| m & c != 0)
            }
            BankEntry::Fallback => false,
        }
    }
}

/// Many compiled lineages over one database, sharing a deduplicated
/// witness arena.
#[derive(Debug, Clone)]
pub struct LineageBank {
    universe: usize,
    /// The arena, as a CSR: witness `w` is the sorted, deduplicated id run
    /// `facts[offsets[w]..offsets[w + 1]]`.  Every *distinct* witness
    /// across all compiled entries is stored once.
    offsets: Vec<u32>,
    facts: Vec<FactId>,
    entries: Vec<BankEntry>,
    /// The database changelog version the bank was compiled (or last
    /// refreshed) against — what [`LineageBank::refresh`] replays from.
    version: u64,
    /// Bitset copies of the arena witnesses, built on the first
    /// [`LineageBank::witnesses_of`] call and kept so that a witness
    /// shared by several entries is handed out at one address.  No
    /// per-draw path reads them.
    dense: OnceLock<Vec<FactSet>>,
}

impl LineageBank {
    /// Compiles a bank over `db` with the default per-query witness cap
    /// ([`DEFAULT_WITNESS_CAP`]; an entry's fallback decision depends only
    /// on its own enumeration, so a query falls back in a bank iff it
    /// falls back in a bank of one).
    ///
    /// Candidate arities are validated for **every** query before any
    /// sampling can start; the first mismatch aborts compilation.
    pub fn compile(db: &Database, queries: &[BankQueryRef<'_>]) -> Result<Self, QueryError> {
        Self::compile_with_cap(db, queries, DEFAULT_WITNESS_CAP)
    }

    /// As [`LineageBank::compile`], with an explicit per-query witness cap.
    ///
    /// Compilation is **shared**: every entry is grounded into its
    /// plan-ordered atom sequence
    /// (`QueryEvaluator::grounded_answer_atoms`), the sequences are
    /// factored into a scan trie, and witnesses for the whole bank are
    /// enumerated in one indexed pass over the trie.  Per entry, the
    /// witness set (and the fallback decision) is identical to that entry
    /// compiled as a bank of one — sharing changes the compile cost, never
    /// the result.
    pub fn compile_with_cap(
        db: &Database,
        queries: &[BankQueryRef<'_>],
        cap: usize,
    ) -> Result<Self, QueryError> {
        Self::compile_with_budget(db, queries, cap, &CompileBudget::unlimited())
    }

    /// As [`LineageBank::compile_with_cap`], under a [`CompileBudget`].
    ///
    /// When the budget interrupts enumeration, the whole bank degrades to
    /// [fallback](LineageBank::is_fallback) entries (see [`CompileBudget`]
    /// for why no partial bank is kept) — compilation still succeeds, and
    /// estimation proceeds through the backtracking evaluator.
    pub fn compile_with_budget(
        db: &Database,
        queries: &[BankQueryRef<'_>],
        cap: usize,
        budget: &CompileBudget,
    ) -> Result<Self, QueryError> {
        Self::compile_instrumented(db, queries, cap, budget).map(|(bank, _)| bank)
    }

    /// As [`LineageBank::compile_with_budget`], additionally returning the
    /// [`CompileStats`] of the shared enumeration — the pass count the
    /// `e22` bench gates subtree sharing on.
    pub fn compile_instrumented(
        db: &Database,
        queries: &[BankQueryRef<'_>],
        cap: usize,
        budget: &CompileBudget,
    ) -> Result<(Self, CompileStats), QueryError> {
        let universe = db.len();
        // Ground every entry first: candidate arities are validated for
        // the whole bank before any enumeration starts.  `None` marks an
        // entry with provably zero homomorphisms (a repeated answer
        // variable received conflicting candidate values, or a constant
        // was never interned by the dictionary) — zero witnesses.
        let dict = db.dictionary();
        let mut trie = ScanTrie::default();
        for (entry, &(evaluator, candidate)) in queries.iter().enumerate() {
            if let Some(atoms) = evaluator.grounded_answer_atoms(dict, candidate)? {
                trie.insert(entry, &atoms);
            }
        }
        let mut raw: Vec<Vec<Vec<FactId>>> = vec![Vec::new(); queries.len()];
        let mut overflowed = vec![false; queries.len()];
        let mut stats = CompileStats {
            trie_nodes: trie.nodes.len(),
            ..CompileStats::default()
        };
        if !trie.enumerate(db, cap, budget, &mut raw, &mut overflowed, &mut stats) {
            // The budget interrupted enumeration: a partially enumerated
            // witness set would under-report entailment, so the whole
            // bank degrades to evaluator fallback.
            overflowed.fill(true);
        }

        // Witnesses stay sorted fact-id lists throughout — cheap to sort,
        // hash and containment-check — and only the *distinct* arena
        // survivors are appended to the arena's CSR.
        let mut arena = ArenaBuilder::new(universe, queries.len());
        for (raw, overflowed) in raw.into_iter().zip(overflowed) {
            arena.push((!overflowed).then_some(raw));
        }
        Ok((arena.finish(db.version()), stats))
    }

    /// As [`LineageBank::compile`], on the **unplanned baseline**: one
    /// naive backtracking enumeration pass per `(query, candidate)` entry
    /// ([`QueryEvaluator::for_each_answer_image_unplanned`]: body-order
    /// atoms, whole-relation scans), no prefix sharing.  Every entry holds
    /// the same witness set and makes the same fallback decision as in the
    /// shared compile; only the compile cost differs.  This is the
    /// pre-refactor behaviour, kept as the measured baseline of the `e17`
    /// bench and the cross-check of the property tests.
    pub fn compile_unplanned(
        db: &Database,
        queries: &[BankQueryRef<'_>],
    ) -> Result<Self, QueryError> {
        Self::compile_unplanned_with_cap(db, queries, DEFAULT_WITNESS_CAP)
    }

    /// As [`LineageBank::compile_unplanned`], with an explicit cap.
    pub fn compile_unplanned_with_cap(
        db: &Database,
        queries: &[BankQueryRef<'_>],
        cap: usize,
    ) -> Result<Self, QueryError> {
        let all = db.all_facts();
        let mut arena = ArenaBuilder::new(db.len(), queries.len());
        for &(evaluator, candidate) in queries {
            let mut raw: Vec<Vec<FactId>> = Vec::new();
            let overflowed =
                evaluator.for_each_answer_image_unplanned(db, &all, candidate, |image| {
                    raw.push(witness_ids(image));
                    // One past the cap is enough to know this entry must
                    // fall back to the evaluator.
                    raw.len() > cap
                })?;
            arena.push((!overflowed).then_some(raw));
        }
        Ok(arena.finish(db.version()))
    }

    /// Incrementally refreshes the bank after database mutations, with the
    /// default witness cap: replays the changelog since the version the
    /// bank was compiled against instead of re-running the shared-trie
    /// enumeration.  `queries` must be the same `(evaluator, candidate)`
    /// list the bank was compiled from.
    ///
    /// Per compiled entry, witnesses touching a deleted fact are dropped
    /// (any absorbed superset contained the same fact, so nothing
    /// resurfaces), new witnesses are enumerated by pinned delta passes
    /// ([`QueryEvaluator::for_each_delta_answer_image`]), and the merged
    /// set re-minimalises to **exactly** the antichain a fresh compile
    /// would build — so per-draw booleans, and hence estimates, are
    /// bit-identical to a recompiled bank's.  The arena is rebuilt in
    /// entry order, preserving the compile-time arena layout.
    ///
    /// Fallback entries stay fallback (the backtracking evaluator they
    /// route through always sees the current database), and a compiled
    /// entry whose refreshed witness count exceeds the cap degrades to
    /// fallback.  Refresh counts only live witnesses against the cap,
    /// where a fresh compile counts every enumerated image, so the two may
    /// make different fallback decisions for borderline entries — the
    /// per-query booleans agree either way.
    ///
    /// Returns the number of changelog entries replayed (`0` when the bank
    /// is already current).
    pub fn refresh(
        &mut self,
        db: &Database,
        queries: &[BankQueryRef<'_>],
    ) -> Result<usize, QueryError> {
        self.refresh_with_cap(db, queries, DEFAULT_WITNESS_CAP)
    }

    /// As [`LineageBank::refresh`], additionally reporting which entries'
    /// [fingerprint](LineageBank::entry_fingerprint) actually changed
    /// across the replay.
    ///
    /// `before` is the fingerprint vector of the **pre-replay** state —
    /// the caller caches it from compile time or from the previous
    /// refresh, because the conflict structure it was computed under no
    /// longer exists once the database has moved.  `structure` describes
    /// the **post-replay** conflict state (the caller refreshes its
    /// conflict index first, then the bank).  An entry is flagged changed
    /// iff the fingerprints differ (fallback entries, which have no
    /// witness set to fingerprint, are always flagged once anything at
    /// all replayed), and the post-replay fingerprints are returned for
    /// the caller to cache for the next delta.
    ///
    /// This is the freshness signal of the sliding-window estimator
    /// (`ucqa_core::stream`): entries whose fingerprint survived a tick
    /// keep their converged estimates verbatim, entries that changed
    /// re-enter the shared stopping loop via [`BankLiveSet::enroll`].
    /// Under uniform-sequences generators the caller must additionally
    /// compare [`ConflictStructure::fingerprint`]s — see
    /// [`LineageBank::entry_fingerprint`].
    ///
    /// # Panics
    /// Panics if `before.len()` differs from the number of bank entries.
    pub fn refresh_with_delta(
        &mut self,
        db: &Database,
        queries: &[BankQueryRef<'_>],
        before: &[Option<u64>],
        structure: &ConflictStructure,
    ) -> Result<RefreshDelta, QueryError> {
        assert_eq!(
            before.len(),
            self.entries.len(),
            "refresh_with_delta requires one cached fingerprint per entry"
        );
        let replayed = self.refresh(db, queries)?;
        if replayed == 0 {
            // Nothing replayed: the database did not move, so even
            // fallback entries (fingerprint `None`) are provably fresh
            // and the cached fingerprints still describe this state.
            return Ok(RefreshDelta {
                replayed,
                changed: vec![false; self.entries.len()],
                fingerprints: before.to_vec(),
            });
        }
        let fingerprints = self.fingerprints(structure);
        let changed = fingerprints
            .iter()
            .zip(before)
            .map(|(after, prior)| after.is_none() || prior.is_none() || after != prior)
            .collect();
        Ok(RefreshDelta {
            replayed,
            changed,
            fingerprints,
        })
    }

    /// As [`LineageBank::refresh`], with an explicit per-query witness cap.
    ///
    /// # Panics
    /// Panics if `queries.len()` differs from the number of bank entries.
    pub fn refresh_with_cap(
        &mut self,
        db: &Database,
        queries: &[BankQueryRef<'_>],
        cap: usize,
    ) -> Result<usize, QueryError> {
        assert_eq!(
            queries.len(),
            self.entries.len(),
            "refresh requires the bank's own query list"
        );
        let changes = db.changes_since(self.version);
        if changes.is_empty() {
            return Ok(0);
        }
        let applied = changes.len();
        let universe = db.len();
        let mut deleted = FactSet::empty(universe);
        let mut inserted_by_relation: Vec<Vec<FactId>> =
            vec![Vec::new(); db.schema().relation_count()];
        for change in changes {
            match change {
                FactChange::Inserted(id) => {
                    if db.is_live(*id) {
                        inserted_by_relation[db.relation_of(*id).index()].push(*id);
                    }
                }
                FactChange::Deleted { id, .. } => {
                    deleted.insert(*id);
                }
            }
        }
        let all = db.all_facts();
        let mut arena = ArenaBuilder::new(universe, self.entries.len());
        for (entry, &(evaluator, candidate)) in queries.iter().enumerate() {
            if self.is_fallback(entry) {
                arena.push(None);
                continue;
            }
            // Survivors first, as the arena's sorted id runs; old ids
            // all lie inside the (grown) universe of `deleted`.
            let mut raw: Vec<Vec<FactId>> = Vec::new();
            for index in self.entry_witnesses(entry) {
                let witness = self.witness(index);
                if !witness.iter().any(|&fact| deleted.contains(fact)) {
                    raw.push(witness.to_vec());
                }
            }
            let over_cap = evaluator.for_each_delta_answer_image(
                db,
                &all,
                candidate,
                &inserted_by_relation,
                |image| {
                    raw.push(witness_ids(image));
                    raw.len() > cap
                },
            )?;
            arena.push((!over_cap).then_some(raw));
        }
        *self = arena.finish(db.version());
        Ok(applied)
    }

    /// The per-draw batched entailment check: writes, for every query `i`,
    /// `hits[i] = (repair ⊨ Qᵢ(c̄ᵢ))` — except for fallback entries, which
    /// are set to `false` and must be answered by the caller's evaluator
    /// (see [`LineageBank::is_fallback`]).
    ///
    /// Performs no heap allocation once `scratch` reaches steady-state
    /// capacity.  Each distinct witness is containment-checked exactly
    /// once, no matter how many queries share it, by probing its fact ids
    /// against `repair` — the cost is the arena's id count, not `|D|`.
    ///
    /// # Panics
    /// Panics if `hits.len()` differs from the number of queries.
    pub fn evaluate_into(&self, repair: &FactSet, scratch: &mut BankScratch, hits: &mut [bool]) {
        assert_eq!(hits.len(), self.entries.len(), "hits length mismatch");
        debug_assert_eq!(repair.universe(), self.universe);
        scratch.reset(self.witness_count());
        for index in 0..self.witness_count() {
            if self.contained_in(index, repair) {
                scratch.mark(index);
            }
        }
        for (entry, hit) in self.entries.iter().zip(hits.iter_mut()) {
            *hit = scratch.hits(entry);
        }
    }

    /// Witness `index` of the arena: its sorted, deduplicated fact ids.
    fn witness(&self, index: usize) -> &[FactId] {
        &self.facts[self.offsets[index] as usize..self.offsets[index + 1] as usize]
    }

    /// `witness(index) ⊆ repair`, one bit probe per witness fact.  Every
    /// id is probed (a fold, not a short-circuiting `all`): a witness has
    /// a handful of ids and most witnesses miss, so a mispredicted early
    /// exit costs more than the probes it skips.
    fn contained_in(&self, index: usize, repair: &FactSet) -> bool {
        self.witness(index)
            .iter()
            .fold(true, |all, &fact| all & repair.contains(fact))
    }

    /// Number of queries in the bank.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff the bank holds no queries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of *distinct* witnesses in the shared arena.
    pub fn witness_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of witnesses of query `index`'s own minimal antichain, or
    /// `None` for a fallback entry.
    pub fn query_witness_count(&self, index: usize) -> Option<usize> {
        match &self.entries[index] {
            BankEntry::Compiled { mask } => {
                Some(mask.iter().map(|w| w.count_ones() as usize).sum())
            }
            BankEntry::Fallback => None,
        }
    }

    /// `true` iff query `index` overflowed the witness cap and must be
    /// answered by the backtracking evaluator.
    pub fn is_fallback(&self, index: usize) -> bool {
        matches!(self.entries[index], BankEntry::Fallback)
    }

    /// `true` iff some entry is a fallback entry.
    pub fn has_fallback(&self) -> bool {
        (0..self.entries.len()).any(|i| self.is_fallback(i))
    }

    /// The size of the fact universe the bank ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The database changelog version the bank is current with (see
    /// [`Database::version`]); [`LineageBank::refresh`] replays the
    /// changelog from here.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The arena witness indices referenced by entry `index`'s mask
    /// (empty for fallback entries).
    fn entry_witnesses(&self, index: usize) -> impl Iterator<Item = usize> + '_ {
        let mask: &[u64] = match &self.entries[index] {
            BankEntry::Compiled { mask } => mask,
            BankEntry::Fallback => &[],
        };
        mask.iter().enumerate().flat_map(|(word, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(word * 64 + bit)
            })
        })
    }

    /// A stable fingerprint of entry `index`'s lineage **and its conflict
    /// context** — a 64-bit FNV-1a hash over the sorted witness id-lists
    /// (witnesses ordered lexicographically, fact ids ascending within
    /// each witness), each fact id paired with the
    /// [`ConflictStructure::digest`] of its conflict component — or
    /// `None` for a fallback entry, which has no witness set to hash.
    /// `structure` must describe the same database state the bank is
    /// current with.
    ///
    /// Two states assign an entry equal fingerprints iff its witness
    /// *sets* are equal **and** every witness fact sits in a conflict
    /// component holding the same fact ids: the arena layout, which
    /// shifts as other entries change across refreshes, does not
    /// participate.  The witness sets alone are not enough — a fact that
    /// joins a witness fact's block without matching any query atom
    /// leaves the lineage intact but changes the repair distribution the
    /// witness is drawn under, and with it the answer probability.
    ///
    /// The windowed estimator uses this to detect entries whose lineage
    /// *and* whose repair marginals provably survived a tick, and keeps
    /// their converged estimates.  Under uniform repairs and uniform
    /// operations the per-component marginals are independent of the
    /// rest of the database, so the fingerprint alone certifies an
    /// unchanged probability; under uniform *sequences* the marginals
    /// additionally depend on the global component structure (sequence
    /// interleavings weight components against each other), which the
    /// caller must gate separately via
    /// [`ConflictStructure::fingerprint`].
    pub fn entry_fingerprint(&self, index: usize, structure: &ConflictStructure) -> Option<u64> {
        match &self.entries[index] {
            BankEntry::Fallback => None,
            BankEntry::Compiled { .. } => {
                let mut lists: Vec<&[FactId]> = self
                    .entry_witnesses(index)
                    .map(|w| self.witness(w))
                    .collect();
                lists.sort_unstable();
                const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
                const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
                let mut hash = FNV_OFFSET;
                let mut mix = |value: u64| {
                    for byte in value.to_le_bytes() {
                        hash ^= u64::from(byte);
                        hash = hash.wrapping_mul(FNV_PRIME);
                    }
                };
                mix(lists.len() as u64);
                for list in &lists {
                    // Length-prefix each list so concatenations can't
                    // collide across witness boundaries.
                    mix(list.len() as u64);
                    for &id in *list {
                        mix(id.index() as u64);
                        mix(structure.digest(id));
                    }
                }
                Some(hash)
            }
        }
    }

    /// The per-entry fingerprints under `structure`, in entry order (see
    /// [`LineageBank::entry_fingerprint`]).
    pub fn fingerprints(&self, structure: &ConflictStructure) -> Vec<Option<u64>> {
        (0..self.entries.len())
            .map(|i| self.entry_fingerprint(i, structure))
            .collect()
    }

    /// The witness sets of entry `index`'s minimal antichain, in arena
    /// order, or `None` for a fallback entry.  Ground-truth comparisons
    /// (windowed state vs a from-scratch rebuild) canonicalize these into
    /// sorted id-lists before comparing.
    ///
    /// The bitsets are built from the arena once per bank, on the first
    /// call, and kept: every call hands out the same witness at the same
    /// address, so a witness shared by two entries can be recognised by
    /// address.  The per-draw check never reads them.
    pub fn witnesses_of(&self, index: usize) -> Option<Vec<&FactSet>> {
        match &self.entries[index] {
            BankEntry::Fallback => None,
            BankEntry::Compiled { .. } => {
                let dense = self.dense.get_or_init(|| {
                    (0..self.witness_count())
                        .map(|w| FactSet::from_iter(self.universe, self.witness(w).iter().copied()))
                        .collect()
                });
                Some(self.entry_witnesses(index).map(|w| &dense[w]).collect())
            }
        }
    }

    /// As [`LineageBank::evaluate_into`], restricted to the live queries
    /// of `live`: writes `hits[q]` for every live query `q` (fallback
    /// entries are set to `false` as usual) and **skips** both retired
    /// queries and the arena witnesses no live query references.
    ///
    /// On the live entries the booleans are bit-identical to
    /// [`LineageBank::evaluate_into`]: a live query's witnesses all carry a
    /// positive reference count, so compaction changes the cost of the
    /// containment scan, never its outcome.  Entries of retired queries
    /// are left untouched (they may hold stale values).
    ///
    /// # Panics
    /// Panics if `hits.len()` differs from the number of queries, or if
    /// `live` was built for a different bank shape.
    pub fn evaluate_live_into(
        &self,
        live: &BankLiveSet,
        repair: &FactSet,
        scratch: &mut BankScratch,
        hits: &mut [bool],
    ) {
        assert_eq!(hits.len(), self.entries.len(), "hits length mismatch");
        assert_eq!(
            live.witness_refs.len(),
            self.witness_count(),
            "live set was built for a different bank"
        );
        debug_assert_eq!(repair.universe(), self.universe);
        scratch.reset(self.witness_count());
        for &index in &live.live_witnesses {
            if self.contained_in(index, repair) {
                scratch.mark(index);
            }
        }
        for &query in &live.live_entries {
            hits[query] = scratch.hits(&self.entries[query]);
        }
    }
}

/// What one [`LineageBank::refresh_with_delta`] actually touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefreshDelta {
    /// Changelog entries replayed (`0` when the bank was already current).
    pub replayed: usize,
    /// Per entry, in bank order: `true` iff the lineage-and-conflict
    /// fingerprint changed across the replay.  Fallback entries are
    /// flagged whenever anything replayed — with no witness set there is
    /// nothing to prove unchanged.
    pub changed: Vec<bool>,
    /// The post-replay fingerprints, in bank order — the `before` of the
    /// next delta.
    pub fingerprints: Vec<Option<u64>>,
}

impl RefreshDelta {
    /// The indices of the entries whose lineage changed.
    pub fn changed_entries(&self) -> impl Iterator<Item = usize> + '_ {
        self.changed
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| c.then_some(i))
    }
}

/// One node of the shared scan trie: a grounded, slot-normalized,
/// dictionary-encoded atom, plus everything the enumerator needs to run
/// it as one indexed join step.
#[derive(Debug)]
struct TrieNode {
    /// The grounded atom (constants substituted and encoded to symbols,
    /// variables renumbered by first occurrence along the path — so
    /// prefixes equal up to naming share nodes, and node comparison
    /// during insertion is a `u32`-wise compare).
    atom: SymAtom,
    /// Term positions bound when this node runs (constants, plus
    /// variables introduced by ancestor nodes).
    bound_positions: Vec<usize>,
    /// Number of distinct variable slots introduced up to and including
    /// this node (= the child level's "bound slots" count).
    slots_after: usize,
    /// Child node ids.
    children: Vec<usize>,
    /// Entries whose grounded atom sequence ends at this node: every full
    /// match of the path emits one witness per listed entry.
    terminals: Vec<usize>,
    /// All entries with a terminal in this subtree — once they have all
    /// overflowed their cap, the subtree is pruned.
    entries_below: Vec<usize>,
}

/// The shared scan trie of one bank compilation: grounded atom sequences
/// factored by common prefix, enumerated in a single DFS.
#[derive(Debug, Default)]
struct ScanTrie {
    nodes: Vec<TrieNode>,
    /// Children of the (virtual) root.
    roots: Vec<usize>,
    /// Entries with an *empty* grounded atom sequence (empty-body
    /// queries): their single witness is the empty set.
    root_terminals: Vec<usize>,
    /// Maximum `slots_after` over all nodes — the binding-buffer size.
    max_slots: usize,
}

impl ScanTrie {
    /// Inserts one entry's grounded atom sequence, sharing every node of
    /// the longest existing prefix.
    fn insert(&mut self, entry: usize, atoms: &[SymAtom]) {
        if atoms.is_empty() {
            self.root_terminals.push(entry);
            return;
        }
        let mut parent: Option<usize> = None;
        let mut slots_before = 0usize;
        for (depth, atom) in atoms.iter().enumerate() {
            let children: &[usize] = match parent {
                None => &self.roots,
                Some(p) => &self.nodes[p].children,
            };
            let found = children
                .iter()
                .copied()
                .find(|&c| self.nodes[c].atom == *atom);
            let node = match found {
                Some(node) => node,
                None => {
                    let bound_positions: Vec<usize> = atom
                        .terms
                        .iter()
                        .enumerate()
                        .filter(|(_, term)| match term {
                            SymTerm::Const(_) => true,
                            SymTerm::Var(slot) => *slot < slots_before,
                        })
                        .map(|(position, _)| position)
                        .collect();
                    let slots_after = atom
                        .terms
                        .iter()
                        .filter_map(|term| match term {
                            SymTerm::Var(slot) => Some(slot + 1),
                            SymTerm::Const(_) => None,
                        })
                        .fold(slots_before, usize::max);
                    let node = self.nodes.len();
                    self.nodes.push(TrieNode {
                        atom: atom.clone(),
                        bound_positions,
                        slots_after,
                        children: Vec::new(),
                        terminals: Vec::new(),
                        entries_below: Vec::new(),
                    });
                    self.max_slots = self.max_slots.max(slots_after);
                    match parent {
                        None => self.roots.push(node),
                        Some(p) => self.nodes[p].children.push(node),
                    }
                    node
                }
            };
            self.nodes[node].entries_below.push(entry);
            slots_before = self.nodes[node].slots_after;
            if depth + 1 == atoms.len() {
                self.nodes[node].terminals.push(entry);
            }
            parent = Some(node);
        }
    }

    /// `slots_before` of every node (the parent's `slots_after`, `0` at
    /// the roots) — the base against which a subtree's slots are local.
    fn compute_bases(&self) -> Vec<usize> {
        let mut bases = vec![0usize; self.nodes.len()];
        let mut stack: Vec<(usize, usize)> = self.roots.iter().map(|&root| (root, 0)).collect();
        while let Some((node, base)) = stack.pop() {
            bases[node] = base;
            for &child in &self.nodes[node].children {
                stack.push((child, self.nodes[node].slots_after));
            }
        }
        bases
    }

    /// Serialises the subtree rooted at `node` into a canonical string:
    /// local slots (introduced inside the subtree, `≥ base`) rebased to
    /// `l{slot − base}`, external slots (bound by ancestors) numbered
    /// `e{k}` by first occurrence in the canonical traversal, children
    /// visited in sorted order of their own serialisation.  Two subtrees
    /// serialise equally iff they are identical up to slot renaming —
    /// enumeration of one under a binding of its external slots is then
    /// valid verbatim for the other.  Appends the pre-order node ids to
    /// `order` and the external slots to `externals` alongside.
    fn canon_subtree(
        &self,
        node: usize,
        base: usize,
        out: &mut String,
        externals: &mut Vec<usize>,
        order: &mut Vec<usize>,
    ) {
        use std::fmt::Write as _;
        order.push(node);
        let n = &self.nodes[node];
        let _ = write!(out, "{}(", n.atom.relation.index());
        for term in &n.atom.terms {
            match term {
                SymTerm::Const(sym) => {
                    let _ = write!(out, "c{},", sym.index());
                }
                SymTerm::Var(slot) if *slot >= base => {
                    let _ = write!(out, "l{},", slot - base);
                }
                SymTerm::Var(slot) => {
                    let k = match externals.iter().position(|s| s == slot) {
                        Some(k) => k,
                        None => {
                            externals.push(*slot);
                            externals.len() - 1
                        }
                    };
                    let _ = write!(out, "e{k},");
                }
            }
        }
        out.push(')');
        // Children ordered by their own standalone serialisation, so the
        // canonical traversal is insertion-order independent.
        let mut kids: Vec<(String, usize)> = n
            .children
            .iter()
            .map(|&child| {
                let mut key = String::new();
                self.canon_subtree(child, base, &mut key, &mut Vec::new(), &mut Vec::new());
                (key, child)
            })
            .collect();
        kids.sort();
        out.push('[');
        for (_, child) in kids {
            self.canon_subtree(child, base, out, externals, order);
        }
        out.push(']');
    }

    /// Detects every group of ≥ 2 structurally identical subtrees (equal
    /// canonical serialisations, terminals ignored) anywhere in the trie.
    /// Cost-based plans order each query's atoms independently, so shared
    /// work no longer always surfaces as a shared *prefix*; these groups
    /// are where [`ScanTrie::enumerate`] recovers the sharing, by
    /// memoizing one member's enumeration per external-slot binding and
    /// replaying it for the others.
    fn shared_subtrees(&self) -> SubtreeSharing {
        let mut sharing = SubtreeSharing::default();
        if self.nodes.is_empty() {
            return sharing;
        }
        let bases = self.compute_bases();
        let mut by_key: HashMap<String, Vec<SubtreeMember>> = HashMap::new();
        for (node, &base) in bases.iter().enumerate() {
            let mut key = String::new();
            let mut externals = Vec::new();
            let mut order = Vec::new();
            self.canon_subtree(node, base, &mut key, &mut externals, &mut order);
            by_key
                .entry(key)
                .or_default()
                .push(SubtreeMember { order, externals });
        }
        for (_, members) in by_key {
            if members.len() < 2 {
                continue;
            }
            let positions = members[0].order.len();
            let mut emit = vec![false; positions];
            for member in &members {
                for (pos, &node) in member.order.iter().enumerate() {
                    if !self.nodes[node].terminals.is_empty() {
                        emit[pos] = true;
                    }
                }
            }
            let group = sharing.groups.len();
            for (index, member) in members.iter().enumerate() {
                sharing.member_of.insert(member.order[0], (group, index));
            }
            sharing.groups.push(SubtreeGroup { members, emit });
        }
        sharing
    }

    /// Enumerates the whole trie in one DFS, appending each full match's
    /// image to `raw[entry]` for every terminal entry of the matched path.
    /// An entry whose raw witness count exceeds `cap` is flagged in
    /// `overflowed` and collects no further witnesses; subtrees whose
    /// entries have all overflowed are pruned.
    ///
    /// Structurally identical subtrees (as detected by
    /// [`ScanTrie::shared_subtrees`]) are enumerated **once per binding of
    /// their external slots**: the first visit records the subtree's
    /// emissions, later visits replay them against their own terminals.
    /// Replay preserves the per-entry witness multiset and the per-push
    /// overflow accounting, so witness sets and fallback flags are
    /// bit-identical to the unshared DFS — only the pass count shrinks.
    ///
    /// Returns `false` iff `budget` interrupted the DFS (the collected
    /// witnesses are then incomplete and must not be used).
    fn enumerate(
        &self,
        db: &Database,
        cap: usize,
        budget: &CompileBudget,
        raw: &mut [Vec<Vec<FactId>>],
        overflowed: &mut [bool],
        stats: &mut CompileStats,
    ) -> bool {
        for &entry in &self.root_terminals {
            // An empty body is matched by the empty image: one witness,
            // the empty set (entailed by every subset).
            raw[entry].push(Vec::new());
        }
        let sharing = self.shared_subtrees();
        stats.shared_subtrees = sharing.groups.len();
        let cx = EnumCx {
            db,
            index: db.relation_index(),
            cap,
            budget,
            sharing: &sharing,
        };
        let mut state = EnumState {
            steps: 0,
            replays: 0,
            bindings: vec![None; self.max_slots],
            image: Vec::new(),
            cache: HashMap::new(),
            cached_emissions: 0,
        };
        let mut complete = true;
        for &root in &self.roots {
            if !self.visit(&cx, &mut state, root, raw, overflowed) {
                complete = false;
                break;
            }
        }
        stats.steps = state.steps;
        stats.replays = state.replays;
        complete
    }

    /// One DFS node of [`ScanTrie::enumerate`]; returns `false` iff the
    /// compile budget interrupted the walk.
    fn visit(
        &self,
        cx: &EnumCx<'_>,
        state: &mut EnumState,
        node_id: usize,
        raw: &mut [Vec<Vec<FactId>>],
        overflowed: &mut [bool],
    ) -> bool {
        let node = &self.nodes[node_id];
        if node.entries_below.iter().all(|&e| overflowed[e]) {
            return true;
        }
        // A shared subtree: enumerate once per external binding, replay
        // everywhere else (unless the memo budget is spent — then this
        // occurrence simply runs the plain DFS below).
        if let Some(&(group, member)) = cx.sharing.member_of.get(&node_id) {
            let group_ref = &cx.sharing.groups[group];
            let member_ref = &group_ref.members[member];
            let external_syms: Vec<Sym> = member_ref
                .externals
                .iter()
                .map(|&slot| {
                    // Invariant, not user-reachable: external slots are
                    // bound by ancestor nodes before this depth.
                    state.bindings[slot].expect("ancestor slots are bound during the DFS")
                })
                .collect();
            let key = (group, external_syms);
            if !state.cache.contains_key(&key) && state.cached_emissions < MEMO_EMISSION_BUDGET {
                let mut recorded: Vec<(u32, Vec<FactId>)> = Vec::new();
                let mut counts = vec![0usize; group_ref.emit.len()];
                let mut open = group_ref.emit.iter().filter(|&&e| e).count();
                let mut local_image: Vec<FactId> = Vec::new();
                if !self.record(
                    cx,
                    state,
                    member_ref,
                    group_ref,
                    0,
                    &mut local_image,
                    &mut recorded,
                    &mut counts,
                    &mut open,
                ) {
                    return false;
                }
                state.cached_emissions += recorded.len();
                state.cache.insert(key.clone(), Rc::new(recorded));
            }
            if let Some(emissions) = state.cache.get(&key).cloned() {
                state.replays += 1;
                for (pos, local) in emissions.iter() {
                    let emit_node = &self.nodes[member_ref.order[*pos as usize]];
                    if emit_node.terminals.is_empty() {
                        continue;
                    }
                    let mut ids: Vec<FactId> = state
                        .image
                        .iter()
                        .copied()
                        .chain(local.iter().copied())
                        .collect();
                    ids.sort_unstable();
                    ids.dedup();
                    emit(&emit_node.terminals, &ids, cx.cap, raw, overflowed);
                }
                return true;
            }
        }
        let columns = cx.db.columns_of(node.atom.relation);
        let mut gallop_scratch = Vec::new();
        let candidates = candidate_facts(
            cx.db,
            cx.index,
            node.atom.relation,
            &node.atom.terms,
            &node.bound_positions,
            &state.bindings,
            &mut gallop_scratch,
        );
        for &fact_id in candidates {
            state.steps += 1;
            if cx.budget.interrupted(state.steps) {
                return false;
            }
            let Some(bound_here) = match_and_bind(
                &node.atom.terms,
                columns,
                cx.db.row_of(fact_id),
                &mut state.bindings,
            ) else {
                continue;
            };
            state.image.push(fact_id);
            if !node.terminals.is_empty() {
                // Normalise the image once per match, not once per
                // terminal (duplicate entries share one terminal list).
                emit(
                    &node.terminals,
                    &witness_ids(&state.image),
                    cx.cap,
                    raw,
                    overflowed,
                );
            }
            for &child in &node.children {
                if !self.visit(cx, state, child, raw, overflowed) {
                    // Interrupted: the caller discards every witness, so
                    // there is no need to unwind bindings on the way out.
                    return false;
                }
            }
            state.image.pop();
            unbind(&node.atom.terms, bound_here, &mut state.bindings);
        }
        true
    }

    /// The fill pass of one memoized subtree: a plain DFS over the member
    /// rooted at `member.order[pos]` that *records* each match landing on
    /// an emit position (a canonical position where some group member has
    /// terminals) instead of pushing witnesses.  Per emit position, at
    /// most `cap + 1` emissions are recorded — any entry replaying more
    /// than that from one position has provably overflowed already, so
    /// truncation cannot change a witness set or a fallback flag.  No
    /// overflow pruning happens here (the cache must be complete for
    /// *every* member), but the step budget still applies; returns `false`
    /// iff interrupted.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        cx: &EnumCx<'_>,
        state: &mut EnumState,
        member: &SubtreeMember,
        group: &SubtreeGroup,
        pos: usize,
        local_image: &mut Vec<FactId>,
        recorded: &mut Vec<(u32, Vec<FactId>)>,
        counts: &mut [usize],
        open: &mut usize,
    ) -> bool {
        if *open == 0 {
            // Every emit position already holds cap + 1 emissions:
            // nothing below can still matter.
            return true;
        }
        let node_id = member.order[pos];
        let node = &self.nodes[node_id];
        let columns = cx.db.columns_of(node.atom.relation);
        let mut gallop_scratch = Vec::new();
        let candidates = candidate_facts(
            cx.db,
            cx.index,
            node.atom.relation,
            &node.atom.terms,
            &node.bound_positions,
            &state.bindings,
            &mut gallop_scratch,
        );
        for &fact_id in candidates {
            state.steps += 1;
            if cx.budget.interrupted(state.steps) {
                return false;
            }
            let Some(bound_here) = match_and_bind(
                &node.atom.terms,
                columns,
                cx.db.row_of(fact_id),
                &mut state.bindings,
            ) else {
                continue;
            };
            local_image.push(fact_id);
            if group.emit[pos] && counts[pos] <= cx.cap {
                recorded.push((pos as u32, local_image.clone()));
                counts[pos] += 1;
                if counts[pos] > cx.cap {
                    *open -= 1;
                }
            }
            for &child in &node.children {
                // The canonical order is a pre-order traversal, so a
                // child's position is its index in `member.order`.
                let child_pos = member
                    .order
                    .iter()
                    .position(|&n| n == child)
                    .expect("subtree traversal covers every child");
                if !self.record(
                    cx,
                    state,
                    member,
                    group,
                    child_pos,
                    local_image,
                    recorded,
                    counts,
                    open,
                ) {
                    return false;
                }
            }
            local_image.pop();
            unbind(&node.atom.terms, bound_here, &mut state.bindings);
        }
        true
    }
}

/// Pushes one normalised witness image to every terminal entry that has
/// not overflowed yet.  One past the cap is enough to know an entry must
/// fall back to the evaluator: it is flagged and its witnesses dropped.
fn emit(
    terminals: &[usize],
    ids: &[FactId],
    cap: usize,
    raw: &mut [Vec<Vec<FactId>>],
    overflowed: &mut [bool],
) {
    for &entry in terminals {
        if !overflowed[entry] {
            raw[entry].push(ids.to_vec());
            if raw[entry].len() > cap {
                overflowed[entry] = true;
                raw[entry] = Vec::new();
            }
        }
    }
}

/// A hard bound on the total emissions retained by the subtree memo of one
/// [`ScanTrie::enumerate`] — past it, further shared-subtree occurrences
/// fall back to the plain DFS (correctness is unaffected; only the
/// sharing degrades).
const MEMO_EMISSION_BUDGET: usize = 1 << 20;

/// One occurrence of a shared subtree in the trie.
#[derive(Debug)]
struct SubtreeMember {
    /// Node ids in canonical (pre-order, sorted-children) traversal
    /// order; `order[0]` is the subtree root.
    order: Vec<usize>,
    /// The ancestor-bound slots the subtree reads, in canonical
    /// first-occurrence order — the memo key is their bound symbols.
    externals: Vec<usize>,
}

/// A group of ≥ 2 structurally identical subtrees.
#[derive(Debug)]
struct SubtreeGroup {
    members: Vec<SubtreeMember>,
    /// Canonical position → some member has terminals there (the
    /// positions whose matches the fill pass must record).
    emit: Vec<bool>,
}

/// The sharing analysis of one trie, from [`ScanTrie::shared_subtrees`].
#[derive(Debug, Default)]
struct SubtreeSharing {
    /// Subtree-root node id → (group index, member index).
    member_of: HashMap<usize, (usize, usize)>,
    groups: Vec<SubtreeGroup>,
}

/// The borrowed context of one [`ScanTrie::enumerate`] DFS.
struct EnumCx<'a> {
    db: &'a Database,
    index: &'a RelationIndex,
    cap: usize,
    budget: &'a CompileBudget,
    sharing: &'a SubtreeSharing,
}

/// One recorded subtree emission: the local emit position and the local
/// fact image to splice onto the caller's prefix on replay.
type SubtreeEmission = (u32, Vec<FactId>);

/// The mutable state of one [`ScanTrie::enumerate`] DFS.
struct EnumState {
    steps: u64,
    replays: u64,
    bindings: Vec<Option<Sym>>,
    image: Vec<FactId>,
    /// `(group, external symbols)` → recorded emissions of the subtree.
    cache: HashMap<(usize, Vec<Sym>), Rc<Vec<SubtreeEmission>>>,
    cached_emissions: usize,
}

/// The live subset of a [`LineageBank`] under retirement: which queries
/// are still being estimated, and — via a reference count per arena
/// witness — which *distinct* witnesses some live query still references.
///
/// The adaptive batched estimators retire a query the moment it converges;
/// [`BankLiveSet::retire`] decrements the reference counts of the retired
/// query's witnesses and drops the ones reaching zero from the live scan
/// list, so the per-draw containment scan of
/// [`LineageBank::evaluate_live_into`] only ever pays for witnesses that
/// can still decide a live query.  Witnesses shared with a live query stay
/// in the scan until their last referent retires.
#[derive(Debug, Clone)]
pub struct BankLiveSet {
    /// Live query indices, in arbitrary order (dense, swap-removed).
    live_entries: Vec<usize>,
    /// Position of each query in `live_entries`, `usize::MAX` once retired.
    entry_pos: Vec<usize>,
    /// How many live queries reference each arena witness.
    witness_refs: Vec<u32>,
    /// Arena indices with a positive reference count (dense, swap-removed).
    live_witnesses: Vec<usize>,
    /// Position of each witness in `live_witnesses`, `usize::MAX` when dead.
    witness_pos: Vec<usize>,
}

impl BankLiveSet {
    /// A live set with **every** query of `bank` live.
    pub fn full(bank: &LineageBank) -> Self {
        let all: Vec<usize> = (0..bank.len()).collect();
        Self::restrict(bank, &all)
    }

    /// A live set with exactly the queries of `live` live (used by the
    /// round-based parallel estimator, whose shards are built against the
    /// live set of the current round).
    ///
    /// # Panics
    /// Panics if an index of `live` is out of range or duplicated.
    pub fn restrict(bank: &LineageBank, live: &[usize]) -> Self {
        let mut entry_pos = vec![usize::MAX; bank.len()];
        let mut witness_refs = vec![0u32; bank.witness_count()];
        for (position, &query) in live.iter().enumerate() {
            assert!(
                entry_pos[query] == usize::MAX,
                "query {query} is live twice"
            );
            entry_pos[query] = position;
            for witness in bank.entry_witnesses(query) {
                witness_refs[witness] += 1;
            }
        }
        let mut live_witnesses = Vec::new();
        let mut witness_pos = vec![usize::MAX; bank.witness_count()];
        for (index, &refs) in witness_refs.iter().enumerate() {
            if refs > 0 {
                witness_pos[index] = live_witnesses.len();
                live_witnesses.push(index);
            }
        }
        BankLiveSet {
            live_entries: live.to_vec(),
            entry_pos,
            witness_refs,
            live_witnesses,
            witness_pos,
        }
    }

    /// A live set with **no** query live — the starting point of the
    /// enrollment path: the windowed estimator re-admits only the
    /// entries whose lineage changed (via [`BankLiveSet::enroll`], the
    /// dual of the retirement the adaptive loop performs as queries
    /// converge), so an all-unchanged tick drives zero draws.
    pub fn empty(bank: &LineageBank) -> Self {
        Self::restrict(bank, &[])
    }

    /// Enrolls query `query`: it (re-)joins the live set, and every arena
    /// witness it references gains a reference; a witness whose count
    /// rises from zero rejoins the containment scan.  The exact dual of
    /// [`BankLiveSet::retire`]: enrolling after retiring restores the
    /// same membership and reference counts (dense positions may differ,
    /// which never affects evaluation).  Enrolling an already-live query
    /// is a no-op.
    ///
    /// # Panics
    /// Panics if `query` is out of range or `bank` has a different shape.
    pub fn enroll(&mut self, bank: &LineageBank, query: usize) {
        if self.entry_pos[query] != usize::MAX {
            return;
        }
        self.entry_pos[query] = self.live_entries.len();
        self.live_entries.push(query);
        for witness in bank.entry_witnesses(query) {
            self.witness_refs[witness] += 1;
            if self.witness_refs[witness] == 1 {
                self.witness_pos[witness] = self.live_witnesses.len();
                self.live_witnesses.push(witness);
            }
        }
    }

    /// Retires query `query`: it leaves the live set, and every arena
    /// witness only it still referenced leaves the containment scan.
    /// Retiring an already-retired query is a no-op.
    ///
    /// # Panics
    /// Panics if `query` is out of range or `bank` has a different shape.
    pub fn retire(&mut self, bank: &LineageBank, query: usize) {
        let position = self.entry_pos[query];
        if position == usize::MAX {
            return;
        }
        self.live_entries.swap_remove(position);
        if let Some(&moved) = self.live_entries.get(position) {
            self.entry_pos[moved] = position;
        }
        self.entry_pos[query] = usize::MAX;
        for witness in bank.entry_witnesses(query) {
            self.witness_refs[witness] -= 1;
            if self.witness_refs[witness] == 0 {
                let at = self.witness_pos[witness];
                self.live_witnesses.swap_remove(at);
                if let Some(&moved) = self.live_witnesses.get(at) {
                    self.witness_pos[moved] = at;
                }
                self.witness_pos[witness] = usize::MAX;
            }
        }
    }

    /// The live query indices (arbitrary order).
    pub fn live_queries(&self) -> &[usize] {
        &self.live_entries
    }

    /// `true` iff query `query` has not been retired.
    pub fn is_live(&self, query: usize) -> bool {
        self.entry_pos[query] != usize::MAX
    }

    /// Number of live queries.
    pub fn live_query_count(&self) -> usize {
        self.live_entries.len()
    }

    /// Number of arena witnesses still referenced by some live query —
    /// the per-draw containment-scan length of
    /// [`LineageBank::evaluate_live_into`].
    pub fn live_witness_count(&self) -> usize {
        self.live_witnesses.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use ucqa_db::{ConflictIndex, FactId, FdSet, FunctionalDependency, Schema};

    fn blocks_db() -> Database {
        let mut schema = Schema::new();
        schema.add_relation("R", &["K", "V"]).unwrap();
        let mut db = Database::with_schema(schema);
        for (k, v) in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 7)] {
            db.insert_values("R", [Value::int(k), Value::int(v)])
                .unwrap();
        }
        db
    }

    fn evaluators(db: &Database, texts: &[&str]) -> Vec<QueryEvaluator> {
        texts
            .iter()
            .map(|t| QueryEvaluator::new(parse_query(db.schema(), t).unwrap()))
            .collect()
    }

    fn subsets(universe: usize) -> impl Iterator<Item = FactSet> {
        (0u32..(1 << universe)).map(move |mask| {
            FactSet::from_iter(
                universe,
                (0..universe)
                    .filter(move |i| (mask >> i) & 1 == 1)
                    .map(FactId::new),
            )
        })
    }

    #[test]
    fn bank_agrees_with_independent_lineages_on_all_subsets() {
        let db = blocks_db();
        let texts = [
            "Ans() :- R(1, x)",
            "Ans() :- R(x, y), R(z, y)",
            "Ans() :- R(1, x), R(2, x)",
            "Ans() :- R(9, 9)",
        ];
        let evals = evaluators(&db, &texts);
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let bank = LineageBank::compile(&db, &queries).unwrap();
        let singles: Vec<LineageBank> = queries
            .iter()
            .map(|q| LineageBank::compile(&db, std::slice::from_ref(q)).unwrap())
            .collect();
        let mut scratch = BankScratch::new();
        let mut hits = vec![false; bank.len()];
        let mut single_hit = [false];
        for subset in subsets(db.len()) {
            bank.evaluate_into(&subset, &mut scratch, &mut hits);
            for (i, single) in singles.iter().enumerate() {
                single.evaluate_into(&subset, &mut scratch, &mut single_hit);
                assert_eq!(hits[i], single_hit[0], "query {}, {subset:?}", texts[i]);
            }
        }
    }

    #[test]
    fn entails_agrees_with_the_evaluator_on_all_subsets() {
        let db = blocks_db();
        for (text, candidate) in [
            ("Ans(x) :- R(1, x)", vec![Value::int(1)]),
            ("Ans() :- R(x, y), R(z, y)", vec![]),
            ("Ans() :- R(1, x), R(2, x)", vec![]),
            ("Ans() :- R(9, 9)", vec![]),
        ] {
            let evals = evaluators(&db, &[text]);
            let bank = LineageBank::compile(&db, &[(&evals[0], &candidate)]).unwrap();
            assert!(!bank.is_fallback(0), "under cap");
            let mut scratch = BankScratch::new();
            let mut hits = [false];
            for subset in subsets(db.len()) {
                bank.evaluate_into(&subset, &mut scratch, &mut hits);
                assert_eq!(
                    hits[0],
                    evals[0].has_answer(&db, &subset, &candidate).unwrap(),
                    "query {text}, {subset:?}"
                );
            }
        }
    }

    #[test]
    fn empty_bank_compiles_and_evaluates() {
        let db = blocks_db();
        let bank = LineageBank::compile(&db, &[]).unwrap();
        assert!(bank.is_empty());
        assert_eq!(bank.len(), 0);
        assert_eq!(bank.witness_count(), 0);
        assert!(!bank.has_fallback());
        let mut scratch = BankScratch::new();
        bank.evaluate_into(&db.all_facts(), &mut scratch, &mut []);
    }

    #[test]
    fn duplicate_queries_share_arena_witnesses() {
        let db = blocks_db();
        let evals = evaluators(&db, &["Ans() :- R(1, x)", "Ans() :- R(1, x)"]);
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let bank = LineageBank::compile(&db, &queries).unwrap();
        let single = LineageBank::compile(&db, &queries[..1]).unwrap();
        assert!(!single.is_fallback(0));
        // The arena holds each witness once, not once per duplicate.
        assert_eq!(bank.witness_count(), single.witness_count());
        assert_eq!(bank.query_witness_count(0), Some(single.witness_count()));
        assert_eq!(bank.query_witness_count(1), Some(single.witness_count()));
    }

    #[test]
    fn overlapping_queries_share_common_witnesses() {
        let db = blocks_db();
        // Both single-atom queries over block 1 and the R(x,y),R(z,y)
        // self-join absorb into singleton witnesses; the joint arena is
        // smaller than the sum of the parts.
        let evals = evaluators(&db, &["Ans() :- R(1, x)", "Ans() :- R(x, y), R(z, y)"]);
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let bank = LineageBank::compile(&db, &queries).unwrap();
        let sum: usize = (0..2).map(|i| bank.query_witness_count(i).unwrap()).sum();
        assert!(bank.witness_count() < sum, "no sharing happened");
    }

    #[test]
    fn over_cap_query_falls_back_while_others_stay_compiled() {
        let db = blocks_db();
        let evals = evaluators(&db, &["Ans() :- R(x, y)", "Ans() :- R(1, x)"]);
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        // Cap 2: the full-scan query has 5 witnesses and overflows; the
        // block lookup has 2 and stays compiled.
        let bank = LineageBank::compile_with_cap(&db, &queries, 2).unwrap();
        assert!(bank.is_fallback(0));
        assert!(!bank.is_fallback(1));
        assert!(bank.has_fallback());
        assert_eq!(bank.query_witness_count(0), None);
        assert_eq!(bank.query_witness_count(1), Some(2));
        let mut scratch = BankScratch::new();
        let mut hits = vec![true; 2];
        bank.evaluate_into(&db.all_facts(), &mut scratch, &mut hits);
        // Fallback entries are reported as false; the compiled entry is
        // answered on the bitset path.
        assert!(!hits[0]);
        assert!(hits[1]);
    }

    #[test]
    fn interrupted_compile_budget_degrades_the_whole_bank_to_fallback() {
        let db = blocks_db();
        let evals = evaluators(&db, &["Ans() :- R(x, y)", "Ans() :- R(1, x)"]);
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let budget = CompileBudget::unlimited().with_max_steps(1);
        let bank =
            LineageBank::compile_with_budget(&db, &queries, DEFAULT_WITNESS_CAP, &budget).unwrap();
        // No partial bank is ever kept: every entry falls back, even ones
        // the DFS would have finished before the budget fired.
        assert!(bank.is_fallback(0));
        assert!(bank.is_fallback(1));
        assert_eq!(bank.witness_count(), 0);
    }

    #[test]
    fn tripped_cancel_flag_interrupts_compilation() {
        let db = blocks_db();
        let evals = evaluators(&db, &["Ans() :- R(x, y), R(z, y)"]);
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let flag = Arc::new(AtomicBool::new(false));
        let budget = CompileBudget::unlimited().with_cancel_flag(Arc::clone(&flag));
        // The flag is only polled every CANCEL_CHECK_INTERVAL steps.
        flag.store(true, Ordering::Relaxed);
        assert!(budget.interrupted(CompileBudget::CANCEL_CHECK_INTERVAL));
        assert!(!budget.interrupted(CompileBudget::CANCEL_CHECK_INTERVAL + 1));
        flag.store(false, Ordering::Relaxed);
        assert!(!budget.interrupted(CompileBudget::CANCEL_CHECK_INTERVAL));
        // A tripped flag never errors or panics compilation: the fixture's
        // DFS finishes under one poll interval, so the bank still compiles.
        flag.store(true, Ordering::Relaxed);
        let bank =
            LineageBank::compile_with_budget(&db, &queries, DEFAULT_WITNESS_CAP, &budget).unwrap();
        assert_eq!(bank.len(), 1);
    }

    #[test]
    fn unlimited_budget_compiles_identically_to_the_unbudgeted_path() {
        let db = blocks_db();
        let evals = evaluators(
            &db,
            &[
                "Ans() :- R(1, x)",
                "Ans() :- R(x, y), R(z, y)",
                "Ans() :- R(9, 9)",
            ],
        );
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let plain = LineageBank::compile(&db, &queries).unwrap();
        let budgeted = LineageBank::compile_with_budget(
            &db,
            &queries,
            DEFAULT_WITNESS_CAP,
            &CompileBudget::unlimited(),
        )
        .unwrap();
        assert_eq!(plain.witness_count(), budgeted.witness_count());
        let mut scratch_a = BankScratch::new();
        let mut scratch_b = BankScratch::new();
        let mut hits_a = vec![false; plain.len()];
        let mut hits_b = vec![false; budgeted.len()];
        for subset in subsets(db.len()) {
            plain.evaluate_into(&subset, &mut scratch_a, &mut hits_a);
            budgeted.evaluate_into(&subset, &mut scratch_b, &mut hits_b);
            assert_eq!(hits_a, hits_b, "{subset:?}");
        }
    }

    #[test]
    fn live_evaluation_matches_full_evaluation_under_any_retirement_order() {
        let db = blocks_db();
        let evals = evaluators(
            &db,
            &[
                "Ans() :- R(1, x)",
                "Ans() :- R(x, y), R(z, y)",
                "Ans() :- R(1, x), R(2, x)",
                "Ans() :- R(9, 9)",
            ],
        );
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let bank = LineageBank::compile(&db, &queries).unwrap();
        let mut scratch = BankScratch::new();
        let mut full_hits = vec![false; bank.len()];
        let mut live_hits = vec![false; bank.len()];
        // Retire queries one by one; after every retirement the live
        // evaluation must agree with the full evaluation on the survivors,
        // over every subset of the universe.
        for order in [[0usize, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]] {
            let mut live = BankLiveSet::full(&bank);
            assert_eq!(live.live_query_count(), 4);
            assert_eq!(live.live_witness_count(), bank.witness_count());
            for (step, &retired) in order.iter().enumerate() {
                for subset in subsets(db.len()) {
                    bank.evaluate_into(&subset, &mut scratch, &mut full_hits);
                    bank.evaluate_live_into(&live, &subset, &mut scratch, &mut live_hits);
                    for &q in live.live_queries() {
                        assert_eq!(live_hits[q], full_hits[q], "step {step}, query {q}");
                    }
                }
                live.retire(&bank, retired);
                assert!(!live.is_live(retired));
                assert_eq!(live.live_query_count(), 4 - step - 1);
            }
            assert_eq!(live.live_witness_count(), 0);
        }
    }

    #[test]
    fn retirement_shrinks_the_witness_scan_and_keeps_shared_witnesses() {
        let db = blocks_db();
        // Queries 0 and 1 are duplicates (all witnesses shared); query 2 is
        // disjoint from them.
        let evals = evaluators(
            &db,
            &["Ans() :- R(1, x)", "Ans() :- R(1, x)", "Ans() :- R(2, x)"],
        );
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let bank = LineageBank::compile(&db, &queries).unwrap();
        let mut live = BankLiveSet::full(&bank);
        let all = bank.witness_count();
        // Retiring one duplicate frees nothing: its twin still references
        // every witness.
        live.retire(&bank, 0);
        assert_eq!(live.live_witness_count(), all);
        // Retiring the twin frees that query's witnesses.
        live.retire(&bank, 1);
        assert_eq!(
            live.live_witness_count(),
            bank.query_witness_count(2).unwrap()
        );
        // Retiring twice is a no-op.
        live.retire(&bank, 1);
        assert_eq!(
            live.live_witness_count(),
            bank.query_witness_count(2).unwrap()
        );
        live.retire(&bank, 2);
        assert_eq!(live.live_witness_count(), 0);
        assert_eq!(live.live_query_count(), 0);
    }

    #[test]
    fn restricted_live_set_equals_full_set_after_retirements() {
        let db = blocks_db();
        let evals = evaluators(
            &db,
            &["Ans() :- R(1, x)", "Ans() :- R(x, y)", "Ans() :- R(2, x)"],
        );
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let bank = LineageBank::compile(&db, &queries).unwrap();
        let mut incremental = BankLiveSet::full(&bank);
        incremental.retire(&bank, 1);
        let restricted = BankLiveSet::restrict(&bank, &[0, 2]);
        assert_eq!(
            incremental.live_witness_count(),
            restricted.live_witness_count()
        );
        let mut a: Vec<usize> = incremental.live_queries().to_vec();
        let mut b: Vec<usize> = restricted.live_queries().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn live_set_handles_fallback_entries() {
        let db = blocks_db();
        let evals = evaluators(&db, &["Ans() :- R(x, y)", "Ans() :- R(1, x)"]);
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let bank = LineageBank::compile_with_cap(&db, &queries, 2).unwrap();
        assert!(bank.is_fallback(0));
        let mut live = BankLiveSet::full(&bank);
        // The fallback entry contributes no arena witnesses.
        assert_eq!(
            live.live_witness_count(),
            bank.query_witness_count(1).unwrap()
        );
        let mut scratch = BankScratch::new();
        let mut hits = vec![true; 2];
        bank.evaluate_live_into(&live, &db.all_facts(), &mut scratch, &mut hits);
        assert!(!hits[0], "fallback entries are reported false");
        assert!(hits[1]);
        live.retire(&bank, 0);
        assert_eq!(live.live_queries(), &[1]);
        hits = vec![true; 2];
        bank.evaluate_live_into(&live, &db.all_facts(), &mut scratch, &mut hits);
        assert!(hits[0], "retired entries are left untouched");
        assert!(hits[1]);
    }

    #[test]
    fn shared_compile_matches_the_unplanned_baseline() {
        let db = blocks_db();
        // Overlapping joins sharing the R(1, x) prefix, a duplicate, an
        // unsatisfiable query, and a full scan that overflows a tiny cap.
        let evals = evaluators(
            &db,
            &[
                "Ans() :- R(1, x), R(2, x)",
                "Ans() :- R(1, x), R(x, y)",
                "Ans() :- R(1, x), R(2, x)",
                "Ans() :- R(9, 9)",
                "Ans() :- R(x, y)",
            ],
        );
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        for cap in [DEFAULT_WITNESS_CAP, 2] {
            let shared = LineageBank::compile_with_cap(&db, &queries, cap).unwrap();
            let baseline = LineageBank::compile_unplanned_with_cap(&db, &queries, cap).unwrap();
            let mut scratch = BankScratch::new();
            let mut shared_hits = vec![false; shared.len()];
            let mut baseline_hits = vec![false; baseline.len()];
            for i in 0..queries.len() {
                assert_eq!(shared.is_fallback(i), baseline.is_fallback(i), "entry {i}");
                assert_eq!(
                    shared.query_witness_count(i),
                    baseline.query_witness_count(i),
                    "entry {i}"
                );
            }
            for subset in subsets(db.len()) {
                shared.evaluate_into(&subset, &mut scratch, &mut shared_hits);
                baseline.evaluate_into(&subset, &mut scratch, &mut baseline_hits);
                assert_eq!(shared_hits, baseline_hits, "cap {cap}, {subset:?}");
            }
        }
    }

    #[test]
    fn candidate_substitution_groups_entries_in_the_trie() {
        let db = blocks_db();
        // One parameterised query, two candidates; grounding makes the
        // first one identical to the Boolean form, so all three share.
        let lookup = evaluators(&db, &["Ans(k) :- R(k, x), R(2, x)"]);
        let boolean = evaluators(&db, &["Ans() :- R(1, x), R(2, x)"]);
        let one = [Value::int(1)];
        let two = [Value::int(2)];
        let queries: Vec<BankQueryRef<'_>> = vec![
            (&lookup[0], &one),
            (&lookup[0], &two),
            (&boolean[0], &[] as &[Value]),
        ];
        let bank = LineageBank::compile(&db, &queries).unwrap();
        let single = LineageBank::compile(&db, &queries[2..]).unwrap();
        assert!(!single.is_fallback(0));
        assert_eq!(bank.query_witness_count(0), Some(single.witness_count()));
        assert_eq!(bank.query_witness_count(2), Some(single.witness_count()));
        // Entries 0 and 2 are the same grounded query: their witnesses
        // coincide in the arena.
        let mut scratch = BankScratch::new();
        let mut hits = vec![false; 3];
        for subset in subsets(db.len()) {
            bank.evaluate_into(&subset, &mut scratch, &mut hits);
            assert_eq!(hits[0], hits[2], "{subset:?}");
            assert_eq!(
                hits[0],
                boolean[0].has_answer(&db, &subset, &[]).unwrap(),
                "{subset:?}"
            );
        }
    }

    #[test]
    fn empty_body_entries_compile_to_the_empty_witness() {
        let db = blocks_db();
        let query = crate::ConjunctiveQuery::boolean(db.schema(), vec![]).unwrap();
        let evaluator = QueryEvaluator::new(query);
        let queries: Vec<BankQueryRef<'_>> = vec![(&evaluator, &[] as &[Value])];
        let bank = LineageBank::compile(&db, &queries).unwrap();
        assert_eq!(bank.query_witness_count(0), Some(1));
        let mut scratch = BankScratch::new();
        let mut hits = vec![false; 1];
        bank.evaluate_into(&FactSet::empty(db.len()), &mut scratch, &mut hits);
        assert!(hits[0], "an empty body is entailed by the empty subset");
    }

    #[test]
    fn refresh_replays_mutations_and_matches_a_fresh_compile() {
        let mut db = blocks_db();
        let evals = evaluators(
            &db,
            &[
                "Ans() :- R(1, x)",
                "Ans() :- R(x, y), R(z, y)",
                "Ans() :- R(1, x), R(2, x)",
                "Ans() :- R(9, 9)",
            ],
        );
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let mut bank = LineageBank::compile(&db, &queries).unwrap();
        // Already current: nothing to replay.
        assert_eq!(bank.refresh(&db, &queries).unwrap(), 0);
        // Mutate: extend block 1, create the first R(9, 9) witness, and
        // delete R(2, 1).
        db.insert_values("R", [Value::int(1), Value::int(3)])
            .unwrap();
        db.insert_values("R", [Value::int(9), Value::int(9)])
            .unwrap();
        let gone = ucqa_db::Fact::new(
            db.schema().relation_id("R").unwrap(),
            vec![Value::int(2), Value::int(1)],
        );
        db.delete(db.fact_id(&gone).unwrap()).unwrap();
        assert_eq!(bank.refresh(&db, &queries).unwrap(), 3);
        assert_eq!(bank.version(), db.version());
        assert_eq!(bank.universe(), db.len());
        // The refreshed bank is structurally identical to a fresh shared
        // compile: same arena size, same per-entry witness counts, same
        // booleans on every subset.
        let fresh = LineageBank::compile(&db, &queries).unwrap();
        assert_eq!(bank.witness_count(), fresh.witness_count());
        let mut scratch_a = BankScratch::new();
        let mut scratch_b = BankScratch::new();
        let mut hits_a = vec![false; bank.len()];
        let mut hits_b = vec![false; fresh.len()];
        for i in 0..queries.len() {
            assert_eq!(bank.is_fallback(i), fresh.is_fallback(i), "entry {i}");
            assert_eq!(
                bank.query_witness_count(i),
                fresh.query_witness_count(i),
                "entry {i}"
            );
        }
        for subset in subsets(db.len()) {
            bank.evaluate_into(&subset, &mut scratch_a, &mut hits_a);
            fresh.evaluate_into(&subset, &mut scratch_b, &mut hits_b);
            assert_eq!(hits_a, hits_b, "{subset:?}");
        }
    }

    #[test]
    fn refresh_keeps_fallback_entries_and_degrades_over_cap_entries() {
        let mut db = blocks_db();
        let evals = evaluators(&db, &["Ans() :- R(x, y)", "Ans() :- R(1, x)"]);
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        // Cap 3: the full scan (5 witnesses) falls back, the block lookup
        // (2 witnesses) compiles.
        let mut bank = LineageBank::compile_with_cap(&db, &queries, 3).unwrap();
        assert!(bank.is_fallback(0));
        assert!(!bank.is_fallback(1));
        // Two more block-1 facts push the lookup past the cap on refresh;
        // the fallback entry stays fallback.
        db.insert_values("R", [Value::int(1), Value::int(8)])
            .unwrap();
        db.insert_values("R", [Value::int(1), Value::int(9)])
            .unwrap();
        assert_eq!(bank.refresh_with_cap(&db, &queries, 3).unwrap(), 2);
        assert!(bank.is_fallback(0));
        assert!(bank.is_fallback(1), "over-cap refresh degrades to fallback");
    }

    #[test]
    #[should_panic(expected = "refresh requires the bank's own query list")]
    fn refresh_with_a_mismatched_query_list_panics() {
        let db = blocks_db();
        let evals = evaluators(&db, &["Ans() :- R(1, x)"]);
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let mut bank = LineageBank::compile(&db, &queries).unwrap();
        bank.refresh(&db, &[]).unwrap();
    }

    #[test]
    fn arity_mismatch_aborts_compilation() {
        let db = blocks_db();
        let evals = evaluators(&db, &["Ans(x) :- R(1, x)"]);
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        assert!(LineageBank::compile(&db, &queries).is_err());
    }

    /// The entry witnesses of a bank in arena order, as owned bitsets —
    /// what the bank-of-one tests compare across refreshes.
    fn owned_witnesses(bank: &LineageBank, entry: usize) -> Option<Vec<FactSet>> {
        bank.witnesses_of(entry)
            .map(|ws| ws.into_iter().cloned().collect())
    }

    #[test]
    fn witnesses_form_a_minimal_antichain() {
        let db = blocks_db();
        // R(x, y), R(z, y): single-fact images (x = z) absorb the two-fact
        // ones, leaving exactly the five singleton witnesses.
        let evals = evaluators(&db, &["Ans() :- R(x, y), R(z, y)"]);
        let bank = LineageBank::compile(&db, &[(&evals[0], &[])]).unwrap();
        let witnesses = bank.witnesses_of(0).unwrap();
        assert_eq!(witnesses.len(), 5);
        assert!(witnesses.iter().all(|w| w.len() == 1));
        for (i, a) in witnesses.iter().enumerate() {
            for (j, b) in witnesses.iter().enumerate() {
                if i != j {
                    assert!(!a.is_subset_of(b), "witness {i} ⊆ witness {j}");
                }
            }
        }
    }

    #[test]
    fn unsatisfiable_candidates_have_no_witnesses() {
        let db = blocks_db();
        let evals = evaluators(&db, &["Ans() :- R(9, 9)"]);
        let bank = LineageBank::compile(&db, &[(&evals[0], &[])]).unwrap();
        assert_eq!(bank.query_witness_count(0), Some(0));
        let mut hits = [true];
        bank.evaluate_into(&db.all_facts(), &mut BankScratch::new(), &mut hits);
        assert!(!hits[0]);
    }

    #[test]
    fn cap_overflow_makes_a_bank_of_one_fall_back() {
        let db = blocks_db();
        let evals = evaluators(&db, &["Ans() :- R(x, y)"]);
        let queries: [BankQueryRef<'_>; 1] = [(&evals[0], &[])];
        for compile in [
            LineageBank::compile_with_cap,
            LineageBank::compile_unplanned_with_cap,
        ] {
            assert!(compile(&db, &queries, 2).unwrap().is_fallback(0));
            assert!(!compile(&db, &queries, 5).unwrap().is_fallback(0));
        }
    }

    #[test]
    fn refresh_of_a_bank_of_one_matches_a_fresh_compile() {
        let mut db = blocks_db();
        for (text, candidate) in [
            ("Ans(x) :- R(1, x)", vec![Value::int(1)]),
            ("Ans() :- R(x, y), R(z, y)", vec![]),
            ("Ans() :- R(1, x), R(2, x)", vec![]),
            ("Ans() :- R(9, 9)", vec![]),
        ] {
            let evals = evaluators(&db, &[text]);
            let queries: [BankQueryRef<'_>; 1] = [(&evals[0], &candidate)];
            let mut bank = LineageBank::compile(&db, &queries).unwrap();
            // No mutations: refresh is a structural no-op.
            let before = owned_witnesses(&bank, 0);
            assert_eq!(bank.refresh(&db, &queries).unwrap(), 0);
            assert_eq!(owned_witnesses(&bank, 0), before, "query {text}");
            // Insert facts extending block 1 and bridging blocks, and
            // delete R(2, 1); the refreshed entry must equal — same
            // witnesses, same order — a compile from scratch.
            db.insert_values("R", [Value::int(1), Value::int(9)])
                .unwrap();
            db.insert_values("R", [Value::int(2), Value::int(9)])
                .unwrap();
            let gone = ucqa_db::Fact::new(
                db.schema().relation_id("R").unwrap(),
                vec![Value::int(2), Value::int(1)],
            );
            db.delete(db.fact_id(&gone).unwrap()).unwrap();
            assert!(bank.refresh(&db, &queries).unwrap() > 0);
            let fresh = LineageBank::compile(&db, &queries).unwrap();
            assert_eq!(
                owned_witnesses(&bank, 0),
                owned_witnesses(&fresh, 0),
                "query {text}"
            );
            // Undo for the next query: re-insert what was deleted (new id,
            // but compile and refresh both see the same database).
            db.insert_values("R", [Value::int(2), Value::int(1)])
                .unwrap();
        }
    }

    #[test]
    fn refresh_grounds_constants_first_interned_by_the_mutations() {
        let mut db = blocks_db();
        // 8 is not interned at compile time: the entry compiles to zero
        // witnesses (never entails).
        let evals = evaluators(&db, &["Ans() :- R(8, x)"]);
        let queries: [BankQueryRef<'_>; 1] = [(&evals[0], &[])];
        let mut bank = LineageBank::compile(&db, &queries).unwrap();
        assert_eq!(bank.query_witness_count(0), Some(0));
        db.insert_values("R", [Value::int(8), Value::int(1)])
            .unwrap();
        assert_eq!(bank.refresh(&db, &queries).unwrap(), 1);
        let fresh = LineageBank::compile(&db, &queries).unwrap();
        assert_eq!(owned_witnesses(&bank, 0), owned_witnesses(&fresh, 0));
        assert_eq!(bank.query_witness_count(0), Some(1));
        let mut hits = [false];
        bank.evaluate_into(&db.all_facts(), &mut BankScratch::new(), &mut hits);
        assert!(hits[0]);
    }

    #[test]
    fn over_cap_refresh_degrades_a_bank_of_one_to_fallback() {
        let mut db = blocks_db();
        let evals = evaluators(&db, &["Ans() :- R(1, x)"]);
        let queries: [BankQueryRef<'_>; 1] = [(&evals[0], &[])];
        let mut bank = LineageBank::compile_with_cap(&db, &queries, 3).unwrap();
        assert_eq!(bank.query_witness_count(0), Some(2));
        for v in 10..14 {
            db.insert_values("R", [Value::int(1), Value::int(v)])
                .unwrap();
        }
        assert_eq!(bank.refresh_with_cap(&db, &queries, 3).unwrap(), 4);
        // No partial witness set survives: the entry answers through the
        // evaluator from now on, and the bank is current.
        assert!(bank.is_fallback(0));
        assert_eq!(bank.witness_count(), 0);
        assert_eq!(bank.version(), db.version());
        assert_eq!(bank.universe(), db.len());
    }

    #[test]
    fn arity_mismatch_is_reported_by_every_compile_path() {
        let db = blocks_db();
        let evals = evaluators(&db, &["Ans(x) :- R(1, x)"]);
        let queries: [BankQueryRef<'_>; 1] = [(&evals[0], &[])];
        assert!(LineageBank::compile(&db, &queries).is_err());
        assert!(LineageBank::compile_unplanned(&db, &queries).is_err());
        let budget = CompileBudget::unlimited().with_max_steps(0);
        assert!(
            LineageBank::compile_with_budget(&db, &queries, DEFAULT_WITNESS_CAP, &budget).is_err()
        );
    }

    #[test]
    #[should_panic(expected = "hits length mismatch")]
    fn mismatched_hits_slice_panics() {
        let db = blocks_db();
        let evals = evaluators(&db, &["Ans() :- R(1, x)"]);
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let bank = LineageBank::compile(&db, &queries).unwrap();
        let mut scratch = BankScratch::new();
        bank.evaluate_into(&db.all_facts(), &mut scratch, &mut []);
    }

    /// Membership and refcount view of a live set, position-independent.
    fn live_snapshot(live: &BankLiveSet) -> (Vec<usize>, Vec<u32>, Vec<usize>) {
        let mut entries = live.live_queries().to_vec();
        entries.sort_unstable();
        let mut witnesses = live.live_witnesses.clone();
        witnesses.sort_unstable();
        (entries, live.witness_refs.clone(), witnesses)
    }

    #[test]
    fn enroll_is_the_exact_dual_of_retire() {
        let db = blocks_db();
        let evals = evaluators(
            &db,
            &[
                "Ans() :- R(1, x)",
                "Ans() :- R(x, y), R(z, y)",
                "Ans() :- R(1, x), R(2, x)",
                "Ans() :- R(9, 9)",
            ],
        );
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let bank = LineageBank::compile(&db, &queries).unwrap();
        let full = live_snapshot(&BankLiveSet::full(&bank));
        let mut live = BankLiveSet::full(&bank);
        // Retire everything, in an order that exercises witness sharing,
        // then enroll everything back: membership and reference counts
        // return to the full set exactly.
        for query in [1, 3, 0, 2] {
            live.retire(&bank, query);
        }
        assert_eq!(live.live_query_count(), 0);
        assert_eq!(live.live_witness_count(), 0);
        for query in [2, 0, 3, 1] {
            live.enroll(&bank, query);
            live.enroll(&bank, query); // enrolling a live query is a no-op
        }
        assert_eq!(live_snapshot(&live), full);
        // And the restored set evaluates identically to the full one.
        let mut scratch = BankScratch::new();
        let mut full_hits = vec![false; bank.len()];
        let mut live_hits = vec![false; bank.len()];
        for subset in subsets(db.len()) {
            bank.evaluate_into(&subset, &mut scratch, &mut full_hits);
            bank.evaluate_live_into(&live, &subset, &mut scratch, &mut live_hits);
            assert_eq!(full_hits, live_hits, "{subset:?}");
        }
    }

    #[test]
    fn empty_plus_enrollment_matches_restrict() {
        let db = blocks_db();
        let evals = evaluators(
            &db,
            &[
                "Ans() :- R(1, x)",
                "Ans() :- R(x, y), R(z, y)",
                "Ans() :- R(2, x)",
            ],
        );
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let bank = LineageBank::compile(&db, &queries).unwrap();
        let mut enrolled = BankLiveSet::empty(&bank);
        assert_eq!(enrolled.live_query_count(), 0);
        enrolled.enroll(&bank, 2);
        enrolled.enroll(&bank, 0);
        let restricted = BankLiveSet::restrict(&bank, &[0, 2]);
        assert_eq!(live_snapshot(&enrolled), live_snapshot(&restricted));
        assert!(enrolled.is_live(0) && !enrolled.is_live(1) && enrolled.is_live(2));
    }

    fn blocks_sigma(db: &Database) -> FdSet {
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["K"], &["V"]).unwrap());
        sigma
    }

    #[test]
    fn fingerprints_identify_unchanged_lineage_across_refreshes() {
        let mut db = blocks_db();
        let sigma = blocks_sigma(&db);
        let evals = evaluators(
            &db,
            &[
                "Ans() :- R(1, x)",
                "Ans() :- R(3, x)",
                "Ans() :- R(1, x), R(2, x)",
            ],
        );
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let mut bank = LineageBank::compile(&db, &queries).unwrap();
        let structure = ConflictIndex::build(&db, &sigma).structure();
        let before = bank.fingerprints(&structure);
        // Identical lineage hashes identically within one compilation
        // only when the witness sets coincide; distinct queries differ.
        assert_ne!(before[0], before[1]);

        // A current bank reports an empty delta.
        let noop = bank
            .refresh_with_delta(&db, &queries, &before, &structure)
            .unwrap();
        assert_eq!(noop.replayed, 0);
        assert!(noop.changed.iter().all(|&c| !c));
        assert_eq!(noop.fingerprints, before);

        // A block-3 insert rewrites entry 1's lineage and — because the
        // new fact enters every witness's universe — leaves entries 0 and
        // 2's witness id-sets and conflict components untouched: their
        // fingerprints survive even though the arena was rebuilt.
        db.insert_values("R", [Value::int(3), Value::int(8)])
            .unwrap();
        let structure = ConflictIndex::build(&db, &sigma).structure();
        let delta = bank
            .refresh_with_delta(&db, &queries, &before, &structure)
            .unwrap();
        assert_eq!(delta.replayed, 1);
        assert_eq!(delta.changed, vec![false, true, false]);
        assert_eq!(delta.changed_entries().collect::<Vec<_>>(), vec![1]);
        let after = &delta.fingerprints;
        assert_eq!(after[0], before[0]);
        assert_ne!(after[1], before[1]);
        assert_eq!(after[2], before[2]);

        // The refreshed fingerprints agree with a from-scratch compile:
        // the hash covers witness id-sets and their conflict components,
        // never arena layout.
        let fresh = LineageBank::compile(&db, &queries).unwrap();
        assert_eq!(after, &fresh.fingerprints(&structure));
        // And `witnesses_of` exposes the id-sets the hash ranges over.
        let ours: Vec<Vec<FactId>> = bank
            .witnesses_of(1)
            .unwrap()
            .iter()
            .map(|w| w.iter().collect())
            .collect();
        let theirs: Vec<Vec<FactId>> = fresh
            .witnesses_of(1)
            .unwrap()
            .iter()
            .map(|w| w.iter().collect())
            .collect();
        let (mut ours, mut theirs) = (ours, theirs);
        ours.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn fallback_entries_have_no_fingerprint_and_always_read_changed() {
        let mut db = blocks_db();
        let sigma = blocks_sigma(&db);
        let evals = evaluators(&db, &["Ans() :- R(x, y)", "Ans() :- R(1, x)"]);
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let mut bank = LineageBank::compile_with_cap(&db, &queries, 2).unwrap();
        let structure = ConflictIndex::build(&db, &sigma).structure();
        assert!(bank.is_fallback(0));
        assert_eq!(bank.entry_fingerprint(0, &structure), None);
        assert!(bank.witnesses_of(0).is_none());
        assert!(bank.entry_fingerprint(1, &structure).is_some());
        let before = bank.fingerprints(&structure);
        // Any replay flags the fallback entry — there is no witness set
        // to prove unchanged — while the untouched compiled entry stays
        // fresh.
        db.insert_values("R", [Value::int(5), Value::int(5)])
            .unwrap();
        let structure = ConflictIndex::build(&db, &sigma).structure();
        let delta = bank
            .refresh_with_delta(&db, &queries, &before, &structure)
            .unwrap();
        assert_eq!(delta.replayed, 1);
        assert_eq!(delta.changed, vec![true, false]);
    }

    #[test]
    fn fingerprints_track_conflict_context_not_just_lineage() {
        // The reuse-soundness counterexample: a membership query whose
        // witness set survives a tick untouched while the witness fact's
        // block gains a member.  The answer probability moves (the
        // witness is drawn under a bigger block), so the fingerprint
        // must move with it.
        let mut db = blocks_db();
        let sigma = blocks_sigma(&db);
        let evals = evaluators(&db, &["Ans() :- R(1, 1)"]);
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let mut bank = LineageBank::compile(&db, &queries).unwrap();
        let before = bank.fingerprints(&ConflictIndex::build(&db, &sigma).structure());

        // R(1, 9) matches no query atom — the witness set stays
        // {R(1, 1)} — but joins the witness's conflict block.
        db.insert_values("R", [Value::int(1), Value::int(9)])
            .unwrap();
        let structure = ConflictIndex::build(&db, &sigma).structure();
        let delta = bank
            .refresh_with_delta(&db, &queries, &before, &structure)
            .unwrap();
        assert_eq!(delta.changed, vec![true], "conflict growth must re-enroll");
        let witnesses: Vec<Vec<FactId>> = bank
            .witnesses_of(0)
            .unwrap()
            .iter()
            .map(|w| w.iter().collect())
            .collect();
        assert_eq!(witnesses, vec![vec![FactId::new(0)]], "lineage untouched");

        // A consistent insert under a fresh key touches no component:
        // the fingerprint survives and the entry stays reusable.
        db.insert_values("R", [Value::int(9), Value::int(9)])
            .unwrap();
        let structure = ConflictIndex::build(&db, &sigma).structure();
        let delta = bank
            .refresh_with_delta(&db, &queries, &delta.fingerprints, &structure)
            .unwrap();
        assert_eq!(delta.changed, vec![false]);
    }

    /// A database where costed plans destroy prefix sharing: S-keys are
    /// rare (posting length 1), R('h', ·) is hot (posting length 3), so
    /// every costed plan leads with its own S atom and the shared R work
    /// moves to the suffix.
    fn suffix_db() -> Database {
        let mut schema = Schema::new();
        schema.add_relation("S", &["K", "V"]).unwrap();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db = Database::with_schema(schema);
        for k in 0..4 {
            db.insert_values("S", [Value::int(k), Value::int(100 + k)])
                .unwrap();
        }
        for b in 0..3 {
            db.insert_values("R", [Value::str("h"), Value::int(b)])
                .unwrap();
        }
        db
    }

    #[test]
    fn shared_suffixes_of_costed_plans_are_enumerated_once() {
        // Four queries S(k, x), R('h', y) with distinct k: coverage-greedy
        // keeps the written order and shares nothing (distinct first
        // atoms); costed plans also lead with the rare S atom, so the
        // closed R('h', y) suffix recurs four times — one subtree group,
        // filled once, replayed at every occurrence.
        let db = suffix_db();
        let texts: Vec<String> = (0..4)
            .map(|k| format!("Ans() :- S({k}, x), R('h', y)"))
            .collect();
        let evals: Vec<QueryEvaluator> = texts
            .iter()
            .map(|t| QueryEvaluator::with_stats(parse_query(db.schema(), t).unwrap(), &db).unwrap())
            .collect();
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let (bank, stats) = LineageBank::compile_instrumented(
            &db,
            &queries,
            DEFAULT_WITNESS_CAP,
            &CompileBudget::unlimited(),
        )
        .unwrap();
        assert!(
            stats.shared_subtrees >= 1,
            "the R('h', y) suffix must form a group: {stats:?}"
        );
        assert_eq!(stats.replays, 4, "every occurrence replays: {stats:?}");
        // Fill pass: 4 S probes + one R('h', ·) walk (3 candidates), not
        // four walks.
        assert_eq!(stats.steps, 4 + 3, "shared fill, no repeated walks");
        // Bit-identical to the unshared, unplanned baseline.
        let baseline = LineageBank::compile_unplanned(&db, &queries).unwrap();
        for entry in 0..queries.len() {
            let canon = |b: &LineageBank| -> Vec<Vec<FactId>> {
                let mut w: Vec<Vec<FactId>> = b
                    .witnesses_of(entry)
                    .unwrap()
                    .iter()
                    .map(|w| w.iter().collect())
                    .collect();
                w.sort();
                w
            };
            assert_eq!(canon(&bank), canon(&baseline), "entry {entry}");
        }
    }

    #[test]
    fn correlated_shared_subtrees_memoize_per_binding() {
        // The shared suffix R(x, y) reads x, bound by each query's own S
        // atom — the memo key is the bound symbol, so occurrences binding
        // the same x share one fill while different bindings fill their
        // own.  Either way the witness sets match the unplanned baseline.
        let mut schema = Schema::new();
        schema.add_relation("S", &["K", "V"]).unwrap();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db = Database::with_schema(schema);
        // S keys 0 and 1 both map to value 7; key 2 maps to 8.
        for (k, v) in [(0, 7), (1, 7), (2, 8)] {
            db.insert_values("S", [Value::int(k), Value::int(v)])
                .unwrap();
        }
        for (a, b) in [(7, 1), (7, 2), (8, 3)] {
            db.insert_values("R", [Value::int(a), Value::int(b)])
                .unwrap();
        }
        let texts: Vec<String> = (0..3)
            .map(|k| format!("Ans() :- S({k}, x), R(x, y)"))
            .collect();
        let evals: Vec<QueryEvaluator> = texts
            .iter()
            .map(|t| QueryEvaluator::with_stats(parse_query(db.schema(), t).unwrap(), &db).unwrap())
            .collect();
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let (bank, stats) = LineageBank::compile_instrumented(
            &db,
            &queries,
            DEFAULT_WITNESS_CAP,
            &CompileBudget::unlimited(),
        )
        .unwrap();
        assert!(stats.shared_subtrees >= 1, "{stats:?}");
        assert_eq!(stats.replays, 3, "one replay per occurrence: {stats:?}");
        let baseline = LineageBank::compile_unplanned(&db, &queries).unwrap();
        for entry in 0..queries.len() {
            let canon = |b: &LineageBank| -> Vec<Vec<FactId>> {
                let mut w: Vec<Vec<FactId>> = b
                    .witnesses_of(entry)
                    .unwrap()
                    .iter()
                    .map(|w| w.iter().collect())
                    .collect();
                w.sort();
                w
            };
            assert_eq!(canon(&bank), canon(&baseline), "entry {entry}");
        }
    }

    #[test]
    fn subtree_replay_preserves_overflow_accounting() {
        // Cap 1: the shared R('h', y) suffix yields 3 witnesses per
        // entry, so every entry overflows — through the replay path just
        // as it would through the direct DFS.
        let db = suffix_db();
        let texts: Vec<String> = (0..4)
            .map(|k| format!("Ans() :- S({k}, x), R('h', y)"))
            .collect();
        let evals: Vec<QueryEvaluator> = texts
            .iter()
            .map(|t| QueryEvaluator::with_stats(parse_query(db.schema(), t).unwrap(), &db).unwrap())
            .collect();
        let queries: Vec<BankQueryRef<'_>> = evals.iter().map(|e| (e, &[] as &[Value])).collect();
        let shared = LineageBank::compile_with_cap(&db, &queries, 1).unwrap();
        let baseline = LineageBank::compile_unplanned_with_cap(&db, &queries, 1).unwrap();
        for entry in 0..queries.len() {
            assert!(shared.is_fallback(entry), "entry {entry} must overflow");
            assert_eq!(
                shared.is_fallback(entry),
                baseline.is_fallback(entry),
                "entry {entry}"
            );
        }
    }

    /// Queries of the sparse-check property test over `R(K, V)` and
    /// `S(V, W)`: selections, self-joins, cross-relation joins, and one
    /// parameterised query (the `Some` candidate key).
    const POOL: [(&str, Option<i64>); 9] = [
        ("Ans() :- R(1, x)", None),
        ("Ans() :- R(x, y), R(z, y)", None),
        ("Ans() :- R(1, x), R(2, x)", None),
        ("Ans() :- R(x, y), S(y, z)", None),
        ("Ans() :- R(0, x), S(x, 1)", None),
        ("Ans() :- S(x, x)", None),
        ("Ans() :- R(x, y), S(y, x)", None),
        ("Ans(k) :- R(k, x), S(x, 2)", Some(0)),
        ("Ans(k) :- R(k, x), S(x, 2)", Some(3)),
    ];

    /// The dense reference of the per-draw check: some witness bitset of
    /// the entry is contained in `repair` (`false` for a fallback entry).
    fn dense_hits(bank: &LineageBank, repair: &FactSet) -> Vec<bool> {
        (0..bank.len())
            .map(|q| {
                bank.witnesses_of(q)
                    .is_some_and(|ws| ws.iter().any(|w| repair.contains_all(w)))
            })
            .collect()
    }

    /// The subset of `0..universe` selected by the bits of `mask`.
    fn masked(universe: usize, mask: u64) -> FactSet {
        FactSet::from_iter(
            universe,
            (0..universe)
                .filter(|i| (mask >> (i % 64)) & 1 == 1)
                .map(FactId::new),
        )
    }

    /// Asserts that every `witnesses_of` call hands out one address per
    /// distinct witness: the same on repeated calls and across entries
    /// that share a witness.
    fn assert_stable_addresses(bank: &LineageBank) {
        let addresses = |bank: &LineageBank| -> Vec<Option<Vec<*const FactSet>>> {
            (0..bank.len())
                .map(|q| {
                    bank.witnesses_of(q)
                        .map(|ws| ws.into_iter().map(|w| w as *const FactSet).collect())
                })
                .collect()
        };
        let first = addresses(bank);
        assert_eq!(first, addresses(bank), "witnesses moved between calls");
        let mut by_content: HashMap<Vec<FactId>, *const FactSet> = HashMap::new();
        for q in 0..bank.len() {
            for w in bank.witnesses_of(q).unwrap_or_default() {
                let at = *by_content.entry(w.iter().collect()).or_insert(w);
                assert_eq!(
                    at, w as *const FactSet,
                    "a shared witness has two addresses"
                );
            }
        }
    }

    /// Asserts that the sparse check agrees with the dense reference and,
    /// on compiled entries, with the backtracking evaluator, on `repair`
    /// — through `evaluate_into` and through `evaluate_live_into` after
    /// each retirement of `order`.
    fn assert_sparse_matches_dense(
        db: &Database,
        bank: &LineageBank,
        queries: &[BankQueryRef<'_>],
        repair: &FactSet,
        order: &[usize],
    ) {
        let expected = dense_hits(bank, repair);
        let mut scratch = BankScratch::new();
        let mut hits = vec![false; bank.len()];
        bank.evaluate_into(repair, &mut scratch, &mut hits);
        assert_eq!(hits, expected, "evaluate_into on {repair:?}");
        for (q, &(evaluator, candidate)) in queries.iter().enumerate() {
            if !bank.is_fallback(q) {
                assert_eq!(
                    hits[q],
                    evaluator.has_answer(db, repair, candidate).unwrap(),
                    "entry {q} on {repair:?}"
                );
            }
        }
        let mut live = BankLiveSet::full(bank);
        for &retired in order {
            let mut live_hits = vec![false; bank.len()];
            bank.evaluate_live_into(&live, repair, &mut scratch, &mut live_hits);
            for &q in live.live_queries() {
                assert_eq!(live_hits[q], expected[q], "live entry {q} on {repair:?}");
            }
            live.retire(bank, retired);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// On random banks over random databases, the sparse per-draw
        /// check (fact-id runs probed against the repair) gives exactly
        /// the hits of the dense reference `witnesses_of(q).any(|w|
        /// repair.contains_all(w))` — before and after random
        /// retirements, and again after a random delta and a `refresh`.
        #[test]
        fn sparse_check_matches_the_dense_reference(
            rows in proptest::collection::vec((0u8..2, 0u8..4, 0u8..4), 1..14),
            picks in proptest::collection::vec(0usize..POOL.len(), 1..7),
            cap in 1usize..12,
            masks in proptest::collection::vec(0u64..u64::MAX, 4..7),
            order_seed in 0u64..1_000,
            delta in proptest::collection::vec((0u8..3, 0u8..4, 0u8..4), 0..6),
        ) {
            let mut schema = Schema::new();
            schema.add_relation("R", &["K", "V"]).unwrap();
            schema.add_relation("S", &["V", "W"]).unwrap();
            let mut db = Database::with_schema(schema);
            for &(relation, a, b) in &rows {
                let name = if relation == 0 { "R" } else { "S" };
                db.insert_values(name, [Value::int(a.into()), Value::int(b.into())])
                    .unwrap();
            }
            let evals: Vec<QueryEvaluator> = picks
                .iter()
                .map(|&p| QueryEvaluator::new(parse_query(db.schema(), POOL[p].0).unwrap()))
                .collect();
            let candidates: Vec<Vec<Value>> = picks
                .iter()
                .map(|&p| POOL[p].1.map(Value::int).into_iter().collect())
                .collect();
            let queries: Vec<BankQueryRef<'_>> = evals
                .iter()
                .zip(&candidates)
                .map(|(e, c)| (e, c.as_slice()))
                .collect();
            // A retirement order: a seeded rotation of the entries.
            let order: Vec<usize> = (0..queries.len())
                .map(|i| (i + order_seed as usize) % queries.len())
                .collect();

            let mut bank = LineageBank::compile_with_cap(&db, &queries, cap).unwrap();
            for &mask in &masks {
                let repair = masked(db.len(), mask);
                assert_sparse_matches_dense(&db, &bank, &queries, &repair, &order);
            }
            assert_stable_addresses(&bank);

            for &(kind, a, b) in &delta {
                let values = [Value::int(a.into()), Value::int(b.into())];
                match kind {
                    0 => {
                        let id = FactId::new((usize::from(a) * 4 + usize::from(b)) % db.len());
                        if db.is_live(id) {
                            db.delete(id).unwrap();
                        }
                    }
                    1 => {
                        db.insert_values("R", values).unwrap();
                    }
                    _ => {
                        db.insert_values("S", values).unwrap();
                    }
                }
            }
            bank.refresh_with_cap(&db, &queries, cap).unwrap();
            let live_facts = db.all_facts();
            for &mask in &masks {
                let mut repair = masked(db.len(), mask);
                repair.intersect_with(&live_facts);
                assert_sparse_matches_dense(&db, &bank, &queries, &repair, &order);
            }
            assert_stable_addresses(&bank);
        }
    }
}

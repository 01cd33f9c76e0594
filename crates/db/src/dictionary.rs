//! Dictionary encoding: interning [`Value`]s into dense [`Sym`] symbols.
//!
//! Every constant that enters a [`crate::Database`] is interned exactly
//! once into an append-only [`Dictionary`], which assigns dense `u32`
//! symbols in first-appearance order.  All hot paths — FD violation
//! detection, join probes, grounded-atom keys — then work on `Sym`s, so
//! equality is a single integer compare and group-by is a sort over
//! `u32` keys instead of hashing `Value::Str(Arc<str>)` payloads.
//!
//! The dictionary is *append-only*: a symbol, once assigned, never moves
//! or changes meaning.  Databases share one behind an [`std::sync::Arc`]
//! (like [`crate::ConflictIndex`]), cloned copy-on-write only if a
//! snapshot is still held while new constants arrive.

use std::collections::HashMap;
use std::fmt;

use crate::{DbError, Value};

/// A dense interned symbol standing for one [`Value`].
///
/// Symbols are assigned in first-appearance order by a [`Dictionary`] and
/// are stable for its lifetime: `Sym` equality is [`Value`] equality (the
/// interning map is injective), but `Sym` *order* is appearance order, not
/// value order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub(crate) u32);

impl Sym {
    /// Creates a symbol from a raw index known to be in range (for index
    /// construction over already-interned symbols).
    #[inline]
    pub(crate) fn new(index: usize) -> Self {
        debug_assert!(
            index <= u32::MAX as usize,
            "symbol index {index} exceeds the u32 symbol space"
        );
        Sym(index as u32)
    }

    /// Checked conversion from a raw index: `None` iff the index does not
    /// fit the `u32` symbol width (the conversion that used to silently
    /// truncate).
    #[inline]
    pub(crate) fn try_new(index: usize) -> Option<Self> {
        u32::try_from(index).ok().map(Sym)
    }

    /// The dense index of this symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// An append-only interner `Value → Sym` with stable dense ids.
///
/// Symbols are handed out in first-appearance order; [`Dictionary::decode`]
/// recovers the original value.  Lookups on read paths use the
/// non-mutating [`Dictionary::lookup`]: a constant that was never interned
/// provably occurs in no fact, so probes can early-return empty without
/// growing the dictionary.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// Symbol → value, in assignment order.
    values: Vec<Value>,
    /// Value → symbol.
    index: HashMap<Value, Sym>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Interns `value`, returning its symbol (existing symbol if the value
    /// was seen before).
    ///
    /// # Panics
    /// Panics if the `u32` symbol space is exhausted; fallible callers use
    /// [`Dictionary::try_intern`].
    pub fn intern(&mut self, value: Value) -> Sym {
        match self.try_intern(value) {
            Ok(sym) => sym,
            Err(e) => panic!("{e}"),
        }
    }

    /// Interns `value` with a checked symbol conversion: a dictionary that
    /// already holds `u32::MAX + 1` distinct constants returns
    /// [`DbError::DictionaryFull`] instead of silently aliasing the new
    /// value onto an existing symbol.
    pub fn try_intern(&mut self, value: Value) -> Result<Sym, DbError> {
        if let Some(&sym) = self.index.get(&value) {
            return Ok(sym);
        }
        let sym = Sym::try_new(self.values.len()).ok_or(DbError::DictionaryFull {
            symbols: self.values.len(),
        })?;
        self.values.push(value.clone());
        self.index.insert(value, sym);
        Ok(sym)
    }

    /// Looks up the symbol of `value` without interning it.
    ///
    /// `None` means the value occurs nowhere in any database built over
    /// this dictionary, so callers can treat the probe as matching nothing.
    #[inline]
    pub fn lookup(&self, value: &Value) -> Option<Sym> {
        self.index.get(value).copied()
    }

    /// Decodes a symbol back to its value.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this dictionary.
    #[inline]
    pub fn decode(&self, sym: Sym) -> &Value {
        &self.values[sym.index()]
    }

    /// The number of distinct interned values (also the exclusive upper
    /// bound on symbol indexes).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` iff no value has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(sym, value)` pairs in assignment order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &Value)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (Sym::new(i), v))
    }

    /// Approximate resident bytes of the dictionary (entries plus string
    /// payloads plus hash-map overhead), for memory reporting.
    pub fn approx_bytes(&self) -> usize {
        let payload: usize = self
            .values
            .iter()
            .map(|v| match v {
                Value::Int(_) => 0,
                Value::Str(s) => s.len(),
            })
            .sum();
        // One Value in `values`, one Value + Sym entry in `index` (with
        // ~1.8x open-addressing slack), plus the shared str payload once
        // (the Arc<str> buffer is shared between the two copies).
        let value_size = std::mem::size_of::<Value>();
        let entry = value_size + (value_size + std::mem::size_of::<Sym>()) * 2;
        self.values.len() * entry + payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut dict = Dictionary::new();
        let a = dict.intern(Value::str("a"));
        let b = dict.intern(Value::int(7));
        let a2 = dict.intern(Value::str("a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(dict.len(), 2);
    }

    #[test]
    fn decode_round_trips() {
        let mut dict = Dictionary::new();
        let values = [Value::str("x"), Value::int(-3), Value::str("")];
        let syms: Vec<Sym> = values.iter().cloned().map(|v| dict.intern(v)).collect();
        for (sym, value) in syms.iter().zip(&values) {
            assert_eq!(dict.decode(*sym), value);
        }
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut dict = Dictionary::new();
        dict.intern(Value::int(1));
        assert_eq!(dict.lookup(&Value::int(2)), None);
        assert_eq!(dict.len(), 1);
        assert_eq!(dict.lookup(&Value::int(1)), Some(Sym::new(0)));
    }

    #[test]
    fn int_and_str_do_not_collide() {
        let mut dict = Dictionary::new();
        let i = dict.intern(Value::int(1));
        let s = dict.intern(Value::str("1"));
        assert_ne!(i, s);
    }

    #[test]
    fn iter_yields_assignment_order() {
        let mut dict = Dictionary::new();
        dict.intern(Value::str("b"));
        dict.intern(Value::str("a"));
        let collected: Vec<&Value> = dict.iter().map(|(_, v)| v).collect();
        assert_eq!(collected, vec![&Value::str("b"), &Value::str("a")]);
    }

    #[test]
    fn sym_conversion_is_checked_at_the_u32_boundary() {
        assert_eq!(Sym::try_new(0), Some(Sym(0)));
        assert_eq!(Sym::try_new(u32::MAX as usize), Some(Sym(u32::MAX)));
        assert_eq!(Sym::try_new(u32::MAX as usize + 1), None);
        // The error a full dictionary would surface is typed, not a
        // silently aliased symbol.
        let err = DbError::DictionaryFull {
            symbols: u32::MAX as usize + 1,
        };
        assert!(err.to_string().contains("symbol space is exhausted"));
    }

    #[test]
    fn try_intern_matches_intern_on_the_happy_path() {
        let mut dict = Dictionary::new();
        let a = dict.try_intern(Value::str("a")).unwrap();
        assert_eq!(dict.intern(Value::str("a")), a);
        assert_eq!(dict.len(), 1);
    }

    #[test]
    fn approx_bytes_counts_string_payloads() {
        let mut small = Dictionary::new();
        small.intern(Value::int(1));
        let mut big = Dictionary::new();
        big.intern(Value::str("a-rather-long-constant-name"));
        assert!(big.approx_bytes() > small.approx_bytes());
    }
}

//! # flux_symbols
//!
//! Interned element-name symbols — the foundation type every FluXQuery
//! layer shares.
//!
//! The paper's central claim (Koch et al., VLDB 2004) is that memory and
//! CPU stay bounded by the *schema*, not the document. The event alphabet of
//! a validated stream is the fixed, schema-derived set of element names, so
//! every layer — parser, validator, scheduler, runtime — can work on dense
//! `u32` [`Symbol`]s instead of heap-allocated strings. One [`SymbolTable`]
//! is built from the DTD and cloned into the XML reader; because cloning
//! preserves indices, a symbol produced by the parser *is* the symbol the
//! schema automata transition on, with no per-event re-hashing.
//!
//! Two pseudo-symbols exist: [`SymbolTable::TEXT`] for character data (used
//! by the `past(...)` analysis, where text behaves like a label that mixed
//! content can always still produce) and [`SymbolTable::DOCUMENT`] for the
//! virtual document node.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher for the name map. Element and attribute names are
/// short (a word or two), and interning sits on the parser's per-tag hot
/// path — SipHash's per-call setup costs more than hashing the whole name.
/// Flood resistance is not a goal here: the bounded-interner mode already
/// caps what adversarial input can make the table store, and a collision
/// only costs a probe, not a correctness failure.
#[derive(Default)]
pub struct NameHasher {
    hash: u64,
}

impl Hasher for NameHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut h = self.hash;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            h = (h.rotate_left(5) ^ word).wrapping_mul(K);
        }
        let mut tail = 0u64;
        for &b in chunks.remainder() {
            tail = (tail << 8) | b as u64;
        }
        h = (h.rotate_left(5) ^ tail ^ bytes.len() as u64).wrapping_mul(K);
        self.hash = h;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type NameMap = HashMap<String, Symbol, BuildHasherDefault<NameHasher>>;

/// An interned element name (or pseudo-node kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a symbol from its dense index. Only meaningful for
    /// indices handed out by a [`SymbolTable`] (or a clone of it — clones
    /// preserve indices, which is what lets the reader and the schema
    /// automata share symbols without translation).
    pub fn from_index(i: usize) -> Symbol {
        Symbol(u32::try_from(i).expect("too many symbols"))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Bidirectional map between element names and [`Symbol`]s.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    names: Vec<String>,
    by_name: NameMap,
}

impl SymbolTable {
    /// The pseudo-symbol for character data.
    pub const TEXT: Symbol = Symbol(0);
    /// The pseudo-symbol for the virtual document node.
    pub const DOCUMENT: Symbol = Symbol(1);
    /// Sentinel returned by [`SymbolTable::intern_bounded`] when the table
    /// is at capacity. It is **not** an index into the table — callers that
    /// may see it must carry the name out of band (the XML reader stores it
    /// in the event's recycled buffers) and resolve through an
    /// overflow-aware accessor instead of [`SymbolTable::name`].
    pub const OVERFLOW: Symbol = Symbol(u32::MAX);

    /// Creates a table pre-populated with the pseudo-symbols.
    pub fn new() -> Self {
        let mut table = SymbolTable {
            names: Vec::new(),
            by_name: NameMap::default(),
        };
        let text = table.intern("#text");
        let document = table.intern("#document");
        debug_assert_eq!(text, Self::TEXT);
        debug_assert_eq!(document, Self::DOCUMENT);
        table
    }

    /// Interns `name`, returning its symbol (idempotent). Allocates only
    /// the first time a name is seen; the steady state is a hash lookup.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.by_name.get(name) {
            return sym;
        }
        let sym = Symbol::from_index(self.names.len());
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), sym);
        sym
    }

    /// Interns `name` only while the table holds fewer than `cap` entries;
    /// already-interned names always resolve. Returns
    /// [`SymbolTable::OVERFLOW`] when the name is new and the table is
    /// full.
    ///
    /// This is the capacity-capped mode for **unvalidated** streams: on
    /// schema-validated input the name alphabet is fixed by the DTD, but an
    /// adversarial raw stream can mint unboundedly many distinct names. A
    /// cap restores a hard memory bound — the table stores at most `cap`
    /// names, and overflowing names travel as per-event strings instead.
    pub fn intern_bounded(&mut self, name: &str, cap: usize) -> Symbol {
        if let Some(&sym) = self.by_name.get(name) {
            return sym;
        }
        if self.names.len() >= cap {
            return Self::OVERFLOW;
        }
        self.intern(name)
    }

    /// Forgets every name interned after the first `len`, so the table
    /// holds exactly what it held when it was `len` long — the reset a
    /// recycled stream or arena table gets between runs (a seeded table
    /// truncates back to its seed). Names below `len` keep their symbols.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.names.len() {
            return;
        }
        for name in self.names.drain(len..) {
            self.by_name.remove(&name);
        }
    }

    /// Looks up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.by_name.get(name).copied()
    }

    /// Placeholder rendered by [`SymbolTable::name`] for symbols the table
    /// does not hold (the [`SymbolTable::OVERFLOW`] sentinel, or a symbol
    /// minted by a different table). Never a legal XML name, so it cannot
    /// be confused with real data.
    pub const UNRESOLVED_NAME: &'static str = "#overflow";

    /// The name behind a symbol, or `None` when the table does not hold it
    /// — the safe path for streams that may carry
    /// [`SymbolTable::OVERFLOW`] (resolve those through the event's
    /// literal-name side channel, e.g. `RawEvent::name_str`).
    pub fn try_name(&self, sym: Symbol) -> Option<&str> {
        self.names.get(sym.index()).map(String::as_str)
    }

    /// The name behind a symbol. For a symbol the table does not hold
    /// (notably [`SymbolTable::OVERFLOW`]) this returns
    /// [`SymbolTable::UNRESOLVED_NAME`] instead of panicking; callers that
    /// must render the real name of a possibly-overflowed symbol should
    /// use the event's literal-name accessors (`name_str`) or
    /// [`SymbolTable::try_name`].
    pub fn name(&self, sym: Symbol) -> &str {
        self.try_name(sym).unwrap_or(Self::UNRESOLVED_NAME)
    }

    /// Deterministic heap bytes held by the interned names (length-based;
    /// the reverse map's keys mirror `names`, so the figure is doubled to
    /// stay honest about both directions).
    pub fn heap_bytes(&self) -> usize {
        2 * self.names.iter().map(String::len).sum::<usize>()
    }

    /// Number of interned symbols, including the two pseudo-symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All element symbols (excluding the pseudo-symbols).
    pub fn element_symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        (2..self.names.len()).map(Symbol::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = SymbolTable::new();
        let a1 = t.intern("book");
        let a2 = t.intern("book");
        assert_eq!(a1, a2);
        assert_eq!(t.name(a1), "book");
    }

    #[test]
    fn pseudo_symbols_reserved() {
        let t = SymbolTable::new();
        assert_eq!(t.lookup("#text"), Some(SymbolTable::TEXT));
        assert_eq!(t.lookup("#document"), Some(SymbolTable::DOCUMENT));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn element_symbols_excludes_pseudo() {
        let mut t = SymbolTable::new();
        let b = t.intern("book");
        let a = t.intern("author");
        let got: Vec<_> = t.element_symbols().collect();
        assert_eq!(got, vec![b, a]);
    }

    #[test]
    fn lookup_missing() {
        let t = SymbolTable::new();
        assert_eq!(t.lookup("nope"), None);
    }

    #[test]
    fn bounded_interning_caps_growth() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        // Cap at the current size: known names resolve, new names overflow.
        let cap = t.len();
        assert_eq!(t.intern_bounded("a", cap), a);
        assert_eq!(t.intern_bounded("b", cap), SymbolTable::OVERFLOW);
        assert_eq!(t.len(), cap, "overflow must not grow the table");
        // With headroom the name interns normally.
        let b = t.intern_bounded("b", cap + 1);
        assert_ne!(b, SymbolTable::OVERFLOW);
        assert_eq!(t.lookup("b"), Some(b));
        // And the sentinel is never a valid index.
        assert_eq!(SymbolTable::OVERFLOW.index(), u32::MAX as usize);
    }

    #[test]
    fn truncate_forgets_only_the_tail() {
        let mut table = SymbolTable::new();
        let a = table.intern("a");
        let seed = table.len();
        table.intern("minted");
        table.intern("another");
        let heap = table.heap_bytes();
        table.truncate(seed);
        assert_eq!(table.len(), seed);
        assert_eq!(table.lookup("minted"), None);
        assert_eq!(table.try_name(Symbol::from_index(seed)), None);
        assert_eq!(table.lookup("a"), Some(a));
        assert!(table.heap_bytes() < heap);
        // A name minted again after the truncation gets the index a fresh
        // table would give it.
        assert_eq!(table.intern("another"), Symbol::from_index(seed));
        table.truncate(table.len() + 5);
        assert_eq!(table.len(), seed + 1, "truncating past the end is a no-op");
    }

    #[test]
    fn heap_bytes_counts_both_directions() {
        let mut t = SymbolTable::new();
        let base = t.heap_bytes();
        t.intern("book");
        assert_eq!(t.heap_bytes(), base + 2 * "book".len());
        // Idempotent interning adds nothing.
        t.intern("book");
        assert_eq!(t.heap_bytes(), base + 2 * "book".len());
    }

    #[test]
    fn overflow_symbol_resolves_without_panicking() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        assert_eq!(t.try_name(a), Some("a"));
        assert_eq!(t.try_name(SymbolTable::OVERFLOW), None);
        assert_eq!(t.name(SymbolTable::OVERFLOW), SymbolTable::UNRESOLVED_NAME);
        // A foreign symbol past the table's end is equally safe.
        assert_eq!(t.try_name(Symbol::from_index(999)), None);
        assert_eq!(
            t.name(Symbol::from_index(999)),
            SymbolTable::UNRESOLVED_NAME
        );
    }

    #[test]
    fn clones_preserve_indices() {
        let mut t = SymbolTable::new();
        let book = t.intern("book");
        let mut clone = t.clone();
        assert_eq!(clone.lookup("book"), Some(book));
        assert_eq!(clone.intern("book"), book);
        // New names in the clone extend past the shared prefix.
        let extra = clone.intern("pamphlet");
        assert_eq!(extra.index(), t.len());
        assert_eq!(t.lookup("pamphlet"), None);
    }
}

//! Symbol interning shared across parser, grounder, solver and reasoners.
//!
//! A [`Symbols`] store is cheaply clonable (`Arc` inside) and thread-safe, so
//! the parallel reasoner's workers can translate stream items into atoms whose
//! identifiers are comparable across threads — the combining handler relies on
//! this to union answer sets without re-rendering atoms to strings.
//!
//! The store also owns the one name order every answer set sorts by: a
//! rank per symbol, handed out as a shared snapshot
//! (`Symbols::name_ranks`). A snapshot is extended only when asked for a
//! symbol it does not cover, by merging the names interned since into the
//! sorted order, so once a stream stops interning new names no name is
//! compared again.

use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// FxHash-style multiplicative hasher.
///
/// HashDoS resistance is irrelevant for interned `u32` keys and short
/// predicate names, while hashing cost is on the grounder's hot join path, so
/// a fast low-quality hash is the right trade-off here.
///
/// A product's low bits depend only on its factors' low bits, so the raw
/// multiply state would send every string sharing a first byte to a few
/// dozen low-bit values, the bits a hash table picks its bucket by.
/// [`finish`](Hasher::finish) rotates the state (as rustc-hash 2 does) to
/// bring the well-mixed high bits down.
#[derive(Default, Clone)]
pub struct FastHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // The remainder is at most 7 bytes, so the top byte is free;
            // tagging it with the length disambiguates zero padding (e.g.
            // "\0" vs "").
            buf[7] = 0x80 | rem.len() as u8;
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.mix(v as u64);
    }
}

/// `HashMap` keyed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
/// `HashSet` keyed with [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// An interned string (predicate name, constant, variable name).
///
/// Symbols are only meaningful relative to the [`Symbols`] store that created
/// them; all components of one reasoning pipeline share a single store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({})", self.0)
    }
}

#[derive(Default)]
struct Store {
    map: FastMap<Arc<str>, Sym>,
    names: Vec<Arc<str>>,
    /// The first `ranks.len()` symbols, sorted by name.
    by_name: Vec<Sym>,
    /// `ranks[s]` is symbol `s`'s position in `by_name`.
    ranks: Arc<[u32]>,
}

impl Store {
    /// Ranks every interned symbol: sorts the names interned since the last
    /// snapshot (`k log k`) and merges them into the sorted order, each one
    /// placed by binary search, then renumbers (`n`).
    fn extend_ranks(&mut self) {
        let names = &self.names;
        let mut fresh: Vec<Sym> = (self.ranks.len()..names.len()).map(|i| Sym(i as u32)).collect();
        fresh.sort_unstable_by(|a, b| names[a.0 as usize].cmp(&names[b.0 as usize]));
        let mut merged = Vec::with_capacity(names.len());
        let mut rest = &self.by_name[..];
        for s in fresh {
            let name = &names[s.0 as usize];
            let at = rest.partition_point(|t| names[t.0 as usize] < *name);
            merged.extend_from_slice(&rest[..at]);
            merged.push(s);
            rest = &rest[at..];
        }
        merged.extend_from_slice(rest);
        let mut ranks = vec![0u32; names.len()];
        for (r, s) in merged.iter().enumerate() {
            ranks[s.0 as usize] = r as u32;
        }
        self.by_name = merged;
        self.ranks = ranks.into();
    }
}

/// Thread-safe, cheaply clonable symbol interner.
#[derive(Clone, Default)]
pub struct Symbols {
    inner: Arc<RwLock<Store>>,
}

impl Symbols {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its symbol. Idempotent.
    pub fn intern(&self, name: &str) -> Sym {
        if let Some(sym) = self.inner.read().map.get(name) {
            return *sym;
        }
        let mut store = self.inner.write();
        if let Some(sym) = store.map.get(name) {
            return *sym;
        }
        let sym = Sym(u32::try_from(store.names.len()).expect("symbol table overflow"));
        let arc: Arc<str> = Arc::from(name);
        store.names.push(Arc::clone(&arc));
        store.map.insert(arc, sym);
        sym
    }

    /// Returns the string for `sym`. Panics on a symbol from another store.
    pub fn resolve(&self, sym: Sym) -> Arc<str> {
        Arc::clone(&self.inner.read().names[sym.0 as usize])
    }

    /// A snapshot of the store's name order that covers every symbol below
    /// `covering`: `ranks[s.0]` orders symbols as their names compare. Two
    /// symbols' ranks compare the same in every snapshot; the numbers
    /// themselves change as names are interned. Returns the current
    /// snapshot (a shared `Arc`, no copy) unless it is too short, and then
    /// extends it to every symbol interned so far.
    pub(crate) fn name_ranks(&self, covering: usize) -> Arc<[u32]> {
        {
            let store = self.inner.read();
            if store.ranks.len() >= covering {
                return Arc::clone(&store.ranks);
            }
        }
        let mut store = self.inner.write();
        if store.ranks.len() < covering {
            store.extend_ranks();
        }
        Arc::clone(&store.ranks)
    }

    /// Looks up an already-interned name without inserting.
    pub fn get(&self, name: &str) -> Option<Sym> {
        self.inner.read().map.get(name).copied()
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.inner.read().names.len()
    }

    /// True when no symbol has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for Symbols {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbols({} interned)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let syms = Symbols::new();
        let a = syms.intern("traffic_jam");
        let b = syms.intern("traffic_jam");
        assert_eq!(a, b);
        assert_eq!(syms.len(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let syms = Symbols::new();
        let a = syms.intern("a");
        let b = syms.intern("b");
        assert_ne!(a, b);
        assert_eq!(&*syms.resolve(a), "a");
        assert_eq!(&*syms.resolve(b), "b");
    }

    #[test]
    fn get_does_not_insert() {
        let syms = Symbols::new();
        assert!(syms.get("missing").is_none());
        assert!(syms.is_empty());
        let s = syms.intern("x");
        assert_eq!(syms.get("x"), Some(s));
    }

    #[test]
    fn interning_is_consistent_across_threads() {
        let syms = Symbols::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let syms = syms.clone();
            handles.push(std::thread::spawn(move || {
                (0..100).map(|i| syms.intern(&format!("p{i}"))).collect::<Vec<_>>()
            }));
        }
        let results: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        assert_eq!(syms.len(), 100);
    }

    /// Checks that `ranks` orders every symbol of `syms` by name.
    fn assert_ranks_follow_names(syms: &Symbols, ranks: &[u32]) {
        assert_eq!(ranks.len(), syms.len(), "the snapshot covers every symbol");
        let mut by_rank: Vec<Sym> = (0..syms.len() as u32).map(Sym).collect();
        by_rank.sort_by_key(|s| ranks[s.0 as usize]);
        let names: Vec<Arc<str>> = by_rank.iter().map(|&s| syms.resolve(s)).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "ranks follow names: {names:?}");
    }

    #[test]
    fn a_snapshot_is_shared_until_a_new_symbol_needs_ranking() {
        let syms = Symbols::new();
        let a = syms.intern("a");
        let first = syms.name_ranks(a.0 as usize + 1);
        let again = syms.name_ranks(syms.len());
        assert!(Arc::ptr_eq(&first, &again), "no interning in between: the same snapshot");
        // A symbol interned since is not ranked until a batch holds it.
        let b = syms.intern("0");
        assert!(Arc::ptr_eq(&first, &syms.name_ranks(a.0 as usize + 1)));
        let extended = syms.name_ranks(b.0 as usize + 1);
        assert!(!Arc::ptr_eq(&first, &extended));
        assert!(extended[b.0 as usize] < extended[a.0 as usize], "\"0\" sorts before \"a\"");
        assert!(Arc::ptr_eq(&extended, &syms.name_ranks(syms.len())));
    }

    #[test]
    fn ranks_follow_names_interned_in_descending_order() {
        let syms = Symbols::new();
        for name in ["z", "y", "m", "ma", "m", "b", "", "a\u{0}", "a"] {
            syms.intern(name);
            assert_ranks_follow_names(&syms, &syms.name_ranks(syms.len()));
        }
        // Several names at once merge into the order just as well.
        for name in ["zz", "n", "\u{0}", "mb", "c"] {
            syms.intern(name);
        }
        assert_ranks_follow_names(&syms, &syms.name_ranks(syms.len()));
    }

    #[test]
    fn ranks_follow_names_while_two_threads_intern_at_once() {
        let syms = Symbols::new();
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let syms = syms.clone();
                std::thread::spawn(move || {
                    for i in (0..200).rev() {
                        let s = syms.intern(&format!("n{}", i * 2 + t));
                        let ranks = syms.name_ranks(s.0 as usize + 1);
                        assert!(ranks.len() > s.0 as usize, "the snapshot covers what was asked");
                        let first = Sym(0);
                        assert_eq!(
                            ranks[s.0 as usize].cmp(&ranks[0]),
                            syms.resolve(s).cmp(&syms.resolve(first)),
                            "a snapshot taken mid-race orders names already"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_ranks_follow_names(&syms, &syms.name_ranks(syms.len()));
    }

    #[test]
    fn fast_hasher_distinguishes_short_keys() {
        fn hash_one(bytes: &[u8]) -> u64 {
            let mut h = FastHasher::default();
            h.write(bytes);
            h.finish()
        }
        assert_ne!(hash_one(b"a"), hash_one(b"b"));
        assert_ne!(hash_one(b"ab"), hash_one(b"ba"));
        assert_ne!(hash_one(b""), hash_one(b"\0"));
    }

    #[test]
    fn fast_hasher_spreads_names_with_a_common_prefix_over_low_bits() {
        use std::hash::Hash;
        let low_bits: HashSet<u64> = (0..4096)
            .map(|i| {
                let mut h = FastHasher::default();
                format!("car{i}").as_str().hash(&mut h);
                h.finish() & 0xfff
            })
            .collect();
        assert!(low_bits.len() >= 1024, "4096 names share {} low-12-bit values", low_bits.len());
    }
}

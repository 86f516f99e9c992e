//! Symbol interning shared across parser, grounder, solver and reasoners.
//!
//! A [`Symbols`] store is cheaply clonable (`Arc` inside) and thread-safe, so
//! the parallel reasoner's workers can translate stream items into atoms whose
//! identifiers are comparable across threads — the combining handler relies on
//! this to union answer sets without re-rendering atoms to strings.

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
        self.state
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

    /// Sorts `syms` by name, resolving all of them under one lock.
    pub(crate) fn sort_by_name(&self, syms: &mut [Sym]) {
        let store = self.inner.read();
        syms.sort_unstable_by(|a, b| store.names[a.0 as usize].cmp(&store.names[b.0 as usize]));
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
}

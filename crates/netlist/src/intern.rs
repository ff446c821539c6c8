//! A process-global string interner: the canonical name representation for
//! nets, cells and modules across the workspace.
//!
//! Every distinct name string is stored exactly once for the lifetime of the
//! process and addressed by a copyable [`Symbol`] (a `u32`). Equality and
//! hashing of symbols are single integer operations, which is what makes
//! name-keyed indices ([`Netlist::find_net`](crate::Netlist::find_net)),
//! clustering and content-addressed cache keys cheap at 10⁵–10⁶ cells.
//! Display strings materialize only at export: [`Symbol::as_str`] resolves
//! back to the interned `&'static str`.
//!
//! Two properties are load-bearing for the rest of the workspace:
//!
//! * **Raw symbol ids are process-local.** Interning order depends on which
//!   netlist was built first (and on thread interleaving in a service), so a
//!   `Symbol`'s `u32` must never leak into anything that has to be stable
//!   across processes. Content-addressed hashes use
//!   [`Symbol::content_hash`] — a stable FNV-1a digest of the *string* —
//!   instead of the id (see
//!   [`Netlist::structural_hash`](crate::Netlist::structural_hash)).
//! * **Ordering is by string, not by id.** [`Ord`] compares the resolved
//!   strings, so sorting symbols is deterministic regardless of interning
//!   order; sorting by id would be scheduling-dependent in parallel flows.
//!
//! The string → id map keeps std's randomized SipHash hasher, while maps
//! keyed by symbols and ids use the faster fixed-seed
//! [`FxHasher`](crate::fxhash::FxHasher): the map's keys are names from
//! tenant-supplied designs, and one table serves every tenant of a
//! process, so with a fixed hash one tenant could craft names that collide
//! and slow every other tenant's interning.

use crate::netlist::Fnv1a;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned name. Copyable, `==`/`Hash` in O(1) on the raw `u32`.
///
/// Obtain one with [`Symbol::intern`] (or any of the `From` conversions from
/// string types); resolve it with [`Symbol::as_str`]. Symbols compare equal
/// exactly when their strings are equal, because interning deduplicates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Symbol(u32);

/// The global table: append-only string storage plus the dedup map and the
/// per-symbol content digests (computed once at interning time).
struct Table {
    /// Randomized std hasher on purpose: the keys are outside input (see
    /// the module docs).
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
    content_hashes: Vec<u64>,
}

fn table() -> &'static RwLock<Table> {
    static TABLE: OnceLock<RwLock<Table>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(Table {
            map: HashMap::new(),
            strings: Vec::new(),
            content_hashes: Vec::new(),
        })
    })
}

/// Stable FNV-1a digest of a name string, length-prefixed exactly like
/// [`Fnv1a::write_str`], so `("ab","c")` and `("a","bc")` digest differently
/// even when concatenated into one stream of per-name digests.
fn digest(s: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(s);
    h.finish()
}

impl Symbol {
    /// Interns `s`, returning the existing symbol if the string was seen
    /// before (by any thread) and allocating a new slot otherwise.
    pub fn intern(s: &str) -> Symbol {
        let t = table();
        if let Some(&id) = t.read().expect("interner lock").map.get(s) {
            return Symbol(id);
        }
        let mut w = t.write().expect("interner lock");
        if let Some(&id) = w.map.get(s) {
            return Symbol(id); // raced: another thread interned it first
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(w.strings.len()).expect("interner table overflow");
        w.strings.push(leaked);
        let h = digest(leaked);
        w.content_hashes.push(h);
        w.map.insert(leaked, id);
        Symbol(id)
    }

    /// Looks up the symbol for `s` **without** interning it. Lets lookups
    /// like [`Netlist::find_net`](crate::Netlist::find_net) reject unknown
    /// names without growing the table.
    pub fn probe(s: &str) -> Option<Symbol> {
        table()
            .read()
            .expect("interner lock")
            .map
            .get(s)
            .copied()
            .map(Symbol)
    }

    /// The interned string. Interned strings live for the process lifetime,
    /// so the returned reference is `'static`.
    pub fn as_str(self) -> &'static str {
        table().read().expect("interner lock").strings[self.0 as usize]
    }

    /// A stable, content-addressed 64-bit digest of the name (FNV-1a over
    /// the length-prefixed string bytes), computed once at interning time.
    ///
    /// Unlike the raw id this is identical across processes and independent
    /// of interning order — it is what
    /// [`Netlist::structural_hash`](crate::Netlist::structural_hash) mixes
    /// for every name.
    pub fn content_hash(self) -> u64 {
        table().read().expect("interner lock").content_hashes[self.0 as usize]
    }

    /// The raw process-local id. Only useful for diagnostics; never persist
    /// or hash it (see the module docs).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

// Ordering resolves to the strings: deterministic under any interning order.
impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_deduplicating() {
        let a = Symbol::intern("intern_test_alpha");
        let b = Symbol::intern("intern_test_alpha");
        assert_eq!(a, b, "same string must yield the same symbol");
        assert_eq!(a.as_str(), "intern_test_alpha");
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn distinct_strings_never_collide() {
        // A burst of distinct names: pairwise-distinct symbols, each
        // resolving back to exactly its own string.
        let symbols: Vec<Symbol> = (0..512)
            .map(|i| Symbol::intern(&format!("intern_test_n{i}")))
            .collect();
        for (i, s) in symbols.iter().enumerate() {
            assert_eq!(s.as_str(), format!("intern_test_n{i}"));
            for other in &symbols[..i] {
                assert_ne!(s, other);
            }
        }
    }

    #[test]
    fn probe_does_not_intern() {
        assert_eq!(Symbol::probe("intern_test_never_interned_xyzzy"), None);
        let s = Symbol::intern("intern_test_probed");
        assert_eq!(Symbol::probe("intern_test_probed"), Some(s));
    }

    #[test]
    fn content_hash_matches_the_streamed_string_digest() {
        let s = Symbol::intern("intern_test_digest");
        let mut h = Fnv1a::new();
        h.write_str("intern_test_digest");
        assert_eq!(s.content_hash(), h.finish());
        // Distinct strings get distinct digests (w.h.p.); the boundary-shift
        // property is inherited from the length prefix.
        assert_ne!(
            Symbol::intern("intern_test_ab").content_hash(),
            Symbol::intern("intern_test_a").content_hash()
        );
    }

    #[test]
    fn ordering_is_lexicographic_not_id_order() {
        // Intern in reverse lexicographic order: ids ascend, strings don't.
        let z = Symbol::intern("intern_test_order_z");
        let a = Symbol::intern("intern_test_order_a");
        assert!(a < z, "order must follow the strings");
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn string_comparisons_work_in_both_directions() {
        let s = Symbol::intern("intern_test_cmp");
        assert_eq!(s, "intern_test_cmp");
        assert_eq!("intern_test_cmp", s);
        assert_eq!(s, "intern_test_cmp".to_string());
        assert!(s != "something else");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..64)
                        .map(|i| Symbol::intern(&format!("intern_test_race{i}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0], "all threads must see identical symbols");
        }
    }
}

//! A fast, fixed-seed hasher for maps whose keys the program assigns:
//! dense ids, interned [`Symbol`](crate::Symbol)s and pairs of them.
//!
//! It is the multiply-rotate hash of the Firefox and rustc code bases: one
//! rotate, one xor and one multiply per word, against SipHash's dozens of
//! rounds. A fixed seed makes it predictable, so it must never key a map on
//! content an outside party chooses (names from a design file, say): such
//! keys could be crafted to collide. The name interner therefore keeps
//! std's randomized hasher (see [`crate::intern`]).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the hash (an odd constant with well-spread bits).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state: one word, mixed once per written word.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` over program-assigned keys, hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` over program-assigned keys, hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

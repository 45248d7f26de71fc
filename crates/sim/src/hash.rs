//! One fixed, fast hasher for the integer-keyed maps on per-event paths.
//!
//! The standard library's `RandomState` (SipHash-1-3 with a per-process
//! random key) resists hash flooding, which a simulator keyed by its own
//! node ids and sequence numbers does not need, and costs tens of
//! nanoseconds per lookup. [`FastHasher`] is the multiply-rotate hash
//! rustc uses for its own tables (the "Fx" hash): each word is folded in
//! as `h = (h.rotl(5) ^ word) · K`. It is a few cycles per key, and it is
//! unkeyed, so iteration order of a [`FastMap`] is the same in every
//! process.
//!
//! # Example
//!
//! ```
//! use omn_sim::hash::FastMap;
//!
//! let mut m: FastMap<(u32, u32), u64> = FastMap::default();
//! *m.entry((1, 2)).or_default() += 3;
//! assert_eq!(m[&(1, 2)], 3);
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FastHasher`]. Build it with
/// `FastMap::default()` or `collect()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed with [`FastHasher`]. Build it with
/// `FastSet::default()` or `collect()`.
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// The multiply-rotate word hasher behind [`FastMap`] and [`FastSet`].
///
/// Not collision-resistant against adversarial keys; meant for keys the
/// program generates itself (node ids, pairs of them, sequence numbers).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

/// An odd constant with well-spread bits (2⁶⁴ / π, rounded to odd).
const K: u64 = 0x517c_c1b7_2722_0a95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    /// Byte strings are folded one byte per word: correct, and no key on
    /// the paths this hasher serves is a byte string.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
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
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(x)
    }

    #[test]
    fn hash_is_fixed_across_builders() {
        assert_eq!(hash_of((3u32, 7u32)), hash_of((3u32, 7u32)));
        assert_ne!(hash_of((3u32, 7u32)), hash_of((7u32, 3u32)));
        // Pinned: the hash depends on nothing but the key.
        assert_eq!(hash_of(1u64), K);
    }

    #[test]
    fn iteration_order_is_the_same_for_equal_insertions() {
        let build = || {
            (0u32..500)
                .map(|i| (i * 7919 % 1000, i))
                .collect::<FastMap<_, _>>()
        };
        let a: Vec<_> = build().into_iter().collect();
        let b: Vec<_> = build().into_iter().collect();
        assert_eq!(a, b);
    }
}

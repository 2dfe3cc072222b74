//! In-tree FxHasher-style multiply-xor hasher for the optimizer's hot
//! maps (no crates.io access, so this is a minimal re-implementation of
//! the well-known `rustc-hash` scheme rather than a dependency).
//!
//! The DP memo, the `G⁺` cache and the context statistics maps are all
//! keyed by trivially small keys — [`crate::NodeSet`] is one `u64`,
//! attribute ids are one `u32` — for which SipHash's per-lookup setup and
//! finalization dominate the probe cost. The multiply-xor mix below
//! hashes such a key in a couple of ALU instructions. It is *not*
//! HashDoS-resistant; the optimizer's own maps are fed by the optimizer
//! itself (relation bitsets, attribute ids), never by untrusted input, so
//! the resistance would buy nothing there. The one map keyed by outside
//! input — the serving layer's statement map — hashes a statement's text
//! once per probe, with this hasher, and bounds what colliding texts can
//! cost by its per-shard capacity instead (`dpnext_serve::ShardedFifo`:
//! a bucket of texts sharing a hash never outgrows its shard).

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Zero-sized deterministic builder: no per-map random state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Odd multiplier (from the golden ratio, as used by rustc's FxHash):
/// spreads single-word keys across the full 64-bit range.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;
/// `finish` rotates the product's well-mixed high bits down to the bits a
/// power-of-two bucket mask reads: the low bits of `word * SEED` depend on
/// the low bits of `word` alone, so node sets that share their low nodes
/// would start their probes in one bucket.
const FINISH_ROTATE: u32 = 26;

/// Multiply-xor hasher: `hash = (rotl5(hash) ^ word) * SEED` per word.
/// One multiply and two cheap ops per 8 bytes of key.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FINISH_ROTATE)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" + "" and "a" + "b" differ.
            self.add_word(u64::from_le_bytes(tail) ^ (rest.len() as u64));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add_word(v as u64);
        self.add_word((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_i8(&mut self, v: i8) {
        self.add_word(v as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, v: i16) {
        self.add_word(v as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.add_word(v as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.add_word(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        let s = NodeSet(0b1011_0110);
        assert_eq!(hash_of(&s), hash_of(&s));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn distinct_single_word_keys_get_distinct_hashes() {
        // Not a collision-resistance claim — just a sanity check that the
        // mix actually depends on the input for the key shapes we use.
        let mut seen = FxHashSet::default();
        for bits in 0u64..4096 {
            assert!(seen.insert(hash_of(&NodeSet(bits))), "collision at {bits}");
        }
    }

    /// Node sets that differ only in their high nodes spread over the
    /// buckets that a power-of-two mask of the low bits picks.
    #[test]
    fn sets_that_share_their_low_nodes_spread_over_the_buckets() {
        let buckets: FxHashSet<u64> = (0u64..1024)
            .map(|k| hash_of(&NodeSet(k << 20)) & 1023)
            .collect();
        assert!(buckets.len() > 512, "{} of 1024 buckets", buckets.len());
    }

    #[test]
    fn byte_stream_boundaries_matter() {
        // `write` does NOT buffer across calls: each call folds its own
        // remainder with its own length. A split that lands exactly on
        // the 8-byte chunk boundary therefore produces the same word
        // sequence as the unsplit stream...
        let mut h1 = FxHasher::default();
        h1.write(b"abcdefgh");
        h1.write(b"i");
        let mut h2 = FxHasher::default();
        h2.write(b"abcdefghi");
        assert_eq!(h1.finish(), h2.finish());
        // ...but a non-aligned split does not — do not rely on
        // split-invariance for incremental hashing of composite keys.
        let mut h4 = FxHasher::default();
        h4.write(b"abcd");
        h4.write(b"efghi");
        assert_ne!(h2.finish(), h4.finish());
        let mut h3 = FxHasher::default();
        h3.write(b"abcdefgihbc");
        assert_ne!(h1.finish(), h3.finish());
    }

    #[test]
    fn works_as_a_map_hasher() {
        let mut map: FxHashMap<NodeSet, usize> = FxHashMap::default();
        for i in 0..64 {
            map.insert(NodeSet::single(i), i);
        }
        assert_eq!(64, map.len());
        for i in 0..64 {
            assert_eq!(Some(&i), map.get(&NodeSet::single(i)));
        }
    }
}

//! Hashing for maps keyed by the simulator's own integer ids.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for keys that are one integer id minted by this program (a
/// job or object id, a timer token) — never for keys that arrive from
/// outside it: SipHash's resistance to crafted collisions is what is
/// given up for the speed.
///
/// A full 64-bit mix, not a bare multiply: the table takes its bucket
/// from the hash's low bits and its control byte from the top seven,
/// while ids differ wherever their minting put the difference — shard-
/// qualified job ids only in their top 16 bits, strided object ids
/// only above the stride. Folding the id's high word down before the
/// multiply, and the product's high bits down after it, lets every
/// bit of the id reach both ends of the hash.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let n = self.0 ^ n;
        let x = (n ^ (n >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }

    /// Keys that are not one `u64` are folded in eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// A `HashMap` keyed by an integer id, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of integer ids, hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(key: impl Hash) -> u64 {
        let mut h = IdHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    /// Distinct values the hashes of `ids` take in their low 16 bits
    /// (where a table of up to 65 536 buckets looks), as a share of
    /// what a uniform random function would occupy with as many keys.
    fn low16_occupancy(ids: impl Iterator<Item = u64>) -> f64 {
        let mut seen = vec![false; 1 << 16];
        let mut keys = 0u32;
        for id in ids {
            seen[(hash_of(id) & 0xFFFF) as usize] = true;
            keys += 1;
        }
        let distinct = seen.iter().filter(|s| **s).count() as f64;
        let uniform = 65_536.0 * (1.0 - (-f64::from(keys) / 65_536.0).exp());
        distinct / uniform
    }

    #[test]
    fn id_families_spread_over_the_low_bits() {
        let sequential = low16_occupancy(0..100_000);
        assert!(sequential >= 0.95, "sequential ids: {sequential:.3}");
        let strided = low16_occupancy((0..100_000).map(|i| i << 16));
        assert!(strided >= 0.95, "ids strided by 2^16: {strided:.3}");
        // `JobId::in_shard(s, n)`: the shard in the top 16 bits, and
        // spill-ins put several shards' ids into one map.
        let sharded = low16_occupancy((0..4).flat_map(|s| (0..25_000).map(move |n| s << 48 | n)));
        assert!(sharded >= 0.95, "four shards' ids: {sharded:.3}");
    }

    #[test]
    fn every_id_bit_reaches_the_control_byte() {
        for family in [0, 16, 32, 48] {
            let mut top7 = [false; 128];
            for i in 0..4_096u64 {
                top7[(hash_of(i << family) >> 57) as usize] = true;
            }
            assert!(top7.iter().all(|t| *t), "ids strided by 2^{family}");
        }
    }

    #[test]
    fn keys_other_than_one_u64_are_mixed_too() {
        assert_ne!(hash_of(7u32), hash_of(8u32));
        assert_ne!(hash_of((1u64, 2u64)), hash_of((2u64, 1u64)));
    }

    #[test]
    fn aliases_build_without_a_hasher_argument() {
        let mut m: IdMap<u64, &str> = IdMap::default();
        m.insert(1 << 48, "spilled");
        m.insert(1, "local");
        assert_eq!(m.get(&(1 << 48)), Some(&"spilled"));
        let s: IdSet<u64> = m.keys().copied().collect();
        assert!(s.contains(&1) && !s.contains(&2));
    }
}

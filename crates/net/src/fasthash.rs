//! A fast, non-cryptographic hasher for the stack's hot lookup tables.
//!
//! Every delivered message funnels through several `HashMap` lookups keyed
//! by structured ids (`(origin, slot)` pairs, [`crate::MwId`]s, session
//! keys — 16–40 bytes each). With the standard library's SipHash those
//! lookups dominate the per-message routing cost; none of the keyed maps
//! face attacker-chosen keys (session ids are validated, the simulation is
//! closed), so a multiply–rotate–xor hash in the `FxHash` family is the
//! right trade. The algorithm is the classic Firefox/rustc one: fold each
//! 8-byte word with `rotate_left(5) ^ word`, then multiply by a seed
//! constant.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FxHasher`] — for hot, trusted-key tables.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply–rotate–xor hasher. Not DoS-resistant; use only where
/// keys are validated protocol identifiers, never raw attacker input.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) | (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
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
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_behave_like_std() {
        let mut m: FastMap<(u64, u32), &str> = FastMap::default();
        m.insert((1, 2), "a");
        m.insert((1, 3), "b");
        assert_eq!(m.get(&(1, 2)), Some(&"a"));
        assert_eq!(m.remove(&(1, 3)), Some("b"));
        assert!(!m.contains_key(&(1, 3)));
    }

    #[test]
    fn distinct_keys_rarely_collide() {
        use std::hash::Hash;
        let mut seen = std::collections::HashSet::new();
        for tag in 0u64..1000 {
            let mut h = FxHasher::default();
            (tag, 7u32).hash(&mut h);
            seen.insert(h.finish());
        }
        assert!(seen.len() > 990, "excessive collisions: {}", seen.len());
    }

    #[test]
    fn unaligned_tails_differ() {
        let mut a = FxHasher::default();
        a.write(b"abc");
        let mut b = FxHasher::default();
        b.write(b"abd");
        assert_ne!(a.finish(), b.finish());
    }
}

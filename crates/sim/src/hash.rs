//! One small non-keyed hasher for the per-event lookup tables whose keys
//! no adversary picks: the engines' timer tables, keyed by `(node, timer
//! key)`, and `wsn-core`'s dedup cache, keyed by FNV dedup keys. std's
//! default SipHash-1-3 spends more on a lookup than those tables need; a
//! 64×64→128-bit multiply folded to 64 bits mixes every input bit into
//! both the low bits (the bucket index) and the top bits (the control
//! byte). Why dropping the per-process key is safe is DESIGN.md §5a
//! item 12.

use std::hash::{BuildHasherDefault, Hasher};

/// An odd 64-bit constant (⌊2^64/φ⌋ rounded to odd).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-fold hasher: each 64-bit word is XORed into the state, which
/// is then replaced by the XOR of the two halves of its 128-bit product
/// with an odd 64-bit constant (⌊2^64/φ⌋ rounded to odd).
#[derive(Clone, Copy, Default)]
pub struct FoldHasher(u64);

/// `BuildHasher` for [`FoldHasher`]; zero-sized, so a table using it is 16
/// bytes smaller than one holding a `RandomState`.
pub type FoldState = BuildHasherDefault<FoldHasher>;

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().unwrap()));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let product = u128::from(self.0 ^ x) * u128::from(MUL);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn spreads_sequential_keys_over_buckets() {
        // 4096 consecutive keys into 512 buckets (the largest table a
        // 256-entry cache grows to): no bucket may be badly overloaded.
        let state = FoldState::default();
        let mut buckets = [0u32; 512];
        for k in 0u64..4096 {
            buckets[(state.hash_one(k) & 511) as usize] += 1;
        }
        assert!(buckets.iter().all(|&n| n <= 24), "{buckets:?}");
    }
}

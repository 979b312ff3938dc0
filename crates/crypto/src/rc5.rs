//! RC5-32/12/16 — Rivest's RC5 with 32-bit words, 12 rounds, 16-byte keys.
//!
//! RC5 was the workhorse cipher of early sensor-network security stacks
//! (TinySec, SPINS/SNEP evaluated it on the Mica motes the paper targets),
//! which makes it the period-accurate default for this reproduction. The
//! implementation follows Rivest's 1994 paper and is validated against the
//! test vectors published there.

use crate::block::BlockCipher;
use crate::Key128;

const W: u32 = 32; // word size in bits
const R: usize = 12; // rounds
const B: usize = 16; // key length in bytes
const C: usize = B / 4; // key words
const T: usize = 2 * (R + 1); // expanded table size

/// Magic constants for w = 32 (from the RC5 paper: Odd((e-2)·2^w) and
/// Odd((φ-1)·2^w)).
const P32: u32 = 0xB7E1_5163;
const Q32: u32 = 0x9E37_79B9;

/// An RC5-32/12/16 instance holding the expanded key table.
#[derive(Clone)]
pub struct Rc5 {
    s: [u32; T],
}

impl Rc5 {
    /// Expands `key` into the round-key table.
    pub fn new(key: &Key128) -> Self {
        // Load the key bytes little-endian into C words.
        let kb = key.as_bytes();
        let mut l = [0u32; C];
        for i in (0..B).rev() {
            l[i / 4] = l[i / 4].rotate_left(8).wrapping_add(kb[i] as u32);
        }

        let mut s = [0u32; T];
        s[0] = P32;
        for i in 1..T {
            s[i] = s[i - 1].wrapping_add(Q32);
        }

        // Mix the secret key into the table: 3·max(T, C) iterations.
        let (mut a, mut b) = (0u32, 0u32);
        let (mut i, mut j) = (0usize, 0usize);
        for _ in 0..3 * T.max(C) {
            s[i] = s[i].wrapping_add(a).wrapping_add(b).rotate_left(3);
            a = s[i];
            l[j] = l[j]
                .wrapping_add(a)
                .wrapping_add(b)
                .rotate_left(a.wrapping_add(b) % W);
            b = l[j];
            i = (i + 1) % T;
            j = (j + 1) % C;
        }

        Rc5 { s }
    }

    #[inline]
    fn encrypt_words(&self, a: u32, b: u32) -> (u32, u32) {
        let ([a], [b]) = encrypt_lanes([&self.s], [a], [b]);
        (a, b)
    }

    #[inline]
    fn decrypt_words(&self, mut a: u32, mut b: u32) -> (u32, u32) {
        for i in (1..=R).rev() {
            b = b.wrapping_sub(self.s[2 * i + 1]).rotate_right(a % W) ^ a;
            a = a.wrapping_sub(self.s[2 * i]).rotate_right(b % W) ^ b;
        }
        b = b.wrapping_sub(self.s[1]);
        a = a.wrapping_sub(self.s[0]);
        (a, b)
    }
}

/// Encrypts `N` independent word pairs at once, lane `k` under the round
/// keys `s[k]`. Every RC5 half-round depends on the one before it, so a
/// single block is one serial chain of data-dependent rotations; running
/// two or four chains in the same loop lets the CPU overlap them.
#[inline(always)]
fn encrypt_lanes<const N: usize>(
    s: [&[u32; T]; N],
    mut a: [u32; N],
    mut b: [u32; N],
) -> ([u32; N], [u32; N]) {
    for k in 0..N {
        a[k] = a[k].wrapping_add(s[k][0]);
        b[k] = b[k].wrapping_add(s[k][1]);
    }
    for i in 1..=R {
        for k in 0..N {
            a[k] = (a[k] ^ b[k])
                .rotate_left(b[k] % W)
                .wrapping_add(s[k][2 * i]);
        }
        for k in 0..N {
            b[k] = (b[k] ^ a[k])
                .rotate_left(a[k] % W)
                .wrapping_add(s[k][2 * i + 1]);
        }
    }
    (a, b)
}

fn load(block: &[u8]) -> (u32, u32) {
    (
        u32::from_le_bytes(block[0..4].try_into().unwrap()),
        u32::from_le_bytes(block[4..8].try_into().unwrap()),
    )
}

fn store(block: &mut [u8], a: u32, b: u32) {
    block[0..4].copy_from_slice(&a.to_le_bytes());
    block[4..8].copy_from_slice(&b.to_le_bytes());
}

/// Encrypts the `N` consecutive blocks of `blocks` under one schedule.
fn encrypt_batch<const N: usize>(s: &[u32; T], blocks: &mut [u8]) {
    let mut a = [0u32; N];
    let mut b = [0u32; N];
    for (k, block) in blocks.chunks_exact(8).enumerate() {
        (a[k], b[k]) = load(block);
    }
    let (a, b) = encrypt_lanes([s; N], a, b);
    for (k, block) in blocks.chunks_exact_mut(8).enumerate() {
        store(block, a[k], b[k]);
    }
}

impl BlockCipher for Rc5 {
    const BLOCK_BYTES: usize = 8;

    fn encrypt_block(&self, block: &mut [u8]) {
        debug_assert_eq!(block.len(), Self::BLOCK_BYTES);
        let (a, b) = load(block);
        let (a, b) = self.encrypt_words(a, b);
        store(block, a, b);
    }

    fn decrypt_block(&self, block: &mut [u8]) {
        debug_assert_eq!(block.len(), Self::BLOCK_BYTES);
        let (a, b) = load(block);
        let (a, b) = self.decrypt_words(a, b);
        store(block, a, b);
    }

    /// Two lanes, `x` under this schedule and `y` under `other`'s.
    fn encrypt_pair(&self, x: &mut [u8], other: &Self, y: &mut [u8]) {
        debug_assert_eq!(x.len(), Self::BLOCK_BYTES);
        debug_assert_eq!(y.len(), Self::BLOCK_BYTES);
        let (xa, xb) = load(x);
        let (ya, yb) = load(y);
        let (a, b) = encrypt_lanes([&self.s, &other.s], [xa, ya], [xb, yb]);
        store(x, a[0], b[0]);
        store(y, a[1], b[1]);
    }

    /// Four lanes at a time; the last one to three blocks as one batch.
    fn encrypt_blocks(&self, blocks: &mut [u8]) {
        debug_assert_eq!(blocks.len() % Self::BLOCK_BYTES, 0);
        let mut quads = blocks.chunks_exact_mut(32);
        for quad in &mut quads {
            encrypt_batch::<4>(&self.s, quad);
        }
        let rest = quads.into_remainder();
        match rest.len() / 8 {
            3 => encrypt_batch::<3>(&self.s, rest),
            2 => encrypt_batch::<2>(&self.s, rest),
            1 => self.encrypt_block(rest),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::check_inverse;

    /// Encrypt a word pair expressed as the paper prints it and return the
    /// resulting word pair.
    fn enc(key: [u8; 16], pt: (u32, u32)) -> (u32, u32) {
        Rc5::new(&Key128::from_bytes(key)).encrypt_words(pt.0, pt.1)
    }

    // Test vectors from Rivest, "The RC5 Encryption Algorithm" (1994), §5.
    #[test]
    fn rivest_vector_1() {
        assert_eq!(enc([0u8; 16], (0, 0)), (0xEEDB_A521, 0x6D8F_4B15));
    }

    #[test]
    fn rivest_vector_2() {
        let key = [
            0x91, 0x5F, 0x46, 0x19, 0xBE, 0x41, 0xB2, 0x51, 0x63, 0x55, 0xA5, 0x01, 0x10, 0xA9,
            0xCE, 0x91,
        ];
        assert_eq!(
            enc(key, (0xEEDB_A521, 0x6D8F_4B15)),
            (0xAC13_C0F7, 0x5289_2B5B)
        );
    }

    #[test]
    fn rivest_vector_3() {
        let key = [
            0x78, 0x33, 0x48, 0xE7, 0x5A, 0xEB, 0x0F, 0x2F, 0xD7, 0xB1, 0x69, 0xBB, 0x8D, 0xC1,
            0x67, 0x87,
        ];
        assert_eq!(
            enc(key, (0xAC13_C0F7, 0x5289_2B5B)),
            (0xB7B3_422F, 0x92FC_6903)
        );
    }

    #[test]
    fn rivest_vector_4() {
        let key = [
            0xDC, 0x49, 0xDB, 0x13, 0x75, 0xA5, 0x58, 0x4F, 0x64, 0x85, 0xB4, 0x13, 0xB5, 0xF1,
            0x2B, 0xAF,
        ];
        assert_eq!(
            enc(key, (0xB7B3_422F, 0x92FC_6903)),
            (0xB278_C165, 0xCC97_D184)
        );
    }

    #[test]
    fn inverse_property() {
        check_inverse(&Rc5::new(&Key128::from_bytes([0x3C; 16])));
    }

    #[test]
    fn byte_interface_matches_word_interface() {
        let key = Key128::from_bytes([1u8; 16]);
        let c = Rc5::new(&key);
        let mut block = [0u8; 8];
        block[0..4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        block[4..8].copy_from_slice(&0x0123_4567u32.to_le_bytes());
        let (wa, wb) = c.encrypt_words(0xDEAD_BEEF, 0x0123_4567);
        c.encrypt_block(&mut block);
        assert_eq!(u32::from_le_bytes(block[0..4].try_into().unwrap()), wa);
        assert_eq!(u32::from_le_bytes(block[4..8].try_into().unwrap()), wb);
    }

    #[test]
    fn different_keys_different_ciphertexts() {
        let c1 = Rc5::new(&Key128::from_bytes([1u8; 16]));
        let c2 = Rc5::new(&Key128::from_bytes([2u8; 16]));
        let mut b1 = [0u8; 8];
        let mut b2 = [0u8; 8];
        c1.encrypt_block(&mut b1);
        c2.encrypt_block(&mut b2);
        assert_ne!(b1, b2);
    }
}

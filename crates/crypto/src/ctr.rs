//! Counter (CTR) mode over any [`BlockCipher`].
//!
//! The paper's Step 1 achieves semantic security "through the use of a
//! counter C that is shared between the source node and the base station":
//! each message is encrypted with a fresh counter value and the counter is
//! maintained at both ends (or transmitted explicitly — both options are
//! supported at the protocol layer). CTR mode is the natural realization:
//! the keystream block for position `i` is `E_K(nonce || ctr+i)`.

use crate::block::{BlockCipher, MAX_BLOCK_BYTES};

/// Maximum number of blocks per message under an 8-byte-block cipher: the
/// low [`NONCE_BLOCK_BITS`] bits of the counter word index blocks within a
/// message, so nonces from [`message_nonce`] never collide across messages.
pub const NONCE_BLOCK_BITS: u32 = 10;

/// Builds a collision-free CTR nonce from a sender identity and that
/// sender's message sequence number.
///
/// Layout: `sender (22 bits) | seq (32 bits) | zeros (10 bits)`. Distinct
/// `(sender, seq)` pairs yield counter-word ranges that cannot overlap for
/// messages up to 2^10 blocks (8 KiB under RC5 — far above any radio
/// frame). This matters because **cluster keys are shared**: every cluster
/// member encrypts under the same key, so nonce uniqueness must hold across
/// senders, not just per sender.
pub fn message_nonce(sender: u32, seq: u64) -> u64 {
    ((sender as u64 & 0x3F_FFFF) << 42) | ((seq & 0xFFFF_FFFF) << NONCE_BLOCK_BITS)
}

/// Keystream bytes produced per [`BlockCipher::encrypt_blocks`] call: 8
/// RC5 blocks or 4 AES blocks. A multiple of every block size in the
/// crate, and small enough to live on the stack.
const BATCH_BYTES: usize = 64;

/// Writes the counter block for block `index` of the message under
/// `nonce` into `block` (one cipher block long); see [`Ctr::apply`].
pub(crate) fn counter_block(nonce: u64, index: u64, block: &mut [u8]) {
    debug_assert!(block.len() == 8 || block.len() == MAX_BLOCK_BYTES);
    if block.len() >= 16 {
        block[..8].copy_from_slice(&nonce.to_be_bytes());
        block[8..16].copy_from_slice(&index.to_be_bytes());
    } else {
        block[..8].copy_from_slice(&nonce.wrapping_add(index).to_be_bytes());
    }
}

/// CTR-mode encryptor/decryptor over cipher `C`.
#[derive(Clone)]
pub struct Ctr<C: BlockCipher> {
    cipher: C,
}

impl<C: BlockCipher> Ctr<C> {
    /// Wraps an already-keyed cipher.
    pub fn new(cipher: C) -> Self {
        Ctr { cipher }
    }

    /// The keyed cipher.
    pub(crate) fn cipher(&self) -> &C {
        &self.cipher
    }

    /// XORs the keystream for (`nonce`, starting counter 0) into `data` in
    /// place. Calling it twice with the same arguments decrypts.
    ///
    /// For 16-byte-block ciphers the counter block is `nonce (8 bytes BE) ||
    /// block-index (8 bytes BE)` — any `u64` nonce is safe. For 8-byte-block
    /// ciphers the counter word is `nonce + block-index`, so the caller must
    /// space nonces by at least the message block count; [`message_nonce`]
    /// produces nonces with 2^10 blocks of reserved space. **Never reuse a
    /// (key, counter-word) pair** — the protocol layer guarantees this via
    /// `message_nonce(sender, seq)` with monotone per-sender sequence
    /// numbers.
    pub fn apply(&self, nonce: u64, data: &mut [u8]) {
        self.apply_from(nonce, 0, data);
    }

    /// [`Ctr::apply`] for the part of a message that starts at block
    /// `first_block`: `data[0]` is XORed with the first byte of that
    /// block's keystream. Counter blocks are encrypted in batches.
    pub(crate) fn apply_from(&self, nonce: u64, first_block: u64, data: &mut [u8]) {
        let bs = C::BLOCK_BYTES;
        debug_assert!(bs <= MAX_BLOCK_BYTES && BATCH_BYTES.is_multiple_of(bs));
        let mut keystream_buf = [0u8; BATCH_BYTES];
        let mut index = first_block;
        for chunk in data.chunks_mut(BATCH_BYTES) {
            let keystream = &mut keystream_buf[..chunk.len().div_ceil(bs) * bs];
            for block in keystream.chunks_exact_mut(bs) {
                counter_block(nonce, index, block);
                index += 1;
            }
            self.cipher.encrypt_blocks(keystream);
            for (d, k) in chunk.iter_mut().zip(keystream.iter()) {
                *d ^= k;
            }
        }
    }

    /// Convenience: encrypts `plaintext` into a fresh vector.
    pub fn encrypt(&self, nonce: u64, plaintext: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        self.apply(nonce, &mut out);
        out
    }

    /// Convenience: decrypts `ciphertext` into a fresh vector.
    pub fn decrypt(&self, nonce: u64, ciphertext: &[u8]) -> Vec<u8> {
        self.encrypt(nonce, ciphertext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;
    use crate::rc5::Rc5;
    use crate::speck::Speck64_128;
    use crate::Key128;

    #[test]
    fn roundtrip_rc5() {
        let ctr = Ctr::new(Rc5::new(&Key128::from_bytes([1; 16])));
        let msg = b"temperature=21.5C humidity=40%";
        let ct = ctr.encrypt(7, msg);
        assert_ne!(&ct[..], &msg[..]);
        assert_eq!(ctr.decrypt(7, &ct), msg);
    }

    #[test]
    fn roundtrip_aes_multiblock() {
        let ctr = Ctr::new(Aes128::new(&Key128::from_bytes([2; 16])));
        let msg: Vec<u8> = (0..100).collect();
        let ct = ctr.encrypt(u64::MAX, &msg);
        assert_eq!(ctr.decrypt(u64::MAX, &ct), msg);
    }

    #[test]
    fn wrong_nonce_garbles() {
        let ctr = Ctr::new(Speck64_128::new(&Key128::from_bytes([3; 16])));
        let ct = ctr.encrypt(1, b"secret!!secret!!");
        assert_ne!(ctr.decrypt(2, &ct), b"secret!!secret!!".to_vec());
    }

    #[test]
    fn distinct_nonces_distinct_keystreams() {
        let ctr = Ctr::new(Rc5::new(&Key128::from_bytes([4; 16])));
        let zeros = vec![0u8; 32];
        let k1 = ctr.encrypt(message_nonce(1, 0), &zeros);
        let k2 = ctr.encrypt(message_nonce(1, 1), &zeros);
        assert_ne!(k1, k2);
    }

    #[test]
    fn message_nonce_ranges_disjoint() {
        // Counter words [nonce, nonce + 2^10) must not overlap across
        // distinct (sender, seq) pairs — including across senders, because
        // cluster keys are shared.
        let span = 1u64 << NONCE_BLOCK_BITS;
        let mut starts: Vec<u64> = Vec::new();
        for sender in [0u32, 1, 2, 255, 256, 0x3F_FFFF] {
            for seq in [0u64, 1, 2, u32::MAX as u64] {
                starts.push(message_nonce(sender, seq));
            }
        }
        starts.sort_unstable();
        for w in starts.windows(2) {
            assert!(w[1] - w[0] >= span, "ranges overlap: {} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn same_cluster_key_different_senders_no_keystream_reuse() {
        // Regression for the hazard message_nonce exists to prevent: two
        // senders that share a key and use the same seq.
        let ctr = Ctr::new(Rc5::new(&Key128::from_bytes([8; 16])));
        let zeros = vec![0u8; 64];
        let a = ctr.encrypt(message_nonce(12, 7), &zeros);
        let b = ctr.encrypt(message_nonce(13, 7), &zeros);
        // No 8-byte keystream block may repeat between the two messages.
        for chunk_a in a.chunks(8) {
            for chunk_b in b.chunks(8) {
                assert_ne!(chunk_a, chunk_b);
            }
        }
    }

    #[test]
    fn semantic_security_same_plaintext() {
        // The paper's motivation for the counter: encrypting the same
        // plaintext twice (with different counters) must give different
        // ciphertexts.
        let ctr = Ctr::new(Rc5::new(&Key128::from_bytes([5; 16])));
        let p = b"EVENT:intrusion";
        assert_ne!(ctr.encrypt(100, p), ctr.encrypt(101, p));
    }

    #[test]
    fn empty_and_single_byte() {
        let ctr = Ctr::new(Rc5::new(&Key128::from_bytes([6; 16])));
        assert_eq!(ctr.encrypt(1, b""), Vec::<u8>::new());
        let ct = ctr.encrypt(1, b"x");
        assert_eq!(ct.len(), 1);
        assert_eq!(ctr.decrypt(1, &ct), b"x");
    }

    #[test]
    fn partial_final_block() {
        let ctr = Ctr::new(Rc5::new(&Key128::from_bytes([7; 16])));
        for len in [1usize, 7, 8, 9, 15, 16, 17, 33] {
            let msg = vec![0x5A; len];
            assert_eq!(ctr.decrypt(9, &ctr.encrypt(9, &msg)), msg, "len {len}");
        }
    }
}

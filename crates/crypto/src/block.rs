//! The block-cipher abstraction shared by all modes in this crate.
//!
//! The protocol layer is cipher-agnostic: CTR encryption and CBC-MAC are
//! generic over [`BlockCipher`], so the RC5/Speck/AES choice is a one-line
//! swap (and an ablation benchmark in `wsn-bench`).

/// Largest block size of any cipher in the crate (AES-128 and
/// Speck128/128 at 16 bytes). Lets the CTR and CBC-MAC modes keep their
/// per-block working state on the stack instead of heap-allocating a
/// scratch vector per call.
pub const MAX_BLOCK_BYTES: usize = 16;

/// A block cipher with a fixed block size, keyed at construction.
///
/// Implementations in this crate: [`crate::rc5::Rc5`] (8-byte blocks),
/// [`crate::speck::Speck64_128`] (8-byte blocks),
/// [`crate::speck::Speck128_128`] (16-byte blocks) and
/// [`crate::aes::Aes128`] (16-byte blocks).
pub trait BlockCipher {
    /// Block size in bytes.
    const BLOCK_BYTES: usize;

    /// Encrypts one block in place. `block.len()` must equal
    /// [`Self::BLOCK_BYTES`].
    fn encrypt_block(&self, block: &mut [u8]);

    /// Decrypts one block in place. `block.len()` must equal
    /// [`Self::BLOCK_BYTES`].
    fn decrypt_block(&self, block: &mut [u8]);

    /// Encrypts `x` under `self` and `y` under `other` (a second,
    /// differently keyed instance) in place. The two blocks are
    /// independent, so a cipher whose rounds form one long dependency
    /// chain can run both chains side by side; the fused MAC‖CTR open in
    /// [`crate::authenc`] pairs each CBC-MAC step with a keystream block.
    fn encrypt_pair(&self, x: &mut [u8], other: &Self, y: &mut [u8]) {
        self.encrypt_block(x);
        other.encrypt_block(y);
    }

    /// Encrypts consecutive independent blocks in place (ECB over
    /// `blocks`, whose length must be a multiple of
    /// [`Self::BLOCK_BYTES`]). CTR keystream generation batches its
    /// counter blocks through this so a cipher can interleave them.
    fn encrypt_blocks(&self, blocks: &mut [u8]) {
        debug_assert_eq!(blocks.len() % Self::BLOCK_BYTES, 0);
        for block in blocks.chunks_exact_mut(Self::BLOCK_BYTES) {
            self.encrypt_block(block);
        }
    }
}

/// Exercises an implementation's encrypt/decrypt inverse property across a
/// spread of patterned blocks. Used by the per-cipher test modules.
#[cfg(test)]
pub(crate) fn check_inverse<C: BlockCipher>(cipher: &C) {
    for pattern in 0u8..=16 {
        let mut block = vec![0u8; C::BLOCK_BYTES];
        for (i, b) in block.iter_mut().enumerate() {
            *b = pattern.wrapping_mul(31).wrapping_add(i as u8);
        }
        let original = block.clone();
        cipher.encrypt_block(&mut block);
        assert_ne!(block, original, "encryption must not be identity");
        cipher.decrypt_block(&mut block);
        assert_eq!(block, original, "decrypt(encrypt(x)) != x");
    }
}

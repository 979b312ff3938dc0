//! Encrypt-then-MAC composition — the paper's Figure 3 / Figure 4 pattern.
//!
//! Step 1 (Figure 3) computes `y1 = E_Kencr(D)`, `t1 = MAC_Kmac(y1)`,
//! `c1 = y1 | t1`; Step 2 (Figure 4) applies the same composition with
//! cluster-derived keys around a larger payload. [`AuthEnc`] captures the
//! shared shape: CTR encryption under one key, a MAC over the *ciphertext*
//! (encrypt-then-MAC, the provably-sound order) under an independent key.
//!
//! The default cipher/MAC pairing is RC5-CTR + CBC-MAC(RC5) with an 8-byte
//! tag; see [`AuthEncAead`] for the generic version.

use crate::cbcmac::{CbcMac, Tag};
use crate::ctr::{counter_block, Ctr};
use crate::rc5::Rc5;
use crate::{BlockCipher, CryptoError, Key128, MAX_BLOCK_BYTES};

/// Keystream bytes [`AuthEncAead::open_in_place_detached`] computes during
/// the MAC pass and holds on the stack until the tag verifies (32 RC5
/// blocks). A longer message takes the same path; keystream for its rest
/// is generated after verification.
pub const KEYSTREAM_BUF_BYTES: usize = 256;

/// Authenticated encryption generic over the block cipher.
#[derive(Clone)]
pub struct AuthEncAead<C: BlockCipher> {
    enc: Ctr<C>,
    mac: CbcMac<C>,
    tag_bytes: usize,
}

impl<C: BlockCipher> AuthEncAead<C> {
    /// Builds from two *independently keyed* cipher instances (encryption
    /// and MAC keys must differ — the paper calls this out explicitly) and a
    /// transmitted tag length.
    pub fn from_ciphers(enc_cipher: C, mac_cipher: C, tag_bytes: usize) -> Self {
        assert!(tag_bytes >= 4, "tags below 4 bytes are trivially forgeable");
        assert!(tag_bytes <= C::BLOCK_BYTES, "tag longer than cipher block");
        AuthEncAead {
            enc: Ctr::new(enc_cipher),
            mac: CbcMac::new(mac_cipher),
            tag_bytes,
        }
    }

    /// Transmitted tag length in bytes.
    pub fn tag_bytes(&self) -> usize {
        self.tag_bytes
    }

    /// Seals `plaintext` under `nonce`: returns `ciphertext | tag`.
    ///
    /// The MAC covers the nonce and the ciphertext, so a receiver that
    /// reconstructs the nonce from its counter detects desynchronization as
    /// a tag failure rather than as garbled plaintext.
    pub fn seal(&self, nonce: u64, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + self.tag_bytes);
        out.extend_from_slice(plaintext);
        let tag = self.seal_in_place_detached(nonce, &mut out);
        out.extend_from_slice(tag.as_bytes());
        out
    }

    /// Opens `sealed` (= `ciphertext | tag`) under `nonce`.
    pub fn open(&self, nonce: u64, sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if sealed.len() < self.tag_bytes {
            return Err(CryptoError::Truncated);
        }
        let split = sealed.len() - self.tag_bytes;
        let (ct, tag) = sealed.split_at(split);
        let mut out = ct.to_vec();
        self.open_in_place_detached(nonce, &mut out, tag)?;
        Ok(out)
    }

    /// Encrypts `data` in place and returns the detached tag (over
    /// `nonce ‖ ciphertext`, truncated to the configured length). The
    /// allocation-free core of [`AuthEncAead::seal`]: callers assembling a
    /// frame encrypt the payload region directly and append the tag.
    pub fn seal_in_place_detached(&self, nonce: u64, data: &mut [u8]) -> Tag {
        self.enc.apply(nonce, data);
        self.tag_and_keystream(nonce, data, &mut [])
    }

    /// Verifies `tag` over `nonce ‖ ct`, then decrypts `ct` in place. On
    /// error the ciphertext is left untouched. The allocation-free core of
    /// [`AuthEncAead::open`].
    ///
    /// One pass: each CBC-MAC step is paired with the keystream block of
    /// the same index ([`BlockCipher::encrypt_pair`]), and the first
    /// [`KEYSTREAM_BUF_BYTES`] of keystream wait on the stack until the
    /// tag has been compared in constant time. Only then is the keystream
    /// XORed in; the part of a longer message past the buffer is
    /// generated after the check.
    pub fn open_in_place_detached(
        &self,
        nonce: u64,
        ct: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        if tag.len() != self.tag_bytes {
            return Err(CryptoError::Truncated);
        }
        let bs = C::BLOCK_BYTES;
        let buffered_blocks = ct.len().div_ceil(bs).min(KEYSTREAM_BUF_BYTES / bs);
        let mut keystream_buf = [0u8; KEYSTREAM_BUF_BYTES];
        let keystream = &mut keystream_buf[..buffered_blocks * bs];
        let expected = self.tag_and_keystream(nonce, ct, keystream);
        if !crate::ct::eq(expected.as_bytes(), tag) {
            return Err(CryptoError::BadTag);
        }
        let (head, tail) = ct.split_at_mut(ct.len().min(keystream.len()));
        for (d, k) in head.iter_mut().zip(keystream.iter()) {
            *d ^= k;
        }
        self.enc.apply_from(nonce, buffered_blocks as u64, tail);
        Ok(())
    }

    /// Length-prepended CBC-MAC over `nonce ‖ ct` (the bytes
    /// [`crate::cbcmac::CbcMac::stream`] would absorb), truncated to the
    /// tag length. Alongside MAC step `i` it fills block `i` of
    /// `keystream` (whose length is a whole number of blocks, at most the
    /// number of MAC steps) with the CTR keystream for `nonce`.
    fn tag_and_keystream(&self, nonce: u64, ct: &[u8], keystream: &mut [u8]) -> Tag {
        let bs = C::BLOCK_BYTES;
        let (mac, enc) = (self.mac.cipher(), self.enc.cipher());
        let mut keystream_blocks = keystream.chunks_exact_mut(bs).enumerate();
        let mut step = |state: &mut [u8]| match keystream_blocks.next() {
            Some((i, block)) => {
                counter_block(nonce, i as u64, block);
                mac.encrypt_pair(state, enc, block);
            }
            None => mac.encrypt_block(state),
        };

        // The message blocks: `nonce ‖ ct[..bs - 8]`, then `ct` in whole
        // blocks; the final one is 10*-padded when it is partial.
        let (ct_first, ct_rest) = ct.split_at(ct.len().min(bs - 8));
        let mut first = [0u8; MAX_BLOCK_BYTES];
        first[..8].copy_from_slice(&nonce.to_be_bytes());
        first[8..8 + ct_first.len()].copy_from_slice(ct_first);
        let blocks = std::iter::once(&first[..8 + ct_first.len()]).chain(ct_rest.chunks(bs));

        // The length block, then one step per message block.
        let mut state = [0u8; MAX_BLOCK_BYTES];
        let total = (8 + ct.len()) as u64;
        state[bs - 8..bs].copy_from_slice(&total.to_be_bytes());
        step(&mut state[..bs]);
        for block in blocks {
            if block.len() == bs {
                // A fixed-length XOR compiles to one word-wide store, so
                // the cipher's word loads from `state` are forwarded from
                // it rather than assembled from byte stores.
                for (s, m) in state[..bs].iter_mut().zip(block) {
                    *s ^= m;
                }
            } else {
                for (s, m) in state.iter_mut().zip(block) {
                    *s ^= m;
                }
                state[block.len()] ^= 0x80;
            }
            step(&mut state[..bs]);
        }
        debug_assert!(keystream_blocks.next().is_none());
        Tag::truncated(state, self.tag_bytes)
    }
}

/// The protocol's default authenticated-encryption configuration:
/// RC5-32/12/16 in CTR mode + length-prepended CBC-MAC(RC5), 8-byte tags.
///
/// Construction expands both RC5 key schedules, so hot paths should build
/// one per key pair and reuse it (`wsn-core` keeps a per-peer cache).
#[derive(Clone)]
pub struct AuthEnc {
    inner: AuthEncAead<Rc5>,
}

/// Default transmitted tag length (one full RC5 block).
pub const DEFAULT_TAG_BYTES: usize = 8;

impl AuthEnc {
    /// Builds from independent encryption and MAC keys.
    pub fn new(k_encr: Key128, k_mac: Key128) -> Self {
        AuthEnc {
            inner: AuthEncAead::from_ciphers(
                Rc5::new(&k_encr),
                Rc5::new(&k_mac),
                DEFAULT_TAG_BYTES,
            ),
        }
    }

    /// See [`AuthEncAead::seal`].
    pub fn seal(&self, nonce: u64, plaintext: &[u8]) -> Vec<u8> {
        self.inner.seal(nonce, plaintext)
    }

    /// See [`AuthEncAead::open`].
    pub fn open(&self, nonce: u64, sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.inner.open(nonce, sealed)
    }

    /// See [`AuthEncAead::seal_in_place_detached`].
    pub fn seal_in_place_detached(&self, nonce: u64, data: &mut [u8]) -> Tag {
        self.inner.seal_in_place_detached(nonce, data)
    }

    /// See [`AuthEncAead::open_in_place_detached`].
    pub fn open_in_place_detached(
        &self,
        nonce: u64,
        ct: &mut [u8],
        tag: &[u8],
    ) -> Result<(), CryptoError> {
        self.inner.open_in_place_detached(nonce, ct, tag)
    }

    /// Overhead added by sealing, in bytes.
    pub fn overhead(&self) -> usize {
        self.inner.tag_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speck::Speck128_128;

    fn ae() -> AuthEnc {
        AuthEnc::new(
            Key128::from_bytes([0xA1; 16]),
            Key128::from_bytes([0xB2; 16]),
        )
    }

    #[test]
    fn seal_open_roundtrip() {
        let ae = ae();
        for len in [0usize, 1, 8, 13, 64] {
            let msg = vec![0xCD; len];
            let sealed = ae.seal(5, &msg);
            assert_eq!(sealed.len(), len + DEFAULT_TAG_BYTES);
            assert_eq!(ae.open(5, &sealed).unwrap(), msg, "len {len}");
        }
    }

    #[test]
    fn wrong_nonce_rejected() {
        let ae = ae();
        let sealed = ae.seal(5, b"data");
        assert_eq!(ae.open(6, &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let ae = ae();
        let mut sealed = ae.seal(5, b"data data data");
        sealed[2] ^= 0x80;
        assert_eq!(ae.open(5, &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn tampered_tag_rejected() {
        let ae = ae();
        let mut sealed = ae.seal(5, b"data");
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert_eq!(ae.open(5, &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn truncated_input_rejected() {
        let ae = ae();
        assert_eq!(ae.open(5, &[0u8; 3]), Err(CryptoError::Truncated));
        assert_eq!(ae.open(5, &[]), Err(CryptoError::Truncated));
    }

    #[test]
    fn wrong_keys_rejected() {
        let ae1 = ae();
        let ae2 = AuthEnc::new(
            Key128::from_bytes([0xA1; 16]),
            Key128::from_bytes([0xB3; 16]),
        );
        let sealed = ae1.seal(1, b"msg");
        assert_eq!(ae2.open(1, &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn generic_over_speck128() {
        let ae = AuthEncAead::from_ciphers(
            Speck128_128::new(&Key128::from_bytes([1; 16])),
            Speck128_128::new(&Key128::from_bytes([2; 16])),
            16,
        );
        let sealed = ae.seal(9, b"sixteen byte tag");
        assert_eq!(ae.open(9, &sealed).unwrap(), b"sixteen byte tag");
    }

    #[test]
    #[should_panic]
    fn tiny_tag_rejected_at_construction() {
        let _ = AuthEncAead::from_ciphers(Rc5::new(&Key128::ZERO), Rc5::new(&Key128::ZERO), 2);
    }

    #[test]
    fn in_place_matches_vec_path() {
        let ae = ae();
        for len in [0usize, 1, 8, 13, 64] {
            let msg = vec![0xCD; len];
            let sealed = ae.seal(5, &msg);

            let mut buf = msg.clone();
            let tag = ae.seal_in_place_detached(5, &mut buf);
            buf.extend_from_slice(tag.as_bytes());
            assert_eq!(buf, sealed, "len {len}");

            let split = sealed.len() - DEFAULT_TAG_BYTES;
            let mut ct = sealed[..split].to_vec();
            ae.open_in_place_detached(5, &mut ct, &sealed[split..])
                .unwrap();
            assert_eq!(ct, msg, "len {len}");
        }
    }

    #[test]
    fn in_place_open_leaves_ciphertext_on_bad_tag() {
        let ae = ae();
        let sealed = ae.seal(7, b"reading");
        let split = sealed.len() - DEFAULT_TAG_BYTES;
        let mut ct = sealed[..split].to_vec();
        let mut bad_tag = sealed[split..].to_vec();
        bad_tag[0] ^= 1;
        assert_eq!(
            ae.open_in_place_detached(7, &mut ct, &bad_tag),
            Err(CryptoError::BadTag)
        );
        assert_eq!(ct, &sealed[..split], "ciphertext must be untouched");
        assert_eq!(
            ae.open_in_place_detached(7, &mut ct, &bad_tag[..4]),
            Err(CryptoError::Truncated)
        );
    }

    #[test]
    fn cloned_instance_matches() {
        let ae1 = ae();
        let ae2 = ae1.clone();
        let sealed = ae1.seal(3, b"cloned");
        assert_eq!(ae2.seal(3, b"cloned"), sealed);
        assert_eq!(ae2.open(3, &sealed).unwrap(), b"cloned");
    }
}

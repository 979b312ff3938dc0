//! The interleaved and fused kernels against plain per-block references,
//! for every block cipher at every message length 0..=300 (across the
//! fused open's keystream buffer, `authenc::KEYSTREAM_BUF_BYTES`).
//!
//! References: CTR is one `encrypt_block` per counter block, the MAC is
//! the streaming CBC-MAC over `nonce ‖ ct`. The kernels under test are
//! `BlockCipher::{encrypt_pair, encrypt_blocks}`, the batched
//! `Ctr::apply` / seal, and the fused MAC‖CTR `open_in_place_detached`.

use wsn_crypto::aes::Aes128;
use wsn_crypto::authenc::{AuthEncAead, KEYSTREAM_BUF_BYTES};
use wsn_crypto::cbcmac::CbcMac;
use wsn_crypto::ctr::Ctr;
use wsn_crypto::rc5::Rc5;
use wsn_crypto::speck::{Speck128_128, Speck64_128};
use wsn_crypto::xtea::Xtea;
use wsn_crypto::{BlockCipher, CryptoError, Key128};

const MAX_LEN: usize = 300;
const _: () = assert!(KEYSTREAM_BUF_BYTES < MAX_LEN);
const NONCE: u64 = 0x0123_4567_89AB_C400;

fn message(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(37) ^ 0x5C)
        .collect()
}

/// Per-block CTR: counter block `nonce ‖ i` (16-byte blocks) or
/// `nonce + i` (8-byte blocks), one `encrypt_block` each.
fn reference_ctr<C: BlockCipher>(cipher: &C, nonce: u64, data: &mut [u8]) {
    let bs = C::BLOCK_BYTES;
    for (i, chunk) in data.chunks_mut(bs).enumerate() {
        let mut block = vec![0u8; bs];
        if bs == 16 {
            block[..8].copy_from_slice(&nonce.to_be_bytes());
            block[8..].copy_from_slice(&(i as u64).to_be_bytes());
        } else {
            block.copy_from_slice(&nonce.wrapping_add(i as u64).to_be_bytes());
        }
        cipher.encrypt_block(&mut block);
        for (d, k) in chunk.iter_mut().zip(&block) {
            *d ^= k;
        }
    }
}

fn reference_tag<C: BlockCipher>(mac: &CbcMac<C>, nonce: u64, ct: &[u8], n: usize) -> Vec<u8> {
    let mut s = mac.stream(8 + ct.len() as u64);
    s.update(&nonce.to_be_bytes());
    s.update(ct);
    s.finalize_truncated(n).as_bytes().to_vec()
}

fn check_cipher<C: BlockCipher + Clone>(new: impl Fn(&Key128) -> C) {
    let bs = C::BLOCK_BYTES;
    let enc = new(&Key128::from_bytes([0xA1; 16]));
    let mac = new(&Key128::from_bytes([0xB2; 16]));
    let ae = AuthEncAead::from_ciphers(enc.clone(), mac.clone(), bs);
    let ctr = Ctr::new(enc.clone());
    let cbc = CbcMac::new(mac.clone());

    // encrypt_pair: each block under its own schedule, as two single calls.
    for seed in 0u8..32 {
        let x0: Vec<u8> = (0..bs as u8).map(|i| i ^ seed).collect();
        let y0: Vec<u8> = (0..bs as u8).map(|i| i.wrapping_mul(3) ^ !seed).collect();
        let (mut x, mut y) = (x0.clone(), y0.clone());
        mac.encrypt_pair(&mut x, &enc, &mut y);
        let (mut rx, mut ry) = (x0, y0);
        mac.encrypt_block(&mut rx);
        enc.encrypt_block(&mut ry);
        assert_eq!((x, y), (rx, ry), "encrypt_pair, seed {seed}");
    }

    for len in 0..=MAX_LEN {
        let pt = message(len);

        // encrypt_blocks over every whole-block prefix.
        let whole = len / bs * bs;
        let mut batch = pt[..whole].to_vec();
        enc.encrypt_blocks(&mut batch);
        let mut single = pt[..whole].to_vec();
        single
            .chunks_exact_mut(bs)
            .for_each(|b| enc.encrypt_block(b));
        assert_eq!(batch, single, "encrypt_blocks, len {len}");

        // Batched CTR and seal against the references.
        let mut ref_ct = pt.clone();
        reference_ctr(&enc, NONCE, &mut ref_ct);
        let ref_tag = reference_tag(&cbc, NONCE, &ref_ct, bs);
        let mut ct = pt.clone();
        ctr.apply(NONCE, &mut ct);
        assert_eq!(ct, ref_ct, "Ctr::apply, len {len}");
        let mut sealed = pt.clone();
        let tag = ae.seal_in_place_detached(NONCE, &mut sealed);
        assert_eq!(sealed, ref_ct, "seal ciphertext, len {len}");
        assert_eq!(tag.as_bytes(), &ref_tag[..], "seal tag, len {len}");

        // Fused open of the reference ciphertext.
        let mut opened = ref_ct.clone();
        ae.open_in_place_detached(NONCE, &mut opened, &ref_tag)
            .unwrap_or_else(|e| panic!("open, len {len}: {e}"));
        assert_eq!(opened, pt, "open plaintext, len {len}");

        // Tampering with the tag, the ciphertext or the nonce fails and
        // leaves the ciphertext as it was.
        let mut bad_tag = ref_tag.clone();
        bad_tag[len % bs] ^= 0x01;
        let mut ct = ref_ct.clone();
        assert_eq!(
            ae.open_in_place_detached(NONCE, &mut ct, &bad_tag),
            Err(CryptoError::BadTag),
            "tampered tag, len {len}"
        );
        assert_eq!(ct, ref_ct, "tampered tag touched ct, len {len}");
        if len > 0 {
            let mut ct = ref_ct.clone();
            ct[len / 2] ^= 0x80;
            let tampered = ct.clone();
            assert_eq!(
                ae.open_in_place_detached(NONCE, &mut ct, &ref_tag),
                Err(CryptoError::BadTag),
                "tampered ct, len {len}"
            );
            assert_eq!(ct, tampered, "tampered ct was modified, len {len}");
        }
        let mut ct = ref_ct.clone();
        assert_eq!(
            ae.open_in_place_detached(NONCE + 1, &mut ct, &ref_tag),
            Err(CryptoError::BadTag),
            "wrong nonce, len {len}"
        );
        assert_eq!(ct, ref_ct, "wrong nonce touched ct, len {len}");
    }
}

#[test]
fn rc5_kernels_match_reference() {
    check_cipher(Rc5::new);
}

#[test]
fn speck64_kernels_match_reference() {
    check_cipher(Speck64_128::new);
}

#[test]
fn speck128_kernels_match_reference() {
    check_cipher(Speck128_128::new);
}

#[test]
fn aes_kernels_match_reference() {
    check_cipher(Aes128::new);
}

#[test]
fn xtea_kernels_match_reference() {
    check_cipher(Xtea::new);
}

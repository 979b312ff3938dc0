//! Length-prepended CBC-MAC over any [`BlockCipher`].
//!
//! Raw CBC-MAC is only secure for fixed-length messages; prepending the
//! message length as the first block restores security for variable-length
//! messages (the classic "prefix-free encoding" fix — see Bellare, Kilian,
//! Rogaway). This is the MAC construction TinySec-class stacks paired with
//! RC5, so it is the period-accurate choice for the protocol's hop-by-hop
//! tags.

use crate::block::{BlockCipher, MAX_BLOCK_BYTES};
use crate::ct;

/// A computed CBC-MAC tag, held inline (no heap allocation). At most one
/// cipher block long.
#[derive(Clone, Copy)]
pub struct Tag {
    bytes: [u8; MAX_BLOCK_BYTES],
    len: usize,
}

impl Tag {
    /// The first `len` bytes of a final CBC-MAC chaining block.
    pub(crate) fn truncated(block: [u8; MAX_BLOCK_BYTES], len: usize) -> Tag {
        Tag { bytes: block, len }
    }

    /// The tag bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// Tag length in bytes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }
}

impl AsRef<[u8]> for Tag {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// A CBC-MAC instance over block cipher `C`.
///
/// The tag is one full cipher block (8 bytes for RC5/Speck64, 16 for
/// AES/Speck128). The protocol layer chooses how many tag bytes to transmit
/// via [`CbcMac::tag_truncated`].
#[derive(Clone)]
pub struct CbcMac<C: BlockCipher> {
    cipher: C,
}

impl<C: BlockCipher> CbcMac<C> {
    /// Wraps an already-keyed cipher.
    pub fn new(cipher: C) -> Self {
        CbcMac { cipher }
    }

    /// The keyed cipher.
    pub(crate) fn cipher(&self) -> &C {
        &self.cipher
    }

    /// Starts a streaming MAC over a message of exactly `total_len` bytes.
    ///
    /// The length must be declared upfront because the length-prepend
    /// encoding makes it the *first* block. Feed the message with
    /// [`CbcMacStream::update`] in any fragmentation; the resulting tag is
    /// byte-identical to [`CbcMac::tag`] over the concatenation. Everything
    /// stays on the stack, so hot paths can MAC `header ‖ ciphertext`
    /// without first gathering the pieces into a scratch vector.
    pub fn stream(&self, total_len: u64) -> CbcMacStream<'_, C> {
        let bs = C::BLOCK_BYTES;
        debug_assert!((8..=MAX_BLOCK_BYTES).contains(&bs));
        let mut state = [0u8; MAX_BLOCK_BYTES];

        // Block 0: the message length, big-endian, right-aligned. This makes
        // the encoding prefix-free across lengths.
        state[bs - 8..bs].copy_from_slice(&total_len.to_be_bytes());
        self.cipher.encrypt_block(&mut state[..bs]);

        CbcMacStream {
            mac: self,
            state,
            buf: [0u8; MAX_BLOCK_BYTES],
            buffered: 0,
            remaining: total_len,
        }
    }

    /// One-shot absorption when the whole message is in hand: full blocks
    /// XOR straight from the input slice into the chaining state, skipping
    /// the stream's staging buffer (one copy per block — measurable on the
    /// hot hop-by-hop tag path). Byte-identical to the streaming encoding:
    /// length-prepend block 0, then message blocks, 10*-padded final
    /// partial.
    fn tag_inline(&self, data: &[u8]) -> Tag {
        let bs = C::BLOCK_BYTES;
        debug_assert!((8..=MAX_BLOCK_BYTES).contains(&bs));
        let mut state = [0u8; MAX_BLOCK_BYTES];

        // Block 0: the message length, big-endian, right-aligned.
        state[bs - 8..bs].copy_from_slice(&(data.len() as u64).to_be_bytes());
        self.cipher.encrypt_block(&mut state[..bs]);

        let mut chunks = data.chunks_exact(bs);
        for block in &mut chunks {
            for (s, d) in state[..bs].iter_mut().zip(block) {
                *s ^= d;
            }
            self.cipher.encrypt_block(&mut state[..bs]);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // 10* padding for the final partial block.
            for (s, d) in state[..bs].iter_mut().zip(rest) {
                *s ^= d;
            }
            state[rest.len()] ^= 0x80;
            self.cipher.encrypt_block(&mut state[..bs]);
        }
        Tag {
            bytes: state,
            len: bs,
        }
    }

    /// Computes the full-block tag of `data`.
    pub fn tag(&self, data: &[u8]) -> Vec<u8> {
        self.tag_inline(data).as_bytes().to_vec()
    }

    /// Computes a tag truncated to `n` bytes (`n <= BLOCK_BYTES`).
    ///
    /// Sensor stacks commonly send 4-byte MACs to save radio energy; the
    /// protocol configuration controls the choice.
    pub fn tag_truncated(&self, data: &[u8], n: usize) -> Vec<u8> {
        assert!(n <= C::BLOCK_BYTES, "tag longer than cipher block");
        let mut t = self.tag_inline(data);
        t.len = n;
        t.as_bytes().to_vec()
    }

    /// Verifies a (possibly truncated) tag in constant time.
    pub fn verify(&self, data: &[u8], tag: &[u8]) -> bool {
        if tag.is_empty() || tag.len() > C::BLOCK_BYTES {
            return false;
        }
        let expected = self.tag_inline(data);
        ct::eq(&expected.as_bytes()[..tag.len()], tag)
    }
}

/// In-progress streaming CBC-MAC; see [`CbcMac::stream`].
pub struct CbcMacStream<'a, C: BlockCipher> {
    mac: &'a CbcMac<C>,
    state: [u8; MAX_BLOCK_BYTES],
    buf: [u8; MAX_BLOCK_BYTES],
    buffered: usize,
    remaining: u64,
}

impl<C: BlockCipher> CbcMacStream<'_, C> {
    fn absorb_block(&mut self) {
        let bs = C::BLOCK_BYTES;
        for (s, d) in self.state[..bs].iter_mut().zip(self.buf[..bs].iter()) {
            *s ^= d;
        }
        self.mac.cipher.encrypt_block(&mut self.state[..bs]);
        self.buffered = 0;
    }

    /// Absorbs the next `data` bytes of the message.
    pub fn update(&mut self, mut data: &[u8]) {
        let bs = C::BLOCK_BYTES;
        self.remaining = self
            .remaining
            .checked_sub(data.len() as u64)
            .expect("more data than the declared length");
        while !data.is_empty() {
            // A full buffer is absorbed only once more data arrives, so at
            // finalize a non-empty buffer is exactly the final block —
            // padded when partial, absorbed as-is when full.
            if self.buffered == bs {
                self.absorb_block();
            }
            let take = (bs - self.buffered).min(data.len());
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
        }
    }

    /// Finishes and returns the full-block tag.
    pub fn finalize(self) -> Tag {
        self.finalize_truncated(C::BLOCK_BYTES)
    }

    /// Finishes and returns the tag truncated to `n` bytes.
    pub fn finalize_truncated(mut self, n: usize) -> Tag {
        assert!(n <= C::BLOCK_BYTES, "tag longer than cipher block");
        assert_eq!(self.remaining, 0, "fewer bytes than the declared length");
        let bs = C::BLOCK_BYTES;
        if self.buffered == bs {
            self.absorb_block();
        } else if self.buffered > 0 {
            // 10* padding for the final partial block.
            let buffered = self.buffered;
            for (s, d) in self.state[..bs].iter_mut().zip(self.buf[..buffered].iter()) {
                *s ^= d;
            }
            self.state[buffered] ^= 0x80;
            self.mac.cipher.encrypt_block(&mut self.state[..bs]);
        }
        Tag {
            bytes: self.state,
            len: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rc5::Rc5;
    use crate::speck::Speck128_128;
    use crate::Key128;

    fn mac_rc5() -> CbcMac<Rc5> {
        CbcMac::new(Rc5::new(&Key128::from_bytes([0x11; 16])))
    }

    #[test]
    fn deterministic() {
        let m = mac_rc5();
        assert_eq!(m.tag(b"hello world"), m.tag(b"hello world"));
    }

    #[test]
    fn different_messages_different_tags() {
        let m = mac_rc5();
        assert_ne!(m.tag(b"hello"), m.tag(b"hellp"));
        assert_ne!(m.tag(b""), m.tag(b"\0"));
    }

    #[test]
    fn length_prepend_blocks_extension_shapes() {
        let m = mac_rc5();
        // Same bytes, different split between "length" interpretations: a
        // message of 8 zero bytes vs an empty message must differ (raw
        // CBC-MAC without length prepend can collide here).
        assert_ne!(m.tag(&[0u8; 8]), m.tag(&[]));
        // Padding ambiguity: "ab" vs "ab\x80" must differ.
        assert_ne!(m.tag(b"ab"), m.tag(b"ab\x80"));
    }

    #[test]
    fn verify_roundtrip() {
        let m = mac_rc5();
        let tag = m.tag(b"sensor reading 42");
        assert!(m.verify(b"sensor reading 42", &tag));
        assert!(!m.verify(b"sensor reading 43", &tag));
        let mut bad = tag.clone();
        bad[3] ^= 0x40;
        assert!(!m.verify(b"sensor reading 42", &bad));
    }

    #[test]
    fn truncated_tags() {
        let m = mac_rc5();
        let full = m.tag(b"data");
        let t4 = m.tag_truncated(b"data", 4);
        assert_eq!(&full[..4], &t4[..]);
        assert!(m.verify(b"data", &t4));
        assert!(!m.verify(b"Data", &t4));
    }

    #[test]
    fn rejects_oversized_or_empty_tags() {
        let m = mac_rc5();
        assert!(!m.verify(b"x", &[]));
        assert!(!m.verify(b"x", &[0u8; 9]));
    }

    #[test]
    fn works_over_16_byte_block_cipher() {
        let m = CbcMac::new(Speck128_128::new(&Key128::from_bytes([0x22; 16])));
        let tag = m.tag(b"block sized payloads work too ..1234");
        assert_eq!(tag.len(), 16);
        assert!(m.verify(b"block sized payloads work too ..1234", &tag));
    }

    #[test]
    fn exact_multiple_of_block() {
        let m = mac_rc5();
        let data = [7u8; 24]; // exactly 3 RC5 blocks
        let tag = m.tag(&data);
        assert!(m.verify(&data, &tag));
        // One byte shorter goes down the padded path; must not collide.
        assert_ne!(m.tag(&data[..23]), tag);
    }

    #[test]
    #[should_panic]
    fn truncation_longer_than_block_panics() {
        let m = mac_rc5();
        let _ = m.tag_truncated(b"x", 9);
    }

    #[test]
    fn stream_matches_oneshot_any_fragmentation() {
        let m = mac_rc5();
        let data: Vec<u8> = (0..53u8).collect();
        for len in [0usize, 1, 7, 8, 9, 16, 23, 24, 53] {
            let oneshot = m.tag(&data[..len]);
            for frag in [1usize, 3, 8, 11, 64] {
                let mut s = m.stream(len as u64);
                for piece in data[..len].chunks(frag) {
                    s.update(piece);
                }
                assert_eq!(
                    s.finalize().as_bytes(),
                    &oneshot[..],
                    "len {len} frag {frag}"
                );
            }
        }
    }

    #[test]
    fn stream_truncation_matches_oneshot() {
        let m = mac_rc5();
        let mut s = m.stream(5);
        s.update(b"hello");
        assert_eq!(
            s.finalize_truncated(4).as_bytes(),
            &m.tag_truncated(b"hello", 4)[..]
        );
    }

    #[test]
    #[should_panic]
    fn stream_underfeed_panics() {
        let m = mac_rc5();
        let mut s = m.stream(10);
        s.update(b"short");
        let _ = s.finalize();
    }

    #[test]
    #[should_panic]
    fn stream_overfeed_panics() {
        let m = mac_rc5();
        let mut s = m.stream(2);
        s.update(b"toolong");
        let _ = s.finalize();
    }
}

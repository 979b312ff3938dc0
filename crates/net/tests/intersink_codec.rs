//! Property tests over the inter-sink wire format: arbitrary,
//! truncated, or mutated datagrams must never panic the decoder or
//! authenticate, and every well-formed message must round-trip
//! exactly through encode/decode and seal/open.

use proptest::prelude::*;
use wsn_crypto::Key128;
use wsn_net::intersink::{intersink_key, open, seal, SinkMsg, TAG_BYTES};

fn key128() -> impl Strategy<Value = Key128> {
    any::<[u8; 16]>().prop_map(Key128::from_bytes)
}

fn msg_strategy() -> impl Strategy<Value = SinkMsg> {
    prop_oneof![
        (any::<u32>(), any::<u64>()).prop_map(|(from, seq)| SinkMsg::Heartbeat { from, seq }),
        (
            any::<u32>(),
            any::<u32>(),
            key128(),
            proptest::option::of(any::<u64>())
        )
            .prop_map(|(from, node, ki, last_ctr)| SinkMsg::Handoff {
                from,
                node,
                ki,
                last_ctr
            }),
        (any::<u32>(), any::<u32>()).prop_map(|(from, node)| SinkMsg::HandoffAck { from, node }),
        (
            any::<u32>(),
            any::<u32>(),
            proptest::collection::vec(any::<u32>(), 0..12),
            proptest::collection::vec(any::<u32>(), 0..12)
        )
            .prop_map(|(from, seq, cids, nodes)| SinkMsg::RevAppend {
                from,
                seq,
                cids,
                nodes
            }),
        (any::<u32>(), any::<u32>()).prop_map(|(from, seq)| SinkMsg::RevAck { from, seq }),
    ]
}

proptest! {
    /// `decode` is total over arbitrary bytes, and when it accepts a
    /// buffer the encoding is canonical: re-encoding reproduces the
    /// input byte-for-byte.
    #[test]
    fn decode_never_panics_and_is_canonical(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Some(msg) = SinkMsg::decode(&bytes) {
            prop_assert_eq!(msg.encode(), bytes);
        }
    }

    /// `open` is total over arbitrary bytes and never authenticates
    /// noise: a forged 16-byte truncated HMAC tag is not something a
    /// random buffer supplies.
    #[test]
    fn open_never_panics_on_arbitrary_bytes(
        km in key128(),
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        prop_assert!(open(&intersink_key(&km), &bytes).is_none());
    }

    /// Every message round-trips exactly: through the bare codec and
    /// through the authenticated seal/open envelope.
    #[test]
    fn roundtrip_is_exact(km in key128(), msg in msg_strategy()) {
        prop_assert_eq!(SinkMsg::decode(&msg.encode()), Some(msg.clone()));
        let key = intersink_key(&km);
        prop_assert_eq!(open(&key, &seal(&key, &msg)), Some(msg));
    }

    /// No strict prefix of a valid body decodes (full-consumption plus
    /// length-prefixed lists leave no self-delimiting prefix), and no
    /// truncated datagram opens.
    #[test]
    fn truncation_is_rejected(km in key128(), msg in msg_strategy()) {
        let body = msg.encode();
        for cut in 0..body.len() {
            prop_assert_eq!(SinkMsg::decode(&body[..cut]), None);
        }
        let key = intersink_key(&km);
        let sealed = seal(&key, &msg);
        for cut in 0..sealed.len() {
            prop_assert!(open(&key, &sealed[..cut]).is_none());
        }
    }

    /// Any single-byte mutation anywhere in a sealed datagram — magic,
    /// body, or tag — fails authentication.
    #[test]
    fn single_byte_mutation_is_rejected(
        km in key128(),
        msg in msg_strategy(),
        pos_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let key = intersink_key(&km);
        let mut sealed = seal(&key, &msg);
        let pos = pos_seed % sealed.len();
        sealed[pos] ^= flip;
        prop_assert!(open(&key, &sealed).is_none());
    }

    /// A datagram sealed under one deployment's key never opens under
    /// another's.
    #[test]
    fn wrong_key_is_rejected(km_a in key128(), km_b in key128(), msg in msg_strategy()) {
        prop_assume!(km_a.as_bytes() != km_b.as_bytes());
        let sealed = seal(&intersink_key(&km_a), &msg);
        prop_assert!(open(&intersink_key(&km_b), &sealed).is_none());
    }

    /// Appending garbage to a sealed datagram breaks it: the tag is
    /// taken from the end, so padding shifts it off the authenticated
    /// bytes.
    #[test]
    fn padding_is_rejected(
        km in key128(),
        msg in msg_strategy(),
        pad in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let key = intersink_key(&km);
        let mut sealed = seal(&key, &msg);
        sealed.extend_from_slice(&pad);
        prop_assert!(open(&key, &sealed).is_none());
    }
}

/// The tag really is truncated HMAC: a sealed frame verifies against
/// the full-width MAC of its head under the derived key.
#[test]
fn sealed_tag_matches_reference_hmac() {
    let km = Key128::from_bytes([7u8; 16]);
    let key = intersink_key(&km);
    let msg = SinkMsg::Heartbeat { from: 1, seq: 42 };
    let sealed = seal(&key, &msg);
    let (head, tag) = sealed.split_at(sealed.len() - TAG_BYTES);
    assert_eq!(&key.mac(head)[..TAG_BYTES], tag);
}

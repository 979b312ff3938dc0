//! Property-based tests over the protocol's codecs and cryptographic
//! message processing.

use bytes::Bytes;
use proptest::prelude::*;
use wsn_core::config::ProtocolConfig;
use wsn_core::forward::{e2e_open, e2e_seal, open_setup, seal_setup, unwrap, wrap, CounterWindow};
use wsn_core::join::{join_tag, verify_join_tag};
use wsn_core::keys::Provisioner;
use wsn_core::msg::{DataUnit, Inner, InnerRef, Message, SHORT_TAG};
use wsn_core::refresh::{cluster_key_at_epoch, hash_step};
use wsn_crypto::Key128;

fn key_strategy() -> impl Strategy<Value = Key128> {
    any::<[u8; 16]>().prop_map(Key128::from_bytes)
}

fn data_unit_strategy() -> impl Strategy<Value = DataUnit> {
    (
        any::<u32>(),
        proptest::option::of(any::<u64>()),
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..128),
    )
        .prop_map(|(src, ctr, sealed, body)| DataUnit {
            src,
            ctr,
            sealed,
            body: Bytes::from(body),
        })
}

fn inner_strategy() -> impl Strategy<Value = Inner> {
    prop_oneof![
        Just(Inner::Beacon),
        (any::<u32>(), key_strategy())
            .prop_map(|(epoch, new_kc)| Inner::RefreshHello { epoch, new_kc }),
        data_unit_strategy().prop_map(Inner::Data),
        any::<u32>().prop_map(|sink| Inner::SinkBeacon { sink }),
        (any::<u32>(), data_unit_strategy())
            .prop_map(|(sink, unit)| Inner::SinkData { sink, unit }),
    ]
}

fn message_strategy() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64)).prop_map(
            |(nonce, sealed)| Message::Hello {
                nonce,
                sealed: Bytes::from(sealed),
            }
        ),
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64)).prop_map(
            |(nonce, sealed)| Message::LinkAdvert {
                nonce,
                sealed: Bytes::from(sealed),
            }
        ),
        (
            any::<u32>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(cid, nonce, sealed)| Message::Wrapped {
                cid,
                nonce,
                sealed: Bytes::from(sealed),
            }),
        (
            key_strategy(),
            any::<u32>(),
            proptest::collection::vec(any::<u32>(), 0..20),
            any::<[u8; SHORT_TAG]>()
        )
            .prop_map(|(link, seq, cids, tag)| Message::Revoke {
                link,
                seq,
                cids,
                tag,
            }),
        (
            any::<u32>(),
            proptest::collection::vec(any::<u32>(), 0..20),
            any::<[u8; SHORT_TAG]>()
        )
            .prop_map(|(seq, cids, tag)| Message::RevokeAnnounce { seq, cids, tag }),
        (any::<u32>(), key_strategy()).prop_map(|(seq, link)| Message::RevokeReveal { seq, link }),
        any::<u32>().prop_map(|new_id| Message::JoinRequest { new_id }),
        (any::<u32>(), any::<u32>(), any::<[u8; SHORT_TAG]>())
            .prop_map(|(cid, epoch, tag)| Message::JoinResponse { cid, epoch, tag }),
    ]
}

/// The borrowed view the sensor receive path parses must accept and
/// reject exactly what `Inner::decode` does, with equal fields and equal
/// dedup keys on what both accept.
fn check_view_agrees(bytes: &[u8]) -> Result<(), TestCaseError> {
    match (InnerRef::decode(bytes), Inner::decode(bytes)) {
        (Ok(view), Ok(inner)) => {
            let units = match (&view, &inner) {
                (InnerRef::Data(v), Inner::Data(u)) => Some((*v, u)),
                (InnerRef::SinkData { sink: a, unit: v }, Inner::SinkData { sink: b, unit: u }) => {
                    prop_assert_eq!(a, b);
                    Some((*v, u))
                }
                (InnerRef::Control(c), i) => {
                    let is_data = matches!(c, Inner::Data(_) | Inner::SinkData { .. });
                    prop_assert!(!is_data, "a data unit decoded as a control payload");
                    prop_assert_eq!(c, i);
                    None
                }
                (v, i) => {
                    return Err(TestCaseError::fail(format!("view {v:?} vs decode {i:?}")));
                }
            };
            if let Some((v, u)) = units {
                prop_assert_eq!(v.src, u.src);
                prop_assert_eq!(v.ctr, u.ctr);
                prop_assert_eq!(v.sealed, u.sealed);
                prop_assert_eq!(v.body, &u.body[..]);
                prop_assert_eq!(v.dedup_key(), u.dedup_key());
                prop_assert_eq!(&v.to_unit(), u);
            }
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        (v, i) => {
            return Err(TestCaseError::fail(format!("view {v:?} vs decode {i:?}")));
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn message_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn inner_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Inner::decode(&bytes);
    }

    #[test]
    fn message_roundtrip(msg in message_strategy()) {
        let enc = msg.encode();
        prop_assert_eq!(Message::decode(&enc).unwrap(), msg);
    }

    #[test]
    fn message_encoding_is_canonical(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        // Whatever parses must re-encode to the identical byte string.
        if let Ok(msg) = Message::decode(&bytes) {
            prop_assert_eq!(msg.encode().to_vec(), bytes);
        }
    }

    #[test]
    fn inner_roundtrip(inner in inner_strategy()) {
        let enc = inner.encode();
        prop_assert_eq!(Inner::decode(&enc).unwrap(), inner);
    }

    #[test]
    fn wrap_unwrap_roundtrip(
        kc in key_strategy(),
        cid in any::<u32>(),
        sender in any::<u32>(),
        seq in any::<u32>(),
        tau in 0u64..1_000_000_000,
        hops in any::<u32>(),
        inner in inner_strategy(),
    ) {
        let cfg = ProtocolConfig::default();
        let Message::Wrapped { cid, nonce, sealed } =
            wrap(&kc, cid, sender, seq as u64, tau, hops, &inner)
        else { unreachable!() };
        // Receive within the freshness window.
        let now = tau + cfg.freshness_window / 2;
        let u = unwrap(&kc, cid, nonce, &sealed, now, &cfg).unwrap();
        prop_assert_eq!(u.inner, inner);
        prop_assert_eq!(u.tau, tau);
        prop_assert_eq!(u.sender_hops, hops);
    }

    #[test]
    fn wrap_rejects_any_bitflip(
        kc in key_strategy(),
        inner in inner_strategy(),
        flip_byte in any::<proptest::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let cfg = ProtocolConfig::default();
        let Message::Wrapped { cid, nonce, sealed } = wrap(&kc, 7, 3, 0, 100, 2, &inner)
        else { unreachable!() };
        let mut bad = sealed.to_vec();
        let idx = flip_byte.index(bad.len());
        bad[idx] ^= 1 << flip_bit;
        prop_assert!(unwrap(&kc, cid, nonce, &bad, 100, &cfg).is_err());
    }

    #[test]
    fn setup_seal_roundtrip(
        km in key_strategy(),
        kc in key_strategy(),
        sender in any::<u32>(),
        seq in any::<u32>(),
        id in any::<u32>(),
    ) {
        let (nonce, sealed) = seal_setup(&km, sender, seq as u64, id, &kc);
        let (got_id, got_kc) = open_setup(&km, nonce, &sealed).unwrap();
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got_kc, kc);
    }

    #[test]
    fn e2e_roundtrip_and_binding(
        ki in key_strategy(),
        src in any::<u32>(),
        ctr in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let c1 = e2e_seal(&ki, src, ctr as u64, &data);
        prop_assert_eq!(e2e_open(&ki, src, ctr as u64, &c1).unwrap(), data);
        // Counter and source binding.
        prop_assert!(e2e_open(&ki, src, ctr as u64 + 1, &c1).is_err());
        prop_assert!(e2e_open(&ki, src.wrapping_add(1), ctr as u64, &c1).is_err());
    }

    #[test]
    fn counter_window_monotone(accepts in proptest::collection::vec(any::<u32>(), 1..30)) {
        let mut w = CounterWindow::new();
        let mut highest: Option<u64> = None;
        for a in accepts {
            let a = a as u64;
            let result = w.accept(a);
            match highest {
                Some(h) if a <= h => prop_assert!(result.is_err()),
                _ => {
                    prop_assert!(result.is_ok());
                    highest = Some(a);
                }
            }
        }
        // Candidates always start just past the highest accepted.
        let first = w.candidates(4).next().unwrap();
        prop_assert_eq!(first, highest.map_or(0, |h| h + 1));
    }

    #[test]
    fn provisioning_deterministic_and_distinct(
        seed in any::<u64>(),
        a in any::<u32>(),
        b in any::<u32>(),
    ) {
        prop_assume!(a != b);
        let mut p1 = Provisioner::new(seed);
        let mut p2 = Provisioner::new(seed);
        prop_assert_eq!(p1.provision(a).ki, p2.provision(a).ki);
        prop_assert_ne!(p1.provision(a).ki, p1.provision(b).ki);
        prop_assert_ne!(p1.cluster_key_of(a), p1.cluster_key_of(b));
    }

    #[test]
    fn refresh_epochs_compose(kmc in key_strategy(), cid in any::<u32>(), e in 0u32..12) {
        prop_assert_eq!(
            cluster_key_at_epoch(&kmc, cid, e + 1),
            hash_step(&cluster_key_at_epoch(&kmc, cid, e))
        );
    }

    #[test]
    fn join_tag_forgery_resistance(
        kc in key_strategy(),
        other in key_strategy(),
        cid in any::<u32>(),
        new_id in any::<u32>(),
        epoch in any::<u32>(),
    ) {
        prop_assume!(kc != other);
        let tag = join_tag(&kc, cid, new_id, epoch);
        prop_assert!(verify_join_tag(&kc, cid, new_id, epoch, &tag));
        prop_assert!(!verify_join_tag(&other, cid, new_id, epoch, &tag));
    }
}

// ---------------------------------------------------------------------
// Transport-boundary hardening: the codec must stay total on arbitrary
// bytes *and* on damaged versions of its own output (a socket backend
// feeds it raw datagrams), `peek_wrapped` must agree exactly with
// `decode`, and every frame the protocol emits must fit under the
// shared MAX_FRAME_BYTES ceiling so no transport can ever reject it.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn peek_wrapped_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::peek_wrapped(&bytes);
    }

    #[test]
    fn peek_wrapped_agrees_with_decode(msg in message_strategy()) {
        // peek is the zero-copy fast path used by the socket readers and
        // the BS dispatch: it must fire exactly on Wrapped frames, with
        // the same fields decode extracts.
        let enc = msg.encode();
        match (Message::peek_wrapped(&enc), Message::decode(&enc).unwrap()) {
            (Some((pc, pn, ps)), Message::Wrapped { cid, nonce, sealed }) => {
                prop_assert_eq!(pc, cid);
                prop_assert_eq!(pn, nonce);
                prop_assert_eq!(ps, &sealed[..]);
            }
            (None, Message::Wrapped { .. }) => {
                return Err(TestCaseError::fail("peek missed a Wrapped frame"));
            }
            (Some(_), other) => {
                return Err(TestCaseError::fail(format!(
                    "peek fired on non-Wrapped {other:?}"
                )));
            }
            (None, _) => {}
        }
    }

    #[test]
    fn truncated_encodings_never_panic(msg in message_strategy(), cut in any::<proptest::sample::Index>()) {
        // Datagrams arrive truncated in the real world; every prefix of a
        // valid encoding must decode or fail cleanly, never panic.
        let enc = msg.encode();
        let keep = cut.index(enc.len() + 1);
        let _ = Message::decode(&enc[..keep]);
        let _ = Message::peek_wrapped(&enc[..keep]);
        let _ = Inner::decode(&enc[..keep]);
    }

    #[test]
    fn mutated_encodings_never_panic(
        msg in message_strategy(),
        at in any::<proptest::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut enc = msg.encode().to_vec();
        let i = at.index(enc.len());
        enc[i] ^= xor;
        let _ = Message::decode(&enc);
        let _ = Message::peek_wrapped(&enc);
        let _ = Inner::decode(&enc);
    }

    #[test]
    fn data_view_agrees_with_inner_decode(
        // The two data tags (`Inner::Data`, `Inner::SinkData`) most of the
        // time, any tag otherwise.
        tag in prop_oneof![Just(0x11u8), Just(0x1A), any::<u8>()],
        ids in any::<[u8; 8]>(),
        // A valid flags byte half of the time.
        flags in prop_oneof![0u8..4, any::<u8>()],
        rest in proptest::collection::vec(any::<u8>(), 0..40),
        cut in any::<proptest::sample::Index>(),
    ) {
        // Shaped like a data unit (the sink id for `SinkData`, the source
        // id, flags, then arbitrary bytes), cut anywhere: mostly
        // malformed, often well-formed.
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&ids[..if tag == 0x1A { 8 } else { 4 }]);
        bytes.push(flags);
        bytes.extend_from_slice(&rest);
        bytes.truncate(cut.index(bytes.len() + 1));
        check_view_agrees(&bytes)?;
    }

    #[test]
    fn data_view_agrees_on_cut_encodings(
        inner in inner_strategy(),
        cut in any::<proptest::sample::Index>(),
    ) {
        let enc = inner.encode();
        check_view_agrees(&enc[..cut.index(enc.len() + 1)])?;
        check_view_agrees(&enc)?;
    }

    #[test]
    fn truncated_inner_encodings_never_panic(inner in inner_strategy(), cut in any::<proptest::sample::Index>()) {
        let enc = inner.encode();
        let keep = cut.index(enc.len() + 1);
        let _ = Inner::decode(&enc[..keep]);
    }

    #[test]
    fn protocol_frames_fit_max_frame_bytes(
        kc in key_strategy(),
        cid in any::<u32>(),
        sender in any::<u32>(),
        seq in any::<u64>(),
        inner in inner_strategy(),
    ) {
        use wsn_core::forward::wrap_frame;
        use wsn_core::msg::MAX_FRAME_BYTES;
        // data_unit_strategy bodies go to 128 bytes — larger than any
        // reading the drivers or figures emit — and control inners are
        // far smaller still: all must fit the shared transport ceiling.
        let ae = wsn_core::forward::sealer(&kc);
        let frame = wrap_frame(&ae, cid, sender, seq, 1_000, 1, &inner);
        prop_assert!(
            frame.len() <= MAX_FRAME_BYTES,
            "wrapped frame {} bytes exceeds MAX_FRAME_BYTES {}",
            frame.len(),
            MAX_FRAME_BYTES
        );
    }
}

//! Cryptographic message processing: the setup-phase sealing (§IV-B) and
//! the two-step secure forwarding of §IV-C (Figures 3 and 4).
//!
//! * **Setup sealing** — HELLO and LINK messages carry `(id, key)` pairs
//!   sealed under keys derived from the master key `Km`.
//! * **Step 1** (optional, end-to-end) — `y1 = E_Kencr(D)`,
//!   `t1 = MAC_Kmac(y1)`, `c1 = y1|t1` with `Kencr = F(Ki, 0)`,
//!   `Kmac = F(Ki, 1)` and a shared counter for semantic security.
//! * **Step 2** (required, hop-by-hop) — `y2 = E_K'encr(c1, τ, CID)`,
//!   `t2 = MAC_K'mac(y2)`, `c2 = CID|y2|t2` with keys derived the same way
//!   from the sender's *cluster* key. One transmission reaches every
//!   neighbor; border nodes pick the right key from their set `S` using
//!   the cleartext CID.
//!
//! # Contract with the recovery layer
//!
//! The acknowledged transport ([`crate::recovery`]) retransmits the
//! *exact bytes* [`wrap_frame`] produced — same `τ`, same sequence, same
//! embedded hop count — so a retransmission is indistinguishable from a
//! radio-level duplicate and is absorbed by the same dedup caches. Two
//! invariants make that safe:
//!
//! * [`crate::msg::DataUnit::dedup_key`] hashes only `src | body`, so the
//!   key survives every hop-by-hop re-wrap and identifies the logical
//!   reading on both original and retried paths.
//! * Retries fit inside the freshness window: the deepest backoff
//!   (`retx_base · 2^max_retries`) must stay well below
//!   [`crate::config::ProtocolConfig::freshness_window`], or a node's own
//!   retransmissions would be dropped as stale replays.

use crate::config::ProtocolConfig;
use crate::error::ProtocolError;
use crate::hash::FoldState;
use crate::msg::{ClusterId, Inner, Message, WRAPPED_HEADER_BYTES};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashMap;
use wsn_crypto::authenc::AuthEnc;
use wsn_crypto::ctr::message_nonce;
use wsn_crypto::prf::PrfKey;
use wsn_crypto::{Key128, KEY_BYTES};
use wsn_sim::event::SimTime;

/// Derives the encrypt/MAC key pair from a base key, per the paper's
/// `Kencr = F(K, 0)`, `Kmac = F(K, 1)`.
pub fn derive_pair(base: &Key128) -> (Key128, Key128) {
    let prf = PrfKey::new(base);
    (prf.derive(&[0]), prf.derive(&[1]))
}

/// Builds the authenticated-encryption context for a base key.
///
/// Expensive: two PRF evaluations plus two RC5 key expansions. Steady-state
/// paths go through a [`SealerCache`] so each base key pays this once.
pub fn sealer(base: &Key128) -> AuthEnc {
    let (ke, km) = derive_pair(base);
    AuthEnc::new(ke, km)
}

/// Upper bound on cached sealers; reached only under key churn far beyond
/// any simulated deployment (a node holds its own keys plus set `S`).
const SEALER_CACHE_MAX: usize = 4096;

/// Per-node cache of [`sealer`] results, keyed by base key.
///
/// Every seal/open rebuilds `AuthEnc` from the base key — two HMAC-SHA256
/// evaluations and two RC5 key expansions — yet a node only ever uses a
/// handful of long-lived keys (`Ki`, its cluster keys, `Km` during setup).
/// Holding the built sealers here makes steady-state traffic re-expansion
/// free; refreshed keys simply miss and insert (stale entries are evicted
/// wholesale if the map ever grows past a bound no real run approaches).
/// Its keys are secret random keys, so the map hashes them with the
/// crate's non-keyed `FoldState` rather than SipHash.
#[derive(Clone, Default)]
pub struct SealerCache {
    map: HashMap<Key128, AuthEnc, FoldState>,
}

impl SealerCache {
    /// An empty cache.
    pub fn new() -> Self {
        SealerCache::default()
    }

    /// The sealer for `base`, building and caching it on first use.
    pub fn get(&mut self, base: &Key128) -> &AuthEnc {
        if self.map.len() >= SEALER_CACHE_MAX && !self.map.contains_key(base) {
            self.map.clear();
        }
        self.map.entry(*base).or_insert_with(|| sealer(base))
    }

    /// Drops the sealer built for `base`. A cached sealer holds the keys
    /// derived from its base key, so erasing a key must forget its sealer
    /// too: otherwise the derived pair keeps opening and forging what the
    /// erased key protected.
    pub fn forget(&mut self, base: &Key128) {
        self.map.remove(base);
    }

    /// Number of cached sealers.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// The cached sealers, in no particular order.
    #[cfg(test)]
    pub(crate) fn sealers(&self) -> impl Iterator<Item = &AuthEnc> {
        self.map.values()
    }
}

impl std::fmt::Debug for SealerCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SealerCache({} entries)", self.map.len())
    }
}

// ---------------------------------------------------------------------
// Setup phase: HELLO / LINK payloads under Km.
// ---------------------------------------------------------------------

/// Seals a setup payload `(id, key)` under `Km`-derived keys.
/// Used for both HELLO (`id` = head's node ID) and LINK (`id` = CID).
pub fn seal_setup(km: &Key128, sender: u32, seq: u64, id: u32, key: &Key128) -> (u64, Bytes) {
    seal_setup_with(&sealer(km), sender, seq, id, key)
}

/// [`seal_setup`] with a prebuilt (typically cached) `Km` sealer.
pub fn seal_setup_with(ae: &AuthEnc, sender: u32, seq: u64, id: u32, key: &Key128) -> (u64, Bytes) {
    let mut pt = BytesMut::with_capacity(4 + KEY_BYTES + ae.overhead());
    pt.put_u32(id);
    pt.put_slice(key.as_bytes());
    let nonce = message_nonce(sender, seq);
    let tag = ae.seal_in_place_detached(nonce, &mut pt);
    pt.put_slice(tag.as_bytes());
    (nonce, pt.freeze())
}

/// Opens a setup payload. Returns `(id, key)`.
pub fn open_setup(km: &Key128, nonce: u64, sealed: &[u8]) -> Result<(u32, Key128), ProtocolError> {
    open_setup_with(&sealer(km), nonce, sealed)
}

/// [`open_setup`] with a prebuilt (typically cached) `Km` sealer.
pub fn open_setup_with(
    ae: &AuthEnc,
    nonce: u64,
    sealed: &[u8],
) -> Result<(u32, Key128), ProtocolError> {
    let pt = ae.open(nonce, sealed)?;
    if pt.len() != 4 + KEY_BYTES {
        return Err(ProtocolError::Malformed);
    }
    let mut buf = &pt[..];
    let id = buf.get_u32();
    Ok((id, Key128::from_slice(buf)))
}

// ---------------------------------------------------------------------
// Step 1: end-to-end protection under Ki.
// ---------------------------------------------------------------------

/// Applies Step 1 at the source: seals `data` under `Ki`-derived keys with
/// the shared counter `ctr`. Returns `c1 = y1 | t1`.
pub fn e2e_seal(ki: &Key128, src: u32, ctr: u64, data: &[u8]) -> Bytes {
    e2e_seal_with(&sealer(ki), src, ctr, data)
}

/// [`e2e_seal`] with a prebuilt (typically cached) `Ki` sealer.
pub fn e2e_seal_with(ae: &AuthEnc, src: u32, ctr: u64, data: &[u8]) -> Bytes {
    Bytes::from(ae.seal(message_nonce(src, ctr), data))
}

/// Reverses Step 1 at the base station.
pub fn e2e_open(ki: &Key128, src: u32, ctr: u64, c1: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    e2e_open_with(&sealer(ki), src, ctr, c1)
}

/// [`e2e_open`] with a prebuilt (typically cached) `Ki` sealer. The base
/// station's implicit-counter mode calls this once per candidate counter,
/// so hoisting the sealer build out of that loop matters most here.
pub fn e2e_open_with(
    ae: &AuthEnc,
    src: u32,
    ctr: u64,
    c1: &[u8],
) -> Result<Vec<u8>, ProtocolError> {
    Ok(ae.open(message_nonce(src, ctr), c1)?)
}

// ---------------------------------------------------------------------
// Step 2: hop-by-hop cluster-key wrapping.
// ---------------------------------------------------------------------

/// What a successful Step-2 unwrap yields.
#[derive(Clone, Debug, PartialEq)]
pub struct Unwrapped {
    /// The inner payload.
    pub inner: Inner,
    /// The sender's freshness timestamp τ.
    pub tau: SimTime,
    /// The sender's hop distance to the base station (`u32::MAX` = sender
    /// had no gradient yet). Drives greedy forwarding: a receiver forwards
    /// only if it is strictly closer to the base station.
    pub sender_hops: u32,
}

/// Applies Step 2: wraps `inner` under the sender's cluster key.
///
/// The encrypted plaintext is `τ (8) | CID (4) | hops (4) | inner`,
/// echoing the cleartext CID inside the authenticated envelope exactly as
/// Figure 4 prescribes (`y2 = E(c1, τ, CID)`), so a forwarder cannot be
/// tricked into decrypting under a different cluster's key than the sender
/// used. `hops` is the sender's distance to the base station; carrying it
/// authenticated lets receivers make the greedy forwarding decision
/// without exchanging routing state (no spoofed-routing attack surface —
/// paper §VI bullet 1).
pub fn wrap(
    cluster_key: &Key128,
    cid: ClusterId,
    sender: u32,
    seq: u64,
    now: SimTime,
    sender_hops: u32,
    inner: &Inner,
) -> Message {
    wrap_with(
        &sealer(cluster_key),
        cid,
        sender,
        seq,
        now,
        sender_hops,
        inner,
    )
}

/// [`wrap`] with a prebuilt (typically cached) cluster-key sealer.
pub fn wrap_with(
    ae: &AuthEnc,
    cid: ClusterId,
    sender: u32,
    seq: u64,
    now: SimTime,
    sender_hops: u32,
    inner: &Inner,
) -> Message {
    let nonce = message_nonce(sender, seq);
    let mut pt = BytesMut::with_capacity(16 + 32 + ae.overhead());
    pt.put_u64(now);
    pt.put_u32(cid);
    pt.put_u32(sender_hops);
    inner.encode_into(&mut pt);
    let tag = ae.seal_in_place_detached(nonce, &mut pt);
    pt.put_slice(tag.as_bytes());
    Message::Wrapped {
        cid,
        nonce,
        sealed: pt.freeze(),
    }
}

/// Builds the complete Step-2 radio frame — `type | cid | nonce | y2 | t2`
/// — in a single allocation: the header and plaintext are written into one
/// buffer, the payload region is encrypted in place, and the tag appended.
/// Byte-identical to `wrap(..).encode()`, which allocates five times along
/// the way; the steady-state send path uses this.
pub fn wrap_frame(
    ae: &AuthEnc,
    cid: ClusterId,
    sender: u32,
    seq: u64,
    now: SimTime,
    sender_hops: u32,
    inner: &Inner,
) -> Bytes {
    let nonce = message_nonce(sender, seq);
    let mut buf = BytesMut::with_capacity(WRAPPED_HEADER_BYTES + 16 + 32 + ae.overhead());
    Message::put_wrapped_header(&mut buf, cid, nonce);
    buf.put_u64(now);
    buf.put_u32(cid);
    buf.put_u32(sender_hops);
    inner.encode_into(&mut buf);
    let tag = ae.seal_in_place_detached(nonce, &mut buf[WRAPPED_HEADER_BYTES..]);
    buf.put_slice(tag.as_bytes());
    buf.freeze()
}

/// Reverses Step 2 at a receiver that knows the sender's cluster key.
///
/// Checks, in order: authenticity (tag), CID echo, freshness
/// (`now − τ ≤ freshness_window`).
pub fn unwrap(
    cluster_key: &Key128,
    cid: ClusterId,
    nonce: u64,
    sealed: &[u8],
    now: SimTime,
    cfg: &ProtocolConfig,
) -> Result<Unwrapped, ProtocolError> {
    unwrap_with(&sealer(cluster_key), cid, nonce, sealed, now, cfg)
}

/// [`unwrap`] with a prebuilt (typically cached) cluster-key sealer.
pub fn unwrap_with(
    ae: &AuthEnc,
    cid: ClusterId,
    nonce: u64,
    sealed: &[u8],
    now: SimTime,
    cfg: &ProtocolConfig,
) -> Result<Unwrapped, ProtocolError> {
    let pt = ae.open(nonce, sealed)?;
    parse_unwrapped(&pt, cid, now, cfg)
}

/// [`unwrap_with`] decrypting into a caller-owned scratch buffer instead
/// of a fresh allocation. Every receiver in range runs this per overheard
/// frame, so the steady-state receive path reuses one buffer per node.
pub fn unwrap_in(
    ae: &AuthEnc,
    cid: ClusterId,
    nonce: u64,
    sealed: &[u8],
    now: SimTime,
    cfg: &ProtocolConfig,
    scratch: &mut Vec<u8>,
) -> Result<Unwrapped, ProtocolError> {
    let split = sealed
        .len()
        .checked_sub(ae.overhead())
        .ok_or(ProtocolError::Crypto(wsn_crypto::CryptoError::Truncated))?;
    scratch.clear();
    scratch.extend_from_slice(&sealed[..split]);
    ae.open_in_place_detached(nonce, scratch, &sealed[split..])?;
    parse_unwrapped(scratch, cid, now, cfg)
}

fn parse_unwrapped(
    pt: &[u8],
    cid: ClusterId,
    now: SimTime,
    cfg: &ProtocolConfig,
) -> Result<Unwrapped, ProtocolError> {
    if pt.len() < 16 {
        return Err(ProtocolError::Malformed);
    }
    let mut buf = pt;
    let tau = buf.get_u64();
    let echoed_cid = buf.get_u32();
    if echoed_cid != cid {
        return Err(ProtocolError::Malformed);
    }
    let sender_hops = buf.get_u32();
    let age = now.saturating_sub(tau);
    if age > cfg.freshness_window {
        return Err(ProtocolError::Stale);
    }
    let inner = Inner::decode(buf)?;
    Ok(Unwrapped {
        inner,
        tau,
        sender_hops,
    })
}

/// Base-station-side sliding counter state for one source (implicit
/// counter mode): remembers the last accepted counter and tries the next
/// `window` values on receive ("the receiver can try a small window of
/// counter values to recover the message").
#[derive(Clone, Debug, Default)]
pub struct CounterWindow {
    last_accepted: Option<u64>,
}

impl CounterWindow {
    /// Fresh state (no message accepted yet).
    pub fn new() -> Self {
        CounterWindow::default()
    }

    /// The candidate counters to try for the next message, in order.
    pub fn candidates(&self, window: u64) -> impl Iterator<Item = u64> {
        let start = self.last_accepted.map_or(0, |c| c + 1);
        start..start + window
    }

    /// Records that `ctr` verified, advancing the window. Rejects
    /// non-monotone values (replays).
    pub fn accept(&mut self, ctr: u64) -> Result<(), ProtocolError> {
        if let Some(last) = self.last_accepted {
            if ctr <= last {
                return Err(ProtocolError::Replay);
            }
        }
        self.last_accepted = Some(ctr);
        Ok(())
    }

    /// Last accepted counter.
    pub fn last(&self) -> Option<u64> {
        self.last_accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use wsn_crypto::CryptoError;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::default()
    }

    #[test]
    fn sealer_cache_forget_drops_only_that_key() {
        let a = Key128::from_bytes([1; 16]);
        let b = Key128::from_bytes([2; 16]);
        let mut cache = SealerCache::new();
        cache.get(&a);
        cache.get(&b);
        cache.forget(&a);
        assert_eq!(cache.len(), 1);
        cache.forget(&a); // idempotent
        assert_eq!(cache.len(), 1);
        cache.forget(&b);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn derive_pair_independent() {
        let base = Key128::from_bytes([1; 16]);
        let (ke, km) = derive_pair(&base);
        assert_ne!(ke, km);
        assert_ne!(ke, base);
    }

    #[test]
    fn setup_roundtrip() {
        let km = Key128::from_bytes([2; 16]);
        let kc = Key128::from_bytes([3; 16]);
        let (nonce, sealed) = seal_setup(&km, 5, 0, 5, &kc);
        let (id, key) = open_setup(&km, nonce, &sealed).unwrap();
        assert_eq!(id, 5);
        assert_eq!(key, kc);
    }

    #[test]
    fn setup_rejects_wrong_master_key() {
        let km = Key128::from_bytes([2; 16]);
        let other = Key128::from_bytes([4; 16]);
        let (nonce, sealed) = seal_setup(&km, 5, 0, 5, &Key128::ZERO);
        assert_eq!(
            open_setup(&other, nonce, &sealed),
            Err(ProtocolError::Crypto(CryptoError::BadTag))
        );
    }

    #[test]
    fn setup_rejects_tamper() {
        let km = Key128::from_bytes([2; 16]);
        let (nonce, sealed) = seal_setup(&km, 1, 0, 1, &Key128::ZERO);
        let mut bad = sealed.to_vec();
        bad[0] ^= 1;
        assert!(open_setup(&km, nonce, &bad).is_err());
    }

    #[test]
    fn e2e_roundtrip_and_counter_binding() {
        let ki = Key128::from_bytes([7; 16]);
        let c1 = e2e_seal(&ki, 14, 3, b"21.5C");
        assert_eq!(e2e_open(&ki, 14, 3, &c1).unwrap(), b"21.5C");
        // Wrong counter — desync shows as auth failure, not garbage.
        assert!(e2e_open(&ki, 14, 4, &c1).is_err());
        // Wrong source id.
        assert!(e2e_open(&ki, 15, 3, &c1).is_err());
    }

    #[test]
    fn wrap_unwrap_roundtrip() {
        let kc = Key128::from_bytes([9; 16]);
        let inner = Inner::Beacon;
        let msg = wrap(&kc, 13, 17, 0, 1_000, 2, &inner);
        let Message::Wrapped { cid, nonce, sealed } = msg else {
            panic!("expected wrapped");
        };
        assert_eq!(cid, 13);
        let u = unwrap(&kc, cid, nonce, &sealed, 2_000, &cfg()).unwrap();
        assert_eq!(u.inner, inner);
        assert_eq!(u.tau, 1_000);
        assert_eq!(u.sender_hops, 2);
    }

    #[test]
    fn unwrap_rejects_wrong_cluster_key() {
        let kc = Key128::from_bytes([9; 16]);
        let other = Key128::from_bytes([10; 16]);
        let Message::Wrapped { cid, nonce, sealed } = wrap(&kc, 13, 17, 0, 0, 1, &Inner::Beacon)
        else {
            unreachable!()
        };
        assert!(unwrap(&other, cid, nonce, &sealed, 0, &cfg()).is_err());
    }

    #[test]
    fn unwrap_rejects_cid_substitution() {
        // Adversary rewrites the cleartext CID to trick a border node into
        // using a different key — caught either by the MAC (different key)
        // or by the CID echo (same key, e.g. two clusters that happen to
        // share a key in a contrived setup).
        let kc = Key128::from_bytes([9; 16]);
        let Message::Wrapped { nonce, sealed, .. } = wrap(&kc, 13, 17, 0, 0, 1, &Inner::Beacon)
        else {
            unreachable!()
        };
        // Same key but different claimed CID.
        assert_eq!(
            unwrap(&kc, 14, nonce, &sealed, 0, &cfg()),
            Err(ProtocolError::Malformed)
        );
    }

    #[test]
    fn unwrap_rejects_stale() {
        let kc = Key128::from_bytes([9; 16]);
        let c = cfg();
        let Message::Wrapped { cid, nonce, sealed } =
            wrap(&kc, 13, 17, 0, 1_000, 1, &Inner::Beacon)
        else {
            unreachable!()
        };
        let too_late = 1_000 + c.freshness_window + 1;
        assert_eq!(
            unwrap(&kc, cid, nonce, &sealed, too_late, &c),
            Err(ProtocolError::Stale)
        );
        // Exactly at the window edge is accepted.
        assert!(unwrap(&kc, cid, nonce, &sealed, 1_000 + c.freshness_window, &c).is_ok());
    }

    #[test]
    fn unwrap_rejects_truncated() {
        let kc = Key128::from_bytes([9; 16]);
        assert!(unwrap(&kc, 1, 0, &[], 0, &cfg()).is_err());
        assert!(unwrap(&kc, 1, 0, &[0u8; 4], 0, &cfg()).is_err());
    }

    #[test]
    fn counter_window_flow() {
        let mut w = CounterWindow::new();
        let cands: Vec<u64> = w.candidates(4).collect();
        assert_eq!(cands, vec![0, 1, 2, 3]);
        w.accept(2).unwrap(); // messages 0,1 were lost
        assert_eq!(w.last(), Some(2));
        let cands: Vec<u64> = w.candidates(4).collect();
        assert_eq!(cands, vec![3, 4, 5, 6]);
        // Replay of an old counter.
        assert_eq!(w.accept(2), Err(ProtocolError::Replay));
        assert_eq!(w.accept(1), Err(ProtocolError::Replay));
        w.accept(3).unwrap();
    }

    #[test]
    fn cached_sealer_paths_byte_identical() {
        // Every `_with` variant fed from a SealerCache must reproduce the
        // fresh-expansion output exactly.
        let km = Key128::from_bytes([21; 16]);
        let ki = Key128::from_bytes([22; 16]);
        let kc = Key128::from_bytes([23; 16]);
        let mut cache = SealerCache::new();

        let fresh = seal_setup(&km, 5, 2, 9, &kc);
        let cached = seal_setup_with(cache.get(&km), 5, 2, 9, &kc);
        assert_eq!(fresh, cached);
        assert_eq!(
            open_setup(&km, fresh.0, &fresh.1).unwrap(),
            open_setup_with(cache.get(&km), cached.0, &cached.1).unwrap()
        );

        let c1 = e2e_seal(&ki, 14, 3, b"21.5C");
        assert_eq!(c1, e2e_seal_with(cache.get(&ki), 14, 3, b"21.5C"));
        assert_eq!(
            e2e_open(&ki, 14, 3, &c1).unwrap(),
            e2e_open_with(cache.get(&ki), 14, 3, &c1).unwrap()
        );

        let inner = Inner::Beacon;
        let m1 = wrap(&kc, 13, 17, 0, 1_000, 2, &inner);
        let m2 = wrap_with(cache.get(&kc), 13, 17, 0, 1_000, 2, &inner);
        assert_eq!(m1, m2);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn wrap_frame_matches_wrap_then_encode() {
        let kc = Key128::from_bytes([31; 16]);
        let mut cache = SealerCache::new();
        for inner in [
            Inner::Beacon,
            Inner::RefreshHello {
                epoch: 3,
                new_kc: Key128::from_bytes([7; 16]),
            },
            Inner::Data(crate::msg::DataUnit {
                src: 14,
                ctr: Some(6),
                sealed: true,
                body: Bytes::from_static(b"c1 bytes"),
            }),
        ] {
            let legacy = wrap(&kc, 9, 14, 5, 777, 3, &inner).encode();
            let fast = wrap_frame(cache.get(&kc), 9, 14, 5, 777, 3, &inner);
            assert_eq!(legacy, fast, "inner {inner:?}");
        }
    }

    #[test]
    fn unwrap_in_matches_unwrap() {
        let kc = Key128::from_bytes([33; 16]);
        let mut cache = SealerCache::new();
        let mut scratch = Vec::new();
        let Message::Wrapped { cid, nonce, sealed } =
            wrap(&kc, 13, 17, 0, 1_000, 2, &Inner::Beacon)
        else {
            unreachable!()
        };
        let a = unwrap(&kc, cid, nonce, &sealed, 2_000, &cfg()).unwrap();
        let b = unwrap_in(
            cache.get(&kc),
            cid,
            nonce,
            &sealed,
            2_000,
            &cfg(),
            &mut scratch,
        )
        .unwrap();
        assert_eq!(a, b);

        // Error paths agree too (truncated input, wrong cid).
        assert!(unwrap_in(cache.get(&kc), cid, nonce, &[], 0, &cfg(), &mut scratch).is_err());
        assert_eq!(
            unwrap_in(
                cache.get(&kc),
                cid + 1,
                nonce,
                &sealed,
                2_000,
                &cfg(),
                &mut scratch
            ),
            unwrap(&kc, cid + 1, nonce, &sealed, 2_000, &cfg())
        );
    }

    #[test]
    fn sealer_cache_reuses_entries() {
        let mut cache = SealerCache::new();
        let k = Key128::from_bytes([40; 16]);
        cache.get(&k);
        cache.get(&k);
        assert_eq!(cache.len(), 1);
        cache.get(&Key128::from_bytes([41; 16]));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn wrapped_data_roundtrip_with_payload() {
        let kc = Key128::from_bytes([11; 16]);
        let unit = crate::msg::DataUnit {
            src: 14,
            ctr: Some(1),
            sealed: true,
            body: Bytes::from_static(b"c1 bytes here"),
        };
        let inner = Inner::Data(unit.clone());
        let Message::Wrapped { cid, nonce, sealed } = wrap(&kc, 9, 14, 0, 50, 3, &inner) else {
            unreachable!()
        };
        let u = unwrap(&kc, cid, nonce, &sealed, 60, &cfg()).unwrap();
        assert_eq!(u.inner, Inner::Data(unit));
    }
}

//! Durable base-station state: snapshots and a mutation journal.
//!
//! The paper's base station is the single point of trust — it holds every
//! `Ki`, every potential cluster key, the revocation chain position and
//! each source's replay window. A crash that loses any of that is fatal:
//! a restarted BS at epoch 0 cannot open traffic sealed at epoch `k`, and
//! forgotten counter windows re-open the replay surface. This module
//! makes [`crate::base_station::BaseStation`] state serializable so the
//! `wsn-net` daemon can persist it:
//!
//! * [`BsSnapshot`] — a full, self-contained copy of the durable state,
//!   written periodically as a compaction point.
//! * [`StateMutation`] — one incremental state change (a join, an epoch
//!   ratchet, a counter acceptance, …), emitted by the base station's
//!   journal between snapshots and replayed in order on restart.
//!
//! Both encode with the same hand-rolled big-endian framing as
//! [`crate::msg`]: a tag byte per variant, explicit length prefixes,
//! panic-free decode. Storage framing (length prefixes, CRCs, log-sequence
//! numbers) belongs to the WAL layer in `wsn-net`, not here — this module
//! only defines *what* is durable, not how it reaches disk.
//!
//! Two pieces of state are deliberately **not** serialized: the master key
//! `Km` and the revocation chain's links. Both are provisioning secrets
//! the operator re-derives from the deployment seed
//! ([`crate::keys::Provisioner`]); keeping them out of the state files
//! means a stolen disk yields session state but not the root secrets. The
//! snapshot stores only the chain *position*
//! ([`wsn_crypto::keychain::KeyChain::position`]) so a regenerated chain
//! can be fast-forwarded.

use crate::error::ProtocolError;
use crate::msg::ClusterId;
use bytes::{Buf, BufMut};
use wsn_crypto::{Key128, KEY_BYTES};

/// Sender-sequence reservation stride: the journal records the seq
/// watermark once every `SEQ_RESERVE_STRIDE` values instead of per frame,
/// and a restart rounds the restored seq up past the reservation. Frames
/// seal under CTR nonces derived from seq, so this is what guarantees a
/// restarted BS never reuses a nonce under a still-live key; the cost is
/// burning at most two strides of (64-bit) nonce space per restart.
pub const SEQ_RESERVE_STRIDE: u64 = 4096;

const M_JOIN: u8 = 0x01;
const M_EPOCH_RATCHET: u8 = 0x02;
const M_REVOKE_QUEUED: u8 = 0x03;
const M_REVOKE_FIRED: u8 = 0x04;
const M_REVOKE_EXHAUSTED: u8 = 0x05;
const M_REVEAL_FLUSHED: u8 = 0x06;
const M_COUNTER_ACCEPT: u8 = 0x07;
const M_CLUSTER_KEY: u8 = 0x08;
const M_REHOME_OUT: u8 = 0x09;
const M_REHOME_IN: u8 = 0x0A;
const M_SEQ_RESERVE: u8 = 0x0B;
const M_LINK_ADVERTISED: u8 = 0x0C;
const M_HANDOFF_INTENT: u8 = 0x0D;
const M_FAILOVER_IN: u8 = 0x0E;
const M_REVOKE_APPLIED: u8 = 0x0F;

const SNAP_VERSION: u8 = 1;

/// One durable change to base-station key state, journaled as it happens
/// and replayed in order on restart.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateMutation {
    /// A node provisioned after deployment joined (§IV-E): its `Ki` and
    /// potential cluster key enter the registry.
    Join {
        /// Node id.
        id: u32,
        /// Per-node key `Ki`.
        ki: Key128,
        /// Potential cluster key `F(KMC, id)`.
        kc: Key128,
    },
    /// All cluster keys rolled forward one hash-refresh epoch.
    EpochRatchet,
    /// A revocation command was queued (members marked evicted, command
    /// pending for the next revoke timer).
    RevokeQueued {
        /// Cluster ids whose keys are to be deleted.
        cids: Vec<ClusterId>,
        /// Member node ids marked evicted immediately.
        nodes: Vec<u32>,
    },
    /// A queued revocation fired: the chain advanced one link and the
    /// command was broadcast under sequence number `seq`.
    RevokeFired {
        /// The command's sequence number.
        seq: u32,
        /// Whether phase 1 of two-phase revocation queued a pending
        /// link disclosure.
        two_phase: bool,
    },
    /// A revocation command fired by another sink was applied here: the
    /// nodes were evicted, and the command's cluster keys and the
    /// evicted nodes' `Ki` dropped.
    RevokeApplied {
        /// Cluster ids whose keys were deleted.
        cids: Vec<ClusterId>,
        /// Node ids evicted.
        nodes: Vec<u32>,
    },
    /// A queued revocation was dropped because the chain was exhausted.
    RevokeExhausted,
    /// Every pending two-phase link disclosure was broadcast.
    RevealFlushed,
    /// A source's replay window advanced to `ctr`.
    CounterAccept {
        /// Originating sensor.
        src: u32,
        /// Accepted end-to-end counter.
        ctr: u64,
    },
    /// An out-of-band-learned cluster key was installed (re-cluster
    /// refresh).
    ClusterKey {
        /// Cluster id.
        cid: ClusterId,
        /// The new cluster key.
        kc: Key128,
    },
    /// Multi-sink handoff, sending side: the node's partition entry left
    /// this sink.
    RehomeOut {
        /// Node id handed off.
        node: u32,
    },
    /// Multi-sink handoff, receiving side: a partition entry was
    /// installed here.
    RehomeIn {
        /// Node id received.
        node: u32,
        /// The node's `Ki`.
        ki: Key128,
        /// The replay window's last accepted counter, if any.
        last_ctr: Option<u64>,
    },
    /// Sender-sequence watermark: on replay, seq skips past `next`
    /// (see [`SEQ_RESERVE_STRIDE`]).
    SeqReserve {
        /// First seq value NOT yet reserved when this record was cut.
        next: u64,
    },
    /// The phase-2 link advertisement went out (never re-advertised).
    LinkAdvertised,
    /// Inter-sink handoff, sending side, phase 1: this sink intends to
    /// transfer the node's partition entry to `to_sink`. Journaled
    /// *before* the entry leaves the wire so a crash mid-handoff can be
    /// distinguished from a completed one (the matching [`Self::RehomeOut`]
    /// is only cut once the receiver acknowledged the install). Replay
    /// is a state no-op: the entry stays owned until the ack.
    HandoffIntent {
        /// Node id being offered.
        node: u32,
        /// Destination sink id.
        to_sink: u32,
    },
    /// Inter-sink failover takeover: a dead sink's partition entry was
    /// re-derived from the provisioning seed and installed here. Same
    /// state effect as [`Self::RehomeIn`], but records provenance — the
    /// sink declared dead by the failure detector — so the offline
    /// oracle can attribute borrowed entries.
    FailoverIn {
        /// Node id taken over.
        node: u32,
        /// The node's `Ki` (re-derived locally).
        ki: Key128,
        /// The sink the failure detector declared dead.
        from_sink: u32,
    },
}

fn put_key(out: &mut Vec<u8>, k: &Key128) {
    out.put_slice(k.as_bytes());
}

fn get_key(buf: &mut &[u8]) -> Result<Key128, ProtocolError> {
    if buf.remaining() < KEY_BYTES {
        return Err(ProtocolError::Malformed);
    }
    let mut kb = [0u8; KEY_BYTES];
    buf.copy_to_slice(&mut kb);
    Ok(Key128::from_bytes(kb))
}

fn put_u32_list(out: &mut Vec<u8>, v: &[u32]) {
    out.put_u32(v.len() as u32);
    for x in v {
        out.put_u32(*x);
    }
}

fn get_u32_list(buf: &mut &[u8]) -> Result<Vec<u32>, ProtocolError> {
    if buf.remaining() < 4 {
        return Err(ProtocolError::Malformed);
    }
    let n = buf.get_u32() as usize;
    if buf.remaining() < n * 4 {
        return Err(ProtocolError::Malformed);
    }
    Ok((0..n).map(|_| buf.get_u32()).collect())
}

impl StateMutation {
    /// Appends the big-endian wire form to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            StateMutation::Join { id, ki, kc } => {
                out.put_u8(M_JOIN);
                out.put_u32(*id);
                put_key(out, ki);
                put_key(out, kc);
            }
            StateMutation::EpochRatchet => out.put_u8(M_EPOCH_RATCHET),
            StateMutation::RevokeQueued { cids, nodes } => {
                out.put_u8(M_REVOKE_QUEUED);
                put_u32_list(out, cids);
                put_u32_list(out, nodes);
            }
            StateMutation::RevokeFired { seq, two_phase } => {
                out.put_u8(M_REVOKE_FIRED);
                out.put_u32(*seq);
                out.put_u8(*two_phase as u8);
            }
            StateMutation::RevokeApplied { cids, nodes } => {
                out.put_u8(M_REVOKE_APPLIED);
                put_u32_list(out, cids);
                put_u32_list(out, nodes);
            }
            StateMutation::RevokeExhausted => out.put_u8(M_REVOKE_EXHAUSTED),
            StateMutation::RevealFlushed => out.put_u8(M_REVEAL_FLUSHED),
            StateMutation::CounterAccept { src, ctr } => {
                out.put_u8(M_COUNTER_ACCEPT);
                out.put_u32(*src);
                out.put_u64(*ctr);
            }
            StateMutation::ClusterKey { cid, kc } => {
                out.put_u8(M_CLUSTER_KEY);
                out.put_u32(*cid);
                put_key(out, kc);
            }
            StateMutation::RehomeOut { node } => {
                out.put_u8(M_REHOME_OUT);
                out.put_u32(*node);
            }
            StateMutation::RehomeIn { node, ki, last_ctr } => {
                out.put_u8(M_REHOME_IN);
                out.put_u32(*node);
                put_key(out, ki);
                match last_ctr {
                    Some(c) => {
                        out.put_u8(1);
                        out.put_u64(*c);
                    }
                    None => out.put_u8(0),
                }
            }
            StateMutation::SeqReserve { next } => {
                out.put_u8(M_SEQ_RESERVE);
                out.put_u64(*next);
            }
            StateMutation::LinkAdvertised => out.put_u8(M_LINK_ADVERTISED),
            StateMutation::HandoffIntent { node, to_sink } => {
                out.put_u8(M_HANDOFF_INTENT);
                out.put_u32(*node);
                out.put_u32(*to_sink);
            }
            StateMutation::FailoverIn {
                node,
                ki,
                from_sink,
            } => {
                out.put_u8(M_FAILOVER_IN);
                out.put_u32(*node);
                put_key(out, ki);
                out.put_u32(*from_sink);
            }
        }
    }

    /// The wire form as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes one mutation; the full buffer must be consumed.
    pub fn decode(mut buf: &[u8]) -> Result<StateMutation, ProtocolError> {
        let m = Self::decode_from(&mut buf)?;
        if buf.has_remaining() {
            return Err(ProtocolError::Malformed);
        }
        Ok(m)
    }

    fn decode_from(buf: &mut &[u8]) -> Result<StateMutation, ProtocolError> {
        if !buf.has_remaining() {
            return Err(ProtocolError::Malformed);
        }
        let tag = buf.get_u8();
        match tag {
            M_JOIN => {
                if buf.remaining() < 4 {
                    return Err(ProtocolError::Malformed);
                }
                let id = buf.get_u32();
                let ki = get_key(buf)?;
                let kc = get_key(buf)?;
                Ok(StateMutation::Join { id, ki, kc })
            }
            M_EPOCH_RATCHET => Ok(StateMutation::EpochRatchet),
            M_REVOKE_QUEUED => {
                let cids = get_u32_list(buf)?;
                let nodes = get_u32_list(buf)?;
                Ok(StateMutation::RevokeQueued { cids, nodes })
            }
            M_REVOKE_FIRED => {
                if buf.remaining() < 5 {
                    return Err(ProtocolError::Malformed);
                }
                let seq = buf.get_u32();
                let two_phase = match buf.get_u8() {
                    0 => false,
                    1 => true,
                    _ => return Err(ProtocolError::Malformed),
                };
                Ok(StateMutation::RevokeFired { seq, two_phase })
            }
            M_REVOKE_APPLIED => {
                let cids = get_u32_list(buf)?;
                let nodes = get_u32_list(buf)?;
                Ok(StateMutation::RevokeApplied { cids, nodes })
            }
            M_REVOKE_EXHAUSTED => Ok(StateMutation::RevokeExhausted),
            M_REVEAL_FLUSHED => Ok(StateMutation::RevealFlushed),
            M_COUNTER_ACCEPT => {
                if buf.remaining() < 12 {
                    return Err(ProtocolError::Malformed);
                }
                Ok(StateMutation::CounterAccept {
                    src: buf.get_u32(),
                    ctr: buf.get_u64(),
                })
            }
            M_CLUSTER_KEY => {
                if buf.remaining() < 4 {
                    return Err(ProtocolError::Malformed);
                }
                let cid = buf.get_u32();
                let kc = get_key(buf)?;
                Ok(StateMutation::ClusterKey { cid, kc })
            }
            M_REHOME_OUT => {
                if buf.remaining() < 4 {
                    return Err(ProtocolError::Malformed);
                }
                Ok(StateMutation::RehomeOut {
                    node: buf.get_u32(),
                })
            }
            M_REHOME_IN => {
                if buf.remaining() < 4 {
                    return Err(ProtocolError::Malformed);
                }
                let node = buf.get_u32();
                let ki = get_key(buf)?;
                if !buf.has_remaining() {
                    return Err(ProtocolError::Malformed);
                }
                let last_ctr = match buf.get_u8() {
                    0 => None,
                    1 => {
                        if buf.remaining() < 8 {
                            return Err(ProtocolError::Malformed);
                        }
                        Some(buf.get_u64())
                    }
                    _ => return Err(ProtocolError::Malformed),
                };
                Ok(StateMutation::RehomeIn { node, ki, last_ctr })
            }
            M_SEQ_RESERVE => {
                if buf.remaining() < 8 {
                    return Err(ProtocolError::Malformed);
                }
                Ok(StateMutation::SeqReserve {
                    next: buf.get_u64(),
                })
            }
            M_LINK_ADVERTISED => Ok(StateMutation::LinkAdvertised),
            M_HANDOFF_INTENT => {
                if buf.remaining() < 8 {
                    return Err(ProtocolError::Malformed);
                }
                Ok(StateMutation::HandoffIntent {
                    node: buf.get_u32(),
                    to_sink: buf.get_u32(),
                })
            }
            M_FAILOVER_IN => {
                if buf.remaining() < 4 {
                    return Err(ProtocolError::Malformed);
                }
                let node = buf.get_u32();
                let ki = get_key(buf)?;
                if buf.remaining() < 4 {
                    return Err(ProtocolError::Malformed);
                }
                let from_sink = buf.get_u32();
                Ok(StateMutation::FailoverIn {
                    node,
                    ki,
                    from_sink,
                })
            }
            _ => Err(ProtocolError::Malformed),
        }
    }
}

/// A full copy of the durable base-station state, cut at one instant.
///
/// Everything a restarted [`crate::base_station::BaseStation`] needs that
/// cannot be re-derived from the provisioning seed. Maps are stored as
/// sorted vectors so the encoding is deterministic (two snapshots of
/// equal state are byte-identical).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BsSnapshot {
    /// BS node id.
    pub id: u32,
    /// Hash-refresh epoch.
    pub epoch: u32,
    /// Sender sequence at the instant the snapshot was cut. Restores
    /// round this up two [`SEQ_RESERVE_STRIDE`]s — never resume exactly.
    pub seq: u64,
    /// Last issued revocation sequence number.
    pub revoke_seq: u32,
    /// Revocation-chain position ([`wsn_crypto::keychain::KeyChain::position`]).
    pub chain_next: u32,
    /// Whether the phase-2 link advertisement already went out.
    pub link_advertised: bool,
    /// `id -> Ki` registry, ascending by id.
    pub registry: Vec<(u32, Key128)>,
    /// Cluster keys at the snapshot epoch, ascending by cluster id.
    pub cluster_keys: Vec<(ClusterId, Key128)>,
    /// Per-source replay windows (last accepted counter), ascending by
    /// source id.
    pub windows: Vec<(u32, Option<u64>)>,
    /// Nodes evicted so far, in eviction order.
    pub evicted: Vec<u32>,
    /// Revocation commands queued but not yet fired.
    pub pending_revocations: Vec<Vec<ClusterId>>,
    /// Two-phase revocations whose links await disclosure.
    pub pending_reveals: Vec<(u32, Key128)>,
}

impl BsSnapshot {
    /// Encodes the snapshot (versioned, deterministic).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.put_u8(SNAP_VERSION);
        out.put_u32(self.id);
        out.put_u32(self.epoch);
        out.put_u64(self.seq);
        out.put_u32(self.revoke_seq);
        out.put_u32(self.chain_next);
        out.put_u8(self.link_advertised as u8);
        out.put_u32(self.registry.len() as u32);
        for (id, ki) in &self.registry {
            out.put_u32(*id);
            put_key(&mut out, ki);
        }
        out.put_u32(self.cluster_keys.len() as u32);
        for (cid, kc) in &self.cluster_keys {
            out.put_u32(*cid);
            put_key(&mut out, kc);
        }
        out.put_u32(self.windows.len() as u32);
        for (src, last) in &self.windows {
            out.put_u32(*src);
            match last {
                Some(c) => {
                    out.put_u8(1);
                    out.put_u64(*c);
                }
                None => out.put_u8(0),
            }
        }
        put_u32_list(&mut out, &self.evicted);
        out.put_u32(self.pending_revocations.len() as u32);
        for cids in &self.pending_revocations {
            put_u32_list(&mut out, cids);
        }
        out.put_u32(self.pending_reveals.len() as u32);
        for (seq, link) in &self.pending_reveals {
            out.put_u32(*seq);
            put_key(&mut out, link);
        }
        out
    }

    /// Decodes a snapshot; the full buffer must be consumed.
    pub fn decode(mut buf: &[u8]) -> Result<BsSnapshot, ProtocolError> {
        let b = &mut buf;
        if b.remaining() < 1 + 4 + 4 + 8 + 4 + 4 + 1 {
            return Err(ProtocolError::Malformed);
        }
        if b.get_u8() != SNAP_VERSION {
            return Err(ProtocolError::Malformed);
        }
        let id = b.get_u32();
        let epoch = b.get_u32();
        let seq = b.get_u64();
        let revoke_seq = b.get_u32();
        let chain_next = b.get_u32();
        let link_advertised = match b.get_u8() {
            0 => false,
            1 => true,
            _ => return Err(ProtocolError::Malformed),
        };
        let registry = decode_key_pairs(b)?;
        let cluster_keys = decode_key_pairs(b)?;
        if b.remaining() < 4 {
            return Err(ProtocolError::Malformed);
        }
        let nw = b.get_u32() as usize;
        let mut windows = Vec::with_capacity(nw.min(1 << 16));
        for _ in 0..nw {
            if b.remaining() < 5 {
                return Err(ProtocolError::Malformed);
            }
            let src = b.get_u32();
            let last = match b.get_u8() {
                0 => None,
                1 => {
                    if b.remaining() < 8 {
                        return Err(ProtocolError::Malformed);
                    }
                    Some(b.get_u64())
                }
                _ => return Err(ProtocolError::Malformed),
            };
            windows.push((src, last));
        }
        let evicted = get_u32_list(b)?;
        if b.remaining() < 4 {
            return Err(ProtocolError::Malformed);
        }
        let np = b.get_u32() as usize;
        let mut pending_revocations = Vec::with_capacity(np.min(1 << 16));
        for _ in 0..np {
            pending_revocations.push(get_u32_list(b)?);
        }
        if b.remaining() < 4 {
            return Err(ProtocolError::Malformed);
        }
        let nr = b.get_u32() as usize;
        let mut pending_reveals = Vec::with_capacity(nr.min(1 << 16));
        for _ in 0..nr {
            if b.remaining() < 4 {
                return Err(ProtocolError::Malformed);
            }
            let seq = b.get_u32();
            let link = get_key(b)?;
            pending_reveals.push((seq, link));
        }
        if b.has_remaining() {
            return Err(ProtocolError::Malformed);
        }
        Ok(BsSnapshot {
            id,
            epoch,
            seq,
            revoke_seq,
            chain_next,
            link_advertised,
            registry,
            cluster_keys,
            windows,
            evicted,
            pending_revocations,
            pending_reveals,
        })
    }
}

fn decode_key_pairs(b: &mut &[u8]) -> Result<Vec<(u32, Key128)>, ProtocolError> {
    if b.remaining() < 4 {
        return Err(ProtocolError::Malformed);
    }
    let n = b.get_u32() as usize;
    let mut v = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        if b.remaining() < 4 {
            return Err(ProtocolError::Malformed);
        }
        let id = b.get_u32();
        let k = get_key(b)?;
        v.push((id, k));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> Key128 {
        Key128::from_bytes([b; 16])
    }

    fn all_mutations() -> Vec<StateMutation> {
        vec![
            StateMutation::Join {
                id: 7,
                ki: key(1),
                kc: key(2),
            },
            StateMutation::EpochRatchet,
            StateMutation::RevokeQueued {
                cids: vec![3, 4],
                nodes: vec![3, 4, 5],
            },
            StateMutation::RevokeFired {
                seq: 2,
                two_phase: true,
            },
            StateMutation::RevokeApplied {
                cids: vec![6],
                nodes: vec![6, 7],
            },
            StateMutation::RevokeExhausted,
            StateMutation::RevealFlushed,
            StateMutation::CounterAccept { src: 9, ctr: 41 },
            StateMutation::ClusterKey { cid: 5, kc: key(6) },
            StateMutation::RehomeOut { node: 11 },
            StateMutation::RehomeIn {
                node: 11,
                ki: key(7),
                last_ctr: Some(99),
            },
            StateMutation::RehomeIn {
                node: 12,
                ki: key(8),
                last_ctr: None,
            },
            StateMutation::SeqReserve { next: 8192 },
            StateMutation::LinkAdvertised,
            StateMutation::HandoffIntent {
                node: 13,
                to_sink: 2,
            },
            StateMutation::FailoverIn {
                node: 14,
                ki: key(9),
                from_sink: 1,
            },
        ]
    }

    #[test]
    fn mutation_roundtrip() {
        for m in all_mutations() {
            let bytes = m.encode();
            assert_eq!(StateMutation::decode(&bytes).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn mutation_decode_rejects_truncation_and_garbage() {
        for m in all_mutations() {
            let bytes = m.encode();
            for cut in 0..bytes.len() {
                // Every strict prefix fails cleanly (no panic, no partial
                // success) — except a prefix that happens to be a complete
                // shorter encoding, which full-consumption rules out.
                assert!(StateMutation::decode(&bytes[..cut]).is_err());
            }
            let mut padded = bytes.clone();
            padded.push(0);
            assert!(StateMutation::decode(&padded).is_err());
        }
        assert!(StateMutation::decode(&[0xFF]).is_err());
        assert!(StateMutation::decode(&[]).is_err());
    }

    fn sample_snapshot() -> BsSnapshot {
        BsSnapshot {
            id: 0,
            epoch: 3,
            seq: 12345,
            revoke_seq: 2,
            chain_next: 3,
            link_advertised: true,
            registry: vec![(1, key(1)), (2, key(2))],
            cluster_keys: vec![(0, key(3)), (1, key(4)), (2, key(5))],
            windows: vec![(1, Some(17)), (2, None)],
            evicted: vec![9, 4],
            pending_revocations: vec![vec![4], vec![5, 6]],
            pending_reveals: vec![(2, key(9))],
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        let s = sample_snapshot();
        assert_eq!(BsSnapshot::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn snapshot_encoding_deterministic() {
        assert_eq!(sample_snapshot().encode(), sample_snapshot().encode());
    }

    #[test]
    fn snapshot_decode_rejects_truncation() {
        let bytes = sample_snapshot().encode();
        for cut in 0..bytes.len() {
            assert!(BsSnapshot::decode(&bytes[..cut]).is_err());
        }
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 99;
        assert!(BsSnapshot::decode(&wrong_version).is_err());
    }
}

//! Wire formats for every protocol message, with a panic-free codec.
//!
//! The paper specifies message *contents* (`E_Km(ID|Kc|MAC)`, `CID|y2|t2`,
//! `CID, MAC_Kc(CID)`, …) but not octet layouts; the layouts here are the
//! straightforward big-endian framings of those contents. Sizes matter —
//! the energy model charges per byte — so each variant documents its
//! overhead.
//!
//! Two layers:
//!
//! * [`Message`] — the outer radio frame (type byte + fields). Sealed
//!   fields are opaque here; [`crate::forward`] owns seal/open.
//! * [`Inner`] — what rides *inside* a Step-2 [`Message::Wrapped`]
//!   envelope after decryption: an end-to-end data unit, a routing beacon,
//!   or a re-cluster refresh HELLO.

use crate::error::ProtocolError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use wsn_crypto::{Key128, KEY_BYTES};
use wsn_trace::FrameKind;

/// Cluster identifier — the elected head's node ID.
pub type ClusterId = u32;

/// The shared frame-size ceiling, re-exported from the radio model so
/// codec users see it next to the wire formats. Every transport — the
/// simulated radio and the `wsn-net` socket backends — enforces this
/// same bound, so a frame the protocol can emit through one transport
/// is never rejected by another. Pinned by the codec property tests.
pub use wsn_sim::radio::MAX_FRAME_BYTES;

const T_HELLO: u8 = 0x01;
const T_LINK: u8 = 0x02;
const T_WRAPPED: u8 = 0x03;
const T_REVOKE: u8 = 0x04;
const T_JOIN_REQ: u8 = 0x05;
const T_JOIN_RESP: u8 = 0x06;
const T_REVOKE_ANNOUNCE: u8 = 0x07;
const T_REVOKE_REVEAL: u8 = 0x08;

const I_DATA: u8 = 0x11;
const I_BEACON: u8 = 0x12;
const I_REFRESH: u8 = 0x13;
const I_ACK: u8 = 0x14;
const I_ROUTE_REQ: u8 = 0x15;
const I_HEARTBEAT: u8 = 0x16;
const I_NEW_HEAD: u8 = 0x17;
const I_BUSY_ACK: u8 = 0x18;
const I_SINK_BEACON: u8 = 0x19;
const I_SINK_DATA: u8 = 0x1A;

/// Length of the short tags on revocation/join messages.
pub const SHORT_TAG: usize = 8;

/// An outer radio frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Cluster-head election HELLO: `E_Km(ID | Kc | MAC)`. The `sealed`
    /// blob authenticates and hides the head's ID and cluster key.
    Hello {
        /// CTR nonce (sender-unique; see [`crate::forward::seal_setup`]).
        nonce: u64,
        /// `seal(id | kc)` under keys derived from `Km`.
        sealed: Bytes,
    },
    /// Phase-2 link advertisement: `E_Km(CID | Kc | MAC)`.
    LinkAdvert {
        /// CTR nonce.
        nonce: u64,
        /// `seal(cid | kc)` under keys derived from `Km`.
        sealed: Bytes,
    },
    /// A Step-2 envelope: `CID | y2 | t2` (paper Figure 4). Everything a
    /// node forwards — data, beacons, refresh HELLOs — travels in one of
    /// these, encrypted under the *sender's* cluster key; the cleartext
    /// `cid` tells receivers which key in their set `S` opens it.
    Wrapped {
        /// Sender's cluster ID (cleartext by design).
        cid: ClusterId,
        /// CTR nonce.
        nonce: u64,
        /// `seal(τ | cid | Inner)` under the sender's cluster key.
        sealed: Bytes,
    },
    /// Base-station revocation command (paper §IV-D): the next one-way
    /// chain link authenticates the command; `tag = MAC_link(seq | cids)`
    /// binds the payload to the link.
    Revoke {
        /// Revealed chain link `K_l`.
        link: Key128,
        /// Command sequence number (flood dedup).
        seq: u32,
        /// Cluster IDs whose keys must be deleted.
        cids: Vec<ClusterId>,
        /// `MAC_link(seq | cids)`, truncated to [`SHORT_TAG`].
        tag: [u8; SHORT_TAG],
    },
    /// Two-phase revocation, phase 1 (µTESLA-style hardening of §IV-D; see
    /// DESIGN.md): the command is announced and flooded *before* its
    /// authenticating chain link is disclosed, so an adversary who later
    /// observes the link cannot substitute a different victim list at
    /// nodes that already hold the announce.
    RevokeAnnounce {
        /// Command sequence number.
        seq: u32,
        /// Cluster IDs to revoke.
        cids: Vec<ClusterId>,
        /// `MAC_{K_l}(seq | cids)` under the *not yet revealed* link.
        tag: [u8; SHORT_TAG],
    },
    /// Two-phase revocation, phase 2: the chain link is disclosed; nodes
    /// verify the buffered announce and act.
    RevokeReveal {
        /// Command sequence number being disclosed.
        seq: u32,
        /// The chain link `K_l`.
        link: Key128,
    },
    /// New-node hello (paper §IV-E): "the message contains the ID of the
    /// new node".
    JoinRequest {
        /// The joining node's ID.
        new_id: u32,
    },
    /// Response to a join request: `CID, MAC_Kc(CID)` — authenticated so an
    /// adversary cannot feed the new node fake cluster IDs and later
    /// harvest every cluster key from it (the impersonation attack the
    /// paper closes). `epoch` extends the paper's scheme to networks whose
    /// keys have been hash-refreshed: the joiner derives
    /// `F_refresh^epoch(F(KMC, cid))`.
    JoinResponse {
        /// Responder's cluster ID.
        cid: ClusterId,
        /// Responder's key-refresh epoch.
        epoch: u32,
        /// `MAC_Kc(cid | new_id | epoch)`, truncated to [`SHORT_TAG`].
        tag: [u8; SHORT_TAG],
    },
}

/// Byte length of the `Wrapped` frame header written by
/// `Message::put_wrapped_header`: type (1) + cid (4) + nonce (8).
pub const WRAPPED_HEADER_BYTES: usize = 13;

impl Message {
    /// Serializes to a radio frame.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(64);
        self.encode_into(&mut b);
        b.freeze()
    }

    /// Serializes into a caller-provided buffer (appends; does not clear).
    /// Lets hot paths reuse one scratch buffer across frames instead of
    /// allocating per [`Message::encode`] call.
    pub fn encode_into(&self, b: &mut BytesMut) {
        match self {
            Message::Hello { nonce, sealed } => {
                b.put_u8(T_HELLO);
                b.put_u64(*nonce);
                b.put_slice(sealed);
            }
            Message::LinkAdvert { nonce, sealed } => {
                b.put_u8(T_LINK);
                b.put_u64(*nonce);
                b.put_slice(sealed);
            }
            Message::Wrapped { cid, nonce, sealed } => {
                b.put_u8(T_WRAPPED);
                b.put_u32(*cid);
                b.put_u64(*nonce);
                b.put_slice(sealed);
            }
            Message::Revoke {
                link,
                seq,
                cids,
                tag,
            } => {
                b.put_u8(T_REVOKE);
                b.put_slice(link.as_bytes());
                b.put_u32(*seq);
                b.put_u16(cids.len() as u16);
                for cid in cids {
                    b.put_u32(*cid);
                }
                b.put_slice(tag);
            }
            Message::RevokeAnnounce { seq, cids, tag } => {
                b.put_u8(T_REVOKE_ANNOUNCE);
                b.put_u32(*seq);
                b.put_u16(cids.len() as u16);
                for cid in cids {
                    b.put_u32(*cid);
                }
                b.put_slice(tag);
            }
            Message::RevokeReveal { seq, link } => {
                b.put_u8(T_REVOKE_REVEAL);
                b.put_u32(*seq);
                b.put_slice(link.as_bytes());
            }
            Message::JoinRequest { new_id } => {
                b.put_u8(T_JOIN_REQ);
                b.put_u32(*new_id);
            }
            Message::JoinResponse { cid, epoch, tag } => {
                b.put_u8(T_JOIN_RESP);
                b.put_u32(*cid);
                b.put_u32(*epoch);
                b.put_slice(tag);
            }
        }
    }

    /// Writes the `Wrapped` frame header (`type | cid | nonce`) so a caller
    /// can assemble the full frame — header, plaintext encrypted in place,
    /// tag — in one buffer without intermediate allocations. The bytes are
    /// exactly what [`Message::encode`] writes before `sealed`.
    pub(crate) fn put_wrapped_header(b: &mut BytesMut, cid: ClusterId, nonce: u64) {
        b.put_u8(T_WRAPPED);
        b.put_u32(cid);
        b.put_u64(nonce);
    }

    /// Zero-copy view of a `Wrapped` frame: `(cid, nonce, sealed)` borrowed
    /// from `frame`, or `None` when the frame is not a well-formed
    /// `Wrapped`. Agrees exactly with [`Message::decode`] on every input:
    /// `Some` here iff decode yields `Message::Wrapped` with these fields.
    /// The steady-state receive path uses this to skip decode's copy of the
    /// sealed payload.
    pub fn peek_wrapped(frame: &[u8]) -> Option<(ClusterId, u64, &[u8])> {
        if frame.len() < WRAPPED_HEADER_BYTES || frame[0] != T_WRAPPED {
            return None;
        }
        let mut buf = &frame[1..];
        let cid = buf.get_u32();
        let nonce = buf.get_u64();
        Some((cid, nonce, buf))
    }

    /// Zero-copy view of a setup frame: `(kind, nonce, sealed)` borrowed
    /// from `frame`, with `kind` [`FrameKind::Hello`] or
    /// [`FrameKind::LinkAdvert`], or `None` for any other frame. Agrees
    /// exactly with [`Message::decode`] on every input: `Some` here iff
    /// decode yields `Message::Hello` or `Message::LinkAdvert` with these
    /// fields. Every neighbour of a setup broadcast receives it, so the
    /// receive path uses this to skip decode's copy of the sealed payload.
    pub fn peek_setup(frame: &[u8]) -> Option<(FrameKind, u64, &[u8])> {
        let kind = match frame.first() {
            Some(&T_HELLO) => FrameKind::Hello,
            Some(&T_LINK) => FrameKind::LinkAdvert,
            _ => return None,
        };
        let mut buf = frame.get(1..)?;
        if buf.remaining() < 8 {
            return None;
        }
        let nonce = buf.get_u64();
        Some((kind, nonce, buf))
    }

    /// Parses a radio frame. Never panics on malformed input.
    pub fn decode(mut buf: &[u8]) -> Result<Message, ProtocolError> {
        if buf.is_empty() {
            return Err(ProtocolError::Malformed);
        }
        let ty = buf.get_u8();
        match ty {
            T_HELLO | T_LINK => {
                if buf.remaining() < 8 {
                    return Err(ProtocolError::Malformed);
                }
                let nonce = buf.get_u64();
                let sealed = Bytes::copy_from_slice(buf);
                if ty == T_HELLO {
                    Ok(Message::Hello { nonce, sealed })
                } else {
                    Ok(Message::LinkAdvert { nonce, sealed })
                }
            }
            T_WRAPPED => {
                if buf.remaining() < 12 {
                    return Err(ProtocolError::Malformed);
                }
                let cid = buf.get_u32();
                let nonce = buf.get_u64();
                Ok(Message::Wrapped {
                    cid,
                    nonce,
                    sealed: Bytes::copy_from_slice(buf),
                })
            }
            T_REVOKE => {
                if buf.remaining() < KEY_BYTES + 4 + 2 {
                    return Err(ProtocolError::Malformed);
                }
                let mut kb = [0u8; KEY_BYTES];
                buf.copy_to_slice(&mut kb);
                let seq = buf.get_u32();
                let n = buf.get_u16() as usize;
                if buf.remaining() < n * 4 + SHORT_TAG {
                    return Err(ProtocolError::Malformed);
                }
                let mut cids = Vec::with_capacity(n);
                for _ in 0..n {
                    cids.push(buf.get_u32());
                }
                let mut tag = [0u8; SHORT_TAG];
                buf.copy_to_slice(&mut tag);
                if buf.has_remaining() {
                    return Err(ProtocolError::Malformed);
                }
                Ok(Message::Revoke {
                    link: Key128::from_bytes(kb),
                    seq,
                    cids,
                    tag,
                })
            }
            T_REVOKE_ANNOUNCE => {
                if buf.remaining() < 4 + 2 {
                    return Err(ProtocolError::Malformed);
                }
                let seq = buf.get_u32();
                let n = buf.get_u16() as usize;
                if buf.remaining() != n * 4 + SHORT_TAG {
                    return Err(ProtocolError::Malformed);
                }
                let mut cids = Vec::with_capacity(n);
                for _ in 0..n {
                    cids.push(buf.get_u32());
                }
                let mut tag = [0u8; SHORT_TAG];
                buf.copy_to_slice(&mut tag);
                Ok(Message::RevokeAnnounce { seq, cids, tag })
            }
            T_REVOKE_REVEAL => {
                if buf.remaining() != 4 + KEY_BYTES {
                    return Err(ProtocolError::Malformed);
                }
                let seq = buf.get_u32();
                let mut kb = [0u8; KEY_BYTES];
                buf.copy_to_slice(&mut kb);
                Ok(Message::RevokeReveal {
                    seq,
                    link: Key128::from_bytes(kb),
                })
            }
            T_JOIN_REQ => {
                if buf.remaining() != 4 {
                    return Err(ProtocolError::Malformed);
                }
                Ok(Message::JoinRequest {
                    new_id: buf.get_u32(),
                })
            }
            T_JOIN_RESP => {
                if buf.remaining() != 8 + SHORT_TAG {
                    return Err(ProtocolError::Malformed);
                }
                let cid = buf.get_u32();
                let epoch = buf.get_u32();
                let mut tag = [0u8; SHORT_TAG];
                buf.copy_to_slice(&mut tag);
                Ok(Message::JoinResponse { cid, epoch, tag })
            }
            _ => Err(ProtocolError::Malformed),
        }
    }
}

/// What travels inside a Step-2 envelope.
#[derive(Clone, Debug, PartialEq)]
pub enum Inner {
    /// An end-to-end data unit on its way to the base station.
    Data(DataUnit),
    /// A base-station routing beacon. The sender's hop distance rides in
    /// the Step-2 header (every wrapped message carries it), so the beacon
    /// body is empty: hearing one at all is what establishes the gradient.
    Beacon,
    /// Cluster-key refresh HELLO (paper §IV-C): "the message will contain
    /// the new cluster key, created by a secure key generation algorithm
    /// embedded in each node", secured under the *current* cluster key. Per
    /// the §VI hardening, refresh is constrained within clusters — the
    /// cluster structure is unchanged, only the key rolls — so an adversary
    /// "cannot take control of more nodes than she already has".
    RefreshHello {
        /// Refresh epoch this key belongs to (must be the receiver's
        /// epoch + 1).
        epoch: u32,
        /// New cluster key.
        new_kc: Key128,
    },
    /// Recovery-layer hop-by-hop acknowledgment: a next hop (a strictly
    /// closer node or the base station) confirms custody of a frame.
    /// `key` names the acknowledged unit — [`DataUnit::dedup_key`] for
    /// readings, [`crate::recovery::refresh_ack_key`] for refresh
    /// HELLOs — and the envelope's cluster key authenticates the acker.
    Ack {
        /// Dedup key of the acknowledged unit.
        key: u64,
    },
    /// Resource-layer backpressure variant of [`Inner::Ack`]: custody is
    /// confirmed exactly as with a plain ACK, but the acker's transmit
    /// queue is past its high-water mark, so the upstream custodian
    /// should stretch its retransmission backoff toward this hop instead
    /// of retrying into congestion. Emitted only when
    /// [`crate::config::ResourceConfig::enabled`] is set — default-config
    /// runs never put this tag on the air.
    BusyAck {
        /// Dedup key of the acknowledged unit.
        key: u64,
    },
    /// Recovery-layer route-repair request: the sender's gradient went
    /// stale (next-hop timeout) and it asks neighbors that hold its
    /// cluster key for a fresh beacon. Body is empty — the envelope's
    /// cleartext `cid` already names whose key a useful replier must
    /// hold.
    RouteRequest,
    /// Recovery-layer keyed heartbeat, broadcast periodically by a
    /// cluster head under the current cluster key so members can detect
    /// head death (and stale members can detect missed epochs).
    Heartbeat,
    /// Recovery-layer failover announcement: a member that won the
    /// localized re-election takes over headship. Secured under the
    /// *lost* head's cluster key, so only members of the dead cluster
    /// (and their neighbors holding that key) accept it.
    NewHead {
        /// The new head's cluster id (its node id).
        new_cid: ClusterId,
        /// The new cluster key (the new head's individual key material
        /// rolled to the current epoch, so the base station already
        /// derives it independently).
        new_kc: Key128,
    },
    /// Multi-sink routing beacon: like [`Inner::Beacon`], but names which
    /// sink the flood originates from, so nodes can keep one gradient per
    /// sink. The Step-2 header's hop field carries the sender's distance
    /// to *this* sink. Emitted only when
    /// [`crate::config::SinkConfig::enabled`] is set — default-config
    /// runs never put this tag on the air.
    SinkBeacon {
        /// Originating sink's node id.
        sink: u32,
    },
    /// Multi-sink data unit: like [`Inner::Data`], but addressed to a
    /// specific sink (the source's nearest). Forwarders relay it strictly
    /// downhill on *that sink's* gradient; the Step-2 hop field carries
    /// the sender's distance to the target sink.
    SinkData {
        /// Target sink's node id.
        sink: u32,
        /// The reading in flight.
        unit: DataUnit,
    },
}

impl Inner {
    /// Serializes the inner payload.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(32);
        self.encode_into(&mut b);
        b.freeze()
    }

    /// Serializes into a caller-provided buffer (appends; does not clear).
    /// The single-allocation Step-2 path writes the inner payload directly
    /// into the frame being assembled.
    pub fn encode_into(&self, b: &mut BytesMut) {
        match self {
            Inner::Data(d) => {
                b.put_u8(I_DATA);
                d.encode_into(b);
            }
            Inner::Beacon => {
                b.put_u8(I_BEACON);
            }
            Inner::RefreshHello { epoch, new_kc } => {
                b.put_u8(I_REFRESH);
                b.put_u32(*epoch);
                b.put_slice(new_kc.as_bytes());
            }
            Inner::Ack { key } => {
                b.put_u8(I_ACK);
                b.put_u64(*key);
            }
            Inner::BusyAck { key } => {
                b.put_u8(I_BUSY_ACK);
                b.put_u64(*key);
            }
            Inner::RouteRequest => {
                b.put_u8(I_ROUTE_REQ);
            }
            Inner::Heartbeat => {
                b.put_u8(I_HEARTBEAT);
            }
            Inner::NewHead { new_cid, new_kc } => {
                b.put_u8(I_NEW_HEAD);
                b.put_u32(*new_cid);
                b.put_slice(new_kc.as_bytes());
            }
            Inner::SinkBeacon { sink } => {
                b.put_u8(I_SINK_BEACON);
                b.put_u32(*sink);
            }
            Inner::SinkData { sink, unit } => {
                b.put_u8(I_SINK_DATA);
                b.put_u32(*sink);
                unit.encode_into(b);
            }
        }
    }

    /// Parses an inner payload. Never panics.
    pub fn decode(mut buf: &[u8]) -> Result<Inner, ProtocolError> {
        if buf.is_empty() {
            return Err(ProtocolError::Malformed);
        }
        match buf.get_u8() {
            I_DATA => DataUnit::decode(buf).map(Inner::Data),
            I_BEACON => {
                if buf.has_remaining() {
                    return Err(ProtocolError::Malformed);
                }
                Ok(Inner::Beacon)
            }
            I_REFRESH => {
                if buf.remaining() != 4 + KEY_BYTES {
                    return Err(ProtocolError::Malformed);
                }
                let epoch = buf.get_u32();
                let mut kb = [0u8; KEY_BYTES];
                buf.copy_to_slice(&mut kb);
                Ok(Inner::RefreshHello {
                    epoch,
                    new_kc: Key128::from_bytes(kb),
                })
            }
            I_ACK => {
                if buf.remaining() != 8 {
                    return Err(ProtocolError::Malformed);
                }
                Ok(Inner::Ack { key: buf.get_u64() })
            }
            I_BUSY_ACK => {
                if buf.remaining() != 8 {
                    return Err(ProtocolError::Malformed);
                }
                Ok(Inner::BusyAck { key: buf.get_u64() })
            }
            I_ROUTE_REQ => {
                if buf.has_remaining() {
                    return Err(ProtocolError::Malformed);
                }
                Ok(Inner::RouteRequest)
            }
            I_HEARTBEAT => {
                if buf.has_remaining() {
                    return Err(ProtocolError::Malformed);
                }
                Ok(Inner::Heartbeat)
            }
            I_NEW_HEAD => {
                if buf.remaining() != 4 + KEY_BYTES {
                    return Err(ProtocolError::Malformed);
                }
                let new_cid = buf.get_u32();
                let mut kb = [0u8; KEY_BYTES];
                buf.copy_to_slice(&mut kb);
                Ok(Inner::NewHead {
                    new_cid,
                    new_kc: Key128::from_bytes(kb),
                })
            }
            I_SINK_BEACON => {
                if buf.remaining() != 4 {
                    return Err(ProtocolError::Malformed);
                }
                Ok(Inner::SinkBeacon {
                    sink: buf.get_u32(),
                })
            }
            I_SINK_DATA => {
                if buf.remaining() < 4 {
                    return Err(ProtocolError::Malformed);
                }
                let sink = buf.get_u32();
                DataUnit::decode(buf).map(|unit| Inner::SinkData { sink, unit })
            }
            _ => Err(ProtocolError::Malformed),
        }
    }
}

/// One sensor reading in flight from a source node to the base station.
///
/// `body` is either the Step-1 output `c1 = y1 | t1` (confidential mode,
/// only the base station can read it) or the plaintext reading (data-fusion
/// mode, "Step 1 should be omitted" so intermediate nodes can evaluate and
/// discard redundant data).
#[derive(Clone, Debug, PartialEq)]
pub struct DataUnit {
    /// Originating node.
    pub src: u32,
    /// Source's end-to-end counter, if transmitted
    /// ([`crate::config::CounterMode::Explicit`]).
    pub ctr: Option<u64>,
    /// Whether `body` is Step-1 sealed (confidential) or plaintext
    /// (fusion-readable).
    pub sealed: bool,
    /// The payload.
    pub body: Bytes,
}

impl DataUnit {
    fn encode_into(&self, b: &mut BytesMut) {
        b.put_u32(self.src);
        let mut flags = 0u8;
        if self.sealed {
            flags |= 0b01;
        }
        if self.ctr.is_some() {
            flags |= 0b10;
        }
        b.put_u8(flags);
        if let Some(c) = self.ctr {
            b.put_u64(c);
        }
        b.put_slice(&self.body);
    }

    fn decode(buf: &[u8]) -> Result<DataUnit, ProtocolError> {
        DataView::decode(buf).map(|view| view.to_unit())
    }

    /// The unit as a [`DataView`] borrowing its body.
    fn view(&self) -> DataView<'_> {
        DataView {
            src: self.src,
            ctr: self.ctr,
            sealed: self.sealed,
            body: &self.body,
        }
    }

    /// A stable dedup key for in-network duplicate suppression: source plus
    /// a hash of the payload (counter-independent, so the same reading
    /// forwarded along two paths collapses).
    pub fn dedup_key(&self) -> u64 {
        self.view().dedup_key()
    }
}

/// A [`DataUnit`] parsed in place, its body borrowed from the decrypted
/// buffer. Every receiver in range parses each data frame it overhears,
/// and only a node that relays the unit needs an owned copy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DataView<'a> {
    /// Originating node.
    pub src: u32,
    /// Source's end-to-end counter, if transmitted.
    pub ctr: Option<u64>,
    /// Whether `body` is Step-1 sealed.
    pub sealed: bool,
    /// The payload.
    pub body: &'a [u8],
}

impl<'a> DataView<'a> {
    /// Parses a data unit (the bytes after its inner tag). Never panics.
    pub fn decode(mut buf: &'a [u8]) -> Result<Self, ProtocolError> {
        if buf.remaining() < 5 {
            return Err(ProtocolError::Malformed);
        }
        let src = buf.get_u32();
        let flags = buf.get_u8();
        if flags & !0b11 != 0 {
            return Err(ProtocolError::Malformed);
        }
        let sealed = flags & 0b01 != 0;
        let ctr = if flags & 0b10 != 0 {
            if buf.remaining() < 8 {
                return Err(ProtocolError::Malformed);
            }
            Some(buf.get_u64())
        } else {
            None
        };
        Ok(DataView {
            src,
            ctr,
            sealed,
            body: buf,
        })
    }

    /// An owned copy of the unit.
    pub fn to_unit(&self) -> DataUnit {
        DataUnit {
            src: self.src,
            ctr: self.ctr,
            sealed: self.sealed,
            body: Bytes::copy_from_slice(self.body),
        }
    }

    /// See [`DataUnit::dedup_key`].
    pub fn dedup_key(&self) -> u64 {
        // FNV-1a over src | body — cheap and adequate for a dedup cache.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &byte in self.src.to_be_bytes().iter().chain(self.body) {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

/// An inner payload as a receiver parses it: a data unit stays a
/// [`DataView`] over the decrypted buffer, and every other variant, none
/// of which carries a body, is an owned [`Inner`].
#[derive(Clone, Debug, PartialEq)]
pub enum InnerRef<'a> {
    /// [`Inner::Data`].
    Data(DataView<'a>),
    /// [`Inner::SinkData`].
    SinkData {
        /// Target sink's node id.
        sink: u32,
        /// The reading in flight.
        unit: DataView<'a>,
    },
    /// Any other variant; never [`Inner::Data`] or [`Inner::SinkData`].
    Control(Inner),
}

impl<'a> InnerRef<'a> {
    /// Parses an inner payload; accepts exactly what [`Inner::decode`]
    /// accepts. Never panics.
    pub fn decode(buf: &'a [u8]) -> Result<Self, ProtocolError> {
        match buf.split_first() {
            Some((&I_DATA, unit)) => DataView::decode(unit).map(InnerRef::Data),
            Some((&I_SINK_DATA, mut rest)) => {
                if rest.remaining() < 4 {
                    return Err(ProtocolError::Malformed);
                }
                let sink = rest.get_u32();
                DataView::decode(rest).map(|unit| InnerRef::SinkData { sink, unit })
            }
            _ => Inner::decode(buf).map(InnerRef::Control),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_frame_kinds_mirror_wire_tags() {
        // wsn-trace classifies frames by first byte without depending on
        // this crate; pin its mapping to the real wire constants so the
        // two vocabularies cannot drift apart silently.
        for (tag, kind) in [
            (T_HELLO, FrameKind::Hello),
            (T_LINK, FrameKind::LinkAdvert),
            (T_WRAPPED, FrameKind::Wrapped),
            (T_REVOKE, FrameKind::Revoke),
            (T_JOIN_REQ, FrameKind::JoinRequest),
            (T_JOIN_RESP, FrameKind::JoinResponse),
            (T_REVOKE_ANNOUNCE, FrameKind::RevokeAnnounce),
            (T_REVOKE_REVEAL, FrameKind::RevokeReveal),
        ] {
            assert_eq!(FrameKind::classify(&[tag]), kind, "tag 0x{tag:02x}");
        }
    }

    fn roundtrip(m: Message) {
        let enc = m.encode();
        let dec = Message::decode(&enc).expect("decode");
        assert_eq!(dec, m);
    }

    #[test]
    fn roundtrip_all_outer_variants() {
        roundtrip(Message::Hello {
            nonce: 77,
            sealed: Bytes::from_static(b"ciphertextandtagciphertext"),
        });
        roundtrip(Message::LinkAdvert {
            nonce: 1,
            sealed: Bytes::from_static(b"x"),
        });
        roundtrip(Message::Wrapped {
            cid: 13,
            nonce: u64::MAX,
            sealed: Bytes::from_static(b"wrapped payload"),
        });
        roundtrip(Message::Revoke {
            link: Key128::from_bytes([9; 16]),
            seq: 3,
            cids: vec![13, 9, 19],
            tag: [1, 2, 3, 4, 5, 6, 7, 8],
        });
        roundtrip(Message::Revoke {
            link: Key128::ZERO,
            seq: 0,
            cids: vec![],
            tag: [0; 8],
        });
        roundtrip(Message::RevokeAnnounce {
            seq: 9,
            cids: vec![13, 19],
            tag: [7; 8],
        });
        roundtrip(Message::RevokeAnnounce {
            seq: 0,
            cids: vec![],
            tag: [0; 8],
        });
        roundtrip(Message::RevokeReveal {
            seq: 9,
            link: Key128::from_bytes([4; 16]),
        });
        roundtrip(Message::JoinRequest { new_id: 42 });
        roundtrip(Message::JoinResponse {
            cid: 13,
            epoch: 2,
            tag: [8; 8],
        });
    }

    #[test]
    fn roundtrip_inner_variants() {
        for inner in [
            Inner::Beacon,
            Inner::RefreshHello {
                epoch: 5,
                new_kc: Key128::from_bytes([3; 16]),
            },
            Inner::Ack { key: u64::MAX },
            Inner::Ack { key: 0 },
            Inner::BusyAck { key: 42 },
            Inner::RouteRequest,
            Inner::Heartbeat,
            Inner::NewHead {
                new_cid: 77,
                new_kc: Key128::from_bytes([6; 16]),
            },
            Inner::Data(DataUnit {
                src: 14,
                ctr: Some(99),
                sealed: true,
                body: Bytes::from_static(b"reading"),
            }),
            Inner::Data(DataUnit {
                src: 14,
                ctr: None,
                sealed: false,
                body: Bytes::new(),
            }),
            Inner::SinkBeacon { sink: 3 },
            Inner::SinkBeacon { sink: u32::MAX },
            Inner::SinkData {
                sink: 1,
                unit: DataUnit {
                    src: 14,
                    ctr: Some(7),
                    sealed: true,
                    body: Bytes::from_static(b"reading"),
                },
            },
        ] {
            let enc = inner.encode();
            assert_eq!(Inner::decode(&enc).unwrap(), inner);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[0xFF]).is_err());
        assert!(Message::decode(&[T_HELLO, 1, 2]).is_err()); // truncated nonce
        assert!(Message::decode(&[T_JOIN_REQ, 1, 2, 3]).is_err()); // short id
        assert!(Message::decode(&[T_JOIN_REQ, 1, 2, 3, 4, 5]).is_err()); // trailing
        assert!(Inner::decode(&[]).is_err());
        assert!(Inner::decode(&[0x00]).is_err());
        assert!(Inner::decode(&[I_BEACON, 1]).is_err()); // trailing bytes
        assert!(Inner::decode(&[I_DATA, 0, 0, 0, 1, 0xFF]).is_err()); // bad flags
        assert!(Inner::decode(&[I_ACK, 1, 2, 3]).is_err()); // short key
        assert!(Inner::decode(&[I_BUSY_ACK, 1, 2, 3]).is_err()); // short key
        assert!(Inner::decode(&[I_ROUTE_REQ, 0]).is_err()); // trailing bytes
        assert!(Inner::decode(&[I_HEARTBEAT, 0]).is_err()); // trailing bytes
        assert!(Inner::decode(&[I_NEW_HEAD, 0, 0, 0, 1]).is_err()); // short key
        assert!(Inner::decode(&[I_SINK_BEACON, 0, 0, 1]).is_err()); // short sink id
        assert!(Inner::decode(&[I_SINK_BEACON, 0, 0, 0, 1, 9]).is_err()); // trailing
        assert!(Inner::decode(&[I_SINK_DATA, 0, 0, 0, 1]).is_err()); // missing unit
        assert!(Inner::decode(&[I_SINK_DATA, 0, 0, 0, 1, 0, 0, 0, 2, 0xFF]).is_err());
        // bad flags
    }

    #[test]
    fn revoke_length_validation() {
        // Claim 5 cids but provide 1.
        let m = Message::Revoke {
            link: Key128::ZERO,
            seq: 1,
            cids: vec![7],
            tag: [0; 8],
        };
        let mut enc = m.encode().to_vec();
        // Bump the count field (offset: 1 type + 16 key + 4 seq).
        enc[21] = 0;
        enc[22] = 5;
        assert_eq!(Message::decode(&enc), Err(ProtocolError::Malformed));
    }

    #[test]
    fn data_unit_ctr_flag() {
        let with = DataUnit {
            src: 1,
            ctr: Some(8),
            sealed: false,
            body: Bytes::from_static(b"z"),
        };
        let without = DataUnit {
            src: 1,
            ctr: None,
            sealed: false,
            body: Bytes::from_static(b"z"),
        };
        // Explicit counter costs exactly 8 extra bytes.
        assert_eq!(
            Inner::Data(with).encode().len(),
            Inner::Data(without).encode().len() + 8
        );
    }

    #[test]
    fn dedup_key_counter_independent() {
        let a = DataUnit {
            src: 3,
            ctr: Some(1),
            sealed: false,
            body: Bytes::from_static(b"same"),
        };
        let mut b = a.clone();
        b.ctr = Some(2);
        assert_eq!(a.dedup_key(), b.dedup_key());
        let mut c = a.clone();
        c.body = Bytes::from_static(b"diff");
        assert_ne!(a.dedup_key(), c.dedup_key());
        let mut d = a.clone();
        d.src = 4;
        assert_ne!(a.dedup_key(), d.dedup_key());
    }

    #[test]
    fn peek_wrapped_agrees_with_decode() {
        let m = Message::Wrapped {
            cid: 13,
            nonce: 0xDEAD_BEEF,
            sealed: Bytes::from_static(b"sealed payload"),
        };
        let enc = m.encode();
        let (cid, nonce, sealed) = Message::peek_wrapped(&enc).expect("wrapped");
        assert_eq!(
            (cid, nonce, sealed),
            (13, 0xDEAD_BEEF, &b"sealed payload"[..])
        );

        // Empty sealed region is still well-formed, matching decode.
        let empty = Message::Wrapped {
            cid: 1,
            nonce: 2,
            sealed: Bytes::new(),
        }
        .encode();
        assert_eq!(Message::peek_wrapped(&empty), Some((1, 2, &[][..])));
        assert!(Message::decode(&empty).is_ok());

        // Non-wrapped and truncated frames: None, and decode agrees.
        let hello = Message::Hello {
            nonce: 1,
            sealed: Bytes::from_static(b"xxxxxxxx"),
        }
        .encode();
        assert_eq!(Message::peek_wrapped(&hello), None);
        assert_eq!(Message::peek_wrapped(&enc[..12]), None);
        assert!(Message::decode(&enc[..12]).is_err());
        assert_eq!(Message::peek_wrapped(&[]), None);
    }

    #[test]
    fn peek_setup_agrees_with_decode() {
        let sealed = Bytes::from_static(b"sealed setup payload");
        for m in [
            Message::Hello {
                nonce: 7,
                sealed: sealed.clone(),
            },
            Message::LinkAdvert {
                nonce: 9,
                sealed: sealed.clone(),
            },
        ] {
            let enc = m.encode();
            let (kind, nonce, body) = Message::peek_setup(&enc).expect("setup frame");
            let rebuilt = match kind {
                FrameKind::Hello => Message::Hello {
                    nonce,
                    sealed: Bytes::copy_from_slice(body),
                },
                _ => Message::LinkAdvert {
                    nonce,
                    sealed: Bytes::copy_from_slice(body),
                },
            };
            assert_eq!(rebuilt, m);
            assert_eq!(Message::decode(&enc).unwrap(), m);
            // Truncated nonce: None, and decode agrees.
            assert_eq!(Message::peek_setup(&enc[..8]), None);
            assert!(Message::decode(&enc[..8]).is_err());
        }
        let wrapped = Message::Wrapped {
            cid: 1,
            nonce: 2,
            sealed,
        }
        .encode();
        assert_eq!(Message::peek_setup(&wrapped), None);
        assert_eq!(Message::peek_setup(&[]), None);
    }

    #[test]
    fn encode_into_appends_to_scratch() {
        let m = Message::JoinRequest { new_id: 7 };
        let mut scratch = BytesMut::with_capacity(64);
        scratch.put_u8(0xEE); // pre-existing content must survive
        m.encode_into(&mut scratch);
        assert_eq!(scratch[0], 0xEE);
        assert_eq!(&scratch[1..], &m.encode()[..]);
    }

    #[test]
    fn hello_frame_size_is_small() {
        // Sanity on radio cost: HELLO = 1 type + 8 nonce + sealed(20 pt + 8 tag).
        let m = Message::Hello {
            nonce: 0,
            sealed: Bytes::from(vec![0u8; 28]),
        };
        assert_eq!(m.encode().len(), 37);
    }
}

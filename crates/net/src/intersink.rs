//! The inter-sink control plane: authenticated sink-to-sink sync over
//! UDP, a deterministic failure detector, and the failover logic that
//! re-homes a dead sink's nodes — turning k independent `wsn-bs`
//! processes into one distributed base-station service.
//!
//! Three message families ride one datagram protocol (framed with a
//! magic, a hand-rolled big-endian body, and a truncated HMAC-SHA256
//! tag under a key derived from the provisioning master secret):
//!
//! * **Keyed heartbeats** — each sink beacons `Heartbeat{from, seq}`
//!   to every peer. The [`FailureDetector`] turns silence into
//!   `Suspected` (exponential suspicion backoff) and finally `Dead`.
//! * **Two-phase handoffs** — the socket realization of the in-sim
//!   `rehome_to_nearest` (`take_node_state`/`install_node_state`). The
//!   sender journals a `HandoffIntent`, ships a *copy* of the entry in
//!   a `Handoff` message, and only retires its own copy (journaling
//!   `RehomeOut`) once the receiver's `HandoffAck` arrives — between
//!   the two steps both sinks hold the entry, so a lost datagram can
//!   delay but never lose a key entry.
//! * **Replicated revocation appends** — single-writer at sink 0, as
//!   in the in-sim partition: sink 0 issues `RevAppend{seq, …}` and
//!   retries until every peer acked; replicas apply each sequence
//!   number once and ignore appends from any other writer.
//!
//! Failover needs no state from the dead sink's disk: every daemon
//! provisions the *full* id space from the shared seed before
//! filtering its serving registry, so the takeover sink re-derives the
//! dead sink's `Ki` entries locally and installs them through the
//! worker control bus, journaling `FailoverIn` records — the takeover
//! itself is crash-safe, and the offline WAL oracle counts the
//! borrowed entries toward the union.
//!
//! The protocol logic lives in [`ControlCore`], a pure state machine
//! driven by `(message | tick, now)` and emitting [`CoreOut`] effects —
//! deterministic and unit-testable with a logical clock. The
//! [`ControlPlane`] driver owns the socket (optionally wrapped in the
//! [`FaultySocket`] shim, so partition-between-sinks is seeded and
//! reproducible), translates effects into sends and worker
//! [`CtrlCmd`]s, and runs on the wall clock.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;
use wsn_core::forward::CounterWindow;
use wsn_core::keys::Provisioner;
use wsn_core::sink::{home_sink, SinkNodeState};
use wsn_crypto::hmac::HmacKey;
use wsn_crypto::Key128;
use wsn_sim::rng::derive_seed;
use wsn_trace::{TraceEvent, TraceSink};

use crate::fault::{FaultConfig, FaultySocket};
use crate::shard::CtrlCmd;
use crate::udp::{wall_us, SharedTrace};

/// Wire magic + version for inter-sink datagrams.
pub const INTERSINK_MAGIC: &[u8; 4] = b"ISK1";
/// Truncated HMAC-SHA256 tag appended to every datagram.
pub const TAG_BYTES: usize = 16;
/// Fault-shim link-id base for inter-sink sockets: sink `i` sends on
/// link `INTERSINK_LINK_BASE + i` (distinct from the load generator's
/// per-thread links, which start at 1).
pub const INTERSINK_LINK_BASE: u32 = 9_000;
/// Fault-shim peer id for all inter-sink traffic.
pub const INTERSINK_PEER: u32 = 9_999;

const T_HEARTBEAT: u8 = 0x01;
const T_HANDOFF: u8 = 0x02;
const T_HANDOFF_ACK: u8 = 0x03;
const T_REV_APPEND: u8 = 0x04;
const T_REV_ACK: u8 = 0x05;

/// Derives the shared inter-sink authentication key from the master
/// key `Km`. Every sink derives the same `Km` from the deployment seed,
/// so no extra key distribution is needed; the label separates this
/// use from every protocol MAC.
pub fn intersink_key(km: &Key128) -> HmacKey {
    let derived = wsn_crypto::hmac::HmacSha256::mac(km.as_bytes(), b"wsn-intersink-auth-v1");
    HmacKey::new(&derived)
}

/// One inter-sink control message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SinkMsg {
    /// Periodic keyed liveness beacon.
    Heartbeat {
        /// Sending sink.
        from: u32,
        /// Monotonic per-sender beacon counter.
        seq: u64,
    },
    /// Two-phase handoff, phase 1: a copy of a node's partition entry.
    Handoff {
        /// Sending sink (current owner).
        from: u32,
        /// Node whose entry is offered.
        node: u32,
        /// The node's `Ki`.
        ki: Key128,
        /// The replay window's last accepted counter, if any.
        last_ctr: Option<u64>,
    },
    /// Two-phase handoff, phase 2: the receiver holds the entry
    /// durably; the sender may retire its copy.
    HandoffAck {
        /// Acknowledging sink (new owner).
        from: u32,
        /// Node whose install was journaled.
        node: u32,
    },
    /// Replicated revocation-chain append (single-writer at sink 0).
    RevAppend {
        /// Originating sink — replicas only accept 0.
        from: u32,
        /// Append sequence number; each is applied at most once.
        seq: u32,
        /// Cluster ids whose keys are deleted.
        cids: Vec<u32>,
        /// Member node ids marked evicted.
        nodes: Vec<u32>,
    },
    /// Acknowledges a revocation append up to `seq`.
    RevAck {
        /// Acknowledging sink.
        from: u32,
        /// The acked append.
        seq: u32,
    },
}

fn put_u32_list(out: &mut Vec<u8>, v: &[u32]) {
    out.extend_from_slice(&(v.len() as u32).to_be_bytes());
    for x in v {
        out.extend_from_slice(&x.to_be_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Option<u8> {
        let (&b, rest) = self.buf.split_first()?;
        self.buf = rest;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        if self.buf.len() < 4 {
            return None;
        }
        let (head, rest) = self.buf.split_at(4);
        self.buf = rest;
        Some(u32::from_be_bytes(head.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        if self.buf.len() < 8 {
            return None;
        }
        let (head, rest) = self.buf.split_at(8);
        self.buf = rest;
        Some(u64::from_be_bytes(head.try_into().ok()?))
    }

    fn key(&mut self) -> Option<Key128> {
        if self.buf.len() < 16 {
            return None;
        }
        let (head, rest) = self.buf.split_at(16);
        self.buf = rest;
        Some(Key128::from_slice(head))
    }

    fn u32_list(&mut self) -> Option<Vec<u32>> {
        let n = self.u32()? as usize;
        if self.buf.len() < n.checked_mul(4)? {
            return None;
        }
        (0..n).map(|_| self.u32()).collect()
    }

    fn done(&self) -> bool {
        self.buf.is_empty()
    }
}

impl SinkMsg {
    /// Encodes the message body (no magic, no tag).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            SinkMsg::Heartbeat { from, seq } => {
                out.push(T_HEARTBEAT);
                out.extend_from_slice(&from.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
            }
            SinkMsg::Handoff {
                from,
                node,
                ki,
                last_ctr,
            } => {
                out.push(T_HANDOFF);
                out.extend_from_slice(&from.to_be_bytes());
                out.extend_from_slice(&node.to_be_bytes());
                out.extend_from_slice(ki.as_bytes());
                match last_ctr {
                    Some(c) => {
                        out.push(1);
                        out.extend_from_slice(&c.to_be_bytes());
                    }
                    None => out.push(0),
                }
            }
            SinkMsg::HandoffAck { from, node } => {
                out.push(T_HANDOFF_ACK);
                out.extend_from_slice(&from.to_be_bytes());
                out.extend_from_slice(&node.to_be_bytes());
            }
            SinkMsg::RevAppend {
                from,
                seq,
                cids,
                nodes,
            } => {
                out.push(T_REV_APPEND);
                out.extend_from_slice(&from.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
                put_u32_list(&mut out, cids);
                put_u32_list(&mut out, nodes);
            }
            SinkMsg::RevAck { from, seq } => {
                out.push(T_REV_ACK);
                out.extend_from_slice(&from.to_be_bytes());
                out.extend_from_slice(&seq.to_be_bytes());
            }
        }
        out
    }

    /// Decodes one message body; the full buffer must be consumed.
    /// Never panics on arbitrary input.
    pub fn decode(bytes: &[u8]) -> Option<SinkMsg> {
        let mut r = Reader { buf: bytes };
        let msg = match r.u8()? {
            T_HEARTBEAT => SinkMsg::Heartbeat {
                from: r.u32()?,
                seq: r.u64()?,
            },
            T_HANDOFF => {
                let from = r.u32()?;
                let node = r.u32()?;
                let ki = r.key()?;
                let last_ctr = match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    _ => return None,
                };
                SinkMsg::Handoff {
                    from,
                    node,
                    ki,
                    last_ctr,
                }
            }
            T_HANDOFF_ACK => SinkMsg::HandoffAck {
                from: r.u32()?,
                node: r.u32()?,
            },
            T_REV_APPEND => {
                let from = r.u32()?;
                let seq = r.u32()?;
                let cids = r.u32_list()?;
                let nodes = r.u32_list()?;
                SinkMsg::RevAppend {
                    from,
                    seq,
                    cids,
                    nodes,
                }
            }
            T_REV_ACK => SinkMsg::RevAck {
                from: r.u32()?,
                seq: r.u32()?,
            },
            _ => return None,
        };
        r.done().then_some(msg)
    }
}

/// Seals a message into an authenticated datagram:
/// `magic ‖ body ‖ HMAC-SHA256(key, magic ‖ body)[..16]`.
pub fn seal(key: &HmacKey, msg: &SinkMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(INTERSINK_MAGIC);
    out.extend_from_slice(&msg.encode());
    let tag = key.mac(&out);
    out.extend_from_slice(&tag[..TAG_BYTES]);
    out
}

/// Opens an authenticated datagram: checks magic and tag, then decodes
/// the body. `None` on any failure — truncated, mutated, miskeyed or
/// malformed input never panics.
pub fn open(key: &HmacKey, bytes: &[u8]) -> Option<SinkMsg> {
    if bytes.len() < INTERSINK_MAGIC.len() + 1 + TAG_BYTES {
        return None;
    }
    let (head, tag) = bytes.split_at(bytes.len() - TAG_BYTES);
    if &head[..4] != INTERSINK_MAGIC {
        return None;
    }
    let expect = key.mac(head);
    if !wsn_crypto::ct::eq(&expect[..TAG_BYTES], tag) {
        return None;
    }
    SinkMsg::decode(&head[4..])
}

// ---------------------------------------------------------------------
// Failure detection
// ---------------------------------------------------------------------

/// A peer's liveness verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerStatus {
    /// Heartbeats arriving within the suspect window.
    Up,
    /// Silent past the window; suspicion deadlines doubling.
    Suspected,
    /// Suspicion strikes exhausted.
    Dead,
}

/// A liveness state change reported by [`FailureDetector::tick`] /
/// [`FailureDetector::observe`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// A peer went silent (or missed another suspicion deadline).
    Suspected {
        /// The silent peer.
        peer: u32,
        /// Missed deadlines so far (1 on entry).
        strikes: u32,
    },
    /// A peer exhausted its strikes.
    Dead {
        /// The peer declared dead.
        peer: u32,
    },
    /// A peer previously declared dead is heartbeating again.
    Recovered {
        /// The returning peer.
        peer: u32,
    },
}

struct PeerRecord {
    last_heard: u64,
    status: PeerStatus,
    strikes: u32,
    deadline: u64,
}

/// Fixed-timeout failure detector with exponential suspicion backoff.
///
/// A peer silent for `suspect_after_us` enters `Suspected` with one
/// strike; each further missed deadline doubles the wait
/// (`suspect_after_us << strikes`) until `max_strikes` are exhausted
/// and the peer is `Dead`. Any heartbeat resets a suspect to `Up`; a
/// heartbeat from a `Dead` peer reports `Recovered`. Driven entirely
/// by the caller's clock, so it is deterministic under test and under
/// the fault shim.
pub struct FailureDetector {
    suspect_after_us: u64,
    max_strikes: u32,
    peers: BTreeMap<u32, PeerRecord>,
}

impl FailureDetector {
    /// A detector for `peers`, all considered `Up` as of `now`.
    pub fn new(
        peers: impl IntoIterator<Item = u32>,
        suspect_after_us: u64,
        max_strikes: u32,
        now: u64,
    ) -> FailureDetector {
        FailureDetector {
            suspect_after_us,
            max_strikes: max_strikes.max(1),
            peers: peers
                .into_iter()
                .map(|p| {
                    (
                        p,
                        PeerRecord {
                            last_heard: now,
                            status: PeerStatus::Up,
                            strikes: 0,
                            deadline: 0,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Records a heartbeat from `peer` at `now`.
    pub fn observe(&mut self, peer: u32, now: u64) -> Option<Transition> {
        let rec = self.peers.get_mut(&peer)?;
        rec.last_heard = now;
        let was = rec.status;
        rec.status = PeerStatus::Up;
        rec.strikes = 0;
        (was == PeerStatus::Dead).then_some(Transition::Recovered { peer })
    }

    /// Advances the detector's clock, reporting every state change.
    pub fn tick(&mut self, now: u64) -> Vec<Transition> {
        let mut out = Vec::new();
        for (&peer, rec) in &mut self.peers {
            match rec.status {
                PeerStatus::Up => {
                    if now.saturating_sub(rec.last_heard) > self.suspect_after_us {
                        rec.status = PeerStatus::Suspected;
                        rec.strikes = 1;
                        rec.deadline = now + (self.suspect_after_us << 1);
                        out.push(Transition::Suspected { peer, strikes: 1 });
                    }
                }
                PeerStatus::Suspected => {
                    if now >= rec.deadline {
                        rec.strikes += 1;
                        if rec.strikes > self.max_strikes {
                            rec.status = PeerStatus::Dead;
                            out.push(Transition::Dead { peer });
                        } else {
                            rec.deadline = now + (self.suspect_after_us << rec.strikes.min(16));
                            out.push(Transition::Suspected {
                                peer,
                                strikes: rec.strikes,
                            });
                        }
                    }
                }
                PeerStatus::Dead => {}
            }
        }
        out
    }

    /// The peer's current verdict (`None` for unknown ids).
    pub fn status(&self, peer: u32) -> Option<PeerStatus> {
        self.peers.get(&peer).map(|r| r.status)
    }

    /// Whether the peer has not been declared dead.
    pub fn is_alive(&self, peer: u32) -> bool {
        self.status(peer) != Some(PeerStatus::Dead)
    }
}

// ---------------------------------------------------------------------
// Failover targeting
// ---------------------------------------------------------------------

/// The grid coordinates `wsn_core::sink::sink_positions` assigns sink
/// `i` in a `k`-sink deployment (column-major over `ceil(sqrt(k))`
/// columns) — re-derived here so the socket path agrees with the
/// in-sim layout without needing float positions.
fn grid_pos(i: u32, k: u32) -> (i64, i64) {
    let cols = (k as f64).sqrt().ceil() as u32;
    ((i % cols) as i64, (i / cols) as i64)
}

/// The deterministic failover preference order for `sink`'s nodes:
/// every *other* sink, nearest first by squared grid distance
/// (tie-break: smaller id). Clients walk this order when ARQ against
/// their home sink is exhausted; the takeover side uses
/// [`failover_target`] on the same order, so both ends agree on the
/// gradient-next sink.
pub fn failover_order(sink: u32, k: u32) -> Vec<u32> {
    let home = grid_pos(sink, k);
    let mut others: Vec<u32> = (0..k).filter(|&s| s != sink).collect();
    others.sort_by_key(|&s| {
        let p = grid_pos(s, k);
        let (dx, dy) = (p.0 - home.0, p.1 - home.1);
        (dx * dx + dy * dy, s)
    });
    others
}

/// The surviving sink that takes over `dead`'s nodes: the first sink
/// in [`failover_order`] that `alive` accepts.
pub fn failover_target(dead: u32, k: u32, mut alive: impl FnMut(u32) -> bool) -> Option<u32> {
    failover_order(dead, k).into_iter().find(|&s| alive(s))
}

// ---------------------------------------------------------------------
// Control-plane state machine
// ---------------------------------------------------------------------

/// An effect the [`ControlCore`] asks its driver to perform.
#[derive(Debug)]
pub enum CoreOut {
    /// Seal and send `msg` to sink `to`.
    Send {
        /// Destination sink id.
        to: u32,
        /// The message.
        msg: SinkMsg,
    },
    /// Install a partition entry in the local worker shard for
    /// `state.id`. `from_sink: Some(dead)` is a failover takeover
    /// (journals `FailoverIn`); `None` a received handoff (`RehomeIn`).
    Install {
        /// The entry to install.
        state: SinkNodeState,
        /// Provenance for takeovers.
        from_sink: Option<u32>,
    },
    /// Start (or retry) returning a borrowed entry to its recovered
    /// home: copy it from the worker, journal the intent, send the
    /// `Handoff` message.
    BeginReturn {
        /// Node whose entry to return.
        node: u32,
        /// The recovered home sink.
        to: u32,
    },
    /// The receiver acked: retire the local entry (journals
    /// `RehomeOut`) and emit `HandoffCommitted`.
    Commit {
        /// Node whose handoff committed.
        node: u32,
        /// The sink that now owns it.
        to: u32,
    },
    /// Apply a revocation append to every local worker shard.
    Revoke {
        /// Cluster ids whose keys are deleted.
        cids: Vec<u32>,
        /// Member node ids marked evicted.
        nodes: Vec<u32>,
    },
    /// Record a trace event attributed to `node`.
    Trace {
        /// The record's subject node.
        node: u32,
        /// The event.
        event: TraceEvent,
    },
}

struct PendingReturn {
    to: u32,
    next_send: u64,
}

struct PendingRev {
    cids: Vec<u32>,
    nodes: Vec<u32>,
    unacked: BTreeSet<u32>,
    next_send: u64,
}

/// Timing knobs for [`ControlCore`].
#[derive(Clone, Copy, Debug)]
pub struct ControlTiming {
    /// Heartbeat send interval.
    pub heartbeat_us: u64,
    /// Silence before a peer is suspected.
    pub suspect_after_us: u64,
    /// Suspicion strikes before a peer is dead.
    pub max_strikes: u32,
    /// Retry interval for unacked handoffs and revocation appends.
    pub retry_us: u64,
}

impl ControlTiming {
    /// The sink-failover soak schedule: 250 ms heartbeats, suspect
    /// after 1 s of silence, dead after 2 missed (doubling) deadlines —
    /// a kill is declared dead in roughly 1 + 2 + 4 = 7 s worst case,
    /// ~3 s typical. Retries every 500 ms.
    pub fn soak() -> ControlTiming {
        ControlTiming {
            heartbeat_us: 250_000,
            suspect_after_us: 1_000_000,
            max_strikes: 2,
            retry_us: 500_000,
        }
    }
}

/// The pure inter-sink protocol state machine for one sink: consumes
/// `(message | tick, now)` and emits [`CoreOut`] effects. All clocking
/// comes from the caller, so the whole failover story — suspicion,
/// death, takeover, failback — runs deterministically under test.
pub struct ControlCore {
    sink: u32,
    k: u32,
    timing: ControlTiming,
    detector: FailureDetector,
    /// Full provisioned registry (`id → Ki`), re-derived from the
    /// shared seed — what makes local takeover possible.
    registry: BTreeMap<u32, Key128>,
    hb_seq: u64,
    next_hb_at: u64,
    /// Entries this sink holds on behalf of dead homes (`node → home`).
    borrowed: BTreeMap<u32, u32>,
    /// Returns in flight, awaiting `HandoffAck`.
    pending_return: BTreeMap<u32, PendingReturn>,
    /// Single-writer revocation replication state (sink 0 only).
    next_rev_seq: u32,
    pending_rev: BTreeMap<u32, PendingRev>,
    /// Appends already applied (replica side), for at-most-once.
    rev_applied: BTreeSet<u32>,
    /// Appends refused because the writer was not sink 0.
    pub rev_rejected: u64,
}

impl ControlCore {
    /// A core for `sink` of `k`, serving the full provisioned
    /// `registry`, with all peers considered up as of `now`.
    pub fn new(
        sink: u32,
        k: u32,
        registry: BTreeMap<u32, Key128>,
        timing: ControlTiming,
        now: u64,
    ) -> ControlCore {
        assert!(sink < k, "sink id {sink} out of range for {k} sinks");
        ControlCore {
            sink,
            k,
            timing,
            detector: FailureDetector::new(
                (0..k).filter(|&s| s != sink),
                timing.suspect_after_us,
                timing.max_strikes,
                now,
            ),
            registry,
            hb_seq: 0,
            next_hb_at: 0,
            borrowed: BTreeMap::new(),
            pending_return: BTreeMap::new(),
            next_rev_seq: 1,
            pending_rev: BTreeMap::new(),
            rev_applied: BTreeSet::new(),
            rev_rejected: 0,
        }
    }

    /// The peer liveness table (for status lines and tests).
    pub fn detector(&self) -> &FailureDetector {
        &self.detector
    }

    /// Nodes currently held on behalf of dead homes.
    pub fn borrowed_nodes(&self) -> Vec<u32> {
        self.borrowed.keys().copied().collect()
    }

    fn peers(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.k).filter(move |&s| s != self.sink)
    }

    /// Whether `s` is this sink (always alive) or a peer not declared
    /// dead.
    fn alive(&self, s: u32) -> bool {
        s == self.sink || self.detector.is_alive(s)
    }

    /// Advances time: heartbeats, detector transitions (with takeover
    /// on death and return-scheduling on recovery), and retries.
    pub fn on_tick(&mut self, now: u64) -> Vec<CoreOut> {
        let mut out = Vec::new();
        if now >= self.next_hb_at {
            let seq = self.hb_seq;
            self.hb_seq += 1;
            self.next_hb_at = now + self.timing.heartbeat_us;
            for p in self.peers().collect::<Vec<_>>() {
                out.push(CoreOut::Send {
                    to: p,
                    msg: SinkMsg::Heartbeat {
                        from: self.sink,
                        seq,
                    },
                });
            }
        }
        for t in self.detector.tick(now) {
            self.apply_transition(t, &mut out);
        }
        // Retry unacked returns.
        for (&node, pr) in &mut self.pending_return {
            if now >= pr.next_send {
                pr.next_send = now + self.timing.retry_us;
                out.push(CoreOut::BeginReturn { node, to: pr.to });
            }
        }
        // Retry unacked revocation appends (writer side).
        for (&seq, pv) in &mut self.pending_rev {
            if now >= pv.next_send {
                pv.next_send = now + self.timing.retry_us;
                for &p in &pv.unacked {
                    out.push(CoreOut::Send {
                        to: p,
                        msg: SinkMsg::RevAppend {
                            from: self.sink,
                            seq,
                            cids: pv.cids.clone(),
                            nodes: pv.nodes.clone(),
                        },
                    });
                }
            }
        }
        self.pending_rev.retain(|_, pv| !pv.unacked.is_empty());
        out
    }

    fn apply_transition(&mut self, t: Transition, out: &mut Vec<CoreOut>) {
        match t {
            Transition::Suspected { peer, strikes } => {
                out.push(CoreOut::Trace {
                    node: self.sink,
                    event: TraceEvent::SinkSuspected {
                        sink: peer,
                        strikes,
                    },
                });
            }
            Transition::Dead { peer } => {
                out.push(CoreOut::Trace {
                    node: self.sink,
                    event: TraceEvent::SinkDead { sink: peer },
                });
                // Takeover only at the gradient-next surviving sink, so
                // exactly one survivor installs the dead sink's nodes.
                if failover_target(peer, self.k, |s| self.alive(s)) == Some(self.sink) {
                    let nodes: Vec<u32> = self
                        .registry
                        .keys()
                        .copied()
                        .filter(|&id| {
                            home_sink(id, self.k) == peer && !self.borrowed.contains_key(&id)
                        })
                        .collect();
                    for id in nodes {
                        self.borrowed.insert(id, peer);
                        out.push(CoreOut::Install {
                            state: SinkNodeState {
                                id,
                                ki: self.registry[&id],
                                window: CounterWindow::new(),
                            },
                            from_sink: Some(peer),
                        });
                    }
                }
            }
            Transition::Recovered { peer } => {
                // Failback: stream the borrowed entries home via the
                // two-phase handoff; each retries until acked.
                for (&node, &home) in &self.borrowed {
                    if home == peer && !self.pending_return.contains_key(&node) {
                        self.pending_return.insert(
                            node,
                            PendingReturn {
                                to: peer,
                                next_send: 0,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Consumes one authenticated peer message.
    pub fn on_message(&mut self, msg: SinkMsg, now: u64) -> Vec<CoreOut> {
        let mut out = Vec::new();
        match msg {
            SinkMsg::Heartbeat { from, .. } => {
                if let Some(t) = self.detector.observe(from, now) {
                    self.apply_transition(t, &mut out);
                }
            }
            SinkMsg::Handoff {
                from,
                node,
                ki,
                last_ctr,
            } => {
                let mut window = CounterWindow::new();
                if let Some(c) = last_ctr {
                    let _ = window.accept(c);
                }
                out.push(CoreOut::Install {
                    state: SinkNodeState {
                        id: node,
                        ki,
                        window,
                    },
                    from_sink: None,
                });
                // A returned entry is ours again, not borrowed.
                self.borrowed.remove(&node);
                out.push(CoreOut::Send {
                    to: from,
                    msg: SinkMsg::HandoffAck {
                        from: self.sink,
                        node,
                    },
                });
            }
            SinkMsg::HandoffAck { from, node } => {
                if let Some(pr) = self.pending_return.get(&node) {
                    if pr.to == from {
                        self.pending_return.remove(&node);
                        self.borrowed.remove(&node);
                        out.push(CoreOut::Commit { node, to: from });
                        out.push(CoreOut::Trace {
                            node,
                            event: TraceEvent::HandoffCommitted {
                                from_sink: self.sink,
                                to_sink: from,
                            },
                        });
                    }
                }
            }
            SinkMsg::RevAppend {
                from,
                seq,
                cids,
                nodes,
            } => {
                // Single-writer: replicas only accept sink 0, and the
                // writer itself never accepts an append.
                if from != 0 || self.sink == 0 {
                    self.rev_rejected += 1;
                } else {
                    out.push(CoreOut::Send {
                        to: from,
                        msg: SinkMsg::RevAck {
                            from: self.sink,
                            seq,
                        },
                    });
                    if self.rev_applied.insert(seq) {
                        out.push(CoreOut::Revoke { cids, nodes });
                    }
                }
            }
            SinkMsg::RevAck { from, seq } => {
                if let Some(pv) = self.pending_rev.get_mut(&seq) {
                    pv.unacked.remove(&from);
                    if pv.unacked.is_empty() {
                        self.pending_rev.remove(&seq);
                    }
                }
            }
        }
        out
    }

    /// Originates a replicated revocation append. Only sink 0 — the
    /// single writer — may call this; other sinks get no effects and a
    /// bumped rejection counter.
    pub fn request_revocation(
        &mut self,
        cids: Vec<u32>,
        nodes: Vec<u32>,
        now: u64,
    ) -> Vec<CoreOut> {
        if self.sink != 0 {
            self.rev_rejected += 1;
            return Vec::new();
        }
        let seq = self.next_rev_seq;
        self.next_rev_seq += 1;
        let mut out = vec![CoreOut::Revoke {
            cids: cids.clone(),
            nodes: nodes.clone(),
        }];
        let unacked: BTreeSet<u32> = self.peers().collect();
        for &p in &unacked {
            out.push(CoreOut::Send {
                to: p,
                msg: SinkMsg::RevAppend {
                    from: self.sink,
                    seq,
                    cids: cids.clone(),
                    nodes: nodes.clone(),
                },
            });
        }
        self.pending_rev.insert(
            seq,
            PendingRev {
                cids,
                nodes,
                unacked,
                next_send: now + self.timing.retry_us,
            },
        );
        out
    }
}

// ---------------------------------------------------------------------
// Socket driver
// ---------------------------------------------------------------------

/// Live counters of one [`ControlPlane`].
#[derive(Debug, Default)]
pub struct ControlStats {
    /// Heartbeats sent.
    pub heartbeats_tx: AtomicU64,
    /// Authenticated messages received.
    pub msgs_rx: AtomicU64,
    /// Datagrams that failed open (bad tag / magic / body).
    pub bad_auth: AtomicU64,
    /// Suspicion transitions observed.
    pub suspicions: AtomicU64,
    /// Peers declared dead.
    pub deaths: AtomicU64,
    /// Entries installed by failover takeover.
    pub takeover_nodes: AtomicU64,
    /// Two-phase handoffs committed (failback returns).
    pub handoffs_committed: AtomicU64,
    /// Revocation appends applied locally.
    pub revocations_applied: AtomicU64,
}

/// Configuration of one [`ControlPlane`].
#[derive(Clone, Debug)]
pub struct ControlPlaneConfig {
    /// This sink's id.
    pub sink: u32,
    /// Total sinks.
    pub k: u32,
    /// Provisioned id space (must match the data-plane server's `n`).
    pub n: usize,
    /// Deployment seed (auth key and takeover registry derive from it).
    pub seed: u64,
    /// Address to bind the control socket on.
    pub bind: SocketAddr,
    /// Control addresses of all `k` sinks, indexed by sink id
    /// (`peers[self.sink]` is ignored).
    pub peers: Vec<SocketAddr>,
    /// Protocol timing.
    pub timing: ControlTiming,
    /// Wrap the control socket in the deterministic fault shim —
    /// partition-between-sinks, seeded and reproducible. `None` runs
    /// on the bare socket.
    pub faults: Option<FaultConfig>,
}

enum ControlReq {
    Revoke { cids: Vec<u32>, nodes: Vec<u32> },
}

/// A running inter-sink control plane: one thread owning the control
/// socket and a [`ControlCore`], bridged to the data-plane worker
/// shards through their [`CtrlCmd`] channels.
pub struct ControlPlane {
    stats: Arc<ControlStats>,
    shutdown: Arc<AtomicBool>,
    req_tx: mpsc::Sender<ControlReq>,
    thread: Option<JoinHandle<()>>,
}

impl ControlPlane {
    /// Derives key material, binds the control socket (wrapped in the
    /// fault shim when configured), and starts the driver thread.
    /// `workers` are the data-plane server's control channels
    /// ([`crate::udp::UdpServer::control_senders`]).
    pub fn spawn(
        cfg: ControlPlaneConfig,
        workers: Vec<mpsc::Sender<CtrlCmd>>,
        trace: Option<Box<dyn TraceSink>>,
    ) -> io::Result<ControlPlane> {
        assert!(!workers.is_empty(), "control plane needs worker channels");
        assert_eq!(
            cfg.peers.len(),
            cfg.k as usize,
            "need one peer addr per sink"
        );
        let mut provisioner = Provisioner::new(derive_seed(cfg.seed, 1));
        for id in 0..cfg.n as u32 {
            provisioner.provision(id);
        }
        let key = intersink_key(&provisioner.km());
        let registry: BTreeMap<u32, Key128> = provisioner
            .registry()
            .iter()
            .map(|(&id, &ki)| (id, ki))
            .collect();

        let sock = UdpSocket::bind(cfg.bind)?;
        sock.set_read_timeout(Some(Duration::from_millis(20)))?;
        let faults = cfg.faults.clone().unwrap_or_else(FaultConfig::disabled);
        let link = INTERSINK_LINK_BASE + cfg.sink;
        let faults = FaultConfig {
            seed: derive_seed(faults.seed, link as u64),
            ..faults
        };
        let mut socket = FaultySocket::new(sock, faults, link, INTERSINK_PEER);

        let stats = Arc::new(ControlStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (req_tx, req_rx) = mpsc::channel::<ControlReq>();
        let thread_stats = Arc::clone(&stats);
        let thread_shutdown = Arc::clone(&shutdown);
        let trace = trace.map(SharedTrace::new);

        let thread = std::thread::spawn(move || {
            let mut core = ControlCore::new(cfg.sink, cfg.k, registry, cfg.timing, wall_us());
            let w = workers.len();
            let mut buf = vec![0u8; 2048];
            while !thread_shutdown.load(Ordering::Relaxed) {
                let mut outs = Vec::new();
                while let Ok(req) = req_rx.try_recv() {
                    match req {
                        ControlReq::Revoke { cids, nodes } => {
                            outs.extend(core.request_revocation(cids, nodes, wall_us()));
                        }
                    }
                }
                // Errors are timeouts (the shutdown poll) or transient.
                if let Ok((len, _addr)) = socket.recv_from(&mut buf) {
                    match open(&key, &buf[..len]) {
                        Some(msg) => {
                            thread_stats.msgs_rx.fetch_add(1, Ordering::Relaxed);
                            outs.extend(core.on_message(msg, wall_us()));
                        }
                        None => {
                            thread_stats.bad_auth.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                outs.extend(core.on_tick(wall_us()));

                for o in outs {
                    match o {
                        CoreOut::Send { to, msg } => {
                            if let SinkMsg::Heartbeat { .. } = msg {
                                thread_stats.heartbeats_tx.fetch_add(1, Ordering::Relaxed);
                            }
                            let frame = seal(&key, &msg);
                            let _ = socket.send_to(&frame, cfg.peers[to as usize]);
                        }
                        CoreOut::Install { state, from_sink } => {
                            if from_sink.is_some() {
                                thread_stats.takeover_nodes.fetch_add(1, Ordering::Relaxed);
                            }
                            let shard = state.id as usize % w;
                            let _ = workers[shard].send(CtrlCmd::Install { state, from_sink });
                        }
                        CoreOut::BeginReturn { node, to } => {
                            let (reply_tx, reply_rx) = mpsc::sync_channel(1);
                            let shard = node as usize % w;
                            let _ = workers[shard].send(CtrlCmd::TakeCopy {
                                node,
                                reply: reply_tx,
                            });
                            if let Ok(Some(state)) =
                                reply_rx.recv_timeout(Duration::from_millis(200))
                            {
                                let _ =
                                    workers[shard].send(CtrlCmd::NoteIntent { node, to_sink: to });
                                let msg = SinkMsg::Handoff {
                                    from: cfg.sink,
                                    node,
                                    ki: state.ki,
                                    last_ctr: state.window.last(),
                                };
                                let frame = seal(&key, &msg);
                                let _ = socket.send_to(&frame, cfg.peers[to as usize]);
                            }
                        }
                        CoreOut::Commit { node, .. } => {
                            thread_stats
                                .handoffs_committed
                                .fetch_add(1, Ordering::Relaxed);
                            let _ = workers[node as usize % w].send(CtrlCmd::Retire { node });
                        }
                        CoreOut::Revoke { cids, nodes } => {
                            thread_stats
                                .revocations_applied
                                .fetch_add(1, Ordering::Relaxed);
                            for wtx in &workers {
                                let _ = wtx.send(CtrlCmd::Revoke {
                                    cids: cids.clone(),
                                    nodes: nodes.clone(),
                                });
                            }
                        }
                        CoreOut::Trace { node, event } => {
                            match event {
                                TraceEvent::SinkSuspected { .. } => {
                                    thread_stats.suspicions.fetch_add(1, Ordering::Relaxed);
                                }
                                TraceEvent::SinkDead { .. } => {
                                    thread_stats.deaths.fetch_add(1, Ordering::Relaxed);
                                }
                                _ => {}
                            }
                            if let Some(t) = &trace {
                                t.record(wall_us(), node, event);
                            }
                        }
                    }
                }
            }
        });

        Ok(ControlPlane {
            stats,
            shutdown,
            req_tx,
            thread: Some(thread),
        })
    }

    /// Live counters.
    pub fn stats(&self) -> &Arc<ControlStats> {
        &self.stats
    }

    /// Requests a replicated revocation append (meaningful at sink 0;
    /// other sinks count a rejection, enforcing the single writer).
    pub fn request_revocation(&self, cids: Vec<u32>, nodes: Vec<u32>) {
        let _ = self.req_tx.send(ControlReq::Revoke { cids, nodes });
    }

    /// Signals the driver thread to stop and joins it.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ControlPlane {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> HmacKey {
        intersink_key(&Key128::from_bytes([7; 16]))
    }

    fn all_msgs() -> Vec<SinkMsg> {
        vec![
            SinkMsg::Heartbeat { from: 1, seq: 42 },
            SinkMsg::Handoff {
                from: 2,
                node: 17,
                ki: Key128::from_bytes([9; 16]),
                last_ctr: Some(99),
            },
            SinkMsg::Handoff {
                from: 0,
                node: 18,
                ki: Key128::from_bytes([1; 16]),
                last_ctr: None,
            },
            SinkMsg::HandoffAck { from: 1, node: 17 },
            SinkMsg::RevAppend {
                from: 0,
                seq: 5,
                cids: vec![3, 4],
                nodes: vec![3, 4, 5],
            },
            SinkMsg::RevAck { from: 2, seq: 5 },
        ]
    }

    #[test]
    fn codec_roundtrip() {
        for m in all_msgs() {
            assert_eq!(SinkMsg::decode(&m.encode()), Some(m.clone()), "{m:?}");
        }
    }

    #[test]
    fn codec_rejects_truncation_padding_garbage() {
        for m in all_msgs() {
            let bytes = m.encode();
            for cut in 0..bytes.len() {
                assert_eq!(SinkMsg::decode(&bytes[..cut]), None, "{m:?} cut {cut}");
            }
            let mut padded = bytes.clone();
            padded.push(0);
            assert_eq!(SinkMsg::decode(&padded), None);
        }
        assert_eq!(SinkMsg::decode(&[]), None);
        assert_eq!(SinkMsg::decode(&[0xFF; 8]), None);
    }

    #[test]
    fn seal_open_roundtrip_and_auth() {
        let k = key();
        for m in all_msgs() {
            let frame = seal(&k, &m);
            assert_eq!(open(&k, &frame), Some(m.clone()));
            // Any single-byte mutation breaks authentication or decode.
            for i in 0..frame.len() {
                let mut bad = frame.clone();
                bad[i] ^= 0x40;
                assert_eq!(open(&k, &bad), None, "{m:?} flip {i}");
            }
            // Truncations never open.
            for cut in 0..frame.len() {
                assert_eq!(open(&k, &frame[..cut]), None);
            }
            // A different key never opens.
            let other = intersink_key(&Key128::from_bytes([8; 16]));
            assert_eq!(open(&other, &frame), None);
        }
    }

    #[test]
    fn detector_suspects_backs_off_and_kills() {
        let mut d = FailureDetector::new([1, 2], 1_000, 2, 0);
        assert!(d.tick(1_000).is_empty());
        // Silence past the window: both suspected, strike 1.
        let t = d.tick(1_001);
        assert_eq!(
            t,
            vec![
                Transition::Suspected {
                    peer: 1,
                    strikes: 1
                },
                Transition::Suspected {
                    peer: 2,
                    strikes: 1
                },
            ]
        );
        // Peer 1 heartbeats during suspicion → silently back up.
        assert_eq!(d.observe(1, 1_500), None);
        assert_eq!(d.status(1), Some(PeerStatus::Up));
        // Peer 2 misses the doubled deadline (1_001 + 2_000); peer 1
        // keeps heartbeating.
        assert_eq!(d.observe(1, 3_000), None);
        let t = d.tick(3_001);
        assert_eq!(
            t,
            vec![Transition::Suspected {
                peer: 2,
                strikes: 2
            }]
        );
        // And the next (1 << 2 backoff): strikes exhausted → dead.
        assert_eq!(d.observe(1, 7_000), None);
        let t = d.tick(7_001);
        assert_eq!(t, vec![Transition::Dead { peer: 2 }]);
        assert!(!d.is_alive(2));
        // Heartbeat from the dead: recovered.
        assert_eq!(d.observe(2, 8_000), Some(Transition::Recovered { peer: 2 }));
        assert!(d.is_alive(2));
    }

    #[test]
    fn failover_order_is_total_and_self_free() {
        for k in [2u32, 3, 4, 8] {
            for s in 0..k {
                let order = failover_order(s, k);
                assert_eq!(order.len(), (k - 1) as usize);
                assert!(!order.contains(&s));
                let set: BTreeSet<u32> = order.iter().copied().collect();
                assert_eq!(set.len(), order.len());
                // Deterministic.
                assert_eq!(order, failover_order(s, k));
            }
        }
        // With everyone alive the target is the nearest other sink.
        assert_eq!(
            failover_target(1, 3, |_| true),
            Some(failover_order(1, 3)[0])
        );
        // Skips dead candidates.
        let first = failover_order(0, 4)[0];
        let target = failover_target(0, 4, |s| s != first);
        assert!(target.is_some());
        assert_ne!(target, Some(first));
    }

    fn registry(n: u32) -> BTreeMap<u32, Key128> {
        (0..n)
            .map(|i| (i, Key128::from_bytes([i as u8; 16])))
            .collect()
    }

    /// Delivers every `Send` in `outs` addressed to `to_sink` into
    /// `dst`, returning dst's effects plus the non-send leftovers.
    fn pump(outs: Vec<CoreOut>, to_sink: u32, dst: &mut ControlCore, now: u64) -> Vec<CoreOut> {
        let mut fwd = Vec::new();
        for o in outs {
            if let CoreOut::Send { to, msg } = o {
                if to == to_sink {
                    fwd.extend(dst.on_message(msg, now));
                }
            } else {
                fwd.push(o);
            }
        }
        fwd
    }

    #[test]
    fn death_triggers_takeover_at_gradient_next_sink_only() {
        let k = 3;
        let n = 10;
        let timing = ControlTiming {
            heartbeat_us: 100,
            suspect_after_us: 1_000,
            max_strikes: 1,
            retry_us: 500,
        };
        let target = failover_target(2, k, |_| true).unwrap();
        let bystander = (0..k).find(|&s| s != 2 && s != target).unwrap();
        let mut cores: BTreeMap<u32, ControlCore> = [target, bystander]
            .into_iter()
            .map(|s| (s, ControlCore::new(s, k, registry(n), timing, 0)))
            .collect();
        // Keep the two survivors hearing each other; sink 2 is silent.
        let mut now = 0;
        let mut installs: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        while now < 20_000 {
            now += 100;
            for s in [target, bystander] {
                let outs = {
                    let core = cores.get_mut(&s).unwrap();
                    core.on_tick(now)
                };
                for o in outs {
                    match o {
                        CoreOut::Send { to, msg } => {
                            if let Some(dst) = cores.get_mut(&to) {
                                for eff in dst.on_message(msg, now) {
                                    if let CoreOut::Install { state, from_sink } = eff {
                                        assert_eq!(from_sink, Some(2));
                                        installs.entry(to).or_default().push(state.id);
                                    }
                                }
                            }
                        }
                        CoreOut::Install { state, from_sink } => {
                            assert_eq!(from_sink, Some(2));
                            installs.entry(s).or_default().push(state.id);
                        }
                        _ => {}
                    }
                }
            }
        }
        // Exactly the takeover target installed, and it took exactly
        // sink 2's homes.
        let expected: Vec<u32> = (0..n).filter(|&id| home_sink(id, k) == 2).collect();
        assert_eq!(installs.get(&target), Some(&expected));
        assert_eq!(installs.get(&bystander), None);
        assert_eq!(cores[&target].borrowed_nodes(), expected);
    }

    #[test]
    fn failback_returns_borrowed_entries_via_two_phase_handoff() {
        let k = 2;
        let timing = ControlTiming {
            heartbeat_us: 100,
            suspect_after_us: 1_000,
            max_strikes: 1,
            retry_us: 500,
        };
        let mut a = ControlCore::new(0, k, registry(6), timing, 0);
        let mut b = ControlCore::new(1, k, registry(6), timing, 0);
        // Kill sink 1 from a's perspective: silence through death.
        let mut outs = Vec::new();
        for now in (0..10_000).step_by(100) {
            outs.extend(a.on_tick(now));
        }
        let taken: Vec<u32> = outs
            .iter()
            .filter_map(|o| match o {
                CoreOut::Install { state, .. } => Some(state.id),
                _ => None,
            })
            .collect();
        assert_eq!(taken, vec![1, 3, 5]);
        // Sink 1 comes back: heartbeat → Recovered → BeginReturn per node.
        let outs = a.on_message(SinkMsg::Heartbeat { from: 1, seq: 0 }, 10_000);
        assert!(outs.is_empty());
        let outs = a.on_tick(10_100);
        let returns: Vec<(u32, u32)> = outs
            .iter()
            .filter_map(|o| match o {
                CoreOut::BeginReturn { node, to } => Some((*node, *to)),
                _ => None,
            })
            .collect();
        assert_eq!(returns, vec![(1, 1), (3, 1), (5, 1)]);
        // Driver ships the Handoff; b installs and acks; a commits.
        for (node, _) in returns {
            let handoff = SinkMsg::Handoff {
                from: 0,
                node,
                ki: Key128::from_bytes([node as u8; 16]),
                last_ctr: None,
            };
            let b_outs = b.on_message(handoff, 10_200);
            assert!(matches!(
                b_outs[0],
                CoreOut::Install {
                    from_sink: None,
                    ..
                }
            ));
            let a_outs = pump(b_outs, 0, &mut a, 10_300);
            assert!(a_outs
                .iter()
                .any(|o| matches!(o, CoreOut::Commit { node: n2, to: 1 } if *n2 == node)));
            assert!(a_outs.iter().any(|o| matches!(
                o,
                CoreOut::Trace {
                    event: TraceEvent::HandoffCommitted {
                        from_sink: 0,
                        to_sink: 1
                    },
                    ..
                }
            )));
        }
        assert!(a.borrowed_nodes().is_empty());
        // Retries stop once committed.
        let outs = a.on_tick(11_000);
        assert!(!outs
            .iter()
            .any(|o| matches!(o, CoreOut::BeginReturn { .. })));
    }

    #[test]
    fn revocation_single_writer_replicates_once_with_retries() {
        let timing = ControlTiming {
            heartbeat_us: 1_000_000,
            suspect_after_us: 10_000_000,
            max_strikes: 3,
            retry_us: 500,
        };
        let mut w = ControlCore::new(0, 3, registry(6), timing, 0);
        let mut r1 = ControlCore::new(1, 3, registry(6), timing, 0);
        // Non-writer origination is refused.
        assert!(r1.request_revocation(vec![4], vec![4], 0).is_empty());
        assert_eq!(r1.rev_rejected, 1);
        // Writer applies locally and sends to both peers.
        let outs = w.request_revocation(vec![4], vec![4], 0);
        assert!(matches!(outs[0], CoreOut::Revoke { .. }));
        let sends: Vec<u32> = outs
            .iter()
            .filter_map(|o| match o {
                CoreOut::Send {
                    to,
                    msg: SinkMsg::RevAppend { .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(sends, vec![1, 2]);
        // Replica applies once, acks every delivery (dup included).
        let append = SinkMsg::RevAppend {
            from: 0,
            seq: 1,
            cids: vec![4],
            nodes: vec![4],
        };
        let first = r1.on_message(append.clone(), 10);
        assert!(first.iter().any(|o| matches!(o, CoreOut::Revoke { .. })));
        let dup = r1.on_message(append.clone(), 20);
        assert!(!dup.iter().any(|o| matches!(o, CoreOut::Revoke { .. })));
        assert!(dup.iter().any(|o| matches!(
            o,
            CoreOut::Send {
                to: 0,
                msg: SinkMsg::RevAck { .. }
            }
        )));
        // An append claiming a non-zero writer is refused.
        let forged = SinkMsg::RevAppend {
            from: 2,
            seq: 9,
            cids: vec![1],
            nodes: vec![],
        };
        assert!(r1.on_message(forged, 30).is_empty());
        assert_eq!(r1.rev_rejected, 2);
        // Writer retries the unacked peer (2) but not the acked (1).
        let _ = w.on_message(SinkMsg::RevAck { from: 1, seq: 1 }, 400);
        let outs = w.on_tick(600);
        let retries: Vec<u32> = outs
            .iter()
            .filter_map(|o| match o {
                CoreOut::Send {
                    to,
                    msg: SinkMsg::RevAppend { .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(retries, vec![2]);
        // Final ack clears the pending append.
        let _ = w.on_message(SinkMsg::RevAck { from: 2, seq: 1 }, 700);
        let outs = w.on_tick(1_200);
        assert!(!outs.iter().any(|o| matches!(
            o,
            CoreOut::Send {
                msg: SinkMsg::RevAppend { .. },
                ..
            }
        )));
    }
}

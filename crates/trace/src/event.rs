//! The event vocabulary and the record wrapper sinks receive.

use crate::{NodeId, SimTime};
use bytes::Bytes;
use std::fmt::Write as _;

/// One thing that happened at a node, at either the radio/simulator
/// layer or the protocol layer.
///
/// Payload-carrying variants hold the frame as [`Bytes`], which is
/// reference-counted: capturing a transmission costs one refcount bump,
/// not a copy. Attack tooling leans on this to harvest ciphertext
/// exactly as it crossed the air.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    // ---- simulator layer ----
    /// The node broadcast a frame to every in-range neighbor.
    TxBroadcast {
        /// The frame as transmitted.
        payload: Bytes,
        /// How many neighbors the radio reached.
        neighbors: u32,
    },
    /// The node sent a frame to one in-range destination.
    TxUnicast {
        /// Destination node.
        to: NodeId,
        /// The frame as transmitted.
        payload: Bytes,
    },
    /// A frame arrived at the node and was handed to the application.
    Rx {
        /// Transmitting node.
        from: NodeId,
        /// The frame as received.
        payload: Bytes,
    },
    /// A frame addressed to this node was lost in the radio channel.
    RadioDrop {
        /// Transmitting node.
        from: NodeId,
        /// Length of the lost frame in bytes.
        bytes: u32,
    },
    /// Two frames overlapped at the receiver and both were lost.
    ///
    /// The current unit-disk radio has no collision model, so the
    /// simulator never emits this today; the variant fixes the JSON
    /// vocabulary so richer radio models slot in without a format
    /// change.
    Collision {
        /// Transmitting node of the frame that was clobbered.
        from: NodeId,
    },
    /// A frame was injected into the channel by the test/attack harness
    /// rather than transmitted by a node's radio.
    Injected {
        /// The injected frame.
        payload: Bytes,
        /// How many nodes heard it.
        neighbors: u32,
    },
    /// The node armed a timer.
    TimerSet {
        /// Protocol-defined timer key (`wsn_sim::node::TimerKey`).
        key: u64,
        /// Virtual time the timer will fire.
        fire_at: SimTime,
    },
    /// A previously armed timer fired.
    TimerFired {
        /// Protocol-defined timer key.
        key: u64,
    },
    /// The node disarmed a timer before it fired.
    TimerCanceled {
        /// Protocol-defined timer key.
        key: u64,
    },

    // ---- protocol layer ----
    /// The node's election timer won and it announced itself with a
    /// HELLO broadcast.
    HelloSent,
    /// The node became a cluster head (its own cluster id is its node
    /// id).
    BecameHead,
    /// The node accepted a HELLO and joined a cluster.
    ClusterJoined {
        /// The winning head.
        head: NodeId,
    },
    /// The node broadcast a LINK advert carrying its cluster key sealed
    /// under the master key.
    LinkAdvertSent,
    /// The node stored a neighboring cluster's key from a LINK advert.
    LinkStored {
        /// Cluster the stored key belongs to.
        cid: NodeId,
    },
    /// The node erased its copy of the master key `Km` (end of the
    /// paper's vulnerability window).
    KmErased,
    /// The node advanced a cluster key to a new epoch.
    KeyRefreshed {
        /// The refreshed cluster.
        cid: NodeId,
        /// The epoch now in effect.
        epoch: u32,
    },
    /// The node processed a revocation and dropped the named cluster's
    /// key material.
    ClusterRevoked {
        /// The revoked cluster.
        cid: NodeId,
    },
    /// A late-joining node finished the §IV-E join handshake.
    JoinCompleted {
        /// The cluster it joined.
        cid: NodeId,
    },

    // ---- recovery layer (self-healing) ----
    /// The node armed a retransmission for an unacknowledged frame.
    RetryScheduled {
        /// Dedup key of the frame being retried.
        key: u64,
        /// Retransmission attempt number (1 = first retry).
        attempt: u32,
        /// Virtual time the retransmission will fire.
        fire_at: SimTime,
    },
    /// Retries for a frame were exhausted without an acknowledgment.
    AckTimeout {
        /// Dedup key of the abandoned frame.
        key: u64,
        /// Retransmissions that were attempted before giving up.
        attempts: u32,
    },
    /// The node's heartbeat watchdog expired: its cluster head is
    /// presumed dead.
    HeadLost {
        /// The presumed-dead head's cluster id.
        cid: NodeId,
    },
    /// The node won a localized re-election and took over as head of a
    /// new cluster (its own id) after the old head was lost.
    ReElected {
        /// The cluster whose head was lost.
        old_cid: NodeId,
    },
    /// The node detected missed refresh epochs and ratcheted its cluster
    /// key forward along the hash chain.
    EpochCatchUp {
        /// Epoch the node was stuck at.
        from_epoch: u32,
        /// Epoch now in effect after the catch-up.
        to_epoch: u32,
    },

    // ---- resource layer (budgets, backpressure, quarantine) ----
    /// A bounded per-node buffer was full and an entry was dropped (the
    /// evicted victim or the refused newcomer, per the drop-priority
    /// ordering documented in `wsn_core::resource`).
    QueueDrop {
        /// Which buffer overflowed.
        queue: QueueKind,
        /// Identity of the dropped entry: the dedup/ACK key for frame
        /// queues, the cluster id for the key table.
        key: u64,
    },
    /// Per-neighbor admission control refused a frame: the neighbor's
    /// token bucket was empty.
    Throttled {
        /// The rate-limited neighbor.
        from: NodeId,
    },
    /// A neighbor crossed the consecutive-MAC-failure threshold and was
    /// quarantined (muted).
    Quarantined {
        /// The muted neighbor.
        from: NodeId,
        /// Consecutive authentication failures that triggered the mute.
        failures: u32,
    },

    // ---- fault layer (wsn-chaos) ----
    /// A scheduled fault was applied by the fault-plan engine. The
    /// record's `node` is the primary subject (or the base station for
    /// network-wide faults such as partitions and link-model swaps).
    FaultInjected {
        /// Which family of fault fired.
        fault: FaultKind,
    },
    /// The node's radio and CPU went dark (crash, battery depletion).
    /// Pending timers are discarded; in-flight frames addressed to it
    /// are lost silently.
    NodeDown,
    /// The node came back up (reboot). Whether state survived is a
    /// protocol-level question; the simulator only flips the radio on.
    NodeUp,
    /// A partition came into force: links crossing the cut stop
    /// delivering.
    PartitionStart {
        /// Topology links severed by the cut.
        links_cut: u32,
    },
    /// The partition healed; all surviving links deliver again.
    PartitionHeal,

    // ---- sink layer (multi-sink base stations) ----
    /// A node determined the sink it routes to: the nearest by hop
    /// count over the per-sink gradients, tie-break by smaller sink id.
    SinkElected {
        /// The elected sink's node id.
        sink: NodeId,
        /// Hop distance to it.
        hops: u32,
    },
    /// Ownership of a node's partitioned BS state (`Ki` + replay
    /// window) moved between sinks. The record's `node` is the node
    /// being re-homed.
    SinkHandoff {
        /// Sink that held the entry.
        from_sink: NodeId,
        /// Sink that now holds it.
        to_sink: NodeId,
    },
    /// An inter-sink state-sync batch completed: `entries` partition
    /// entries moved from one sink to another (rehoming after gradient
    /// establishment, or failover after a sink died). The record's
    /// `node` is the receiving sink.
    SinkSync {
        /// Sink the entries came from.
        from_sink: NodeId,
        /// Entries transferred in this batch.
        entries: u32,
    },
    /// The inter-sink failure detector stopped hearing a peer's keyed
    /// heartbeats and moved it to the suspected state. The record's
    /// `node` is the observing sink.
    SinkSuspected {
        /// The silent peer sink.
        sink: NodeId,
        /// Consecutive missed suspicion deadlines so far (1 on entry;
        /// each strike doubles the next deadline).
        strikes: u32,
    },
    /// The failure detector exhausted its suspicion strikes and declared
    /// a peer sink dead, triggering failover re-homing of the nodes it
    /// served. The record's `node` is the observing sink.
    SinkDead {
        /// The sink declared dead.
        sink: NodeId,
    },
    /// A two-phase inter-sink handoff committed: the receiving sink
    /// acknowledged the install and the sender journaled the rehome-out.
    /// The record's `node` is the node whose entry moved.
    HandoffCommitted {
        /// Sink that released the entry.
        from_sink: NodeId,
        /// Sink that acknowledged holding it.
        to_sink: NodeId,
    },

    // ---- transport layer (wsn-net socket backends) ----
    /// A real transport backend (the UDP reactor) received a datagram and handed it to application dispatch. The
    /// net-layer counterpart of [`TraceEvent::Rx`]: payloads are not
    /// captured (a socket backend cannot afford the refcount plumbing on
    /// its hot path), only the byte count.
    DatagramRx {
        /// Originating node, when the backend knows it (the loopback
        /// engine always does; the UDP reactor recovers it from the
        /// frame header).
        from: NodeId,
        /// Datagram length in bytes.
        bytes: u32,
    },
    /// A real transport backend transmitted a datagram (one per
    /// broadcast/send, regardless of fan-out — the paper's
    /// one-transmission property holds at the socket layer too).
    DatagramTx {
        /// Datagram length in bytes.
        bytes: u32,
    },
    /// A datagram was dropped at the socket/transport layer before
    /// reaching dispatch: emulated channel loss, an oversize frame
    /// (> `MAX_FRAME_BYTES`), or a full worker queue.
    SocketDrop {
        /// Length of the dropped datagram in bytes.
        bytes: u32,
    },
    /// Pre-crypto admission control at a socket backend refused a
    /// datagram: the per-cluster token bucket was empty or the cluster
    /// is quarantined. The net-layer counterpart of
    /// [`TraceEvent::Throttled`], keyed by cluster because a socket
    /// reader only knows the claimed cluster id, not a node identity.
    AdmissionReject {
        /// Cluster id claimed by the refused datagram's header.
        cid: NodeId,
    },

    // ---- durability layer (crash-safe base stations) ----
    /// A batch of journaled key-state mutations reached the
    /// write-ahead log (flushed before any output they gate was
    /// released — WAL-before-ACK).
    WalAppend {
        /// Mutations in the batch.
        records: u32,
        /// Framed bytes appended to the log.
        bytes: u32,
    },
    /// A compacting state snapshot was written and the log rotated.
    SnapshotWritten {
        /// Log sequence number the snapshot covers (replay resumes
        /// strictly after it).
        lsn: u64,
        /// Encoded snapshot size in bytes.
        bytes: u32,
    },
    /// A base-station shard restarted from durable state (snapshot +
    /// journal replay) instead of provisioning from scratch.
    BsRestart {
        /// Journal records replayed on top of the snapshot.
        replayed: u32,
    },
    /// The deterministic socket-path fault engine perturbed a datagram.
    /// The net-layer counterpart of [`TraceEvent::FaultInjected`]: that
    /// variant records *plan-driven* simulator faults, this one records
    /// seeded transport-level schedules (`wsn_net::fault`).
    NetFaultInjected {
        /// Which perturbation was applied.
        fault: NetFaultKind,
    },
}

/// The bounded-buffer vocabulary recorded by [`TraceEvent::QueueDrop`].
///
/// A closed, trace-level enum (not the protocol's buffer types) so the
/// JSON vocabulary stays stable as `wsn-core` grows more budgeted
/// buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// The node's own outbound reading queue.
    Pending,
    /// The recovery layer's retransmission-custody map.
    Retx,
    /// The neighbor-cluster key table (the paper's set `S`).
    NeighborKeys,
}

impl QueueKind {
    /// Stable lowercase name, used as the JSON `queue` value.
    pub fn label(&self) -> &'static str {
        match self {
            QueueKind::Pending => "pending",
            QueueKind::Retx => "retx",
            QueueKind::NeighborKeys => "neighbor_keys",
        }
    }
}

/// The fault vocabulary recorded by [`TraceEvent::FaultInjected`].
///
/// Deliberately a closed, trace-level enum (not the fault-plan type
/// itself) so the JSON vocabulary stays stable while `wsn-chaos` grows
/// richer plan builders on top of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Node crash (state retained unless the protocol layer wipes it).
    Crash,
    /// Node reboot.
    Reboot,
    /// Battery-depletion death (energy budget exhausted).
    BatteryDeath,
    /// Link model swapped to a correlated burst-loss process.
    BurstLoss,
    /// Region partition started.
    Partition,
    /// Partition healed.
    Heal,
    /// Per-node clock drift applied to timer scheduling.
    ClockDrift,
}

impl FaultKind {
    /// Stable lowercase name, used as the JSON `fault` value.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Reboot => "reboot",
            FaultKind::BatteryDeath => "battery_death",
            FaultKind::BurstLoss => "burst_loss",
            FaultKind::Partition => "partition",
            FaultKind::Heal => "heal",
            FaultKind::ClockDrift => "clock_drift",
        }
    }
}

/// The socket-path fault vocabulary recorded by
/// [`TraceEvent::NetFaultInjected`].
///
/// A closed, trace-level enum (not `wsn_net::fault`'s config type) so the
/// JSON vocabulary stays stable as the fault engine grows knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// The datagram was silently discarded.
    Drop,
    /// An extra copy of the datagram was delivered.
    Duplicate,
    /// The datagram was held past a later send (reordering).
    Reorder,
    /// Delivery was delayed without reordering past the window.
    Delay,
    /// Payload bytes were flipped in flight.
    Corrupt,
}

impl NetFaultKind {
    /// Stable lowercase name, used as the JSON `fault` value.
    pub fn label(&self) -> &'static str {
        match self {
            NetFaultKind::Drop => "drop",
            NetFaultKind::Duplicate => "duplicate",
            NetFaultKind::Reorder => "reorder",
            NetFaultKind::Delay => "delay",
            NetFaultKind::Corrupt => "corrupt",
        }
    }
}

impl TraceEvent {
    /// Stable lowercase name of the variant, used as the JSON `kind`.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TxBroadcast { .. } => "tx_broadcast",
            TraceEvent::TxUnicast { .. } => "tx_unicast",
            TraceEvent::Rx { .. } => "rx",
            TraceEvent::RadioDrop { .. } => "radio_drop",
            TraceEvent::Collision { .. } => "collision",
            TraceEvent::Injected { .. } => "injected",
            TraceEvent::TimerSet { .. } => "timer_set",
            TraceEvent::TimerFired { .. } => "timer_fired",
            TraceEvent::TimerCanceled { .. } => "timer_canceled",
            TraceEvent::HelloSent => "hello_sent",
            TraceEvent::BecameHead => "became_head",
            TraceEvent::ClusterJoined { .. } => "cluster_joined",
            TraceEvent::LinkAdvertSent => "link_advert_sent",
            TraceEvent::LinkStored { .. } => "link_stored",
            TraceEvent::KmErased => "km_erased",
            TraceEvent::KeyRefreshed { .. } => "key_refreshed",
            TraceEvent::ClusterRevoked { .. } => "cluster_revoked",
            TraceEvent::JoinCompleted { .. } => "join_completed",
            TraceEvent::RetryScheduled { .. } => "retry_scheduled",
            TraceEvent::AckTimeout { .. } => "ack_timeout",
            TraceEvent::HeadLost { .. } => "head_lost",
            TraceEvent::ReElected { .. } => "re_elected",
            TraceEvent::EpochCatchUp { .. } => "epoch_catch_up",
            TraceEvent::QueueDrop { .. } => "queue_drop",
            TraceEvent::Throttled { .. } => "throttled",
            TraceEvent::Quarantined { .. } => "quarantined",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::NodeDown => "node_down",
            TraceEvent::NodeUp => "node_up",
            TraceEvent::PartitionStart { .. } => "partition_start",
            TraceEvent::PartitionHeal => "partition_heal",
            TraceEvent::SinkElected { .. } => "sink_elected",
            TraceEvent::SinkHandoff { .. } => "sink_handoff",
            TraceEvent::SinkSync { .. } => "sink_sync",
            TraceEvent::SinkSuspected { .. } => "sink_suspected",
            TraceEvent::SinkDead { .. } => "sink_dead",
            TraceEvent::HandoffCommitted { .. } => "handoff_committed",
            TraceEvent::DatagramRx { .. } => "datagram_rx",
            TraceEvent::DatagramTx { .. } => "datagram_tx",
            TraceEvent::SocketDrop { .. } => "socket_drop",
            TraceEvent::AdmissionReject { .. } => "admission_reject",
            TraceEvent::WalAppend { .. } => "wal_append",
            TraceEvent::SnapshotWritten { .. } => "snapshot_written",
            TraceEvent::BsRestart { .. } => "bs_restart",
            TraceEvent::NetFaultInjected { .. } => "net_fault_injected",
        }
    }

    /// The transmitted/received frame, if this event carries one.
    pub fn payload(&self) -> Option<&Bytes> {
        match self {
            TraceEvent::TxBroadcast { payload, .. }
            | TraceEvent::TxUnicast { payload, .. }
            | TraceEvent::Rx { payload, .. }
            | TraceEvent::Injected { payload, .. } => Some(payload),
            _ => None,
        }
    }
}

/// A [`TraceEvent`] stamped with where and when it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global sequence number within one simulation, starting at 0.
    /// Total order: ties in `at` are broken by `seq`.
    pub seq: u64,
    /// Virtual time of the event in microseconds.
    pub at: SimTime,
    /// The node the event happened at.
    pub node: NodeId,
    /// What happened.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Renders the record as one JSON object (no trailing newline).
    ///
    /// Hand-rolled: every field is a number, a fixed keyword, or a hex
    /// string, so no escaping is ever needed.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        write!(
            s,
            "{{\"seq\":{},\"at\":{},\"node\":{},\"kind\":\"{}\"",
            self.seq,
            self.at,
            self.node,
            self.event.kind()
        )
        .expect("writing to String cannot fail");
        match &self.event {
            TraceEvent::TxBroadcast { payload, neighbors }
            | TraceEvent::Injected { payload, neighbors } => {
                let _ = write!(
                    s,
                    ",\"neighbors\":{neighbors},\"bytes\":{},\"payload\":\"{}\"",
                    payload.len(),
                    hex(payload)
                );
            }
            TraceEvent::TxUnicast { to, payload } => {
                let _ = write!(
                    s,
                    ",\"to\":{to},\"bytes\":{},\"payload\":\"{}\"",
                    payload.len(),
                    hex(payload)
                );
            }
            TraceEvent::Rx { from, payload } => {
                let _ = write!(
                    s,
                    ",\"from\":{from},\"bytes\":{},\"payload\":\"{}\"",
                    payload.len(),
                    hex(payload)
                );
            }
            TraceEvent::RadioDrop { from, bytes } => {
                let _ = write!(s, ",\"from\":{from},\"bytes\":{bytes}");
            }
            TraceEvent::Collision { from } => {
                let _ = write!(s, ",\"from\":{from}");
            }
            TraceEvent::TimerSet { key, fire_at } => {
                let _ = write!(s, ",\"key\":{key},\"fire_at\":{fire_at}");
            }
            TraceEvent::TimerFired { key } | TraceEvent::TimerCanceled { key } => {
                let _ = write!(s, ",\"key\":{key}");
            }
            TraceEvent::ClusterJoined { head } => {
                let _ = write!(s, ",\"head\":{head}");
            }
            TraceEvent::LinkStored { cid }
            | TraceEvent::ClusterRevoked { cid }
            | TraceEvent::JoinCompleted { cid } => {
                let _ = write!(s, ",\"cid\":{cid}");
            }
            TraceEvent::KeyRefreshed { cid, epoch } => {
                let _ = write!(s, ",\"cid\":{cid},\"epoch\":{epoch}");
            }
            TraceEvent::RetryScheduled {
                key,
                attempt,
                fire_at,
            } => {
                let _ = write!(
                    s,
                    ",\"key\":{key},\"attempt\":{attempt},\"fire_at\":{fire_at}"
                );
            }
            TraceEvent::AckTimeout { key, attempts } => {
                let _ = write!(s, ",\"key\":{key},\"attempts\":{attempts}");
            }
            TraceEvent::HeadLost { cid } => {
                let _ = write!(s, ",\"cid\":{cid}");
            }
            TraceEvent::ReElected { old_cid } => {
                let _ = write!(s, ",\"old_cid\":{old_cid}");
            }
            TraceEvent::EpochCatchUp {
                from_epoch,
                to_epoch,
            } => {
                let _ = write!(s, ",\"from_epoch\":{from_epoch},\"to_epoch\":{to_epoch}");
            }
            TraceEvent::QueueDrop { queue, key } => {
                let _ = write!(s, ",\"queue\":\"{}\",\"key\":{key}", queue.label());
            }
            TraceEvent::Throttled { from } => {
                let _ = write!(s, ",\"from\":{from}");
            }
            TraceEvent::Quarantined { from, failures } => {
                let _ = write!(s, ",\"from\":{from},\"failures\":{failures}");
            }
            TraceEvent::FaultInjected { fault } => {
                let _ = write!(s, ",\"fault\":\"{}\"", fault.label());
            }
            TraceEvent::PartitionStart { links_cut } => {
                let _ = write!(s, ",\"links_cut\":{links_cut}");
            }
            TraceEvent::SinkElected { sink, hops } => {
                let _ = write!(s, ",\"sink\":{sink},\"hops\":{hops}");
            }
            TraceEvent::SinkHandoff { from_sink, to_sink } => {
                let _ = write!(s, ",\"from_sink\":{from_sink},\"to_sink\":{to_sink}");
            }
            TraceEvent::SinkSync { from_sink, entries } => {
                let _ = write!(s, ",\"from_sink\":{from_sink},\"entries\":{entries}");
            }
            TraceEvent::SinkSuspected { sink, strikes } => {
                let _ = write!(s, ",\"sink\":{sink},\"strikes\":{strikes}");
            }
            TraceEvent::SinkDead { sink } => {
                let _ = write!(s, ",\"sink\":{sink}");
            }
            TraceEvent::HandoffCommitted { from_sink, to_sink } => {
                let _ = write!(s, ",\"from_sink\":{from_sink},\"to_sink\":{to_sink}");
            }
            TraceEvent::DatagramRx { from, bytes } => {
                let _ = write!(s, ",\"from\":{from},\"bytes\":{bytes}");
            }
            TraceEvent::DatagramTx { bytes } | TraceEvent::SocketDrop { bytes } => {
                let _ = write!(s, ",\"bytes\":{bytes}");
            }
            TraceEvent::AdmissionReject { cid } => {
                let _ = write!(s, ",\"cid\":{cid}");
            }
            TraceEvent::WalAppend { records, bytes } => {
                let _ = write!(s, ",\"records\":{records},\"bytes\":{bytes}");
            }
            TraceEvent::SnapshotWritten { lsn, bytes } => {
                let _ = write!(s, ",\"lsn\":{lsn},\"bytes\":{bytes}");
            }
            TraceEvent::BsRestart { replayed } => {
                let _ = write!(s, ",\"replayed\":{replayed}");
            }
            TraceEvent::NetFaultInjected { fault } => {
                let _ = write!(s, ",\"fault\":\"{}\"", fault.label());
            }
            TraceEvent::HelloSent
            | TraceEvent::BecameHead
            | TraceEvent::LinkAdvertSent
            | TraceEvent::KmErased
            | TraceEvent::NodeDown
            | TraceEvent::NodeUp
            | TraceEvent::PartitionHeal => {}
        }
        s.push('}');
        s
    }
}

fn hex(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len() * 2);
    for b in data {
        let _ = write!(out, "{b:02x}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let rec = TraceRecord {
            seq: 3,
            at: 1500,
            node: 7,
            event: TraceEvent::TxBroadcast {
                payload: Bytes::from_static(&[0x01, 0xAB]),
                neighbors: 4,
            },
        };
        assert_eq!(
            rec.to_json(),
            "{\"seq\":3,\"at\":1500,\"node\":7,\"kind\":\"tx_broadcast\",\
             \"neighbors\":4,\"bytes\":2,\"payload\":\"01ab\"}"
        );
    }

    #[test]
    fn fieldless_events_close_cleanly() {
        let rec = TraceRecord {
            seq: 0,
            at: 0,
            node: 1,
            event: TraceEvent::KmErased,
        };
        assert_eq!(
            rec.to_json(),
            "{\"seq\":0,\"at\":0,\"node\":1,\"kind\":\"km_erased\"}"
        );
    }

    #[test]
    fn fault_events_render_their_vocabulary() {
        let rec = TraceRecord {
            seq: 9,
            at: 77,
            node: 3,
            event: TraceEvent::FaultInjected {
                fault: FaultKind::BatteryDeath,
            },
        };
        assert_eq!(
            rec.to_json(),
            "{\"seq\":9,\"at\":77,\"node\":3,\"kind\":\"fault_injected\",\"fault\":\"battery_death\"}"
        );
        let rec = TraceRecord {
            seq: 10,
            at: 78,
            node: 0,
            event: TraceEvent::PartitionStart { links_cut: 42 },
        };
        assert_eq!(
            rec.to_json(),
            "{\"seq\":10,\"at\":78,\"node\":0,\"kind\":\"partition_start\",\"links_cut\":42}"
        );
        for (ev, kind) in [
            (TraceEvent::NodeDown, "node_down"),
            (TraceEvent::NodeUp, "node_up"),
            (TraceEvent::PartitionHeal, "partition_heal"),
        ] {
            assert_eq!(ev.kind(), kind);
        }
    }

    #[test]
    fn recovery_events_render_their_fields() {
        let rec = TraceRecord {
            seq: 1,
            at: 40,
            node: 5,
            event: TraceEvent::RetryScheduled {
                key: 0xABCD,
                attempt: 2,
                fire_at: 99,
            },
        };
        assert_eq!(
            rec.to_json(),
            "{\"seq\":1,\"at\":40,\"node\":5,\"kind\":\"retry_scheduled\",\
             \"key\":43981,\"attempt\":2,\"fire_at\":99}"
        );
        for (ev, frag) in [
            (
                TraceEvent::AckTimeout {
                    key: 7,
                    attempts: 3,
                },
                "\"kind\":\"ack_timeout\",\"key\":7,\"attempts\":3",
            ),
            (
                TraceEvent::HeadLost { cid: 12 },
                "\"kind\":\"head_lost\",\"cid\":12",
            ),
            (
                TraceEvent::ReElected { old_cid: 12 },
                "\"kind\":\"re_elected\",\"old_cid\":12",
            ),
            (
                TraceEvent::EpochCatchUp {
                    from_epoch: 0,
                    to_epoch: 2,
                },
                "\"kind\":\"epoch_catch_up\",\"from_epoch\":0,\"to_epoch\":2",
            ),
        ] {
            let rec = TraceRecord {
                seq: 0,
                at: 0,
                node: 1,
                event: ev,
            };
            assert!(rec.to_json().contains(frag), "{}", rec.to_json());
        }
    }

    #[test]
    fn resource_events_render_their_fields() {
        let rec = TraceRecord {
            seq: 2,
            at: 55,
            node: 9,
            event: TraceEvent::QueueDrop {
                queue: QueueKind::Retx,
                key: 77,
            },
        };
        assert_eq!(
            rec.to_json(),
            "{\"seq\":2,\"at\":55,\"node\":9,\"kind\":\"queue_drop\",\
             \"queue\":\"retx\",\"key\":77}"
        );
        for (ev, frag) in [
            (
                TraceEvent::Throttled { from: 4 },
                "\"kind\":\"throttled\",\"from\":4",
            ),
            (
                TraceEvent::Quarantined {
                    from: 4,
                    failures: 8,
                },
                "\"kind\":\"quarantined\",\"from\":4,\"failures\":8",
            ),
            (
                TraceEvent::QueueDrop {
                    queue: QueueKind::Pending,
                    key: 0,
                },
                "\"queue\":\"pending\",\"key\":0",
            ),
            (
                TraceEvent::QueueDrop {
                    queue: QueueKind::NeighborKeys,
                    key: 3,
                },
                "\"queue\":\"neighbor_keys\",\"key\":3",
            ),
        ] {
            let rec = TraceRecord {
                seq: 0,
                at: 0,
                node: 1,
                event: ev,
            };
            assert!(rec.to_json().contains(frag), "{}", rec.to_json());
        }
    }

    #[test]
    fn payload_accessor() {
        let p = Bytes::from_static(b"x");
        assert_eq!(
            TraceEvent::Rx {
                from: 0,
                payload: p.clone()
            }
            .payload(),
            Some(&p)
        );
        assert_eq!(TraceEvent::BecameHead.payload(), None);
    }

    #[test]
    fn sink_events_render() {
        let cases = [
            (
                TraceEvent::SinkElected { sink: 2, hops: 4 },
                "{\"seq\":0,\"at\":0,\"node\":1,\"kind\":\"sink_elected\",\"sink\":2,\"hops\":4}",
            ),
            (
                TraceEvent::SinkHandoff {
                    from_sink: 1,
                    to_sink: 3,
                },
                "{\"seq\":0,\"at\":0,\"node\":1,\"kind\":\"sink_handoff\",\"from_sink\":1,\"to_sink\":3}",
            ),
            (
                TraceEvent::SinkSync {
                    from_sink: 0,
                    entries: 17,
                },
                "{\"seq\":0,\"at\":0,\"node\":1,\"kind\":\"sink_sync\",\"from_sink\":0,\"entries\":17}",
            ),
            (
                TraceEvent::SinkSuspected { sink: 2, strikes: 1 },
                "{\"seq\":0,\"at\":0,\"node\":1,\"kind\":\"sink_suspected\",\"sink\":2,\"strikes\":1}",
            ),
            (
                TraceEvent::SinkDead { sink: 2 },
                "{\"seq\":0,\"at\":0,\"node\":1,\"kind\":\"sink_dead\",\"sink\":2}",
            ),
            (
                TraceEvent::HandoffCommitted {
                    from_sink: 0,
                    to_sink: 2,
                },
                "{\"seq\":0,\"at\":0,\"node\":1,\"kind\":\"handoff_committed\",\"from_sink\":0,\"to_sink\":2}",
            ),
        ];
        for (event, expected) in cases {
            let rec = TraceRecord {
                seq: 0,
                at: 0,
                node: 1,
                event,
            };
            assert_eq!(rec.to_json(), expected);
        }
    }

    #[test]
    fn durability_events_render() {
        let cases = [
            (
                TraceEvent::WalAppend {
                    records: 3,
                    bytes: 120,
                },
                "{\"seq\":0,\"at\":0,\"node\":1,\"kind\":\"wal_append\",\"records\":3,\"bytes\":120}",
            ),
            (
                TraceEvent::SnapshotWritten { lsn: 77, bytes: 4096 },
                "{\"seq\":0,\"at\":0,\"node\":1,\"kind\":\"snapshot_written\",\"lsn\":77,\"bytes\":4096}",
            ),
            (
                TraceEvent::BsRestart { replayed: 12 },
                "{\"seq\":0,\"at\":0,\"node\":1,\"kind\":\"bs_restart\",\"replayed\":12}",
            ),
            (
                TraceEvent::NetFaultInjected {
                    fault: NetFaultKind::Reorder,
                },
                "{\"seq\":0,\"at\":0,\"node\":1,\"kind\":\"net_fault_injected\",\"fault\":\"reorder\"}",
            ),
        ];
        for (event, expected) in cases {
            let rec = TraceRecord {
                seq: 0,
                at: 0,
                node: 1,
                event,
            };
            assert_eq!(rec.to_json(), expected);
        }
        for k in [
            NetFaultKind::Drop,
            NetFaultKind::Duplicate,
            NetFaultKind::Delay,
            NetFaultKind::Corrupt,
        ] {
            assert!(!k.label().is_empty());
        }
    }

    #[test]
    fn transport_events_render() {
        let cases = [
            (
                TraceEvent::DatagramRx { from: 5, bytes: 80 },
                "{\"seq\":0,\"at\":0,\"node\":1,\"kind\":\"datagram_rx\",\"from\":5,\"bytes\":80}",
            ),
            (
                TraceEvent::DatagramTx { bytes: 96 },
                "{\"seq\":0,\"at\":0,\"node\":1,\"kind\":\"datagram_tx\",\"bytes\":96}",
            ),
            (
                TraceEvent::SocketDrop { bytes: 2048 },
                "{\"seq\":0,\"at\":0,\"node\":1,\"kind\":\"socket_drop\",\"bytes\":2048}",
            ),
            (
                TraceEvent::AdmissionReject { cid: 42 },
                "{\"seq\":0,\"at\":0,\"node\":1,\"kind\":\"admission_reject\",\"cid\":42}",
            ),
        ];
        for (event, expected) in cases {
            let rec = TraceRecord {
                seq: 0,
                at: 0,
                node: 1,
                event,
            };
            assert_eq!(rec.to_json(), expected);
        }
    }
}

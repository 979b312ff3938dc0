//! Self-healing recovery layer: the state machinery behind
//! [`crate::config::RecoveryConfig`].
//!
//! Four cooperating mechanisms, all inert unless `recovery.enabled`:
//!
//! * **Acknowledged transport (ARQ)** — a node that originates or forwards
//!   a wrapped Data/RefreshHello frame keeps the exact bytes in a pending
//!   map keyed by the frame's dedup key, and retransmits with bounded
//!   exponential backoff + seeded jitter until a hop-by-hop
//!   [`crate::msg::Inner::Ack`] (or an overheard downhill forward) clears
//!   it. Retransmissions are byte-identical, so receiver-side dedup
//!   absorbs them while [`crate::forward::CounterWindow`] replay
//!   protection still rejects true end-to-end replays at the base station.
//! * **Cluster-head failover** — heads emit keyed
//!   [`crate::msg::Inner::Heartbeat`]s (1-hop, never relayed) up to the
//!   configured horizon; a member whose watchdog starves runs the paper's
//!   first-HELLO-wins timer rule locally to either re-elect itself (its
//!   potential cluster key `Kci` is already provisioned at the base
//!   station, so no new trust is needed) or adopt into a neighboring
//!   cluster from its set `S` (§IV-E path).
//! * **Route repair** — when retries exhaust, the sender invalidates its
//!   gradient and broadcasts a [`crate::msg::Inner::RouteRequest`] under
//!   its cluster key; any holder of that key with an established gradient
//!   answers with a scoped beacon, proving itself a viable first hop.
//! * **Stale-epoch catch-up** — a MAC failure against a held cluster key
//!   is retried along the hash chain `Kc <- F(Kc)` for up to
//!   `max_catchup_epochs` steps; success ratchets the whole key set
//!   forward in lockstep (hash refresh is globally synchronized).
//!
//! Everything here is deterministic: the pending map is a `BTreeMap` (no
//! hash-order dependence), jitter comes from the node's seeded simulation
//! RNG, and heartbeats stop at an absolute virtual-time horizon so
//! run-to-quiescence simulations still terminate.

use crate::config::RecoveryConfig;
use crate::keys::KeySlot;
use crate::routing::Route;
use bytes::Bytes;
use rand::Rng;
use std::collections::BTreeMap;
use wsn_sim::event::SimTime;

/// What a pending ARQ entry carries — readings and refresh messages get
/// acknowledged transport; everything else stays fire-and-forget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetxKind {
    /// A wrapped [`crate::msg::Inner::Data`] frame.
    Data,
    /// A wrapped [`crate::msg::Inner::RefreshHello`] frame.
    Refresh,
}

/// One frame awaiting acknowledgment.
#[derive(Clone, Debug)]
pub struct RetxEntry {
    /// The exact bytes to put back on the air. Retransmissions are
    /// byte-identical so receiver dedup absorbs extras and the freshness
    /// stamp stays inside the (much longer) Step-2 window.
    pub frame: Bytes,
    /// Data or refresh.
    pub kind: RetxKind,
    /// The route the frame was addressed along: an ACK clears the entry
    /// only from a sender strictly closer on it. Refresh entries use
    /// [`Route::legacy`].
    pub route: Route,
    /// Retransmissions already performed.
    pub attempt: u32,
    /// Virtual time at which the entry becomes due for retransmission.
    pub deadline: SimTime,
    /// Whether the one route repair this entry is entitled to has been
    /// spent.
    pub repaired: bool,
    /// The key epoch the frame was wrapped under. A hash refresh ratchets
    /// every receiver's keys forward, so a frame from an older epoch can
    /// never verify again — retrying it is wasted airtime and its
    /// inevitable ACK timeout would falsely indict the route.
    pub epoch: u32,
}

/// Per-node recovery state. Lives inside
/// [`crate::node::ProtocolNode`]; every field is meaningless (and
/// untouched) while the layer is disabled.
#[derive(Debug, Default)]
pub struct RecoveryState {
    /// Unacknowledged frames keyed by [`crate::msg::DataUnit::dedup_key`]
    /// (Data) or [`refresh_ack_key`] (RefreshHello). A `BTreeMap` so every
    /// scan is in deterministic key order regardless of insertion history.
    pub pending: BTreeMap<u64, RetxEntry>,
    /// Own cluster key of the previous recluster epoch. Kept so ACKs for a
    /// RefreshHello — necessarily sent under the *old* key by members that
    /// have not finished adopting — still verify after the head rolled.
    pub(crate) prev_cluster_key: Option<KeySlot>,
    /// Waiting out a localized re-election window after declaring the
    /// head lost.
    pub reelecting: bool,
    /// Drew an election delay inside the window; will self-elect when the
    /// timer fires (first-HELLO-wins, replayed locally).
    pub reelect_runner: bool,
    /// When this node last answered a RouteRequest (rate limiting).
    pub last_route_reply: Option<SimTime>,
    /// Learn the gradient only from beacons wrapped under the *own*
    /// cluster key: the sender of such a beacon provably holds that key
    /// and can therefore serve as this node's first hop. Set for §IV-E
    /// joiners, whose set `S` would otherwise teach them hop counts
    /// through neighbors that cannot decrypt their traffic — the
    /// route-blind-joiner bug.
    pub own_cid_beacons_only: bool,
    /// Own-cluster MAC failures that catch-up could not bridge. A
    /// persistently growing count is the driver's signal that the node
    /// needs the wiped-rejoin path (recluster mode, or staleness beyond
    /// `max_catchup_epochs`).
    pub unhealed_auth_failures: u64,
}

impl RecoveryState {
    /// The state of a node whose recovery layer never ran.
    pub const IDLE: RecoveryState = RecoveryState {
        pending: BTreeMap::new(),
        prev_cluster_key: None,
        reelecting: false,
        reelect_runner: false,
        last_route_reply: None,
        own_cid_beacons_only: false,
        unhealed_auth_failures: 0,
    };

    /// Clears a pending entry; returns `true` if it existed (the caller
    /// should then re-arm the scan timer).
    pub fn ack(&mut self, key: u64) -> bool {
        self.pending.remove(&key).is_some()
    }

    /// Earliest pending deadline, if anything is pending.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending.values().map(|e| e.deadline).min()
    }

    /// Keys due at `now`, in deterministic (ascending-key) order.
    pub fn due_keys(&self, now: SimTime) -> Vec<u64> {
        self.pending
            .iter()
            .filter(|(_, e)| e.deadline <= now)
            .map(|(k, _)| *k)
            .collect()
    }

    /// Drops pending [`RetxKind::Data`] entries wrapped under an epoch
    /// older than `current`: the network-wide key ratchet made them
    /// permanently unverifiable, so they are lost to the refresh boundary,
    /// not to the route. (Refresh entries stay — their ACKs arrive under
    /// the previous key by design.) Returns how many were dropped.
    pub fn purge_pre_epoch(&mut self, current: u32) -> usize {
        let before = self.pending.len();
        self.pending
            .retain(|_, e| e.kind != RetxKind::Data || e.epoch >= current);
        before - self.pending.len()
    }

    /// Whether answering a RouteRequest at `now` respects the cooldown.
    pub fn route_reply_allowed(&self, now: SimTime, cooldown: SimTime) -> bool {
        self.last_route_reply
            .is_none_or(|t| now.saturating_sub(t) >= cooldown)
    }
}

/// Deterministic exponential backoff with seeded jitter:
/// `retx_base · 2^attempt + U[0, retx_jitter)`, saturating. The jitter
/// draw comes from the node's simulation RNG, so the whole retransmission
/// schedule replays bit-for-bit under a fixed seed.
pub fn backoff_delay<R: Rng>(rec: &RecoveryConfig, attempt: u32, rng: &mut R) -> SimTime {
    let base = rec.retx_base.saturating_mul(1u64 << attempt.min(16));
    let jitter = if rec.retx_jitter > 0 {
        rng.gen_range(0..rec.retx_jitter)
    } else {
        0
    };
    base.saturating_add(jitter)
}

/// The ACK key a RefreshHello broadcast is tracked under: FNV-1a over a
/// domain tag, the cluster and the epoch. Same 64-bit keyspace as
/// [`crate::msg::DataUnit::dedup_key`]; the domain tag keeps the two
/// families from colliding by construction.
pub fn refresh_ack_key(cid: u32, epoch: u32) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in [b'R', b'F']
        .into_iter()
        .chain(cid.to_le_bytes())
        .chain(epoch.to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn entry(deadline: SimTime) -> RetxEntry {
        RetxEntry {
            frame: Bytes::from_static(b"frame"),
            kind: RetxKind::Data,
            route: Route(0),
            attempt: 0,
            deadline,
            repaired: false,
            epoch: 0,
        }
    }

    #[test]
    fn backoff_doubles_and_is_deterministic() {
        let rec = RecoveryConfig::default();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let da: Vec<SimTime> = (0..4).map(|k| backoff_delay(&rec, k, &mut a)).collect();
        let db: Vec<SimTime> = (0..4).map(|k| backoff_delay(&rec, k, &mut b)).collect();
        assert_eq!(da, db, "same seed, same schedule");
        for (k, d) in da.iter().enumerate() {
            let base = rec.retx_base << k;
            assert!(*d >= base && *d < base + rec.retx_jitter);
        }
    }

    #[test]
    fn backoff_saturates_on_huge_attempts() {
        let rec = RecoveryConfig {
            retx_base: SimTime::MAX / 2,
            retx_jitter: 0,
            ..RecoveryConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(backoff_delay(&rec, 63, &mut rng), SimTime::MAX);
    }

    #[test]
    fn pending_scan_is_key_ordered_and_deadline_filtered() {
        let mut st = RecoveryState::default();
        st.pending.insert(30, entry(300));
        st.pending.insert(10, entry(100));
        st.pending.insert(20, entry(200));
        assert_eq!(st.next_deadline(), Some(100));
        assert_eq!(st.due_keys(200), vec![10, 20]);
        assert!(st.ack(10));
        assert!(!st.ack(10), "double ACK is a no-op");
        assert_eq!(st.next_deadline(), Some(200));
    }

    #[test]
    fn purge_drops_only_pre_epoch_data() {
        let mut st = RecoveryState::default();
        st.pending.insert(1, entry(100)); // data, epoch 0
        let mut refresh = entry(200);
        refresh.kind = RetxKind::Refresh; // epoch 0, but exempt
        st.pending.insert(2, refresh);
        let mut current = entry(300);
        current.epoch = 1;
        st.pending.insert(3, current);
        assert_eq!(st.purge_pre_epoch(1), 1);
        assert_eq!(st.due_keys(SimTime::MAX), vec![2, 3]);
        assert_eq!(st.purge_pre_epoch(1), 0, "idempotent");
    }

    #[test]
    fn route_reply_cooldown() {
        let mut st = RecoveryState::default();
        assert!(st.route_reply_allowed(0, 500));
        st.last_route_reply = Some(1000);
        assert!(!st.route_reply_allowed(1400, 500));
        assert!(st.route_reply_allowed(1500, 500));
    }

    #[test]
    fn refresh_ack_keys_are_distinct_per_cid_and_epoch() {
        let mut seen = std::collections::HashSet::new();
        for cid in 0..50u32 {
            for epoch in 0..8u32 {
                assert!(seen.insert(refresh_ack_key(cid, epoch)));
            }
        }
    }
}

//! Resource-budget layer: the state machinery behind
//! [`crate::config::ResourceConfig`].
//!
//! The paper's motes have "limited computational and communication
//! capabilities", yet without this layer every per-node buffer — the
//! recovery custody map, the outbound reading queue, the neighbor-cluster
//! key table — grows without bound, so a flood adversary or a retry storm
//! consumes memory a real mote does not have. Three cooperating
//! mechanisms, all inert unless `resources.enabled`:
//!
//! * **Bounded buffers** — every buffer gets a hard capacity enforced at
//!   the insertion point, with the deterministic drop policy below.
//! * **Hop-by-hop backpressure** — a node whose retransmission custody
//!   passes [`crate::config::ResourceConfig::tx_high_water`] answers with
//!   [`crate::msg::Inner::BusyAck`] instead of a plain ACK; the upstream
//!   custodian multiplies its next backoff toward that hop by
//!   `busy_backoff_factor` for `busy_hold` microseconds instead of
//!   retrying into congestion.
//! * **Per-neighbor admission control** — wrapped (steady-state) frames
//!   pass a per-neighbor token bucket before any cryptographic work, and
//!   a neighbor whose frames fail authentication
//!   [`crate::config::ResourceConfig::quarantine_threshold`] times in a
//!   row is quarantined (muted) for `quarantine_duration`. Any frame that
//!   authenticates — including via the recovery layer's previous-key or
//!   epoch-catch-up salvage — resets the failure count, so a neighbor
//!   presenting valid MACs is never muted.
//!
//! # Drop-priority ordering
//!
//! When a bounded buffer is full, the victim is chosen by priority class
//! first, age second — **control > refresh > data, oldest
//! lowest-priority first**:
//!
//! 1. Control state (ACK/beacon/heartbeat handling, the key table's
//!    established entries) is never evicted to admit data; a full key
//!    table refuses *new* clusters rather than forgetting established
//!    neighbors.
//! 2. In the custody map, [`RetxKind::Data`] entries are evicted before
//!    [`RetxKind::Refresh`] entries; within a class the entry with the
//!    earliest deadline (the oldest) goes first, ties broken by key so
//!    the choice is deterministic.
//! 3. An incoming entry competes at its own priority: a `Data` frame
//!    arriving at a custody map full of `Refresh` entries is itself the
//!    lowest-priority, oldest candidate — it is refused, not admitted.
//!
//! Everything here is deterministic and draw-free: token buckets use
//! integer microtoken arithmetic on virtual time, per-neighbor state
//! lives in a `BTreeMap` (no hash-order dependence), and the layer adds
//! no timers and no RNG consumption, so enabling it perturbs a run only
//! where it actually drops, throttles, or mutes.

use crate::config::ResourceConfig;
use crate::recovery::{RetxEntry, RetxKind};
use std::collections::BTreeMap;
use wsn_sim::event::SimTime;
use wsn_sim::node::NodeId;

/// Microtokens per admission token: token-bucket state is kept in units
/// of 10⁻⁶ frames so refill arithmetic (`elapsed µs × rate frames/s`)
/// stays exact in integers.
const TOKEN_SCALE: u64 = 1_000_000;

/// Per-neighbor admission state: one token bucket plus the MAC-failure
/// quarantine counter.
#[derive(Debug, Clone)]
pub struct NeighborGate {
    /// Bucket level in microtokens (see [`TOKEN_SCALE`]).
    tokens_micro: u64,
    /// Virtual time of the last refill.
    last_refill: SimTime,
    /// Consecutive authentication failures; reset by any valid frame.
    pub mac_failures: u32,
    /// Muted until this virtual time (0 = never quarantined).
    pub quarantined_until: SimTime,
}

impl NeighborGate {
    fn new(cfg: &ResourceConfig, now: SimTime) -> Self {
        NeighborGate {
            tokens_micro: cfg.neighbor_burst.saturating_mul(TOKEN_SCALE),
            last_refill: now,
            mac_failures: 0,
            quarantined_until: 0,
        }
    }

    /// Whether the neighbor is currently muted.
    pub fn quarantined(&self, now: SimTime) -> bool {
        now < self.quarantined_until
    }

    /// Refills the bucket for the elapsed virtual time, then tries to
    /// take one token. Pure integer arithmetic — no RNG, no rounding
    /// drift — so admission decisions replay bit-for-bit.
    fn admit(&mut self, cfg: &ResourceConfig, now: SimTime) -> bool {
        let elapsed = now.saturating_sub(self.last_refill);
        self.last_refill = now;
        let cap = cfg.neighbor_burst.saturating_mul(TOKEN_SCALE);
        self.tokens_micro = self
            .tokens_micro
            .saturating_add(elapsed.saturating_mul(cfg.neighbor_rate_per_sec))
            .min(cap);
        if self.tokens_micro >= TOKEN_SCALE {
            self.tokens_micro -= TOKEN_SCALE;
            true
        } else {
            false
        }
    }
}

/// What per-neighbor admission control decided about an incoming frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Process the frame.
    Admit,
    /// The neighbor's token bucket is empty: drop before crypto.
    Throttle,
    /// The neighbor is quarantined: drop before crypto, silently.
    Quarantined,
}

/// Per-node resource state. Lives inside [`crate::node::ProtocolNode`].
/// The high-water marks are recorded unconditionally (observation is
/// free and the overload figure plots it); everything else is meaningful
/// only while the layer is enabled.
#[derive(Debug, Default)]
pub struct ResourceState {
    /// Per-neighbor admission gates, in deterministic id order.
    pub gates: BTreeMap<NodeId, NeighborGate>,
    /// Downstream congestion: backoffs toward the network are stretched
    /// until this virtual time (set by receiving a BusyAck).
    pub busy_until: SimTime,
    /// Entries dropped from bounded buffers.
    pub queue_drops: u64,
    /// Frames refused by per-neighbor rate limiting.
    pub throttled: u64,
    /// Frames dropped because their sender was quarantined.
    pub quarantine_drops: u64,
    /// Times a neighbor crossed the quarantine threshold.
    pub quarantines: u64,
    /// High-water mark of the outbound reading queue.
    pub peak_pending: usize,
    /// High-water mark of the recovery custody map.
    pub peak_retx: usize,
    /// High-water mark of the neighbor-cluster key table.
    pub peak_neighbor_keys: usize,
}

impl ResourceState {
    /// Runs per-neighbor admission control for a wrapped frame from
    /// `from` at `now`. Creates the gate on first contact (bucket full).
    pub fn admit(&mut self, cfg: &ResourceConfig, from: NodeId, now: SimTime) -> Admission {
        let gate = self
            .gates
            .entry(from)
            .or_insert_with(|| NeighborGate::new(cfg, now));
        if gate.quarantined(now) {
            self.quarantine_drops += 1;
            return Admission::Quarantined;
        }
        if gate.admit(cfg, now) {
            Admission::Admit
        } else {
            self.throttled += 1;
            Admission::Throttle
        }
    }

    /// Records an authentication failure on a frame from `from` (called
    /// only after the recovery salvage paths also failed). Returns the
    /// failure count if this crossing of the threshold newly quarantined
    /// the neighbor.
    pub fn note_auth_failure(
        &mut self,
        cfg: &ResourceConfig,
        from: NodeId,
        now: SimTime,
    ) -> Option<u32> {
        let gate = self
            .gates
            .entry(from)
            .or_insert_with(|| NeighborGate::new(cfg, now));
        gate.mac_failures += 1;
        if gate.mac_failures >= cfg.quarantine_threshold {
            let failures = gate.mac_failures;
            gate.quarantined_until = now.saturating_add(cfg.quarantine_duration);
            gate.mac_failures = 0;
            self.quarantines += 1;
            Some(failures)
        } else {
            None
        }
    }

    /// Records that a frame from `from` authenticated: any valid MAC
    /// resets the consecutive-failure count, so legitimate neighbors can
    /// never drift toward the quarantine threshold.
    pub fn note_auth_success(&mut self, from: NodeId) {
        if let Some(gate) = self.gates.get_mut(&from) {
            gate.mac_failures = 0;
        }
    }

    /// Whether downstream advertised busy recently enough that backoffs
    /// should still be stretched.
    pub fn congested(&self, now: SimTime) -> bool {
        now < self.busy_until
    }

    /// Records a BusyAck from downstream: stretch backoffs until
    /// `now + busy_hold`.
    pub fn note_busy(&mut self, cfg: &ResourceConfig, now: SimTime) {
        self.busy_until = self.busy_until.max(now.saturating_add(cfg.busy_hold));
    }

    /// Total peak buffer occupancy — the per-node memory high-water mark
    /// the overload figure plots.
    pub fn peak_total(&self) -> usize {
        self.peak_pending + self.peak_retx + self.peak_neighbor_keys
    }
}

/// Picks the eviction victim for a full custody map per the
/// [drop-priority ordering](self): the earliest-deadline [`RetxKind::Data`]
/// entry (ties by key) goes first; if the map holds only
/// [`RetxKind::Refresh`] entries, an incoming `Data` frame is refused
/// (`None`) while an incoming `Refresh` displaces the oldest `Refresh`.
pub fn retx_eviction_victim(pending: &BTreeMap<u64, RetxEntry>, incoming: RetxKind) -> Option<u64> {
    let oldest_of = |kind: RetxKind| {
        pending
            .iter()
            .filter(|(_, e)| e.kind == kind)
            .min_by_key(|(k, e)| (e.deadline, **k))
            .map(|(k, _)| *k)
    };
    match oldest_of(RetxKind::Data) {
        Some(k) => Some(k),
        None => match incoming {
            RetxKind::Data => None,
            RetxKind::Refresh => oldest_of(RetxKind::Refresh),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn cfg() -> ResourceConfig {
        ResourceConfig {
            enabled: true,
            ..ResourceConfig::default()
        }
    }

    fn entry(kind: RetxKind, deadline: SimTime) -> RetxEntry {
        RetxEntry {
            frame: Bytes::from_static(b"frame"),
            kind,
            route: crate::routing::Route(0),
            attempt: 0,
            deadline,
            repaired: false,
            epoch: 0,
        }
    }

    #[test]
    fn token_bucket_admits_burst_then_throttles() {
        let c = cfg();
        let mut st = ResourceState::default();
        for _ in 0..c.neighbor_burst {
            assert_eq!(st.admit(&c, 7, 1000), Admission::Admit);
        }
        assert_eq!(st.admit(&c, 7, 1000), Admission::Throttle);
        assert_eq!(st.throttled, 1);
        // Another neighbor has its own bucket.
        assert_eq!(st.admit(&c, 8, 1000), Admission::Admit);
    }

    #[test]
    fn token_bucket_refills_at_configured_rate() {
        let c = ResourceConfig {
            neighbor_rate_per_sec: 10,
            neighbor_burst: 1,
            ..cfg()
        };
        let mut st = ResourceState::default();
        assert_eq!(st.admit(&c, 7, 0), Admission::Admit);
        assert_eq!(st.admit(&c, 7, 0), Admission::Throttle);
        // 10 frames/s = one token per 100 ms of virtual time.
        assert_eq!(st.admit(&c, 7, 99_999), Admission::Throttle);
        assert_eq!(st.admit(&c, 7, 100_000), Admission::Admit);
    }

    #[test]
    fn admission_is_deterministic() {
        let c = cfg();
        let run = || {
            let mut st = ResourceState::default();
            let mut out = Vec::new();
            for i in 0..100u64 {
                out.push(st.admit(&c, (i % 3) as NodeId, i * 7_000));
            }
            (out, st.throttled)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quarantine_trips_after_consecutive_failures_only() {
        let c = cfg();
        let mut st = ResourceState::default();
        for _ in 0..c.quarantine_threshold - 1 {
            assert_eq!(st.note_auth_failure(&c, 9, 500), None);
        }
        // A valid MAC resets the streak: the neighbor never trips.
        st.note_auth_success(9);
        for _ in 0..c.quarantine_threshold - 1 {
            assert_eq!(st.note_auth_failure(&c, 9, 600), None);
        }
        let tripped = st.note_auth_failure(&c, 9, 700);
        assert_eq!(tripped, Some(c.quarantine_threshold));
        assert!(st.gates[&9].quarantined(700));
        assert!(st.gates[&9].quarantined(700 + c.quarantine_duration - 1));
        assert!(!st.gates[&9].quarantined(700 + c.quarantine_duration));
        assert_eq!(st.quarantines, 1);
    }

    #[test]
    fn quarantined_neighbor_is_muted_at_admission() {
        let c = cfg();
        let mut st = ResourceState::default();
        for _ in 0..c.quarantine_threshold {
            st.note_auth_failure(&c, 9, 100);
        }
        assert_eq!(st.admit(&c, 9, 200), Admission::Quarantined);
        assert_eq!(st.quarantine_drops, 1);
        // After the mute expires the bucket works again.
        assert_eq!(
            st.admit(&c, 9, 100 + c.quarantine_duration),
            Admission::Admit
        );
    }

    #[test]
    fn busy_hold_window() {
        let c = cfg();
        let mut st = ResourceState::default();
        assert!(!st.congested(0));
        st.note_busy(&c, 1_000);
        assert!(st.congested(1_000 + c.busy_hold - 1));
        assert!(!st.congested(1_000 + c.busy_hold));
        // A later BusyAck extends, an earlier one never shortens.
        st.note_busy(&c, 2_000);
        st.note_busy(&c, 500);
        assert!(st.congested(2_000 + c.busy_hold - 1));
    }

    #[test]
    fn eviction_prefers_oldest_data_over_refresh() {
        let mut pending = BTreeMap::new();
        pending.insert(1, entry(RetxKind::Refresh, 50));
        pending.insert(2, entry(RetxKind::Data, 300));
        pending.insert(3, entry(RetxKind::Data, 100));
        // Oldest Data goes first even though a Refresh entry is older.
        assert_eq!(retx_eviction_victim(&pending, RetxKind::Data), Some(3));
        assert_eq!(retx_eviction_victim(&pending, RetxKind::Refresh), Some(3));
    }

    #[test]
    fn incoming_data_refused_by_all_refresh_map() {
        let mut pending = BTreeMap::new();
        pending.insert(1, entry(RetxKind::Refresh, 50));
        pending.insert(2, entry(RetxKind::Refresh, 20));
        assert_eq!(retx_eviction_victim(&pending, RetxKind::Data), None);
        assert_eq!(retx_eviction_victim(&pending, RetxKind::Refresh), Some(2));
    }

    #[test]
    fn eviction_ties_break_by_key() {
        let mut pending = BTreeMap::new();
        pending.insert(9, entry(RetxKind::Data, 100));
        pending.insert(4, entry(RetxKind::Data, 100));
        assert_eq!(retx_eviction_victim(&pending, RetxKind::Data), Some(4));
    }
}

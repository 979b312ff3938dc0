//! The base station.
//!
//! A resource-rich, trusted sink: it was "given all the ID numbers and keys
//! used in the network before the deployment phase", so it can open any
//! cluster's Step-2 envelope and any node's Step-1 seal. By convention it
//! is node 0 in the deployed topology and behaves as a **silent singleton
//! cluster** (CID 0): it never sends a HELLO (so no sensor joins it) but
//! does advertise its cluster key in phase 2 so its radio neighbors can
//! authenticate the beacons it originates.

use crate::config::{CounterMode, ProtocolConfig};
use crate::error::ProtocolError;
use crate::evict::build_revoke;
use crate::forward::{
    e2e_open_with, seal_setup_with, sealer, unwrap_in, wrap_frame, CounterWindow,
};
use crate::fusion::DedupCache;
use crate::keys::SubkeySlot;
use crate::msg::{ClusterId, DataUnit, Inner, Message};
use crate::node::DropCounts;
use crate::persist::{BsSnapshot, StateMutation, SEQ_RESERVE_STRIDE};
use crate::routing::Route;
use crate::sink::SinkNodeState;
use crate::transport::Transport;
use bytes::Bytes;
use rand::Rng;
use std::collections::HashMap;
use wsn_crypto::authenc::AuthEnc;
use wsn_crypto::keychain::KeyChain;
use wsn_crypto::Key128;
use wsn_sim::event::{SimTime, MILLI};
use wsn_sim::node::{App, Ctx, NodeId, TimerKey};

/// Timer: originate a routing beacon flood.
pub const TIMER_BEACON: TimerKey = 10;
/// Timer: transmit queued revocation commands.
pub const TIMER_REVOKE: TimerKey = 11;
/// Timer: phase-2 link advertisement (shared with sensors' TIMER_LINK).
pub const TIMER_BS_LINK: TimerKey = 2;
/// Timer: autonomous periodic hash refresh (same schedule as the sensors',
/// so key epochs stay aligned network-wide without any coordination
/// traffic).
pub const TIMER_BS_AUTO_REFRESH: TimerKey = 6;
/// Timer: disclose the chain links of announced two-phase revocations.
pub const TIMER_REVEAL: TimerKey = 12;

/// A reading accepted by the base station.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    /// Originating sensor.
    pub src: u32,
    /// Recovered plaintext.
    pub data: Vec<u8>,
    /// End-to-end counter the message verified under (None for unsealed
    /// fusion-mode traffic).
    pub ctr: Option<u64>,
}

/// One provisioned node's entry at the base station.
struct NodeEntry {
    /// `Ki`, with its subkeys once the node's first reading needed them.
    ki: SubkeySlot,
    /// End-to-end counter state, created at the node's first sealed
    /// reading (`None` before it, so a snapshot lists only nodes that
    /// have sent).
    window: Option<CounterWindow>,
}

impl NodeEntry {
    fn new(ki: Key128, window: Option<CounterWindow>) -> Self {
        NodeEntry {
            ki: SubkeySlot::new(ki),
            window,
        }
    }

    /// The entry as a handoff carries it: `Ki` and the window, never the
    /// derived subkeys.
    fn state(&self, id: u32) -> SinkNodeState {
        SinkNodeState {
            id,
            ki: self.ki.key(),
            window: self.window.clone().unwrap_or_default(),
        }
    }
}

/// Base-station state.
pub struct BaseStation {
    cfg: ProtocolConfig,
    /// BS node ID (0 by convention).
    id: u32,
    /// Master key (the BS is trusted; it keeps `Km`).
    km: Key128,
    /// `id -> (Ki, counter window)` registry.
    nodes: HashMap<u32, NodeEntry>,
    /// Every potential cluster key, rolled forward on refresh; revoked
    /// ones are dropped. Always holds the BS's own singleton-cluster key
    /// (`F(KMC, id)`) under its id.
    cluster_keys: HashMap<ClusterId, SubkeySlot>,
    /// Revocation chain (BS side).
    chain: KeyChain,
    /// Next revocation sequence number.
    revoke_seq: u32,
    /// Commands queued for TIMER_REVOKE.
    pending_revocations: Vec<Vec<ClusterId>>,
    /// Two-phase revocation: announced commands whose links await
    /// disclosure on TIMER_REVEAL.
    pending_reveals: Vec<(u32, Key128)>,
    /// Nodes evicted so far (their Step-1 traffic is refused).
    evicted: Vec<u32>,
    /// Per-sender message sequence (nonce uniqueness).
    seq: u64,
    /// Refresh epoch.
    epoch: u32,
    /// Whether the phase-2 link advertisement already went out (guards
    /// against re-advertising when the simulator is rebuilt for node
    /// addition).
    link_advertised: bool,
    /// Duplicate suppression: the same unit arriving over several forwarding
    /// paths is processed once.
    dedup: DedupCache,
    /// When the BS last answered a RouteRequest (recovery-layer rate
    /// limiting, mirrors the sensors' cooldown).
    last_route_reply: Option<SimTime>,
    /// Reusable decrypt buffer for the receive path.
    rx_scratch: Vec<u8>,
    /// Crash-safety journal: when enabled (see [`Self::enable_journal`]),
    /// every durable state change is recorded here for the host to drain
    /// into a write-ahead log. `None` costs nothing on the hot path.
    journal: Option<Vec<StateMutation>>,
    /// Copies suppressed as multi-path duplicates.
    pub duplicates: u64,
    /// Accepted readings, in arrival order.
    pub received: Vec<Reading>,
    /// Drops by reason.
    pub drops: DropCounts,
    /// Replay/window rejections (kept separate from `drops.bad_auth` so
    /// tests can distinguish).
    pub counter_rejects: u64,
}

impl BaseStation {
    /// Builds the base station. `cluster_keys` must contain `F(KMC, i)` for
    /// every provisioned node ID `i` (any of them may become a head), and
    /// `registry` the corresponding `Ki` map.
    pub fn new(
        cfg: ProtocolConfig,
        id: u32,
        km: Key128,
        registry: HashMap<u32, Key128>,
        cluster_keys: HashMap<ClusterId, Key128>,
        chain: KeyChain,
    ) -> Self {
        assert!(
            cluster_keys.contains_key(&id),
            "BS id must be in the cluster-key map"
        );
        let dedup = DedupCache::new(cfg.dedup_cache);
        BaseStation {
            cfg,
            id,
            km,
            nodes: registry
                .into_iter()
                .map(|(id, ki)| (id, NodeEntry::new(ki, None)))
                .collect(),
            cluster_keys: slots(cluster_keys),
            chain,
            revoke_seq: 0,
            pending_revocations: Vec::new(),
            pending_reveals: Vec::new(),
            evicted: Vec::new(),
            seq: 0,
            epoch: 0,
            link_advertised: false,
            dedup,
            last_route_reply: None,
            rx_scratch: Vec::new(),
            journal: None,
            duplicates: 0,
            received: Vec::new(),
            drops: DropCounts::default(),
            counter_rejects: 0,
        }
    }

    /// BS node id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Current refresh epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Nodes evicted so far.
    pub fn evicted(&self) -> &[u32] {
        &self.evicted
    }

    /// Queues a revocation command for the given clusters and marks the
    /// member nodes evicted. Fired on the next [`TIMER_REVOKE`].
    pub fn queue_revocation(&mut self, cids: Vec<ClusterId>, compromised_nodes: Vec<u32>) {
        self.record(|| StateMutation::RevokeQueued {
            cids: cids.clone(),
            nodes: compromised_nodes.clone(),
        });
        self.evicted.extend(compromised_nodes);
        self.pending_revocations.push(cids);
    }

    /// Rolls every cluster key forward one hash-refresh epoch (the BS
    /// tracks the network's epoch).
    pub fn apply_hash_refresh(&mut self) {
        self.record(|| StateMutation::EpochRatchet);
        self.hash_step_cluster_keys();
    }

    fn hash_step_cluster_keys(&mut self) {
        for kc in self.cluster_keys.values_mut() {
            kc.hash_step();
        }
        self.epoch += 1;
    }

    /// The BS's own singleton-cluster key slot (never revoked).
    fn own_kc(&mut self) -> &mut SubkeySlot {
        self.cluster_keys
            .get_mut(&self.id)
            .expect("the BS never drops its own cluster key")
    }

    /// What a fired revocation command leaves at this sink: the cluster
    /// keys it names are dropped, except the BS's own, and so is every
    /// evicted node's `Ki`. The sink opens nothing under either
    /// afterwards.
    fn drop_revoked(&mut self, cids: &[ClusterId]) {
        for cid in cids.iter().filter(|&&cid| cid != self.id) {
            self.cluster_keys.remove(cid);
        }
        for node in &self.evicted {
            self.nodes.remove(node);
        }
    }

    /// Applies a revocation command another sink fired: `nodes` are
    /// evicted, and the command's cluster keys and the evicted nodes'
    /// `Ki` are dropped here too. Only the issuing sink broadcasts the
    /// command (see [`Self::queue_revocation`]); a sink that kept the
    /// keys would go on opening and ACKing frames under them.
    pub fn apply_revocation(&mut self, cids: Vec<ClusterId>, nodes: Vec<u32>) {
        self.record(|| StateMutation::RevokeApplied {
            cids: cids.clone(),
            nodes: nodes.clone(),
        });
        self.evicted.extend(nodes);
        self.drop_revoked(&cids);
    }

    /// Rolls forward through every auto-refresh epoch whose boundary
    /// (`erase_km_at + k · period`) is at or before `now`. Every live
    /// node rolled at those boundaries, so a base station that starts
    /// (or restarts) late must do the same before it sees traffic. The
    /// rolls are journaled like any other.
    pub fn catch_up_refresh(&mut self, now: SimTime) {
        if self.cfg.auto_refresh_epochs == 0 {
            return;
        }
        let elapsed = now.saturating_sub(self.cfg.erase_km_at) / self.cfg.auto_refresh_period;
        let due = elapsed.min(self.cfg.auto_refresh_epochs as u64) as u32;
        while self.epoch < due {
            self.apply_hash_refresh();
        }
    }

    /// Registers a node provisioned after initial deployment (§IV-E): its
    /// `Ki` joins the registry and its potential cluster key the key map.
    pub fn register_node(&mut self, id: u32, ki: Key128, kc: Key128) {
        self.record(|| StateMutation::Join { id, ki, kc });
        self.join(id, ki, kc);
    }

    /// Installs a joiner's keys. A node already registered keeps its
    /// counter window (a wiped reboot re-registers under the same id).
    fn join(&mut self, id: u32, ki: Key128, kc: Key128) {
        self.nodes
            .entry(id)
            .and_modify(|e| e.ki = SubkeySlot::new(ki))
            .or_insert_with(|| NodeEntry::new(ki, None));
        self.cluster_keys.insert(id, SubkeySlot::new(kc));
    }

    /// Multi-sink handoff, sending side: removes and returns the per-node
    /// partition entry (`Ki` + replay window) so it can be installed at
    /// the sink now serving the node. `None` if this sink does not hold
    /// the node's entry.
    pub fn take_node_state(&mut self, node: u32) -> Option<SinkNodeState> {
        let state = self.nodes.remove(&node)?.state(node);
        self.record(|| StateMutation::RehomeOut { node });
        Some(state)
    }

    /// Multi-sink handoff, receiving side: installs a partition entry
    /// taken from another sink. The replay window travels with the key so
    /// a handoff never re-opens the counter-replay surface.
    pub fn install_node_state(&mut self, state: SinkNodeState) {
        self.record(|| StateMutation::RehomeIn {
            node: state.id,
            ki: state.ki,
            last_ctr: state.window.last(),
        });
        let entry = NodeEntry::new(state.ki, Some(state.window));
        self.nodes.insert(state.id, entry);
    }

    /// Inter-sink handoff, sending side, phase 0: a *copy* of the node's
    /// partition entry, without removing it. The two-phase handoff
    /// protocol sends this copy to the new home and only retires the
    /// local entry (via [`Self::take_node_state`]) once the receiver has
    /// acknowledged the install — between the two steps both sinks hold
    /// the entry, so a lost datagram can never lose it.
    pub fn copy_node_state(&self, node: u32) -> Option<SinkNodeState> {
        Some(self.nodes.get(&node)?.state(node))
    }

    /// Journals the intent to hand `node` off to `to_sink` (phase 1 of
    /// the two-phase inter-sink handoff). State is untouched; the record
    /// lets a restarted sink distinguish an in-flight handoff from a
    /// completed one.
    pub fn note_handoff_intent(&mut self, node: u32, to_sink: u32) {
        self.record(|| StateMutation::HandoffIntent { node, to_sink });
    }

    /// Failover takeover: installs a partition entry re-derived from the
    /// provisioning seed after the failure detector declared `from_sink`
    /// dead. Journals [`StateMutation::FailoverIn`] (same state effect as
    /// a rehome-in, with provenance) *before* the entry is served, so a
    /// takeover that itself crashes replays the installs from its WAL.
    pub fn install_failover_state(&mut self, state: SinkNodeState, from_sink: u32) {
        self.record(|| StateMutation::FailoverIn {
            node: state.id,
            ki: state.ki,
            from_sink,
        });
        let entry = NodeEntry::new(state.ki, Some(state.window));
        self.nodes.insert(state.id, entry);
    }

    /// Whether this sink holds `node`'s partition entry.
    pub fn holds(&self, node: u32) -> bool {
        self.nodes.contains_key(&node)
    }

    /// The node ids whose partition entries this sink currently holds
    /// (ascending) — the invariant across handoffs and failovers is that
    /// every sensor is held by exactly one live sink.
    pub fn registered_nodes(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.nodes.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Installs an out-of-band-learned cluster key (re-cluster refresh:
    /// heads generate random keys the BS cannot derive; the simulation
    /// harness syncs it — see DESIGN.md "known deviations").
    pub fn set_cluster_key(&mut self, cid: ClusterId, kc: Key128) {
        self.record(|| StateMutation::ClusterKey { cid, kc });
        self.cluster_keys.insert(cid, SubkeySlot::new(kc));
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        if s.is_multiple_of(SEQ_RESERVE_STRIDE) {
            // Journal a watermark once per stride, not per frame; restores
            // skip past it so CTR nonces never repeat (see
            // [`crate::persist::SEQ_RESERVE_STRIDE`]).
            self.record(|| StateMutation::SeqReserve {
                next: s + SEQ_RESERVE_STRIDE,
            });
        }
        s
    }

    /// Arms the next autonomous refresh tick at the shared absolute
    /// boundaries `erase_km_at + k · period` (mirrors the sensors'
    /// schedule so the whole network rolls keys in lockstep).
    fn arm_auto_refresh(&mut self, ctx: &mut impl Transport) {
        if self.cfg.auto_refresh_epochs == 0 || self.epoch >= self.cfg.auto_refresh_epochs {
            return;
        }
        let p = self.cfg.auto_refresh_period;
        let base = self.cfg.erase_km_at;
        let now = ctx.now();
        let next = base + (now.saturating_sub(base) / p + 1) * p;
        ctx.set_timer(TIMER_BS_AUTO_REFRESH, next - now);
    }

    fn accept_data(&mut self, unit: DataUnit) {
        if !self.dedup.insert(unit.dedup_key()) {
            self.duplicates += 1;
            return;
        }
        if self.evicted.contains(&unit.src) {
            self.drops.wrong_phase += 1;
            return;
        }
        if !unit.sealed {
            // Fusion-mode plaintext: nothing end-to-end to verify.
            self.received.push(Reading {
                src: unit.src,
                data: unit.body.to_vec(),
                ctr: None,
            });
            return;
        }
        let Some(entry) = self.nodes.get_mut(&unit.src) else {
            self.drops.unknown_cluster += 1;
            return;
        };
        // One sealer serves every candidate counter below.
        let ae = entry.ki.sealer();
        let window = entry.window.get_or_insert_default();
        let accepted = match (self.cfg.counter_mode, unit.ctr) {
            (CounterMode::Explicit, Some(ctr)) => {
                match e2e_open_with(&ae, unit.src, ctr, &unit.body) {
                    Ok(data) => {
                        if window.accept(ctr).is_err() {
                            None // replay
                        } else {
                            Some((data, ctr))
                        }
                    }
                    Err(_) => None,
                }
            }
            (CounterMode::Implicit, _) => {
                // "The receiver can try a small window of counter values to
                // recover the message."
                let mut hit = None;
                for ctr in window.candidates(self.cfg.counter_window) {
                    if let Ok(data) = e2e_open_with(&ae, unit.src, ctr, &unit.body) {
                        hit = Some((data, ctr));
                        break;
                    }
                }
                if let Some((_, ctr)) = hit {
                    let _ = window.accept(ctr);
                }
                hit
            }
            (CounterMode::Explicit, None) => None,
        };
        match accepted {
            Some((data, ctr)) => {
                let src = unit.src;
                self.record(|| StateMutation::CounterAccept { src, ctr });
                self.received.push(Reading {
                    src,
                    data,
                    ctr: Some(ctr),
                });
            }
            None => self.counter_rejects += 1,
        }
    }

    fn handle_wrapped(
        &mut self,
        ctx: &mut impl Transport,
        cid: ClusterId,
        nonce: u64,
        sealed: &[u8],
    ) {
        let Some(kc) = self.cluster_keys.get_mut(&cid) else {
            self.drops.unknown_cluster += 1;
            return;
        };
        // One sealer opens the frame and seals the ACK or route reply.
        let ae = kc.sealer();
        let result = unwrap_in(
            &ae,
            cid,
            nonce,
            sealed,
            ctx.now(),
            &self.cfg,
            &mut self.rx_scratch,
        );
        match result {
            Ok(u) => match u.inner {
                // Addressed to another sink: overheard in passing, that
                // sink (or a node nearer to it) handles it — not a drop.
                Inner::SinkData { sink, .. } if !self.cfg.sinks.enabled || sink != self.id => {}
                Inner::Data(unit) | Inner::SinkData { unit, .. } => {
                    if self.cfg.recovery.enabled {
                        // ACK *every* successfully unwrapped Data frame —
                        // duplicates and counter replays included — under
                        // the key it arrived under: honest forwarders must
                        // stop retransmitting regardless of what end-to-end
                        // validation decides.
                        self.send_ack(ctx, cid, &ae, unit.dedup_key());
                    }
                    self.accept_data(unit);
                }
                Inner::RouteRequest => {
                    if self.cfg.recovery.enabled
                        && self.last_route_reply.is_none_or(|t| {
                            ctx.now().saturating_sub(t) >= self.cfg.recovery.route_reply_cooldown
                        })
                    {
                        // The gradient root itself is always a viable next
                        // hop: answer with our own hops-0 beacon under the
                        // requester's cluster key.
                        let frame = self.seal(cid, &ae, ctx.now(), &self.beacon());
                        ctx.broadcast(frame);
                        self.last_route_reply = Some(ctx.now());
                    }
                }
                // The BS is the gradient root; beacons (its own or a peer
                // sink's), refresh HELLOs, heartbeats, failover
                // announcements and ACKs (busy or plain) from the field
                // carry nothing it needs.
                Inner::Beacon
                | Inner::SinkBeacon { .. }
                | Inner::RefreshHello { .. }
                | Inner::Ack { .. }
                | Inner::BusyAck { .. }
                | Inner::Heartbeat
                | Inner::NewHead { .. } => {}
            },
            Err(ProtocolError::Stale) => self.drops.stale += 1,
            Err(ProtocolError::Crypto(_)) => self.drops.bad_auth += 1,
            Err(_) => self.drops.malformed += 1,
        }
    }

    /// Emits a hop-by-hop ACK under the key the acknowledged frame arrived
    /// under (recovery layer).
    fn send_ack(&mut self, ctx: &mut impl Transport, cid: ClusterId, ae: &AuthEnc, ack_key: u64) {
        let frame = self.seal(cid, ae, ctx.now(), &Inner::Ack { key: ack_key });
        ctx.broadcast(frame);
    }

    /// The beacon rooting this sink's gradient: it names the sink in a
    /// multi-sink deployment (the legacy anonymous `Beacon` otherwise).
    fn beacon(&self) -> Inner {
        Route(self.id).beacon(&self.cfg.sinks)
    }

    /// Seals `inner` as one Step-2 frame under cluster `cid`'s sealer
    /// `ae`, stamped `now`. The base station is the root of every
    /// gradient, so the header always carries hops 0.
    fn seal(&mut self, cid: ClusterId, ae: &AuthEnc, now: SimTime, inner: &Inner) -> Bytes {
        let seq = self.next_seq();
        wrap_frame(ae, cid, self.id, seq, now, 0, inner)
    }
}

/// Crash recovery: the mutation journal and snapshot/restore (see
/// [`crate::persist`]).
impl BaseStation {
    /// Records a mutation if journaling is on. The closure keeps the
    /// disabled path allocation-free — most deployments (every simulator
    /// run) never enable the journal.
    fn record(&mut self, m: impl FnOnce() -> StateMutation) {
        if let Some(j) = self.journal.as_mut() {
            j.push(m());
        }
    }

    /// Turns on the mutation journal. From this point every durable state
    /// change is buffered until the host collects it with
    /// [`Self::drain_journal`] and appends it to a write-ahead log.
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    /// Takes the mutations buffered since the last drain (empty if the
    /// journal is disabled). The host must persist these **before**
    /// releasing any output the dispatch produced (WAL-before-ACK): an
    /// acknowledged reading must never be lost to a crash.
    pub fn drain_journal(&mut self) -> Vec<StateMutation> {
        match self.journal.as_mut() {
            Some(j) => std::mem::take(j),
            None => Vec::new(),
        }
    }

    /// Cuts a full snapshot of the durable state (a WAL compaction
    /// point). Maps are sorted so equal states snapshot byte-identically.
    pub fn snapshot(&self) -> BsSnapshot {
        let mut registry: Vec<(u32, Key128)> =
            self.nodes.iter().map(|(id, e)| (*id, e.ki.key())).collect();
        registry.sort_unstable_by_key(|(id, _)| *id);
        let mut cluster_keys: Vec<(ClusterId, Key128)> = self
            .cluster_keys
            .iter()
            .map(|(cid, kc)| (*cid, kc.key()))
            .collect();
        cluster_keys.sort_unstable_by_key(|(cid, _)| *cid);
        let mut windows: Vec<(u32, Option<u64>)> = self
            .nodes
            .iter()
            .filter_map(|(src, e)| Some((*src, e.window.as_ref()?.last())))
            .collect();
        windows.sort_unstable_by_key(|(src, _)| *src);
        BsSnapshot {
            id: self.id,
            epoch: self.epoch,
            seq: self.seq,
            revoke_seq: self.revoke_seq,
            chain_next: self.chain.position() as u32,
            link_advertised: self.link_advertised,
            registry,
            cluster_keys,
            windows,
            evicted: self.evicted.clone(),
            pending_revocations: self.pending_revocations.clone(),
            pending_reveals: self.pending_reveals.clone(),
        }
    }

    /// Rebuilds a base station from a snapshot. `km` and `chain` are
    /// re-derived from the provisioning seed (they are never persisted —
    /// see [`crate::persist`]); the chain is fast-forwarded to the
    /// snapshot position here. The restored seq rounds up two
    /// [`SEQ_RESERVE_STRIDE`]s so no CTR nonce from the previous
    /// incarnation can repeat.
    pub fn from_snapshot(
        cfg: ProtocolConfig,
        km: Key128,
        mut chain: KeyChain,
        snap: BsSnapshot,
    ) -> Self {
        chain.skip_to(snap.chain_next as usize);
        let cluster_keys = slots(snap.cluster_keys);
        assert!(
            cluster_keys.contains_key(&snap.id),
            "snapshot must carry the BS's own cluster key"
        );
        let dedup = DedupCache::new(cfg.dedup_cache);
        let mut nodes: HashMap<u32, NodeEntry> = snap
            .registry
            .into_iter()
            .map(|(id, ki)| (id, NodeEntry::new(ki, None)))
            .collect();
        // A window exists only beside its node's key, so a window without
        // one cannot occur in a snapshot cut by `snapshot`.
        for (src, last) in snap.windows {
            if let Some(e) = nodes.get_mut(&src) {
                e.window = Some(CounterWindow::resumed(last));
            }
        }
        BaseStation {
            cfg,
            id: snap.id,
            km,
            nodes,
            cluster_keys,
            chain,
            revoke_seq: snap.revoke_seq,
            pending_revocations: snap.pending_revocations,
            pending_reveals: snap.pending_reveals,
            evicted: snap.evicted,
            seq: (snap.seq / SEQ_RESERVE_STRIDE + 2) * SEQ_RESERVE_STRIDE,
            epoch: snap.epoch,
            link_advertised: snap.link_advertised,
            dedup,
            last_route_reply: None,
            rx_scratch: Vec::new(),
            journal: None,
            duplicates: 0,
            received: Vec::new(),
            drops: DropCounts::default(),
            counter_rejects: 0,
        }
    }

    /// Replays one journaled mutation (WAL recovery). Mutations are
    /// applied in journal order on top of the snapshot state; replay
    /// never re-journals and never produces protocol output — the
    /// broadcasts that once accompanied these mutations already happened
    /// in the previous incarnation.
    pub fn apply_mutation(&mut self, m: &StateMutation) {
        match m {
            StateMutation::Join { id, ki, kc } => self.join(*id, *ki, *kc),
            StateMutation::EpochRatchet => self.hash_step_cluster_keys(),
            StateMutation::RevokeQueued { cids, nodes } => {
                self.evicted.extend_from_slice(nodes);
                self.pending_revocations.push(cids.clone());
            }
            StateMutation::RevokeFired { seq, two_phase } => {
                if !self.pending_revocations.is_empty() {
                    let cids = self.pending_revocations.remove(0);
                    self.drop_revoked(&cids);
                }
                let link = self.chain.reveal_next();
                self.revoke_seq = *seq;
                if let (true, Some(link)) = (*two_phase, link) {
                    self.pending_reveals.push((*seq, link));
                }
            }
            StateMutation::RevokeApplied { cids, nodes } => {
                self.evicted.extend_from_slice(nodes);
                self.drop_revoked(cids);
            }
            StateMutation::RevokeExhausted => {
                if !self.pending_revocations.is_empty() {
                    self.pending_revocations.remove(0);
                }
            }
            StateMutation::RevealFlushed => self.pending_reveals.clear(),
            StateMutation::CounterAccept { src, ctr } => {
                // Journaled only for a registered source.
                if let Some(e) = self.nodes.get_mut(src) {
                    let _ = e.window.get_or_insert_default().accept(*ctr);
                }
            }
            StateMutation::ClusterKey { cid, kc } => {
                self.cluster_keys.insert(*cid, SubkeySlot::new(*kc));
            }
            StateMutation::RehomeOut { node } => {
                self.nodes.remove(node);
            }
            StateMutation::RehomeIn { node, ki, last_ctr } => {
                let entry = NodeEntry::new(*ki, Some(CounterWindow::resumed(*last_ctr)));
                self.nodes.insert(*node, entry);
            }
            StateMutation::SeqReserve { next } => {
                self.seq = self.seq.max(next + SEQ_RESERVE_STRIDE);
            }
            StateMutation::LinkAdvertised => self.link_advertised = true,
            // Intent only: ownership does not change until the matching
            // RehomeOut (cut after the receiver's ack) replays.
            StateMutation::HandoffIntent { .. } => {}
            StateMutation::FailoverIn { node, ki, .. } => {
                // Same as a live install, except that a window already
                // held is kept.
                let window = self.nodes.remove(node).and_then(|e| e.window);
                let entry = NodeEntry::new(*ki, Some(window.unwrap_or_default()));
                self.nodes.insert(*node, entry);
            }
        }
    }
}

impl BaseStation {
    /// The start hook body, generic over the transport backend. The
    /// simulator reaches it through the [`App`] adapter below; the
    /// `wsn-net` backends call it directly.
    pub fn dispatch_start(&mut self, ctx: &mut impl Transport) {
        // Advertise the BS's own cluster key in phase 2, like every node,
        // so radio neighbors can authenticate BS-originated beacons.
        if !self.link_advertised {
            let jitter = ctx.rng().gen_range(0..200 * MILLI);
            ctx.set_timer(TIMER_BS_LINK, self.cfg.link_phase_at + jitter);
        }
        self.arm_auto_refresh(ctx);
    }

    /// The timer hook body, generic over the transport backend.
    pub fn dispatch_timer(&mut self, ctx: &mut impl Transport, key: TimerKey) {
        match key {
            TIMER_BS_LINK => {
                self.record(|| StateMutation::LinkAdvertised);
                self.link_advertised = true;
                let seq = self.next_seq();
                let own_kc = self.own_kc().key();
                let (nonce, sealed) =
                    seal_setup_with(&sealer(&self.km), self.id, seq, self.id, &own_kc);
                ctx.broadcast(Message::LinkAdvert { nonce, sealed }.encode());
            }
            TIMER_BEACON => {
                let ae = self.own_kc().sealer();
                let frame = self.seal(self.id, &ae, ctx.now(), &self.beacon());
                ctx.broadcast(frame);
            }
            TIMER_BS_AUTO_REFRESH => {
                self.apply_hash_refresh();
                self.arm_auto_refresh(ctx);
            }
            TIMER_REVOKE => {
                for cids in std::mem::take(&mut self.pending_revocations) {
                    let Some(link) = self.chain.reveal_next() else {
                        // Chain exhausted; command cannot be authenticated.
                        self.record(|| StateMutation::RevokeExhausted);
                        self.drops.wrong_phase += 1;
                        continue;
                    };
                    self.revoke_seq += 1;
                    let (seq, two_phase) = (self.revoke_seq, self.cfg.two_phase_revocation);
                    self.record(|| StateMutation::RevokeFired { seq, two_phase });
                    self.drop_revoked(&cids);
                    if self.cfg.two_phase_revocation {
                        // Phase 1: announce under the undisclosed link.
                        let tag = crate::evict::revoke_tag(&link, self.revoke_seq, &cids);
                        ctx.broadcast(
                            Message::RevokeAnnounce {
                                seq: self.revoke_seq,
                                cids,
                                tag,
                            }
                            .encode(),
                        );
                        self.pending_reveals.push((self.revoke_seq, link));
                        ctx.set_timer(TIMER_REVEAL, self.cfg.revocation_disclosure_delay);
                    } else {
                        ctx.broadcast(build_revoke(link, self.revoke_seq, cids).encode());
                    }
                }
            }
            TIMER_REVEAL => {
                if !self.pending_reveals.is_empty() {
                    self.record(|| StateMutation::RevealFlushed);
                }
                for (seq, link) in std::mem::take(&mut self.pending_reveals) {
                    ctx.broadcast(Message::RevokeReveal { seq, link }.encode());
                }
            }
            _ => {}
        }
    }

    /// The message hook body, generic over the transport backend.
    pub fn dispatch_message(&mut self, ctx: &mut impl Transport, payload: &[u8]) {
        // Same zero-copy fast path as the sensors: wrapped frames dominate
        // steady-state traffic and `peek_wrapped` agrees exactly with
        // `decode`.
        if let Some((cid, nonce, sealed)) = Message::peek_wrapped(payload) {
            self.handle_wrapped(ctx, cid, nonce, sealed);
            return;
        }
        match Message::decode(payload) {
            Ok(Message::Wrapped { cid, nonce, sealed }) => {
                self.handle_wrapped(ctx, cid, nonce, &sealed)
            }
            // Setup chatter and flood echoes: the BS doesn't need them.
            Ok(_) => {}
            Err(_) => self.drops.malformed += 1,
        }
    }
}

/// Unbuilt slots for a `cid -> Kc` map.
fn slots(keys: impl IntoIterator<Item = (ClusterId, Key128)>) -> HashMap<ClusterId, SubkeySlot> {
    keys.into_iter()
        .map(|(cid, kc)| (cid, SubkeySlot::new(kc)))
        .collect()
}

impl App for BaseStation {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.dispatch_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, key: TimerKey) {
        self.dispatch_timer(ctx, key);
    }

    fn on_message(&mut self, ctx: &mut Ctx, _from: NodeId, payload: &[u8]) {
        self.dispatch_message(ctx, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::e2e_seal;
    use crate::keys::Provisioner;
    use crate::refresh;
    use bytes::Bytes;

    fn bs_with(cfg: ProtocolConfig) -> (BaseStation, Provisioner) {
        let mut p = Provisioner::new(7);
        // Provision BS (0) and a couple of sensors.
        for id in 0..4 {
            p.provision(id);
        }
        let registry = p.registry().clone();
        let cluster_keys: HashMap<u32, Key128> = (0..4).map(|i| (i, p.cluster_key_of(i))).collect();
        let bs = BaseStation::new(cfg, 0, p.km(), registry, cluster_keys, p.revocation_chain());
        (bs, p)
    }

    fn sealed_unit(p: &Provisioner, src: u32, ctr: u64, data: &[u8], explicit: bool) -> DataUnit {
        let ki = p.node_key(src);
        DataUnit {
            src,
            ctr: explicit.then_some(ctr),
            sealed: true,
            body: e2e_seal(&ki, src, ctr, data),
        }
    }

    #[test]
    fn accepts_explicit_counter_reading() {
        let cfg = ProtocolConfig::default().with_counter_mode(CounterMode::Explicit);
        let (mut bs, p) = bs_with(cfg);
        bs.accept_data(sealed_unit(&p, 2, 0, b"r0", true));
        assert_eq!(bs.received.len(), 1);
        assert_eq!(bs.received[0].src, 2);
        assert_eq!(bs.received[0].data, b"r0");
        assert_eq!(bs.received[0].ctr, Some(0));
    }

    #[test]
    fn rejects_explicit_replay() {
        let cfg = ProtocolConfig::default().with_counter_mode(CounterMode::Explicit);
        let (mut bs, p) = bs_with(cfg);
        let unit = sealed_unit(&p, 2, 0, b"r0", true);
        // A byte-identical copy (multi-path flooding) is suppressed by the
        // dedup cache, not counted as an attack.
        bs.accept_data(unit.clone());
        bs.accept_data(unit);
        assert_eq!(bs.received.len(), 1);
        assert_eq!(bs.duplicates, 1);
        assert_eq!(bs.counter_rejects, 0);
        // A *different* message reusing an old counter (clone misbehaving)
        // is a counter replay.
        bs.accept_data(sealed_unit(&p, 2, 0, b"other", true));
        assert_eq!(bs.received.len(), 1);
        assert_eq!(bs.counter_rejects, 1);
    }

    #[test]
    fn implicit_mode_resynchronizes_within_window() {
        let (mut bs, p) = bs_with(ProtocolConfig::default());
        // Counters 0..3 lost in transit; 4 arrives first.
        bs.accept_data(sealed_unit(&p, 2, 4, b"r4", false));
        assert_eq!(bs.received.len(), 1);
        assert_eq!(bs.received[0].ctr, Some(4));
        // Next message continues from 5.
        bs.accept_data(sealed_unit(&p, 2, 5, b"r5", false));
        assert_eq!(bs.received.len(), 2);
    }

    #[test]
    fn implicit_mode_rejects_outside_window() {
        let (mut bs, p) = bs_with(ProtocolConfig::default());
        let beyond = ProtocolConfig::default().counter_window + 3;
        bs.accept_data(sealed_unit(&p, 2, beyond, b"far", false));
        assert_eq!(bs.received.len(), 0);
        assert_eq!(bs.counter_rejects, 1);
    }

    #[test]
    fn unknown_source_rejected() {
        let (mut bs, p) = bs_with(ProtocolConfig::default());
        let ki = Key128::from_bytes([0xAB; 16]);
        let unit = DataUnit {
            src: 999,
            ctr: None,
            sealed: true,
            body: e2e_seal(&ki, 999, 0, b"evil"),
        };
        let _ = p;
        bs.accept_data(unit);
        assert!(bs.received.is_empty());
    }

    #[test]
    fn evicted_source_refused() {
        let (mut bs, p) = bs_with(ProtocolConfig::default());
        bs.queue_revocation(vec![2], vec![2]);
        bs.accept_data(sealed_unit(&p, 2, 0, b"r", false));
        assert!(bs.received.is_empty());
        // Other nodes unaffected.
        bs.accept_data(sealed_unit(&p, 3, 0, b"ok", false));
        assert_eq!(bs.received.len(), 1);
    }

    #[test]
    fn unsealed_fusion_reading_accepted() {
        let (mut bs, _p) = bs_with(ProtocolConfig::default());
        bs.accept_data(DataUnit {
            src: 3,
            ctr: None,
            sealed: false,
            body: Bytes::from_static(b"plaintext"),
        });
        assert_eq!(bs.received.len(), 1);
        assert_eq!(bs.received[0].ctr, None);
    }

    #[test]
    fn hash_refresh_keeps_own_key_synced() {
        let (mut bs, p) = bs_with(ProtocolConfig::default());
        let before = bs.own_kc().key();
        bs.apply_hash_refresh();
        assert_eq!(bs.epoch(), 1);
        assert_ne!(bs.own_kc().key(), before);
        assert_eq!(
            bs.own_kc().key(),
            refresh::cluster_key_at_epoch(&p.kmc(), 0, 1)
        );
    }

    #[test]
    fn journal_replay_reproduces_state() {
        // Drive one BS through every journaled mutation class, then
        // rebuild a second from an *earlier* snapshot plus the journal —
        // the two must snapshot identically (modulo the seq round-up).
        let cfg = ProtocolConfig::default().with_counter_mode(CounterMode::Explicit);
        let (mut bs, p) = bs_with(cfg.clone());
        bs.enable_journal();
        let base = bs.snapshot();

        bs.accept_data(sealed_unit(&p, 2, 0, b"r0", true));
        bs.accept_data(sealed_unit(&p, 2, 7, b"r7", true));
        bs.apply_hash_refresh();
        bs.register_node(9, Key128::from_bytes([9; 16]), Key128::from_bytes([10; 16]));
        bs.queue_revocation(vec![3], vec![3]);
        bs.set_cluster_key(1, Key128::from_bytes([0x55; 16]));
        let taken = bs.take_node_state(2).unwrap();
        bs.install_node_state(taken);
        let journal = bs.drain_journal();
        assert!(!journal.is_empty());

        let mut restored =
            BaseStation::from_snapshot(cfg, p.km(), p.revocation_chain(), base.clone());
        for m in &journal {
            restored.apply_mutation(m);
        }
        let mut want = bs.snapshot();
        let mut got = restored.snapshot();
        // Seq restores conservatively (rounded up); everything else exact.
        assert!(got.seq >= want.seq);
        want.seq = 0;
        got.seq = 0;
        assert_eq!(got, want);
        // The restored station still opens live traffic: epoch keys match.
        assert_eq!(restored.epoch(), bs.epoch());
    }

    #[test]
    fn restored_seq_never_reuses_nonces() {
        let (mut bs, p) = bs_with(ProtocolConfig::default());
        bs.enable_journal();
        for _ in 0..10 {
            let _ = bs.next_seq();
        }
        let snap = bs.snapshot();
        let journal = bs.drain_journal();
        let mut restored = BaseStation::from_snapshot(
            ProtocolConfig::default(),
            p.km(),
            p.revocation_chain(),
            snap,
        );
        for m in &journal {
            restored.apply_mutation(m);
        }
        // Every seq the old incarnation could have used (snapshot seq plus
        // anything up to the next unflushed stride boundary) is below the
        // restored counter.
        assert!(restored.next_seq() > bs.next_seq() + crate::persist::SEQ_RESERVE_STRIDE);
    }

    #[test]
    fn journal_disabled_is_free() {
        let (mut bs, p) = bs_with(ProtocolConfig::default());
        bs.accept_data(sealed_unit(&p, 2, 0, b"r0", false));
        bs.apply_hash_refresh();
        assert!(bs.drain_journal().is_empty());
    }

    /// A transport that records what the base station sends.
    struct Probe {
        now: SimTime,
        rng: rand::rngs::StdRng,
        sent: Vec<Bytes>,
    }

    impl Probe {
        fn at(now: SimTime) -> Self {
            use rand::SeedableRng;
            Probe {
                now,
                rng: rand::rngs::StdRng::seed_from_u64(1),
                sent: Vec::new(),
            }
        }
    }

    impl Transport for Probe {
        fn id(&self) -> NodeId {
            0
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn rng(&mut self) -> &mut rand::rngs::StdRng {
            &mut self.rng
        }
        fn broadcast(&mut self, payload: Bytes) {
            self.sent.push(payload);
        }
        fn send(&mut self, _to: NodeId, payload: Bytes) {
            self.sent.push(payload);
        }
        fn set_timer(&mut self, _key: TimerKey, _delay: SimTime) {}
        fn cancel_timer(&mut self, _key: TimerKey) {}
    }

    /// A Step-2 frame carrying `src`'s Step-1 reading `ctr`, wrapped by
    /// `src` under cluster `cid`'s sealer `kc`.
    fn reading_frame(p: &Provisioner, kc: &AuthEnc, cid: u32, src: u32, ctr: u64) -> Bytes {
        let unit = sealed_unit(p, src, ctr, &ctr.to_be_bytes(), true);
        wrap_frame(kc, cid, src, ctr, NOW, 1, &Inner::Data(unit))
    }

    const NOW: SimTime = 1_000_000;

    fn acking_cfg() -> ProtocolConfig {
        ProtocolConfig::default()
            .with_counter_mode(CounterMode::Explicit)
            .with_recovery(crate::config::RecoveryConfig::default())
    }

    /// Dispatches `frame` and requires that the base station refuses it
    /// for its cluster key: counted as bad auth or an unknown cluster,
    /// with no reading and no ACK.
    fn assert_refused(bs: &mut BaseStation, frame: &Bytes, what: &str) {
        let mut ctx = Probe::at(NOW);
        let (drops, readings) = (bs.drops, bs.received.len());
        bs.dispatch_message(&mut ctx, frame);
        let refused = (bs.drops.bad_auth - drops.bad_auth)
            + (bs.drops.unknown_cluster - drops.unknown_cluster);
        assert_eq!(refused, 1, "{what}: not refused for its key");
        assert_eq!(bs.received.len(), readings, "{what}: reading accepted");
        assert!(ctx.sent.is_empty(), "{what}: answered");
    }

    /// Dispatches `frame` and requires one accepted reading and one ACK.
    fn assert_accepted(bs: &mut BaseStation, frame: &Bytes, what: &str) {
        let mut ctx = Probe::at(NOW);
        let readings = bs.received.len();
        bs.dispatch_message(&mut ctx, frame);
        assert_eq!(bs.received.len(), readings + 1, "{what}: no reading");
        assert_eq!(ctx.sent.len(), 1, "{what}: no ACK");
    }

    #[test]
    fn old_or_revoked_keys_open_nothing() {
        let (mut bs, p) = bs_with(acking_cfg());
        bs.enable_journal();
        let base = bs.snapshot();
        let kc = |cid| p.cluster_key_of(cid);

        // Hash refresh: cluster 1's pre-refresh key is dead.
        let old1 = sealer(&kc(1));
        assert_accepted(&mut bs, &reading_frame(&p, &old1, 1, 1, 0), "epoch 0");
        bs.apply_hash_refresh();
        let stale_refresh = reading_frame(&p, &old1, 1, 1, 1);
        let new1 = sealer(&refresh::hash_step(&kc(1)));
        assert_refused(&mut bs, &stale_refresh, "pre-refresh key");
        assert_accepted(&mut bs, &reading_frame(&p, &new1, 1, 1, 2), "epoch 1");

        // Replacement: cluster 2's replaced key is dead.
        let old2 = sealer(&refresh::hash_step(&kc(2)));
        assert_accepted(&mut bs, &reading_frame(&p, &old2, 2, 2, 0), "old kc");
        let replaced = Key128::from_bytes([0x77; 16]);
        bs.set_cluster_key(2, replaced);
        let stale_replaced = reading_frame(&p, &old2, 2, 2, 1);
        assert_refused(&mut bs, &stale_replaced, "replaced key");
        let new2 = sealer(&replaced);
        assert_accepted(&mut bs, &reading_frame(&p, &new2, 2, 2, 2), "new kc");

        // Revocation: cluster 3's key is dead once the command fires (the
        // node itself is not evicted, so only the key refuses it). The
        // BS's own cluster 0 is named too and survives.
        let cur3 = sealer(&refresh::hash_step(&kc(3)));
        assert_accepted(&mut bs, &reading_frame(&p, &cur3, 3, 3, 0), "pre-revoke");
        bs.queue_revocation(vec![0, 3], vec![]);
        let mut ctx = Probe::at(NOW);
        bs.dispatch_timer(&mut ctx, TIMER_REVOKE);
        assert_eq!(ctx.sent.len(), 1, "the revocation goes out");
        let revoked = reading_frame(&p, &cur3, 3, 3, 1);
        assert_refused(&mut bs, &revoked, "revoked cid");
        assert_eq!(bs.own_kc().key(), refresh::hash_step(&kc(0)));
        bs.dispatch_timer(&mut ctx, TIMER_BEACON);
        assert_eq!(ctx.sent.len(), 2, "the BS still beacons");

        // A base station restored from the snapshot and the journal
        // refuses the same frames.
        let mut restored =
            BaseStation::from_snapshot(acking_cfg(), p.km(), p.revocation_chain(), base);
        for m in bs.drain_journal() {
            restored.apply_mutation(&m);
        }
        for (frame, what) in [
            (&stale_refresh, "restored: pre-refresh key"),
            (&stale_replaced, "restored: replaced key"),
            (&revoked, "restored: revoked cid"),
        ] {
            assert_refused(&mut restored, frame, what);
        }
        assert_accepted(
            &mut restored,
            &reading_frame(&p, &new1, 1, 1, 3),
            "restored",
        );
    }

    #[test]
    fn no_subkeys_outlive_their_key() {
        let (mut bs, p) = bs_with(acking_cfg());
        let mut ctx = Probe::at(NOW);
        for src in 1..4 {
            let kc = sealer(&p.cluster_key_of(src));
            bs.dispatch_message(&mut ctx, &reading_frame(&p, &kc, src, src, 0));
        }
        assert_eq!(bs.received.len(), 3);
        assert!((1..4).all(|id| bs.cluster_keys[&id].derived() && bs.nodes[&id].ki.derived()));

        bs.set_cluster_key(1, Key128::from_bytes([1; 16]));
        bs.register_node(2, Key128::from_bytes([2; 16]), Key128::from_bytes([3; 16]));
        assert!(!bs.cluster_keys[&1].derived() && bs.cluster_keys[&3].derived());
        assert!(!bs.cluster_keys[&2].derived() && !bs.nodes[&2].ki.derived());
        assert_eq!(bs.nodes[&2].window.as_ref().unwrap().last(), Some(0));
        bs.apply_hash_refresh();
        assert!(bs.cluster_keys.values().all(|kc| !kc.derived()));
        bs.queue_revocation(vec![3], vec![]);
        bs.dispatch_timer(&mut ctx, TIMER_REVOKE);
        assert!(!bs.cluster_keys.contains_key(&3));
    }

    #[test]
    fn same_outputs_past_the_old_cache_size() {
        // More sources than the old 4,096-entry sealer cache held, each its
        // own cluster, as on the socket path.
        const SOURCES: u32 = 10_000;
        let cfg = acking_cfg();
        let mut p = Provisioner::new(7);
        for id in 0..=SOURCES {
            p.provision(id);
        }
        let cluster_keys = (0..=SOURCES).map(|i| (i, p.cluster_key_of(i))).collect();
        let registry = p.registry().clone();
        let mut bs = BaseStation::new(
            cfg.clone(),
            0,
            p.km(),
            registry,
            cluster_keys,
            p.revocation_chain(),
        );
        bs.enable_journal();
        let base = bs.snapshot();
        let mut kcs: Vec<Key128> = (0..=SOURCES).map(|i| p.cluster_key_of(i)).collect();
        let mut seq = 0;
        let mut ctx = Probe::at(NOW);
        // Two readings per source; every output is checked against one
        // built from nothing. Returns the round's journal.
        let mut round = |bs: &mut BaseStation, kcs: &[Key128], ctrs: [u64; 2]| {
            let mut journal = Vec::new();
            for src in 1..=SOURCES {
                let ae = sealer(&kcs[src as usize]);
                for ctr in ctrs {
                    let frame = reading_frame(&p, &ae, src, src, ctr);
                    bs.dispatch_message(&mut ctx, &frame);
                    let unit = sealed_unit(&p, src, ctr, &ctr.to_be_bytes(), true);
                    let ack = Inner::Ack {
                        key: unit.dedup_key(),
                    };
                    let want = wrap_frame(&ae, src, 0, seq, NOW, 0, &ack);
                    assert_eq!(ctx.sent.pop(), Some(want), "ACK of {src}/{ctr}");
                    assert_eq!(
                        bs.received.pop(),
                        Some(Reading {
                            src,
                            data: ctr.to_be_bytes().to_vec(),
                            ctr: Some(ctr),
                        })
                    );
                    let mut want = Vec::new();
                    if seq.is_multiple_of(SEQ_RESERVE_STRIDE) {
                        let next = seq + SEQ_RESERVE_STRIDE;
                        want.push(StateMutation::SeqReserve { next });
                    }
                    want.push(StateMutation::CounterAccept { src, ctr });
                    let batch = bs.drain_journal();
                    assert_eq!(batch, want);
                    journal.extend(batch);
                    seq += 1;
                }
            }
            journal
        };
        let mut journal = round(&mut bs, &kcs, [0, 1]);
        bs.apply_hash_refresh();
        for kc in &mut kcs {
            *kc = refresh::hash_step(kc);
        }
        let replaced = Key128::from_bytes([0x5A; 16]);
        bs.set_cluster_key(SOURCES / 2, replaced);
        kcs[SOURCES as usize / 2] = replaced;
        let keyed = bs.drain_journal();
        assert_eq!(
            keyed,
            [
                StateMutation::EpochRatchet,
                StateMutation::ClusterKey {
                    cid: SOURCES / 2,
                    kc: replaced
                }
            ]
        );
        journal.extend(keyed);
        journal.extend(round(&mut bs, &kcs, [2, 3]));
        assert_eq!(bs.drops, DropCounts::default());
        assert_eq!(bs.counter_rejects, 0);

        // No derived material reaches the snapshot: a BS that never
        // derived anything snapshots the same.
        let mut restored = BaseStation::from_snapshot(cfg, p.km(), p.revocation_chain(), base);
        for m in &journal {
            restored.apply_mutation(m);
        }
        let (mut want, mut got) = (bs.snapshot(), restored.snapshot());
        assert!(got.seq >= want.seq);
        (want.seq, got.seq) = (0, 0);
        assert_eq!(got, want);
    }

    #[test]
    fn corrupted_body_counted() {
        let (mut bs, p) = bs_with(ProtocolConfig::default());
        let mut unit = sealed_unit(&p, 2, 0, b"r0", false);
        let mut body = unit.body.to_vec();
        body[0] ^= 1;
        unit.body = Bytes::from(body);
        bs.accept_data(unit);
        assert!(bs.received.is_empty());
        assert_eq!(bs.counter_rejects, 1);
    }
}

//! The sensor-node state machine: everything one mote runs.
//!
//! Phase behaviour follows §IV:
//!
//! * **Election** — wait `Exp(λ)`, then self-elect and broadcast a HELLO
//!   unless a HELLO arrived first (join silently: *zero* transmissions for
//!   members, the property behind Figure 9's ≈1.1 messages/node).
//! * **Link establishment** — one local broadcast of `(CID, Kc)` under
//!   `Km`; neighbors in other clusters add it to their key set `S`.
//! * **Erase** — `Km` is wiped; any late setup traffic is dropped as
//!   [`ProtocolError::WrongPhase`].
//! * **Steady state** — originate readings (Step 1 + Step 2), forward
//!   others' traffic downhill ([`crate::routing::Gradient`]), fuse
//!   duplicates, process revocations, answer join requests, refresh keys.
//!
//! There is one routing model and one forwarding path. A node keeps one
//! gradient per sink ([`Gradients`]; a single-sink deployment's base
//! station is sink 0). Data, beacons and ACKs are handled once, keyed by
//! the [`Route`] (sink id) a frame descends, and every Step-2 frame this
//! node sends is sealed by one helper, `seal`.

use crate::config::{CounterMode, ProtocolConfig, RefreshMode};
use crate::error::ProtocolError;
use crate::evict;
use crate::forward::{e2e_seal_with, open_in, open_setup_in, seal_setup_with, wrap_frame};
use crate::fusion::{DedupCache, PeekAggregator};
use crate::join::{join_tag, verify_join_tag};
use crate::keys::{KeySlot, NodeKeyMaterial, SensorKeys};
use crate::msg::{ClusterId, DataUnit, DataView, Inner, InnerRef, Message};
use crate::recovery::{self, RecoveryState, RetxEntry, RetxKind};
use crate::refresh;
use crate::resource::{self, Admission, ResourceState};
use crate::routing::{Gradients, Route};
use crate::transport::Transport;
use bytes::Bytes;
use rand::Rng;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use wsn_crypto::Key128;
use wsn_sim::event::{SimTime, MILLI, SECOND};
use wsn_sim::node::{App, Ctx, NodeId, RxShare, TimerKey};
use wsn_sim::rng::exp_delay;
use wsn_trace::{FrameKind, QueueKind, TraceEvent};

/// Timer: cluster-head election (Exp(λ) delay).
pub const TIMER_ELECTION: TimerKey = 1;
/// Timer: phase-2 link broadcast.
pub const TIMER_LINK: TimerKey = 2;
/// Timer: erase `Km`.
pub const TIMER_ERASE: TimerKey = 3;
/// Timer: transmit the next queued sensor reading.
pub const TIMER_SEND: TimerKey = 4;
/// Timer: close the join-response collection window.
pub const TIMER_JOIN: TimerKey = 5;
/// Timer: autonomous periodic hash refresh.
pub const TIMER_AUTO_REFRESH: TimerKey = 6;
/// Timer: scan the ARQ retransmit queue (recovery layer).
pub const TIMER_RETX: TimerKey = 20;
/// Timer: emit the next cluster-head heartbeat (recovery layer).
pub const TIMER_HEARTBEAT: TimerKey = 21;
/// Timer: member-side head-loss watchdog (recovery layer).
pub const TIMER_HEAD_WATCH: TimerKey = 22;
/// Timer: close the localized re-election window (recovery layer).
pub const TIMER_REELECT: TimerKey = 23;

/// One candidate payload of a two-phase revocation announce:
/// `(cluster ids, MAC under the not-yet-disclosed link)`.
type AnnounceCandidate = (Vec<ClusterId>, [u8; crate::msg::SHORT_TAG]);

/// A node's role after the election phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Not yet decided (election phase only).
    Undecided,
    /// Elected itself and broadcast a HELLO. "From this point on, cluster
    /// heads turn to normal members" — the role is only a historical
    /// marker, not a privilege.
    Head,
    /// Joined another node's cluster.
    Member,
    /// Deployed post-setup, currently running the §IV-E join protocol.
    Joining,
}

/// Counts of dropped frames by reason — the node-side evidence for the
/// security analysis (an attack shows up as a specific drop column).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DropCounts {
    /// MAC/decrypt failures.
    pub bad_auth: u64,
    /// CID not in the key set `S`.
    pub unknown_cluster: u64,
    /// Freshness window exceeded.
    pub stale: u64,
    /// Setup traffic after `Km` erasure (or other phase violations).
    pub wrong_phase: u64,
    /// Unparseable frames.
    pub malformed: u64,
}

impl DropCounts {
    /// Total drops.
    pub fn total(&self) -> u64 {
        self.bad_auth + self.unknown_cluster + self.stale + self.wrong_phase + self.malformed
    }
}

/// Per-node protocol statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeStats {
    /// Readings this node originated.
    pub originated: u64,
    /// Frames re-wrapped and forwarded downhill.
    pub forwarded: u64,
    /// Duplicates suppressed by the fusion peek.
    pub fused_duplicates: u64,
    /// ARQ retransmissions performed (recovery layer).
    pub retransmits: u64,
    /// Hop-by-hop ACKs emitted (recovery layer).
    pub acks_sent: u64,
    /// Route repairs initiated after retry exhaustion (recovery layer).
    pub route_repairs: u64,
    /// Frames dropped, by reason.
    pub drops: DropCounts,
}

/// Key material extracted from a captured node — what an adversary gets
/// (the paper assumes no tamper resistance).
#[derive(Clone, Debug)]
pub struct CapturedKeys {
    /// Captured node's ID.
    pub id: u32,
    /// Its node key `Ki`.
    pub ki: Key128,
    /// Its cluster's ID and key, if clustered.
    pub cluster: Option<(ClusterId, Key128)>,
    /// Its neighboring clusters' keys (set `S`).
    pub neighbor_keys: Vec<(ClusterId, Key128)>,
    /// `Km`, if captured before erasure (catastrophic).
    pub km: Option<Key128>,
    /// `KMC`, if captured mid-join (catastrophic for future clusters).
    pub kmc: Option<Key128>,
}

/// One reading queued for transmission.
#[derive(Clone, Debug)]
pub struct PendingReading {
    /// Application payload.
    pub data: Vec<u8>,
    /// Apply Step 1 (confidential to the base station) or leave plaintext
    /// for in-network fusion.
    pub sealed: bool,
}

/// The set `S`: keys of neighboring clusters, sorted by cluster id.
/// Figure 6 puts it at 2–4.5 entries, where a sorted vector is smaller
/// than a hash table and iterates in a fixed order.
#[derive(Debug, Default)]
struct NeighborKeys(Vec<(ClusterId, KeySlot)>);

impl NeighborKeys {
    fn find(&self, cid: ClusterId) -> Result<usize, usize> {
        self.0.binary_search_by_key(&cid, |&(c, _)| c)
    }

    fn get_mut(&mut self, cid: ClusterId) -> Option<&mut KeySlot> {
        let i = self.find(cid).ok()?;
        Some(&mut self.0[i].1)
    }

    fn contains(&self, cid: ClusterId) -> bool {
        self.find(cid).is_ok()
    }

    /// Inserts or replaces the key of `cid`.
    fn insert(&mut self, cid: ClusterId, slot: KeySlot) {
        match self.find(cid) {
            Ok(i) => self.0[i].1 = slot,
            Err(i) => self.0.insert(i, (cid, slot)),
        }
    }

    fn remove(&mut self, cid: ClusterId) -> Option<KeySlot> {
        let i = self.find(cid).ok()?;
        Some(self.0.remove(i).1)
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// State of the subsystems a default-config run never touches —
/// self-healing recovery, revocation and the fusion envelope — allocated
/// on first use, so an idle sensor pays one pointer for all of it.
#[derive(Debug)]
struct Extras {
    /// Self-healing recovery state (inert unless `cfg.recovery.enabled`).
    recovery: RecoveryState,
    /// Absolute heartbeat horizon: `cfg.recovery.heartbeat_until` until a
    /// driver sets it (see [`ProtocolNode::set_heartbeat_horizon`]).
    heartbeat_until: SimTime,
    /// Fusion-mode redundancy envelope (only consulted when
    /// `cfg.fusion_suppression` is on).
    peek: PeekAggregator,
    /// Revocation command sequence numbers already processed/flooded.
    revoke_seen: HashSet<u32>,
    /// Two-phase revocation: buffered announce candidates per seq (bounded
    /// per seq so a flooding adversary cannot exhaust memory, and a list —
    /// not a single slot — so a forged announce cannot front-run the
    /// genuine one).
    pending_announces: HashMap<u32, Vec<AnnounceCandidate>>,
    /// Two-phase revocation: chain-verified links awaiting a matching
    /// announce (reveal/announce reordering across flood paths).
    verified_links: HashMap<u32, Key128>,
}

/// What [`ProtocolNode::recovery_state`] shows before the layer ran.
static IDLE_RECOVERY: RecoveryState = RecoveryState::IDLE;

/// The protocol state machine for one sensor node.
pub struct ProtocolNode {
    /// The deployment's configuration, shared by every sensor.
    cfg: Arc<ProtocolConfig>,
    keys: SensorKeys,
    role: Role,
    cid: Option<ClusterId>,
    cluster_key: Option<KeySlot>,
    neighbor_keys: NeighborKeys,
    /// Per-sender message sequence (CTR nonce uniqueness).
    seq: u64,
    /// Step-1 end-to-end counter shared with the base station.
    e2e_ctr: u64,
    /// Our distance to each sink.
    gradients: Gradients,
    dedup: DedupCache,
    /// Optional-subsystem state, `None` until first used.
    extras: Option<Box<Extras>>,
    /// Set when this node's own cluster was revoked.
    revoked: bool,
    /// Key-refresh epoch.
    epoch: u32,
    /// Queued readings awaiting TIMER_SEND.
    pending: VecDeque<PendingReading>,
    /// Selective-forwarding compromise: a muted node receives and decrypts
    /// but silently refuses to forward others' traffic (§VI).
    muted: bool,
    /// Join-responses collected while `role == Joining`, in arrival order.
    join_responses: Vec<(ClusterId, Key128)>,
    /// Resource-budget state (admission gates, busy window, drop counters).
    /// Buffer high-water marks are recorded here unconditionally; the
    /// enforcement machinery is inert unless `cfg.resources.enabled`.
    resource: ResourceState,
    /// Protocol statistics.
    pub stats: NodeStats,
}

impl ProtocolNode {
    /// Creates a node for initial deployment (runs the setup phases).
    /// Pass one `Arc` to every node of a deployment so they share a single
    /// copy of the configuration.
    pub fn new(cfg: impl Into<Arc<ProtocolConfig>>, keys: NodeKeyMaterial) -> Self {
        let cfg = cfg.into();
        let dedup = DedupCache::new(cfg.dedup_cache);
        let gradients = Gradients::new(cfg.sinks.k());
        ProtocolNode {
            cfg,
            keys: keys.into(),
            role: Role::Undecided,
            cid: None,
            cluster_key: None,
            neighbor_keys: NeighborKeys::default(),
            seq: 0,
            e2e_ctr: 0,
            gradients,
            dedup,
            extras: None,
            revoked: false,
            epoch: 0,
            muted: false,
            pending: VecDeque::new(),
            join_responses: Vec::new(),
            resource: ResourceState::default(),
            stats: NodeStats::default(),
        }
    }

    /// Creates a node deployed post-setup that must join via §IV-E
    /// (`keys` must carry `KMC`; see
    /// [`crate::keys::Provisioner::provision_new_node`]).
    pub fn new_joiner(cfg: impl Into<Arc<ProtocolConfig>>, keys: NodeKeyMaterial) -> Self {
        assert!(keys.kmc.is_some(), "joiner needs KMC");
        let mut n = Self::new(cfg, keys);
        n.role = Role::Joining;
        n
    }

    // --- accessors -----------------------------------------------------

    /// Node ID.
    pub fn id(&self) -> u32 {
        self.keys.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Cluster ID, once clustered.
    pub fn cid(&self) -> Option<ClusterId> {
        self.cid
    }

    /// Whether this node's cluster was revoked out from under it.
    pub fn is_revoked(&self) -> bool {
        self.revoked
    }

    /// Number of cluster keys held (own + set `S`) — the storage metric of
    /// Figure 6.
    pub fn keys_held(&self) -> usize {
        self.neighbor_keys.len() + usize::from(self.cluster_key.is_some())
    }

    /// The neighboring-cluster IDs in the set `S`, ascending.
    pub fn neighbor_cids(&self) -> Vec<ClusterId> {
        self.neighbor_keys.0.iter().map(|&(c, _)| c).collect()
    }

    /// Hop distance to sink `sink` (`u32::MAX` before any beacon from
    /// it). The base station of a single-sink deployment is sink 0.
    pub fn hops_to(&self, sink: u32) -> u32 {
        self.gradients.get(Route(sink)).hops()
    }

    /// The sink this node currently routes to, with its hop distance:
    /// minimum `(hops, sink_id)` over established gradients. `None`
    /// before any beacon.
    pub fn nearest_sink(&self) -> Option<(u32, u32)> {
        self.gradients.nearest()
    }

    /// Whether `Km` is still in memory (setup phase).
    pub fn holds_km(&self) -> bool {
        self.keys.km.is_some()
    }

    /// Current refresh epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Queues a reading; the driver must arm [`TIMER_SEND`] for it to go
    /// out (see `NetworkHandle::send_reading`). With resource budgets on,
    /// a full queue evicts its oldest entry (all readings share the data
    /// priority class, so oldest-first is the whole drop policy here).
    pub fn queue_reading(&mut self, reading: PendingReading) {
        let res = self.cfg.resources;
        if res.enabled && self.pending.len() >= res.max_pending_readings {
            self.pending.pop_front();
            self.resource.queue_drops += 1;
        }
        self.pending.push_back(reading);
        self.resource.peak_pending = self.resource.peak_pending.max(self.pending.len());
    }

    /// Read access to the self-healing recovery state (tests, drivers).
    pub fn recovery_state(&self) -> &RecoveryState {
        self.extras.as_ref().map_or(&IDLE_RECOVERY, |x| &x.recovery)
    }

    /// The optional-subsystem state, allocated on first use.
    fn extras_mut(&mut self) -> &mut Extras {
        let heartbeat_until = self.cfg.recovery.heartbeat_until;
        self.extras.get_or_insert_with(|| {
            Box::new(Extras {
                recovery: RecoveryState::default(),
                heartbeat_until,
                peek: PeekAggregator::default(),
                revoke_seen: HashSet::new(),
                pending_announces: HashMap::new(),
                verified_links: HashMap::new(),
            })
        })
    }

    fn recovery_mut(&mut self) -> &mut RecoveryState {
        &mut self.extras_mut().recovery
    }

    /// Clears the custody entry `key`; `true` if it was pending.
    fn recovery_ack(&mut self, key: u64) -> bool {
        self.extras.as_mut().is_some_and(|x| x.recovery.ack(key))
    }

    fn heartbeat_until(&self) -> SimTime {
        self.extras
            .as_ref()
            .map_or(self.cfg.recovery.heartbeat_until, |x| x.heartbeat_until)
    }

    fn revoke_seen(&self, seq: u32) -> bool {
        self.extras
            .as_ref()
            .is_some_and(|x| x.revoke_seen.contains(&seq))
    }

    /// Whether a fusion-mode body falls inside the envelope of readings
    /// already relayed.
    fn is_redundant_reading(&self, body: &[u8]) -> bool {
        self.extras
            .as_ref()
            .is_some_and(|x| x.peek.is_redundant(body))
    }

    /// Read access to the resource-budget state: admission gates, drop
    /// counters, and the unconditional buffer high-water marks (tests,
    /// drivers, the overload figure).
    pub fn resource_state(&self) -> &ResourceState {
        &self.resource
    }

    /// Sets the absolute virtual-time horizon for heartbeat emission and
    /// head-loss watching (see `RecoveryConfig::heartbeat_until`). Drivers
    /// call this *after* setup so the bounded heartbeat schedule covers
    /// exactly the observation window — arming it before setup would let
    /// the run-to-quiescence setup phases drain every future beat.
    pub fn set_heartbeat_horizon(&mut self, until: SimTime) {
        self.extras_mut().heartbeat_until = until;
    }

    /// Everything an adversary learns by capturing this node right now.
    pub fn extract_keys(&self) -> CapturedKeys {
        CapturedKeys {
            id: self.keys.id,
            ki: self.keys.ki.key(),
            cluster: self.cid.zip(self.cluster_key.as_ref().map(KeySlot::key)),
            neighbor_keys: self
                .neighbor_keys
                .0
                .iter()
                .map(|(c, s)| (*c, s.key()))
                .collect(),
            km: self.keys.km.as_ref().map(KeySlot::key),
            kmc: self.keys.kmc,
        }
    }

    /// Marks this node as a selective forwarder (compromised: drops all
    /// data it should relay). Used by the §VI attack experiments.
    pub fn set_muted(&mut self, muted: bool) {
        self.muted = muted;
    }

    /// Whether the node is muted (selective forwarding).
    pub fn is_muted(&self) -> bool {
        self.muted
    }

    /// Forgets the gradient so the next beacon flood re-establishes it
    /// (used after topology changes, e.g. node addition — beacons only
    /// propagate on improvement, so stale gradients would stop the flood
    /// before it reaches newcomers).
    pub fn reset_gradient(&mut self) {
        self.gradients.reset();
    }

    /// Applies a hash refresh locally: own key and every key in `S` roll
    /// forward one epoch. (Driven at the epoch boundary; zero messages.)
    pub fn apply_hash_refresh(&mut self) {
        if let Some(slot) = self.cluster_key.as_mut() {
            slot.hash_step();
        }
        for (_, slot) in self.neighbor_keys.0.iter_mut() {
            slot.hash_step();
        }
        self.epoch += 1;
        // Pending ARQ frames wrapped under the retired epoch can never
        // verify anywhere again; retrying them would only exhaust into a
        // spurious route repair against a healthy gradient.
        if self.cfg.recovery.enabled {
            let epoch = self.epoch;
            self.recovery_mut().purge_pre_epoch(epoch);
        }
    }

    /// As the (historical) cluster head, generates a fresh cluster key and
    /// returns the RefreshHello to broadcast under the *current* key.
    /// Returns `None` if this node heads no cluster.
    pub fn initiate_recluster_refresh(&mut self, new_kc: Key128, now: SimTime) -> Option<Bytes> {
        if self.role != Role::Head || self.revoked {
            return None;
        }
        let cid = self.cid.filter(|_| self.cluster_key.is_some())?;
        let inner = Inner::RefreshHello {
            epoch: self.epoch + 1,
            new_kc,
        };
        let frame = self.seal(cid, self.legacy_route(), now, &inner);
        // Adopt the new key immediately.
        let retired = self.cluster_key.replace(KeySlot::new(new_kc));
        if self.cfg.recovery.enabled {
            // Acknowledged refresh: track the broadcast until the first
            // member confirms. ACKs will arrive under the key being
            // retired, so keep it around. The driver arms [`TIMER_RETX`]
            // (this runs outside a simulation callback, so no `Ctx` here).
            self.recovery_mut().prev_cluster_key = retired;
            let res = self.cfg.resources;
            let pending = &self.recovery_state().pending;
            if res.enabled && pending.len() >= res.max_retx_pending {
                // Refresh outranks data in the drop policy, so a full
                // custody map yields its oldest data entry.
                if let Some(victim) = resource::retx_eviction_victim(pending, RetxKind::Refresh) {
                    self.recovery_mut().pending.remove(&victim);
                    self.resource.queue_drops += 1;
                }
            }
            let entry = RetxEntry {
                frame: frame.clone(),
                kind: RetxKind::Refresh,
                route: self.legacy_route(),
                attempt: 0,
                deadline: now + self.cfg.recovery.retx_base,
                repaired: false,
                epoch: self.epoch + 1,
            };
            let pending = &mut self.recovery_mut().pending;
            pending.insert(recovery::refresh_ack_key(cid, entry.epoch), entry);
            let depth = pending.len();
            self.resource.peak_retx = self.resource.peak_retx.max(depth);
        }
        self.epoch += 1;
        Some(frame)
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Seals `inner` as one Step-2 frame under the key this node holds for
    /// cluster `cid`, stamped `now` and carrying our distance along
    /// `route`.
    fn seal(&mut self, cid: ClusterId, route: Route, now: SimTime, inner: &Inner) -> Bytes {
        let seq = self.next_seq();
        let hops = self.gradients.get(route).hops();
        let id = self.keys.id;
        let slot = self
            .cluster_slot(cid)
            .expect("a node seals only under a cluster key it holds");
        wrap_frame(slot.sealer(), cid, id, seq, now, hops, inner)
    }

    /// Seals a setup payload `(id, key)` under `Km`; `None` once `Km` is
    /// erased.
    fn seal_under_km(&mut self, id: u32, key: Key128) -> Option<(u64, Bytes)> {
        self.keys.km.as_ref()?;
        let seq = self.next_seq();
        let keys = &mut self.keys;
        let km = keys.km.as_mut()?;
        Some(seal_setup_with(km.sealer(), keys.id, seq, id, &key))
    }

    /// The route the legacy wire tags name (see [`Route::legacy`]).
    fn legacy_route(&self) -> Route {
        Route::legacy(&self.cfg.sinks)
    }

    // --- phase machinery -----------------------------------------------

    fn start_initial_deployment(&mut self, ctx: &mut impl Transport) {
        // Election: Exp(λ) seconds, clamped inside the election window so
        // the phases cannot interleave.
        let raw = exp_delay(ctx.rng(), self.cfg.election_rate);
        let delay_us = (raw * SECOND as f64) as SimTime;
        let max = self.cfg.link_phase_at * 9 / 10;
        ctx.set_timer(TIMER_ELECTION, delay_us.min(max));
        // Link phase with a little jitter so broadcasts don't pile onto a
        // single instant.
        let jitter = ctx.rng().gen_range(0..200 * MILLI);
        ctx.set_timer(TIMER_LINK, self.cfg.link_phase_at + jitter);
        ctx.set_timer(TIMER_ERASE, self.cfg.erase_km_at);
    }

    fn become_head(&mut self, ctx: &mut impl Transport, announce: bool) {
        self.role = Role::Head;
        self.cid = Some(self.keys.id);
        self.cluster_key = Some(KeySlot::new(self.keys.kci));
        ctx.trace(TraceEvent::BecameHead);
        if announce {
            if let Some((nonce, sealed)) = self.seal_under_km(self.keys.id, self.keys.kci) {
                ctx.broadcast(Message::Hello { nonce, sealed }.encode());
                ctx.trace(TraceEvent::HelloSent);
            }
        }
    }

    fn broadcast_link_advert(&mut self, ctx: &mut impl Transport) {
        let (Some(cid), Some(kc)) = (self.cid, self.cluster_key.as_ref().map(KeySlot::key)) else {
            return;
        };
        let Some((nonce, sealed)) = self.seal_under_km(cid, kc) else {
            return;
        };
        ctx.broadcast(Message::LinkAdvert { nonce, sealed }.encode());
        ctx.trace(TraceEvent::LinkAdvertSent);
    }

    /// Arms the next autonomous hash-refresh tick, aligned to the absolute
    /// boundaries `erase_km_at + k · period` so every key holder — including
    /// nodes that joined later — rolls at the same virtual instants with no
    /// coordination traffic.
    fn arm_auto_refresh(&mut self, ctx: &mut impl Transport) {
        if self.cfg.auto_refresh_epochs == 0 || self.epoch >= self.cfg.auto_refresh_epochs {
            return;
        }
        let p = self.cfg.auto_refresh_period;
        let base = self.cfg.erase_km_at;
        let now = ctx.now();
        let next = base + (now.saturating_sub(base) / p + 1) * p;
        ctx.set_timer(TIMER_AUTO_REFRESH, next - now);
    }

    fn send_next_reading(&mut self, ctx: &mut impl Transport) {
        let Some(reading) = self.pending.pop_front() else {
            return;
        };
        let ctr = self.e2e_ctr;
        self.e2e_ctr += 1;
        let body = if reading.sealed {
            e2e_seal_with(self.keys.ki.sealer(), self.keys.id, ctr, &reading.data)
        } else {
            Bytes::from(reading.data)
        };
        let unit = DataUnit {
            src: self.keys.id,
            ctr: match self.cfg.counter_mode {
                CounterMode::Explicit => Some(ctr),
                CounterMode::Implicit => None,
            },
            sealed: reading.sealed,
            body,
        };
        // Remember our own unit so echoes from forwarders are not
        // re-forwarded back out.
        let dkey = unit.dedup_key();
        self.dedup.insert(dkey);
        self.stats.originated += 1;
        // Address the unit to the nearest sink (deterministic tie-break by
        // sink id inside `nearest`), so forwarders apply that sink's
        // downhill rule. Before any beacon arrives, send it along the
        // legacy route.
        let route = self
            .gradients
            .nearest()
            .map_or(self.legacy_route(), |(sink, _)| Route(sink));
        let inner = route.data(&self.cfg.sinks, unit);
        if let Some(frame) = self.broadcast_wrapped(ctx, route, &inner) {
            self.enroll_retx(ctx, dkey, frame, RetxKind::Data, route);
        }
    }

    /// Seals `inner` under our own cluster key, carrying our distance
    /// along `route`, and broadcasts it. `None` while unclustered.
    fn broadcast_wrapped(
        &mut self,
        ctx: &mut impl Transport,
        route: Route,
        inner: &Inner,
    ) -> Option<Bytes> {
        let cid = self.cid.filter(|_| self.cluster_key.is_some())?;
        let frame = self.seal(cid, route, ctx.now(), inner);
        ctx.broadcast(frame.clone());
        Some(frame)
    }

    // --- message handling ----------------------------------------------

    /// Opens a HELLO or LINK payload under `Km` through the delivery's
    /// receive share (one of its own, zeroed after, when the backend
    /// lends none); `None`, counted as `wrong_phase`, once `Km` is
    /// erased.
    fn open_under_km(
        &mut self,
        ctx: &mut impl Transport,
        nonce: u64,
        sealed: &[u8],
    ) -> Option<Result<(u32, Key128), ProtocolError>> {
        let Some(km) = self.keys.km.as_mut() else {
            self.stats.drops.wrong_phase += 1;
            return None;
        };
        let key = km.key();
        let mut own = RxShare::default();
        let share = ctx.rx_share().unwrap_or(&mut own);
        let opened = open_setup_in(&key, || km.sealer(), nonce, sealed, share);
        own.clear();
        Some(opened)
    }

    fn handle_hello(&mut self, ctx: &mut impl Transport, nonce: u64, sealed: &[u8]) {
        let Some(opened) = self.open_under_km(ctx, nonce, sealed) else {
            return;
        };
        match opened {
            Ok((head_id, kc)) => {
                if self.role == Role::Undecided {
                    // Join the first head heard; no transmission at all.
                    self.role = Role::Member;
                    self.cid = Some(head_id);
                    self.cluster_key = Some(KeySlot::new(kc));
                    ctx.cancel_timer(TIMER_ELECTION);
                    ctx.trace(TraceEvent::ClusterJoined { head: head_id });
                }
                // Already decided: "the node rejects the message".
            }
            Err(_) => self.stats.drops.bad_auth += 1,
        }
    }

    fn handle_link_advert(&mut self, ctx: &mut impl Transport, nonce: u64, sealed: &[u8]) {
        let Some(opened) = self.open_under_km(ctx, nonce, sealed) else {
            return;
        };
        match opened {
            Ok((cid, kc)) => {
                // "Nodes of the same cluster simply ignore the message."
                if self.cid != Some(cid) && self.bounded_neighbor_insert(ctx, cid, kc) {
                    ctx.trace(TraceEvent::LinkStored { cid });
                }
            }
            Err(_) => self.stats.drops.bad_auth += 1,
        }
    }

    /// Admits a *new* neighboring cluster into the key set `S`, refusing
    /// it when the table is at capacity — established entries are control
    /// state and are never evicted to admit newcomers (see
    /// [`crate::resource`]). Updating an already-known CID always
    /// succeeds.
    fn bounded_neighbor_insert(
        &mut self,
        ctx: &mut impl Transport,
        cid: ClusterId,
        kc: Key128,
    ) -> bool {
        let res = self.cfg.resources;
        if res.enabled
            && self.neighbor_keys.len() >= res.max_neighbor_keys
            && !self.neighbor_keys.contains(cid)
        {
            self.resource.queue_drops += 1;
            ctx.trace(TraceEvent::QueueDrop {
                queue: QueueKind::NeighborKeys,
                key: u64::from(cid),
            });
            return false;
        }
        self.neighbor_keys.insert(cid, KeySlot::new(kc));
        self.note_neighbor_peak();
        true
    }

    fn note_neighbor_peak(&mut self) {
        self.resource.peak_neighbor_keys = self
            .resource
            .peak_neighbor_keys
            .max(self.neighbor_keys.len());
    }

    /// The slot of the key this node holds for cluster `cid`: its own
    /// cluster key or the entry in `S`.
    fn cluster_slot(&mut self, cid: ClusterId) -> Option<&mut KeySlot> {
        if self.cid == Some(cid) {
            self.cluster_key.as_mut()
        } else {
            self.neighbor_keys.get_mut(cid)
        }
    }

    fn handle_wrapped(
        &mut self,
        ctx: &mut impl Transport,
        from: NodeId,
        cid: ClusterId,
        nonce: u64,
        sealed: &[u8],
    ) {
        // Per-neighbor admission control runs *before* any cryptographic
        // work: a flooding neighbor costs us a BTreeMap lookup, not a
        // decrypt. Setup and control frames (HELLO, LINK, revocation,
        // join) never pass through here and are never rate limited.
        if self.cfg.resources.enabled {
            match self.resource.admit(&self.cfg.resources, from, ctx.now()) {
                Admission::Admit => {}
                Admission::Throttle => {
                    ctx.trace(TraceEvent::Throttled { from });
                    return;
                }
                // Quarantined senders are dropped silently: one trace
                // event fired when the quarantine tripped, not per frame.
                Admission::Quarantined => return,
            }
        }
        // The share is moved out for the open and dispatch (the inner
        // payload borrows it while `ctx` is in use) and lent back after;
        // a backend that lends none gets one for this frame alone, zeroed
        // before it is dropped.
        let mut share = ctx.rx_share().map(std::mem::take).unwrap_or_default();
        self.open_wrapped(ctx, from, cid, nonce, sealed, &mut share);
        match ctx.rx_share() {
            Some(lent) => *lent = share,
            None => share.clear(),
        }
    }

    /// Opens a Step-2 frame through `share` under the key held for `cid`
    /// and dispatches its inner payload, which stays borrowed from
    /// `share`.
    fn open_wrapped(
        &mut self,
        ctx: &mut impl Transport,
        from: NodeId,
        cid: ClusterId,
        nonce: u64,
        sealed: &[u8],
        share: &mut RxShare,
    ) {
        let res_on = self.cfg.resources.enabled;
        let (now, window) = (ctx.now(), self.cfg.freshness_window);
        let Some(slot) = self.cluster_slot(cid) else {
            self.stats.drops.unknown_cluster += 1;
            return;
        };
        let key = slot.key();
        let opened = match open_in(
            &key,
            || slot.sealer(),
            cid,
            nonce,
            sealed,
            now,
            window,
            share,
        ) {
            Ok(opened) => opened,
            Err(ProtocolError::Stale) => {
                // Authentication succeeded — freshness is checked after
                // the MAC — so the sender holds the key.
                if res_on {
                    self.resource.note_auth_success(from);
                }
                self.stats.drops.stale += 1;
                return;
            }
            Err(ProtocolError::Crypto(_)) => {
                if self.cfg.recovery.enabled {
                    if self.try_prev_key_ack(ctx, cid, nonce, sealed, share)
                        || self.try_epoch_catchup(ctx, cid, nonce, sealed, share)
                    {
                        // Salvaged: the frame verified under a retired or
                        // ratcheted key. A valid MAC by any route resets
                        // the quarantine streak.
                        if res_on {
                            self.resource.note_auth_success(from);
                        }
                        return;
                    }
                    if self.cid == Some(cid) {
                        // Own-cluster traffic we cannot authenticate and
                        // cannot ratchet to: the wiped-rejoin signal.
                        self.recovery_mut().unhealed_auth_failures += 1;
                    }
                }
                // Quarantine accounting happens only after every salvage
                // path declined the frame: genuinely unauthenticatable.
                if res_on {
                    if let Some(failures) =
                        self.resource
                            .note_auth_failure(&self.cfg.resources, from, ctx.now())
                    {
                        ctx.trace(TraceEvent::Quarantined { from, failures });
                    }
                }
                self.stats.drops.bad_auth += 1;
                return;
            }
            Err(_) => {
                self.stats.drops.malformed += 1;
                return;
            }
        };
        if res_on {
            self.resource.note_auth_success(from);
        }
        self.dispatch_inner(ctx, cid, opened.inner, opened.sender_hops);
    }

    fn dispatch_inner(
        &mut self,
        ctx: &mut impl Transport,
        outer_cid: ClusterId,
        inner: InnerRef<'_>,
        sender_hops: u32,
    ) {
        let legacy = self.legacy_route();
        match inner {
            InnerRef::SinkData { .. } | InnerRef::Control(Inner::SinkBeacon { .. })
                if !self.cfg.sinks.enabled =>
            {
                self.stats.drops.wrong_phase += 1;
            }
            InnerRef::Data(unit) => self.handle_data(ctx, legacy, unit, sender_hops, outer_cid),
            InnerRef::SinkData { sink, unit } => {
                self.handle_data(ctx, Route(sink), unit, sender_hops, outer_cid)
            }
            InnerRef::Control(inner) => match inner {
                Inner::Beacon => self.handle_beacon(ctx, legacy, outer_cid, sender_hops),
                Inner::SinkBeacon { sink } => {
                    self.handle_beacon(ctx, Route(sink), outer_cid, sender_hops)
                }
                Inner::RefreshHello { epoch, new_kc } => {
                    self.handle_refresh_hello(ctx, outer_cid, epoch, new_kc)
                }
                Inner::Ack { key } => self.handle_ack(ctx, key, false, Some(sender_hops)),
                Inner::BusyAck { key } => self.handle_ack(ctx, key, true, Some(sender_hops)),
                Inner::RouteRequest => self.handle_route_request(ctx, outer_cid),
                Inner::Heartbeat => self.handle_heartbeat(ctx, outer_cid),
                Inner::NewHead { new_cid, new_kc } => {
                    self.handle_new_head(ctx, outer_cid, new_cid, new_kc)
                }
                Inner::Data(_) | Inner::SinkData { .. } => {
                    unreachable!("InnerRef::decode keeps data units borrowed")
                }
            },
        }
    }

    fn handle_beacon(
        &mut self,
        ctx: &mut impl Transport,
        route: Route,
        outer_cid: ClusterId,
        sender_hops: u32,
    ) {
        if self.recovery_state().own_cid_beacons_only && self.cid != Some(outer_cid) {
            // Route-blind-joiner guard: only a beacon wrapped under our
            // *own* cluster key proves its sender can serve as our first
            // hop, so only those may teach us a distance.
            return;
        }
        if self.gradients.observe_beacon(route, sender_hops) {
            self.broadcast_wrapped(ctx, route, &route.beacon(&self.cfg.sinks));
        }
    }

    /// Step 2 at a forwarder: the implicit-ACK, dedup and strictly-downhill
    /// decisions all use our gradient along the unit's `route`, and the
    /// re-wrapped frame keeps that route and our distance on it.
    fn handle_data(
        &mut self,
        ctx: &mut impl Transport,
        route: Route,
        unit: DataView<'_>,
        sender_hops: u32,
        outer_cid: ClusterId,
    ) {
        let rec_on = self.cfg.recovery.enabled;
        let dkey = unit.dedup_key();
        let downhill = self.gradients.get(route).should_forward(sender_hops) && !self.muted;
        // Implicit ACK: a node strictly closer along the route just
        // rebroadcast a unit we still hold pending — custody has moved
        // downhill even if the explicit ACK was lost.
        if rec_on && self.custody_ack(dkey, sender_hops) {
            self.arm_retx_timer(ctx);
        }
        // The fusion peek, level 1: discard byte-identical copies before
        // spending a transmission.
        if !self.dedup.insert(dkey) {
            self.stats.fused_duplicates += 1;
            // A duplicate from uphill is (also) a retransmission aimed at
            // us: our earlier ACK was lost, so confirm again.
            if rec_on && downhill {
                self.send_ack(ctx, route, outer_cid, dkey);
            }
            return;
        }
        if downhill {
            // Level 2 (optional): for plaintext fusion readings, discard
            // values inside the envelope of readings already relayed —
            // "some processing of the raw data to discard extraneous
            // reports" (§II).
            if self.cfg.fusion_suppression && !unit.sealed {
                if self.is_redundant_reading(unit.body) {
                    self.stats.fused_duplicates += 1;
                    // Suppressed, but received: the uphill sender must
                    // still stop retransmitting.
                    if rec_on {
                        self.send_ack(ctx, route, outer_cid, dkey);
                    }
                    return;
                }
                self.extras_mut().peek.observe(unit.body);
            }
            self.stats.forwarded += 1;
            if rec_on {
                self.send_ack(ctx, route, outer_cid, dkey);
            }
            let inner = route.data(&self.cfg.sinks, unit.to_unit());
            if let Some(frame) = self.broadcast_wrapped(ctx, route, &inner) {
                self.enroll_retx(ctx, dkey, frame, RetxKind::Data, route);
            }
        }
    }

    fn handle_refresh_hello(
        &mut self,
        ctx: &mut impl Transport,
        outer_cid: ClusterId,
        epoch: u32,
        new_kc: Key128,
    ) {
        if self.cfg.refresh_mode != RefreshMode::Recluster {
            self.stats.drops.wrong_phase += 1;
            return;
        }
        if self.cid == Some(outer_cid) {
            // Our own cluster re-keys. Only accept the immediate next epoch.
            if epoch == self.epoch + 1 {
                // Re-broadcast under the OLD key before adopting the new
                // one: cluster *neighbors* can be two hops from the head
                // (adjacent to a far-side member), so members must relay the
                // refresh exactly as every node relayed its key during link
                // establishment. Epoch gating makes this flood terminate:
                // once updated, duplicates carry epoch == self.epoch.
                if self.cluster_key.is_some() {
                    let inner = Inner::RefreshHello { epoch, new_kc };
                    let route = self.legacy_route();
                    let frame = self.seal(outer_cid, route, ctx.now(), &inner);
                    ctx.broadcast(frame);
                    if self.cfg.recovery.enabled {
                        // Confirm receipt to the head — necessarily under
                        // the key being retired (the head keeps it one
                        // epoch for exactly this).
                        let ack_key = recovery::refresh_ack_key(outer_cid, epoch);
                        self.send_ack(ctx, route, outer_cid, ack_key);
                    }
                }
                let retired = self.cluster_key.replace(KeySlot::new(new_kc));
                if self.cfg.recovery.enabled && retired.is_some() {
                    // Keep the old key ourselves for stragglers' ACKs.
                    self.recovery_mut().prev_cluster_key = retired;
                }
                self.epoch = epoch;
                ctx.trace(TraceEvent::KeyRefreshed {
                    cid: outer_cid,
                    epoch,
                });
            }
        } else if let Some(entry) = self.neighbor_keys.get_mut(outer_cid) {
            // A neighboring cluster re-keys; roll our S entry.
            *entry = KeySlot::new(new_kc);
            ctx.trace(TraceEvent::KeyRefreshed {
                cid: outer_cid,
                epoch,
            });
        }
    }

    fn handle_revoke(
        &mut self,
        ctx: &mut impl Transport,
        link: Key128,
        seq: u32,
        cids: Vec<ClusterId>,
        tag: [u8; crate::msg::SHORT_TAG],
    ) {
        if self.revoke_seen(seq) {
            return;
        }
        if evict::verify_revoke(
            &mut self.keys.chain,
            &link,
            seq,
            &cids,
            &tag,
            self.cfg.max_chain_skip,
        )
        .is_err()
        {
            self.stats.drops.bad_auth += 1;
            return;
        }
        self.extras_mut().revoke_seen.insert(seq);
        self.apply_revocation(ctx, &cids);
        // Flood the authenticated command onward (once per seq).
        ctx.broadcast(
            Message::Revoke {
                link,
                seq,
                cids,
                tag,
            }
            .encode(),
        );
    }

    fn apply_revocation(&mut self, ctx: &mut impl Transport, cids: &[ClusterId]) {
        for cid in cids {
            let mut dropped = self.neighbor_keys.remove(*cid).is_some();
            if self.cid == Some(*cid) {
                self.cid = None;
                self.cluster_key = None;
                // The previous epoch's key of a revoked cluster goes too.
                if let Some(x) = self.extras.as_deref_mut() {
                    x.recovery.prev_cluster_key = None;
                }
                self.revoked = true;
                dropped = true;
            }
            if dropped {
                ctx.trace(TraceEvent::ClusterRevoked { cid: *cid });
            }
        }
    }

    /// Two-phase revocation, phase 1: buffer the announce (up to a few
    /// candidates per seq, so a forged announce cannot front-run the
    /// genuine one while memory stays bounded) and flood each new
    /// candidate once.
    fn handle_revoke_announce(
        &mut self,
        ctx: &mut impl Transport,
        seq: u32,
        cids: Vec<ClusterId>,
        tag: [u8; crate::msg::SHORT_TAG],
    ) {
        const MAX_CANDIDATES: usize = 4;
        if self.revoke_seen(seq) {
            return; // already acted on this seq
        }
        let candidates = self.extras_mut().pending_announces.entry(seq).or_default();
        if candidates.iter().any(|(c, t)| *t == tag && *c == cids) {
            return; // duplicate flood copy
        }
        if candidates.len() >= MAX_CANDIDATES {
            return; // bounded buffering under announce floods
        }
        candidates.push((cids.clone(), tag));
        ctx.broadcast(Message::RevokeAnnounce { seq, cids, tag }.encode());
        self.complete_revocation_if_ready(ctx, seq);
    }

    /// Two-phase revocation, phase 2: verify the disclosed link against
    /// the chain *before* flooding it (so a forged reveal can neither
    /// propagate nor block the genuine one), then act on the matching
    /// buffered announce.
    fn handle_revoke_reveal(&mut self, ctx: &mut impl Transport, seq: u32, link: Key128) {
        let known =
            |x: &Extras| x.revoke_seen.contains(&seq) || x.verified_links.contains_key(&seq);
        if self.extras.as_deref().is_some_and(known) {
            return;
        }
        if self
            .keys
            .chain
            .accept(&link, self.cfg.max_chain_skip)
            .is_err()
        {
            self.stats.drops.bad_auth += 1;
            return;
        }
        self.extras_mut().verified_links.insert(seq, link);
        ctx.broadcast(Message::RevokeReveal { seq, link }.encode());
        self.complete_revocation_if_ready(ctx, seq);
    }

    fn complete_revocation_if_ready(&mut self, ctx: &mut impl Transport, seq: u32) {
        let Some(x) = self.extras.as_deref_mut() else {
            return;
        };
        let Some(link) = x.verified_links.get(&seq).copied() else {
            return;
        };
        let Some(candidates) = x.pending_announces.get(&seq) else {
            return;
        };
        // At most one candidate verifies under the genuine link; forged
        // candidates stay parked (harmless) until then.
        let verified = candidates
            .iter()
            .find(|(cids, tag)| evict::revoke_tag(&link, seq, cids) == *tag)
            .cloned();
        if let Some((cids, _)) = verified {
            x.revoke_seen.insert(seq);
            x.pending_announces.remove(&seq);
            x.verified_links.remove(&seq);
            self.apply_revocation(ctx, &cids);
        }
    }

    fn handle_join_request(&mut self, ctx: &mut impl Transport, from: NodeId, new_id: u32) {
        let (Some(cid), Some(kc)) = (self.cid, self.cluster_key.as_ref().map(KeySlot::key)) else {
            return;
        };
        if self.revoked {
            return;
        }
        let tag = join_tag(&kc, cid, new_id, self.epoch);
        ctx.send(
            from,
            Message::JoinResponse {
                cid,
                epoch: self.epoch,
                tag,
            }
            .encode(),
        );
    }

    fn handle_join_response(&mut self, cid: ClusterId, epoch: u32, tag: [u8; 8]) {
        if self.role != Role::Joining {
            return;
        }
        let Some(kmc) = self.keys.kmc else {
            return;
        };
        // Derive the claimed cluster's key from KMC and verify the MAC —
        // this is what defeats the impersonation attack.
        let kc = refresh::cluster_key_at_epoch(&kmc, cid, epoch);
        if !verify_join_tag(&kc, cid, self.keys.id, epoch, &tag) {
            self.stats.drops.bad_auth += 1;
            return;
        }
        if self.join_responses.iter().all(|(c, _)| *c != cid) {
            self.join_responses.push((cid, kc));
            self.epoch = self.epoch.max(epoch);
        }
    }

    fn finish_join(&mut self) {
        if self.role != Role::Joining {
            return;
        }
        // "A new node receiving such a collection of cluster ids will
        // consider itself a member of the first such cluster while the rest
        // will be the neighboring ones."
        let mut responses = std::mem::take(&mut self.join_responses);
        if responses.is_empty() {
            // No neighbors answered; stay Joining (driver may retry).
            self.role = Role::Joining;
            return;
        }
        let (own_cid, own_kc) = responses.remove(0);
        self.role = Role::Member;
        self.cid = Some(own_cid);
        self.cluster_key = Some(KeySlot::new(own_kc));
        let res = self.cfg.resources;
        for (cid, kc) in responses {
            if res.enabled
                && self.neighbor_keys.len() >= res.max_neighbor_keys
                && !self.neighbor_keys.contains(cid)
            {
                self.resource.queue_drops += 1;
                continue;
            }
            self.neighbor_keys.insert(cid, KeySlot::new(kc));
        }
        self.note_neighbor_peak();
        self.keys.erase_kmc();
    }

    // --- self-healing recovery layer ------------------------------------
    //
    // Everything below is inert while `cfg.recovery.enabled` is false: no
    // timers armed, no RNG draws, no extra frames — default-config runs
    // stay byte-identical to a build without the layer.

    /// Tracks a just-broadcast frame until a hop-by-hop ACK clears it.
    /// With resource budgets on, a full custody map makes room per the
    /// [drop-priority ordering](crate::resource): the oldest data entry is
    /// evicted first, and an incoming data frame refused outright when
    /// only refresh entries remain (the frame was still broadcast once —
    /// it loses retransmission coverage, not its first transmission).
    fn enroll_retx(
        &mut self,
        ctx: &mut impl Transport,
        key: u64,
        frame: Bytes,
        kind: RetxKind,
        route: Route,
    ) {
        if !self.cfg.recovery.enabled {
            return;
        }
        let res = self.cfg.resources;
        let pending = &self.recovery_state().pending;
        if res.enabled && pending.len() >= res.max_retx_pending && !pending.contains_key(&key) {
            match resource::retx_eviction_victim(pending, kind) {
                Some(victim) => {
                    self.recovery_mut().pending.remove(&victim);
                    self.resource.queue_drops += 1;
                    ctx.trace(TraceEvent::QueueDrop {
                        queue: QueueKind::Retx,
                        key: victim,
                    });
                }
                None => {
                    self.resource.queue_drops += 1;
                    ctx.trace(TraceEvent::QueueDrop {
                        queue: QueueKind::Retx,
                        key,
                    });
                    return;
                }
            }
        }
        let deadline = ctx.now() + self.stretched_backoff(ctx, 0);
        let epoch = self.epoch;
        let pending = &mut self.recovery_mut().pending;
        pending.insert(
            key,
            RetxEntry {
                frame,
                kind,
                route,
                attempt: 0,
                deadline,
                repaired: false,
                epoch,
            },
        );
        let depth = pending.len();
        self.resource.peak_retx = self.resource.peak_retx.max(depth);
        self.arm_retx_timer(ctx);
    }

    /// One ARQ backoff draw, stretched by `busy_backoff_factor` while
    /// downstream congestion (a recent BusyAck) is in effect. The RNG is
    /// consumed identically either way — the stretch multiplies *after*
    /// the jitter draw — so enabling budgets never shifts the random
    /// stream of a run that happens not to congest.
    fn stretched_backoff(&mut self, ctx: &mut impl Transport, attempt: u32) -> SimTime {
        let d = recovery::backoff_delay(&self.cfg.recovery, attempt, ctx.rng());
        let res = self.cfg.resources;
        if res.enabled && self.resource.congested(ctx.now()) {
            d.saturating_mul(SimTime::from(res.busy_backoff_factor))
        } else {
            d
        }
    }

    /// (Re-)arms the single retransmit-scan timer at the earliest pending
    /// deadline, or cancels it when nothing is pending.
    fn arm_retx_timer(&mut self, ctx: &mut impl Transport) {
        match self.recovery_state().next_deadline() {
            Some(dl) => ctx.set_timer(TIMER_RETX, dl.saturating_sub(ctx.now()).max(1)),
            None => ctx.cancel_timer(TIMER_RETX),
        }
    }

    /// Emits a hop-by-hop ACK under the key the acknowledged frame
    /// *arrived* under — the one key its custodian provably holds — with
    /// our distance along the route that frame was addressed to. With
    /// resource budgets on, a node whose custody map has passed the
    /// high-water mark confirms with [`Inner::BusyAck`] instead, telling
    /// upstream to back off before retrying through this hop.
    fn send_ack(&mut self, ctx: &mut impl Transport, route: Route, cid: ClusterId, ack_key: u64) {
        let res = self.cfg.resources;
        let inner = if res.enabled && self.recovery_state().pending.len() >= res.tx_high_water {
            Inner::BusyAck { key: ack_key }
        } else {
            Inner::Ack { key: ack_key }
        };
        let frame = self.seal(cid, route, ctx.now(), &inner);
        ctx.broadcast(frame);
        self.stats.acks_sent += 1;
    }

    /// An ACK (or, with `busy`, a BusyAck) for custody entry `key`. A
    /// BusyAck moves custody exactly as a plain ACK, but the acker is
    /// congested: stretch our retransmission backoffs for the busy-hold
    /// window instead of piling on. `sender_hops` is `None` for a refresh
    /// ACK salvaged under our retired cluster key, honored from any
    /// distance.
    fn handle_ack(
        &mut self,
        ctx: &mut impl Transport,
        key: u64,
        busy: bool,
        sender_hops: Option<u32>,
    ) {
        if busy && self.cfg.resources.enabled {
            self.resource.note_busy(&self.cfg.resources, ctx.now());
        }
        if !self.cfg.recovery.enabled {
            return;
        }
        let cleared = match sender_hops {
            Some(hops) => self.custody_ack(key, hops),
            None => self.recovery_ack(key),
        };
        if cleared {
            self.arm_retx_timer(ctx);
        }
    }

    /// Clears custody entry `key` if `sender_hops` is strictly closer than
    /// us along the route its frame was addressed to; `true` if cleared.
    /// An ACK is aimed uphill but radiates in all directions, and a
    /// same-hops custodian that dropped its entry on a peer's ACK would
    /// leave the frame with no custodian at all if every downhill copy of
    /// the peer's transmission is then lost.
    fn custody_ack(&mut self, key: u64, sender_hops: u32) -> bool {
        let route = match self.recovery_state().pending.get(&key) {
            Some(entry) => entry.route,
            None => return false,
        };
        sender_hops < self.gradients.get(route).hops() && self.recovery_ack(key)
    }

    fn on_retx_timer(&mut self, ctx: &mut impl Transport) {
        let rec = self.cfg.recovery;
        if !rec.enabled {
            return;
        }
        let now = ctx.now();
        for key in self.recovery_state().due_keys(now) {
            let Some(mut entry) = self.recovery_mut().pending.remove(&key) else {
                continue;
            };
            if entry.attempt < rec.max_retries {
                entry.attempt += 1;
                entry.deadline = now + self.stretched_backoff(ctx, entry.attempt);
                ctx.trace(TraceEvent::RetryScheduled {
                    key,
                    attempt: entry.attempt,
                    fire_at: entry.deadline,
                });
                // Byte-identical retransmission: receiver dedup absorbs
                // extras, and the stamp stays inside the freshness window.
                ctx.broadcast(entry.frame.clone());
                self.stats.retransmits += 1;
                self.recovery_mut().pending.insert(key, entry);
            } else {
                ctx.trace(TraceEvent::AckTimeout {
                    key,
                    attempts: entry.attempt + 1,
                });
                if entry.kind == RetxKind::Data && !entry.repaired {
                    self.start_route_repair(ctx, key, entry);
                }
                // Refresh frames (or a second exhaustion) just give up:
                // the refresh walk or the next reading will retry at the
                // protocol level.
            }
        }
        self.arm_retx_timer(ctx);
    }

    /// Retry exhaustion: stop trusting the gradient toward the frame's
    /// sink, ask the neighborhood for a scoped re-flood, and give the
    /// frame one more retry cycle.
    fn start_route_repair(&mut self, ctx: &mut impl Transport, key: u64, mut entry: RetxEntry) {
        if let Some(g) = self.gradients.get_mut(entry.route) {
            g.invalidate();
        }
        self.broadcast_wrapped(ctx, self.legacy_route(), &Inner::RouteRequest);
        self.stats.route_repairs += 1;
        entry.repaired = true;
        entry.attempt = 0;
        // Leave room for the repair round trip before retransmitting.
        entry.deadline = ctx.now() + self.stretched_backoff(ctx, 1);
        self.recovery_mut().pending.insert(key, entry);
    }

    /// Answers a RouteRequest with one scoped beacon per sink we hold a
    /// gradient to, under the *requester's* cluster key — decrypting the
    /// request proves we hold that key, and answering proves a live path:
    /// exactly the two properties a first hop needs.
    fn handle_route_request(&mut self, ctx: &mut impl Transport, outer_cid: ClusterId) {
        let rec = self.cfg.recovery;
        if !rec.enabled
            || self.gradients.nearest().is_none()
            || self.muted
            || self.revoked
            || !self
                .recovery_state()
                .route_reply_allowed(ctx.now(), rec.route_reply_cooldown)
        {
            return;
        }
        for route in (0..self.gradients.k()).map(Route) {
            if self.gradients.get(route).established() {
                let beacon = route.beacon(&self.cfg.sinks);
                let frame = self.seal(outer_cid, route, ctx.now(), &beacon);
                ctx.broadcast(frame);
            }
        }
        self.recovery_mut().last_route_reply = Some(ctx.now());
    }

    /// Arms the next head heartbeat, bounded by the absolute horizon so
    /// run-to-quiescence simulations terminate.
    fn arm_heartbeat(&mut self, ctx: &mut impl Transport) {
        let rec = &self.cfg.recovery;
        let until = self.heartbeat_until();
        if !rec.enabled || until == 0 || self.role != Role::Head || self.revoked {
            return;
        }
        if ctx.now() + rec.heartbeat_period <= until {
            ctx.set_timer(TIMER_HEARTBEAT, rec.heartbeat_period);
        }
    }

    /// A keyed heartbeat from a head. Strictly 1-hop — never relayed (a
    /// relay chain could keep a dead head "alive" indefinitely). Members
    /// who cannot hear their head directly simply do not participate in
    /// failover detection; in hash-refresh mode the global lockstep keeps
    /// their keys current regardless.
    fn handle_heartbeat(&mut self, ctx: &mut impl Transport, outer_cid: ClusterId) {
        if !self.cfg.recovery.enabled || self.heartbeat_until() == 0 {
            return;
        }
        if self.role == Role::Member && self.cid == Some(outer_cid) && !self.revoked {
            self.recovery_mut().reelecting = false;
            ctx.cancel_timer(TIMER_REELECT);
            self.arm_head_watch(ctx);
        }
    }

    /// (Re-)arms the head-loss watchdog. Only ever called on heartbeat
    /// receipt — a member that never heard its head cannot lose it, which
    /// is what keeps 2-hop joiners from raising false alarms.
    fn arm_head_watch(&mut self, ctx: &mut impl Transport) {
        let rec = &self.cfg.recovery;
        if ctx.now() >= self.heartbeat_until() {
            return;
        }
        let delay = rec
            .heartbeat_period
            .saturating_mul(SimTime::from(rec.heartbeat_miss_limit))
            .saturating_add(rec.heartbeat_period / 2);
        ctx.set_timer(TIMER_HEAD_WATCH, delay);
    }

    /// The watchdog starved: `heartbeat_miss_limit` consecutive beats
    /// missed. Declare the head lost and run the paper's first-HELLO-wins
    /// timer rule locally: draw `Exp(λ)`; a draw inside the window makes
    /// this node a candidate, a draw outside makes it an adopter.
    fn on_head_watch(&mut self, ctx: &mut impl Transport) {
        let rec = self.cfg.recovery;
        if !rec.enabled
            || self.role != Role::Member
            || self.revoked
            || self.recovery_state().reelecting
            || self.cid.is_none()
        {
            return;
        }
        if ctx.now() > self.heartbeat_until() {
            // Silence past the horizon is end-of-observation, not loss.
            return;
        }
        ctx.trace(TraceEvent::HeadLost {
            cid: self.cid.unwrap_or_default(),
        });
        self.recovery_mut().reelecting = true;
        let raw = exp_delay(ctx.rng(), self.cfg.election_rate);
        let delay_us = (raw * SECOND as f64) as SimTime;
        if delay_us <= rec.reelect_window {
            self.recovery_mut().reelect_runner = true;
            ctx.set_timer(TIMER_REELECT, delay_us.max(1));
        } else {
            // Sit out the window; if no NewHead is heard by its end,
            // adopt into a neighboring cluster (§IV-E path).
            self.recovery_mut().reelect_runner = false;
            ctx.set_timer(TIMER_REELECT, rec.reelect_window);
        }
    }

    fn on_reelect_timer(&mut self, ctx: &mut impl Transport) {
        if !self.recovery_state().reelecting || self.role != Role::Member || self.revoked {
            return;
        }
        let rec = self.recovery_mut();
        rec.reelecting = false;
        if rec.reelect_runner {
            self.promote_to_head(ctx);
            return;
        }
        // Window closed with no successor heard. Adopt the smallest-ID
        // neighboring cluster from S (deterministic tie-break), or run
        // for head ourselves as the last resort when S is empty.
        match self.neighbor_keys.0.first().map(|&(c, _)| c) {
            Some(new_cid) => {
                let old = self.cid.zip(self.cluster_key.take());
                let adopted = self.neighbor_keys.remove(new_cid);
                if let Some((oc, ok)) = old {
                    // Keep the orphaned cluster's key: its traffic may
                    // still be in flight and we can keep forwarding it.
                    // Own-cluster continuity is control state — it is
                    // admitted even at capacity, never refused.
                    self.neighbor_keys.insert(oc, ok);
                    self.note_neighbor_peak();
                }
                self.cid = Some(new_cid);
                self.cluster_key = adopted;
                ctx.trace(TraceEvent::ClusterJoined { head: new_cid });
            }
            None => self.promote_to_head(ctx),
        }
    }

    /// Localized re-election won: become head of a fresh cluster under
    /// this node's *provisioned* potential cluster key `Kci`, ratcheted to
    /// the current epoch — a key the base station already holds for every
    /// provisioned ID, so failover needs no base-station round trip.
    fn promote_to_head(&mut self, ctx: &mut impl Transport) {
        let new_cid = self.keys.id;
        let new_kc = refresh::hash_steps(&self.keys.kci, self.epoch);
        // Announce under the OLD cluster key — the one credential the
        // orphaned members share with us — sealed before it moves to `S`.
        let announce = match self.cid {
            Some(oc) if self.cluster_key.is_some() => {
                let inner = Inner::NewHead { new_cid, new_kc };
                Some(self.seal(oc, self.legacy_route(), ctx.now(), &inner))
            }
            _ => None,
        };
        let old = self.cid.zip(self.cluster_key.take());
        self.role = Role::Head;
        self.cid = Some(new_cid);
        self.cluster_key = Some(KeySlot::new(new_kc));
        if let Some((oc, ok)) = old {
            self.neighbor_keys.insert(oc, ok);
            self.note_neighbor_peak();
            ctx.trace(TraceEvent::ReElected { old_cid: oc });
        }
        if let Some(frame) = announce {
            ctx.broadcast(frame);
        }
        ctx.trace(TraceEvent::BecameHead);
        self.arm_heartbeat(ctx);
    }

    /// A re-elected head announced itself under a key we hold.
    fn handle_new_head(
        &mut self,
        ctx: &mut impl Transport,
        outer_cid: ClusterId,
        new_cid: ClusterId,
        new_kc: Key128,
    ) {
        if !self.cfg.recovery.enabled || new_cid == self.keys.id || self.revoked {
            return;
        }
        if self.cid == Some(outer_cid) {
            if self.role != Role::Member {
                // A still-alive head hearing a usurper (partition false
                // positive): ignore; two clusters now coexist, which is
                // safe — both keys are provisioned at the base station.
                return;
            }
            // Relay once under the old key so 2-hop orphans hear, then
            // adopt. Termination: after adoption the old CID moves to S,
            // so duplicates take the neighbor branch below (no relay).
            let Some(oc) = self.cid.filter(|_| self.cluster_key.is_some()) else {
                return;
            };
            let inner = Inner::NewHead { new_cid, new_kc };
            let frame = self.seal(oc, self.legacy_route(), ctx.now(), &inner);
            ctx.broadcast(frame);
            if let Some(ok) = self.cluster_key.replace(KeySlot::new(new_kc)) {
                self.neighbor_keys.insert(oc, ok);
            }
            self.note_neighbor_peak();
            self.neighbor_keys.remove(new_cid);
            self.cid = Some(new_cid);
            let rec = self.recovery_mut();
            rec.reelecting = false;
            rec.reelect_runner = false;
            ctx.cancel_timer(TIMER_REELECT);
            ctx.trace(TraceEvent::ClusterJoined { head: new_cid });
        } else {
            // A neighboring cluster re-elected: track the successor
            // alongside the old entry (old-CID traffic may still be in
            // flight and we can forward both).
            self.bounded_neighbor_insert(ctx, new_cid, new_kc);
        }
    }

    /// A MAC failure under our *previous* cluster key may be a straggler's
    /// refresh ACK (sent, correctly, under the key it was retiring). Only
    /// ACKs are honored under a retired key.
    fn try_prev_key_ack(
        &mut self,
        ctx: &mut impl Transport,
        cid: ClusterId,
        nonce: u64,
        sealed: &[u8],
        share: &mut RxShare,
    ) -> bool {
        if self.cid != Some(cid) {
            return false;
        }
        let (now, window) = (ctx.now(), self.cfg.freshness_window);
        let prev = self.extras.as_deref_mut();
        let Some(pk) = prev.and_then(|x| x.recovery.prev_cluster_key.as_mut()) else {
            return false;
        };
        let key = pk.key();
        match open_in(&key, || pk.sealer(), cid, nonce, sealed, now, window, share).map(|o| o.inner)
        {
            Ok(InnerRef::Control(Inner::Ack { key })) => self.handle_ack(ctx, key, false, None),
            // A congested member confirming a refresh under the retired
            // key: custody clears and the busy signal still counts.
            Ok(InnerRef::Control(Inner::BusyAck { key })) => self.handle_ack(ctx, key, true, None),
            _ => return false,
        }
        true
    }

    /// Stale-epoch catch-up: hash refresh is globally lockstepped, so a
    /// frame we cannot authenticate under a held key might verify under
    /// `F^k` of it — meaning we slept through `k` epochs. Ratchet the
    /// whole key set forward `k` steps and process the frame normally.
    fn try_epoch_catchup(
        &mut self,
        ctx: &mut impl Transport,
        cid: ClusterId,
        nonce: u64,
        sealed: &[u8],
        share: &mut RxShare,
    ) -> bool {
        let rec = self.cfg.recovery;
        if self.cfg.refresh_mode != RefreshMode::Hash || rec.max_catchup_epochs == 0 {
            return false;
        }
        let (now, window) = (ctx.now(), self.cfg.freshness_window);
        for k in 1..=rec.max_catchup_epochs {
            let Some(slot) = self.cluster_slot(cid) else {
                return false;
            };
            let (key, ae) = slot.sealer_ahead(k as usize);
            match open_in(key, || ae, cid, nonce, sealed, now, window, share) {
                Ok(opened) => {
                    self.catch_up(ctx, k);
                    self.dispatch_inner(ctx, cid, opened.inner, opened.sender_hops);
                    return true;
                }
                Err(ProtocolError::Stale) => {
                    // The key matched (freshness is checked after auth):
                    // the catch-up is confirmed even though this
                    // particular frame is too old to act on.
                    self.catch_up(ctx, k);
                    self.stats.drops.stale += 1;
                    return true;
                }
                Err(_) => {}
            }
        }
        false
    }

    /// Ratchets the whole key set `k` epochs forward after a confirmed
    /// catch-up.
    fn catch_up(&mut self, ctx: &mut impl Transport, k: u32) {
        let from_epoch = self.epoch;
        for _ in 0..k {
            self.apply_hash_refresh();
        }
        // Frames enrolled under pre-catch-up keys are undecipherable noise
        // now; drop them.
        self.recovery_mut().pending.clear();
        ctx.cancel_timer(TIMER_RETX);
        ctx.trace(TraceEvent::EpochCatchUp {
            from_epoch,
            to_epoch: self.epoch,
        });
    }
}

impl ProtocolNode {
    /// The start hook body, generic over the transport backend. The
    /// simulator reaches it through the [`App`] adapter below; the
    /// `wsn-net` backends call it directly.
    pub fn dispatch_start(&mut self, ctx: &mut impl Transport) {
        match self.role {
            Role::Joining => {
                ctx.broadcast(
                    Message::JoinRequest {
                        new_id: self.keys.id,
                    }
                    .encode(),
                );
                ctx.set_timer(TIMER_JOIN, SECOND);
            }
            Role::Undecided => self.start_initial_deployment(ctx),
            // Already clustered: this is a simulator rebuild (node
            // addition) or a reboot, not a fresh deployment. Pending
            // timers did not survive; re-arm the autonomous refresh
            // schedule, and a head resumes its heartbeat (members re-arm
            // their watchdog on the next beat heard).
            Role::Head | Role::Member => {
                self.arm_auto_refresh(ctx);
                self.arm_heartbeat(ctx);
            }
        }
    }

    /// The timer hook body, generic over the transport backend.
    pub fn dispatch_timer(&mut self, ctx: &mut impl Transport, key: TimerKey) {
        match key {
            TIMER_ELECTION if self.role == Role::Undecided => {
                self.become_head(ctx, true);
            }
            TIMER_LINK => {
                // Safety net: a node that somehow never decided becomes a
                // silent singleton head so it has a key to advertise.
                if self.role == Role::Undecided {
                    self.become_head(ctx, false);
                }
                self.broadcast_link_advert(ctx);
            }
            TIMER_ERASE => {
                if self.keys.km.is_some() {
                    ctx.trace(TraceEvent::KmErased);
                }
                // Erases `Km` with its slot's sealer.
                self.keys.erase_km();
                self.arm_auto_refresh(ctx);
            }
            TIMER_AUTO_REFRESH => {
                self.apply_hash_refresh();
                if let Some(cid) = self.cid {
                    ctx.trace(TraceEvent::KeyRefreshed {
                        cid,
                        epoch: self.epoch,
                    });
                }
                self.arm_auto_refresh(ctx);
            }
            TIMER_SEND => {
                self.send_next_reading(ctx);
            }
            TIMER_JOIN => {
                let was_joining = self.role == Role::Joining;
                self.finish_join();
                if self.role == Role::Member {
                    if was_joining {
                        if let Some(cid) = self.cid {
                            ctx.trace(TraceEvent::JoinCompleted { cid });
                        }
                        if self.cfg.recovery.enabled {
                            // Route-blind-joiner fix: accept only
                            // own-cluster beacons from here on and solicit
                            // one now. The table is already empty: before
                            // `finish_join` we held no cluster key, so every
                            // wrapped beacon in the join window was dropped
                            // as unknown-cluster (pinned by a test in
                            // tests/multisink.rs). The reset only guards
                            // that invariant.
                            self.recovery_mut().own_cid_beacons_only = true;
                            self.gradients.reset();
                            let route = self.legacy_route();
                            self.broadcast_wrapped(ctx, route, &Inner::RouteRequest);
                        }
                    }
                    self.arm_auto_refresh(ctx);
                }
            }
            TIMER_RETX => self.on_retx_timer(ctx),
            TIMER_HEARTBEAT if self.role == Role::Head && !self.revoked => {
                self.broadcast_wrapped(ctx, self.legacy_route(), &Inner::Heartbeat);
                self.arm_heartbeat(ctx);
            }
            TIMER_HEAD_WATCH => self.on_head_watch(ctx),
            TIMER_REELECT => self.on_reelect_timer(ctx),
            _ => {}
        }
    }

    /// The message hook body, generic over the transport backend.
    pub fn dispatch_message(&mut self, ctx: &mut impl Transport, from: NodeId, payload: &[u8]) {
        // Fast path for the dominant steady-state frame type: borrow the
        // sealed region straight out of the radio payload instead of
        // copying it into an owned `Message`. `peek_wrapped` agrees
        // exactly with `decode`, so behaviour is unchanged.
        if let Some((cid, nonce, sealed)) = Message::peek_wrapped(payload) {
            self.handle_wrapped(ctx, from, cid, nonce, sealed);
            return;
        }
        // Likewise for the setup broadcasts, which every neighbour hears.
        match Message::peek_setup(payload) {
            Some((FrameKind::Hello, nonce, sealed)) => {
                return self.handle_hello(ctx, nonce, sealed)
            }
            Some((_, nonce, sealed)) => return self.handle_link_advert(ctx, nonce, sealed),
            None => {}
        }
        let msg = match Message::decode(payload) {
            Ok(m) => m,
            Err(_) => {
                self.stats.drops.malformed += 1;
                return;
            }
        };
        match msg {
            Message::Hello { .. } | Message::LinkAdvert { .. } | Message::Wrapped { .. } => {
                unreachable!("the peeks above take every setup and Step-2 frame")
            }
            Message::Revoke {
                link,
                seq,
                cids,
                tag,
            } => self.handle_revoke(ctx, link, seq, cids, tag),
            Message::RevokeAnnounce { seq, cids, tag } => {
                self.handle_revoke_announce(ctx, seq, cids, tag)
            }
            Message::RevokeReveal { seq, link } => self.handle_revoke_reveal(ctx, seq, link),
            Message::JoinRequest { new_id } => self.handle_join_request(ctx, from, new_id),
            Message::JoinResponse { cid, epoch, tag } => self.handle_join_response(cid, epoch, tag),
        }
    }
}

impl App for ProtocolNode {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.dispatch_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, key: TimerKey) {
        self.dispatch_timer(ctx, key);
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, payload: &[u8]) {
        self.dispatch_message(ctx, from, payload);
    }
}

/// The app type deployed on every simulated node: a sensor or the base
/// station. The base station is boxed: there are one to a few of it
/// against up to millions of sensors, so inline it would set the size of
/// every sensor's slot. Sensors stay inline: boxing them would add an
/// allocation per node and an indirection to every event dispatch.
#[allow(clippy::large_enum_variant)]
pub enum ProtocolApp {
    /// A regular sensor node.
    Sensor(ProtocolNode),
    /// The base station (node 0 by convention in [`crate::setup`]).
    Base(Box<crate::base_station::BaseStation>),
}

impl ProtocolApp {
    /// The sensor node inside, if this is one.
    pub fn as_sensor(&self) -> Option<&ProtocolNode> {
        match self {
            ProtocolApp::Sensor(n) => Some(n),
            ProtocolApp::Base(_) => None,
        }
    }

    /// Mutable sensor access.
    pub fn as_sensor_mut(&mut self) -> Option<&mut ProtocolNode> {
        match self {
            ProtocolApp::Sensor(n) => Some(n),
            ProtocolApp::Base(_) => None,
        }
    }

    /// The base station inside, if this is it.
    pub fn as_base(&self) -> Option<&crate::base_station::BaseStation> {
        match self {
            ProtocolApp::Base(b) => Some(b),
            ProtocolApp::Sensor(_) => None,
        }
    }

    /// Mutable base-station access.
    pub fn as_base_mut(&mut self) -> Option<&mut crate::base_station::BaseStation> {
        match self {
            ProtocolApp::Base(b) => Some(b),
            ProtocolApp::Sensor(_) => None,
        }
    }
}

impl ProtocolApp {
    /// The start hook body, generic over the transport backend.
    pub fn dispatch_start(&mut self, ctx: &mut impl Transport) {
        match self {
            ProtocolApp::Sensor(n) => n.dispatch_start(ctx),
            ProtocolApp::Base(b) => b.dispatch_start(ctx),
        }
    }

    /// The timer hook body, generic over the transport backend.
    pub fn dispatch_timer(&mut self, ctx: &mut impl Transport, key: TimerKey) {
        match self {
            ProtocolApp::Sensor(n) => n.dispatch_timer(ctx, key),
            ProtocolApp::Base(b) => b.dispatch_timer(ctx, key),
        }
    }

    /// The message hook body, generic over the transport backend.
    pub fn dispatch_message(&mut self, ctx: &mut impl Transport, from: NodeId, payload: &[u8]) {
        match self {
            ProtocolApp::Sensor(n) => n.dispatch_message(ctx, from, payload),
            ProtocolApp::Base(b) => b.dispatch_message(ctx, payload),
        }
    }
}

impl App for ProtocolApp {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.dispatch_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, key: TimerKey) {
        self.dispatch_timer(ctx, key);
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, payload: &[u8]) {
        self.dispatch_message(ctx, from, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::{open_setup_with, seal_setup, sealer};
    use crate::keys::Provisioner;
    use crate::setup::{run_setup, Backend, NetworkHandle, Scenario, SetupParams};
    use wsn_crypto::authenc::AuthEnc;
    use wsn_sim::shard::Shards;

    fn node(id: u32) -> ProtocolNode {
        let mut p = Provisioner::new(1);
        ProtocolNode::new(ProtocolConfig::default(), p.provision(id))
    }

    #[test]
    fn fresh_node_state() {
        let n = node(3);
        assert_eq!(n.role(), Role::Undecided);
        assert_eq!(n.cid(), None);
        assert_eq!(n.keys_held(), 0);
        assert!(n.holds_km());
        assert!(!n.is_revoked());
        assert_eq!(n.hops_to(0), u32::MAX);
    }

    #[test]
    fn extract_keys_reflects_state() {
        let n = node(5);
        let captured = n.extract_keys();
        assert_eq!(captured.id, 5);
        assert!(captured.km.is_some(), "pre-erasure capture reveals Km");
        assert!(captured.cluster.is_none());
        assert!(captured.kmc.is_none());
    }

    #[test]
    fn hash_refresh_rolls_keys_and_epoch() {
        let mut n = node(2);
        // Manually cluster it for the test.
        n.role = Role::Head;
        n.cid = Some(2);
        n.cluster_key = Some(KeySlot::new(n.keys.kci));
        let before_nbr = Key128::from_bytes([9; 16]);
        n.neighbor_keys.insert(9, KeySlot::new(before_nbr));
        let before_own = n.keys.kci;
        n.apply_hash_refresh();
        assert_eq!(n.epoch(), 1);
        let after = n.extract_keys();
        assert_ne!(after.cluster.unwrap().1, before_own);
        assert_eq!(
            after.neighbor_keys,
            vec![(9, refresh::hash_step(&before_nbr))]
        );
        assert_eq!(after.cluster, Some((2, refresh::hash_step(&before_own))));
    }

    #[test]
    fn recluster_refresh_only_from_head() {
        let mut n = node(2);
        assert!(n
            .initiate_recluster_refresh(Key128::from_bytes([1; 16]), 0)
            .is_none());
        n.role = Role::Head;
        n.cid = Some(2);
        n.cluster_key = Some(KeySlot::new(n.keys.kci));
        let frame = n.initiate_recluster_refresh(Key128::from_bytes([1; 16]), 0);
        assert!(frame.is_some());
        assert_eq!(n.epoch(), 1);
        assert_eq!(
            n.extract_keys().cluster,
            Some((2, Key128::from_bytes([1; 16])))
        );
    }

    #[test]
    fn joiner_requires_kmc() {
        let mut p = Provisioner::new(1);
        let m = p.provision_new_node(50);
        let n = ProtocolNode::new_joiner(ProtocolConfig::default(), m);
        assert_eq!(n.role(), Role::Joining);
    }

    #[test]
    #[should_panic]
    fn joiner_without_kmc_panics() {
        let mut p = Provisioner::new(1);
        let m = p.provision(50); // no KMC
        let _ = ProtocolNode::new_joiner(ProtocolConfig::default(), m);
    }

    #[test]
    fn join_response_verification() {
        let mut p = Provisioner::new(1);
        let mut joiner =
            ProtocolNode::new_joiner(ProtocolConfig::default(), p.provision_new_node(50));
        let kmc = p.kmc();
        // Valid response from cluster 7 at epoch 0.
        let kc7 = refresh::cluster_key_at_epoch(&kmc, 7, 0);
        let tag = join_tag(&kc7, 7, 50, 0);
        joiner.handle_join_response(7, 0, tag);
        assert_eq!(joiner.join_responses.len(), 1);
        // Forged response for cluster 8 (adversary lacks the real key).
        let forged = join_tag(&Key128::from_bytes([0xEE; 16]), 8, 50, 0);
        joiner.handle_join_response(8, 0, forged);
        assert_eq!(joiner.join_responses.len(), 1);
        assert_eq!(joiner.stats.drops.bad_auth, 1);
        // Finish: adopts cluster 7, erases KMC.
        joiner.finish_join();
        assert_eq!(joiner.role(), Role::Member);
        assert_eq!(joiner.cid(), Some(7));
        assert!(joiner.keys.kmc.is_none());
    }

    #[test]
    fn muted_flag_toggles() {
        let mut n = node(6);
        assert!(!n.is_muted());
        n.set_muted(true);
        assert!(n.is_muted());
        n.set_muted(false);
        assert!(!n.is_muted());
    }

    #[test]
    fn drop_counts_total() {
        let d = DropCounts {
            bad_auth: 1,
            unknown_cluster: 2,
            stale: 3,
            wrong_phase: 4,
            malformed: 5,
        };
        assert_eq!(d.total(), 15);
        assert_eq!(DropCounts::default().total(), 0);
    }

    #[test]
    fn sensor_slot_stays_small() {
        // A deployment holds one of these per node, a million of them in
        // the million-node run: inline growth costs memory at that scale.
        assert!(std::mem::size_of::<ProtocolNode>() <= 528);
        assert!(std::mem::size_of::<ProtocolApp>() <= 528);
    }

    /// Every sealer the node has built, in whichever key slot holds it.
    fn built_sealers(n: &ProtocolNode) -> Vec<&AuthEnc> {
        let slots = [
            Some(&n.keys.ki),
            n.keys.km.as_ref(),
            n.cluster_key.as_ref(),
            n.recovery_state().prev_cluster_key.as_ref(),
        ];
        slots
            .into_iter()
            .flatten()
            .chain(n.neighbor_keys.0.iter().map(|(_, slot)| slot))
            .flat_map(KeySlot::built_sealers)
            .collect()
    }

    /// Whether any sealer the node has built opens a payload sealed under
    /// `key`.
    fn opens_under(n: &ProtocolNode, key: &Key128) -> bool {
        let (nonce, sealed) = seal_setup(key, 3, 0, 3, &Key128::from_bytes([7; 16]));
        built_sealers(n)
            .into_iter()
            .any(|ae| open_setup_with(ae, nonce, &sealed).is_ok())
    }

    /// The cluster keys the node holds: its own, the set `S`, and the
    /// retired one kept for refresh ACKs.
    fn cluster_keys(n: &ProtocolNode) -> Vec<Key128> {
        let own = n.cluster_key.iter();
        let prev = n.recovery_state().prev_cluster_key.iter();
        let s = n.neighbor_keys.0.iter().map(|(_, slot)| slot);
        own.chain(prev).chain(s).map(KeySlot::key).collect()
    }

    fn setup(cfg: ProtocolConfig) -> NetworkHandle {
        let params = SetupParams {
            n: 120,
            density: 10.0,
            seed: 17,
            cfg,
        };
        run_setup(&params).handle
    }

    #[test]
    fn no_cached_sealer_opens_km_frames_after_erasure() {
        // Scenarios provision from stream 1 of the master seed.
        let km = Provisioner::new(wsn_sim::rng::derive_seed(17, 1)).km();
        // The single-heap engine, and the sharded one, whose receivers
        // open HELLOs and LINK adverts through a shared open.
        for shards in [Shards::Single, Shards::Fixed(2)] {
            let params = SetupParams {
                n: 120,
                density: 10.0,
                seed: 17,
                cfg: ProtocolConfig::default(),
            };
            let h = Scenario::new(params)
                .backend(Backend::Sim { shards })
                .run()
                .handle;
            for id in h.sensor_ids() {
                let n = h.sensor(id);
                assert!(!n.holds_km());
                assert!(
                    !opens_under(n, &km),
                    "{shards:?}: node {id} still opens Km-sealed HELLOs after erasure"
                );
                assert!(
                    built_sealers(n).is_empty(),
                    "{shards:?}: node {id} holds a sealer"
                );
            }
        }
    }

    /// Runs `retire` on a network whose nodes have built sealers for their
    /// cluster keys by forwarding readings, then checks that no node can
    /// open under a key it held before and holds no longer.
    fn check_retired_keys_leave_no_sealer(
        cfg: ProtocolConfig,
        retire: impl FnOnce(&mut NetworkHandle),
    ) {
        let mut h = setup(cfg);
        h.establish_gradient();
        let sensors = h.sensor_ids();
        for &src in sensors.iter().step_by(5) {
            h.send_reading(src, src.to_be_bytes().to_vec(), true);
        }
        let before: Vec<Vec<Key128>> = sensors
            .iter()
            .map(|&id| cluster_keys(h.sensor(id)))
            .collect();
        retire(&mut h);
        let mut retired_sealers = 0;
        for (&id, old_keys) in sensors.iter().zip(&before) {
            let n = h.sensor(id);
            let held = cluster_keys(n);
            for key in old_keys.iter().filter(|k| !held.contains(k)) {
                retired_sealers += 1;
                assert!(
                    !opens_under(n, key),
                    "node {id} still opens frames under a key it no longer holds"
                );
            }
        }
        assert!(retired_sealers > 0, "nothing was retired");
    }

    #[test]
    fn no_sealer_outlives_a_hash_refresh() {
        check_retired_keys_leave_no_sealer(ProtocolConfig::default(), |h| h.refresh());
    }

    #[test]
    fn no_sealer_outlives_a_recluster_refresh() {
        let cfg = ProtocolConfig {
            refresh_mode: RefreshMode::Recluster,
            ..ProtocolConfig::default()
        };
        check_retired_keys_leave_no_sealer(cfg, |h| h.refresh());
    }

    #[test]
    fn no_sealer_outlives_a_revocation() {
        check_retired_keys_leave_no_sealer(ProtocolConfig::default(), |h| {
            let victim = h.sensor_ids()[10];
            h.evict_nodes(&[victim]);
        });
    }

    /// Lends one receive share to every frame it delivers, as the
    /// simulator does for the receivers of one broadcast; records what
    /// the node transmits.
    struct Lender {
        rng: rand::rngs::StdRng,
        share: RxShare,
        sent: usize,
    }

    impl Transport for Lender {
        fn id(&self) -> NodeId {
            0
        }
        fn now(&self) -> SimTime {
            0
        }
        fn rng(&mut self) -> &mut rand::rngs::StdRng {
            &mut self.rng
        }
        fn broadcast(&mut self, _payload: Bytes) {
            self.sent += 1;
        }
        fn send(&mut self, _to: NodeId, _payload: Bytes) {
            self.sent += 1;
        }
        fn set_timer(&mut self, _key: TimerKey, _delay: SimTime) {}
        fn cancel_timer(&mut self, _key: TimerKey) {}
        fn rx_share(&mut self) -> Option<&mut RxShare> {
            Some(&mut self.share)
        }
    }

    /// A member of its own cluster `100 + id` that holds `key` for the
    /// neighbouring cluster 5.
    fn holder(id: u32, key: Key128) -> ProtocolNode {
        let mut n = node(id);
        n.role = Role::Member;
        n.cid = Some(100 + id);
        n.cluster_key = Some(KeySlot::new(n.keys.kci));
        n.neighbor_keys.insert(5, KeySlot::new(key));
        n
    }

    /// Delivers `frame` to a fresh [`holder`] of `key` through `t`'s
    /// share; returns the node, whether it took the beacon, and whether
    /// it built a sealer for its key of cluster 5.
    fn deliver(t: &mut Lender, id: u32, key: Key128, frame: &[u8]) -> (ProtocolNode, bool, bool) {
        let mut n = holder(id, key);
        n.dispatch_message(t, 9, frame);
        let took = n.hops_to(0) == 4;
        let built = n.neighbor_keys.get_mut(5).unwrap().built_sealers().count() > 0;
        (n, took, built)
    }

    #[test]
    fn a_shared_open_serves_only_the_same_key_and_frame() {
        let old = Key128::from_bytes([0x51; 16]);
        let current = refresh::hash_step(&old);
        let replaced = Key128::from_bytes([0x52; 16]);
        let frame = wrap_frame(&sealer(&current), 5, 9, 0, 0, 3, &Inner::Beacon);
        let mut forged = frame.to_vec();
        *forged.last_mut().unwrap() ^= 1;
        let mut t = Lender {
            rng: rand::SeedableRng::seed_from_u64(1),
            share: RxShare::default(),
            sent: 0,
        };
        let stats = |t: &Lender| (t.share.stats().computed, t.share.stats().reused);

        // The first holder of the key opens; the next reuses its open and
        // never builds a sealer for the key.
        let (_, took, built) = deliver(&mut t, 1, current, &frame);
        assert!(took && built);
        let (_, took, built) = deliver(&mut t, 2, current, &frame);
        assert!(took && !built, "a reused open needs no sealer");
        assert_eq!(stats(&t), (1, 1));

        // A receiver whose key for the CID is one epoch behind, or was
        // revoked and replaced, opens on its own and rejects the frame.
        for (id, key) in [(3, old), (4, replaced)] {
            let (n, took, _) = deliver(&mut t, id, key, &frame);
            assert!(!took, "node {id} took a frame it cannot verify");
            assert_eq!(n.stats.drops.bad_auth, 1);
        }
        assert_eq!(stats(&t), (3, 1));

        // A frame that differs from the opened one only in its tag is
        // opened on its own, and rejected.
        assert!(deliver(&mut t, 5, current, &frame).1);
        let (n, took, _) = deliver(&mut t, 6, current, &forged);
        assert!(!took, "a forged tag rode on a shared open");
        assert_eq!(n.stats.drops.bad_auth, 1);
        assert_eq!(stats(&t), (5, 1));
        assert!(t.share.is_empty(), "a failed open leaves the share empty");
        assert_eq!(t.sent, 3, "each node that took the beacon relays it");
    }

    #[test]
    fn duplicate_join_responses_for_same_cluster_collapse() {
        let mut p = Provisioner::new(1);
        let mut joiner =
            ProtocolNode::new_joiner(ProtocolConfig::default(), p.provision_new_node(50));
        let kmc = p.kmc();
        let kc7 = refresh::cluster_key_at_epoch(&kmc, 7, 0);
        let tag = join_tag(&kc7, 7, 50, 0);
        joiner.handle_join_response(7, 0, tag);
        joiner.handle_join_response(7, 0, tag); // second member of cluster 7
        assert_eq!(joiner.join_responses.len(), 1);
    }

    #[test]
    fn join_with_no_responses_stays_joining() {
        let mut p = Provisioner::new(1);
        let mut joiner =
            ProtocolNode::new_joiner(ProtocolConfig::default(), p.provision_new_node(50));
        joiner.finish_join();
        assert_eq!(joiner.role(), Role::Joining);
        assert!(joiner.keys.kmc.is_some(), "KMC kept for retry");
    }
}

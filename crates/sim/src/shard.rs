//! Spatially sharded discrete-event engine for very large networks.
//!
//! The legacy [`Simulator`](crate::net::Simulator) pops one global heap
//! with one global RNG, which caps a trial at a single core and makes
//! every event order depend on the whole history. This module partitions
//! the deployment area into a grid of **regions**, each with its own
//! event heap, its own per-node RNG streams, and its own counters; radio
//! deliveries whose receivers live in another region cross over as
//! **boundary events** through per-region-pair mailboxes once per
//! conservative lookahead window, with one barrier per window.
//!
//! A broadcast is queued as one **fan-out entry** per region that holds
//! any of its receivers, not one event per receiver. Processing the entry
//! delivers to that region's receivers in neighbour order, each with its
//! own loss draw, counters, trace record and processed-event count, and
//! lends them all one [`RxShare`]
//! ([`Ctx::rx_share`](crate::node::Ctx::rx_share)): the neighbours that
//! hold the sender's key open the frame once per region. The share is
//! zeroed when the entry ends. A unicast `send` stays one delivery event.
//!
//! # Why outputs are byte-identical across `WSN_SHARDS`
//!
//! Determinism across shard counts does not come from synchronizing
//! harder — it comes from making every observable value a pure function
//! of *per-node* state:
//!
//! - **Per-node RNG streams.** Node `i` draws from
//!   `StdRng::seed_from_u64(derive_seed(seed, i))`; channel loss is drawn
//!   from the *receiver's* stream at delivery. No draw ever depends on
//!   what other nodes did.
//! - **A decomposition-independent event key.** Every event carries
//!   `(time, origin, per-origin counter, target)`; keys are unique and
//!   totally ordered, and each node consumes its own events in ascending
//!   key order regardless of which shard hosts it. A broadcast consumes
//!   one counter per receiver, and its fan-out entries run each receiver
//!   at that receiver's key position (see `EventKey`), so splitting the
//!   receivers across regions changes no node's event order.
//! - **A conservative lookahead window.** The radio cannot deliver a
//!   frame in less than `airtime_us(1)` (propagation plus one byte on
//!   air), so all shards can safely process the window
//!   `[T, T + airtime_us(1))` in parallel: any delivery generated inside
//!   the window lands at or after its end, on either side of a region
//!   border. Timers are same-node and never cross shards.
//! - **Deterministic merges.** Counters are owner-written only (tx by the
//!   sender's shard, rx by the receiver's shard) and scattered back by
//!   node id; traces carry per-node sequence numbers and are merged by
//!   `(time, node, seq)` (see [`wsn_trace::merge_shard_traces`]).
//!
//! The sharded engine deliberately supports only the setup workload: no
//! airtime contention or finite TX queues, no fault injection, i.i.d.
//! loss only. After [`ShardedSimulator::run`] drains the network to
//! quiescence, [`ShardedSimulator::into_parts`] hands the apps and merged
//! counters to [`Simulator::from_parts_at`](crate::net::Simulator::from_parts_at)
//! and the full-featured single-heap engine drives every later phase.

use crate::event::{EventKind, SimTime};
use crate::hash::FoldState;
use crate::net::Counters;
use crate::node::{Action, App, Ctx, NodeId, RxShare, TimerKey};
use crate::radio::RadioConfig;
use crate::rng::derive_seed;
use crate::topology::Topology;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use wsn_trace::{merge_shard_traces, BufferSink, TraceEvent, TraceRecord, TraceSink};

/// Region-count selector for the simulation backend.
///
/// `WSN_SHARDS` is read in exactly one place: [`Shards::Auto`]
/// resolution. Like `WSN_JOBS`, the variable exists so two runs can be
/// pinned to different decompositions and their outputs diffed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Shards {
    /// The legacy single-heap engine ([`crate::net::Simulator`]). This is
    /// the default: it supports the full fault-injection surface and is
    /// what every committed figure has always run on. It ignores
    /// `WSN_SHARDS` entirely.
    #[default]
    Single,
    /// The sharded engine with `WSN_SHARDS` regions when that variable is
    /// set to a positive integer, otherwise the machine's available
    /// parallelism.
    Auto,
    /// The sharded engine with an explicit region count. `Fixed(1)` is
    /// *not* [`Shards::Single`]: it runs the sharded universe with one
    /// region, which is how the determinism suite pins the `k = 1` side
    /// of a byte-identity comparison.
    Fixed(usize),
}

impl Shards {
    /// The region count this selector resolves to, or `None` for the
    /// legacy single-heap engine.
    pub fn region_count(self) -> Option<usize> {
        match self {
            Shards::Single => None,
            Shards::Fixed(k) => {
                assert!(k >= 1, "need at least one region");
                Some(k)
            }
            Shards::Auto => Some(
                std::env::var("WSN_SHARDS")
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .filter(|&k: &usize| k >= 1)
                    .unwrap_or_else(|| {
                        std::thread::available_parallelism()
                            .map(|n| n.get())
                            .unwrap_or(1)
                    }),
            ),
        }
    }
}

/// Total event order, independent of the shard decomposition.
///
/// `origin` is the node whose activity created the event (the
/// transmitter of a delivery, the owner of a timer), `ctr` its per-origin
/// creation counter, and `target` the receiver (the owner, for a timer).
/// Derived lexicographic `Ord` gives `(time, seq)` ordering with a seq
/// that no global scheduler needs to hand out.
///
/// A broadcast to `d` neighbours consumes the counters `ctr..ctr + d`,
/// one per receiver in neighbour order, and is queued as one fan-out
/// entry per region that holds a receiver, keyed `(at, origin, ctr,
/// origin)`. No other event can sort between the receivers' keys (only
/// the broadcast itself owns those counters of its origin), so an entry
/// that delivers to its region's receivers in neighbour order at its own
/// key position runs them where per-receiver events would. (An event a
/// receiver creates for the same instant, a zero-delay timer, can key
/// below the rest of the fan-out; it belongs to another node, and events
/// of different nodes at one instant touch disjoint state, so running it
/// after the fan-out changes nothing.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    at: SimTime,
    origin: NodeId,
    ctr: u64,
    target: NodeId,
}

/// A queued event in a region heap (min-ordered by key).
#[derive(Debug)]
struct ShardEvent {
    key: EventKey,
    kind: EventKind,
}

impl PartialEq for ShardEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for ShardEvent {}
impl Ord for ShardEvent {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other.key.cmp(&self.key)
    }
}
impl PartialOrd for ShardEvent {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

/// Read-only simulation context shared by every region worker.
struct Env<'a> {
    topo: &'a Topology,
    radio: &'a RadioConfig,
    region_of: &'a [u32],
    local_of: &'a [u32],
    me: usize,
}

/// One region: the nodes it owns and everything mutable about them.
///
/// All per-node vectors are indexed by the node's *local* index within
/// this shard (`Env::local_of` maps global ids down).
struct Shard<A> {
    /// Global ids of owned nodes, ascending.
    nodes: Vec<NodeId>,
    apps: Vec<A>,
    rngs: Vec<StdRng>,
    /// Per-node event-creation counters (also timer generations).
    ctrs: Vec<u64>,
    /// Per-node trace sequence counters.
    trace_seq: Vec<u64>,
    heap: BinaryHeap<ShardEvent>,
    /// Latest armed generation per (node, timer key); the simulator picks
    /// these keys, so the table hashes with the non-keyed
    /// [`FoldState`].
    timers: HashMap<(NodeId, TimerKey), u64, FoldState>,
    /// Locally indexed counters; scattered to global ids on merge.
    counters: Counters,
    sink: Option<BufferSink>,
    scratch: Vec<Action>,
    /// The receive share lent to every receiver of one fan-out entry
    /// (see [`Ctx::rx_share`]); empty between entries.
    share: RxShare,
    /// Per destination region: whether the broadcast being queued already
    /// has its fan-out entry there. All false between broadcasts.
    reached: Vec<bool>,
    now: SimTime,
    events: u64,
}

impl<A: App> Shard<A> {
    /// An empty region with room for `nodes` nodes, one of `regions`.
    fn with_capacity(nodes: usize, regions: usize) -> Self {
        Shard {
            nodes: Vec::with_capacity(nodes),
            apps: Vec::with_capacity(nodes),
            rngs: Vec::with_capacity(nodes),
            ctrs: Vec::with_capacity(nodes),
            trace_seq: Vec::with_capacity(nodes),
            heap: BinaryHeap::new(),
            timers: HashMap::default(),
            counters: Counters::new(nodes),
            sink: None,
            scratch: Vec::with_capacity(8),
            share: RxShare::default(),
            reached: vec![false; regions],
            now: 0,
            events: 0,
        }
    }

    fn next_ctr(&mut self, li: usize) -> u64 {
        let c = self.ctrs[li];
        self.ctrs[li] += 1;
        c
    }

    #[inline]
    fn trace(&mut self, li: usize, node: NodeId, at: SimTime, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            let rec = TraceRecord {
                seq: self.trace_seq[li],
                at,
                node,
                event: make(),
            };
            self.trace_seq[li] += 1;
            sink.record(rec);
        }
    }

    /// Processes every local event with `key.at < end`, routing newly
    /// created cross-region deliveries into `out` (one batch per
    /// destination shard).
    fn process_until(&mut self, end: SimTime, env: &Env, out: &mut [Vec<ShardEvent>]) {
        while self.heap.peek().is_some_and(|ev| ev.key.at < end) {
            self.process_next(env, out);
        }
    }

    /// Pops and processes the earliest local event: a start hook, a timer,
    /// a unicast delivery, or a broadcast's fan-out entry, which delivers
    /// to this region's receivers in neighbour order and counts one event
    /// per receiver. The receive share is zeroed before this returns.
    fn process_next(&mut self, env: &Env, out: &mut [Vec<ShardEvent>]) {
        let ev = self.heap.pop().expect("no event to process");
        self.now = ev.key.at;
        match ev.kind {
            EventKind::Start(id) => {
                self.events += 1;
                self.dispatch(id, env, out, |app, ctx| app.on_start(ctx));
            }
            EventKind::Timer { node, key, gen } => {
                self.events += 1;
                if self.timers.get(&(node, key)) == Some(&gen) {
                    self.timers.remove(&(node, key));
                    let li = env.local_of[node as usize] as usize;
                    self.trace(li, node, self.now, || TraceEvent::TimerFired { key });
                    self.dispatch(node, env, out, |app, ctx| app.on_timer(ctx, key));
                }
            }
            EventKind::Deliver { from, to, payload } => {
                self.deliver(from, to, &payload, env, out);
            }
            EventKind::Broadcast { from, payload } => {
                for &to in env.topo.neighbors(from) {
                    if env.region_of[to as usize] as usize == env.me {
                        self.deliver(from, to, &payload, env, out);
                    }
                }
            }
        }
        self.share.clear();
    }

    /// One frame reaching one local receiver, counted as one event: the
    /// channel-loss draw, then the receive counters, the trace record and
    /// the app's `on_message`.
    fn deliver(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: &Bytes,
        env: &Env,
        out: &mut [Vec<ShardEvent>],
    ) {
        self.events += 1;
        let li = env.local_of[to as usize] as usize;
        // Per-receiver channel loss from the *receiver's* stream — same
        // draw discipline as `IidLoss` (no draw at all on a lossless
        // radio).
        if env.radio.loss > 0.0 && self.rngs[li].gen::<f64>() < env.radio.loss {
            self.trace(li, to, self.now, || TraceEvent::RadioDrop {
                from,
                bytes: payload.len() as u32,
            });
            return;
        }
        self.counters.rx_msgs[li] += 1;
        self.counters.rx_bytes[li] += payload.len() as u64;
        self.counters.energy[li].record_rx(payload.len(), env.radio);
        self.trace(li, to, self.now, || TraceEvent::Rx {
            from,
            payload: payload.clone(),
        });
        self.dispatch(to, env, out, |app, ctx| app.on_message(ctx, from, payload));
    }

    fn dispatch(
        &mut self,
        id: NodeId,
        env: &Env,
        out: &mut [Vec<ShardEvent>],
        f: impl FnOnce(&mut A, &mut Ctx),
    ) {
        let li = env.local_of[id as usize] as usize;
        let now = self.now;
        let mut actions = std::mem::take(&mut self.scratch);
        {
            let mut ctx = Ctx {
                id,
                now,
                rng: &mut self.rngs[li],
                actions: &mut actions,
                sink: self
                    .sink
                    .as_mut()
                    .map(|s| s as &mut (dyn TraceSink + 'static)),
                trace_seq: &mut self.trace_seq[li],
                share: Some(&mut self.share),
            };
            f(&mut self.apps[li], &mut ctx);
        }
        for action in actions.drain(..) {
            self.apply(id, li, env, out, action);
        }
        self.scratch = actions;
    }

    /// Routes an event to region `dest`: the local heap, or the outgoing
    /// boundary batch for another shard.
    #[inline]
    fn route(&mut self, ev: ShardEvent, dest: usize, env: &Env, out: &mut [Vec<ShardEvent>]) {
        if dest == env.me {
            self.heap.push(ev);
        } else {
            out[dest].push(ev);
        }
    }

    fn apply(
        &mut self,
        id: NodeId,
        li: usize,
        env: &Env,
        out: &mut [Vec<ShardEvent>],
        action: Action,
    ) {
        let now = self.now;
        match action {
            Action::Broadcast(payload) => {
                // The conservative window is one byte of airtime; an
                // empty frame would deliver inside it.
                assert!(
                    !payload.is_empty(),
                    "sharded engine requires non-empty frames"
                );
                let at = now + env.radio.airtime_us(payload.len());
                self.counters.tx_msgs[li] += 1;
                self.counters.tx_bytes[li] += payload.len() as u64;
                self.counters.energy[li].record_tx(payload.len(), env.radio);
                if self.sink.is_some() {
                    let neighbors = env.topo.degree(id) as u32;
                    self.trace(li, id, now, || TraceEvent::TxBroadcast {
                        payload: payload.clone(),
                        neighbors,
                    });
                }
                // One counter per receiver, in neighbour order, and one
                // fan-out entry per region that holds a receiver.
                let neighbors = env.topo.neighbors(id);
                let key = EventKey {
                    at,
                    origin: id,
                    ctr: self.ctrs[li],
                    target: id,
                };
                self.ctrs[li] += neighbors.len() as u64;
                for &to in neighbors {
                    let dest = env.region_of[to as usize] as usize;
                    if !std::mem::replace(&mut self.reached[dest], true) {
                        let kind = EventKind::Broadcast {
                            from: id,
                            payload: payload.clone(),
                        };
                        self.route(ShardEvent { key, kind }, dest, env, out);
                    }
                }
                for &to in neighbors {
                    self.reached[env.region_of[to as usize] as usize] = false;
                }
            }
            Action::Send(to, payload) => {
                assert!(
                    !payload.is_empty(),
                    "sharded engine requires non-empty frames"
                );
                let at = now + env.radio.airtime_us(payload.len());
                self.counters.tx_msgs[li] += 1;
                self.counters.tx_bytes[li] += payload.len() as u64;
                self.counters.energy[li].record_tx(payload.len(), env.radio);
                self.trace(li, id, now, || TraceEvent::TxUnicast {
                    to,
                    payload: payload.clone(),
                });
                // Addressed frame: delivered only to `to`, only in range.
                if env.topo.neighbors(id).binary_search(&to).is_ok() {
                    let key = EventKey {
                        at,
                        origin: id,
                        ctr: self.next_ctr(li),
                        target: to,
                    };
                    let kind = EventKind::Deliver {
                        from: id,
                        to,
                        payload,
                    };
                    let dest = env.region_of[to as usize] as usize;
                    self.route(ShardEvent { key, kind }, dest, env, out);
                }
            }
            Action::SetTimer(key, delay) => {
                // The creation counter doubles as the arming generation.
                let gen = self.next_ctr(li);
                self.timers.insert((id, key), gen);
                let fire_at = now + delay;
                self.trace(li, id, now, || TraceEvent::TimerSet { key, fire_at });
                self.heap.push(ShardEvent {
                    key: EventKey {
                        at: fire_at,
                        origin: id,
                        ctr: gen,
                        target: id,
                    },
                    kind: EventKind::Timer { node: id, key, gen },
                });
            }
            Action::CancelTimer(key) => {
                if self.timers.remove(&(id, key)).is_some() {
                    self.trace(li, id, now, || TraceEvent::TimerCanceled { key });
                }
            }
        }
    }
}

fn grid_dims(k: usize) -> (usize, usize) {
    let mut gx = (k as f64).sqrt().floor() as usize;
    gx = gx.max(1);
    while gx > 1 && !k.is_multiple_of(gx) {
        gx -= 1;
    }
    (gx, k / gx)
}

/// Assigns each node to the grid cell containing its position: `k`
/// regions arranged as a `gx × gy` grid (`gx·gy = k`) over the square
/// deployment area. Region membership affects scheduling only — never
/// outputs.
fn assign_regions(topo: &Topology, k: usize) -> Vec<u32> {
    let (gx, gy) = grid_dims(k);
    let side = topo.config().side;
    (0..topo.n() as NodeId)
        .map(|i| {
            let p = topo.position(i);
            let cx = (((p.x / side) * gx as f64) as usize).min(gx - 1);
            let cy = (((p.y / side) * gy as f64) as usize).min(gy - 1);
            (cx * gy + cy) as u32
        })
        .collect()
}

/// A spatially sharded simulation of one deployed network running app
/// `A` on every node. See the [module docs](self) for the determinism
/// argument and the supported feature subset.
pub struct ShardedSimulator<A: App> {
    topo: Topology,
    radio: RadioConfig,
    region_of: Vec<u32>,
    local_of: Vec<u32>,
    shards: Vec<Shard<A>>,
    /// Conservative lookahead: `radio.airtime_us(1)`.
    window: SimTime,
    now: SimTime,
}

impl<A: App> ShardedSimulator<A> {
    /// Builds a sharded simulator with `regions` regions, constructing
    /// each node's app with `make_app` (called in ascending id order).
    ///
    /// Panics if the radio models contention or a finite TX queue — the
    /// sharded engine supports neither (both couple nodes through
    /// non-local state).
    pub fn new(
        topo: Topology,
        radio: RadioConfig,
        seed: u64,
        regions: usize,
        mut make_app: impl FnMut(NodeId) -> A,
    ) -> Self {
        assert!(regions >= 1, "need at least one region");
        assert!(
            !radio.contention && radio.tx_queue_cap.is_none(),
            "sharded engine does not model airtime contention or finite TX queues"
        );
        let window = radio.airtime_us(1);
        assert!(window >= 1, "zero-airtime radio leaves no lookahead window");
        let n = topo.n();
        let region_of = assign_regions(&topo, regions);
        let mut local_of = vec![0u32; n];
        let mut sizes = vec![0usize; regions];
        for &r in &region_of {
            sizes[r as usize] += 1;
        }
        let mut shards: Vec<Shard<A>> = sizes
            .into_iter()
            .map(|size| Shard::with_capacity(size, regions))
            .collect();
        for id in 0..n as NodeId {
            let shard = &mut shards[region_of[id as usize] as usize];
            local_of[id as usize] = shard.nodes.len() as u32;
            shard.nodes.push(id);
            shard.apps.push(make_app(id));
            shard
                .rngs
                .push(StdRng::seed_from_u64(derive_seed(seed, id as u64)));
            // Counter 0 is consumed by the Start event below.
            shard.ctrs.push(1);
            shard.trace_seq.push(0);
            shard.heap.push(ShardEvent {
                key: EventKey {
                    at: 0,
                    origin: id,
                    ctr: 0,
                    target: id,
                },
                kind: EventKind::Start(id),
            });
        }
        ShardedSimulator {
            topo,
            radio,
            region_of,
            local_of,
            shards,
            window,
            now: 0,
        }
    }

    /// The deployed topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.shards.len()
    }

    /// Virtual time of the latest processed event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed across all regions. Every scheduled event
    /// pops exactly once, so this is identical across shard counts.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Merged traffic counters: per-shard locally indexed counters
    /// scattered back to global node ids. Each node is owned by exactly
    /// one shard, so this is a scatter, not a sum.
    pub fn counters(&self) -> Counters {
        let mut total = Counters::new(self.topo.n());
        for shard in &self.shards {
            for (li, &id) in shard.nodes.iter().enumerate() {
                let gi = id as usize;
                total.tx_msgs[gi] = shard.counters.tx_msgs[li];
                total.rx_msgs[gi] = shard.counters.rx_msgs[li];
                total.tx_bytes[gi] = shard.counters.tx_bytes[li];
                total.rx_bytes[gi] = shard.counters.rx_bytes[li];
                total.energy[gi] = shard.counters.energy[li];
                total.tx_drops[gi] = shard.counters.tx_drops[li];
            }
        }
        total
    }

    /// Starts buffering trace records in every region (with per-node
    /// sequence numbers); retrieve the merged stream with
    /// [`Self::take_merged_trace`].
    pub fn enable_trace(&mut self) {
        for shard in &mut self.shards {
            shard.sink = Some(BufferSink::new());
        }
    }

    /// Drains every region's trace buffer and merges the streams into
    /// one deterministic global trace (see
    /// [`wsn_trace::merge_shard_traces`]).
    pub fn take_merged_trace(&mut self) -> Vec<TraceRecord> {
        let buffers: Vec<Vec<TraceRecord>> = self
            .shards
            .iter_mut()
            .filter_map(|s| s.sink.take())
            .map(BufferSink::into_records)
            .collect();
        merge_shard_traces(buffers)
    }

    /// Consumes the simulator, returning the topology, the apps in
    /// global id order, and the merged counters — the inputs
    /// [`Simulator::from_parts_at`](crate::net::Simulator::from_parts_at)
    /// needs to continue the run on the single-heap engine.
    pub fn into_parts(self) -> (Topology, Vec<A>, Counters) {
        let counters = self.counters();
        // Each region holds its nodes in ascending id order, so walking the
        // global ids and taking the next app of the owning region merges
        // the regions without an intermediate slot per node.
        let mut regions: Vec<_> = self
            .shards
            .into_iter()
            .map(|s| s.apps.into_iter())
            .collect();
        let apps = self
            .region_of
            .iter()
            .map(|&r| {
                regions[r as usize]
                    .next()
                    .expect("every node owned by exactly one shard")
            })
            .collect();
        (self.topo, apps, counters)
    }
}

impl<A: App + Send> ShardedSimulator<A> {
    /// Runs until every region's event heap drains. Returns the final
    /// virtual time (the latest event processed anywhere).
    pub fn run(&mut self) -> SimTime {
        let k = self.shards.len();
        if k == 1 {
            let env = Env {
                topo: &self.topo,
                radio: &self.radio,
                region_of: &self.region_of,
                local_of: &self.local_of,
                me: 0,
            };
            let mut out: Vec<Vec<ShardEvent>> = vec![Vec::new()];
            self.shards[0].process_until(SimTime::MAX, &env, &mut out);
            debug_assert!(out[0].is_empty());
        } else {
            // Per window parity: one mailbox per ordered region pair, each
            // holding one boundary batch, and one published minimum per
            // region (see `run_region`).
            let mail: Vec<Mutex<Vec<ShardEvent>>> =
                (0..2 * k * k).map(|_| Mutex::new(Vec::new())).collect();
            let mins: Vec<AtomicU64> = (0..2 * k).map(|_| AtomicU64::new(0)).collect();
            let barrier = Barrier::new(k);
            let exchange = Exchange {
                mail: &mail,
                mins: &mins,
                barrier: &barrier,
            };
            let window = self.window;
            let (topo, radio) = (&self.topo, &self.radio);
            let (region_of, local_of) = (&self.region_of[..], &self.local_of[..]);
            std::thread::scope(|scope| {
                for (me, shard) in self.shards.iter_mut().enumerate() {
                    scope.spawn(move || {
                        let env = Env {
                            topo,
                            radio,
                            region_of,
                            local_of,
                            me,
                        };
                        run_region(shard, env, window, exchange);
                    });
                }
            });
        }
        self.now = self.shards.iter().map(|s| s.now).max().unwrap_or(0);
        self.now
    }
}

/// What the region workers share: per window parity, the boundary
/// mailboxes and the published minima, and the barrier that ends each
/// window's posting.
#[derive(Clone, Copy)]
struct Exchange<'a> {
    /// `mail[(parity * k + from) * k + to]`: the batch region `from`
    /// posts for region `to` in a window of that parity.
    mail: &'a [Mutex<Vec<ShardEvent>>],
    /// `mins[parity * k + region]`: the earliest event time `region`
    /// knows of, its heap and its posted batches included.
    mins: &'a [AtomicU64],
    barrier: &'a Barrier,
}

/// One region worker's windowed event loop.
///
/// Each iteration: post the boundary batches the last window produced,
/// publish the earliest time this region knows of (its heap and those
/// batches), meet every region at the barrier, take the batches posted
/// for this region, and process everything in `[T, T + window)`, where
/// `T` is the minimum over all published times, which is the earliest
/// pending event anywhere. That is one synchronization per window. The
/// mailboxes and minima are double-buffered by window parity: a region
/// writes window `w + 2`'s slots only after passing window `w + 1`'s
/// barrier, which every region reaches only after reading window `w`'s
/// slots. Termination is the window where every region publishes an
/// empty heap and empty batches: nothing is pending or in flight
/// anywhere, and every region reads the same minima, so all of them
/// stop there.
fn run_region<A: App>(shard: &mut Shard<A>, env: Env, window: SimTime, ex: Exchange) {
    let k = ex.mins.len() / 2;
    let mut out: Vec<Vec<ShardEvent>> = (0..k).map(|_| Vec::new()).collect();
    let mut end: SimTime = 0;
    for parity in [0, 1].into_iter().cycle() {
        let mail = &ex.mail[parity * k * k..(parity + 1) * k * k];
        let mins = &ex.mins[parity * k..(parity + 1) * k];
        let mut local_min = shard.heap.peek().map_or(SimTime::MAX, |e| e.key.at);
        for (to, batch) in out.iter_mut().enumerate() {
            if let Some(at) = batch.iter().map(|e| e.key.at).min() {
                local_min = local_min.min(at);
                let mut slot = mail[env.me * k + to].lock().expect("mailbox poisoned");
                debug_assert!(slot.is_empty(), "mailbox read before reuse");
                // The slot's empty vector comes back for the next batch.
                std::mem::swap(&mut *slot, batch);
            }
        }
        // Barrier waits synchronize memory; Relaxed suffices.
        mins[env.me].store(local_min, Ordering::Relaxed);
        ex.barrier.wait();
        for from in (0..k).filter(|&from| from != env.me) {
            let batch =
                std::mem::take(&mut *mail[from * k + env.me].lock().expect("mailbox poisoned"));
            for ev in batch {
                debug_assert!(ev.key.at >= end, "boundary event inside the window");
                shard.heap.push(ev);
            }
        }
        let t = mins
            .iter()
            .map(|m| m.load(Ordering::Relaxed))
            .min()
            .expect("at least one region");
        if t == SimTime::MAX {
            return;
        }
        end = t.saturating_add(window);
        shard.process_until(end, &env, &mut out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;

    /// A chatty flood: node 0 broadcasts at start, every node relays the
    /// first frame it hears, draws from its RNG on every reception, and
    /// runs a re-armed timer — exercising deliveries, timers, RNG
    /// streams, and cancellation across region borders.
    struct Flood {
        /// The node id this app was built for.
        built_for: NodeId,
        heard: u64,
        relayed: bool,
        draws: u64,
        fires: u64,
    }

    fn flood(id: NodeId) -> Flood {
        Flood {
            built_for: id,
            heard: 0,
            relayed: false,
            draws: 0,
            fires: 0,
        }
    }

    impl App for Flood {
        fn on_start(&mut self, ctx: &mut Ctx) {
            assert_eq!(ctx.id(), self.built_for, "app started on its own node");
            if ctx.id() == 0 {
                ctx.broadcast(vec![7u8; 8]);
            }
            ctx.set_timer(1, 900);
            ctx.set_timer(1, 500); // re-arm supersedes
            ctx.set_timer(2, 300);
            ctx.cancel_timer(2);
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: NodeId, payload: &[u8]) {
            self.heard += 1;
            self.draws = self.draws.wrapping_add(ctx.rng().gen::<u64>());
            if !self.relayed {
                self.relayed = true;
                ctx.broadcast(payload.to_vec());
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, key: TimerKey) {
            assert_eq!(key, 1);
            assert_eq!(ctx.now(), 500, "re-armed instance fires, original doesn't");
            self.fires += 1;
        }
    }

    #[allow(clippy::type_complexity)]
    fn snapshot(k: usize, loss: f64) -> (Vec<(u64, u64, u64)>, u64, SimTime, Vec<u64>, usize) {
        let topo = Topology::random(&TopologyConfig::with_density(300, 10.0), 3);
        let radio = RadioConfig::default().with_loss(loss);
        let mut sim = ShardedSimulator::new(topo, radio, 42, k, flood);
        sim.enable_trace();
        let end = sim.run();
        let trace = sim.take_merged_trace();
        let events = sim.events_processed();
        let counters = sim.counters();
        let (_, apps, _) = sim.into_parts();
        let app_state = apps.iter().map(|a| (a.heard, a.draws, a.fires)).collect();
        let tx = counters.tx_msgs.clone();
        (app_state, events, end, tx, trace.len())
    }

    #[test]
    fn byte_identical_across_shard_counts() {
        let base = snapshot(1, 0.0);
        for k in [2, 4, 5, 9] {
            assert_eq!(snapshot(k, 0.0), base, "k = {k} diverged");
        }
        // Sanity: the flood actually spread and timers fired.
        assert!(base.0.iter().map(|s| s.0).sum::<u64>() > 300);
        assert!(base.0.iter().all(|s| s.2 == 1));
    }

    #[test]
    fn lossy_radio_identical_across_shard_counts() {
        let base = snapshot(1, 0.25);
        for k in [3, 4] {
            assert_eq!(snapshot(k, 0.25), base, "lossy k = {k} diverged");
        }
        // Loss actually bit: fewer frames heard than at loss 0.
        assert!(
            base.0.iter().map(|s| s.0).sum::<u64>()
                < snapshot(1, 0.0).0.iter().map(|s| s.0).sum::<u64>()
        );
    }

    #[test]
    fn full_trace_identical_across_shard_counts() {
        let run = |k: usize| {
            let topo = Topology::random(&TopologyConfig::with_density(120, 10.0), 9);
            let mut sim = ShardedSimulator::new(topo, RadioConfig::default(), 5, k, flood);
            sim.enable_trace();
            sim.run();
            sim.take_merged_trace()
        };
        let one = run(1);
        assert!(!one.is_empty());
        assert_eq!(one, run(4));
        // Global seqs are dense after the merge.
        assert!(one.iter().enumerate().all(|(i, r)| r.seq == i as u64));
    }

    /// Opens every frame it hears through the receive share (the "open"
    /// copies the payload) and relays the first one; every seventh node
    /// starts a broadcast of its own.
    struct Sharer {
        heard: u64,
        relayed: bool,
    }

    fn sharer(_: NodeId) -> Sharer {
        Sharer {
            heard: 0,
            relayed: false,
        }
    }

    impl App for Sharer {
        fn on_start(&mut self, ctx: &mut Ctx) {
            if ctx.id().is_multiple_of(7) {
                self.relayed = true;
                ctx.broadcast(vec![ctx.id() as u8; 6]);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: NodeId, payload: &[u8]) {
            let share = ctx.rx_share().expect("every delivery is lent a share");
            let opened = share.open(&[payload], |buf| {
                buf.extend_from_slice(payload);
                Ok::<(), ()>(())
            });
            assert_eq!(opened, Ok(payload), "a share served another frame");
            self.heard += 1;
            if !std::mem::replace(&mut self.relayed, true) {
                ctx.broadcast(payload.to_vec());
            }
        }
    }

    /// Runs the windowed protocol of `run_region` on one thread, one event
    /// at a time, calling `after_each` with the region after every event.
    fn step_regions<A: App>(sim: &mut ShardedSimulator<A>, mut after_each: impl FnMut(&Shard<A>)) {
        let k = sim.shards.len();
        while let Some(t) = sim
            .shards
            .iter()
            .filter_map(|s| s.heap.peek())
            .map(|e| e.key.at)
            .min()
        {
            let end = t + sim.window;
            let mut crossing: Vec<Vec<ShardEvent>> = (0..k).map(|_| Vec::new()).collect();
            for (me, shard) in sim.shards.iter_mut().enumerate() {
                let env = Env {
                    topo: &sim.topo,
                    radio: &sim.radio,
                    region_of: &sim.region_of,
                    local_of: &sim.local_of,
                    me,
                };
                while shard.heap.peek().is_some_and(|e| e.key.at < end) {
                    shard.process_next(&env, &mut crossing);
                    after_each(shard);
                }
            }
            for (shard, batch) in sim.shards.iter_mut().zip(crossing) {
                shard.heap.extend(batch);
            }
        }
    }

    #[test]
    fn fanout_entries_share_one_open_and_zero_it() {
        let topo = || Topology::random(&TopologyConfig::with_density(200, 10.0), 4);
        // One computed open per region a broadcast reaches; every other
        // receiver in that region reuses it.
        let t = topo();
        let region_count = |regions: &[u32], id: NodeId| {
            let mut seen: Vec<u32> = t
                .neighbors(id)
                .iter()
                .map(|&n| regions[n as usize])
                .collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len() as u64
        };
        let mut base = None;
        for k in [1, 2, 4] {
            let regions = assign_regions(&t, k);
            let mut stepped = ShardedSimulator::new(topo(), RadioConfig::default(), 3, k, sharer);
            let mut popped = 0;
            step_regions(&mut stepped, |shard| {
                popped += 1;
                assert!(
                    shard.share.is_empty(),
                    "k = {k}: the share outlived its entry"
                );
            });
            let mut threaded = ShardedSimulator::new(topo(), RadioConfig::default(), 3, k, sharer);
            threaded.run();
            let stats = |sim: &ShardedSimulator<Sharer>| {
                assert!(sim.shards.iter().all(|s| s.share.is_empty()));
                sim.shards.iter().fold((0, 0), |(c, r), s| {
                    (c + s.share.stats().computed, r + s.share.stats().reused)
                })
            };
            let (computed, reused) = stats(&stepped);
            assert_eq!(stats(&threaded), (computed, reused), "k = {k}");
            let events = stepped.events_processed();
            assert_eq!(threaded.events_processed(), events, "k = {k}");

            let (_, apps, counters) = stepped.into_parts();
            let senders: Vec<NodeId> = (0..200)
                .filter(|&id| counters.tx_msgs[id as usize] > 0)
                .collect();
            assert!(senders.len() > 150, "the flood died out");
            let deliveries: u64 = senders.iter().map(|&id| t.degree(id) as u64).sum();
            let entries: u64 = senders.iter().map(|&id| region_count(&regions, id)).sum();
            assert_eq!(
                (computed, reused),
                (entries, deliveries - entries),
                "k = {k}"
            );
            // One heap entry per start and per region a broadcast reaches,
            // but one counted event per start and per receiver.
            assert_eq!(popped, 200 + entries, "k = {k}");
            assert_eq!(events, 200 + deliveries, "k = {k}");
            let heard: Vec<u64> = apps.iter().map(|a| a.heard).collect();
            assert_eq!(heard.iter().sum::<u64>(), deliveries);
            assert_eq!(*base.get_or_insert(heard.clone()), heard, "k = {k}");
        }
    }

    #[test]
    fn grid_covers_all_factorizations() {
        assert_eq!(grid_dims(1), (1, 1));
        assert_eq!(grid_dims(4), (2, 2));
        assert_eq!(grid_dims(6), (2, 3));
        assert_eq!(grid_dims(7), (1, 7)); // prime: strip partition
        assert_eq!(grid_dims(16), (4, 4));
        let topo = Topology::random(&TopologyConfig::with_density(50, 8.0), 1);
        for k in 1..=8 {
            let regions = assign_regions(&topo, k);
            assert!(regions.iter().all(|&r| (r as usize) < k));
        }
    }

    #[test]
    fn shards_selector_resolves() {
        assert_eq!(Shards::Single.region_count(), None);
        assert_eq!(Shards::Fixed(6).region_count(), Some(6));
        assert_eq!(Shards::default(), Shards::Single);
        // Auto honors WSN_SHARDS (restored afterwards; the only other
        // readers pick a region count, which never changes results).
        let prior = std::env::var("WSN_SHARDS").ok();
        std::env::set_var("WSN_SHARDS", "5");
        assert_eq!(Shards::Auto.region_count(), Some(5));
        std::env::set_var("WSN_SHARDS", "0");
        assert!(Shards::Auto.region_count().unwrap() >= 1);
        match prior {
            Some(v) => std::env::set_var("WSN_SHARDS", v),
            None => std::env::remove_var("WSN_SHARDS"),
        }
    }

    #[test]
    #[should_panic(expected = "contention")]
    fn contention_radio_rejected() {
        let topo = Topology::random(&TopologyConfig::with_density(10, 5.0), 0);
        let radio = RadioConfig::default().with_contention();
        let _ = ShardedSimulator::new(topo, radio, 0, 2, flood);
    }

    #[test]
    fn collapse_matches_sharded_state() {
        use crate::net::Simulator;
        for k in [1, 2, 4] {
            let topo = Topology::random(&TopologyConfig::with_density(80, 10.0), 2);
            let radio = RadioConfig::default();
            let mut sh = ShardedSimulator::new(topo, radio.clone(), 11, k, flood);
            let end = sh.run();
            let events = sh.events_processed();
            let (topo, apps, counters) = sh.into_parts();
            // Apps come back in global id order whatever the region split.
            assert!(
                apps.iter()
                    .enumerate()
                    .all(|(i, a)| a.built_for == i as NodeId),
                "k = {k}: apps out of id order"
            );
            let sim = Simulator::from_parts_at(topo, radio, 99, end, apps, counters, events);
            assert_eq!(sim.now(), end);
            assert_eq!(sim.events_processed(), events);
            assert!(sim.counters().total_tx_msgs() > 0);
            assert_eq!(sim.apps().len(), 80);
        }
    }
}

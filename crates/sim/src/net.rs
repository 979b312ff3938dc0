//! The simulator proper: wires topology, event queue, radio and apps
//! together and keeps the books.

use crate::energy::EnergyMeter;
use crate::event::{EventKind, EventQueue, SimTime};
use crate::hash::FoldState;
use crate::link::{DeliveryHook, IidLoss, LinkProcess};
use crate::node::{Action, App, Ctx, NodeId, RxShare, TimerKey};
use crate::radio::RadioConfig;
use crate::topology::Topology;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use wsn_trace::{NetFaultKind, TraceEvent, TraceRecord, TraceSink};

/// Per-node and aggregate traffic counters — the raw material of Figures 8
/// and 9 (messages per node during key setup) and the energy comparisons.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Frames transmitted per node.
    pub tx_msgs: Vec<u64>,
    /// Frames received per node.
    pub rx_msgs: Vec<u64>,
    /// Bytes transmitted per node.
    pub tx_bytes: Vec<u64>,
    /// Bytes received per node.
    pub rx_bytes: Vec<u64>,
    /// Energy meters per node.
    pub energy: Vec<EnergyMeter>,
    /// Frames tail-dropped per node by a finite transmit queue (only ever
    /// non-zero when `RadioConfig::tx_queue_cap` is set).
    pub tx_drops: Vec<u64>,
}

impl Counters {
    pub(crate) fn new(n: usize) -> Self {
        Counters {
            tx_msgs: vec![0; n],
            rx_msgs: vec![0; n],
            tx_bytes: vec![0; n],
            rx_bytes: vec![0; n],
            energy: vec![EnergyMeter::default(); n],
            tx_drops: vec![0; n],
        }
    }

    /// Total frames transmitted network-wide.
    pub fn total_tx_msgs(&self) -> u64 {
        self.tx_msgs.iter().sum()
    }

    /// Total radio energy, microjoules.
    pub fn total_energy_uj(&self) -> f64 {
        self.energy.iter().map(|e| e.total_uj()).sum()
    }

    /// Total frames tail-dropped network-wide by finite transmit queues.
    pub fn total_tx_drops(&self) -> u64 {
        self.tx_drops.iter().sum()
    }
}

/// A discrete-event simulation of one deployed network running app `A` on
/// every node.
pub struct Simulator<A: App> {
    topo: Topology,
    apps: Vec<A>,
    queue: EventQueue,
    now: SimTime,
    radio: RadioConfig,
    rng: StdRng,
    counters: Counters,
    /// Latest armed generation per (node, timer key); stale timer events
    /// are dropped when popped. The simulator picks these keys, so the
    /// table hashes with the non-keyed [`FoldState`].
    timers: HashMap<(NodeId, TimerKey), u64, FoldState>,
    timer_gen: u64,
    scratch_actions: Vec<Action>,
    /// The receive share lent to every receiver of one delivery event
    /// (see [`Ctx::rx_share`]); empty between events.
    share: RxShare,
    events_processed: u64,
    /// Optional trace sink. `None` costs one branch per potential event;
    /// trace payloads are reference-counted so recording is cheap too.
    sink: Option<Box<dyn TraceSink>>,
    /// Global sequence number for the next trace record.
    trace_seq: u64,
    /// The channel loss model. Defaults to [`IidLoss`] over
    /// `RadioConfig::loss`; fault engines swap in richer processes.
    link: Box<dyn LinkProcess>,
    /// Schedule-time delivery hook (seeded datagram faults). `None`, the
    /// default, schedules one clean delivery per in-range receiver.
    delivery: Option<Box<dyn DeliveryHook>>,
    /// Per-node power state. A down node's radio and CPU are dark: no
    /// deliveries, no timer fires, no start hook.
    down: Vec<bool>,
    /// Fast emptiness check for the hot path: number of down nodes.
    n_down: usize,
    /// Per-node clock-rate multipliers (`None` ⇒ all clocks nominal).
    /// Applied to timer delays at arming time.
    drift: Option<Vec<f64>>,
    /// Partition in force: per-node side labels. Frames whose endpoints
    /// carry different labels are cut. `None` ⇒ no partition.
    partition: Option<Vec<u8>>,
    /// Per-node in-flight transmission finish times, allocated only when
    /// the radio models a finite TX queue or airtime contention. `None`
    /// (the default radio) keeps the historical immediate-schedule path
    /// untouched.
    tx_queue: Option<Vec<std::collections::VecDeque<SimTime>>>,
}

impl<A: App> Simulator<A> {
    /// Builds a simulator over `topo`, constructing each node's app with
    /// `make_app`, using seed 0 for the simulation RNG and default radio.
    pub fn new(topo: Topology, make_app: impl FnMut(NodeId) -> A) -> Self {
        Self::with_config(topo, RadioConfig::default(), 0, make_app)
    }

    /// Full-control constructor.
    pub fn with_config(
        topo: Topology,
        radio: RadioConfig,
        seed: u64,
        make_app: impl FnMut(NodeId) -> A,
    ) -> Self {
        Self::with_config_at(topo, radio, seed, 0, make_app)
    }

    /// [`Self::with_config`] starting the virtual clock at `start` instead
    /// of 0. Used when a simulation is rebuilt mid-experiment (node
    /// addition): keeping time monotonic preserves freshness-window and
    /// refresh-boundary semantics across the rebuild.
    pub fn with_config_at(
        topo: Topology,
        radio: RadioConfig,
        seed: u64,
        start: SimTime,
        mut make_app: impl FnMut(NodeId) -> A,
    ) -> Self {
        let n = topo.n();
        let link = Box::new(IidLoss { loss: radio.loss });
        let tx_queue = (radio.contention || radio.tx_queue_cap.is_some())
            .then(|| vec![std::collections::VecDeque::new(); n]);
        let apps: Vec<A> = (0..n as NodeId).map(&mut make_app).collect();
        // Pre-size the heap for the start events and the steady state's
        // pending timers and deliveries, so it never grows incrementally.
        let mut queue = EventQueue::with_capacity(n * 4);
        for id in 0..n as NodeId {
            queue.schedule(start, EventKind::Start(id));
        }
        Simulator {
            topo,
            apps,
            queue,
            now: start,
            radio,
            rng: StdRng::seed_from_u64(seed),
            counters: Counters::new(n),
            timers: HashMap::default(),
            timer_gen: 0,
            scratch_actions: Vec::with_capacity(8),
            share: RxShare::default(),
            events_processed: 0,
            sink: None,
            trace_seq: 0,
            link,
            delivery: None,
            down: vec![false; n],
            n_down: 0,
            drift: None,
            partition: None,
            tx_queue,
        }
    }

    /// Rebuilds a simulator around state produced elsewhere — the
    /// collapse path from the sharded setup engine
    /// ([`crate::shard::ShardedSimulator`]) after it has run the network
    /// to quiescence. No `Start` events are scheduled: the queue begins
    /// empty, the clock at `start`, and the carried `counters` /
    /// `events_processed` keep the books continuous across the engine
    /// switch.
    pub fn from_parts_at(
        topo: Topology,
        radio: RadioConfig,
        seed: u64,
        start: SimTime,
        apps: Vec<A>,
        counters: Counters,
        events_processed: u64,
    ) -> Self {
        let n = topo.n();
        assert_eq!(apps.len(), n, "one app per node");
        assert_eq!(counters.tx_msgs.len(), n, "counters sized to the topology");
        let link = Box::new(IidLoss { loss: radio.loss });
        let tx_queue = (radio.contention || radio.tx_queue_cap.is_some())
            .then(|| vec![std::collections::VecDeque::new(); n]);
        Simulator {
            topo,
            apps,
            queue: EventQueue::with_capacity(n * 4),
            now: start,
            radio,
            rng: StdRng::seed_from_u64(seed),
            counters,
            timers: HashMap::default(),
            timer_gen: 0,
            scratch_actions: Vec::with_capacity(8),
            share: RxShare::default(),
            events_processed,
            sink: None,
            trace_seq: 0,
            link,
            delivery: None,
            down: vec![false; n],
            n_down: 0,
            drift: None,
            partition: None,
            tx_queue,
        }
    }

    /// Installs a trace sink; every subsequent simulator and protocol
    /// event is recorded into it. Replaces any previous sink.
    pub fn install_trace(&mut self, sink: impl TraceSink + 'static) {
        self.sink = Some(Box::new(sink));
    }

    /// [`Self::install_trace`] for an already-boxed sink, so builders can
    /// hold `Box<dyn TraceSink>` without double-boxing on install.
    pub fn install_trace_boxed(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Removes and returns the installed sink (flushed), leaving the
    /// simulator untraced. The sequence counter is preserved, so a sink
    /// installed later continues the same total order.
    pub fn take_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        let mut sink = self.sink.take();
        if let Some(s) = sink.as_mut() {
            s.flush();
        }
        sink
    }

    /// Whether a trace sink is installed.
    pub fn tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// Detaches the full trace state — sink plus sequence counter — so a
    /// driver rebuilding the simulator (e.g. for node addition) can carry
    /// the trace across into the replacement via
    /// [`Self::restore_trace_state`].
    pub fn take_trace_state(&mut self) -> (Option<Box<dyn TraceSink>>, u64) {
        (self.sink.take(), self.trace_seq)
    }

    /// Re-attaches trace state detached by [`Self::take_trace_state`].
    pub fn restore_trace_state(&mut self, state: (Option<Box<dyn TraceSink>>, u64)) {
        self.sink = state.0;
        self.trace_seq = state.1;
    }

    /// Records a protocol-layer event on behalf of `node` at the current
    /// virtual time. Used by experiment drivers that act outside app
    /// hooks (e.g. a driver-initiated key refresh); apps inside hooks use
    /// [`Ctx::trace`] instead.
    pub fn trace_record(&mut self, node: NodeId, event: TraceEvent) {
        self.trace_with(node, || event);
    }

    /// Records an event, constructing it only if a sink is installed —
    /// the zero-overhead-when-disabled path.
    #[inline]
    fn trace_with(&mut self, node: NodeId, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            let rec = TraceRecord {
                seq: self.trace_seq,
                at: self.now,
                node,
                event: make(),
            };
            self.trace_seq += 1;
            sink.record(rec);
        }
    }

    /// The deployed topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Traffic counters so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// All node apps (indexable by `NodeId`).
    pub fn apps(&self) -> &[A] {
        &self.apps
    }

    /// Mutable access to one node's app (for post-phase reconfiguration,
    /// e.g. the base station issuing a command between phases).
    pub fn app_mut(&mut self, id: NodeId) -> &mut A {
        &mut self.apps[id as usize]
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The receive share: empty whenever no event is being processed,
    /// with the reuse counts of every delivery so far.
    pub fn rx_share(&self) -> &RxShare {
        &self.share
    }

    /// Injects a frame delivered to every node within radio range of
    /// node position `origin`, `delay` µs from now, appearing to come from
    /// `claimed_from`. This is the adversary's entry point (HELLO floods,
    /// replays): the attacker is *not* a simulated node and pays no cost.
    pub fn inject_broadcast_at(
        &mut self,
        origin: NodeId,
        claimed_from: NodeId,
        delay: SimTime,
        payload: impl Into<Bytes>,
    ) {
        let payload: Bytes = payload.into();
        let at = self.now + delay + self.radio.airtime_us(payload.len());
        // Deliver to origin's neighborhood *and* origin itself: the
        // adversary transmits from origin's position.
        let mut targets: Vec<NodeId> = self.topo.neighbors(origin).to_vec();
        targets.push(origin);
        let neighbors = targets.len() as u32;
        self.trace_with(origin, || TraceEvent::Injected {
            payload: payload.clone(),
            neighbors,
        });
        for to in targets {
            self.queue.schedule(
                at,
                EventKind::Deliver {
                    from: claimed_from,
                    to,
                    payload: payload.clone(),
                },
            );
        }
    }

    /// Schedules a timer for `node` from outside the app hooks (used by
    /// experiment drivers to kick off later phases).
    pub fn schedule_timer(&mut self, node: NodeId, key: TimerKey, delay: SimTime) {
        self.timer_gen += 1;
        let gen = self.timer_gen;
        self.timers.insert((node, key), gen);
        let fire_at = self.now + self.drifted(node, delay);
        self.trace_with(node, || TraceEvent::TimerSet { key, fire_at });
        self.queue
            .schedule(fire_at, EventKind::Timer { node, key, gen });
    }

    /// Runs until the event queue drains. Returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Runs every event scheduled at or before `deadline`, then advances
    /// the clock to `deadline` (pending later events stay queued).
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
        self.now
    }

    /// Processes one queued event: a start hook, a timer, or a frame's
    /// delivery. A hook-free broadcast is one queued event that delivers
    /// to every neighbour, each delivery counted in
    /// [`Self::events_processed`], and lends all of them one receive
    /// share ([`Ctx::rx_share`]). The share is zeroed before this returns.
    /// Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        self.now = ev.at;
        match ev.kind {
            EventKind::Start(id) => {
                self.events_processed += 1;
                if self.is_down(id) {
                    return true;
                }
                self.dispatch(id, |app, ctx| app.on_start(ctx));
            }
            EventKind::Timer { node, key, gen } => {
                self.events_processed += 1;
                if self.is_down(node) {
                    return true;
                }
                if self.timers.get(&(node, key)) == Some(&gen) {
                    self.timers.remove(&(node, key));
                    self.trace_with(node, || TraceEvent::TimerFired { key });
                    self.dispatch(node, |app, ctx| app.on_timer(ctx, key));
                }
            }
            EventKind::Deliver { from, to, payload } => {
                self.deliver(from, to, &payload);
                self.share.clear();
            }
            EventKind::Broadcast { from, payload } => {
                for i in 0..self.topo.degree(from) {
                    let to = self.topo.neighbors(from)[i];
                    self.deliver(from, to, &payload);
                }
                self.share.clear();
            }
        }
        true
    }

    /// One frame reaching one receiver, counted as one event: the power,
    /// partition and channel-loss checks, then the receive counters, the
    /// trace record and the app's `on_message`.
    fn deliver(&mut self, from: NodeId, to: NodeId, payload: &Bytes) {
        self.events_processed += 1;
        // A powered-off receiver hears nothing — not even a drop.
        if self.is_down(to) {
            return;
        }
        // Frames crossing a partition cut never arrive; per-receiver
        // channel loss is decided by the link process.
        if self.partition_cuts(from, to)
            || self
                .link
                .should_drop(from, to, payload.len(), self.now, &mut self.rng)
        {
            self.trace_with(to, || TraceEvent::RadioDrop {
                from,
                bytes: payload.len() as u32,
            });
            return;
        }
        let idx = to as usize;
        self.counters.rx_msgs[idx] += 1;
        self.counters.rx_bytes[idx] += payload.len() as u64;
        self.counters.energy[idx].record_rx(payload.len(), &self.radio);
        self.trace_with(to, || TraceEvent::Rx {
            from,
            payload: payload.clone(),
        });
        self.dispatch(to, |app, ctx| app.on_message(ctx, from, payload));
    }

    fn dispatch(&mut self, id: NodeId, f: impl FnOnce(&mut A, &mut Ctx)) {
        let mut actions = std::mem::take(&mut self.scratch_actions);
        {
            let mut ctx = Ctx {
                id,
                now: self.now,
                rng: &mut self.rng,
                actions: &mut actions,
                sink: self.sink.as_deref_mut(),
                trace_seq: &mut self.trace_seq,
                share: Some(&mut self.share),
            };
            f(&mut self.apps[id as usize], &mut ctx);
        }
        for action in actions.drain(..) {
            self.apply(id, action);
        }
        self.scratch_actions = actions;
    }

    /// Decides when a frame of `bytes` leaves `id`'s radio, or `None` if
    /// the node's finite TX queue tail-drops it. The default radio
    /// (`tx_queue` unallocated) reproduces the historical immediate
    /// schedule exactly; with contention, a frame's airtime starts after
    /// the node's previous frame has finished.
    fn tx_admit(&mut self, id: NodeId, bytes: usize) -> Option<SimTime> {
        let Some(queues) = self.tx_queue.as_mut() else {
            return Some(self.now + self.radio.airtime_us(bytes));
        };
        let q = &mut queues[id as usize];
        while q.front().is_some_and(|&finish| finish <= self.now) {
            q.pop_front();
        }
        if let Some(cap) = self.radio.tx_queue_cap {
            if q.len() >= cap {
                self.counters.tx_drops[id as usize] += 1;
                return None;
            }
        }
        let start = if self.radio.contention {
            q.back().copied().unwrap_or(self.now).max(self.now)
        } else {
            self.now
        };
        let finish = start + self.radio.airtime_us(bytes);
        q.push_back(finish);
        Some(finish)
    }

    /// Schedules one frame's delivery to one receiver through the
    /// installed [`DeliveryHook`]: zero, one or two copies, each possibly
    /// delayed past `at` or corrupted, with a `NetFaultInjected` trace
    /// event (attributed to the sender) per perturbation.
    fn deliver_hooked(&mut self, from: NodeId, to: NodeId, at: SimTime, payload: &Bytes) {
        let hook = self.delivery.as_mut().expect("delivery hook installed");
        let copies = hook.decide(from, to, payload.len(), at);
        if copies.is_empty() {
            self.trace_fault(from, NetFaultKind::Drop);
            return;
        }
        if copies.len() > 1 {
            self.trace_fault(from, NetFaultKind::Duplicate);
        }
        for copy in copies {
            if copy.delay_us > 0 {
                self.trace_fault(from, NetFaultKind::Delay);
            }
            let payload = if copy.corrupt.is_some() {
                self.trace_fault(from, NetFaultKind::Corrupt);
                let mut buf = payload.to_vec();
                copy.apply_corruption(&mut buf);
                Bytes::from(buf)
            } else {
                payload.clone()
            };
            self.queue
                .schedule(at + copy.delay_us, EventKind::Deliver { from, to, payload });
        }
    }

    fn trace_fault(&mut self, node: NodeId, fault: NetFaultKind) {
        self.trace_with(node, || TraceEvent::NetFaultInjected { fault });
    }

    fn apply(&mut self, id: NodeId, action: Action) {
        match action {
            Action::Broadcast(payload) => {
                let Some(at) = self.tx_admit(id, payload.len()) else {
                    return;
                };
                self.charge_tx(id, payload.len());
                // Gated lookup: the degree read only happens when a sink
                // will actually see the event.
                if self.sink.is_some() {
                    let neighbors = self.topo.degree(id) as u32;
                    self.trace_with(id, || TraceEvent::TxBroadcast {
                        payload: payload.clone(),
                        neighbors,
                    });
                }
                if self.delivery.is_none() {
                    // No entry for an isolated sender: popping it would
                    // move the clock with no delivery.
                    if self.topo.degree(id) > 0 {
                        self.queue
                            .schedule(at, EventKind::Broadcast { from: id, payload });
                    }
                } else {
                    for i in 0..self.topo.degree(id) {
                        let to = self.topo.neighbors(id)[i];
                        self.deliver_hooked(id, to, at, &payload);
                    }
                }
            }
            Action::Send(to, payload) => {
                let Some(at) = self.tx_admit(id, payload.len()) else {
                    return;
                };
                self.charge_tx(id, payload.len());
                self.trace_with(id, || TraceEvent::TxUnicast {
                    to,
                    payload: payload.clone(),
                });
                // Addressed frame: delivered only to `to`, and only if in
                // range.
                if self.topo.neighbors(id).binary_search(&to).is_ok() {
                    if self.delivery.is_none() {
                        self.queue.schedule(
                            at,
                            EventKind::Deliver {
                                from: id,
                                to,
                                payload,
                            },
                        );
                    } else {
                        self.deliver_hooked(id, to, at, &payload);
                    }
                }
            }
            Action::SetTimer(key, delay) => {
                self.timer_gen += 1;
                let gen = self.timer_gen;
                self.timers.insert((id, key), gen);
                let fire_at = self.now + self.drifted(id, delay);
                self.trace_with(id, || TraceEvent::TimerSet { key, fire_at });
                self.queue
                    .schedule(fire_at, EventKind::Timer { node: id, key, gen });
            }
            Action::CancelTimer(key) => {
                if self.timers.remove(&(id, key)).is_some() {
                    self.trace_with(id, || TraceEvent::TimerCanceled { key });
                }
            }
        }
    }

    // ---- fault-injection surface -------------------------------------
    //
    // Everything below exists for fault engines (wsn-chaos). With none of
    // it used — no down nodes, no drift, no partition, default link — the
    // hot path pays one `n_down == 0` compare and one `Option` branch
    // each, and the link process reproduces the historical i.i.d. draw
    // discipline exactly, so untouched runs stay byte-identical.

    /// Replaces the channel loss model. The default reproduces
    /// `RadioConfig::loss` exactly; see [`crate::link`].
    pub fn set_link_process(&mut self, link: impl LinkProcess + 'static) {
        self.link = Box::new(link);
    }

    /// Installs a schedule-time [`DeliveryHook`] (e.g. a seeded datagram
    /// fault schedule), replacing any previous one. Every frame a node
    /// transmits is then scheduled per receiver as the hook decides;
    /// adversary injections bypass it. See [`crate::link`].
    pub fn set_delivery_hook(&mut self, hook: impl DeliveryHook + 'static) {
        self.delivery = Some(Box::new(hook));
    }

    /// Whether `id` is currently powered on. Ids outside the topology
    /// (synthetic adversary senders) count as up.
    pub fn node_is_up(&self, id: NodeId) -> bool {
        !self.is_down(id)
    }

    #[inline]
    fn is_down(&self, id: NodeId) -> bool {
        self.n_down != 0 && self.down.get(id as usize).copied().unwrap_or(false)
    }

    /// Powers node `id` off: pending and future deliveries, timers and
    /// start hooks are silently discarded, and its armed timers are
    /// forgotten (a crashed node loses its timer wheel). App state is
    /// left in place — wiping or retaining it is the caller's decision.
    /// Idempotent. Emits a `NodeDown` trace event on the transition.
    pub fn set_node_down(&mut self, id: NodeId) {
        let idx = id as usize;
        if idx >= self.down.len() || self.down[idx] {
            return;
        }
        self.down[idx] = true;
        self.n_down += 1;
        self.timers.retain(|&(node, _), _| node != id);
        self.trace_with(id, || TraceEvent::NodeDown);
    }

    /// Powers node `id` back on. The app's hooks run again only once new
    /// events reach it — pair with [`Self::schedule_start`] (and
    /// [`Self::replace_app`] for a state-wiped reboot) to re-enter the
    /// network. Idempotent. Emits a `NodeUp` trace event on transition.
    pub fn set_node_up(&mut self, id: NodeId) {
        let idx = id as usize;
        if idx >= self.down.len() || !self.down[idx] {
            return;
        }
        self.down[idx] = false;
        self.n_down -= 1;
        self.trace_with(id, || TraceEvent::NodeUp);
    }

    /// Swaps in a fresh app for `id`, returning the old one. Used for
    /// state-wiped reboots: the replacement starts from its constructor
    /// state, as real firmware does after a power cycle.
    pub fn replace_app(&mut self, id: NodeId, app: A) -> A {
        std::mem::replace(&mut self.apps[id as usize], app)
    }

    /// Queues a fresh `Start` event for `id`, `delay` µs from now, so a
    /// rebooted node's `on_start` hook runs again.
    pub fn schedule_start(&mut self, id: NodeId, delay: SimTime) {
        self.queue.schedule(self.now + delay, EventKind::Start(id));
    }

    /// Sets node `id`'s clock-rate multiplier: every timer delay it arms
    /// from now on is scaled by `factor` (1.0 = nominal, 1.05 = a clock
    /// running 5% slow so timers fire late). Models oscillator drift; the
    /// paper's election timers are the sensitive consumers.
    pub fn set_clock_drift(&mut self, id: NodeId, factor: f64) {
        assert!(factor > 0.0, "drift factor must be positive");
        let n = self.topo.n();
        let drift = self.drift.get_or_insert_with(|| vec![1.0; n]);
        if let Some(slot) = drift.get_mut(id as usize) {
            *slot = factor;
        }
    }

    #[inline]
    fn drifted(&self, node: NodeId, delay: SimTime) -> SimTime {
        match &self.drift {
            None => delay,
            Some(d) => {
                let f = d.get(node as usize).copied().unwrap_or(1.0);
                // Exact-1.0 fast path keeps undrifted nodes free of
                // float round-off entirely.
                if f == 1.0 {
                    delay
                } else {
                    (delay as f64 * f).round() as SimTime
                }
            }
        }
    }

    /// Imposes a partition: `sides[i]` labels node `i`'s side, and frames
    /// whose endpoints carry different labels are cut. Senders without a
    /// label (synthetic adversary ids) are unaffected. Returns the number
    /// of topology links cut and emits a `PartitionStart` trace event.
    /// Replaces any partition already in force.
    pub fn set_partition(&mut self, sides: Vec<u8>) -> u32 {
        let mut links_cut = 0u32;
        for a in 0..self.topo.n() as NodeId {
            for &b in self.topo.neighbors(a) {
                if a < b {
                    if let (Some(x), Some(y)) = (sides.get(a as usize), sides.get(b as usize)) {
                        if x != y {
                            links_cut += 1;
                        }
                    }
                }
            }
        }
        self.partition = Some(sides);
        self.trace_with(0, || TraceEvent::PartitionStart { links_cut });
        links_cut
    }

    /// Heals the partition, if one is in force. Emits `PartitionHeal`.
    pub fn clear_partition(&mut self) {
        if self.partition.take().is_some() {
            self.trace_with(0, || TraceEvent::PartitionHeal);
        }
    }

    #[inline]
    fn partition_cuts(&self, from: NodeId, to: NodeId) -> bool {
        match &self.partition {
            None => false,
            Some(sides) => match (sides.get(from as usize), sides.get(to as usize)) {
                (Some(a), Some(b)) => a != b,
                _ => false,
            },
        }
    }

    fn charge_tx(&mut self, id: NodeId, bytes: usize) {
        let idx = id as usize;
        self.counters.tx_msgs[idx] += 1;
        self.counters.tx_bytes[idx] += bytes as u64;
        self.counters.energy[idx].record_tx(bytes, &self.radio);
    }

    /// Consumes the simulator, returning the apps and counters (for
    /// post-run analysis without borrow gymnastics).
    pub fn into_parts(self) -> (Topology, Vec<A>, Counters) {
        (self.topo, self.apps, self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::ScheduledCopy;
    use crate::topology::TopologyConfig;
    use wsn_trace::MemorySink;

    /// Counts receptions; node 0 broadcasts once at start.
    struct Echo {
        sent: bool,
        heard: usize,
    }

    impl App for Echo {
        fn on_start(&mut self, ctx: &mut Ctx) {
            if ctx.id() == 0 {
                ctx.broadcast(vec![1, 2, 3]);
                self.sent = true;
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx, _from: NodeId, payload: &[u8]) {
            assert_eq!(payload, &[1, 2, 3]);
            self.heard += 1;
        }
    }

    fn small_topo(seed: u64) -> Topology {
        Topology::random(&TopologyConfig::with_density(50, 10.0), seed)
    }

    #[test]
    fn broadcast_reaches_exactly_neighbors() {
        let topo = small_topo(1);
        let deg0 = topo.degree(0);
        let mut sim = Simulator::new(topo, |_| Echo {
            sent: false,
            heard: 0,
        });
        sim.run();
        let heard: usize = sim.apps().iter().map(|a| a.heard).sum();
        assert_eq!(heard, deg0);
        assert_eq!(sim.counters().total_tx_msgs(), 1);
        assert_eq!(sim.counters().tx_msgs[0], 1);
    }

    #[test]
    fn counters_track_bytes_and_energy() {
        let topo = small_topo(2);
        let mut sim = Simulator::new(topo, |_| Echo {
            sent: false,
            heard: 0,
        });
        sim.run();
        assert_eq!(sim.counters().tx_bytes[0], 3);
        assert!(sim.counters().energy[0].tx_uj > 0.0);
        let rx_total: u64 = sim.counters().rx_msgs.iter().sum();
        assert_eq!(rx_total as usize, sim.topology().degree(0));
    }

    struct TimerApp {
        fired: Vec<TimerKey>,
    }
    impl App for TimerApp {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(1, 100);
            ctx.set_timer(2, 50);
            ctx.set_timer(3, 75);
            ctx.cancel_timer(3);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx, key: TimerKey) {
            self.fired.push(key);
        }
    }

    #[test]
    fn run_until_advances_clock_and_preserves_later_events() {
        let topo = small_topo(12);
        let mut sim = Simulator::new(topo, |_| TimerApp { fired: vec![] });
        // Timers at 50 and 100 exist (key 2 and key 1). Stop at 70.
        sim.run_until(70);
        assert_eq!(sim.now(), 70, "clock must advance to the deadline");
        assert!(sim.apps().iter().all(|a| a.fired == vec![2]));
        // The 100 µs timer is still pending and fires on resume.
        sim.run();
        assert!(sim.apps().iter().all(|a| a.fired == vec![2, 1]));
        // A deadline in the past does not rewind the clock.
        assert_eq!(sim.run_until(5), 100);
    }

    #[test]
    fn timers_fire_in_order_and_cancel_works() {
        let cfg = TopologyConfig {
            n: 2,
            side: 10.0,
            radius: 1.0,
            wrap: false,
        };
        let topo = Topology::from_positions(
            cfg,
            vec![
                crate::geom::Point::new(1.0, 1.0),
                crate::geom::Point::new(9.0, 9.0),
            ],
        );
        let mut sim = Simulator::new(topo, |_| TimerApp { fired: vec![] });
        sim.run();
        assert_eq!(sim.apps()[0].fired, vec![2, 1]);
        assert_eq!(sim.now(), 100);
    }

    struct RearmApp {
        fired: usize,
    }
    impl App for RearmApp {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(7, 100);
            // Re-arm the same key: only the second instance may fire.
            ctx.set_timer(7, 200);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, key: TimerKey) {
            assert_eq!(key, 7);
            assert_eq!(ctx.now(), 200);
            self.fired += 1;
        }
    }

    #[test]
    fn rearming_supersedes() {
        let topo = small_topo(3);
        let mut sim = Simulator::new(topo, |_| RearmApp { fired: 0 });
        sim.run();
        for app in sim.apps() {
            assert_eq!(app.fired, 1);
        }
    }

    #[test]
    fn unicast_only_reaches_target_in_range() {
        struct Uni {
            heard: usize,
        }
        impl App for Uni {
            fn on_start(&mut self, ctx: &mut Ctx) {
                if ctx.id() == 0 {
                    ctx.send(1, vec![9]); // in range
                    ctx.send(2, vec![9]); // out of range: charged, not delivered
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx, _from: NodeId, _p: &[u8]) {
                self.heard += 1;
            }
        }
        // Line topology: 0-1 adjacent; 0-2 not.
        let cfg = TopologyConfig {
            n: 3,
            side: 100.0,
            radius: 1.5,
            wrap: false,
        };
        let topo = Topology::from_positions(
            cfg,
            vec![
                crate::geom::Point::new(1.0, 1.0),
                crate::geom::Point::new(2.0, 1.0),
                crate::geom::Point::new(50.0, 50.0),
            ],
        );
        let mut sim = Simulator::new(topo, |_| Uni { heard: 0 });
        sim.run();
        assert_eq!(sim.apps()[1].heard, 1);
        assert_eq!(sim.apps()[2].heard, 0);
        // Both sends were charged even though one was undeliverable.
        assert_eq!(sim.counters().tx_msgs[0], 2);
    }

    #[test]
    fn injected_broadcast_delivers_with_fake_sender() {
        struct Sink {
            from: Vec<NodeId>,
        }
        impl App for Sink {
            fn on_message(&mut self, _ctx: &mut Ctx, from: NodeId, _p: &[u8]) {
                self.from.push(from);
            }
        }
        let topo = small_topo(4);
        let victim_neighbors = topo.degree(5);
        let mut sim = Simulator::new(topo, |_| Sink { from: vec![] });
        sim.inject_broadcast_at(5, 0xDEAD, 10, vec![1]);
        sim.run();
        let heard: usize = sim.apps().iter().map(|a| a.from.len()).sum();
        assert_eq!(heard, victim_neighbors + 1); // neighborhood + node 5 itself
        assert!(sim
            .apps()
            .iter()
            .flat_map(|a| a.from.iter())
            .all(|&f| f == 0xDEAD));
        // The attacker pays nothing.
        assert_eq!(sim.counters().total_tx_msgs(), 0);
    }

    #[test]
    fn lossy_radio_drops_frames() {
        let topo = small_topo(6);
        let deg0 = topo.degree(0);
        assert!(deg0 >= 5, "need a reasonably connected node for this test");
        let radio = RadioConfig::default().with_loss(0.99);
        let mut sim = Simulator::with_config(topo, radio, 42, |_| Echo {
            sent: false,
            heard: 0,
        });
        sim.run();
        let heard: usize = sim.apps().iter().map(|a| a.heard).sum();
        assert!(heard < deg0, "99% loss should drop something");
    }

    /// Node 0 fires a burst of broadcasts in one dispatch.
    struct Burst {
        n: usize,
        heard: usize,
        rx_at: Vec<SimTime>,
    }
    impl App for Burst {
        fn on_start(&mut self, ctx: &mut Ctx) {
            if ctx.id() == 0 {
                for _ in 0..self.n {
                    ctx.broadcast(vec![0u8; 4]);
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: NodeId, _p: &[u8]) {
            self.heard += 1;
            self.rx_at.push(ctx.now());
        }
    }

    fn burst_app(n: usize) -> Burst {
        Burst {
            n,
            heard: 0,
            rx_at: vec![],
        }
    }

    #[test]
    fn finite_tx_queue_tail_drops_and_flooder_pays() {
        let topo = small_topo(8);
        let radio = RadioConfig::default().with_tx_queue(3).with_contention();
        let mut sim = Simulator::with_config(topo, radio, 0, |_| burst_app(10));
        sim.run();
        // Only the queue's worth of frames made it onto the air; the rest
        // were tail-dropped and charged to the flooder alone.
        assert_eq!(sim.counters().tx_msgs[0], 3);
        assert_eq!(sim.counters().tx_drops[0], 7);
        assert_eq!(sim.counters().total_tx_drops(), 7);
    }

    #[test]
    fn contention_serializes_airtime() {
        let topo = small_topo(8);
        let airtime = RadioConfig::default().airtime_us(4);
        // Idealized radio: both frames of a burst land simultaneously.
        let mut sim = Simulator::new(small_topo(8), |_| burst_app(2));
        sim.run();
        let ideal: Vec<SimTime> = sim.apps()[1].rx_at.clone();
        assert!(ideal.windows(2).all(|w| w[0] == w[1]));
        // Contention: the second frame waits out the first one's airtime.
        let radio = RadioConfig::default().with_contention();
        let mut sim = Simulator::with_config(topo, radio, 0, |_| burst_app(2));
        sim.run();
        for app in sim.apps().iter().filter(|a| !a.rx_at.is_empty()) {
            assert_eq!(app.rx_at.len(), 2);
            assert_eq!(app.rx_at[1] - app.rx_at[0], airtime);
        }
        // Nothing dropped without a cap, and the channel frees up: a
        // fresh dispatch later would start immediately (covered by the
        // pop-expired path in tx_admit).
        assert_eq!(sim.counters().total_tx_drops(), 0);
    }

    /// Relays the first frame it hears once, from a zero-delay timer armed
    /// inside `on_message`, and draws from the simulation RNG on every
    /// reception, so the order of deliveries and draws is part of its
    /// state.
    struct Gossip {
        heard: Heard,
        relayed: bool,
    }

    /// `(time, sender, payload length, RNG draw)` per reception.
    type Heard = Vec<(SimTime, NodeId, usize, u64)>;

    impl App for Gossip {
        fn on_start(&mut self, ctx: &mut Ctx) {
            if ctx.id() == 0 {
                ctx.broadcast(vec![0u8]);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, payload: &[u8]) {
            use rand::Rng;
            let draw = ctx.rng().gen::<u64>();
            self.heard.push((ctx.now(), from, payload.len(), draw));
            if !self.relayed {
                self.relayed = true;
                ctx.set_timer(1, 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _key: TimerKey) {
            ctx.broadcast(vec![1u8; 3]);
        }
    }

    /// Schedules every delivery unperturbed, one event per receiver.
    struct PassThrough;

    impl DeliveryHook for PassThrough {
        fn decide(&mut self, _: NodeId, _: NodeId, _: usize, _: SimTime) -> Vec<ScheduledCopy> {
            vec![ScheduledCopy::clean()]
        }
    }

    /// A lossy flood with one receiver down and a partition in force.
    fn gossip(hooked: bool) -> (Vec<TraceRecord>, String, u64, Vec<Heard>) {
        let topo = small_topo(9);
        let n = topo.n();
        let down = topo.neighbors(0)[0];
        let radio = RadioConfig::default().with_loss(0.2);
        let mut sim = Simulator::with_config(topo, radio, 5, |_| Gossip {
            heard: vec![],
            relayed: false,
        });
        if hooked {
            sim.set_delivery_hook(PassThrough);
        }
        sim.install_trace(MemorySink::new());
        sim.set_node_down(down);
        sim.set_partition((0..n).map(|i| u8::from(i % 3 == 0)).collect());
        sim.run();
        let trace = sim.take_trace().expect("trace installed").drain();
        let counters = format!("{:?}", sim.counters());
        let events = sim.events_processed();
        let heard = sim.apps().iter().map(|a| a.heard.clone()).collect();
        (trace, counters, events, heard)
    }

    #[test]
    fn fanout_matches_per_receiver_delivery() {
        let fanout = gossip(false);
        let drops = |t: &[TraceRecord]| {
            t.iter()
                .filter(|r| matches!(r.event, TraceEvent::RadioDrop { .. }))
                .count()
        };
        // The scenario exercises what it is meant to: losses and cuts, a
        // flood that travels, and a powered-off neighbour of the origin.
        assert!(drops(&fanout.0) > 10, "too few drops: {}", drops(&fanout.0));
        assert!(fanout.3.iter().filter(|h| !h.is_empty()).count() > 10);
        let down = small_topo(9).neighbors(0)[0];
        assert!(fanout.3[down as usize].is_empty());
        assert_eq!(fanout, gossip(true));
    }

    /// Opens every frame it hears through the receive share, with the
    /// payload as the input and its reverse as the output.
    #[derive(Default)]
    struct Opener {
        outputs: Vec<Vec<u8>>,
    }

    impl App for Opener {
        fn on_start(&mut self, ctx: &mut Ctx) {
            if ctx.id() == 0 {
                ctx.broadcast(vec![1, 2, 3]);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: NodeId, payload: &[u8]) {
            let share = ctx
                .rx_share()
                .expect("the single-heap simulator lends a share");
            let out = share.open(&[payload], |buf| {
                buf.extend(payload.iter().rev());
                Ok::<(), ()>(())
            });
            self.outputs.push(out.expect("infallible").to_vec());
        }
    }

    #[test]
    fn fanout_lends_one_share_and_zeroes_it() {
        for hooked in [false, true] {
            let topo = small_topo(1);
            let deg0 = topo.degree(0) as u64;
            let mut sim = Simulator::new(topo, |_| Opener::default());
            if hooked {
                sim.set_delivery_hook(PassThrough);
            }
            while sim.step() {
                assert!(sim.rx_share().is_empty(), "share outlived its event");
            }
            let heard = sim.apps().iter().flat_map(|a| &a.outputs);
            assert!(heard.clone().count() as u64 == deg0 && deg0 > 1);
            assert!(heard.into_iter().all(|out| out == &[3, 2, 1]));
            let stats = sim.rx_share().stats();
            let expect = if hooked { (deg0, 0) } else { (1, deg0 - 1) };
            assert_eq!((stats.computed, stats.reused), expect, "hooked: {hooked}");
        }
    }

    #[test]
    fn a_share_answers_only_its_exact_input() {
        let mut share = RxShare::default();
        // The output is the number of input parts, so a reused output
        // shows which call computed it.
        let mut open = |parts: &[&[u8]]| {
            let out = share.open(parts, |buf| {
                buf.push(parts.len() as u8);
                Ok::<(), ()>(())
            });
            out.map(<[u8]>::to_vec)
        };
        assert_eq!(open(&[b"ab", b"c"]), Ok(vec![2]));
        assert_eq!(open(&[b"ab", b"c"]), Ok(vec![2]));
        // The same bytes split differently are the same input.
        assert_eq!(open(&[b"a", b"b", b"c"]), Ok(vec![2]));
        assert_eq!(open(&[b"ab", b"d"]), Ok(vec![2]));
        assert_eq!(open(&[b"ab", b"dd"]), Ok(vec![2]));
        assert_eq!(open(&[b"ab"]), Ok(vec![1]));
        let stats = share.stats();
        assert_eq!((stats.computed, stats.reused), (4, 2));
        // A failed computation leaves nothing behind.
        let failed = share.open(&[b"x"], |buf| {
            buf.push(9);
            Err(())
        });
        assert_eq!(failed, Err(()));
        assert!(share.is_empty());
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let topo = small_topo(7);
            let mut sim =
                Simulator::with_config(topo, RadioConfig::default().with_loss(0.3), 9, |_| Echo {
                    sent: false,
                    heard: 0,
                });
            sim.run();
            (
                sim.apps().iter().map(|a| a.heard).collect::<Vec<_>>(),
                sim.events_processed(),
            )
        };
        assert_eq!(run(), run());
    }
}

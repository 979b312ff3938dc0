//! Experiment orchestration: deploy, run the key-setup phase, then drive
//! the steady-state network (beacons, readings, refresh, eviction, node
//! addition) through a [`NetworkHandle`].
//!
//! # Entry point: the [`Scenario`] builder
//!
//! One builder composes every cross-cutting concern an experiment needs:
//!
//! ```
//! use wsn_core::prelude::*;
//!
//! let outcome = Scenario::new(SetupParams {
//!     n: 60,
//!     density: 10.0,
//!     seed: 7,
//!     cfg: ProtocolConfig::default(),
//! })
//! .run();
//! assert!(outcome.report.n_heads > 0);
//! ```
//!
//! Optional pieces chain before [`Scenario::run`]:
//!
//! * [`Scenario::radio`] — an explicit radio model (e.g. lossy links).
//! * [`Scenario::trace`] — a trace sink installed before the first
//!   event, so the trace covers election/link/erase in full.
//! * [`Scenario::attack`] — an adversary hook that runs after node
//!   construction but before the first event (frame injections that
//!   interleave with the election).
//! * [`Scenario::chaos`] — a `wsn_chaos::FaultPlan` carried on the
//!   returned handle; drive it with [`NetworkHandle::run_chaos`] once
//!   the steady-state workload is queued.
//! * [`Scenario::backend`] — which variant of the discrete-event
//!   simulator runs key setup: single-heap or spatially sharded, see
//!   [`Backend::Sim`].
//!
//! [`run_setup`] stays as the no-options common case.

use crate::base_station::{BaseStation, TIMER_BEACON, TIMER_REVOKE};
use crate::config::{ProtocolConfig, RefreshMode};
use crate::forward::CounterWindow;
use crate::keys::Provisioner;
use crate::msg::ClusterId;
use crate::node::{
    PendingReading, ProtocolApp, ProtocolNode, Role, TIMER_HEARTBEAT, TIMER_RETX, TIMER_SEND,
};
use crate::sink::{home_sink, multi_sink_topology, SinkNodeState};
use crate::stats::SetupReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use wsn_crypto::drbg::HmacDrbg;
use wsn_crypto::Key128;
use wsn_sim::event::SimTime;
use wsn_sim::geom::Point;
use wsn_sim::net::{Counters, Simulator};
use wsn_sim::radio::RadioConfig;
use wsn_sim::rng::derive_seed;
use wsn_sim::shard::{ShardedSimulator, Shards};
use wsn_sim::topology::{Topology, TopologyConfig};

/// Parameters of one deployment experiment.
#[derive(Clone, Debug)]
pub struct SetupParams {
    /// Total nodes including the base station (node 0).
    pub n: usize,
    /// Target density (mean neighbors per node).
    pub density: f64,
    /// Master seed; everything (topology, timers, keys) derives from it.
    pub seed: u64,
    /// Protocol configuration.
    pub cfg: ProtocolConfig,
}

/// The result of running the key-setup phase.
pub struct SetupOutcome {
    /// Live network, ready for steady-state operations.
    pub handle: NetworkHandle,
    /// Statistics captured at the end of setup.
    pub report: SetupReport,
}

/// A boxed adversary hook, run against the simulator after node
/// construction but before the event loop starts.
type AttackHook<'a> = Box<dyn FnOnce(&mut Simulator<ProtocolApp>) + 'a>;

/// Which engine a [`Scenario`] runs its network on. There is one event
/// core, the discrete-event simulator; seeded datagram faults run on it
/// through `Simulator::set_delivery_hook` (see `wsn_net::fault`), and
/// the real socket transport lives in `wsn-net`'s UDP server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The discrete-event simulator. `shards` selects the engine variant:
    /// [`Shards::Single`] (the default) is the legacy single-heap engine
    /// with the full fault-injection surface; [`Shards::Auto`] /
    /// [`Shards::Fixed`] run the key-setup phase on the spatially sharded
    /// engine (`wsn_sim::shard`) and then collapse into the single-heap
    /// engine for steady state. Sharded setup is byte-identical across
    /// region counts, but it is a *different* deterministic universe from
    /// `Single` (per-node RNG streams vs one global stream).
    Sim {
        /// Region-count selector for the sharded engine.
        shards: Shards,
    },
}

impl Default for Backend {
    fn default() -> Self {
        Backend::Sim {
            shards: Shards::Single,
        }
    }
}

/// A constructed-but-not-yet-run network: the product of [`Scenario`]'s
/// construction phase, which either simulator variant then runs.
struct Deployment {
    /// Deployed topology: sinks on their deterministic grid, sensors
    /// uniform at random.
    topo: Topology,
    /// One app per node, in node-id order.
    apps: Vec<ProtocolApp>,
    /// The provisioning authority (registry complete for all `n` nodes).
    provisioner: Provisioner,
    /// The protocol configuration in force, shared by every sensor.
    cfg: Arc<ProtocolConfig>,
    /// The scenario's master seed; engines derive their sub-streams from
    /// it (`derive_seed(seed, 2)` is the event-engine stream).
    seed: u64,
    /// The radio model.
    radio: RadioConfig,
    /// Trace sink to install before the first event, if tracing.
    sink: Option<Box<dyn wsn_trace::TraceSink>>,
}

/// The unified experiment entry point: composes radio model, tracing,
/// an attack hook, and a fault plan, then runs the key-setup phase.
pub struct Scenario<'a> {
    params: SetupParams,
    radio: RadioConfig,
    sink: Option<Box<dyn wsn_trace::TraceSink>>,
    attack: Option<AttackHook<'a>>,
    chaos: Option<wsn_chaos::FaultPlan>,
    backend: Backend,
}

impl<'a> Scenario<'a> {
    /// Starts a scenario from deployment parameters, with the default
    /// radio, the default backend (single-heap simulator), no tracing,
    /// no adversary, and no fault plan.
    pub fn new(params: SetupParams) -> Self {
        Scenario {
            params,
            radio: RadioConfig::default(),
            sink: None,
            attack: None,
            chaos: None,
            backend: Backend::default(),
        }
    }

    /// Uses an explicit radio model (e.g. lossy links).
    pub fn radio(mut self, radio: RadioConfig) -> Self {
        self.radio = radio;
        self
    }

    /// Selects the engine this scenario runs on. See [`Backend`].
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Installs a trace sink before the first event, so the trace covers
    /// the election, link, and erase phases in full. The sink stays
    /// installed on the returned handle; retrieve it with
    /// `handle.sim_mut().take_trace()`.
    pub fn trace(mut self, sink: impl wsn_trace::TraceSink + 'static) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }

    /// Registers an adversary: `attack` runs after node construction but
    /// before the simulation starts, so it can schedule frame injections
    /// that interleave with the election and link phases (HELLO floods,
    /// setup-time replays).
    pub fn attack(mut self, attack: impl FnOnce(&mut Simulator<ProtocolApp>) + 'a) -> Self {
        self.attack = Some(Box::new(attack));
        self
    }

    /// Attaches a fault plan to the scenario. The plan does not run
    /// during setup — faults are offsets from steady state — it is
    /// carried on the returned [`NetworkHandle`] for
    /// [`NetworkHandle::run_chaos`] to interpret once the workload is
    /// queued.
    pub fn chaos(mut self, plan: wsn_chaos::FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Shared construction: topology, provisioning, one app per node.
    fn build_deployment(
        params: SetupParams,
        radio: RadioConfig,
        sink: Option<Box<dyn wsn_trace::TraceSink>>,
    ) -> Deployment {
        assert!(params.n >= 2, "need a base station and at least one sensor");
        // Multi-sink: node ids 0..K are sinks on a deterministic grid;
        // with sinks disabled this is exactly the legacy random topology.
        let n_sinks = params.cfg.sinks.k();
        assert!(
            (n_sinks as usize) < params.n,
            "need more nodes than sinks (n = {}, sinks = {n_sinks})",
            params.n
        );
        let topo = multi_sink_topology(
            params.n,
            params.density,
            derive_seed(params.seed, 0),
            &params.cfg.sinks,
        );
        let mut provisioner = Provisioner::new(derive_seed(params.seed, 1));
        // Provision everyone up front so the BS registry is complete.
        let mut materials: Vec<_> = (0..params.n as u32)
            .map(|id| provisioner.provision(id))
            .collect();

        // A copy, freed when construction ends. Borrowing instead measured
        // ~12% more peak RSS on a 40k-node setup (118 → 133 MiB): glibc
        // raises its dynamic mmap threshold when this block is freed,
        // which changes where the later allocations land.
        let registry = provisioner.registry().clone();
        let cluster_keys: HashMap<ClusterId, Key128> = (0..params.n as u32)
            .map(|id| (id, provisioner.cluster_key_of(id)))
            .collect();
        let cfg = Arc::new(params.cfg);

        let apps: Vec<ProtocolApp> = materials
            .drain(..)
            .map(|m| {
                if m.id < n_sinks {
                    // Partitioned BS state: each sink starts with the `Ki`
                    // entries of the nodes whose home sink it is (node id
                    // mod K; all of them for K = 1). Cluster keys and the
                    // revocation chain are replicated — any sink can unwrap
                    // any cluster's envelope; only sink 0 issues
                    // revocations.
                    let partition: HashMap<u32, Key128> = registry
                        .iter()
                        .filter(|(&id, _)| home_sink(id, n_sinks) == m.id)
                        .map(|(&id, &ki)| (id, ki))
                        .collect();
                    ProtocolApp::Base(Box::new(BaseStation::new(
                        ProtocolConfig::clone(&cfg),
                        m.id,
                        provisioner.km(),
                        partition,
                        cluster_keys.clone(),
                        provisioner.revocation_chain(),
                    )))
                } else {
                    ProtocolApp::Sensor(ProtocolNode::new(Arc::clone(&cfg), m))
                }
            })
            .collect();

        Deployment {
            topo,
            apps,
            provisioner,
            cfg,
            seed: params.seed,
            radio,
            sink,
        }
    }

    /// Runs initialization + cluster key setup + link establishment +
    /// `Km` erasure on a fresh random deployment.
    pub fn run(self) -> SetupOutcome {
        let Backend::Sim { shards } = self.backend;
        let attack = self.attack;
        let chaos = self.chaos;
        let dep = Self::build_deployment(self.params, self.radio, self.sink);
        let n = dep.topo.n();
        let seed = dep.seed;
        let cfg = dep.cfg;
        let provisioner = dep.provisioner;

        // `make_app` is called in ascending id order by both engines, and
        // `apps` is in id order, so the engines take the apps straight off
        // the iterator; its buffer is freed as soon as construction ends.
        let mut apps = dep.apps.into_iter();
        let next_app = move |_: u32| apps.next().expect("one app per node");
        let sim = match shards.region_count() {
            None => {
                // Legacy single-heap engine: the default, and the only
                // engine that supports pre-run attack hooks.
                let mut sim =
                    Simulator::with_config(dep.topo, dep.radio, derive_seed(seed, 2), next_app);
                if let Some(sink) = dep.sink {
                    sim.install_trace_boxed(sink);
                }
                if let Some(attack) = attack {
                    attack(&mut sim);
                }
                sim.run();
                sim
            }
            Some(k) => {
                // Sharded setup, then collapse into the single-heap
                // engine for steady state. Setup output is identical for
                // every k, and the collapsed engine re-seeds from stream
                // 5, so everything downstream is shard-count-independent
                // too.
                assert!(
                    attack.is_none(),
                    "attack hooks require the single-heap engine (Shards::Single)"
                );
                let mut sharded = ShardedSimulator::new(
                    dep.topo,
                    dep.radio.clone(),
                    derive_seed(seed, 2),
                    k,
                    next_app,
                );
                let tracing = dep.sink.is_some();
                if tracing {
                    sharded.enable_trace();
                }
                sharded.run();
                let end = sharded.now();
                let events = sharded.events_processed();
                let records = tracing.then(|| sharded.take_merged_trace());
                let (topo, apps, counters) = sharded.into_parts();
                let mut sim = Simulator::from_parts_at(
                    topo,
                    dep.radio,
                    derive_seed(seed, 5),
                    end,
                    apps,
                    counters,
                    events,
                );
                if let (Some(mut sink), Some(records)) = (dep.sink, records) {
                    let next_seq = records.len() as u64;
                    for rec in records {
                        sink.record(rec);
                    }
                    sim.restore_trace_state((Some(sink), next_seq));
                }
                sim
            }
        };

        let setup_counters = sim.counters().clone();
        let report = SetupReport::from_simulation(&sim, &setup_counters);
        let handle = NetworkHandle {
            sim,
            cfg,
            provisioner,
            setup_counters,
            key_rng: HmacDrbg::from_u64(derive_seed(seed, 3)),
            aux_rng: StdRng::seed_from_u64(derive_seed(seed, 4)),
            next_id: n as u32,
            chaos_plan: chaos,
        };
        SetupOutcome { handle, report }
    }
}

/// Runs initialization + cluster key setup + link establishment + `Km`
/// erasure on a fresh random deployment, with default radio parameters.
/// Shorthand for `Scenario::new(params.clone()).run()`.
pub fn run_setup(params: &SetupParams) -> SetupOutcome {
    Scenario::new(params.clone()).run()
}

/// A live, set-up network: the driver for everything after the key-setup
/// phase. Owns the simulator plus the provisioning authority (needed for
/// node addition) and a key-generation DRBG (for re-cluster refresh).
pub struct NetworkHandle {
    sim: Simulator<ProtocolApp>,
    cfg: Arc<ProtocolConfig>,
    provisioner: Provisioner,
    setup_counters: Counters,
    key_rng: HmacDrbg,
    aux_rng: StdRng,
    next_id: u32,
    chaos_plan: Option<wsn_chaos::FaultPlan>,
}

impl NetworkHandle {
    /// The underlying simulator (topology, counters, apps).
    pub fn sim(&self) -> &Simulator<ProtocolApp> {
        &self.sim
    }

    /// Mutable simulator access (frame injection for attack experiments).
    pub fn sim_mut(&mut self) -> &mut Simulator<ProtocolApp> {
        &mut self.sim
    }

    /// The protocol configuration in force.
    pub fn cfg(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// Traffic counters as they stood at the end of the setup phase.
    pub fn setup_counters(&self) -> &Counters {
        &self.setup_counters
    }

    /// The sensor app of node `id`. Panics if `id` is the base station.
    pub fn sensor(&self, id: u32) -> &ProtocolNode {
        self.sim.apps()[id as usize]
            .as_sensor()
            .expect("not a sensor")
    }

    /// Mutable sensor access.
    pub fn sensor_mut(&mut self, id: u32) -> &mut ProtocolNode {
        self.sim.app_mut(id).as_sensor_mut().expect("not a sensor")
    }

    /// All sink node ids, `0..K` (`[0]`, the base station, for a
    /// single-sink deployment).
    pub fn sink_ids(&self) -> Vec<u32> {
        (0..self.cfg.sinks.k()).collect()
    }

    /// The base-station app of sink `k`. Panics if `k` is not a sink.
    /// Sink 0 is the base station of a single-sink deployment.
    pub fn sink(&self, k: u32) -> &BaseStation {
        self.sim.apps()[k as usize]
            .as_base()
            .expect("not a sink id")
    }

    /// Mutable access to sink `k`'s base-station app.
    pub fn sink_mut(&mut self, k: u32) -> &mut BaseStation {
        self.sim.app_mut(k).as_base_mut().expect("not a sink id")
    }

    /// Readings accepted across every sink.
    pub fn total_received(&self) -> usize {
        self.sink_ids()
            .into_iter()
            .map(|k| self.sink(k).received.len())
            .sum()
    }

    /// All sensor IDs (sinks excluded).
    pub fn sensor_ids(&self) -> Vec<u32> {
        (self.cfg.sinks.k()..self.sim.topology().n() as u32).collect()
    }

    /// Recomputes the setup report from current state.
    pub fn report(&self) -> SetupReport {
        SetupReport::from_simulation(&self.sim, &self.setup_counters)
    }

    /// Turns on cluster-head failure detection until the absolute virtual
    /// time `until`: every powered-up sensor gets the heartbeat horizon,
    /// and every current head starts beating. Called *after* setup on
    /// purpose — the heartbeat schedule is bounded by the horizon so the
    /// run-to-quiescence phases (`send_reading`, `establish_gradient`, …)
    /// still terminate, but that same bound means arming it before a long
    /// quiescence run would drain every future beat up front. Requires
    /// `cfg.recovery.enabled`; a no-op otherwise.
    pub fn start_heartbeats(&mut self, until: SimTime) {
        if !self.cfg.recovery.enabled {
            return;
        }
        let period = self.cfg.recovery.heartbeat_period;
        for id in self.sensor_ids() {
            if !self.sim.node_is_up(id) {
                continue;
            }
            let node = self.sensor_mut(id);
            node.set_heartbeat_horizon(until);
            let is_head = node.role() == Role::Head;
            if is_head {
                self.sim.schedule_timer(id, TIMER_HEARTBEAT, period);
            }
        }
    }

    /// Floods a base-station beacon and runs until the gradient converges.
    /// Existing gradients are reset first so the flood reaches nodes added
    /// since the last beacon (beacons only propagate on improvement).
    pub fn establish_gradient(&mut self) {
        for id in self.sensor_ids() {
            self.sensor_mut(id).reset_gradient();
        }
        let multi = self.cfg.sinks.enabled;
        for k in self.sink_ids() {
            // Multi-sink skips dead sinks (failover re-beacons survivors);
            // the single-sink path schedules unconditionally, as it always
            // has.
            if !multi || self.sim.node_is_up(k) {
                self.sim.schedule_timer(k, TIMER_BEACON, 1);
            }
        }
        self.sim.run();
    }

    /// The live sink whose registry holds `node`'s partition entry, if
    /// any. The sinks' registries are the only record of ownership; a
    /// powered-off sink is never asked.
    fn holder(&self, node: u32) -> Option<u32> {
        (0..self.cfg.sinks.k()).find(|&k| self.sim.node_is_up(k) && self.sink(k).holds(node))
    }

    /// The sink a (re-)registering node's entry goes to: the live sink
    /// holding it, else its home sink while that is up, else the smallest
    /// live sink.
    fn registrar(&self, node: u32) -> u32 {
        let home = home_sink(node, self.cfg.sinks.k());
        self.holder(node)
            .or_else(|| self.sim.node_is_up(home).then_some(home))
            .or_else(|| (0..self.cfg.sinks.k()).find(|&s| self.sim.node_is_up(s)))
            .unwrap_or(home)
    }

    /// Multi-sink: moves every node's partition entry (`Ki` + replay
    /// window) from the live sink holding it to its *nearest* sink, as
    /// determined by the per-sink gradients — call after
    /// [`Self::establish_gradient`]. Emits a `SinkElected` event per
    /// assigned node, a `SinkHandoff` per move, and one aggregate
    /// `SinkSync` per (from, to) sink pair. Returns the number of entries
    /// moved. No-op (0) for single-sink runs.
    pub fn rehome_to_nearest(&mut self) -> usize {
        if !self.cfg.sinks.enabled {
            return 0;
        }
        let mut moves = Vec::new();
        for id in self.sensor_ids() {
            if let Some((sink, hops)) = self.sensor(id).nearest_sink() {
                self.sim
                    .trace_record(id, wsn_trace::TraceEvent::SinkElected { sink, hops });
                if let Some(from) = self.holder(id).filter(|&from| from != sink) {
                    moves.push((id, from, sink));
                }
            }
        }
        for &(node, from, to) in &moves {
            let state = self
                .sink_mut(from)
                .take_node_state(node)
                .expect("the holder holds the entry");
            self.sink_mut(to).install_node_state(state);
        }
        self.trace_handoffs(&moves);
        moves.len()
    }

    /// Multi-sink failover: powers sink `dead` off and never reads or
    /// writes its state again. Each sensor no surviving sink holds gets
    /// its `Ki` re-derived from the provisioning seed and a fresh replay
    /// window — the socket takeover's semantics, with the costs in
    /// DESIGN.md §5a item 13 — installed at its nearest surviving sink
    /// (fallback: the smallest surviving id). Returns the entries installed.
    pub fn fail_sink(&mut self, dead: u32) -> usize {
        assert!(self.cfg.sinks.enabled, "fail_sink needs multi-sink mode");
        self.sim.set_node_down(dead);
        self.sim.trace_record(dead, wsn_trace::TraceEvent::NodeDown);
        let survivors: Vec<u32> = self
            .sink_ids()
            .into_iter()
            .filter(|&k| self.sim.node_is_up(k))
            .collect();
        assert!(!survivors.is_empty(), "cannot fail the last sink");
        let mut moves = Vec::new();
        for node in self.sensor_ids() {
            if self.holder(node).is_some() {
                continue;
            }
            let to = survivors
                .iter()
                .map(|&k| (self.sensor(node).hops_to(k), k))
                .filter(|&(hops, _)| hops != crate::routing::NO_GRADIENT)
                .min()
                .map_or(survivors[0], |(_, k)| k);
            let state = SinkNodeState {
                id: node,
                ki: self.provisioner.node_key(node),
                window: CounterWindow::new(),
            };
            self.sink_mut(to).install_failover_state(state, dead);
            moves.push((node, dead, to));
        }
        self.trace_handoffs(&moves);
        moves.len()
    }

    /// Traces executed `(node, from, to)` handoffs: one `SinkHandoff` per
    /// moved node, then one aggregate `SinkSync` per (from, to) sink
    /// pair, attributed to the receiving sink.
    fn trace_handoffs(&mut self, moves: &[(u32, u32, u32)]) {
        let mut batches = std::collections::BTreeMap::<(u32, u32), u32>::new();
        for &(node, from_sink, to_sink) in moves {
            *batches.entry((from_sink, to_sink)).or_insert(0) += 1;
            self.sim.trace_record(
                node,
                wsn_trace::TraceEvent::SinkHandoff { from_sink, to_sink },
            );
        }
        for ((from, to), entries) in batches {
            self.sim.trace_record(
                to,
                wsn_trace::TraceEvent::SinkSync {
                    from_sink: from,
                    entries,
                },
            );
        }
    }

    /// Queues a reading at `src` and runs the network until quiescent.
    /// Returns how many readings have been accepted in total afterwards,
    /// summed across every sink (just the BS in single-sink mode).
    pub fn send_reading(&mut self, src: u32, data: Vec<u8>, sealed: bool) -> usize {
        self.sensor_mut(src)
            .queue_reading(PendingReading { data, sealed });
        self.sim.schedule_timer(src, TIMER_SEND, 1);
        self.sim.run();
        self.total_received()
    }

    /// Queues a reading at `src` to be transmitted `delay` µs from now
    /// *without* running the simulation — for experiments that interleave
    /// traffic with faults and let an outer driver (the chaos engine) own
    /// the clock. If `src` is powered off when the timer would fire, the
    /// reading is lost, as it would be in the field.
    pub fn queue_reading_at(&mut self, src: u32, data: Vec<u8>, sealed: bool, delay: SimTime) {
        self.sensor_mut(src)
            .queue_reading(PendingReading { data, sealed });
        self.sim.schedule_timer(src, TIMER_SEND, delay);
    }

    /// Performs one key-refresh epoch according to the configured
    /// [`RefreshMode`]. Powered-off nodes are skipped — a crashed node
    /// misses the epoch and wakes up with stale keys, which is exactly
    /// the hazard the reboot paths must survive.
    pub fn refresh(&mut self) {
        match self.cfg.refresh_mode {
            RefreshMode::Hash => {
                for id in 0..self.sim.topology().n() as u32 {
                    if !self.sim.node_is_up(id) {
                        continue;
                    }
                    let rolled = match self.sim.app_mut(id) {
                        ProtocolApp::Sensor(n) => {
                            n.apply_hash_refresh();
                            n.cid().map(|cid| (cid, n.epoch()))
                        }
                        ProtocolApp::Base(b) => {
                            b.apply_hash_refresh();
                            None
                        }
                    };
                    if let Some((cid, epoch)) = rolled {
                        self.sim
                            .trace_record(id, wsn_trace::TraceEvent::KeyRefreshed { cid, epoch });
                    }
                }
            }
            RefreshMode::Recluster => {
                // Each head generates a fresh key and broadcasts a
                // RefreshHello under the current cluster key.
                let heads: Vec<u32> = self
                    .sensor_ids()
                    .into_iter()
                    .filter(|&id| {
                        self.sim.node_is_up(id)
                            && self.sim.apps()[id as usize]
                                .as_sensor()
                                .is_some_and(|n| n.role() == crate::node::Role::Head)
                    })
                    .collect();
                let now = self.sim.now();
                for head in heads {
                    let new_kc = self.key_rng.next_key();
                    let frame = self
                        .sensor_mut(head)
                        .initiate_recluster_refresh(new_kc, now);
                    if let Some(frame) = frame {
                        self.sim.inject_broadcast_at(head, head, 1, frame);
                        // The BS cannot derive head-generated keys; the
                        // harness syncs it (documented simulation shortcut).
                        // Cluster keys are replicated at every sink.
                        for k in self.sink_ids() {
                            self.sink_mut(k).set_cluster_key(head, new_kc);
                        }
                        if self.cfg.recovery.enabled {
                            // Acknowledged refresh: the head enrolled the
                            // frame (initiate_recluster_refresh runs with
                            // no Ctx), so arm its retransmit scan here.
                            self.sim.schedule_timer(
                                head,
                                TIMER_RETX,
                                self.cfg.recovery.retx_base + 1,
                            );
                        }
                    }
                }
                self.sim.run();
            }
        }
    }

    /// Evicts captured nodes: revokes their clusters and all neighboring
    /// clusters (paper §IV-D: clones could appear in "the group it
    /// originated from or its neighboring ones"). The detection mechanism
    /// is assumed, per the paper; callers supply the culprit list.
    pub fn evict_nodes(&mut self, nodes: &[u32]) {
        let mut cids: Vec<ClusterId> = Vec::new();
        for &id in nodes {
            let sensor = self.sensor(id);
            if let Some(c) = sensor.cid() {
                cids.push(c);
            }
            cids.extend(sensor.neighbor_cids());
        }
        cids.sort_unstable();
        cids.dedup();
        self.sink_mut(0).queue_revocation(cids, nodes.to_vec());
        self.sim.schedule_timer(0, TIMER_REVOKE, 1);
        self.sim.run();
    }

    /// Deploys `k` new sensors at random positions (paper §IV-E) and runs
    /// the join protocol. Returns the IDs assigned to the new nodes.
    pub fn add_nodes(&mut self, k: usize) -> Vec<u32> {
        let old_topo = self.sim.topology();
        let side = old_topo.config().side;
        let mut positions: Vec<Point> = (0..old_topo.n() as u32)
            .map(|i| old_topo.position(i))
            .collect();
        let new_ids: Vec<u32> = (0..k).map(|i| self.next_id + i as u32).collect();
        self.next_id += k as u32;
        for _ in 0..k {
            positions.push(Point::new(
                self.aux_rng.gen::<f64>() * side,
                self.aux_rng.gen::<f64>() * side,
            ));
        }
        let new_cfg = TopologyConfig {
            n: positions.len(),
            ..old_topo.config().clone()
        };
        let topo = Topology::from_positions(new_cfg, positions);

        // Provision joiners and register them with the BS.
        let joiner_apps: Vec<ProtocolApp> = new_ids
            .iter()
            .map(|&id| {
                let m = self.provisioner.provision_new_node(id);
                ProtocolApp::Sensor(ProtocolNode::new_joiner(Arc::clone(&self.cfg), m))
            })
            .collect();
        let registrations: Vec<(u32, u32, Key128, Key128)> = new_ids
            .iter()
            .map(|&id| {
                (
                    id,
                    self.registrar(id),
                    self.provisioner.node_key(id),
                    self.provisioner.cluster_key_of(id),
                )
            })
            .collect();
        // A failed sink stays down across the rebuild: its frozen
        // registry must not come back as a second holder.
        let down_sinks: Vec<u32> = self
            .sink_ids()
            .into_iter()
            .filter(|&s| !self.sim.node_is_up(s))
            .collect();

        // Rebuild the simulator with the old apps carried over.
        let seed = self.aux_rng.gen::<u64>();
        let placeholder = Simulator::new(
            Topology::from_positions(
                TopologyConfig {
                    n: 2,
                    side: 1.0,
                    radius: 1.0,
                    wrap: false,
                },
                vec![Point::new(0.1, 0.1), Point::new(0.9, 0.9)],
            ),
            |_| {
                ProtocolApp::Sensor(ProtocolNode::new(Arc::clone(&self.cfg), {
                    let mut p = Provisioner::new(0);
                    p.provision(u32::MAX)
                }))
            },
        );
        let mut old_sim = std::mem::replace(&mut self.sim, placeholder);
        // Keep virtual time monotonic across the rebuild so freshness
        // windows and refresh boundaries stay meaningful. The trace sink
        // (and its sequence counter) survive the rebuild the same way.
        let resume_at = old_sim.now();
        let trace_state = old_sim.take_trace_state();
        let (_, mut old_apps, _) = old_sim.into_parts();
        for (id, registrar, ki, kc) in registrations {
            // Cluster keys are replicated at every sink. Sinks are node
            // ids 0..K, ahead of every sensor.
            let sinks = old_apps.iter_mut().map_while(ProtocolApp::as_base_mut);
            for (k, bs) in (0u32..).zip(sinks) {
                if k == registrar {
                    bs.register_node(id, ki, kc);
                } else {
                    bs.set_cluster_key(id, kc);
                }
            }
        }
        let mut apps = old_apps.into_iter().chain(joiner_apps);
        self.sim = Simulator::with_config_at(topo, RadioConfig::default(), seed, resume_at, |_| {
            apps.next().expect("one app per node")
        });
        self.sim.restore_trace_state(trace_state);
        for s in down_sinks {
            self.sim.set_node_down(s);
        }
        self.sim.run();
        new_ids
    }

    /// Total frames transmitted since the simulation began.
    pub fn total_tx(&self) -> u64 {
        self.sim.counters().total_tx_msgs()
    }

    /// The fault plan attached via [`Scenario::chaos`], if any.
    pub fn chaos_plan(&self) -> Option<&wsn_chaos::FaultPlan> {
        self.chaos_plan.as_ref()
    }

    /// Runs the network for `horizon` µs of virtual time under the fault
    /// plan attached via [`Scenario::chaos`]. Without a plan this is a
    /// plain `run_until` — identical event stream, empty report. The
    /// plan stays attached, so successive windows continue it from the
    /// current virtual time (fault offsets are relative to each call).
    pub fn run_chaos(&mut self, horizon: SimTime) -> crate::chaos::ChaosReport {
        match self.chaos_plan.take() {
            Some(plan) => {
                let report = crate::chaos::run_plan(self, &plan, horizon);
                self.chaos_plan = Some(plan);
                report
            }
            None => {
                let end = self.sim.now() + horizon;
                self.sim.run_until(end);
                crate::chaos::ChaosReport::default()
            }
        }
    }

    // ---- node lifecycle under faults ---------------------------------
    //
    // Churn primitives for fault engines (wsn-chaos) and resilience
    // experiments. Note: [`Self::add_nodes`] rebuilds the simulator and —
    // like the radio config it already resets — clears simulator-level
    // fault state (sensor down flags, drift, partition, link process);
    // only a sink that is down stays down.

    /// Powers node `id` off mid-run: its timers are lost and it neither
    /// hears nor sends anything until rebooted. App state stays in place
    /// so a later [`Self::reboot_node`] models a state-retaining brown-out.
    pub fn crash_node(&mut self, id: u32) {
        self.sim.set_node_down(id);
    }

    /// Whether node `id` is currently powered on.
    pub fn node_is_up(&self, id: u32) -> bool {
        self.sim.node_is_up(id)
    }

    /// Powers a crashed node back on with its protocol state retained
    /// (RAM survived the brown-out). Its `on_start` hook runs again 1 µs
    /// later — for a clustered node that just re-arms the auto-refresh
    /// timer; key material is still valid only if no refresh or eviction
    /// epoch passed while it was dark.
    pub fn reboot_node(&mut self, id: u32) {
        self.sim.set_node_up(id);
        self.sim.schedule_start(id, 1);
    }

    /// Powers a crashed node back on with its state wiped (cold boot from
    /// empty flash). The node is re-provisioned exactly like a factory-new
    /// unit and re-enters the network through the paper's §IV-E node
    /// addition path: it broadcasts a `JoinRequest`, derives the current
    /// cluster key at the *current* epoch from a neighbor's response, and
    /// erases its `KMC`. The caller runs the simulation afterwards to let
    /// the join complete.
    pub fn reboot_node_wiped(&mut self, id: u32) {
        assert!(id != 0, "the base station does not cold-boot in this model");
        let m = self.provisioner.provision_new_node(id);
        let ki = self.provisioner.node_key(id);
        let kc = self.provisioner.cluster_key_of(id);
        self.sim.replace_app(
            id,
            ProtocolApp::Sensor(ProtocolNode::new_joiner(Arc::clone(&self.cfg), m)),
        );
        // The entry may have been handed off since deployment.
        let registrar = self.registrar(id);
        self.sink_mut(registrar).register_node(id, ki, kc);
        for k in self.sink_ids() {
            if k != registrar {
                self.sink_mut(k).set_cluster_key(id, kc);
            }
        }
        self.sim.set_node_up(id);
        self.sim.schedule_start(id, 1);
    }
}

//! Multi-sink integration tests: per-sink gradients, nearest-sink
//! routing, partitioned BS state with handoffs, and sink failover.

use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use wsn_core::forward::{sealer, wrap_frame};
use wsn_core::join::join_tag;
use wsn_core::msg::{Inner, Message, MAX_FRAME_BYTES};
use wsn_core::node::{PendingReading, TIMER_JOIN, TIMER_RETX, TIMER_SEND};
use wsn_core::prelude::*;
use wsn_core::refresh::cluster_key_at_epoch;
use wsn_core::routing::NO_GRADIENT;
use wsn_core::setup::SetupParams;
use wsn_core::sink::home_sink;
use wsn_core::transport::Transport;
use wsn_sim::event::SimTime;
use wsn_sim::node::{NodeId, TimerKey};

fn multi_sink_outcome(n: usize, k: u32, seed: u64) -> NetworkHandle {
    let outcome = Scenario::new(SetupParams {
        n,
        density: 12.0,
        seed,
        cfg: ProtocolConfig::default().with_sinks(k),
    })
    .run();
    outcome.handle
}

/// The full pipeline: beacons establish per-sink gradients, rehoming
/// moves partition entries to the elected sinks, and readings from
/// every clustered sensor land at some sink.
#[test]
fn readings_reach_sinks_end_to_end() {
    let mut h = multi_sink_outcome(60, 2, 2005);
    h.establish_gradient();
    let moved = h.rehome_to_nearest();
    // With home = id % 2 and geometry-based election, *some* nodes must
    // re-home (the two halves of the field are not the even/odd ids).
    assert!(moved > 0, "no partition entries moved");

    let mut delivered = 0;
    for id in h.sensor_ids() {
        delivered = h.send_reading(id, vec![0xAB, id as u8], true);
    }
    let _ = delivered;
    let total = h.total_received();
    let connected: usize = h
        .sensor_ids()
        .iter()
        .filter(|&&id| h.sensor(id).nearest_sink().is_some())
        .count();
    assert!(
        total >= connected * 9 / 10,
        "only {total} of {connected} connected sensors delivered"
    );
    // Both sinks participate: the load is split, not funneled.
    assert!(!h.sink(0).received.is_empty(), "sink 0 idle");
    assert!(!h.sink(1).received.is_empty(), "sink 1 idle");
    // Every reading was accepted by the sink its source elected.
    let mut elected: BTreeMap<u32, u32> = BTreeMap::new();
    for id in h.sensor_ids() {
        if let Some((sink, _)) = h.sensor(id).nearest_sink() {
            elected.insert(id, sink);
        }
    }
    for k in h.sink_ids() {
        for r in &h.sink(k).received {
            assert_eq!(
                elected.get(&r.src),
                Some(&k),
                "reading from {} at sink {k}",
                r.src
            );
        }
    }
}

/// Sink trace events are emitted and the Timeline reconstructs them.
#[test]
fn sink_events_appear_in_trace() {
    let outcome = Scenario::new(SetupParams {
        n: 50,
        density: 12.0,
        seed: 7,
        cfg: ProtocolConfig::default().with_sinks(2),
    })
    .trace(MemorySink::new())
    .run();
    let mut h = outcome.handle;
    h.establish_gradient();
    let moved = h.rehome_to_nearest();
    let records = h.sim_mut().take_trace().expect("trace installed").drain();
    let tl = Timeline::reconstruct(&records);
    assert!(!tl.sink_assignment.is_empty(), "no SinkElected events");
    assert_eq!(tl.handoff_log.len(), moved);
    assert_eq!(tl.sink_sync_entries as usize, moved);
    // Every assignment names a real sink.
    for sink in tl.sink_assignment.values() {
        assert!(*sink < 2);
    }
}

/// Asserts the failover invariant: every sensor's partition entry is
/// held by exactly one surviving sink. The dead sink's memory is not
/// consulted — a powered-off sink holds nothing that counts.
fn assert_one_surviving_holder(h: &NetworkHandle, dead: u32) {
    for id in h.sensor_ids() {
        let mut survivors = holders(h, id);
        survivors.retain(|&s| s != dead);
        assert_eq!(
            survivors.len(),
            1,
            "node {id} held by survivors {survivors:?}"
        );
    }
}

/// The sinks whose registries hold `id`'s entry, ascending.
fn holders(h: &NetworkHandle, id: u32) -> Vec<u32> {
    h.sink_ids()
        .into_iter()
        .filter(|&s| h.sink(s).registered_nodes().contains(&id))
        .collect()
}

/// The sensors whose partition entries sink `s` holds.
fn held_sensors(h: &NetworkHandle, s: u32) -> Vec<u32> {
    let first_sensor = h.sink_ids().len() as u32;
    h.sink(s)
        .registered_nodes()
        .into_iter()
        .filter(|&id| id >= first_sensor)
        .collect()
}

/// Kills sink `dead` in a 60-node, `k`-sink deployment and checks that
/// every node it held is taken over by exactly one survivor; after the
/// survivors re-beacon no node routes to the dead sink, and delivery
/// continues at survivors only.
fn kill_sink_and_check(k: u32, dead: u32, seed: u64) {
    let mut h = multi_sink_outcome(60, k, seed);
    h.establish_gradient();
    h.rehome_to_nearest();

    let held_by_dead = held_sensors(&h, dead);
    assert!(!held_by_dead.is_empty(), "dead sink held nobody (K = {k})");

    let moved = h.fail_sink(dead);
    assert_eq!(moved, held_by_dead.len());
    assert_one_surviving_holder(&h, dead);

    // Survivors re-beacon (the dead sink stays silent), nodes
    // re-learn gradients with no path left to the dead sink, and
    // traffic still flows — none of it to the dead sink.
    h.establish_gradient();
    for id in h.sensor_ids() {
        assert_eq!(
            h.sensor(id).hops_to(dead),
            NO_GRADIENT,
            "node {id} still routes to dead sink {dead} (K = {k})"
        );
    }
    h.rehome_to_nearest();
    assert_one_surviving_holder(&h, dead);
    let before = h.total_received();
    for id in h.sensor_ids() {
        h.send_reading(id, vec![0xCD, id as u8], true);
    }
    assert!(
        h.total_received() > before,
        "no delivery after failover (K = {k})"
    );
    assert!(
        h.sink(dead).received.is_empty(),
        "dead sink accepted a post-kill reading (K = {k})"
    );
}

/// The failover re-derives the dead sink's share instead of reading its
/// memory: with the victim's registry drained before the kill, every
/// sensor still ends up held by exactly one survivor, and a node the
/// dead sink held still gets its readings delivered.
#[test]
fn failover_does_not_read_the_dead_sink() {
    let (k, dead) = (3, 1);
    let mut h = multi_sink_outcome(60, k, 11);
    h.establish_gradient();
    h.rehome_to_nearest();
    let held_by_dead = held_sensors(&h, dead);
    assert!(!held_by_dead.is_empty(), "dead sink held nobody");
    for &id in &held_by_dead {
        let _ = h.sink_mut(dead).take_node_state(id);
    }

    assert_eq!(h.fail_sink(dead), held_by_dead.len());
    assert_one_surviving_holder(&h, dead);

    h.establish_gradient();
    let mut delivered = 0;
    for &src in &held_by_dead {
        let Some((sink, _)) = h.sensor(src).nearest_sink() else {
            continue;
        };
        let before = h.sink(sink).received.len();
        h.send_reading(src, vec![0xEF, src as u8], true);
        let got = &h.sink(sink).received[before..];
        assert!(
            got.iter().any(|r| r.src == src),
            "post-kill reading from formerly dead-held node {src} not delivered"
        );
        delivered += 1;
    }
    assert!(delivered > 0, "no formerly dead-held node is connected");
}

/// Nodes added after a failover register at a live sink, and the
/// simulator rebuild keeps the failed sink down, so its frozen registry
/// never comes back as a second holder.
#[test]
fn nodes_added_after_a_failover_keep_one_surviving_holder() {
    let (k, dead) = (3, 1);
    let mut h = multi_sink_outcome(60, k, 11);
    h.establish_gradient();
    h.rehome_to_nearest();
    h.fail_sink(dead);
    let joiners = h.add_nodes(6);
    assert!(
        joiners.iter().any(|&id| home_sink(id, k) == dead),
        "no joiner is homed at the dead sink"
    );
    assert!(!h.node_is_up(dead), "the rebuild revived the failed sink");
    assert_one_surviving_holder(&h, dead);
}

/// A wiped reboot re-registers the node at the sink that holds its
/// entry now, not at its home sink, and the rejoined node delivers.
#[test]
fn wiped_reboot_re_registers_at_the_current_holder() {
    let k = 2;
    let mut h = multi_sink_outcome(60, k, 2005);
    h.establish_gradient();
    assert!(h.rehome_to_nearest() > 0, "no partition entries moved");
    assert_eq!(
        h.rehome_to_nearest(),
        0,
        "a repeated rehome must be a fixpoint"
    );
    let victim = h
        .sensor_ids()
        .into_iter()
        .find(|&id| {
            h.sensor(id).role() == Role::Member && holders(&h, id) != vec![home_sink(id, k)]
        })
        .expect("a member was moved off its home sink");
    let holder = holders(&h, victim);

    h.crash_node(victim);
    h.reboot_node_wiped(victim);
    let deadline = h.sim().now() + 3_000_000;
    h.sim_mut().run_until(deadline);
    assert_eq!(h.sensor(victim).role(), Role::Member, "rejoin failed");
    assert_eq!(holders(&h, victim), holder, "re-registered elsewhere");

    // The rejoined node's route may have changed; a rehome moves the
    // entry from the holder found in the registries to its nearest sink.
    h.establish_gradient();
    h.rehome_to_nearest();
    let (sink, _) = h
        .sensor(victim)
        .nearest_sink()
        .expect("rejoined node has a route");
    assert_eq!(
        holders(&h, victim),
        vec![sink],
        "entry not at its nearest sink"
    );
    let before = h.sink(sink).received.len();
    h.send_reading(victim, vec![0x5A], true);
    assert!(
        h.sink(sink).received[before..]
            .iter()
            .any(|r| r.src == victim),
        "rejoined node's reading not delivered"
    );
}

/// Killing a sink re-homes every node it served onto survivors without
/// losing a single key-table entry, and delivery continues.
#[test]
fn sink_failover_conserves_key_entries() {
    kill_sink_and_check(3, 1, 11);
}

/// With K = 2 and K = 3 and the highest sink killed, no node keeps a
/// gradient to the dead sink, no post-kill reading lands there, and
/// survivors still receive traffic.
#[test]
fn sink_kill_reroutes_to_survivors() {
    for (k, seed) in [(2u32, 4102u64), (3, 4103)] {
        kill_sink_and_check(k, k - 1, seed);
    }
}

/// The failure path is a pure function of the scenario: two identical
/// kill-a-sink runs produce byte-identical traces and outcomes.
#[test]
fn sink_kill_is_deterministic() {
    let run = || {
        let mut h = Scenario::new(SetupParams {
            n: 60,
            density: 10.0,
            seed: 2005,
            cfg: ProtocolConfig::default().with_sinks(3),
        })
        .trace(MemorySink::new())
        .run()
        .handle;
        h.establish_gradient();
        h.rehome_to_nearest();
        let handoffs = h.fail_sink(2);
        h.establish_gradient();
        for (i, src) in h.sensor_ids().into_iter().take(8).enumerate() {
            if h.sensor(src).role() == Role::Head {
                h.send_reading(src, vec![i as u8; 4], true);
            }
        }
        (
            handoffs,
            h.sink(0).received.clone(),
            h.sink(1).received.clone(),
            h.sink(0).registered_nodes(),
            h.sink(1).registered_nodes(),
            h.sim().events_processed(),
            h.sim_mut().take_trace().expect("trace installed").drain(),
        )
    };
    assert!(run() == run(), "kill-a-sink replay diverged");
}

/// Every frame the protocol transmits fits the shared `MAX_FRAME_BYTES`
/// ceiling the socket transport enforces, across a multi-sink workout
/// with recovery and resource budgets on: setup, gradients, rehoming,
/// a sink kill, and a 64-byte reading from every sensor.
#[test]
fn protocol_frames_fit_max_frame_bytes() {
    let mut h = Scenario::new(SetupParams {
        n: 60,
        density: 12.0,
        seed: 3,
        cfg: ProtocolConfig::default()
            .with_sinks(3)
            .with_recovery(RecoveryConfig::default())
            .with_resources(ResourceConfig::default()),
    })
    .trace(MemorySink::new())
    .run()
    .handle;
    h.establish_gradient();
    h.rehome_to_nearest();
    h.fail_sink(2);
    h.establish_gradient();
    for src in h.sensor_ids() {
        h.send_reading(src, vec![0xAB; 64], true);
    }
    assert!(h.total_received() > 0, "nothing delivered");
    let records = h.sim_mut().take_trace().expect("trace installed").drain();
    let mut frames = 0;
    for r in &records {
        if let TraceEvent::TxBroadcast { payload, .. } | TraceEvent::TxUnicast { payload, .. } =
            &r.event
        {
            frames += 1;
            assert!(
                payload.len() <= MAX_FRAME_BYTES,
                "{}-byte frame from node {} exceeds MAX_FRAME_BYTES",
                payload.len(),
                r.node
            );
        }
    }
    assert!(frames > 0, "no transmissions traced");
}

/// Drives one node's handlers directly, outside the simulator, at a
/// fixed time: broadcasts are recorded, timers ignored.
struct Probe {
    id: NodeId,
    now: SimTime,
    rng: StdRng,
    sent: Vec<Bytes>,
}

impl Transport for Probe {
    fn id(&self) -> NodeId {
        self.id
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn rng(&mut self) -> &mut StdRng {
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

/// An ACK moves custody only from a sender strictly closer along the
/// route the custodian's frame was addressed to — here, toward its
/// nearest sink. A peer at the custodian's own distance (a plain ACK or
/// a BusyAck) must leave the entry in place; one hop closer clears it.
#[test]
fn same_distance_ack_keeps_custody_toward_a_sink() {
    let mut h = Scenario::new(SetupParams {
        n: 60,
        density: 12.0,
        seed: 2005,
        cfg: ProtocolConfig::default()
            .with_sinks(2)
            .with_recovery(RecoveryConfig::default()),
    })
    .run()
    .handle;
    h.establish_gradient();
    let src = h
        .sensor_ids()
        .into_iter()
        .find(|&id| {
            let n = h.sensor(id);
            n.cid().is_some() && n.nearest_sink().is_some_and(|(_, hops)| hops >= 2)
        })
        .expect("a clustered sensor two or more hops from its sink");
    let (_, hops) = h.sensor(src).nearest_sink().unwrap();
    let (cid, kc) = h.sensor(src).extract_keys().cluster.unwrap();
    let now = h.sim().now();
    let mut t = Probe {
        id: src,
        now,
        rng: StdRng::seed_from_u64(1),
        sent: Vec::new(),
    };
    let node = h.sensor_mut(src);
    node.queue_reading(PendingReading {
        data: vec![7; 8],
        sealed: true,
    });
    node.dispatch_timer(&mut t, TIMER_SEND);
    assert_eq!(t.sent.len(), 1, "the reading was not sent");
    let key = *node
        .recovery_state()
        .pending
        .keys()
        .next()
        .expect("the reading was not taken into custody");
    // A peer in the same cluster; nonces never repeat across seqs.
    let peer = src + 1;
    let ack = |seq: u64, sender_hops: u32, inner: &Inner| {
        wrap_frame(&sealer(&kc), cid, peer, seq, now, sender_hops, inner)
    };
    node.dispatch_message(&mut t, peer, &ack(0, hops, &Inner::Ack { key }));
    node.dispatch_message(&mut t, peer, &ack(1, hops, &Inner::BusyAck { key }));
    assert!(
        node.recovery_state().pending.contains_key(&key),
        "custody dropped on an ACK from the custodian's own distance ({hops} hops)"
    );
    node.dispatch_message(&mut t, peer, &ack(2, hops - 1, &Inner::Ack { key }));
    assert!(
        !node.recovery_state().pending.contains_key(&key),
        "custody kept on an ACK from one hop closer"
    );
}

/// Route repair toward a sink: a custodian whose retries toward its
/// nearest sink run out forgets that sink's gradient and solicits a
/// scoped re-flood. The sink's reply re-teaches the gradient, and the
/// retransmitted `SinkData` is then accepted by that sink.
#[test]
fn exhausted_retries_repair_the_route_to_a_sink() {
    let mut h = Scenario::new(SetupParams {
        n: 60,
        density: 12.0,
        seed: 2005,
        cfg: ProtocolConfig::default()
            .with_sinks(2)
            .with_recovery(RecoveryConfig::default()),
    })
    .run()
    .handle;
    h.establish_gradient();
    h.rehome_to_nearest();
    let src = h
        .sensor_ids()
        .into_iter()
        .find(|&id| {
            let n = h.sensor(id);
            n.cid().is_some() && n.nearest_sink().is_some_and(|(_, hops)| hops == 1)
        })
        .expect("a clustered sensor one hop from its sink");
    let (sink, _) = h.sensor(src).nearest_sink().unwrap();
    let mut t = Probe {
        id: src,
        now: h.sim().now(),
        rng: StdRng::seed_from_u64(1),
        sent: Vec::new(),
    };
    let node = h.sensor_mut(src);
    node.queue_reading(PendingReading {
        data: vec![9; 8],
        sealed: true,
    });
    node.dispatch_timer(&mut t, TIMER_SEND);
    let reading = t.sent.pop().expect("the reading was not sent");
    // No ACK ever arrives: let every retry fall due until the repair.
    for _ in 0..16 {
        if node.stats.route_repairs > 0 {
            break;
        }
        t.now = node.recovery_state().next_deadline().expect("custody");
        node.dispatch_timer(&mut t, TIMER_RETX);
    }
    assert_eq!(node.stats.route_repairs, 1, "retries never ran out");
    assert_eq!(
        node.hops_to(sink),
        NO_GRADIENT,
        "repair kept the gradient toward sink {sink}"
    );
    let request = t.sent.pop().expect("no RouteRequest");
    assert!(
        t.sent.iter().all(|f| *f == reading),
        "retries are not byte-identical"
    );

    let mut at_sink = Probe {
        id: sink,
        now: t.now,
        rng: StdRng::seed_from_u64(2),
        sent: Vec::new(),
    };
    h.sink_mut(sink).dispatch_message(&mut at_sink, &request);
    let reply = at_sink
        .sent
        .pop()
        .expect("the sink did not answer the RouteRequest");
    let node = h.sensor_mut(src);
    node.dispatch_message(&mut t, sink, &reply);
    assert_eq!(
        node.hops_to(sink),
        1,
        "the reply did not re-teach the gradient"
    );

    t.now = node
        .recovery_state()
        .next_deadline()
        .expect("custody survives the repair");
    t.sent.clear();
    node.dispatch_timer(&mut t, TIMER_RETX);
    assert_eq!(
        t.sent,
        vec![reading.clone()],
        "no retransmission after the repair"
    );
    let before = h.sink(sink).received.len();
    h.sink_mut(sink).dispatch_message(&mut at_sink, &reading);
    let received = &h.sink(sink).received;
    assert_eq!(
        received.len(),
        before + 1,
        "sink {sink} refused the retransmission"
    );
    assert_eq!(received.last().unwrap().src, src);
}

/// A joiner holds no cluster key before `TIMER_JOIN`, so it starts its
/// membership with no route to any sink and solicits one under its new
/// cluster key. Only own-cluster beacons may teach it a distance; a
/// clustermate answers with one beacon per sink it has a gradient to.
#[test]
fn multi_sink_joiner_learns_routes_from_its_own_cluster() {
    let seed = 2005;
    let mut h = Scenario::new(SetupParams {
        n: 60,
        density: 12.0,
        seed,
        cfg: ProtocolConfig::default()
            .with_sinks(2)
            .with_recovery(RecoveryConfig::default()),
    })
    .run()
    .handle;
    h.establish_gradient();
    // A clustermate-to-be with a route to both sinks and a neighbouring
    // cluster whose key the joiner will also hold.
    let mate = h
        .sensor_ids()
        .into_iter()
        .find(|&id| {
            let n = h.sensor(id);
            n.cid().is_some()
                && !n.neighbor_cids().is_empty()
                && (0..2).all(|s| n.hops_to(s) != NO_GRADIENT)
        })
        .expect("a clustered sensor with routes to both sinks");
    let keys = h.sensor(mate).extract_keys();
    let (own_cid, _) = keys.cluster.unwrap();
    let (other_cid, other_kc) = keys.neighbor_keys[0];

    // Scenarios provision from stream 1 of the master seed.
    let mut p = Provisioner::new(wsn_sim::rng::derive_seed(seed, 1));
    let kmc = p.kmc();
    let id = 1_000;
    let mut joiner = ProtocolNode::new_joiner(h.cfg().clone(), p.provision_new_node(id));
    let now = h.sim().now();
    let mut t = Probe {
        id,
        now,
        rng: StdRng::seed_from_u64(3),
        sent: Vec::new(),
    };
    joiner.dispatch_start(&mut t);
    for (from, cid) in [(mate, own_cid), (mate + 1, other_cid)] {
        let kc = cluster_key_at_epoch(&kmc, cid, 0);
        let tag = join_tag(&kc, cid, id, 0);
        let response = Message::JoinResponse { cid, epoch: 0, tag }.encode();
        joiner.dispatch_message(&mut t, from, &response);
    }
    joiner.dispatch_timer(&mut t, TIMER_JOIN);
    assert_eq!(joiner.role(), Role::Member);
    assert_eq!(joiner.cid(), Some(own_cid));
    for s in 0..2 {
        assert_eq!(
            joiner.hops_to(s),
            NO_GRADIENT,
            "joined with a hop count to sink {s}"
        );
    }
    let request = t.sent.pop().expect("no RouteRequest after joining");

    // A beacon under a neighbouring cluster's key teaches nothing.
    let foreign = wrap_frame(
        &sealer(&other_kc),
        other_cid,
        mate + 1,
        0,
        now,
        0,
        &Inner::SinkBeacon { sink: 0 },
    );
    joiner.dispatch_message(&mut t, mate + 1, &foreign);
    assert_eq!(
        joiner.hops_to(0),
        NO_GRADIENT,
        "learned from a foreign cluster"
    );

    let mut at_mate = Probe {
        id: mate,
        now,
        rng: StdRng::seed_from_u64(4),
        sent: Vec::new(),
    };
    h.sensor_mut(mate)
        .dispatch_message(&mut at_mate, id, &request);
    assert_eq!(at_mate.sent.len(), 2, "expected one reply beacon per sink");
    for reply in &at_mate.sent {
        joiner.dispatch_message(&mut t, mate, reply);
    }
    for s in 0..2 {
        assert_eq!(joiner.hops_to(s), h.sensor(mate).hops_to(s) + 1);
    }
}

/// A joiner holds no cluster key until `finish_join`, so a wrapped beacon
/// heard in the join window — under its future cluster's key or a
/// neighbouring one — is dropped as unknown-cluster, and the gradient
/// table is still empty when the join completes. Recovery is off, so the
/// `TIMER_JOIN` reset does not run and cannot hide a leak.
#[test]
fn joiner_counts_join_window_beacons_as_unknown_cluster() {
    for k in [1u32, 2] {
        let seed = 2005;
        let cfg = if k == 1 {
            ProtocolConfig::default()
        } else {
            ProtocolConfig::default().with_sinks(k)
        };
        let mut h = Scenario::new(SetupParams {
            n: 60,
            density: 12.0,
            seed,
            cfg,
        })
        .run()
        .handle;
        h.establish_gradient();
        let mate = h
            .sensor_ids()
            .into_iter()
            .find(|&id| {
                let n = h.sensor(id);
                n.cid().is_some() && !n.neighbor_cids().is_empty()
            })
            .expect("a clustered sensor with a neighbouring cluster");
        let keys = h.sensor(mate).extract_keys();
        let (own_cid, own_kc) = keys.cluster.unwrap();
        let (other_cid, other_kc) = keys.neighbor_keys[0];

        let mut p = Provisioner::new(wsn_sim::rng::derive_seed(seed, 1));
        let kmc = p.kmc();
        let id = 1_000;
        let mut joiner = ProtocolNode::new_joiner(h.cfg().clone(), p.provision_new_node(id));
        let now = h.sim().now();
        let mut t = Probe {
            id,
            now,
            rng: StdRng::seed_from_u64(5),
            sent: Vec::new(),
        };
        joiner.dispatch_start(&mut t);
        let beacons: Vec<Inner> = if k == 1 {
            vec![Inner::Beacon]
        } else {
            (0..k).map(|sink| Inner::SinkBeacon { sink }).collect()
        };
        let mut heard = 0;
        for (from, cid, kc) in [(mate, own_cid, own_kc), (mate + 1, other_cid, other_kc)] {
            for (seq, beacon) in beacons.iter().enumerate() {
                let frame = wrap_frame(&sealer(&kc), cid, from, seq as u64, now, 0, beacon);
                joiner.dispatch_message(&mut t, from, &frame);
                heard += 1;
            }
        }
        assert_eq!(joiner.stats.drops.unknown_cluster, heard, "k = {k}");
        for (from, cid) in [(mate, own_cid), (mate + 1, other_cid)] {
            let kc = cluster_key_at_epoch(&kmc, cid, 0);
            let tag = join_tag(&kc, cid, id, 0);
            let response = Message::JoinResponse { cid, epoch: 0, tag }.encode();
            joiner.dispatch_message(&mut t, from, &response);
        }
        joiner.dispatch_timer(&mut t, TIMER_JOIN);
        assert_eq!(joiner.role(), Role::Member);
        assert_eq!(joiner.cid(), Some(own_cid));
        for s in 0..k {
            assert_eq!(
                joiner.hops_to(s),
                NO_GRADIENT,
                "k = {k}: joined with a hop count to sink {s}"
            );
        }
    }
}

/// `with_sinks(1)` uses the multi-sink machinery (grid placement,
/// SinkBeacon/SinkData frames) but must still deliver: it is the
/// fair same-placement ablation arm for the scaling figure.
#[test]
fn single_sink_ablation_arm_delivers() {
    let mut h = multi_sink_outcome(40, 1, 3);
    h.establish_gradient();
    assert_eq!(h.rehome_to_nearest(), 0, "k = 1 has nowhere to re-home");
    for id in h.sensor_ids() {
        h.send_reading(id, vec![1, id as u8], true);
    }
    assert!(h.total_received() > 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Nearest-sink assignment is total (every sensor that heard any
    /// beacon routes to exactly one sink, which is a real sink id) and
    /// deterministic (two identical runs elect identically — the
    /// tie-break by smaller sink id leaves nothing to chance, so the
    /// assignment cannot depend on thread count or iteration order).
    #[test]
    fn nearest_sink_total_and_deterministic(
        seed in 0u64..1_000,
        n in 30usize..60,
        k in 2u32..5,
    ) {
        let assignment = |seed, n, k| {
            let mut h = multi_sink_outcome(n, k, seed);
            h.establish_gradient();
            let mut a: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
            for id in h.sensor_ids() {
                if let Some(e) = h.sensor(id).nearest_sink() {
                    a.insert(id, e);
                }
            }
            a
        };
        let a = assignment(seed, n, k);
        let b = assignment(seed, n, k);
        prop_assert_eq!(&a, &b, "same seed elected differently");
        for (node, (sink, hops)) in &a {
            prop_assert!(*sink < k, "node {} elected non-sink {}", node, sink);
            prop_assert!(*hops < u32::MAX);
        }
    }

    /// Failover never loses key-table entries, for any victim sink.
    #[test]
    fn failover_conserves_registry(
        seed in 0u64..1_000,
        k in 2u32..5,
        victim_ix in 0u32..4,
    ) {
        let victim = victim_ix % k;
        let mut h = multi_sink_outcome(40, k, seed);
        h.establish_gradient();
        h.rehome_to_nearest();
        h.fail_sink(victim);
        assert_one_surviving_holder(&h, victim);
    }
}

//! The shared Step-2 open: during one hook-free broadcast the simulator
//! lends every receiver one receive share, so the receivers holding the
//! sender's cluster key run its MAC check and decryption once.
//!
//! Sharing must change nothing but the cost. The workout below runs a
//! lossy network with recovery on, autonomous refresh epochs, a node
//! that sleeps through an epoch and catches up, a revocation, and
//! adversary injections (a replayed frame and a copy with a forged tag).
//! It runs once through the fan-out and once through a pass-through
//! delivery hook, which schedules one event per receiver, so every
//! receiver starts with an empty share and opens on its own. The two
//! runs must agree on every trace record, counter, accepted reading and
//! per-node statistic.
//!
//! One broadcast carries one payload, so the simulator never offers a
//! share to a frame other than the one it was recorded from. The last
//! test lends one share across many frames, forged copies among them,
//! which is the most any backend could do, and checks that this too
//! changes no sensor's behaviour.

use wsn_core::base_station::Reading;
use wsn_core::keys::Provisioner;
use wsn_core::msg::Message;
use wsn_core::node::DropCounts;
use wsn_core::prelude::*;
use wsn_core::transport::Transport;
use wsn_sim::event::{SimTime, SECOND};
use wsn_sim::link::{DeliveryHook, ScheduledCopy};
use wsn_sim::node::{NodeId, RxShare, RxShareStats, TimerKey};
use wsn_sim::rng::derive_seed;
use wsn_trace::{FrameKind, TraceRecord};

/// Schedules every delivery unperturbed, one event per receiver.
struct PassThrough;

impl DeliveryHook for PassThrough {
    fn decide(&mut self, _: NodeId, _: NodeId, _: usize, _: SimTime) -> Vec<ScheduledCopy> {
        vec![ScheduledCopy::clean()]
    }
}

/// Everything a run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    trace: Vec<TraceRecord>,
    counters: String,
    events: u64,
    received: Vec<Reading>,
    drops: Vec<DropCounts>,
    /// `Debug` of each sensor's statistics.
    stats: Vec<String>,
}

fn params() -> SetupParams {
    SetupParams {
        n: 90,
        density: 10.0,
        seed: 2005,
        cfg: ProtocolConfig::default()
            .with_recovery(RecoveryConfig::default())
            .with_auto_refresh(2, 10 * SECOND),
    }
}

/// Moves the trace recorded so far into `into` and installs a fresh sink.
fn drain_trace(h: &mut NetworkHandle, into: &mut Vec<TraceRecord>) {
    let mut sink = h.sim_mut().take_trace().expect("trace installed");
    into.extend(sink.drain());
    h.sim_mut().install_trace(MemorySink::new());
}

fn workout(per_receiver: bool) -> (Outcome, RxShareStats) {
    let mut scenario = Scenario::new(params())
        .radio(RadioConfig::default().with_loss(0.1))
        .trace(MemorySink::new());
    if per_receiver {
        scenario = scenario.attack(|sim| sim.set_delivery_hook(PassThrough));
    }
    let mut h = scenario.run().handle;
    let mut trace = Vec::new();
    h.establish_gradient();
    let sensors = h.sensor_ids();
    let send_all = |h: &mut NetworkHandle, step: usize, tag: u8| {
        for &src in sensors.iter().step_by(step) {
            h.send_reading(src, vec![tag, src as u8], true);
        }
    };
    send_all(&mut h, 3, 1);

    // One member sleeps through a refresh epoch: when it wakes, its
    // neighbours' frames are under keys one epoch ahead of its own, and
    // it must catch up rather than ride on their opens.
    let sleeper = sensors
        .iter()
        .copied()
        .find(|&id| h.sensor(id).role() == Role::Member && id > 40)
        .expect("a member exists");
    h.crash_node(sleeper);
    h.refresh();
    h.reboot_node(sleeper);
    send_all(&mut h, 2, 2);

    // A revocation mid-run.
    h.evict_nodes(&[sensors[12]]);
    send_all(&mut h, 4, 3);

    // The adversary sends a copy of a captured Step-2 frame with its tag
    // flipped, then replays the frame itself once it has gone stale, from
    // the position of the node that sent it.
    drain_trace(&mut h, &mut trace);
    let (site, frame) = trace
        .iter()
        .rev()
        .find_map(|r| match &r.event {
            TraceEvent::TxBroadcast { payload, .. } if Message::peek_wrapped(payload).is_some() => {
                Some((r.node, payload.clone()))
            }
            _ => None,
        })
        .expect("a Step-2 frame was sent");
    let mut forged = frame.to_vec();
    *forged.last_mut().unwrap() ^= 1;
    h.sim_mut().inject_broadcast_at(site, 0xAD, 1, forged);
    h.sim_mut()
        .inject_broadcast_at(site, 0xAD, 31 * SECOND, frame);
    h.sim_mut().run();
    send_all(&mut h, 5, 4);

    drain_trace(&mut h, &mut trace);
    let outcome = Outcome {
        trace,
        counters: format!("{:?}", h.sim().counters()),
        events: h.sim().events_processed(),
        received: h.sink(0).received.clone(),
        drops: sensors.iter().map(|&id| h.sensor(id).stats.drops).collect(),
        stats: sensors
            .iter()
            .map(|&id| format!("{:?}", h.sensor(id).stats))
            .collect(),
    };
    (outcome, h.sim().rx_share().stats())
}

#[test]
fn shared_opens_match_per_receiver_opens() {
    let (fanout, shared) = workout(false);
    let (per_receiver, unshared) = workout(true);

    // The workout reaches what it is meant to: receivers rejecting
    // frames, stale replays, a catch-up, a revocation, delivered
    // readings, and most opens served from the share.
    let has = |pred: fn(&TraceEvent) -> bool| fanout.trace.iter().any(|r| pred(&r.event));
    assert!(has(|e| matches!(e, TraceEvent::EpochCatchUp { .. })));
    assert!(has(|e| matches!(e, TraceEvent::Injected { .. })));
    assert!(has(|e| matches!(e, TraceEvent::RadioDrop { .. })));
    assert!(has(|e| matches!(e, TraceEvent::ClusterRevoked { .. })));
    let total = |f: fn(&DropCounts) -> u64| fanout.drops.iter().map(f).sum::<u64>();
    assert!(total(|d| d.bad_auth) > 0 && total(|d| d.stale) > 0);
    assert!(
        fanout.received.len() > 60,
        "{} readings",
        fanout.received.len()
    );
    assert!(
        shared.reused > 2 * shared.computed,
        "too little sharing: {shared:?}"
    );
    assert_eq!(unshared.reused, 0, "per-receiver deliveries never share");

    assert_eq!(fanout, per_receiver);
}

#[test]
fn no_share_outlives_its_broadcast() {
    let mut h = run_setup(&params()).handle;
    h.establish_gradient();
    let before = h.sim().rx_share().stats();
    for (i, src) in h.sensor_ids().into_iter().step_by(4).enumerate() {
        h.queue_reading_at(src, vec![i as u8], true, 1 + i as SimTime);
    }
    while h.sim_mut().step() {
        assert!(
            h.sim().rx_share().is_empty(),
            "the share kept a key or plaintext past the event at {}",
            h.sim().now()
        );
    }
    assert!(h.sim().rx_share().stats().reused > before.reused);
}

/// Drives sensors' handlers directly at a fixed time, dropping what
/// they send, and lends `share` (if any) to every frame.
struct Direct {
    now: SimTime,
    rng: rand::rngs::StdRng,
    share: Option<RxShare>,
}

impl Transport for Direct {
    fn id(&self) -> NodeId {
        0
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn rng(&mut self) -> &mut rand::rngs::StdRng {
        &mut self.rng
    }
    fn broadcast(&mut self, _payload: bytes::Bytes) {}
    fn send(&mut self, _to: NodeId, _payload: bytes::Bytes) {}
    fn set_timer(&mut self, _key: TimerKey, _delay: SimTime) {}
    fn cancel_timer(&mut self, _key: TimerKey) {}
    fn rx_share(&mut self) -> Option<&mut RxShare> {
        self.share.as_mut()
    }
}

#[test]
fn a_share_kept_across_frames_changes_nothing() {
    // The Step-2 frames of a few readings, each followed by a copy with
    // its tag flipped and one with a ciphertext byte flipped.
    let mut h = Scenario::new(params())
        .trace(MemorySink::new())
        .run()
        .handle;
    h.establish_gradient();
    drain_trace(&mut h, &mut Vec::new());
    for &src in h.sensor_ids().iter().step_by(9) {
        h.send_reading(src, vec![src as u8], true);
    }
    let mut trace = Vec::new();
    drain_trace(&mut h, &mut trace);
    let mut frames = Vec::new();
    for r in &trace {
        if let TraceEvent::TxBroadcast { payload, .. } = &r.event {
            if Message::peek_wrapped(payload).is_some() {
                let mut forged_tag = payload.to_vec();
                *forged_tag.last_mut().unwrap() ^= 1;
                let mut forged_body = payload.to_vec();
                forged_body[payload.len() / 2] ^= 1;
                for frame in [payload.to_vec(), forged_tag, forged_body] {
                    frames.push((r.at, r.node, frame));
                }
            }
        }
    }
    assert!(frames.len() > 100, "{} frames", frames.len());

    // Two copies of the network before those readings, fed the same
    // frames: one through a share kept across all of them, one opening
    // every frame on its own.
    let fresh = || {
        let mut h = run_setup(&params()).handle;
        h.establish_gradient();
        h
    };
    let (mut kept, mut own) = (fresh(), fresh());
    let mut t = Direct {
        now: 0,
        rng: rand::SeedableRng::seed_from_u64(3),
        share: Some(RxShare::default()),
    };
    let mut u = Direct {
        now: 0,
        rng: rand::SeedableRng::seed_from_u64(3),
        share: None,
    };
    for (at, from, frame) in &frames {
        (t.now, u.now) = (*at, *at);
        for &to in kept.sim().topology().neighbors(*from).to_vec().iter() {
            if let Some(n) = kept.sim_mut().app_mut(to).as_sensor_mut() {
                n.dispatch_message(&mut t, *from, frame);
            }
            if let Some(n) = own.sim_mut().app_mut(to).as_sensor_mut() {
                n.dispatch_message(&mut u, *from, frame);
            }
        }
    }
    let stats = |h: &NetworkHandle| -> Vec<String> {
        h.sensor_ids()
            .iter()
            .map(|&id| format!("{:?}", h.sensor(id).stats))
            .collect()
    };
    let share = t.share.as_ref().unwrap().stats();
    // Every genuine frame heard by two holders of its key is shared.
    assert!(
        share.reused as usize > frames.len() / 3,
        "too little sharing: {share:?} over {} frames",
        frames.len()
    );
    let bad_auth: u64 = own
        .sensor_ids()
        .iter()
        .map(|&id| own.sensor(id).stats.drops.bad_auth)
        .sum();
    assert!(
        bad_auth > 100,
        "the forged copies were not rejected: {bad_auth}"
    );
    assert_eq!(stats(&kept), stats(&own));
}

/// Fresh sensors of `params()`, provisioned as the scenario provisions
/// them: every one still holds `Km`, none has heard a HELLO.
fn unset_sensors() -> Vec<ProtocolNode> {
    let p = params();
    let mut provisioner = Provisioner::new(derive_seed(p.seed, 1));
    let cfg = std::sync::Arc::new(p.cfg);
    (0..p.n as u32)
        .map(|id| ProtocolNode::new(cfg.clone(), provisioner.provision(id)))
        .collect()
}

#[test]
fn a_share_kept_across_setup_frames_changes_nothing() {
    // Every HELLO and LINK advert of a setup, each followed by a copy with
    // a tag byte flipped, one with a body byte flipped, and one carrying
    // the nonce of the setup frame sent before it.
    let mut h = Scenario::new(params())
        .trace(MemorySink::new())
        .run()
        .handle;
    let mut trace = Vec::new();
    drain_trace(&mut h, &mut trace);
    let mut frames = Vec::new();
    let mut last_nonce = None;
    for r in &trace {
        let TraceEvent::TxBroadcast { payload, .. } = &r.event else {
            continue;
        };
        let Some((kind, nonce, sealed)) = Message::peek_setup(payload) else {
            continue;
        };
        let mut forged_tag = payload.to_vec();
        *forged_tag.last_mut().unwrap() ^= 1;
        let mut forged_body = payload.to_vec();
        forged_body[payload.len() - sealed.len() + 2] ^= 1;
        frames.extend([
            (r.node, payload.to_vec()),
            (r.node, forged_tag),
            (r.node, forged_body),
        ]);
        if let Some(other) = last_nonce {
            let sealed = bytes::Bytes::copy_from_slice(sealed);
            let renonced = match kind {
                FrameKind::Hello => Message::Hello {
                    nonce: other,
                    sealed,
                },
                _ => Message::LinkAdvert {
                    nonce: other,
                    sealed,
                },
            };
            frames.push((r.node, renonced.encode().to_vec()));
        }
        last_nonce = Some(nonce);
    }
    assert!(frames.len() > 200, "{} frames", frames.len());

    // Two copies of the fresh network, fed the same frames from each
    // sender's position: one through a share kept across all of them, one
    // opening every frame on its own.
    let topo = h.sim().topology();
    let (mut kept, mut own) = (unset_sensors(), unset_sensors());
    let mut t = Direct {
        now: 0,
        rng: rand::SeedableRng::seed_from_u64(3),
        share: Some(RxShare::default()),
    };
    let mut u = Direct {
        now: 0,
        rng: rand::SeedableRng::seed_from_u64(3),
        share: None,
    };
    for (from, frame) in &frames {
        for &to in topo.neighbors(*from) {
            kept[to as usize].dispatch_message(&mut t, *from, frame);
            own[to as usize].dispatch_message(&mut u, *from, frame);
        }
    }
    let state = |nodes: &[ProtocolNode]| -> Vec<String> {
        nodes
            .iter()
            .map(|n| {
                let keys = n.extract_keys();
                format!(
                    "{:?} {:?} {:?} {:?}",
                    n.stats,
                    n.role(),
                    keys.cluster,
                    keys.neighbor_keys
                )
            })
            .collect()
    };
    let share = t.share.as_ref().unwrap().stats();
    assert!(
        share.reused as usize > frames.len(),
        "too little sharing: {share:?} over {} frames",
        frames.len()
    );
    let bad_auth: u64 = own.iter().map(|n| n.stats.drops.bad_auth).sum();
    assert!(
        bad_auth > 500,
        "the forged copies were not rejected: {bad_auth}"
    );
    // The genuine HELLOs made members of everyone but the heads.
    let members = own.iter().filter(|n| n.role() == Role::Member).count();
    assert!(members > params().n / 2, "{members} members");
    for (id, (kept, own)) in state(&kept).iter().zip(state(&own)).enumerate() {
        assert_eq!(*kept, own, "node {id}: the kept share changed its state");
    }
}

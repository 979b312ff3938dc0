//! The protocol's optional features end-to-end: in-network fusion
//! suppression (§II "discard extraneous reports") and autonomous periodic
//! key refresh (§IV-C "the refreshing period can be as short as needed").

use wsn_core::node::Role;
use wsn_core::prelude::*;
use wsn_sim::event::SECOND;

#[test]
fn fusion_suppression_discards_in_envelope_readings() {
    let mut o = run_setup(&SetupParams {
        n: 300,
        density: 14.0,
        seed: 1,
        cfg: ProtocolConfig::default().with_fusion_suppression(),
    });
    o.handle.establish_gradient();

    // A multi-hop source so forwarders get to exercise suppression.
    let dist = o.handle.sim().topology().hop_distances(0);
    let src = o
        .handle
        .sensor_ids()
        .into_iter()
        .filter(|&id| dist[id as usize] != u32::MAX)
        .max_by_key(|&id| dist[id as usize])
        .unwrap();
    assert!(dist[src as usize] >= 3, "want several forwarding hops");

    let reading = |v: u64| v.to_be_bytes().to_vec();
    // Establish the envelope [10, 30] at the forwarders.
    o.handle.send_reading(src, reading(10), false);
    o.handle.send_reading(src, reading(30), false);
    assert_eq!(o.handle.sink(0).received.len(), 2);

    // A reading inside the envelope is suppressed in-network; outside gets
    // through.
    o.handle.send_reading(src, reading(20), false);
    assert_eq!(
        o.handle.sink(0).received.len(),
        2,
        "in-envelope reading must be discarded by the first forwarder"
    );
    o.handle.send_reading(src, reading(45), false);
    assert_eq!(o.handle.sink(0).received.len(), 3);
    assert_eq!(o.handle.sink(0).received[2].data, reading(45));

    // The suppression shows up in the fusion stats.
    let fused: u64 = o
        .handle
        .sensor_ids()
        .iter()
        .map(|&id| o.handle.sensor(id).stats.fused_duplicates)
        .sum();
    assert!(fused > 0);
}

#[test]
fn fusion_suppression_never_touches_sealed_traffic() {
    let mut o = run_setup(&SetupParams {
        n: 300,
        density: 14.0,
        seed: 2,
        cfg: ProtocolConfig::default().with_fusion_suppression(),
    });
    o.handle.establish_gradient();
    let dist = o.handle.sim().topology().hop_distances(0);
    let src = o
        .handle
        .sensor_ids()
        .into_iter()
        .rfind(|&id| dist[id as usize] >= 2 && dist[id as usize] != u32::MAX)
        .unwrap();
    // Sealed readings are opaque to forwarders — all must arrive even if
    // their (encrypted) bytes happen to bracket each other.
    for v in [10u64, 30, 20, 25] {
        o.handle.send_reading(src, v.to_be_bytes().to_vec(), true);
    }
    assert_eq!(o.handle.sink(0).received.len(), 4);
}

#[test]
fn suppression_off_by_default() {
    let mut o = run_setup(&SetupParams {
        n: 300,
        density: 14.0,
        seed: 3,
        cfg: ProtocolConfig::default(),
    });
    o.handle.establish_gradient();
    let dist = o.handle.sim().topology().hop_distances(0);
    let src = o
        .handle
        .sensor_ids()
        .into_iter()
        .filter(|&id| dist[id as usize] != u32::MAX)
        .max_by_key(|&id| dist[id as usize])
        .unwrap();
    let reading = |v: u64| v.to_be_bytes().to_vec();
    o.handle.send_reading(src, reading(10), false);
    o.handle.send_reading(src, reading(30), false);
    o.handle.send_reading(src, reading(20), false);
    assert_eq!(
        o.handle.sink(0).received.len(),
        3,
        "no suppression by default"
    );
}

#[test]
fn autonomous_refresh_rolls_the_whole_network_in_lockstep() {
    let cfg = ProtocolConfig::default().with_auto_refresh(3, 10 * SECOND);
    let mut o = run_setup(&SetupParams {
        n: 300,
        density: 14.0,
        seed: 4,
        cfg,
    });
    // run_setup drained the queue, so all 3 epochs have fired.
    for id in o.handle.sensor_ids() {
        assert_eq!(
            o.handle.sensor(id).epoch(),
            3,
            "node {id} missed refresh epochs"
        );
    }
    assert_eq!(o.handle.sink(0).epoch(), 3);

    // And the network still works at epoch 3.
    o.handle.establish_gradient();
    let src = o.handle.sensor_ids()[11];
    let n = o
        .handle
        .send_reading(src, b"epoch-3 traffic".to_vec(), true);
    assert_eq!(n, 1);
}

#[test]
fn joiners_align_to_the_autonomous_refresh_schedule() {
    // Network refreshes 4 epochs, 10 s apart. Nodes added after setup (all
    // epochs elapsed) must sync to epoch 4 via the join responses; nodes
    // added *between* epochs must pick up the remaining rolls from the
    // shared schedule.
    let cfg = ProtocolConfig::default().with_auto_refresh(4, 10 * SECOND);
    let mut o = run_setup(&SetupParams {
        n: 300,
        density: 14.0,
        seed: 5,
        cfg,
    });
    // All four epochs already elapsed (queue drained).
    let new_ids = o.handle.add_nodes(6);
    for &id in &new_ids {
        let node = o.handle.sensor(id);
        if node.role() == Role::Member {
            assert_eq!(node.epoch(), 4, "joiner {id} out of sync");
            let cid = node.cid().unwrap();
            assert_eq!(
                node.extract_keys().cluster.unwrap().1,
                o.handle.sensor(cid).extract_keys().cluster.unwrap().1,
                "joiner {id} key mismatch at epoch 4"
            );
        }
    }
    // Virtual time is monotonic across the rebuild.
    assert!(o.handle.sim().now() >= 40 * SECOND);
}

#[test]
fn two_phase_revocation_evicts_end_to_end() {
    let mut o = run_setup(&SetupParams {
        n: 300,
        density: 14.0,
        seed: 7,
        cfg: ProtocolConfig::default().with_two_phase_revocation(),
    });
    o.handle.establish_gradient();
    let victim = o.handle.sensor_ids()[21];
    let victim_cid = o.handle.sensor(victim).cid().unwrap();

    o.handle.evict_nodes(&[victim]);

    // Same end state as single-phase: the revoked cluster keys are gone
    // network-wide and the victim's cluster is orphaned.
    for id in o.handle.sensor_ids() {
        assert!(
            !o.handle.sensor(id).neighbor_cids().contains(&victim_cid),
            "node {id} still holds revoked key {victim_cid}"
        );
    }
    assert!(o.handle.sensor(victim).is_revoked());
    // The BS refuses the evicted node afterwards.
    let before = o.handle.sink(0).received.len();
    o.handle.send_reading(victim, b"zombie".to_vec(), true);
    assert_eq!(o.handle.sink(0).received.len(), before);
}

#[test]
fn two_phase_revocation_resists_forged_announce_front_running() {
    use wsn_core::msg::Message;

    let mut o = run_setup(&SetupParams {
        n: 300,
        density: 14.0,
        seed: 8,
        cfg: ProtocolConfig::default().with_two_phase_revocation(),
    });
    o.handle.establish_gradient();
    let victim = o.handle.sensor_ids()[21];
    let victim_cid = o.handle.sensor(victim).cid().unwrap();
    let innocent = o.handle.sensor_ids()[100];
    let innocent_cid = o.handle.sensor(innocent).cid().unwrap();
    assert_ne!(victim_cid, innocent_cid);

    // The adversary front-runs the genuine command: before the BS speaks,
    // it floods a forged announce for seq 1 naming the *innocent* cluster,
    // with a garbage tag (it cannot compute the real one — the link is
    // still secret).
    let forged = Message::RevokeAnnounce {
        seq: 1,
        cids: vec![innocent_cid],
        tag: [0xEE; 8],
    };
    for site in [50u32, 150, 250] {
        o.handle
            .sim_mut()
            .inject_broadcast_at(site, 0xAD, 1, forged.encode());
    }
    o.handle.sim_mut().run();

    // Now the genuine two-phase eviction of the real victim runs.
    o.handle.evict_nodes(&[victim]);

    // The innocent cluster survives; the victim's does not.
    assert!(!o.handle.sensor(innocent).is_revoked(), "innocent evicted!");
    assert!(o.handle.sensor(victim).is_revoked());
    let still_know_innocent = o
        .handle
        .sensor_ids()
        .iter()
        .filter(|&&id| o.handle.sensor(id).neighbor_cids().contains(&innocent_cid))
        .count();
    assert!(
        still_know_innocent > 0,
        "innocent cluster's keys must survive the forged announce"
    );
}

#[test]
fn manual_and_auto_refresh_compose() {
    let cfg = ProtocolConfig::default().with_auto_refresh(2, 10 * SECOND);
    let mut o = run_setup(&SetupParams {
        n: 200,
        density: 12.0,
        seed: 6,
        cfg,
    });
    assert_eq!(o.handle.sink(0).epoch(), 2);
    // A manual epoch on top of the autonomous ones.
    o.handle.refresh();
    assert_eq!(o.handle.sink(0).epoch(), 3);
    o.handle.establish_gradient();
    let src = o.handle.sensor_ids()[7];
    assert_eq!(o.handle.send_reading(src, b"e3".to_vec(), true), 1);
}

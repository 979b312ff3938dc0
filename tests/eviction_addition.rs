//! Eviction of compromised nodes (§IV-D), key refresh (§IV-C), and
//! addition of new nodes (§IV-E), exercised end-to-end — including the
//! crash/reboot lifecycle, where a state-wiped reboot re-enters through
//! the same §IV-E join path as a factory-fresh node.

use wsn_core::config::RefreshMode;
use wsn_core::node::Role;
use wsn_core::prelude::*;

fn setup(seed: u64) -> SetupOutcome {
    run_setup(&SetupParams {
        n: 300,
        density: 14.0,
        seed,
        cfg: ProtocolConfig::default(),
    })
}

#[test]
fn eviction_revokes_cluster_and_neighbor_keys_network_wide() {
    let mut o = setup(1);
    o.handle.establish_gradient();

    // Capture a sensor: the adversary gets its cluster + S keys.
    let victim = o.handle.sensor_ids()[17];
    let captured = o.handle.sensor(victim).extract_keys();
    let (victim_cid, _) = captured.cluster.unwrap();
    let mut revoked_cids: Vec<u32> = captured.neighbor_keys.iter().map(|(c, _)| *c).collect();
    revoked_cids.push(victim_cid);

    o.handle.evict_nodes(&[victim]);

    // Every sensor must have deleted every revoked cluster key.
    for id in o.handle.sensor_ids() {
        let node = o.handle.sensor(id);
        for cid in &revoked_cids {
            assert!(
                !node.neighbor_cids().contains(cid),
                "node {id} still holds revoked cluster key {cid}"
            );
        }
        if node.cid() == Some(victim_cid) || revoked_cids.contains(&node.cid().unwrap_or(u32::MAX))
        {
            unreachable!("revoked members should have cid == None");
        }
    }
    // Members of revoked clusters are keyless and flagged.
    let orphaned = o
        .handle
        .sensor_ids()
        .into_iter()
        .filter(|&id| o.handle.sensor(id).is_revoked())
        .count();
    assert!(orphaned >= 1, "at least the victim's cluster is orphaned");
}

#[test]
fn base_station_refuses_evicted_node() {
    let mut o = setup(2);
    o.handle.establish_gradient();
    let victim = o.handle.sensor_ids()[5];
    o.handle.evict_nodes(&[victim]);
    let before = o.handle.sink(0).received.len();
    // The evicted node tries to report (its cluster key is gone, but even a
    // clone with the old Ki must be refused at the BS).
    o.handle.send_reading(victim, b"evil".to_vec(), true);
    assert_eq!(o.handle.sink(0).received.len(), before);
}

#[test]
fn network_keeps_working_for_unaffected_nodes_after_eviction() {
    let mut o = setup(3);
    o.handle.establish_gradient();
    let ids = o.handle.sensor_ids();
    let victim = ids[10];
    o.handle.evict_nodes(&[victim]);
    // Find a sensor that kept its cluster and its gradient.
    let dist = o.handle.sim().topology().hop_distances(0);
    let ok_sender = ids
        .iter()
        .copied()
        .find(|&id| {
            id != victim
                && !o.handle.sensor(id).is_revoked()
                && o.handle.sensor(id).cid().is_some()
                && dist[id as usize] <= 2
        })
        .expect("some unaffected sensor near the BS");
    let n = o
        .handle
        .send_reading(ok_sender, b"still fine".to_vec(), true);
    assert_eq!(n, 1);
}

#[test]
fn hash_refresh_rolls_keys_and_keeps_delivering() {
    let mut o = setup(4);
    o.handle.establish_gradient();
    let src = o.handle.sensor_ids()[8];
    let key_before = o.handle.sensor(src).extract_keys().cluster.unwrap().1;

    o.handle.refresh();

    let node = o.handle.sensor(src);
    assert_eq!(node.epoch(), 1);
    let key_after = node.extract_keys().cluster.unwrap().1;
    assert_ne!(key_before, key_after);

    let n = o.handle.send_reading(src, b"post-refresh".to_vec(), true);
    assert_eq!(n, 1);
    assert_eq!(o.handle.sink(0).received[0].data, b"post-refresh");
}

#[test]
fn recluster_refresh_keeps_delivering() {
    let mut o = run_setup(&SetupParams {
        n: 300,
        density: 14.0,
        seed: 5,
        cfg: ProtocolConfig::default().with_refresh_mode(RefreshMode::Recluster),
    });
    o.handle.establish_gradient();
    let src = o.handle.sensor_ids()[12];
    let key_before = o.handle.sensor(src).extract_keys().cluster.unwrap().1;

    o.handle.refresh();

    let key_after = o.handle.sensor(src).extract_keys().cluster.unwrap().1;
    assert_ne!(key_before, key_after, "recluster refresh must roll the key");

    let n = o.handle.send_reading(src, b"post-recluster".to_vec(), true);
    assert_eq!(n, 1);
}

#[test]
fn multiple_refresh_epochs_stack() {
    let mut o = setup(6);
    o.handle.establish_gradient();
    for _ in 0..3 {
        o.handle.refresh();
    }
    let src = o.handle.sensor_ids()[4];
    assert_eq!(o.handle.sensor(src).epoch(), 3);
    assert_eq!(o.handle.sink(0).epoch(), 3);
    let n = o.handle.send_reading(src, b"epoch3".to_vec(), true);
    assert_eq!(n, 1);
}

#[test]
fn new_nodes_join_and_become_operational() {
    let mut o = setup(7);
    o.handle.establish_gradient();

    let new_ids = o.handle.add_nodes(10);
    assert_eq!(new_ids.len(), 10);

    let mut joined = 0;
    for &id in &new_ids {
        let node = o.handle.sensor(id);
        if node.role() == Role::Member {
            joined += 1;
            assert!(node.cid().is_some());
            assert!(node.keys_held() >= 1);
            // KMC must be erased once joined.
            assert!(
                node.extract_keys().kmc.is_none(),
                "joiner {id} kept KMC after joining"
            );
        }
    }
    // Random placement can strand a joiner with no neighbors; the vast
    // majority must join.
    assert!(joined >= 8, "only {joined}/10 joiners made it");

    // A joined node's derived cluster key must match its adopted cluster's
    // actual key (cross-check against the head).
    let sample = new_ids
        .iter()
        .copied()
        .find(|&id| o.handle.sensor(id).role() == Role::Member)
        .unwrap();
    let cid = o.handle.sensor(sample).cid().unwrap();
    let derived = o.handle.sensor(sample).extract_keys().cluster.unwrap().1;
    let real = o.handle.sensor(cid).extract_keys().cluster.unwrap().1;
    assert_eq!(derived, real, "KMC-derived key diverges from cluster key");
}

#[test]
fn joined_node_can_report_to_base_station() {
    // The recovery layer fixes route-blind joiners at the source: a
    // newcomer whose gradient was learned from a neighboring cluster's
    // beacons (wrapped under a key its own first hop cannot translate)
    // resets it and solicits routes from nodes that actually hold its
    // cluster key. With that in place, *every* joiner that became a
    // member must get a reading through — not just a lucky one.
    let mut o = run_setup(&SetupParams {
        n: 300,
        density: 14.0,
        seed: 8,
        cfg: ProtocolConfig::default().with_recovery(RecoveryConfig::default()),
    });
    o.handle.establish_gradient();
    let new_ids = o.handle.add_nodes(5);
    // Refresh the gradient so newcomers learn their hop counts.
    o.handle.establish_gradient();
    let members: Vec<u32> = new_ids
        .iter()
        .copied()
        .filter(|&id| o.handle.sensor(id).role() == Role::Member)
        .collect();
    assert_eq!(
        members.len(),
        new_ids.len(),
        "all 5 joiners must become members"
    );
    for &id in &members {
        let before = o.handle.sink(0).received.len();
        o.handle
            .send_reading(id, format!("newcomer-{id}").into_bytes(), true);
        assert!(
            o.handle.sink(0).received.len() > before,
            "joiner {id} could not reach the base station"
        );
        let r = o.handle.sink(0).received.last().unwrap();
        assert_eq!(r.src, id);
        assert_eq!(r.data, format!("newcomer-{id}").into_bytes());
    }
}

#[test]
fn join_works_after_hash_refresh_epochs() {
    // The epoch-aware join: keys have rolled twice; the joiner must derive
    // current keys from KMC + epoch.
    let mut o = setup(9);
    o.handle.establish_gradient();
    o.handle.refresh();
    o.handle.refresh();
    let new_ids = o.handle.add_nodes(4);
    let joined = new_ids
        .iter()
        .copied()
        .find(|&id| o.handle.sensor(id).role() == Role::Member)
        .expect("someone joined");
    let node = o.handle.sensor(joined);
    assert_eq!(node.epoch(), 2, "joiner must sync to the network epoch");
    let cid = node.cid().unwrap();
    let derived = node.extract_keys().cluster.unwrap().1;
    let real = o.handle.sensor(cid).extract_keys().cluster.unwrap().1;
    assert_eq!(derived, real);
}

#[test]
fn wiped_reboot_rejoins_at_current_epoch() {
    // A node crashes with its flash wiped, the network rolls keys twice
    // while it is dark, and the reboot re-enters via §IV-E: it must come
    // back a member at the *current* epoch with the current cluster key,
    // and with its KMC erased again.
    let mut o = setup(20);
    o.handle.establish_gradient();
    o.handle.refresh();

    let victim = o
        .handle
        .sensor_ids()
        .into_iter()
        .find(|&id| o.handle.sensor(id).role() == Role::Member)
        .expect("a member exists");
    o.handle.crash_node(victim);
    assert!(!o.handle.node_is_up(victim));

    // Two epochs roll while the victim is dark. crash_node keeps it out
    // of the refresh walk, so its old state never advances.
    o.handle.refresh();
    o.handle.refresh();

    o.handle.reboot_node_wiped(victim);
    let deadline = o.handle.sim().now() + 3_000_000;
    o.handle.sim_mut().run_until(deadline);

    assert!(o.handle.node_is_up(victim));
    let node = o.handle.sensor(victim);
    if node.role() == Role::Member {
        assert_eq!(node.epoch(), 3, "rejoiner must sync to the network epoch");
        assert!(node.extract_keys().kmc.is_none(), "KMC must be erased");
        let cid = node.cid().unwrap();
        let derived = node.extract_keys().cluster.unwrap().1;
        let real = o.handle.sensor(cid).extract_keys().cluster.unwrap().1;
        assert_eq!(derived, real, "rejoiner's derived key diverges");
    } else {
        // Placement can strand a joiner with no responsive neighbors;
        // what is never acceptable is a half-initialized member.
        assert_eq!(node.role(), Role::Joining, "no in-between states");
    }
}

#[test]
fn retained_reboot_misses_epochs_then_recovers_by_catch_up() {
    // A state-retained reboot keeps its pre-crash keys, so epochs rolled
    // while it was dark leave it stale — the churn hazard the resilience
    // figure measures. Both arms of the ablation, same deployment draw:
    // without recovery the node stays stuck at the pre-crash epoch and
    // its readings are refused; with the recovery layer on, the first
    // piece of current-epoch traffic it receives lets it ratchet its
    // keys forward along the hash chain and rejoin the living.
    let run = |cfg: ProtocolConfig| {
        let mut o = run_setup(&SetupParams {
            n: 300,
            density: 14.0,
            seed: 21,
            cfg,
        });
        o.handle.establish_gradient();
        let victim = o
            .handle
            .sensor_ids()
            .into_iter()
            .find(|&id| o.handle.sensor(id).role() == Role::Member)
            .expect("a member exists");
        o.handle.crash_node(victim);
        o.handle.refresh();
        o.handle.refresh();
        o.handle.reboot_node(victim);
        let deadline = o.handle.sim().now() + 1_000_000;
        o.handle.sim_mut().run_until(deadline);
        assert!(o.handle.node_is_up(victim));
        assert_eq!(
            o.handle.sensor(victim).epoch(),
            0,
            "retained state must still be at the pre-crash epoch on wake"
        );
        // Current-epoch traffic washes over the rebooted node (a beacon
        // flood, re-wrapped hop by hop under its neighbors' rolled keys).
        o.handle.establish_gradient();
        let before = o.handle.sink(0).received.len();
        o.handle.send_reading(victim, b"post-reboot".to_vec(), true);
        let delivered = o.handle.sink(0).received.len() > before;
        (o.handle.sensor(victim).epoch(), delivered)
    };

    // Recovery off: stale forever, readings refused.
    let (epoch, delivered) = run(ProtocolConfig::default());
    assert_eq!(epoch, 0, "without recovery the node must stay stale");
    assert!(!delivered, "a stale-keyed reading must be refused");

    // Recovery on: the node catches up to the network epoch (N+1 relative
    // to anything it held) and delivers again.
    let (epoch, delivered) =
        run(ProtocolConfig::default().with_recovery(RecoveryConfig::default()));
    assert_eq!(epoch, 2, "recovery must ratchet the node to the live epoch");
    assert!(delivered, "a healed node's reading must deliver");
}

#[test]
fn crash_mid_join_never_panics_and_rejoin_recovers() {
    // Crash a rejoining node *inside* its join window (the 1 s gap
    // between JoinRequest and TIMER_JOIN), then reboot it again. Nothing
    // may panic, and the second attempt must complete cleanly.
    let mut o = setup(22);
    o.handle.establish_gradient();
    let victim = o
        .handle
        .sensor_ids()
        .into_iter()
        .find(|&id| o.handle.sensor(id).role() == Role::Member)
        .expect("a member exists");
    o.handle.crash_node(victim);
    o.handle.reboot_node_wiped(victim);
    // Run 200 ms into the 1 s join window, then yank power again.
    let mid = o.handle.sim().now() + 200_000;
    o.handle.sim_mut().run_until(mid);
    o.handle.crash_node(victim);
    let drained = o.handle.sim().now() + 2_000_000;
    o.handle.sim_mut().run_until(drained);

    o.handle.reboot_node_wiped(victim);
    let done = o.handle.sim().now() + 3_000_000;
    o.handle.sim_mut().run_until(done);
    let node = o.handle.sensor(victim);
    assert!(
        node.role() == Role::Member || node.role() == Role::Joining,
        "second join attempt left role {:?}",
        node.role()
    );
    if node.role() == Role::Member {
        assert!(node.extract_keys().kmc.is_none());
    }
}

#[test]
fn nodes_dark_through_setup_do_not_break_formation() {
    // Nodes powered off for the *entire* setup phase simply don't take
    // part: the survivors still form clusters and the run never panics.
    let params = SetupParams {
        n: 300,
        density: 14.0,
        seed: 23,
        cfg: ProtocolConfig::default(),
    };
    let o = Scenario::new(params)
        .attack(|sim| {
            for id in [40, 41, 42] {
                sim.set_node_down(id);
            }
        })
        .run();
    for id in [40u32, 41, 42] {
        assert_eq!(
            o.handle.sensor(id).role(),
            Role::Undecided,
            "a dark node must not have participated"
        );
    }
    let clustered = o
        .handle
        .sensor_ids()
        .into_iter()
        .filter(|&id| o.handle.sensor(id).cid().is_some())
        .count();
    assert!(
        clustered > 250,
        "setup must succeed around dark nodes, got {clustered} clustered"
    );
}

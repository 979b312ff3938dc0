//! End-to-end lifecycle: deploy → key setup → gradient → secure data
//! delivery, with the paper's structural invariants checked on the way.

use wsn_core::config::CounterMode;
use wsn_core::node::Role;
use wsn_core::prelude::*;

fn setup(n: usize, density: f64, seed: u64) -> SetupOutcome {
    run_setup(&SetupParams {
        n,
        density,
        seed,
        cfg: ProtocolConfig::default(),
    })
}

#[test]
fn every_sensor_ends_up_clustered_with_consistent_keys() {
    let outcome = setup(400, 10.0, 1);
    let handle = &outcome.handle;
    for id in handle.sensor_ids() {
        let node = handle.sensor(id);
        let cid = node.cid().expect("every sensor must be clustered");
        assert!(node.keys_held() >= 1);
        // Member key must equal the head's potential cluster key.
        if node.role() == Role::Member {
            let head = handle.sensor(cid);
            assert_eq!(head.cid(), Some(cid), "head of {cid} must head itself");
            let head_keys = head.extract_keys();
            let node_keys = node.extract_keys();
            assert_eq!(
                node_keys.cluster.unwrap().1,
                head_keys.cluster.unwrap().1,
                "member {id} and head {cid} disagree on the cluster key"
            );
        }
    }
}

#[test]
fn members_are_one_hop_from_their_head() {
    // Cluster diameter ≤ 2 hops (Figure 2's observation) follows from
    // every member being a direct radio neighbor of the head.
    let outcome = setup(400, 12.5, 2);
    let handle = &outcome.handle;
    let topo = handle.sim().topology();
    for id in handle.sensor_ids() {
        let node = handle.sensor(id);
        let cid = node.cid().unwrap();
        if cid != id {
            assert!(
                topo.neighbors(id).contains(&cid),
                "member {id} not adjacent to head {cid}"
            );
        }
    }
}

#[test]
fn key_set_s_matches_neighboring_clusters() {
    let outcome = setup(400, 10.0, 3);
    let handle = &outcome.handle;
    let topo = handle.sim().topology();
    for id in handle.sensor_ids() {
        let node = handle.sensor(id);
        let own = node.cid().unwrap();
        let in_s: std::collections::HashSet<u32> = node.neighbor_cids().into_iter().collect();
        // Completeness: every neighboring sensor's cluster is either our
        // own or in S (no radio loss in this test).
        for &nbr in topo.neighbors(id) {
            if nbr == 0 {
                continue; // BS
            }
            let nbr_cid = handle.sensor(nbr).cid().unwrap();
            if nbr_cid != own {
                assert!(
                    in_s.contains(&nbr_cid),
                    "node {id} misses key of neighboring cluster {nbr_cid}"
                );
            }
        }
        // Soundness: every key in S belongs to a cluster with at least one
        // radio neighbor in it (that's the definition of neighboring
        // cluster) — or is the base station's singleton cluster.
        for cid in &in_s {
            let has_witness = topo.neighbors(id).iter().any(|&nbr| {
                (nbr == 0 && *cid == 0) || (nbr != 0 && handle.sensor(nbr).cid() == Some(*cid))
            });
            assert!(
                has_witness,
                "node {id} holds key of {cid} but has no neighbor in it"
            );
        }
    }
}

#[test]
fn km_is_erased_after_setup() {
    let outcome = setup(200, 8.0, 4);
    for id in outcome.handle.sensor_ids() {
        assert!(
            !outcome.handle.sensor(id).holds_km(),
            "node {id} kept Km after setup"
        );
    }
}

#[test]
fn setup_message_cost_is_about_one_per_node() {
    // Figure 9: a little over one transmission per node (every node sends
    // one LINK; only heads also send a HELLO).
    let outcome = setup(2000, 12.5, 5);
    let m = outcome.report.msgs_per_node;
    assert!(m >= 1.0, "every node sends at least its link advert: {m}");
    assert!(m <= 1.5, "setup cost should stay near 1 msg/node: {m}");
}

#[test]
fn gradient_matches_bfs_hop_distance() {
    let mut outcome = setup(300, 14.0, 6);
    outcome.handle.establish_gradient();
    let topo_dist = outcome.handle.sim().topology().hop_distances(0);
    for id in outcome.handle.sensor_ids() {
        let got = outcome.handle.sensor(id).hops_to(0);
        assert_eq!(
            got, topo_dist[id as usize],
            "node {id} gradient diverges from BFS"
        );
    }
}

#[test]
fn sealed_reading_reaches_base_station_intact() {
    let mut outcome = setup(300, 14.0, 7);
    outcome.handle.establish_gradient();
    // Pick the sensor farthest from the BS for a proper multi-hop path.
    let dist = outcome.handle.sim().topology().hop_distances(0);
    let far = outcome
        .handle
        .sensor_ids()
        .into_iter()
        .filter(|&id| dist[id as usize] != u32::MAX)
        .max_by_key(|&id| dist[id as usize])
        .unwrap();
    assert!(dist[far as usize] >= 2, "want a multi-hop scenario");

    let n = outcome
        .handle
        .send_reading(far, b"temp=21.5C".to_vec(), true);
    assert_eq!(n, 1, "BS should have exactly one reading");
    let reading = &outcome.handle.sink(0).received[0];
    assert_eq!(reading.src, far);
    assert_eq!(reading.data, b"temp=21.5C");
    assert_eq!(reading.ctr, Some(0));
}

#[test]
fn unsealed_fusion_reading_reaches_base_station() {
    let mut outcome = setup(300, 14.0, 8);
    outcome.handle.establish_gradient();
    let src = outcome.handle.sensor_ids()[10];
    let n = outcome
        .handle
        .send_reading(src, b"fusion-visible".to_vec(), false);
    assert_eq!(n, 1);
    assert_eq!(outcome.handle.sink(0).received[0].ctr, None);
}

#[test]
fn successive_readings_advance_counters() {
    let mut outcome = setup(250, 14.0, 9);
    outcome.handle.establish_gradient();
    let src = outcome.handle.sensor_ids()[5];
    for i in 0..5u8 {
        outcome.handle.send_reading(src, vec![b'r', i], true);
    }
    let bs = outcome.handle.sink(0);
    assert_eq!(bs.received.len(), 5);
    let ctrs: Vec<Option<u64>> = bs.received.iter().map(|r| r.ctr).collect();
    assert_eq!(ctrs, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    assert_eq!(bs.counter_rejects, 0);
}

#[test]
fn explicit_counter_mode_works_too() {
    let mut outcome = run_setup(&SetupParams {
        n: 250,
        density: 14.0,
        seed: 10,
        cfg: ProtocolConfig::default().with_counter_mode(CounterMode::Explicit),
    });
    outcome.handle.establish_gradient();
    let src = outcome.handle.sensor_ids()[3];
    let n = outcome.handle.send_reading(src, b"explicit".to_vec(), true);
    assert_eq!(n, 1);
    assert_eq!(outcome.handle.sink(0).received[0].data, b"explicit");
}

#[test]
fn multiple_sources_deliver_concurrently() {
    let mut outcome = setup(300, 16.0, 11);
    outcome.handle.establish_gradient();
    let ids = outcome.handle.sensor_ids();
    for (k, &src) in ids.iter().step_by(40).enumerate() {
        let count = outcome
            .handle
            .send_reading(src, format!("reading-{k}").into_bytes(), true);
        assert_eq!(count, k + 1, "reading from {src} lost");
    }
}

#[test]
fn setup_survives_packet_loss() {
    use wsn_sim::radio::RadioConfig;
    // With 10% loss some LINK messages vanish; clustering must still
    // complete (every node decides) even if some S entries are missing.
    let outcome = Scenario::new(SetupParams {
        n: 300,
        density: 12.0,
        seed: 12,
        cfg: ProtocolConfig::default(),
    })
    .radio(RadioConfig::default().with_loss(0.10))
    .run();
    for id in outcome.handle.sensor_ids() {
        let node = outcome.handle.sensor(id);
        assert_ne!(node.role(), Role::Undecided, "node {id} undecided");
        assert!(node.cid().is_some(), "node {id} unclustered under loss");
    }
}

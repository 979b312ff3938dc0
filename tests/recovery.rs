//! Acceptance tests for the self-healing recovery layer: cluster-head
//! failover (keyed heartbeats, localized re-election, §IV-E adoption),
//! and the acknowledged transport's exactly-once guarantee against both
//! its own retransmissions and an adversary's replays.

use proptest::prelude::*;
use wsn_attacks::replay::{recorded_frame, replay_at};
use wsn_core::prelude::*;

const SECOND: u64 = 1_000_000;

#[test]
fn killed_head_triggers_failover_and_keys_stay_current() {
    let mut o = Scenario::new(SetupParams {
        n: 300,
        density: 14.0,
        seed: 11,
        cfg: ProtocolConfig::default().with_recovery(RecoveryConfig::default()),
    })
    .trace(MemorySink::new())
    .run();
    o.handle.establish_gradient();

    // A head with at least two direct (1-hop) members: those are the
    // nodes guaranteed to hear its heartbeats and notice its death.
    let ids = o.handle.sensor_ids();
    let (head, members) = ids
        .iter()
        .copied()
        .filter(|&id| o.handle.sensor(id).role() == Role::Head)
        .filter_map(|h| {
            let near = o.handle.sim().topology().hop_distances(h);
            let members: Vec<u32> = ids
                .iter()
                .copied()
                .filter(|&m| {
                    m != h
                        && o.handle.sensor(m).cid() == Some(h)
                        && o.handle.sensor(m).role() == Role::Member
                        && near[m as usize] == 1
                })
                .collect();
            (members.len() >= 2).then_some((h, members))
        })
        .next()
        .expect("a head with at least two 1-hop members");

    let now = o.handle.sim().now();
    o.handle.start_heartbeats(now + 60 * SECOND);
    // A few beats arm every member's watchdog, then the head dies.
    let t = o.handle.sim().now() + 5 * SECOND;
    o.handle.sim_mut().run_until(t);
    let crashed_at = o.handle.sim().now();
    o.handle.crash_node(head);
    // Watchdog horizon: miss_limit beats plus half a period, then the
    // 1 s re-election window and the NewHead flood. 20 s is generous.
    let t = o.handle.sim().now() + 20 * SECOND;
    o.handle.sim_mut().run_until(t);

    for &m in &members {
        let node = o.handle.sensor(m);
        assert_ne!(
            node.cid(),
            Some(head),
            "member {m} still points at the dead head"
        );
        assert!(node.cid().is_some(), "member {m} left clusterless");
        assert!(
            node.role() == Role::Member || node.role() == Role::Head,
            "member {m} in limbo as {:?}",
            node.role()
        );
    }

    // The failure and its repair are on the record.
    let records = o
        .handle
        .sim_mut()
        .take_trace()
        .expect("sink installed")
        .drain();
    let after_crash: Vec<String> = records
        .iter()
        .filter(|r| r.at >= crashed_at)
        .map(|r| r.to_json())
        .collect();
    assert!(
        after_crash
            .iter()
            .any(|j| j.contains("\"kind\":\"head_lost\"")),
        "no watchdog ever declared the head lost"
    );
    assert!(
        after_crash
            .iter()
            .any(|j| j.contains("\"kind\":\"re_elected\"")
                || j.contains("\"kind\":\"cluster_joined\"")),
        "neither re-election nor adoption followed the loss"
    );

    // Keys stay current: one refresh epoch later every surviving member
    // — re-elected or adopted — must still get readings through under
    // keys the base station recognizes.
    o.handle.refresh();
    o.handle.establish_gradient();
    for &m in &members {
        let before = o.handle.sink(0).received.len();
        o.handle
            .send_reading(m, format!("survivor-{m}").into_bytes(), true);
        assert!(
            o.handle.sink(0).received.len() > before,
            "survivor {m} cannot report after failover + refresh"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The exactly-once property of the acknowledged transport: a
    /// byte-identical copy of a delivered frame — whether the ARQ layer's
    /// own retransmission on a lost ACK or an adversary replaying tape —
    /// is visibly absorbed and never double-counted, and a copy replayed
    /// after the freshness window is dropped as stale.
    #[test]
    fn arq_retransmits_absorbed_and_replays_refused(seed in 1u64..500) {
        let mut o = Scenario::new(SetupParams {
            n: 150,
            density: 12.0,
            seed,
            cfg: ProtocolConfig::default().with_recovery(RecoveryConfig::default()),
        })
        .trace(MemorySink::new())
        .run();
        o.handle.establish_gradient();
        let src = o
            .handle
            .sensor_ids()
            .into_iter()
            .find(|&id| {
                let h = o.handle.sensor(id).hops_to(0);
                h >= 2 && h != u32::MAX
            })
            .expect("a multi-hop source");
        let received0 = o.handle.sink(0).received.len();
        o.handle.send_reading(src, b"once-and-only-once".to_vec(), true);
        prop_assert_eq!(o.handle.sink(0).received.len(), received0 + 1);

        // Harvest the genuine frames off the recorded trace and replay
        // every one of them back into the source's neighborhood. The
        // source's own data frame re-injected this way is byte-identical
        // to what its ARQ layer sends on a lost ACK.
        let records = o.handle.sim_mut().take_trace().expect("sink").drain();
        let tape = wsn_attacks::eavesdrop::harvest_wrapped(&records);
        prop_assert!(!tape.is_empty(), "the reading left no frames on the air");
        let mut handle = o.handle;
        let fused0: u64 = handle
            .sensor_ids()
            .iter()
            .map(|&id| handle.sensor(id).stats.fused_duplicates)
            .sum();
        for (_, frame) in &tape {
            let extra = replay_at(&mut handle, src, frame.clone(), 1);
            prop_assert_eq!(extra, 0, "a replayed frame must never deliver twice");
        }
        let fused1: u64 = handle
            .sensor_ids()
            .iter()
            .map(|&id| handle.sensor(id).stats.fused_duplicates)
            .sum();
        prop_assert!(
            fused1 > fused0,
            "replayed copies must be visibly absorbed by the dedup caches"
        );

        // The same logical reading replayed after the freshness window:
        // dropped as stale and counted, never delivered.
        let tau = handle.sim().now();
        let stale_frame = recorded_frame(&handle, src, tau, b"old-news");
        let window = handle.cfg().freshness_window;
        let stale0: u64 = handle
            .sensor_ids()
            .iter()
            .map(|&id| handle.sensor(id).stats.drops.stale)
            .sum();
        let received1 = handle.sink(0).received.len();
        handle
            .sim_mut()
            .inject_broadcast_at(src, 0xDEAD, window + 2, stale_frame);
        handle.sim_mut().run();
        let stale1: u64 = handle
            .sensor_ids()
            .iter()
            .map(|&id| handle.sensor(id).stats.drops.stale)
            .sum();
        prop_assert!(stale1 > stale0, "stale replays must be counted in stats.drops");
        prop_assert_eq!(handle.sink(0).received.len(), received1);
    }
}

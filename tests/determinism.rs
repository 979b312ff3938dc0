//! Reproducibility: a master seed fully determines every experiment.

use wsn_core::prelude::*;
use wsn_sim::parallel::{run_trials, Jobs};
use wsn_sim::radio::RadioConfig;
use wsn_trace::provenance::fnv1a_64;

fn setup(seed: u64) -> SetupOutcome {
    run_setup(&SetupParams {
        n: 300,
        density: 10.0,
        seed,
        cfg: ProtocolConfig::default(),
    })
}

#[test]
fn identical_seeds_identical_networks() {
    let a = setup(42);
    let b = setup(42);
    assert_eq!(a.report.n_heads, b.report.n_heads);
    assert_eq!(a.report.msgs_per_node, b.report.msgs_per_node);
    assert_eq!(a.report.cluster_of, b.report.cluster_of);
    assert_eq!(a.report.keys_per_node, b.report.keys_per_node);
    assert_eq!(a.report.setup_time, b.report.setup_time);
}

#[test]
fn different_seeds_differ() {
    let a = setup(1);
    let b = setup(2);
    assert_ne!(
        a.report.cluster_of, b.report.cluster_of,
        "different seeds should cluster differently"
    );
}

#[test]
fn full_steady_state_replay_is_identical() {
    let run = |seed| {
        let mut o = setup(seed);
        o.handle.establish_gradient();
        let src = o.handle.sensor_ids()[7];
        o.handle.send_reading(src, b"x".to_vec(), true);
        o.handle.refresh();
        o.handle.send_reading(src, b"y".to_vec(), true);
        (
            o.handle.sink(0).received.clone(),
            o.handle.total_tx(),
            o.handle.sim().now(),
        )
    };
    let (ra, ta, na) = run(9);
    let (rb, tb, nb) = run(9);
    assert_eq!(ra, rb);
    assert_eq!(ta, tb);
    assert_eq!(na, nb);
}

#[test]
fn parallel_trial_results_independent_of_thread_count() {
    let experiment = |_, seed: u64| {
        let o = run_setup(&SetupParams {
            n: 150,
            density: 9.0,
            seed,
            cfg: ProtocolConfig::default(),
        });
        (o.report.n_heads, o.report.mean_keys_per_node.to_bits())
    };
    let seq = run_trials(5, 8, Jobs::Fixed(1), experiment);
    let par4 = run_trials(5, 8, Jobs::Fixed(4), experiment);
    assert_eq!(seq, par4);
}

/// FNV-1a over the full trace currently held by `handle`'s sink, rendered
/// as JSONL. Every transmitted frame's bytes are in the trace, so equal
/// digests mean byte-identical runs.
fn trace_digest(handle: &mut NetworkHandle) -> u64 {
    let records = handle
        .sim_mut()
        .take_trace()
        .expect("sink installed")
        .drain();
    let mut out = String::new();
    for rec in records {
        out.push_str(&rec.to_json());
        out.push('\n');
    }
    fnv1a_64(out.as_bytes())
}

/// Golden digest of a single-sink workout through the recovery and
/// resource-budget paths: a lossy radio (ACKs, retransmissions, custody
/// checks), a re-cluster refresh (sealed RefreshHello relays and their
/// ACKs under the retired key) and 20 readings. A change to how frames
/// are built, forwarded or acknowledged moves this value.
#[test]
fn single_sink_recovery_trace_is_pinned() {
    let cfg = ProtocolConfig::default()
        .with_recovery(RecoveryConfig::default())
        .with_resources(ResourceConfig::default())
        .with_refresh_mode(RefreshMode::Recluster);
    let mut h = Scenario::new(SetupParams {
        n: 120,
        density: 12.0,
        seed: 31,
        cfg,
    })
    .radio(RadioConfig::default().with_loss(0.15))
    .trace(MemorySink::new())
    .run()
    .handle;
    h.establish_gradient();
    let sources: Vec<u32> = h.sensor_ids().into_iter().step_by(5).take(20).collect();
    for (k, &src) in sources.iter().enumerate() {
        if k == 10 {
            h.refresh();
        }
        h.send_reading(src, vec![k as u8; 8], true);
    }
    assert!(h.total_received() >= 10, "workout delivered too little");
    assert_eq!(trace_digest(&mut h), GOLDEN_SINGLE_SINK);
}

/// Golden digest of a 3-sink kill-a-sink workout (recovery off):
/// per-sink beacons, rehoming, a sink failure, re-beaconing and
/// readings routed along per-sink gradients.
#[test]
fn multi_sink_kill_trace_is_pinned() {
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
    h.fail_sink(2);
    h.establish_gradient();
    h.rehome_to_nearest();
    for (i, src) in h.sensor_ids().into_iter().take(20).enumerate() {
        h.send_reading(src, vec![i as u8; 4], true);
    }
    assert!(h.total_received() > 0, "nothing delivered after the kill");
    assert_eq!(trace_digest(&mut h), GOLDEN_MULTI_SINK);
}

// A refactor of the forwarding path must leave both values unchanged.
// Neither workout runs multi-sink with recovery on: that combination's
// ACK custody rule is pinned by `same_distance_ack_keeps_custody_toward_a_sink`
// in `crates/core/tests/multisink.rs` instead.
const GOLDEN_SINGLE_SINK: u64 = 0xc033_dcf3_bacd_e417;
const GOLDEN_MULTI_SINK: u64 = 0x3e19_8dc1_7902_374b;

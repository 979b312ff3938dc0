//! Decomposition-independence of the sharded backend at the *protocol*
//! level: a `Backend::Sim { shards: Fixed(k) }` scenario must produce
//! byte-identical protocol-visible outcomes for every region count `k`
//! — roles, cluster membership, key tables, `Km` erasure, every sink's
//! gradient, and every sink's accepted-reading log — across default,
//! lossy, recovery, and multi-sink configurations.
//!
//! The engine-level shard tests (`wsn_sim::shard`) pin raw event
//! streams equal; these tests pin the thing users observe: the network
//! that comes out of `Scenario::run` and everything the driver does
//! with it afterwards. Note `Shards::Fixed(1)` is the sharded universe
//! with one region — the comparison baseline — not the legacy engine
//! (`Shards::Single`), which draws from a different RNG discipline.

use proptest::prelude::*;
use wsn_core::config::RecoveryConfig;
use wsn_core::node::Role;
use wsn_core::prelude::*;
use wsn_core::setup::Backend;
use wsn_sim::radio::RadioConfig;
use wsn_sim::shard::Shards;
use wsn_trace::TraceRecord;

const N: usize = 60;
const DENSITY: f64 = 10.0;

/// Everything protocol-visible after setup + gradient + re-homing + one
/// reading per cluster head.
type Snapshot = (
    Vec<(Role, Option<u32>, usize, Vec<u32>, bool, u32)>, // per-sensor state
    Vec<Vec<u32>>,                                        // hops to each sink
    Vec<Vec<(u32, Vec<u8>, Option<u64>)>>,                // each sink's log
    u64,                                                  // total radio tx
    f64,                                                  // report: keys/node
);

fn snapshot(seed: u64, cfg: ProtocolConfig, radio: RadioConfig, k: usize) -> Snapshot {
    let outcome = Scenario::new(SetupParams {
        n: N,
        density: DENSITY,
        seed,
        cfg,
    })
    .radio(radio)
    .backend(Backend::Sim {
        shards: Shards::Fixed(k),
    })
    .run();
    let report_keys = outcome.report.mean_keys_per_node;
    let mut handle = outcome.handle;

    let sensors: Vec<_> = handle
        .sensor_ids()
        .into_iter()
        .map(|id| {
            let s = handle.sensor(id);
            (
                s.role(),
                s.cid(),
                s.keys_held(),
                s.neighbor_cids(),
                s.holds_km(),
                s.epoch(),
            )
        })
        .collect();

    handle.establish_gradient();
    handle.rehome_to_nearest();
    let sinks = handle.sink_ids();
    let gradients: Vec<Vec<u32>> = handle
        .sensor_ids()
        .into_iter()
        .map(|id| {
            sinks
                .iter()
                .map(|&k| handle.sensor(id).hops_to(k))
                .collect()
        })
        .collect();

    let heads: Vec<u32> = handle
        .sensor_ids()
        .into_iter()
        .filter(|&id| handle.sensor(id).role() == Role::Head)
        .collect();
    for (i, &src) in heads.iter().enumerate() {
        let data = format!("shard-{seed}-{i}-from-{src}").into_bytes();
        handle.send_reading(src, data, true);
    }

    let received = sinks
        .iter()
        .map(|&k| {
            handle
                .sink(k)
                .received
                .iter()
                .map(|r| (r.src, r.data.clone(), r.ctr))
                .collect()
        })
        .collect();
    let tx = handle.sim().counters().total_tx_msgs();
    (sensors, gradients, received, tx, report_keys)
}

#[test]
fn default_config_identical_across_shard_counts() {
    for seed in [1, 2005] {
        let base = snapshot(seed, ProtocolConfig::default(), RadioConfig::default(), 1);
        for k in [2, 4] {
            let other = snapshot(seed, ProtocolConfig::default(), RadioConfig::default(), k);
            assert_eq!(base, other, "k = {k} diverged (seed {seed})");
        }
    }
}

#[test]
fn lossy_radio_identical_across_shard_counts() {
    let radio = RadioConfig {
        loss: 0.15,
        ..RadioConfig::default()
    };
    let cfg = || ProtocolConfig::default().with_recovery(RecoveryConfig::default());
    let base = snapshot(11, cfg(), radio.clone(), 1);
    let other = snapshot(11, cfg(), radio, 4);
    assert_eq!(base, other, "lossy run diverged between k = 1 and k = 4");
}

#[test]
fn multi_sink_identical_across_shard_counts() {
    for k_sinks in [2u32, 3] {
        let cfg = || ProtocolConfig::default().with_sinks(k_sinks);
        let seed = 2005 + k_sinks as u64;
        let base = snapshot(seed, cfg(), RadioConfig::default(), 1);
        // The snapshot must see the multi-sink routes: every sink has a
        // gradient somewhere, and more than one sink accepted readings.
        for k in 0..k_sinks as usize {
            assert!(
                base.1.iter().any(|hops| hops[k] != u32::MAX),
                "no sensor routes to sink {k} (K = {k_sinks})"
            );
        }
        let busy = base.2.iter().filter(|log| !log.is_empty()).count();
        assert!(busy >= 2, "{busy} of {k_sinks} sinks accepted readings");
        let other = snapshot(seed, cfg(), RadioConfig::default(), 4);
        assert_eq!(base, other, "multi-sink K = {k_sinks} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random seeds, recovery on, shard counts 1 vs 4: byte-identical
    /// roles, key tables, gradients, and accepted readings.
    #[test]
    fn sharded_setup_is_decomposition_independent(seed in 0u64..1000) {
        let cfg = || ProtocolConfig::default().with_recovery(RecoveryConfig::default());
        let base = snapshot(seed, cfg(), RadioConfig::default(), 1);
        let other = snapshot(seed, cfg(), RadioConfig::default(), 4);
        prop_assert_eq!(base, other, "seed {} diverged between k = 1 and k = 4", seed);
    }
}

/// Everything the setup phase itself leaves behind, on the sharded
/// engine with `k` regions: the merged trace, the counters, the event
/// count, every sensor's statistics and the setup report.
fn setup_outputs(k: usize, loss: f64) -> (Vec<TraceRecord>, String, u64, Vec<String>, SetupReport) {
    let outcome = Scenario::new(SetupParams {
        n: 400,
        density: DENSITY,
        seed: 29,
        cfg: ProtocolConfig::default(),
    })
    .radio(RadioConfig::default().with_loss(loss))
    .trace(MemorySink::new())
    .backend(Backend::Sim {
        shards: Shards::Fixed(k),
    })
    .run();
    let mut h = outcome.handle;
    let trace = h.sim_mut().take_trace().expect("trace installed").drain();
    let stats = h
        .sensor_ids()
        .into_iter()
        .map(|id| format!("{:?}", h.sensor(id).stats))
        .collect();
    (
        trace,
        format!("{:?}", h.sim().counters()),
        h.sim().events_processed(),
        stats,
        outcome.report,
    )
}

/// The fan-out entries deliver a broadcast region by region; whatever the
/// split, setup must leave the same bytes behind.
#[test]
fn setup_outputs_identical_across_region_counts() {
    for loss in [0.0, 0.1] {
        let base = setup_outputs(1, loss);
        assert!(base.0.len() > 5_000, "{} trace records", base.0.len());
        for k in [2, 4] {
            assert!(
                setup_outputs(k, loss) == base,
                "k = {k}, loss {loss}: setup diverged"
            );
        }
    }
}

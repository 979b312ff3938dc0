//! Overload-hardening property tests: the resource-budget layer's three
//! contracts, each under adversarial schedules proptest gets to choose.
//!
//! 1. **Caps hold** — no matter how a flood interleaves with churn,
//!    partitions and refreshes, no node's bounded buffer ever exceeds its
//!    configured capacity.
//! 2. **Quarantine is MAC-precise** — a neighbor whose frames
//!    authenticate is never muted, even when it transmits aggressively
//!    through loss, churn and a key refresh (the salvage paths must keep
//!    resetting the consecutive-failure streak).
//! 3. **`ResourceConfig::default()` is inert** — with `enabled: false`
//!    every other knob is dead: a run configured with absurd caps and a
//!    zero-token bucket is byte-identical (trace, counters, deliveries)
//!    to one that never mentioned the layer, even under the very floods
//!    the layer exists to stop.

use proptest::prelude::*;
use wsn_attacks::overload_flood::{data_flood, garbage_flood};
use wsn_core::prelude::*;

fn params(seed: u64, cfg: ProtocolConfig) -> SetupParams {
    SetupParams {
        n: 120,
        density: 12.0,
        seed,
        cfg,
    }
}

/// A deterministic clustered victim: flood frames need a real cluster
/// key to be wrapped under, so skip any node that ended up unclustered.
fn clustered_victim(handle: &NetworkHandle, skip: usize) -> u32 {
    handle
        .sensor_ids()
        .into_iter()
        .filter(|&id| handle.sensor(id).cid().is_some())
        .nth(skip)
        .expect("a clustered sensor exists")
}

/// Queues a handful of legitimate readings so the buffers under test see
/// honest traffic competing with the flood.
fn queue_legit(handle: &mut NetworkHandle, horizon: u64) {
    let sensors = handle.sensor_ids();
    for (j, &src) in sensors.iter().step_by(11).take(10).enumerate() {
        let at = (j as u64 + 1) * horizon / 12;
        handle.queue_reading_at(src, vec![0x4C, j as u8], true, at);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Contract 1: with budgets on, every bounded buffer respects its cap
    /// at every node for *any* interleaving of valid-MAC flood, garbage
    /// flood, churn, a partition/heal cycle and a key refresh.
    #[test]
    fn caps_never_exceeded_under_flood_and_fault_interleavings(
        seed in 0u64..500,
        data_frames in 60usize..240,
        garbage_frames in 20usize..90,
        pace in 800u64..4_000,
        partition_at in 200_000u64..600_000,
    ) {
        let cfg = ProtocolConfig::default().with_recovery(RecoveryConfig::default()).with_resources(ResourceConfig::default());
        let caps = cfg.resources;
        let mut o = Scenario::new(params(seed, cfg)).run();
        o.handle.establish_gradient();

        let horizon = 1_500_000u64;
        queue_legit(&mut o.handle, horizon);
        let victim = clustered_victim(&o.handle, 7);
        data_flood(&mut o.handle, victim, data_frames, 20_000, pace);
        garbage_flood(&mut o.handle, victim, garbage_frames, 25_000, pace * 2);

        let sensors = o.handle.sensor_ids();
        let plan = FaultPlan::new(seed)
            .churn(&sensors, 3, 100_000, horizon - 200_000)
            .partition_at(partition_at, 0.5)
            .heal_at(partition_at + 300_000)
            .refresh_at(partition_at + 150_000);
        run_plan(&mut o.handle, &plan, horizon);

        for id in o.handle.sensor_ids() {
            let rs = o.handle.sensor(id).resource_state();
            prop_assert!(
                rs.peak_pending <= caps.max_pending_readings,
                "node {id}: pending peak {} > cap {}",
                rs.peak_pending, caps.max_pending_readings
            );
            prop_assert!(
                rs.peak_retx <= caps.max_retx_pending,
                "node {id}: custody peak {} > cap {}",
                rs.peak_retx, caps.max_retx_pending
            );
            prop_assert!(
                rs.peak_neighbor_keys <= caps.max_neighbor_keys,
                "node {id}: key-table peak {} > cap {}",
                rs.peak_neighbor_keys, caps.max_neighbor_keys
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Contract 2: quarantine keys on *consecutive MAC failures*, never
    /// on volume. A valid-MAC flood plus honest traffic through loss and
    /// churn may be throttled, but must never mute anyone: honest nodes
    /// seal with their current keys at send time, loss drops whole
    /// frames rather than corrupting them, and the flood's MACs verify.
    /// (A mid-run key *refresh* is deliberately absent — it invalidates
    /// pre-staged flood frames, and muting their sender is then correct;
    /// see `stale_epoch_flood_is_quarantined` below.)
    #[test]
    fn quarantine_never_mutes_valid_mac_neighbors(
        seed in 0u64..500,
        loss in 0.0f64..0.25,
        data_frames in 80usize..300,
    ) {
        let cfg = ProtocolConfig::default().with_recovery(RecoveryConfig::default()).with_resources(ResourceConfig::default());
        let mut o = Scenario::new(params(seed, cfg))
            .radio(RadioConfig::default().with_loss(loss))
            .run();
        o.handle.establish_gradient();

        let horizon = 1_200_000u64;
        queue_legit(&mut o.handle, horizon);
        // The aggressive-but-authentic neighbor: every frame carries a
        // valid MAC under the victim's real cluster key.
        let victim = clustered_victim(&o.handle, 5);
        data_flood(&mut o.handle, victim, data_frames, 20_000, 2_000);

        let sensors = o.handle.sensor_ids();
        let plan = FaultPlan::new(seed ^ 0xF00D).churn(&sensors, 2, 150_000, horizon - 200_000);
        run_plan(&mut o.handle, &plan, horizon);

        for id in o.handle.sensor_ids() {
            let rs = o.handle.sensor(id).resource_state();
            prop_assert_eq!(
                rs.quarantines, 0,
                "node {} quarantined a neighbor in a run with no bad-MAC traffic",
                id
            );
            prop_assert_eq!(
                rs.quarantine_drops, 0,
                "node {} dropped frames as quarantined without any quarantine cause",
                id
            );
        }
    }
}

/// The flip side of contract 2, pinned deterministically: a key refresh
/// retires the cluster key a flood was captured under, and the salvage
/// paths deliberately do not ratchet *backwards* for data frames
/// (`try_prev_key_ack` covers only ACKs, `try_epoch_catchup` only newer
/// epochs). A sender that keeps emitting stale-epoch traffic after the
/// refresh is therefore a genuine consecutive-MAC-failure stream, and
/// the quarantine rule must mute it — the refresh's whole point is that
/// old-key traffic dies.
#[test]
fn stale_epoch_flood_is_quarantined() {
    let cfg = ProtocolConfig::default()
        .with_recovery(RecoveryConfig::default())
        .with_resources(ResourceConfig::default());
    let mut o = Scenario::new(params(170, cfg)).run();
    o.handle.establish_gradient();
    let horizon = 1_200_000u64;
    let victim = clustered_victim(&o.handle, 5);
    // Captured under the pre-refresh key; most frames land after it.
    data_flood(&mut o.handle, victim, 256, 20_000, 2_000);
    let plan = FaultPlan::new(0xF00D).refresh_at(400_000);
    run_plan(&mut o.handle, &plan, horizon);
    let quarantines: u64 = o
        .handle
        .sensor_ids()
        .iter()
        .map(|&id| o.handle.sensor(id).resource_state().quarantines)
        .sum();
    assert!(
        quarantines > 0,
        "a stale-epoch flood surviving a refresh must trip the quarantine rule"
    );
}

/// One flood-laden traced run rendered to JSONL plus its observable
/// outcome counters — the byte stream the inertness gate compares.
fn traced_flood_run(seed: u64, cfg: ProtocolConfig) -> (String, usize, u64, u64) {
    let mut o = Scenario::new(params(seed, cfg))
        .trace(MemorySink::new())
        .run();
    o.handle.establish_gradient();
    let horizon = 900_000u64;
    queue_legit(&mut o.handle, horizon);
    let victim = clustered_victim(&o.handle, 3);
    data_flood(&mut o.handle, victim, 120, 20_000, 2_500);
    garbage_flood(&mut o.handle, victim, 40, 30_000, 6_000);
    let until = o.handle.sim().now() + horizon;
    o.handle.sim_mut().run_until(until);

    let received = o.handle.sink(0).received.len();
    let tx = o.handle.sim().counters().total_tx_msgs();
    let events = o.handle.sim().events_processed();
    let mut jsonl = String::new();
    for rec in o
        .handle
        .sim_mut()
        .take_trace()
        .expect("sink installed")
        .drain()
    {
        jsonl.push_str(&rec.to_json());
        jsonl.push('\n');
    }
    (jsonl, received, tx, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Contract 3: `enabled: false` means *inert*, not "mostly off". A
    /// config carrying hostile knob values — one-entry caps, a
    /// zero-token bucket, a hair-trigger quarantine — must produce a
    /// byte-identical trace and identical outcomes to the default
    /// config, because a disabled layer never reads those fields. This
    /// is the "default config runs byte-identical to pre-PR" gate in a
    /// form that stays checkable forever.
    #[test]
    fn disabled_resource_layer_is_byte_identical(seed in 0u64..500) {
        let plain = ProtocolConfig::default().with_recovery(RecoveryConfig::default());
        // `with_resources` switches the layer on by design, so the
        // disabled-but-hostile config is installed through the plain
        // field — the builder is for *enabling* the layer.
        let mut hostile_but_disabled =
            ProtocolConfig::default().with_recovery(RecoveryConfig::default());
        hostile_but_disabled.resources = ResourceConfig {
                enabled: false,
                max_pending_readings: 1,
                max_retx_pending: 1,
                max_neighbor_keys: 1,
                tx_high_water: 1,
                busy_backoff_factor: 99,
                busy_hold: 1,
                neighbor_rate_per_sec: 0,
                neighbor_burst: 0,
                quarantine_threshold: 1,
                quarantine_duration: 1,
            };

        let a = traced_flood_run(seed, plain);
        let b = traced_flood_run(seed, hostile_but_disabled);
        prop_assert_eq!(a.1, b.1, "BS deliveries diverged");
        prop_assert_eq!(a.2, b.2, "radio tx counters diverged");
        prop_assert_eq!(a.3, b.3, "event counts diverged");
        prop_assert_eq!(a.0, b.0, "trace bytes diverged");
    }
}

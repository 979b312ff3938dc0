//! End-to-end tests for the `wsn-chaos` fault engine: byte-identical
//! traces across worker-thread counts, empty-plan equivalence with
//! un-instrumented runs, Gilbert–Elliott stationary behavior (the
//! property-test acceptance gate), and fault visibility in the
//! reconstructed timeline.

use proptest::prelude::*;
use rand::rngs::StdRng;
use wsn_chaos::{FaultPlan, GeParams, GilbertElliott};
use wsn_core::chaos::run_plan;
use wsn_core::prelude::*;
use wsn_sim::link::LinkProcess;
use wsn_sim::parallel::{run_trials, Jobs};
use wsn_trace::{MemorySink, Timeline};

fn params(n: usize, density: f64, seed: u64) -> SetupParams {
    SetupParams {
        n,
        density,
        seed,
        cfg: ProtocolConfig::default(),
    }
}

/// A plan exercising every fault family at once.
fn full_plan(seed: u64, sensors: &[u32]) -> FaultPlan {
    FaultPlan::new(seed)
        .churn(sensors, 4, 100_000, 1_500_000)
        .burst_loss_at(0, GeParams::bursty(0.08, 6.0))
        .partition_at(400_000, 0.5)
        .heal_at(900_000)
        .refresh_at(700_000)
        .clock_drift_at(50_000, 0.01)
}

/// One traced trial: setup, gradient, staggered readings, full fault
/// plan — rendered to JSONL. The determinism gate compares these bytes.
fn chaotic_trace(seed: u64) -> String {
    let mut o = Scenario::new(params(80, 10.0, seed))
        .trace(MemorySink::new())
        .run();
    o.handle.establish_gradient();
    let sensors = o.handle.sensor_ids();
    for (j, &src) in sensors.iter().step_by(9).take(8).enumerate() {
        o.handle
            .queue_reading_at(src, vec![j as u8], true, 150_000 + j as u64 * 180_000);
    }
    let plan = full_plan(seed, &sensors);
    run_plan(&mut o.handle, &plan, 2_000_000);
    let records = o
        .handle
        .sim_mut()
        .take_trace()
        .expect("sink installed")
        .drain();
    let mut out = String::new();
    for rec in records {
        out.push_str(&rec.to_json());
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The acceptance gate: for a fixed master seed, fault-laden traces
    /// are byte-identical no matter how many worker threads the trials
    /// are spread over.
    #[test]
    fn fault_runs_are_identical_across_thread_counts(master_seed in 0u64..1_000) {
        let trials = 3;
        let run = |threads: usize| -> Vec<String> {
            run_trials(master_seed, trials, Jobs::Fixed(threads), |_, seed| chaotic_trace(seed))
        };
        let one = run(1);
        prop_assert_eq!(&one, &run(2));
        prop_assert_eq!(&one, &run(8));
        for jsonl in &one {
            prop_assert!(
                jsonl.contains("fault_injected"),
                "a chaotic run must record its faults"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite gate: the Gilbert–Elliott empirical loss rate matches
    /// the analytic stationary rate `π_g·h_g + π_b·h_b`.
    #[test]
    fn gilbert_elliott_matches_analytic_stationary_loss(
        p_gb in 0.01f64..0.5,
        p_bg in 0.05f64..0.9,
        h_good in 0.0f64..0.2,
        h_bad in 0.3f64..1.0,
        seed in 0u64..1_000,
    ) {
        let ge_params = GeParams::new(p_gb, p_bg, h_good, h_bad);
        let mut ge = GilbertElliott::new(ge_params, seed);
        let mut sim_rng = StdRng::seed_from_u64(1);
        let n = 150_000u64;
        let dropped = (0..n)
            .filter(|&i| ge.should_drop(0, 1, 32, i, &mut sim_rng))
            .count();
        let rate = dropped as f64 / n as f64;
        let analytic = ge_params.stationary_loss();
        prop_assert!(
            (rate - analytic).abs() < 0.03,
            "observed {} vs analytic {}", rate, analytic
        );
    }

    /// Satellite gate: when both states share one loss rate the chain
    /// degenerates exactly to i.i.d. — the analytic stationary loss *is*
    /// that rate, and the state sequence has no observable effect.
    #[test]
    fn equal_state_rates_degenerate_to_iid(
        h in 0.0f64..0.9,
        p_gb in 0.01f64..0.5,
        p_bg in 0.05f64..0.9,
        seed in 0u64..1_000,
    ) {
        let ge_params = GeParams::new(p_gb, p_bg, h, h);
        prop_assert!((ge_params.stationary_loss() - h).abs() < 1e-12);
        let mut ge = GilbertElliott::new(ge_params, seed);
        let mut sim_rng = StdRng::seed_from_u64(2);
        let n = 100_000u64;
        let dropped = (0..n)
            .filter(|&i| ge.should_drop(0, 1, 32, i, &mut sim_rng))
            .count();
        let rate = dropped as f64 / n as f64;
        prop_assert!((rate - h).abs() < 0.012, "observed {} vs h {}", rate, h);
    }
}

/// The zero-overhead contract: a run that installs the chaos engine
/// with an *empty* plan is indistinguishable — counters, events, report,
/// deliveries — from one that never heard of wsn-chaos.
#[test]
fn empty_plan_is_invisible() {
    let p = params(120, 12.0, 33);

    let mut plain = run_setup(&p).handle;
    plain.establish_gradient();
    let src = plain.sensor_ids()[5];
    plain.send_reading(src, b"probe".to_vec(), true);

    let mut chaotic = run_setup(&p).handle;
    chaotic.establish_gradient();
    let report = run_plan(&mut chaotic, &FaultPlan::new(0xDEAD), 500_000);
    chaotic.send_reading(src, b"probe".to_vec(), true);

    assert_eq!(report.total_faults(), 0);
    assert_eq!(plain.sink(0).received.len(), chaotic.sink(0).received.len());
    assert_eq!(
        plain.sim().counters().total_tx_msgs(),
        chaotic.sim().counters().total_tx_msgs()
    );
    assert_eq!(
        plain.sim().counters().total_energy_uj(),
        chaotic.sim().counters().total_energy_uj()
    );
    assert_eq!(
        plain.sim().events_processed(),
        chaotic.sim().events_processed()
    );
    let (ra, rb) = (plain.report(), chaotic.report());
    assert_eq!(ra.cluster_of, rb.cluster_of);
    assert_eq!(ra.msgs_per_node, rb.msgs_per_node);
}

/// Faults show up in the trace, and the timeline reconstructs outage
/// accounting and partition spans exactly.
#[test]
fn faults_land_in_trace_and_timeline() {
    let mut o = Scenario::new(params(100, 10.0, 5))
        .trace(MemorySink::new())
        .run();
    o.handle.establish_gradient();
    let victim = o
        .handle
        .sensor_ids()
        .into_iter()
        .find(|&id| o.handle.sensor(id).role() == Role::Member)
        .expect("a member exists");
    let plan = FaultPlan::new(9)
        .crash_at(100_000, victim)
        .partition_at(200_000, 0.5)
        .heal_at(600_000)
        .reboot_at(800_000, victim);
    let report = run_plan(&mut o.handle, &plan, 1_000_000);
    assert_eq!(report.crashes, 1);
    assert_eq!(report.reboots, 1);
    assert_eq!(report.partitions, 1);
    assert_eq!(report.heals, 1);
    assert!(report.down_at_end.is_empty());

    let records = o
        .handle
        .sim_mut()
        .take_trace()
        .expect("sink installed")
        .drain();
    let tl = Timeline::reconstruct(&records);
    assert_eq!(tl.fault_log.len(), 4, "four injections recorded");
    assert_eq!(tl.partition_spans.len(), 1);
    let (start, end) = tl.partition_spans[0];
    assert_eq!(end - start, 400_000, "partition span is heal - start");
    assert_eq!(
        tl.downtime.get(&victim).copied(),
        Some(700_000),
        "outage is reboot - crash"
    );
    assert!(tl.down_at_end.is_empty());
    assert!(tl.summary().contains("faults"));
}

/// Battery budgets kill nodes through the energy meters, at a poll tick,
/// and the death is final (no reboot can revive a flat battery).
#[test]
fn battery_death_is_deterministic_and_final() {
    let p = params(100, 12.0, 21);
    let run = || {
        let mut o = run_setup(&p).handle;
        o.establish_gradient();
        let victim = o.handle_victim();
        let plan = FaultPlan::new(4)
            .battery_death(victim, 0.0)
            .with_battery_poll_us(50_000)
            .reboot_at(200_000, victim);
        let report = run_plan(&mut o, &plan, 400_000);
        (victim, report, o)
    };
    let (victim, report, handle) = run();
    assert_eq!(report.battery_deaths, 1);
    assert_eq!(report.reboots, 0, "flat battery cannot reboot");
    assert!(!handle.node_is_up(victim));
    assert!(report.down_at_end.contains(&victim));
    let (_, report2, _) = run();
    assert_eq!(report.battery_deaths, report2.battery_deaths);
    assert_eq!(report.down_at_end, report2.down_at_end);
}

trait VictimPick {
    fn handle_victim(&self) -> u32;
}
impl VictimPick for NetworkHandle {
    /// First member sensor — an arbitrary but deterministic victim.
    fn handle_victim(&self) -> u32 {
        self.sensor_ids()
            .into_iter()
            .find(|&id| self.sensor(id).role() == Role::Member)
            .expect("a member exists")
    }
}

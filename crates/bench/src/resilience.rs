//! The resilience figure: delivery and re-key convergence vs fault
//! intensity.
//!
//! Each trial sets up a network, establishes the gradient, queues a
//! fixed reading workload spread across a 4-second window, and runs a
//! `wsn-chaos` [`FaultPlan`] whose severity scales with an *intensity*
//! knob: churn (crash → reboot cycles, half of them state-wiped),
//! Gilbert–Elliott burst loss, a mid-window partition with heal, and
//! clock drift. Two key-refresh epochs are scheduled inside the window,
//! so nodes that are dark at the wrong moment come back with stale keys.
//!
//! Measured per intensity:
//!
//! * **delivery ratio** — readings the base station accepted over
//!   readings queued (simulated, our protocol).
//! * **current-key fraction, ours** — sensors holding the latest epoch
//!   after the window (simulated). Hash refresh is a *local*
//!   computation, so partitions cost nothing and only genuinely-dark
//!   nodes go stale; wiped reboots recover through the §IV-E join path,
//!   which hands out the current epoch.
//! * **current-key fraction, global key** — modeled: a single
//!   network-wide key must be re-distributed by flood, so a node misses
//!   an epoch if it is down *or partitioned away from the base station*
//!   at the refresh instant, and stays stale forever after.
//! * **current-key fraction, random predistribution** — modeled: the
//!   preloaded key ring cannot be re-keyed at all, so any refresh
//!   requirement strands the whole network at epoch zero.
//!
//! Determinism: trial seeds derive from the master seed; fault plans
//! derive from trial seeds; set `WSN_JOBS` to pin the worker-thread
//! count — the emitted CSV is byte-identical for any value of it.

use crate::MASTER_SEED;
use wsn_chaos::{FaultPlan, FaultSpec, GeParams};
use wsn_core::chaos::run_plan;
use wsn_core::config::{ProtocolConfig, RecoveryConfig};
use wsn_core::setup::{run_setup, NetworkHandle, SetupParams};
use wsn_metrics::Table;
use wsn_sim::parallel::{run_trials, Jobs};
use wsn_sim::rng::derive_seed;

/// Virtual duration of the fault window, µs.
pub const WINDOW_US: u64 = 4_000_000;
/// Readings queued per trial (distinct sources, spread over the window).
pub const READINGS: usize = 40;
/// The intensity sweep.
pub const INTENSITIES: [usize; 5] = [0, 1, 2, 3, 4];
/// Nodes per trial (including the base station).
const N: usize = 200;
const DENSITY: f64 = 12.0;

/// One averaged point of the resilience figure.
#[derive(Clone, Debug)]
pub struct ResilienceRow {
    /// Fault-intensity knob (0 = healthy network).
    pub intensity: usize,
    /// Mean faults the engine applied per trial.
    pub faults_per_trial: f64,
    /// Readings accepted by the BS over readings queued.
    pub delivery_ratio: f64,
    /// Delivery ratio with the self-healing recovery layer on (ARQ,
    /// heartbeat failover, epoch catch-up) — same seeds, same faults.
    pub delivery_recovery: f64,
    /// Sensors at the latest key epoch — our protocol, simulated.
    pub ours_current: f64,
    /// Current-key fraction with the recovery layer on: stale reboots
    /// ratchet forward on the first current-epoch frame they hear.
    pub ours_recovery: f64,
    /// Sensors at the latest epoch — global-key flooding, modeled.
    pub global_key_current: f64,
    /// Sensors at the latest epoch — random predistribution, modeled.
    pub predist_current: f64,
}

/// The fault plan for one (trial, intensity) cell.
fn plan_for(trial_seed: u64, intensity: usize, sensors: &[u32]) -> FaultPlan {
    let w = WINDOW_US;
    let mut plan = FaultPlan::new(derive_seed(trial_seed, 0xFA01))
        .refresh_at(w / 3)
        .refresh_at(2 * w / 3);
    if intensity > 0 {
        plan = plan
            .churn(sensors, 5 * intensity, w / 10, w - w / 10)
            .burst_loss_at(0, GeParams::bursty(0.04 * intensity as f64, 6.0));
    }
    if intensity >= 2 {
        plan = plan.partition_at(w / 4, 0.5).heal_at(w / 2);
    }
    if intensity >= 3 {
        plan = plan.clock_drift_at(w / 8, 0.005 * intensity as f64);
    }
    plan
}

/// Replays the plan's *schedule* (not the simulation) to decide whether
/// a flooded network-wide re-key would have reached each sensor: a node
/// misses an epoch if the schedule has it down, or on the far side of an
/// active partition from the base station, at the refresh instant.
fn global_key_current(handle: &NetworkHandle, plan: &FaultPlan) -> f64 {
    let refreshes = plan.refresh_times();
    let sensors = handle.sensor_ids();
    if refreshes.is_empty() {
        return 1.0;
    }
    let topo = handle.sim().topology();
    let side = topo.config().side;
    let bs_x = topo.position(0).x;
    let mut current = 0usize;
    for &id in &sensors {
        let x = topo.position(id).x;
        let mut ok = true;
        for &t in &refreshes {
            let mut down = false;
            let mut partition: Option<f64> = None;
            for f in plan.faults() {
                if f.at > t {
                    break;
                }
                match f.spec {
                    FaultSpec::Crash { node, .. } if node == id => down = true,
                    FaultSpec::Reboot { node } if node == id => down = false,
                    FaultSpec::Partition { frac } => partition = Some(frac),
                    FaultSpec::Heal => partition = None,
                    _ => {}
                }
            }
            let cut_off = partition.is_some_and(|frac| (x >= frac * side) != (bs_x >= frac * side));
            if down || cut_off {
                ok = false;
                break;
            }
        }
        if ok {
            current += 1;
        }
    }
    current as f64 / sensors.len() as f64
}

struct TrialOut {
    faults: u32,
    delivery: f64,
    ours: f64,
    global_key: f64,
    predist: f64,
}

fn trial(seed: u64, intensity: usize, recovery: bool) -> TrialOut {
    let cfg = if recovery {
        ProtocolConfig::default().with_recovery(RecoveryConfig::default())
    } else {
        ProtocolConfig::default()
    };
    let outcome = run_setup(&SetupParams {
        n: N,
        density: DENSITY,
        seed,
        cfg,
    });
    let mut handle = outcome.handle;
    handle.establish_gradient();
    if recovery {
        // Head-failure detection over the whole fault window (plus the
        // drain slack): heads beat until the horizon, members that stop
        // hearing their head re-elect or adopt mid-window.
        let horizon = handle.sim().now() + WINDOW_US + 500_000;
        handle.start_heartbeats(horizon);
    }
    let sensors = handle.sensor_ids();
    let plan = plan_for(seed, intensity, &sensors);

    // Distinct sources, evenly spaced in id and in time.
    let stride = (sensors.len() / READINGS).max(1);
    let srcs: Vec<u32> = sensors
        .iter()
        .copied()
        .step_by(stride)
        .take(READINGS)
        .collect();
    for (j, &src) in srcs.iter().enumerate() {
        let at = (j as u64 + 1) * WINDOW_US / (srcs.len() as u64 + 1);
        handle.queue_reading_at(src, vec![0x5E, j as u8], true, at);
    }

    let before = handle.sink(0).received.len();
    // Slack past the window lets in-flight frames and joins finish.
    let report = run_plan(&mut handle, &plan, WINDOW_US + 500_000);
    let delivered = handle.sink(0).received.len() - before;

    let target_epoch = report.refreshes;
    let ours = sensors
        .iter()
        .filter(|&&id| handle.node_is_up(id) && handle.sensor(id).epoch() == target_epoch)
        .count() as f64
        / sensors.len() as f64;

    TrialOut {
        faults: report.total_faults(),
        delivery: delivered as f64 / srcs.len() as f64,
        ours,
        global_key: global_key_current(&handle, &plan),
        predist: if plan.refresh_times().is_empty() {
            1.0
        } else {
            0.0
        },
    }
}

/// Runs the sweep: `trials` per intensity, fanned out per `WSN_JOBS`.
pub fn resilience_rows(trials: usize) -> Vec<ResilienceRow> {
    INTENSITIES
        .iter()
        .map(|&intensity| {
            let master = derive_seed(MASTER_SEED, 0xFA00 + intensity as u64);
            let run = |i: usize, seed: u64| {
                let _ = i;
                // The ablation pair shares the seed: identical topology,
                // identical fault plan, recovery layer the only variable.
                (trial(seed, intensity, false), trial(seed, intensity, true))
            };
            // `WSN_JOBS` pins the worker-thread count inside run_trials.
            let outs = run_trials(master, trials, Jobs::Auto, run);
            let n = outs.len() as f64;
            ResilienceRow {
                intensity,
                faults_per_trial: outs.iter().map(|(o, _)| o.faults as f64).sum::<f64>() / n,
                delivery_ratio: outs.iter().map(|(o, _)| o.delivery).sum::<f64>() / n,
                delivery_recovery: outs.iter().map(|(_, r)| r.delivery).sum::<f64>() / n,
                ours_current: outs.iter().map(|(o, _)| o.ours).sum::<f64>() / n,
                ours_recovery: outs.iter().map(|(_, r)| r.ours).sum::<f64>() / n,
                global_key_current: outs.iter().map(|(o, _)| o.global_key).sum::<f64>() / n,
                predist_current: outs.iter().map(|(o, _)| o.predist).sum::<f64>() / n,
            }
        })
        .collect()
}

/// Renders the sweep as the emitted table.
pub fn resilience_table(rows: &[ResilienceRow]) -> Table {
    let mut t = Table::new(&[
        "intensity",
        "faults/trial",
        "delivery ratio",
        "delivery (recovery)",
        "current keys (ours)",
        "current keys (ours+recovery)",
        "current keys (global key)",
        "current keys (predist)",
    ]);
    for r in rows {
        t.row(&[
            r.intensity.to_string(),
            format!("{:.1}", r.faults_per_trial),
            format!("{:.3}", r.delivery_ratio),
            format!("{:.3}", r.delivery_recovery),
            format!("{:.3}", r.ours_current),
            format!("{:.3}", r.ours_recovery),
            format!("{:.3}", r.global_key_current),
            format!("{:.3}", r.predist_current),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_network_delivers_and_stays_current() {
        let out = trial(41, 0, false);
        assert_eq!(out.faults, 0, "intensity 0 must apply no faults");
        assert!(out.delivery > 0.9, "delivery {}", out.delivery);
        assert!(out.ours > 0.99, "current-key fraction {}", out.ours);
        assert!((out.global_key - 1.0).abs() < 1e-9);
        assert_eq!(out.predist, 0.0, "predistribution cannot re-key");
    }

    #[test]
    fn degradation_is_graceful_not_a_cliff() {
        let low = trial(42, 1, false);
        let high = trial(42, 4, false);
        for out in [&low, &high] {
            assert!(
                out.delivery > 0.2,
                "faulty network must still deliver most traffic: {}",
                out.delivery
            );
            assert!(out.ours > 0.5, "current-key fraction {}", out.ours);
        }
        assert!(high.faults > low.faults);
    }

    #[test]
    fn ours_beats_global_key_under_partition() {
        // Intensity ≥ 2 includes a partition spanning a refresh instant:
        // hash refresh is local and does not care; a flooded global key
        // cannot cross the cut.
        let out = trial(43, 2, false);
        assert!(
            out.ours > out.global_key,
            "ours {} vs global {}",
            out.ours,
            out.global_key
        );
    }

    #[test]
    fn recovery_ablation_never_hurts_and_lifts_faulty_delivery() {
        // Same seed, same fault plan; the recovery layer is the only
        // variable. Under burst loss and churn the acknowledged
        // transport must deliver strictly more, and never less.
        let off = trial(44, 3, false);
        let on = trial(44, 3, true);
        assert!(
            on.delivery > off.delivery,
            "recovery on {} must beat off {} under faults",
            on.delivery,
            off.delivery
        );
        assert!(
            on.ours >= off.ours,
            "catch-up must not lose epochs: on {} off {}",
            on.ours,
            off.ours
        );
    }
}

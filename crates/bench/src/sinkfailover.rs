//! The sink-failover robustness figure: delivered readings/s before
//! and after killing one of K sinks, with the dead sink's partition
//! entries re-homed to the nearest surviving sink.
//!
//! Every arm runs the same fixed workload twice on a *contended* radio
//! (finite transmit queues, serialized airtime) — one window at full
//! strength, then `fail_sink` on the highest sink, a survivor
//! re-beacon, and one identical window on K−1 sinks. Two claims are
//! pinned:
//!
//! 1. **Conservation** — no partition entry is lost: after the kill,
//!    every sensor's key entry lives at a surviving sink. The failover
//!    never reads the dead sink's memory: survivors re-derive each
//!    orphaned `Ki` from the provisioning seed, so `lost` counts every
//!    node that takeover missed.
//! 2. **Graceful degradation** — post-kill delivery stays close to the
//!    surviving share of capacity (≈ (K−1)/K of the pre-kill rate),
//!    rather than collapsing: the re-beaconed gradient routes every
//!    node to a surviving sink.
//!
//! Determinism: trial seeds derive from the master seed; `WSN_JOBS`
//! only fans trials out — the emitted CSV is byte-identical for any
//! value of it.

use crate::MASTER_SEED;
use wsn_core::config::ProtocolConfig;
use wsn_core::setup::{Scenario, SetupParams};
use wsn_metrics::Table;
use wsn_sim::parallel::{run_trials, Jobs};
use wsn_sim::radio::RadioConfig;
use wsn_sim::rng::derive_seed;

/// Virtual duration of one workload round, µs.
pub const WINDOW_US: u64 = 125_000;
/// Workload rounds per measurement window (pre-kill and post-kill each
/// run this many).
pub const ROUNDS: usize = 8;
/// Reading sources per round (distinct sensors, spread over the field).
pub const READINGS: usize = 120;
/// The sink-count sweep (killing the last sink of each).
pub const SINK_COUNTS: [u32; 3] = [2, 4, 8];
/// Nodes per trial (sinks + sensors).
const N: usize = 400;
const DENSITY: f64 = 12.0;
/// Finite transmit queue depth for the contended radio.
const TX_QUEUE_CAP: usize = 16;
/// Slack past each window for in-flight frames.
const DRAIN_US: u64 = 125_000;

/// One trial's raw outcome.
#[derive(Clone, Copy, Debug)]
pub struct TrialOut {
    /// Readings delivered in the pre-kill window.
    pub pre: usize,
    /// Readings delivered in the post-kill window.
    pub post: usize,
    /// Partition entries handed off by the failover.
    pub handoffs: usize,
    /// Sensor entries not held by any surviving sink after the kill.
    pub lost: usize,
}

/// One averaged point of the sink-failover figure.
#[derive(Clone, Debug)]
pub struct SinkFailoverRow {
    /// Sinks deployed (one is killed).
    pub sinks: u32,
    /// Readings queued per window.
    pub queued: usize,
    /// Mean pre-kill delivery rate, readings/s.
    pub pre_per_sec: f64,
    /// Mean post-kill delivery rate, readings/s.
    pub post_per_sec: f64,
    /// `post_per_sec / pre_per_sec`.
    pub retained: f64,
    /// Mean entries re-homed off the dead sink.
    pub handoffs: f64,
    /// Mean sensor entries lost (must be 0).
    pub lost: f64,
}

/// Queues the fixed workload and runs one measurement window; returns
/// readings delivered in it.
fn run_window(handle: &mut wsn_core::setup::NetworkHandle, srcs: &[u32]) -> usize {
    let before = handle.total_received();
    for round in 0..ROUNDS {
        for (j, &src) in srcs.iter().enumerate() {
            let at = (j as u64 + 1) * WINDOW_US / (srcs.len() as u64 + 1);
            handle.queue_reading_at(src, vec![round as u8, j as u8], true, at);
        }
        let end = handle.sim().now() + WINDOW_US;
        handle.sim_mut().run_until(end);
    }
    let horizon = handle.sim().now() + DRAIN_US;
    handle.sim_mut().run_until(horizon);
    handle.total_received() - before
}

/// One trial: deploy with `k` sinks, measure a window, kill sink
/// `k − 1`, re-beacon the survivors, measure an identical window.
pub fn trial(seed: u64, k: u32) -> TrialOut {
    let cfg = ProtocolConfig::default().with_sinks(k);
    let radio = RadioConfig::default()
        .with_tx_queue(TX_QUEUE_CAP)
        .with_contention();
    let outcome = Scenario::new(SetupParams {
        n: N,
        density: DENSITY,
        seed,
        cfg,
    })
    .radio(radio)
    .run();
    let mut handle = outcome.handle;
    handle.establish_gradient();
    handle.rehome_to_nearest();

    let sensors = handle.sensor_ids();
    let stride = (sensors.len() / READINGS).max(1);
    let srcs: Vec<u32> = sensors
        .iter()
        .copied()
        .step_by(stride)
        .take(READINGS)
        .collect();

    let pre = run_window(&mut handle, &srcs);

    let dead = k - 1;
    let handoffs = handle.fail_sink(dead);
    handle.establish_gradient();

    let post = run_window(&mut handle, &srcs);

    // Conservation: every sensor's key entry must live at a surviving
    // sink now (the dead sink's frozen registry does not count).
    let mut covered = std::collections::BTreeSet::new();
    for s in (0..k).filter(|&s| s != dead) {
        covered.extend(handle.sink(s).registered_nodes());
    }
    let lost = sensors.iter().filter(|id| !covered.contains(id)).count();

    TrialOut {
        pre,
        post,
        handoffs,
        lost,
    }
}

/// Runs the sweep: `trials` per sink count, fanned out per `WSN_JOBS`.
/// All sink counts share each trial seed.
pub fn sinkfailover_rows(trials: usize) -> Vec<SinkFailoverRow> {
    SINK_COUNTS
        .iter()
        .map(|&k| {
            let shared = derive_seed(MASTER_SEED, 0xFA11);
            let outs = run_trials(shared, trials, Jobs::Auto, |_, seed| trial(seed, k));
            let n = outs.len() as f64;
            let window_s = ROUNDS as f64 * WINDOW_US as f64 / 1e6;
            let pre = outs.iter().map(|o| o.pre as f64).sum::<f64>() / n;
            let post = outs.iter().map(|o| o.post as f64).sum::<f64>() / n;
            SinkFailoverRow {
                sinks: k,
                queued: READINGS * ROUNDS,
                pre_per_sec: pre / window_s,
                post_per_sec: post / window_s,
                retained: post / pre.max(f64::MIN_POSITIVE),
                handoffs: outs.iter().map(|o| o.handoffs as f64).sum::<f64>() / n,
                lost: outs.iter().map(|o| o.lost as f64).sum::<f64>() / n,
            }
        })
        .collect()
}

/// Renders the sweep as the emitted table.
pub fn sinkfailover_table(rows: &[SinkFailoverRow]) -> Table {
    let mut t = Table::new(&[
        "sinks",
        "queued/window",
        "pre-kill delivered/s",
        "post-kill delivered/s",
        "retained",
        "handoffs",
        "lost entries",
    ]);
    for r in rows {
        t.row(&[
            r.sinks.to_string(),
            r.queued.to_string(),
            format!("{:.1}", r.pre_per_sec),
            format!("{:.1}", r.post_per_sec),
            format!("{:.2}", r.retained),
            format!("{:.1}", r.handoffs),
            format!("{:.1}", r.lost),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed figure's headline claims, pinned on one fixed
    /// seed: the kill loses nothing, and the survivors keep delivering
    /// at better than half the surviving-capacity share.
    #[test]
    fn kill_conserves_entries_and_degrades_gracefully() {
        let seed = derive_seed(MASTER_SEED, 0xFA12);
        let out = trial(seed, 4);
        assert_eq!(out.lost, 0, "failover lost partition entries");
        assert!(out.handoffs > 0, "dead sink served nobody");
        let share = 3.0 / 4.0;
        assert!(
            out.post as f64 >= 0.5 * share * out.pre as f64,
            "post-kill delivery collapsed: {} vs pre {}",
            out.post,
            out.pre
        );
    }

    /// Same seed, same k → identical outcome (the figure is
    /// deterministic for the CI byte-diff gate).
    #[test]
    fn trial_is_deterministic() {
        let seed = derive_seed(MASTER_SEED, 0xFA13);
        let a = trial(seed, 2);
        let b = trial(seed, 2);
        assert_eq!(
            (a.pre, a.post, a.handoffs, a.lost),
            (b.pre, b.post, b.handoffs, b.lost)
        );
    }
}

//! The overload figure: legitimate delivery and peak buffer occupancy
//! vs flood intensity, with the resource-budget layer on and off.
//!
//! Each trial sets up a network on a *contended* radio (finite transmit
//! queues, serialized airtime — flooding a neighborhood costs that
//! neighborhood real airtime), establishes the gradient, queues a fixed
//! legitimate reading workload spread across a 2-second window, and
//! fires two sustained floods at the base station's one-hop ring — the
//! shared bottleneck every delivery must cross:
//!
//! * a **valid-MAC data flood** ([`wsn_attacks::overload_flood::data_flood`])
//!   under a captured cluster key, the most expensive traffic an insider
//!   can generate (ACKs, forwarding, retransmission custody), and
//! * a **garbage flood** ([`wsn_attacks::overload_flood::garbage_flood`])
//!   under an invented key, which burns a MAC verification per frame
//!   until the quarantine rule mutes the sender.
//!
//! Measured per intensity, as a same-seed ablation pair (identical
//! topology, identical floods; the budget layer the only variable):
//!
//! * **delivery** — legitimate readings the base station accepted over
//!   readings queued, budgets off vs on. Budgets defend delivery by
//!   refusing the flood *pre-crypto* at each hearer, so it is never
//!   forwarded and never spends the ring's airtime.
//! * **peak buffers** — the worst per-node sum of pending-readings,
//!   retransmission-custody and neighbor-key occupancy
//!   ([`wsn_core::resource::ResourceState::peak_total`]). Unbudgeted,
//!   this grows with the flood; budgeted, it is capped by configuration.
//! * **throttled / quarantines** — admission-control activity (budgeted
//!   arm only; the unbudgeted arm admits everything by definition).
//!
//! Determinism: trial seeds derive from the master seed, both arms of
//! the ablation share each seed, and `WSN_JOBS` only fans trials out —
//! the emitted CSV is byte-identical for any value of it.

use crate::MASTER_SEED;
use wsn_attacks::overload_flood::{data_flood, garbage_flood};
use wsn_core::config::{ProtocolConfig, RecoveryConfig, ResourceConfig};
use wsn_core::setup::{NetworkHandle, Scenario, SetupParams};
use wsn_metrics::Table;
use wsn_sim::parallel::{run_trials, Jobs};
use wsn_sim::radio::RadioConfig;
use wsn_sim::rng::derive_seed;

/// Virtual duration of the measurement window, µs.
pub const WINDOW_US: u64 = 2_000_000;
/// Readings queued per trial (distinct sources, spread over the window).
pub const READINGS: usize = 30;
/// The flood-intensity sweep (0 = no flood).
pub const INTENSITIES: [usize; 5] = [0, 1, 2, 3, 4];
/// Valid-MAC data-flood frames per unit of intensity (split across the
/// flooded ring nodes).
pub const DATA_FRAMES_PER_INTENSITY: usize = 900;
/// Bad-MAC garbage-flood frames per unit of intensity (split likewise).
pub const GARBAGE_FRAMES_PER_INTENSITY: usize = 120;
/// Ring nodes flooded per trial, spread by bearing around the base
/// station so the whole funnel is under pressure on every topology.
const VICTIMS: usize = 6;
/// The floods start almost immediately and trickle across the window
/// plus the drain slack, so the pressure overlaps the entire legitimate
/// workload.
const FLOOD_START_US: u64 = 10_000;
const FLOOD_SPAN_US: u64 = WINDOW_US + 250_000;
/// Nodes per trial (including the base station).
const N: usize = 150;
const DENSITY: f64 = 12.0;
/// Finite transmit queue depth for the contended radio: deep enough
/// that benign traffic never tail-drops, shallow enough that a flooded
/// neighborhood sheds load instead of queueing it for seconds.
const TX_QUEUE_CAP: usize = 16;

/// Budgets for the contended radio: stock defaults except a trimmed
/// per-neighbor admission rate. The default 50 frames/s suits an
/// idealized radio; at 19.2 kbit/s a ~70-byte frame occupies ~29 ms of
/// air, so a sustained 10 frames/s per neighbor is already a third of
/// the channel — enough headroom for benign forwarding fan-out, far
/// below what the floods offer.
fn radio_calibrated_budgets() -> ResourceConfig {
    ResourceConfig {
        enabled: true,
        neighbor_rate_per_sec: 10,
        neighbor_burst: 25,
        ..ResourceConfig::default()
    }
}

/// One averaged point of the overload figure.
#[derive(Clone, Debug)]
pub struct OverloadRow {
    /// Flood-intensity knob (0 = benign window).
    pub intensity: usize,
    /// Hostile frames injected per trial (data + garbage).
    pub flood_frames: usize,
    /// Legitimate delivery ratio without resource budgets.
    pub delivery_unbudgeted: f64,
    /// Legitimate delivery ratio with resource budgets — same seeds,
    /// same floods.
    pub delivery_budgeted: f64,
    /// Mean worst per-node buffer occupancy, unbudgeted.
    pub peak_unbudgeted: f64,
    /// Mean worst per-node buffer occupancy, budgeted.
    pub peak_budgeted: f64,
    /// Mean frames refused by per-neighbor rate limits (budgeted arm).
    pub throttled: f64,
    /// Mean quarantine trips across the network (budgeted arm).
    pub quarantines: f64,
}

struct TrialOut {
    delivery: f64,
    peak: usize,
    throttled: u64,
    quarantines: u64,
}

fn legit_received(handle: &NetworkHandle) -> usize {
    // Flood units carry out-of-range source ids; count only readings
    // from provisioned sensors.
    handle
        .sink(0)
        .received
        .iter()
        .filter(|r| r.src < N as u32)
        .count()
}

/// Up to [`VICTIMS`] sensors adjacent to the base station, spread by
/// bearing around it: the mouth of the funnel every reading must cross,
/// hence the floods' points of impact. Spreading by angle (rather than
/// picking ids) keeps the whole ring under pressure on every topology.
fn ring_victims(handle: &NetworkHandle) -> Vec<u32> {
    let topo = handle.sim().topology();
    let bs = topo.position(0);
    let mut ring: Vec<(u32, f64)> = handle
        .sensor_ids()
        .into_iter()
        .filter(|&id| handle.sensor(id).hops_to(0) == 1)
        .map(|id| {
            let p = topo.position(id);
            (id, (p.y - bs.y).atan2(p.x - bs.x))
        })
        .collect();
    assert!(!ring.is_empty(), "someone is adjacent to the BS");
    ring.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    let k = VICTIMS.min(ring.len());
    (0..k).map(|i| ring[i * ring.len() / k].0).collect()
}

fn trial(seed: u64, intensity: usize, budgets: bool) -> TrialOut {
    let mut cfg = ProtocolConfig::default().with_recovery(RecoveryConfig::default());
    if budgets {
        cfg = cfg.with_resources(radio_calibrated_budgets());
    }
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
    let sensors = handle.sensor_ids();

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
        handle.queue_reading_at(src, vec![0x0D, j as u8], true, at);
    }

    if intensity > 0 {
        let victims = ring_victims(&handle);
        let data_frames = DATA_FRAMES_PER_INTENSITY * intensity / victims.len();
        let data_pace = FLOOD_SPAN_US / data_frames.max(1) as u64;
        let junk_frames = GARBAGE_FRAMES_PER_INTENSITY * intensity / victims.len();
        let junk_pace = FLOOD_SPAN_US / junk_frames.max(1) as u64;
        for (v, &victim) in victims.iter().enumerate() {
            // Skew the streams so the victims do not inject in lockstep.
            let skew = v as u64 * data_pace / victims.len() as u64;
            data_flood(
                &mut handle,
                victim,
                data_frames,
                FLOOD_START_US + skew,
                data_pace,
            );
            garbage_flood(
                &mut handle,
                victim,
                junk_frames,
                FLOOD_START_US + 5_000 + skew,
                junk_pace,
            );
        }
    }

    let before = legit_received(&handle);
    // Slack past the window lets in-flight frames and retransmissions
    // finish.
    let horizon = handle.sim().now() + WINDOW_US + 500_000;
    handle.sim_mut().run_until(horizon);
    let delivered = legit_received(&handle) - before;

    let mut peak = 0usize;
    let mut throttled = 0u64;
    let mut quarantines = 0u64;
    for &id in &sensors {
        let rs = handle.sensor(id).resource_state();
        peak = peak.max(rs.peak_total());
        throttled += rs.throttled;
        quarantines += rs.quarantines;
    }

    TrialOut {
        delivery: delivered as f64 / srcs.len() as f64,
        peak,
        throttled,
        quarantines,
    }
}

/// Runs the sweep: `trials` per intensity, fanned out per `WSN_JOBS`.
pub fn overload_rows(trials: usize) -> Vec<OverloadRow> {
    INTENSITIES
        .iter()
        .map(|&intensity| {
            let master = derive_seed(MASTER_SEED, 0xD0D0 + intensity as u64);
            let run = |i: usize, seed: u64| {
                let _ = i;
                // The ablation pair shares the seed: identical topology,
                // identical floods, the budget layer the only variable.
                (trial(seed, intensity, false), trial(seed, intensity, true))
            };
            let outs = run_trials(master, trials, Jobs::Auto, run);
            let n = outs.len() as f64;
            OverloadRow {
                intensity,
                flood_frames: (DATA_FRAMES_PER_INTENSITY + GARBAGE_FRAMES_PER_INTENSITY)
                    * intensity,
                delivery_unbudgeted: outs.iter().map(|(o, _)| o.delivery).sum::<f64>() / n,
                delivery_budgeted: outs.iter().map(|(_, b)| b.delivery).sum::<f64>() / n,
                peak_unbudgeted: outs.iter().map(|(o, _)| o.peak as f64).sum::<f64>() / n,
                peak_budgeted: outs.iter().map(|(_, b)| b.peak as f64).sum::<f64>() / n,
                throttled: outs.iter().map(|(_, b)| b.throttled as f64).sum::<f64>() / n,
                quarantines: outs.iter().map(|(_, b)| b.quarantines as f64).sum::<f64>() / n,
            }
        })
        .collect()
}

/// Renders the sweep as the emitted table.
pub fn overload_table(rows: &[OverloadRow]) -> Table {
    let mut t = Table::new(&[
        "intensity",
        "flood frames",
        "delivery (unbudgeted)",
        "delivery (budgeted)",
        "peak buffers (unbudgeted)",
        "peak buffers (budgeted)",
        "throttled",
        "quarantines",
    ]);
    for r in rows {
        t.row(&[
            r.intensity.to_string(),
            r.flood_frames.to_string(),
            format!("{:.3}", r.delivery_unbudgeted),
            format!("{:.3}", r.delivery_budgeted),
            format!("{:.1}", r.peak_unbudgeted),
            format!("{:.1}", r.peak_budgeted),
            format!("{:.1}", r.throttled),
            format!("{:.1}", r.quarantines),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_core::config::ResourceConfig;

    #[test]
    fn benign_window_delivers_with_and_without_budgets() {
        let off = trial(71, 0, false);
        let on = trial(71, 0, true);
        assert!(off.delivery > 0.9, "unbudgeted benign {}", off.delivery);
        assert!(on.delivery > 0.9, "budgeted benign {}", on.delivery);
        // Benign fan-out may brush the rate limit (broadcast forwarding
        // is redundant, so shedding duplicate copies costs no delivery),
        // but a valid-MAC neighbor must never be quarantined.
        assert_eq!(on.quarantines, 0, "benign traffic must not be quarantined");
    }

    #[test]
    fn budgets_at_least_double_delivery_under_heavy_flood() {
        let off = trial(72, 4, false);
        let on = trial(72, 4, true);
        assert!(
            on.delivery >= 2.0 * off.delivery,
            "budgeted {} must be at least twice unbudgeted {}",
            on.delivery,
            off.delivery
        );
        assert!(on.delivery > 0.4, "budgeted delivery {}", on.delivery);
    }

    #[test]
    fn peak_buffers_bounded_only_with_budgets() {
        let off = trial(73, 4, false);
        let on = trial(73, 4, true);
        let res = ResourceConfig::default();
        let cap_sum = res.max_pending_readings + res.max_retx_pending + res.max_neighbor_keys;
        assert!(
            on.peak <= cap_sum,
            "budgeted peak {} exceeds configured caps {}",
            on.peak,
            cap_sum
        );
        assert!(
            off.peak > on.peak,
            "unbudgeted peak {} should exceed budgeted {}",
            off.peak,
            on.peak
        );
        // The budget layer earns its keep: the flood visibly engages it.
        assert!(on.throttled > 0, "heavy flood must trip the rate limit");
        assert!(on.quarantines > 0, "garbage flood must trip quarantine");
    }
}

#[cfg(test)]
mod probe {
    use super::*;
    #[test]
    #[ignore]
    fn per_seed() {
        for seed in 71u64..76 {
            let o0 = trial(seed, 0, false);
            let n0 = trial(seed, 0, true);
            let o4 = trial(seed, 4, false);
            let n4 = trial(seed, 4, true);
            println!(
                "seed {seed}: benign {:.3}->{:.3} (thr {} quar {}) | flood {:.3}->{:.3} (peak {}->{} thr {} quar {})",
                o0.delivery, n0.delivery, n0.throttled, n0.quarantines,
                o4.delivery, n4.delivery, o4.peak, n4.peak, n4.throttled, n4.quarantines
            );
        }
    }
}

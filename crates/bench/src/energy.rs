//! Energy experiments — the paper's efficiency arguments in microjoules.
//!
//! Two questions:
//!
//! 1. **Broadcast energy per scheme** — the radio cost of one
//!    authenticated broadcast to `d` neighbors: ours/LEAP/global spend one
//!    transmission, random predistribution several, full pairwise `d`
//!    ([`broadcast_energy_table`]).
//! 2. **Fusion savings** — "an effective technique to extend sensor
//!    network lifetime is to limit the amount of data sent back":
//!    [`fusion_energy_savings`] measures network-wide radio energy for a
//!    redundant-reporting workload with in-network suppression off vs on.

use crate::MASTER_SEED;
use wsn_baselines::ours::OursAdapter;
use wsn_baselines::random_predist::EgScheme;
use wsn_baselines::{leap::Leap, pairwise::FullPairwise, KeyScheme};
use wsn_core::prelude::*;
use wsn_metrics::Table;
use wsn_sim::radio::RadioConfig;
use wsn_sim::rng::derive_seed;

/// Radio energy (µJ) to broadcast one `frame_bytes` message to all
/// neighbors under each scheme: `tx_count · tx_energy + d · rx_energy`
/// (every in-range radio hears every transmission — receivers not holding
/// the right key still pay to receive).
pub fn broadcast_energy_table(n: usize, density: f64, frame_bytes: usize) -> Table {
    let outcome = run_setup(&SetupParams {
        n: n + 1,
        density,
        seed: derive_seed(MASTER_SEED, 0xE0),
        cfg: ProtocolConfig::default(),
    });
    let topo = outcome.handle.sim().topology();
    let ours = OursAdapter::from_handle(&outcome.handle);
    let eg = EgScheme::new(10_000, 75, 3);
    let radio = RadioConfig::default();

    let mut t = Table::new(&[
        "scheme",
        "tx per broadcast",
        "sender energy (µJ)",
        "neighborhood energy (µJ)",
    ]);
    let schemes: [&dyn KeyScheme; 4] = [&ours, &Leap, &eg, &FullPairwise];
    for scheme in schemes {
        let ids: Vec<u32> = (1..=n as u32).collect();
        let mean_tx: f64 = ids
            .iter()
            .map(|&i| scheme.broadcast_transmissions(topo, i) as f64)
            .sum::<f64>()
            / ids.len() as f64;
        let tx_uj = mean_tx * radio.tx_energy_uj(frame_bytes);
        // Every transmission is overheard by the whole neighborhood.
        let rx_uj = mean_tx * topo.mean_degree() * radio.rx_energy_uj(frame_bytes);
        t.row(&[
            scheme.name().to_string(),
            format!("{mean_tx:.2}"),
            format!("{tx_uj:.1}"),
            format!("{:.1}", tx_uj + rx_uj),
        ]);
    }
    t
}

/// Result of the fusion-savings experiment.
#[derive(Clone, Debug)]
pub struct FusionSavings {
    /// Total radio energy without suppression, µJ.
    pub baseline_uj: f64,
    /// Total radio energy with suppression, µJ.
    pub suppressed_uj: f64,
    /// Readings the BS received without suppression.
    pub baseline_delivered: usize,
    /// Readings the BS received with suppression.
    pub suppressed_delivered: usize,
}

impl FusionSavings {
    /// Fractional energy saved by suppression.
    pub fn saving(&self) -> f64 {
        1.0 - self.suppressed_uj / self.baseline_uj
    }
}

/// A redundant-reporting workload: `rounds` rounds in which several
/// sensors report values inside a narrow band (plus band-edge extremes
/// first, so suppression has an envelope to work with).
pub fn fusion_energy_savings(n: usize, density: f64, rounds: usize) -> FusionSavings {
    let run = |suppress: bool| -> (f64, usize) {
        let cfg = if suppress {
            ProtocolConfig::default().with_fusion_suppression()
        } else {
            ProtocolConfig::default()
        };
        let mut o = run_setup(&SetupParams {
            n: n + 1,
            density,
            seed: derive_seed(MASTER_SEED, 0xE1),
            cfg,
        });
        o.handle.establish_gradient();
        let baseline_uj = o.handle.sim().counters().total_energy_uj();
        let dist = o.handle.sim().topology().hop_distances(0);
        let reporters: Vec<u32> = o
            .handle
            .sensor_ids()
            .into_iter()
            .filter(|&id| dist[id as usize] >= 2 && dist[id as usize] != u32::MAX)
            .take(8)
            .collect();
        // Envelope first: extremes 100 and 200.
        o.handle
            .send_reading(reporters[0], 100u64.to_be_bytes().to_vec(), false);
        o.handle
            .send_reading(reporters[0], 200u64.to_be_bytes().to_vec(), false);
        // Then rounds of in-band values from everyone.
        for r in 0..rounds {
            for (k, &src) in reporters.iter().enumerate() {
                let v = 120 + (r * 7 + k * 3) as u64 % 60;
                o.handle.send_reading(src, v.to_be_bytes().to_vec(), false);
            }
        }
        (
            o.handle.sim().counters().total_energy_uj() - baseline_uj,
            o.handle.sink(0).received.len(),
        )
    };
    let (baseline_uj, baseline_delivered) = run(false);
    let (suppressed_uj, suppressed_delivered) = run(true);
    FusionSavings {
        baseline_uj,
        suppressed_uj,
        baseline_delivered,
        suppressed_delivered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_energy_ordering() {
        let t = broadcast_energy_table(300, 12.0, 40);
        assert_eq!(t.len(), 4);
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let tx_of = |row: &str| -> f64 { row.split(',').nth(1).unwrap().parse().unwrap() };
        // ours == LEAP == 1 < EG < pairwise.
        assert_eq!(tx_of(rows[0]), 1.0);
        assert_eq!(tx_of(rows[1]), 1.0);
        assert!(tx_of(rows[2]) > 1.0);
        assert!(tx_of(rows[3]) > tx_of(rows[2]));
    }

    #[test]
    fn fusion_suppression_saves_energy() {
        let s = fusion_energy_savings(250, 14.0, 3);
        assert!(
            s.suppressed_uj < s.baseline_uj,
            "suppression must cut radio energy: {} vs {}",
            s.suppressed_uj,
            s.baseline_uj
        );
        assert!(s.saving() > 0.2, "expect >20% saving: {}", s.saving());
        // The price: in-band readings don't reach the BS.
        assert!(s.suppressed_delivered < s.baseline_delivered);
        assert!(s.suppressed_delivered >= 2, "extremes must still arrive");
    }
}

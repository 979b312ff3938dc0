//! Selective forwarding (§VI): a compromised node silently drops traffic
//! it should relay.
//!
//! "Although such an attack is always possible when a node is compromised,
//! its consequences are insignificant since nearby nodes can have access
//! to the same information through their cluster keys." — because every
//! broadcast is readable by *all* closer neighbors (cluster keys, not
//! pairwise ones), the gradient flood routes around the mute node unless
//! it was the only downhill neighbor.

use wsn_core::setup::NetworkHandle;

/// Result of a selective-forwarding experiment.
#[derive(Clone, Debug)]
pub struct ForwardingReport {
    /// Readings attempted.
    pub attempted: usize,
    /// Readings the base station received.
    pub delivered: usize,
    /// Forwarders muted.
    pub muted: usize,
}

/// Mutes `fraction` of the sensors (every ⌈1/fraction⌉-th by ID), then
/// sends one reading from each of `sources` and counts deliveries.
pub fn run_with_muted_fraction(
    handle: &mut NetworkHandle,
    fraction: f64,
    sources: &[u32],
) -> ForwardingReport {
    assert!((0.0..1.0).contains(&fraction));
    let ids = handle.sensor_ids();
    let mut muted = 0;
    if fraction > 0.0 {
        let step = (1.0 / fraction).round() as usize;
        for (k, &id) in ids.iter().enumerate() {
            if k % step == 0 && !sources.contains(&id) {
                handle.sensor_mut(id).set_muted(true);
                muted += 1;
            }
        }
    }
    let before = handle.sink(0).received.len();
    for (k, &src) in sources.iter().enumerate() {
        handle.send_reading(src, format!("sf-{k}").into_bytes(), true);
    }
    ForwardingReport {
        attempted: sources.len(),
        delivered: handle.sink(0).received.len() - before,
        muted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_core::prelude::*;

    fn network(seed: u64) -> NetworkHandle {
        let mut o = run_setup(&SetupParams {
            n: 400,
            density: 16.0,
            seed,
            cfg: ProtocolConfig::default(),
        });
        o.handle.establish_gradient();
        o.handle
    }

    fn pick_sources(handle: &NetworkHandle, count: usize) -> Vec<u32> {
        let dist = handle.sim().topology().hop_distances(0);
        handle
            .sensor_ids()
            .into_iter()
            .filter(|&id| {
                let d = dist[id as usize];
                d != u32::MAX && d >= 2
            })
            .take(count)
            .collect()
    }

    #[test]
    fn baseline_delivery_is_complete() {
        let mut handle = network(1);
        let sources = pick_sources(&handle, 10);
        let r = run_with_muted_fraction(&mut handle, 0.0, &sources);
        assert_eq!(r.delivered, r.attempted);
        assert_eq!(r.muted, 0);
    }

    #[test]
    fn ten_percent_mute_barely_dents_delivery() {
        let mut handle = network(2);
        let sources = pick_sources(&handle, 10);
        let r = run_with_muted_fraction(&mut handle, 0.10, &sources);
        assert!(r.muted > 10);
        assert!(
            r.delivered >= r.attempted - 1,
            "multi-path forwarding should route around 10% mutes: {}/{}",
            r.delivered,
            r.attempted
        );
    }

    #[test]
    fn heavy_mute_degrades_but_does_not_zero() {
        let mut handle = network(3);
        let sources = pick_sources(&handle, 10);
        let r = run_with_muted_fraction(&mut handle, 0.5, &sources);
        assert!(
            r.delivered >= 1,
            "even at 50% mutes something should get through"
        );
    }
}

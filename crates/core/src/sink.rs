//! Multi-sink support: nearest-sink assignment, and the partitioned
//! base-station state that moves between sinks.
//!
//! The paper funnels every reading into a single base station; under
//! contention its one-hop ring is the delivery bottleneck (see the
//! overload figure). This module generalizes the single BS into a
//! **sink set**: node ids `0..K` are sinks, each floods its own
//! authenticated `SinkBeacon`, and sensors route each reading to the
//! *nearest* sink (deterministic tie-break by smaller sink id). There is
//! one routing model: a node keeps one gradient per sink in a
//! [`crate::routing::Gradients`] table, and a single-sink deployment is
//! the k = 1 case, with the base station as sink 0.
//!
//! BS-side per-node state — the `Ki` registry entry and the replay
//! counter window — is **partitioned** by node id: the home sink of
//! node `i` is `i % K`, and when gradient establishment shows a
//! different sink is nearer, the partition entry moves there via an
//! explicit handoff ([`SinkNodeState`], traced as `SinkHandoff` /
//! `SinkSync`). The sinks' own registries are the only record of which
//! sink holds a node. A failed sink's memory is never read: its share
//! is re-derived from the provisioning seed with a fresh replay window
//! (`NetworkHandle::fail_sink`). Cluster keys and the revocation hash chain are
//! *replicated* instead (every sink can unwrap any cluster's envelope;
//! only sink 0 issues revocations) — see DESIGN.md for the tradeoff.
//!
//! With the default config ([`SinkConfig::enabled`] off) K is 1, frames
//! keep the legacy `Beacon`/`Data` tags, and single-sink runs stay
//! byte-identical with pre-multi-sink builds.

use crate::config::SinkConfig;
use crate::forward::CounterWindow;
use wsn_crypto::Key128;
use wsn_sim::geom::Point;
use wsn_sim::topology::{Topology, TopologyConfig};

/// The per-node base-station state that a handoff moves between sinks:
/// the node's `Ki` registry entry plus its replay-counter window.
#[derive(Clone, Debug)]
pub struct SinkNodeState {
    /// The node whose partition entry this is.
    pub id: u32,
    /// Its individual key `Ki`.
    pub ki: Key128,
    /// Its BS-side replay/counter window (moves with the node so a
    /// handoff never re-opens the replay surface).
    pub window: CounterWindow,
}

/// The home (initial) sink of `node` in a `k`-sink deployment:
/// partition by node id.
pub fn home_sink(node: u32, k: u32) -> u32 {
    debug_assert!(k >= 1);
    node % k.max(1)
}

/// Deterministic sink placement: a centered grid over the deployment
/// square, `cols = ceil(sqrt(k))` columns. Independent of any RNG so
/// that the same seed with different `k` shares every sensor position.
pub fn sink_positions(k: u32, side: f64) -> Vec<Point> {
    assert!(k >= 1);
    let cols = (k as f64).sqrt().ceil() as u32;
    let rows = k.div_ceil(cols);
    (0..k)
        .map(|i| {
            let (col, row) = (i % cols, i / cols);
            Point::new(
                (col as f64 + 0.5) * side / cols as f64,
                (row as f64 + 0.5) * side / rows as f64,
            )
        })
        .collect()
}

/// The topology constructor for multi-sink runs. With sinks disabled
/// this is exactly `Topology::random(with_density(n, density), seed)` —
/// byte-identical with pre-multi-sink builds. With sinks enabled, the first
/// `sinks.count` node positions are overridden by the deterministic
/// [`sink_positions`] grid (sensors keep their random draws, so the
/// `k = 1` arm is a fair same-placement ablation for `k > 1`).
pub fn multi_sink_topology(n: usize, density: f64, seed: u64, sinks: &SinkConfig) -> Topology {
    let cfg = TopologyConfig::with_density(n, density);
    let topo = Topology::random(&cfg, seed);
    if !sinks.enabled {
        return topo;
    }
    assert!(
        (sinks.count as usize) < n,
        "need more nodes than sinks (n = {n}, sinks = {})",
        sinks.count
    );
    let mut positions: Vec<Point> = (0..n as u32).map(|i| topo.position(i)).collect();
    for (i, p) in sink_positions(sinks.count, cfg.side)
        .into_iter()
        .enumerate()
    {
        positions[i] = p;
    }
    Topology::from_positions(cfg, positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{Gradients, Route, NO_GRADIENT};

    #[test]
    fn nearest_prefers_fewer_hops_then_smaller_id() {
        let mut t = Gradients::new(4);
        assert_eq!(t.nearest(), None);
        t.observe_beacon(Route(2), 4); // 5 hops to sink 2
        t.observe_beacon(Route(1), 2); // 3 hops to sink 1
        assert_eq!(t.nearest(), Some((1, 3)));
        t.observe_beacon(Route(3), 2); // 3 hops to sink 3: tie, keep smaller id
        assert_eq!(t.nearest(), Some((1, 3)));
        t.observe_beacon(Route(0), 2); // 3 hops to sink 0: tie, smaller id wins
        assert_eq!(t.nearest(), Some((0, 3)));
        t.observe_beacon(Route(3), 0); // 1 hop to sink 3: strictly nearer wins
        assert_eq!(t.nearest(), Some((3, 1)));
    }

    #[test]
    fn table_forwarding_is_per_sink() {
        let mut t = Gradients::new(2);
        t.observe_beacon(Route(0), 1); // 2 hops to sink 0
        assert!(t.get(Route(0)).should_forward(3));
        assert!(!t.get(Route(0)).should_forward(2));
        assert!(!t.get(Route(1)).should_forward(3)); // no gradient to sink 1 at all
        assert!(!t.observe_beacon(Route::UNROUTED, 0)); // nor to no sink
        t.reset();
        assert!(!t.get(Route(0)).should_forward(9));
        assert_eq!(t.get(Route(0)).hops(), NO_GRADIENT);
    }

    #[test]
    fn home_partition_covers_all_sinks() {
        let k = 4;
        for sink in 0..k {
            let share = (4..40).filter(|&id| home_sink(id, k) == sink).count();
            assert_eq!(share, 9); // 36 nodes in all
        }
        assert_eq!(home_sink(7, k), 3);
        assert_eq!(home_sink(7, 1), 0); // one sink holds everyone
    }

    #[test]
    fn sink_grid_is_deterministic_and_in_bounds() {
        for k in 1..=9u32 {
            let a = sink_positions(k, 1000.0);
            let b = sink_positions(k, 1000.0);
            assert_eq!(a.len(), k as usize);
            for (pa, pb) in a.iter().zip(&b) {
                assert_eq!((pa.x, pa.y), (pb.x, pb.y));
                assert!(pa.x > 0.0 && pa.x < 1000.0);
                assert!(pa.y > 0.0 && pa.y < 1000.0);
            }
        }
        // k = 1 sits at the field center.
        let one = sink_positions(1, 1000.0);
        assert_eq!((one[0].x, one[0].y), (500.0, 500.0));
    }

    #[test]
    fn disabled_topology_matches_plain_random() {
        let plain = Topology::random(&TopologyConfig::with_density(50, 10.0), 7);
        let multi = multi_sink_topology(50, 10.0, 7, &SinkConfig::default());
        for i in 0..50u32 {
            assert_eq!(
                (plain.position(i).x, plain.position(i).y),
                (multi.position(i).x, multi.position(i).y)
            );
            assert_eq!(plain.neighbors(i), multi.neighbors(i));
        }
    }

    #[test]
    fn enabled_topology_only_moves_sinks() {
        let sinks = SinkConfig {
            enabled: true,
            count: 3,
        };
        let plain = Topology::random(&TopologyConfig::with_density(50, 10.0), 7);
        let multi = multi_sink_topology(50, 10.0, 7, &sinks);
        for i in 0..3u32 {
            let want = sink_positions(3, 1000.0)[i as usize];
            assert_eq!((multi.position(i).x, multi.position(i).y), (want.x, want.y));
        }
        for i in 3..50u32 {
            assert_eq!(
                (plain.position(i).x, plain.position(i).y),
                (multi.position(i).x, multi.position(i).y)
            );
        }
    }
}

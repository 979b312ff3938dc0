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
//! `SinkSync`). Cluster keys and the revocation hash chain are
//! *replicated* instead (every sink can unwrap any cluster's envelope;
//! only sink 0 issues revocations) — see DESIGN.md for the tradeoff.
//!
//! With the default config ([`SinkConfig::enabled`] off) K is 1, frames
//! keep the legacy `Beacon`/`Data` tags, and single-sink runs stay
//! byte-identical with pre-multi-sink builds.

use crate::config::SinkConfig;
use crate::forward::CounterWindow;
use std::collections::BTreeMap;
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

/// One planned ownership transfer of a node's partition entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Handoff {
    /// The node being re-homed.
    pub node: u32,
    /// Sink currently serving it.
    pub from: u32,
    /// Sink that should serve it next.
    pub to: u32,
}

/// Coordinator bookkeeping for a set of `K` sinks: which sink serves
/// which node, and the handoff plans when that changes.
///
/// This is pure bookkeeping — executing a plan (moving
/// [`SinkNodeState`] between [`BaseStation`](crate::base_station::BaseStation)s
/// and emitting trace events) is the harness's job, mirroring how
/// `set_cluster_key` syncs harness-side state elsewhere.
#[derive(Clone, Debug)]
pub struct SinkSet {
    k: u32,
    serving: BTreeMap<u32, u32>,
}

/// The home (initial) sink of `node` in a `k`-sink deployment:
/// partition by node id.
pub fn home_sink(node: u32, k: u32) -> u32 {
    debug_assert!(k >= 1);
    node % k.max(1)
}

impl SinkSet {
    /// Builds the initial partition: every provisioned node is served
    /// by its home sink.
    pub fn new(k: u32, nodes: impl IntoIterator<Item = u32>) -> Self {
        assert!(k >= 1, "need at least one sink");
        let serving = nodes.into_iter().map(|id| (id, home_sink(id, k))).collect();
        SinkSet { k, serving }
    }

    /// Number of sinks.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The sink currently serving `node`, if it is tracked.
    pub fn serving(&self, node: u32) -> Option<u32> {
        self.serving.get(&node).copied()
    }

    /// All nodes currently served by `sink`, ascending.
    pub fn nodes_served_by(&self, sink: u32) -> Vec<u32> {
        self.serving
            .iter()
            .filter(|&(_, &s)| s == sink)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Registers a node added after setup (joins at its home sink).
    pub fn track(&mut self, node: u32) {
        self.serving.insert(node, home_sink(node, self.k));
    }

    /// Plans (and records) the rehomes implied by a nearest-sink
    /// assignment: every tracked node whose nearest sink differs from
    /// its serving sink moves there. Nodes absent from `nearest`
    /// (no gradient yet) stay put. Returns the handoffs in ascending
    /// node order — deterministic for a deterministic assignment.
    pub fn plan_rehome(&mut self, nearest: &BTreeMap<u32, u32>) -> Vec<Handoff> {
        let mut moves = Vec::new();
        for (&node, cur) in self.serving.iter_mut() {
            if let Some(&want) = nearest.get(&node) {
                if want != *cur {
                    moves.push(Handoff {
                        node,
                        from: *cur,
                        to: want,
                    });
                    *cur = want;
                }
            }
        }
        moves
    }

    /// Plans (and records) the failover when `dead` stops serving:
    /// every node it served moves to `fallback(node)` (typically that
    /// node's nearest *surviving* sink). Returns the handoffs in
    /// ascending node order; no entry is ever dropped.
    pub fn plan_failover(
        &mut self,
        dead: u32,
        mut fallback: impl FnMut(u32) -> u32,
    ) -> Vec<Handoff> {
        let mut moves = Vec::new();
        for (&node, cur) in self.serving.iter_mut() {
            if *cur == dead {
                let to = fallback(node);
                debug_assert_ne!(
                    to, dead,
                    "fallback routed node {node} back to the dead sink"
                );
                moves.push(Handoff {
                    node,
                    from: dead,
                    to,
                });
                *cur = to;
            }
        }
        moves
    }
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
        let set = SinkSet::new(k, 4..40);
        for sink in 0..k {
            assert_eq!(set.nodes_served_by(sink).len(), 9); // 36 nodes in all
        }
        assert_eq!(set.serving(7), Some(3));
        assert_eq!(set.serving(3), None); // ids below 4 are sinks, untracked
    }

    #[test]
    fn rehome_moves_only_changed_nodes() {
        let mut set = SinkSet::new(2, 2..6);
        // Home: 2→0, 3→1, 4→0, 5→1. Nearest says 3→0 and 4→0 (no move).
        let nearest = BTreeMap::from([(3u32, 0u32), (4, 0)]);
        let moves = set.plan_rehome(&nearest);
        assert_eq!(
            moves,
            vec![Handoff {
                node: 3,
                from: 1,
                to: 0
            }]
        );
        assert_eq!(set.serving(3), Some(0));
        // Replaying the same assignment is a fixpoint.
        assert!(set.plan_rehome(&nearest).is_empty());
    }

    #[test]
    fn failover_conserves_entries() {
        let mut set = SinkSet::new(3, 3..30);
        let moves = set.plan_failover(1, |_| 0);
        assert_eq!(moves.len(), 9);
        assert!(set.nodes_served_by(1).is_empty());
        assert_eq!(set.nodes_served_by(0).len(), 18); // its own 9 + the moved 9
        for m in &moves {
            assert_eq!(m.from, 1);
            assert_eq!(m.to, 0);
        }
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

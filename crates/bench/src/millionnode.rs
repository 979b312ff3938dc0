//! The million-node experiment: one full key-setup phase at
//! `n >= 1_000_000` on the sharded simulator backend, reporting both
//! the deterministic protocol outcomes (the `millionnode` figure) and
//! the machine-dependent wall clock (the `millionnode_wallclock` table).
//!
//! Determinism contract: every column of the `millionnode` CSV is
//! shard-count-independent — the sharded engine produces byte-identical
//! networks for any `WSN_SHARDS`, and the row carries only
//! protocol-visible quantities (event counts, virtual time, election
//! statistics). Wall-clock and events/sec never enter that CSV; they go
//! to the separate [`millionnode_wallclock_table`], a measurement of the
//! host, not a reproducible figure.
//!
//! `WSN_MILLION_N` overrides the node count so CI can drive the same
//! code path at a few thousand nodes; the wall-clock table is only
//! written at the real scale (`n >= 1_000_000`).

use crate::MASTER_SEED;
use std::time::Instant;
use wsn_core::config::ProtocolConfig;
use wsn_core::setup::{Backend, Scenario, SetupParams};
use wsn_metrics::Table;
use wsn_sim::rng::derive_seed;
use wsn_sim::shard::Shards;

/// Full-scale node count; the experiment's claim is "a million motes,
/// one machine, deterministic".
pub const FULL_N: usize = 1_000_000;

/// Density of the million-node deployment. Mid-range of the paper's
/// sweep: dense enough for multi-node clusters, sparse enough that the
/// event count stays ~20 deliveries per node.
pub const DENSITY: f64 = 10.0;

/// The node count to run at: `WSN_MILLION_N` if set (CI smoke), else
/// [`FULL_N`].
pub fn million_n() -> usize {
    std::env::var("WSN_MILLION_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(FULL_N)
}

/// One million-node run's outcome.
#[derive(Clone, Debug)]
pub struct MillionNodeRow {
    /// Nodes deployed (including the base station).
    pub n: usize,
    /// Events the engine processed during setup (shard-count-invariant).
    pub events: u64,
    /// Virtual time at quiescence, in simulated milliseconds.
    pub virtual_ms: f64,
    /// Fraction of sensors elected cluster head.
    pub head_fraction: f64,
    /// Mean cluster keys held per node.
    pub keys_per_node: f64,
    /// Key-setup transmissions per node.
    pub msgs_per_node: f64,
    /// Wall-clock seconds for `Scenario::run` (machine-dependent —
    /// excluded from the CSV).
    pub wall_s: f64,
    /// Events per wall-clock second (machine-dependent — excluded from
    /// the CSV).
    pub events_per_sec: f64,
    /// Peak resident set of the process so far, in MiB (`VmHWM`; `None`
    /// where `/proc/self/status` is unavailable). Machine-dependent —
    /// excluded from the CSV. Covers everything the process ran before,
    /// so it measures this run only when `millionnode` runs alone.
    pub peak_rss_mb: Option<f64>,
}

/// The process's peak resident set in MiB, read from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Runs the setup phase at `n` nodes on the sharded backend
/// (`Shards::Auto`, so `WSN_SHARDS` selects the region count without a
/// rebuild) and measures it.
pub fn millionnode_run(n: usize) -> MillionNodeRow {
    let start = Instant::now();
    let outcome = Scenario::new(SetupParams {
        n,
        density: DENSITY,
        seed: derive_seed(MASTER_SEED, 1_000_000),
        cfg: ProtocolConfig::default(),
    })
    .backend(Backend::Sim {
        shards: Shards::Auto,
    })
    .run();
    let wall_s = start.elapsed().as_secs_f64();
    let events = outcome.handle.sim().events_processed();
    MillionNodeRow {
        n,
        events,
        virtual_ms: outcome.handle.sim().now() as f64 / 1_000.0,
        head_fraction: outcome.report.head_fraction,
        keys_per_node: outcome.report.mean_keys_per_node,
        msgs_per_node: outcome.report.msgs_per_node,
        wall_s,
        events_per_sec: events as f64 / wall_s,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// The deterministic figure table: one row, every column byte-identical
/// across `WSN_SHARDS` (and across machines).
pub fn millionnode_table(row: &MillionNodeRow) -> Table {
    let mut t = Table::new(&[
        "n",
        "setup events",
        "virtual time (ms)",
        "head fraction",
        "keys/node",
        "setup msgs/node",
    ]);
    t.row(&[
        row.n.to_string(),
        row.events.to_string(),
        format!("{:.3}", row.virtual_ms),
        format!("{:.4}", row.head_fraction),
        format!("{:.3}", row.keys_per_node),
        format!("{:.4}", row.msgs_per_node),
    ]);
    t
}

/// The machine-dependent wall-clock table for one run on `shards`
/// regions.
pub fn millionnode_wallclock_table(row: &MillionNodeRow, shards: usize) -> Table {
    let mut t = Table::new(&[
        "n",
        "shards",
        "setup events",
        "wall s",
        "events/s",
        "peak_rss_mb",
    ]);
    t.row(&[
        row.n.to_string(),
        shards.to_string(),
        row.events.to_string(),
        format!("{:.1}", row.wall_s),
        format!("{:.1}", row.events_per_sec),
        row.peak_rss_mb
            .map_or_else(|| "n/a".to_string(), |mb| format!("{mb:.1}")),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_row_is_sane() {
        std::env::remove_var("WSN_SHARDS");
        let r = millionnode_run(400);
        assert_eq!(r.n, 400);
        assert!(r.events > 0 && r.head_fraction > 0.0 && r.keys_per_node >= 1.0);
        assert!(r.virtual_ms > 0.0 && r.wall_s > 0.0);
        if cfg!(target_os = "linux") {
            assert!(r.peak_rss_mb.is_some_and(|mb| mb > 0.0));
        }
    }
}

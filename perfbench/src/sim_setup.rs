//! `sim-setup`: fresh localized key setup of a 40,000-node network on the
//! sharded simulator with two regions.
//!
//! Every node elects or joins a cluster head with HELLOs sealed under
//! `Km`, derives `Kci = F(KMC, i)`, establishes links to neighbouring
//! clusters and erases `Km`. The event core, the cross-region exchange and
//! per-node memory do the work; the data path, base-station verification,
//! sockets and the WAL do none. Each repetition is one full
//! `Scenario::run` on the sharded backend: deployment (topology,
//! provisioning, one app per node), the sharded protocol run to
//! quiescence, and the collapse into the single-heap engine. `setup_s` is
//! the median wall time of a repetition. The number of repetitions is set
//! by `--seconds`.

use crate::measure::{cpu_seconds, median, peak_rss_kib, Spans};
use crate::Run;
use std::time::Instant;
use wsn_core::config::ProtocolConfig;
use wsn_core::setup::{Backend, Scenario, SetupParams};
use wsn_core::stats::SetupReport;
use wsn_sim::Shards;

/// Network size, base station included.
const N: usize = 40_000;
/// Target mean neighbour count.
const DENSITY: f64 = 12.0;
/// Regions of the sharded engine (one per core of the reference host).
const REGIONS: usize = 2;
/// Repetitions per `--seconds` of run length (at least three).
const REPS_PER_SECOND: f64 = 0.8;

/// One repetition's measurements.
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    events: u64,
    report: SetupReport,
}

fn rep(seed: u64, spans: &mut Spans) -> Rep {
    let params = SetupParams {
        n: N,
        density: DENSITY,
        seed,
        cfg: ProtocolConfig::default(),
    };
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let outcome = spans.time("scenario.run", || {
        Scenario::new(params)
            .backend(Backend::Sim {
                shards: Shards::Fixed(REGIONS),
            })
            .run()
    });
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    Rep {
        wall_s,
        cpu_s,
        events: outcome.handle.sim().events_processed(),
        report: outcome.report,
    }
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Run {
    let mut spans = Spans::new(trace);
    let mut run = Run::default();
    let reps = ((seconds as f64 * REPS_PER_SECOND).round() as usize).max(3);

    let mut results: Vec<Rep> = Vec::with_capacity(reps);
    let mut rep_wall_s = Vec::with_capacity(reps);
    for _ in 0..reps {
        // The wall of a whole repetition includes dropping the network.
        let t = Instant::now();
        let r = rep(seed, &mut spans);
        rep_wall_s.push(t.elapsed().as_secs_f64());
        results.push(r);
    }

    let sensors = (N - 1) as u64;
    let mut unclustered = 0u64;
    for r in &results {
        unclustered += r
            .report
            .cluster_of
            .iter()
            .skip(1)
            .filter(|c| c.is_none())
            .count() as u64;
    }
    let first = &results[0];
    run.check("every sensor is in a cluster", unclustered == 0);
    run.check(
        format!(
            "mean keys per node {:.3} is in the paper's 2-4.5 band",
            first.report.mean_keys_per_node
        ),
        (2.0..=4.5).contains(&first.report.mean_keys_per_node),
    );
    run.check(
        "event and transmission counts repeat exactly across repetitions",
        results.iter().all(|r| {
            r.events == first.events && r.report.msgs_per_node == first.report.msgs_per_node
        }),
    );
    run.attempted = sensors * reps as u64;
    run.failed = unclustered;

    let wall: Vec<f64> = results.iter().map(|r| r.wall_s).collect();
    let cpu: Vec<f64> = results.iter().map(|r| r.cpu_s).collect();
    let wall_med = median(&wall);
    let half = results.len() / 2;
    run.note(
        "half_rate_ratio",
        wall[..half].iter().sum::<f64>() / wall[results.len() - half..].iter().sum::<f64>(),
    );
    run.note("exact.events", first.events as f64);
    run.note("reps", reps as f64);

    let peak_kib = peak_rss_kib();
    run.e2e("setup_s", wall_med);
    run.e2e("ops_per_s", sensors as f64 / wall_med);
    run.e2e("cpu_us_per_op", median(&cpu) * 1e6 / sensors as f64);
    run.e2e("latency_p50_ms", median(&rep_wall_s) * 1e3);
    run.e2e("peak_rss_mb", peak_kib / 1024.0);
    run.e2e("tx_per_op", first.report.msgs_per_node);

    run.layer("sim.setup_events", first.events as f64);
    run.layer(
        "sim.setup_parallel_efficiency",
        median(&cpu) / wall_med / REGIONS as f64,
    );
    run.layer("sim.rss_kb_per_node", peak_kib / N as f64);
    if trace {
        let (run_s, runs) = spans.self_time("scenario.run");
        run.layer(
            "sim.setup_ns_per_event",
            run_s * 1e9 / (runs as f64 * first.events as f64),
        );
        run.note("spans", spans.len() as f64);
    }
    run.spans = spans.to_jsonl();
    run
}

//! `sim-steady`: closed-loop readings through an established multi-hop
//! network on the single-heap simulator.
//!
//! n = 10,000 nodes at density 12 is tens of hops deep, so every reading
//! pays the per-hop Step-2 re-encryption (`wrap_frame` at each forwarder,
//! `unwrap_in` at every neighbour that overhears it) and the event core
//! many times over, and the base station's Step-1 open once. One reading
//! is in flight at a time: `send_reading` runs the network to quiescence
//! before the next source is drawn. The work is fixed — a warm-up that
//! fills the per-node dedup caches, then a number of timed readings set
//! by `--seconds` — so every simulated count repeats exactly for a seed.

use crate::measure::{cpu_seconds, median, peak_rss_kib, Spans};
use crate::Run;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use wsn_core::config::ProtocolConfig;
use wsn_core::setup::{NetworkHandle, Scenario, SetupParams};
use wsn_sim::rng::derive_seed;

/// Network size, base station included.
const N: usize = 10_000;
/// Deployment seed. The network is fixed and `--seed` orders the timed
/// readings: frames per reading differed by up to 9% between deployment
/// seeds, which would swamp every other change in the simulated counts.
const NETWORK_SEED: u64 = 2005;
/// Target mean neighbour count.
const DENSITY: f64 = 12.0;
/// Set-up samples per run (the serving network plus one after each chunk
/// of timed readings); `setup_s` is their median.
const SETUP_SAMPLES: usize = 17;
/// Untimed readings before the timed phase, so the 256-entry dedup
/// caches of the nodes on the busy paths near the base station are full.
const WARMUP: usize = 1_500;
/// Timed readings per `--seconds` of run length.
const READINGS_PER_SECOND: usize = 400;
/// Readings per batch in traced runs, which alternate traced and
/// untraced batches so host drift cancels out of the overhead estimate.
const TRACE_BATCH: usize = 50;

fn build(spans: &mut Spans) -> NetworkHandle {
    let params = SetupParams {
        n: N,
        density: DENSITY,
        seed: NETWORK_SEED,
        cfg: ProtocolConfig::default(),
    };
    let outcome = spans.time("scenario.run", || Scenario::new(params).run());
    let mut handle = outcome.handle;
    spans.time("handle.establish_gradient", || handle.establish_gradient());
    handle
}

/// Fisher-Yates shuffle.
fn shuffle(v: &mut [u32], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Exact simulated totals at one instant.
struct Totals {
    events: u64,
    tx: u64,
    rx: u64,
    received: usize,
}

fn totals(h: &NetworkHandle) -> Totals {
    Totals {
        events: h.sim().events_processed(),
        tx: h.sim().counters().total_tx_msgs(),
        rx: h.sim().counters().rx_msgs.iter().sum(),
        received: h.total_received(),
    }
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Run {
    let mut spans = Spans::new(trace);
    let mut run = Run::default();

    let t = Instant::now();
    let mut h = build(&mut spans);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    // Warm-up sources are drawn at random. The timed sources are a fixed
    // sample of distinct sensors, shuffled by the seed: a reading's cost
    // is heavy-tailed in its source, so a fresh random sample per seed
    // would move the simulated counts by several percent.
    let sensors = h.sensor_ids();
    let readings = READINGS_PER_SECOND * seconds as usize;
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x5EAD));
    let mut sample = sensors.clone();
    shuffle(
        &mut sample,
        &mut StdRng::seed_from_u64(derive_seed(NETWORK_SEED, 0x5A3B)),
    );
    let mut timed: Vec<u32> = sample.iter().cycle().take(readings).copied().collect();
    shuffle(&mut timed, &mut rng);
    let mut next = 0u64;
    let mut reading = || {
        next += 1;
        next.to_be_bytes().to_vec()
    };

    let warm = spans.enter("steady.warmup");
    for _ in 0..WARMUP {
        let src = sensors[rng.gen_range(0..sensors.len())];
        h.send_reading(src, reading(), true);
    }
    spans.exit(warm);

    let before = totals(&h);
    let mut lap_s = Vec::with_capacity(readings);
    let mut traced_lap_s = Vec::new();
    let (mut wall, mut cpu) = (0.0, 0.0);
    let mut peak_rss_mb = 0.0;
    let chunk = readings.div_ceil(SETUP_SAMPLES - 1);
    for (c, sources) in timed.chunks(chunk).enumerate() {
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        for (j, &src) in sources.iter().enumerate() {
            // Traced runs alternate traced and untraced batches.
            let traced = trace && ((c * chunk + j) / TRACE_BATCH) % 2 == 1;
            spans.set_enabled(traced);
            let data = reading();
            let t = Instant::now();
            spans.time("handle.send_reading", || h.send_reading(src, data, true));
            let dt = t.elapsed().as_secs_f64();
            if traced {
                traced_lap_s.push(dt);
            } else {
                lap_s.push(dt);
            }
        }
        wall += start.elapsed().as_secs_f64();
        cpu += cpu_seconds() - cpu0;
        spans.set_enabled(trace);
        if c == 0 {
            // Memory of the serving network, before the extra set-ups.
            peak_rss_mb = peak_rss_kib() / 1024.0;
        }
        // One more set-up sample after every chunk, so the samples see the
        // same host conditions as the readings do: this host's speed
        // drifts over tens of seconds, and back-to-back set-ups all land
        // in one stretch of it.
        let t = Instant::now();
        let extra = build(&mut spans);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(extra);
    }
    let after = totals(&h);

    let delivered = (after.received - before.received) as u64;
    let readings = readings as u64;
    let all_delivered = after.received == WARMUP + readings as usize;
    run.check("every reading reached the base station", all_delivered);
    run.attempted = WARMUP as u64 + readings;
    run.failed = run.attempted - after.received as u64;

    let events = (after.events - before.events) as f64 / readings as f64;
    let tx = (after.tx - before.tx) as f64 / readings as f64;
    let rx = (after.rx - before.rx) as f64 / readings as f64;

    // Plateau check: second-half over first-half rate of the timed laps.
    let half = lap_s.len() / 2;
    run.note(
        "half_rate_ratio",
        lap_s[..half].iter().sum::<f64>() / lap_s[half..].iter().sum::<f64>(),
    );

    let per_reading_s = median(&lap_s);
    run.e2e("setup_s", median(&setup_s));
    run.e2e("ops_per_s", delivered as f64 / wall);
    run.e2e("cpu_us_per_op", cpu * 1e6 / delivered as f64);
    run.e2e("latency_p50_ms", per_reading_s * 1e3);
    run.e2e("peak_rss_mb", peak_rss_mb);
    run.e2e("tx_per_op", tx);

    run.layer("sim.events_per_reading", events);
    run.layer("sim.rx_per_reading", rx);
    run.note("exact.events", (after.events - before.events) as f64);
    run.note("exact.tx", (after.tx - before.tx) as f64);
    if trace {
        let (send_s, sends) = spans.self_time("handle.send_reading");
        run.layer("sim.ns_per_event", send_s * 1e9 / (sends as f64 * events));
        let traced = median(&traced_lap_s);
        run.layer("trace.overhead_share", traced / per_reading_s - 1.0);
        run.note("spans", spans.len() as f64);
        run.stage_input("sim-steady.tx", tx);
        run.stage_input("sim-steady.rx", rx);
        run.stage_input("sim-steady.events", events);
        let mean_s = lap_s.iter().sum::<f64>() / lap_s.len() as f64;
        run.stage_input("sim-steady.per_reading_us", mean_s * 1e6);
    }
    run.spans = spans.to_jsonl();
    run
}

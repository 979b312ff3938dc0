//! `wsn-perfbench`: the repository's benchmark.
//!
//! ```text
//! wsn-perfbench --workload <sim-setup|sim-steady|udp-durable> --seed <n> \
//!               --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload untraced and prints
//! every end-to-end metric; with `--trace 1` it prints every per-layer
//! metric instead: micro-timings of each module's public functions, the
//! workload's layer counts, span self times, and the attributed share of
//! one reading's cost. The last stdout line is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Diagnostics go to
//! stderr as `perfbench: note <name> <value>` lines. A failed correctness
//! check prints `"correct": false` and exits 1. See `perfbench/README.md`.

mod layers;
mod measure;
mod sim_setup;
mod sim_steady;
mod udp_durable;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// End-to-end metrics and their units; every workload reports all of
/// them (see README for what each means on each workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("tx_per_op", "count"),
];

/// Per-layer metrics and their units. A workload that does not exercise
/// a layer reports 0 for that layer's workload-specific metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("crypto.rc5_block_ns", "ns"),
    ("crypto.aead_seal_32b_ns", "ns"),
    ("crypto.aead_open_32b_ns", "ns"),
    ("crypto.cbcmac_64b_ns", "ns"),
    ("crypto.hmac_sha256_32b_ns", "ns"),
    ("crypto.prf_derive_ns", "ns"),
    ("forward.wrap_frame_ns", "ns"),
    ("forward.unwrap_in_ns", "ns"),
    ("forward.e2e_seal_ns", "ns"),
    ("forward.e2e_open_ns", "ns"),
    ("forward.counter_accept_ns", "ns"),
    ("setup.hello_seal_ns", "ns"),
    ("setup.hello_open_ns", "ns"),
    ("keys.provision_us_per_node", "us"),
    ("bs.dispatch_reading_us", "us"),
    ("sim.event_queue_ns", "ns"),
    ("sim.events_per_reading", "count"),
    ("sim.rx_per_reading", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.setup_events", "count"),
    ("sim.setup_ns_per_event", "ns"),
    ("sim.setup_parallel_efficiency", "ratio"),
    ("sim.rss_kb_per_node", "KiB"),
    ("udp.datagrams_rx_per_reading", "count"),
    ("udp.datagrams_tx_per_reading", "count"),
    ("udp.queue_full_drops", "count"),
    ("udp.syscall_roundtrip_us", "us"),
    ("udp.ack_p99_ms", "ms"),
    ("udp.ack_samples", "count"),
    ("udp.restart_ms", "ms"),
    ("load.next_reading_us", "us"),
    ("load.retransmits", "count"),
    ("load.send_errors", "count"),
    ("wal.appends_per_reading", "count"),
    ("wal.bytes_per_reading", "bytes"),
    ("wal.append_us", "us"),
    ("wal.snapshots_written", "count"),
    ("wal.replay_ms", "ms"),
    ("stages.sim-steady.attributed_share", "ratio"),
    ("stages.sim-steady.unattributed_share", "ratio"),
    ("stages.udp-durable.attributed_share", "ratio"),
    ("stages.udp-durable.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Run {
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    /// Exact per-reading counts and measured per-reading time the stage
    /// attribution needs (traced runs only).
    stage_inputs: BTreeMap<&'static str, f64>,
    notes: Vec<(&'static str, f64)>,
    checks: Vec<(String, bool)>,
    /// Operations attempted and failed, as the result line reports them.
    pub attempted: u64,
    pub failed: u64,
    /// Recorded spans, JSON lines (traced runs only).
    pub spans: String,
}

impl Run {
    pub fn e2e(&mut self, name: &'static str, v: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unknown end-to-end metric {name}"
        );
        self.e2e.insert(name, v);
    }

    pub fn layer(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, v);
    }

    pub fn stage_input(&mut self, name: &'static str, v: f64) {
        self.stage_inputs.insert(name, v);
    }

    pub fn note(&mut self, name: &'static str, v: f64) {
        self.notes.push((name, v));
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }
}

/// Scratch space for a run: state directories and span files. Relative
/// to the working directory, which is the root of the checkout.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("wsn-perfbench: {msg}");
    eprintln!(
        "usage: wsn-perfbench --workload <sim-setup|sim-steady|udp-durable> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|s| *s >= 1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed must be an integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be a positive integer")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
    }
}

fn main() {
    let args = parse_args();
    let mut run = match args.workload.as_str() {
        "sim-setup" => sim_setup::run(args.seed, args.seconds, args.trace),
        "sim-steady" => sim_steady::run(args.seed, args.seconds, args.trace),
        "udp-durable" => udp_durable::run(args.seed, args.seconds, args.trace),
        other => usage(&format!("unknown workload {other}")),
    };
    if args.trace {
        layers::measure_all(&mut run);
        layers::attribute_stages(&mut run);
        write_spans(&args, &run);
    }
    // Leaves `.perfbench/` behind only when it holds span files.
    let _ = std::fs::remove_dir(scratch_dir());

    for (name, v) in &run.notes {
        eprintln!("perfbench: note {name} {v}");
    }
    let mut correct = true;
    for (what, ok) in &run.checks {
        eprintln!(
            "perfbench: check {} {what}",
            if *ok { "ok  " } else { "FAIL" }
        );
        correct &= ok;
    }

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let values = if args.trace { &run.layers } else { &run.e2e };
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let v = match values.get(name) {
            Some(v) => *v,
            // A layer the workload does not exercise does no work on it.
            None if args.trace => 0.0,
            None => panic!("workload {} did not measure {name}", args.workload),
        };
        assert!(v.is_finite(), "metric {name} is not finite: {v}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        run.attempted, run.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Writes the traced run's spans to `.perfbench/spans-<workload>-<seed>.jsonl`.
fn write_spans(args: &Args, run: &Run) {
    let dir = scratch_dir();
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &run.spans));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

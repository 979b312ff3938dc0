//! `perf` — the hot-path performance harness behind `BENCH_perf.json`.
//!
//! Measures two layers and writes both into one JSON file at the repo
//! root, so every later PR is compared against the same trajectory:
//!
//! * **Microbenches** (criterion-style median-of-samples): raw block
//!   ciphers, the RC5 AEAD frame seal/open, CBC-MAC, HMAC-SHA256, the
//!   PRF, and the full HELLO `seal_setup`/`open_setup` round trip.
//! * **End-to-end sweeps**: wall-clock setup throughput (protocol
//!   events per second over a full key-setup run) and steady-state
//!   reading throughput (sealed readings pushed through an established
//!   gradient to the base station, per second). The steady-state number
//!   is the headline figure the ≥1.3× acceptance gate in ISSUE 3 is
//!   judged on.
//!
//! ## Usage
//!
//! ```text
//! perf --baseline          # record the pre-change numbers
//! perf                     # record current numbers + speedups vs baseline
//! perf --quick             # CI smoke mode: tiny sample counts
//! perf --out <path>        # write somewhere other than ./BENCH_perf.json
//! ```
//!
//! A `--baseline` run rewrites the whole file with only a `baseline`
//! section. A default run re-reads the existing file, carries the
//! recorded `baseline` section over verbatim, and adds `current` plus a
//! `speedup` table (current over baseline, higher is better). See the
//! "Perf baseline" section of EXPERIMENTS.md for methodology.

use std::time::Instant;

use criterion::black_box;
use wsn_core::config::ProtocolConfig;
use wsn_core::forward;
use wsn_core::setup::{Scenario, SetupParams};
use wsn_crypto::aes::Aes128;
use wsn_crypto::authenc::AuthEnc;
use wsn_crypto::cbcmac::CbcMac;
use wsn_crypto::hmac::HmacSha256;
use wsn_crypto::prf::Prf;
use wsn_crypto::rc5::Rc5;
use wsn_crypto::{BlockCipher, Key128};

/// Network size for the end-to-end sweeps (includes the base station).
const E2E_N: usize = 150;
/// Target density for the end-to-end sweeps.
const E2E_DENSITY: f64 = 12.0;
/// Seed for the end-to-end sweeps (fixed: the harness measures time,
/// not protocol behavior, so every run replays the same event stream).
const E2E_SEED: u64 = 2005;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline = args.iter().any(|a| a == "--baseline");
    let quick = args.iter().any(|a| a == "--quick");
    let out_flag = args.iter().position(|a| a == "--out");
    let out = out_flag
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_perf.json".to_string());
    for (i, a) in args.iter().enumerate() {
        let is_out_value = out_flag.is_some_and(|f| i == f + 1);
        if a != "--baseline" && a != "--quick" && a != "--out" && !is_out_value {
            eprintln!("unknown argument: {a}");
            eprintln!("usage: perf [--baseline] [--quick] [--out <path>]");
            std::process::exit(2);
        }
    }

    let samples = if quick { 7 } else { 31 };
    let section = if baseline { "baseline" } else { "current" };
    println!(
        "perf: recording `{section}` ({} mode, {samples} samples/bench) -> {out}",
        if quick { "quick" } else { "full" }
    );

    let micro = run_micro(samples);
    let e2e = run_end_to_end(quick);

    let measured = render_section(&micro, &e2e);
    let json = if baseline {
        render_file(quick, &measured, None)
    } else {
        let prior = std::fs::read_to_string(&out).ok();
        let prior_baseline = prior.as_deref().and_then(|s| extract_object(s, "baseline"));
        match prior_baseline {
            Some(b) => {
                let speedup = render_speedups(&b, &micro, &e2e);
                render_file(quick, &b, Some((&measured, &speedup)))
            }
            None => {
                eprintln!(
                    "perf: no baseline recorded in {out}; writing current run as the baseline"
                );
                render_file(quick, &measured, None)
            }
        }
    };

    std::fs::write(&out, json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("perf: wrote {out}");
}

/// One microbench measurement: `(json_key, ns_per_op)`.
type Micro = (&'static str, f64);

/// Times `f` with the same methodology as the vendored criterion:
/// calibrate, size iterations for ~2 ms per sample, report the median.
fn measure<R, F: FnMut() -> R>(samples: usize, mut f: F) -> f64 {
    let start = Instant::now();
    black_box(f());
    let est_ns = (start.elapsed().as_nanos() as f64).max(1.0);
    let iters = ((2_000_000.0 / est_ns) as u64).clamp(1, 1_000_000);

    let mut laps: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        laps.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    laps.sort_by(|a, b| a.partial_cmp(b).unwrap());
    laps[laps.len() / 2]
}

fn run_micro(samples: usize) -> Vec<Micro> {
    let key = Key128::from_bytes([0x42; 16]);
    let k2 = Key128::from_bytes([0x17; 16]);
    let payload32 = [0xA5u8; 32];
    let payload64 = [0x5Au8; 64];

    let mut out: Vec<Micro> = Vec::new();
    let mut bench = |name: &'static str, ns: f64| {
        println!("  {name:<34} {:>12.1} ns/op", ns);
        out.push((name, ns));
    };

    let rc5 = Rc5::new(&key);
    let mut block8 = [0u8; 8];
    bench(
        "rc5_block_encrypt",
        measure(samples, || {
            rc5.encrypt_block(&mut block8);
            black_box(block8)
        }),
    );

    let aes = Aes128::new(&key);
    let mut block16 = [0u8; 16];
    bench(
        "aes128_block_encrypt",
        measure(samples, || {
            aes.encrypt_block(&mut block16);
            black_box(block16)
        }),
    );

    bench(
        "hmac_sha256_32B",
        measure(samples, || HmacSha256::mac(key.as_bytes(), &payload32)),
    );

    bench("prf_derive", measure(samples, || Prf::derive(&key, &[0])));

    let mac = CbcMac::new(Rc5::new(&key));
    bench("cbcmac_tag_64B", measure(samples, || mac.tag(&payload64)));

    let ae = AuthEnc::new(key, k2);
    bench(
        "aead_seal_32B",
        measure(samples, || ae.seal(42, &payload32)),
    );
    let sealed = ae.seal(42, &payload32);
    bench(
        "aead_open_32B",
        measure(samples, || ae.open(42, &sealed).unwrap()),
    );

    // The protocol-level HELLO path: derive the sealer from the node's
    // master key, seal `id ‖ K_ci`, then open it as the receiver would.
    // This is the per-message cost the schedule cache attacks.
    bench(
        "hello_seal",
        measure(samples, || forward::seal_setup(&key, 9, 1, 9, &k2)),
    );
    let (nonce, hello) = forward::seal_setup(&key, 9, 1, 9, &k2);
    bench(
        "hello_roundtrip",
        measure(samples, || {
            let (n2, sealed) = forward::seal_setup(&key, 9, 1, 9, &k2);
            forward::open_setup(&key, n2, &sealed).unwrap()
        }),
    );
    let _ = (nonce, hello);

    out
}

/// End-to-end results: `(json_key, value)`; rates are per wall-clock
/// second, times in milliseconds.
type EndToEnd = (&'static str, f64);

fn run_end_to_end(quick: bool) -> Vec<EndToEnd> {
    let params = SetupParams {
        n: E2E_N,
        density: E2E_DENSITY,
        seed: E2E_SEED,
        cfg: ProtocolConfig::default(),
    };

    // Setup throughput: full key-setup run, measured as protocol events
    // processed per second. Median of a few complete runs.
    let setup_runs = if quick { 3 } else { 7 };
    let mut laps: Vec<(f64, u64)> = Vec::with_capacity(setup_runs);
    for _ in 0..setup_runs {
        let start = Instant::now();
        let outcome = Scenario::new(params.clone()).run();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        laps.push((ms, outcome.handle.sim().events_processed()));
    }
    laps.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let (setup_ms, setup_events) = laps[laps.len() / 2];
    let setup_events_per_sec = setup_events as f64 / (setup_ms / 1e3);

    // Steady state: sealed readings pushed through the established
    // gradient, one at a time, each run to quiescence — the pattern
    // every figure sweep repeats thousands of times. Median rate over a
    // few passes on the same warm network.
    let outcome = Scenario::new(params).run();
    let mut handle = outcome.handle;
    handle.establish_gradient();
    let sensors = handle.sensor_ids();
    let readings = if quick { 40 } else { 240 };
    let passes = if quick { 3 } else { 5 };
    // Warm-up pass so lazy state (routes, dedup tables) is populated.
    for i in 0..20usize {
        let src = sensors[i % sensors.len()];
        handle.send_reading(src, vec![0x5E, i as u8], true);
    }
    let mut rates: Vec<f64> = Vec::with_capacity(passes);
    for pass in 0..passes {
        let start = Instant::now();
        for i in 0..readings {
            let src = sensors[(pass * 7 + i) % sensors.len()];
            handle.send_reading(src, vec![0x5E, i as u8], true);
        }
        rates.push(readings as f64 / start.elapsed().as_secs_f64());
    }
    rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let steady = rates[rates.len() / 2];

    println!("  setup: {setup_ms:.1} ms ({setup_events_per_sec:.0} events/s)");
    println!("  steady_state: {steady:.1} readings/s");

    vec![
        ("setup_ms", setup_ms),
        ("setup_events_per_sec", setup_events_per_sec),
        ("steady_state_readings_per_sec", steady),
    ]
}

// ---------------------------------------------------------------------
// Hand-rolled JSON (the workspace has no serde; the format is flat
// enough that string assembly plus a balanced-brace extractor is fine).
// ---------------------------------------------------------------------

fn render_section(micro: &[Micro], e2e: &[EndToEnd]) -> String {
    let micro_body: Vec<String> = micro
        .iter()
        .map(|(k, v)| format!("      \"{k}\": {v:.1}"))
        .collect();
    let e2e_body: Vec<String> = e2e
        .iter()
        .map(|(k, v)| format!("      \"{k}\": {v:.1}"))
        .collect();
    format!(
        "{{\n    \"micro_ns_per_op\": {{\n{}\n    }},\n    \"end_to_end\": {{\n{}\n    }}\n  }}",
        micro_body.join(",\n"),
        e2e_body.join(",\n")
    )
}

fn render_speedups(baseline: &str, micro: &[Micro], e2e: &[EndToEnd]) -> String {
    let mut rows: Vec<String> = Vec::new();
    // Microbench speedup = baseline ns / current ns.
    for (k, cur) in micro {
        if let Some(base) = json_number(baseline, k) {
            if *cur > 0.0 {
                rows.push(format!("    \"{k}\": {:.2}", base / cur));
            }
        }
    }
    // Rate speedup = current rate / baseline rate.
    for (k, cur) in e2e {
        if *k == "setup_ms" {
            continue; // covered by events_per_sec
        }
        if let Some(base) = json_number(baseline, k) {
            if base > 0.0 {
                rows.push(format!("    \"{k}\": {:.2}", cur / base));
            }
        }
    }
    format!("{{\n{}\n  }}", rows.join(",\n"))
}

fn render_file(quick: bool, baseline: &str, current: Option<(&str, &str)>) -> String {
    let mode = if quick { "quick" } else { "full" };
    match current {
        None => format!(
            "{{\n  \"schema\": \"wsn-perf/1\",\n  \"mode\": \"{mode}\",\n  \
             \"baseline\": {baseline},\n  \"current\": null,\n  \"speedup\": null\n}}\n"
        ),
        Some((cur, speedup)) => format!(
            "{{\n  \"schema\": \"wsn-perf/1\",\n  \"mode\": \"{mode}\",\n  \
             \"baseline\": {baseline},\n  \"current\": {cur},\n  \"speedup\": {speedup}\n}}\n"
        ),
    }
}

/// Extracts the balanced `{...}` object following `"key":` — enough of
/// a parser for the file this binary itself writes.
fn extract_object(json: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = &json[at..];
    let open = rest.find('{')?;
    // No string in this format contains braces, so a depth counter is
    // sufficient.
    let mut depth = 0usize;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[open..open + i + 1].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Finds `"key": <number>` inside `obj` and parses the number.
fn json_number(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

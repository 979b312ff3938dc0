//! `motegen`: the load generator — multiplexes a large population of
//! simulated motes (each a singleton cluster head provisioned from the
//! shared seed) over a bounded UDP socket pool against a running
//! `wsn-bs`, and reports sustained readings/s plus ACK round-trip
//! percentiles.
//!
//! ```text
//! motegen --target 127.0.0.1:47800 --motes 100000 --seed 2005 --duration 30
//! ```
//!
//! Multiple reader ports can be sprayed round-robin:
//! `--target 127.0.0.1:47800,127.0.0.1:47801`.

use std::net::SocketAddr;
use std::time::{Duration, Instant};
use wsn_net::cli::{num, opt};
use wsn_net::load::{provision_motes, run, EpochSchedule, LoadParams, RetryConfig};
use wsn_net::FaultConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: motegen --target HOST:PORT[,HOST:PORT...] [--motes M] [--seed S]\n\
             \x20              [--senders P] [--duration SECS] [--payload BYTES]\n\
             \x20              [--rate READINGS_PER_SEC] [--sample 1_IN_K] [--sinks K]\n\
             \x20              [--arq] [--timeout-ms MS] [--retries N] [--window W]\n\
             \x20              [--failover] [--fault-seed S] [--genesis UNIX_US]\n\
             \x20              [--refresh-period SECS] [--refresh-epochs N]"
        );
        return;
    }
    let targets: Vec<SocketAddr> = opt(&args, "--target")
        .unwrap_or_else(|| "127.0.0.1:47800".to_string())
        .split(',')
        .map(|t| {
            t.parse().unwrap_or_else(|_| {
                eprintln!("bad target address: {t}");
                std::process::exit(2);
            })
        })
        .collect();
    let params = LoadParams {
        motes: num(&args, "--motes", 100_000) as usize,
        seed: num(&args, "--seed", 2005),
        targets,
        senders: num(&args, "--senders", 2) as usize,
        duration: Duration::from_secs(num(&args, "--duration", 30)),
        payload_bytes: num(&args, "--payload", 24) as usize,
        rate: opt(&args, "--rate").map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --rate: {v}");
                std::process::exit(2);
            })
        }),
        latency_sample: num(&args, "--sample", 64),
        // --sinks K: mote id → target id % K (a fleet of partitioned
        // `wsn-bs --sink I --sinks K` daemons), instead of round-robin.
        sinks: num(&args, "--sinks", 1) as usize,
        // --arq: retransmit until acknowledged; the knobs default to
        // the crash-soak schedule.
        retry: args.iter().any(|a| a == "--arq").then(|| {
            let soak = RetryConfig::soak();
            RetryConfig {
                timeout_us: num(&args, "--timeout-ms", soak.timeout_us / 1000) * 1000,
                max_retries: num(&args, "--retries", soak.max_retries as u64) as u32,
                window: num(&args, "--window", soak.window as u64) as usize,
                ..soak
            }
        }),
        // --fault-seed S: wrap every sender socket in the deterministic
        // fault shim with the crash-soak schedule (10% bursty drop +
        // reorder), sub-seeded per thread.
        faults: opt(&args, "--fault-seed").map(|v| {
            FaultConfig::soak(v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --fault-seed: {v}");
                std::process::exit(2);
            }))
        }),
        // Shared wall-clock refresh schedule, mirroring the daemon's
        // `--genesis/--refresh-*` flags.
        epochs: (num(&args, "--refresh-epochs", 0) > 0).then(|| EpochSchedule {
            genesis_us: num(&args, "--genesis", 0),
            period_us: num(&args, "--refresh-period", 60) * 1_000_000,
            max_epochs: num(&args, "--refresh-epochs", 0) as u32,
        }),
        // --failover: rotate ARQ-exhausted readings to the next sink
        // in the failover order (needs --arq and --sinks > 1).
        failover: args.iter().any(|a| a == "--failover"),
    };
    if params.failover && (params.retry.is_none() || params.sinks <= 1) {
        eprintln!("motegen: --failover requires --arq and --sinks > 1");
        std::process::exit(2);
    }
    if params.sinks > 1 && params.targets.len() < params.sinks {
        eprintln!(
            "motegen: --sinks {} needs {} targets, got {}",
            params.sinks,
            params.sinks,
            params.targets.len()
        );
        std::process::exit(2);
    }

    eprintln!(
        "motegen: provisioning {} motes (seed {}) and precomputing cipher schedules...",
        params.motes, params.seed
    );
    let t0 = Instant::now();
    let army = provision_motes(params.motes, params.seed);
    eprintln!(
        "motegen: army ready in {:?}; sending for {:?}",
        t0.elapsed(),
        params.duration
    );

    let report = run(&params, army).unwrap_or_else(|e| {
        eprintln!("motegen: load run failed: {e}");
        std::process::exit(1);
    });
    println!(
        "motes {} | sent {} in {:.1}s = {:.0} readings/s | acks {} | send errors {} \
         (retried {})",
        report.motes,
        report.sent,
        report.elapsed.as_secs_f64(),
        report.sent_per_sec,
        report.acks_seen,
        report.send_errors,
        report.socket_retries,
    );
    if params.retry.is_some() {
        println!(
            "arq: acked {}/{} = {:.2}% | retransmits {} | gave up {} | failovers {}",
            report.acked,
            report.sent,
            report.ack_rate() * 100.0,
            report.retransmits,
            report.gave_up,
            report.failovers,
        );
    }
    match (report.p50_us, report.p99_us) {
        (Some(p50), Some(p99)) => println!(
            "latency ({} samples): p50 {:.2} ms | p99 {:.2} ms",
            report.latency_samples,
            p50 as f64 / 1000.0,
            p99 as f64 / 1000.0
        ),
        _ => println!("latency: no samples matched (is the server running with recovery?)"),
    }
}

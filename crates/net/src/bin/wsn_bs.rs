//! `wsn-bs`: the base-station daemon, serving the protocol over real
//! UDP sockets.
//!
//! Pair it with `motegen` on the same (or another) host:
//!
//! ```text
//! wsn-bs  --port 47800 --motes 100000 --seed 2005 --duration 40 &
//! motegen --target 127.0.0.1:47800 --motes 100000 --seed 2005 --duration 30
//! ```
//!
//! The daemon provisions key material for `motes + 1` node ids from the
//! shared seed, spawns the sharded reactor (readers on consecutive
//! ports from `--port`), and prints a stats line every `--interval`
//! seconds until `--duration` elapses (0 = run until killed).

use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use wsn_core::config::{CounterMode, ProtocolConfig, RecoveryConfig, ResourceConfig};
use wsn_net::cli::{num, opt};
use wsn_net::daemon::DaemonErrors;
use wsn_net::{ControlPlane, ControlPlaneConfig, ControlTiming, FaultConfig};
use wsn_net::{UdpServer, UdpServerConfig};

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if flag(&args, "--help") || flag(&args, "-h") {
        eprintln!(
            "usage: wsn-bs [--port P] [--readers R] [--workers W] [--motes M] [--seed S]\n\
             \x20             [--admit] [--admit-rate N] [--admit-burst N]\n\
             \x20             [--rcvbuf BYTES] [--sink I --sinks K]\n\
             \x20             [--state-dir DIR] [--dedup N] [--snapshot-bytes B]\n\
             \x20             [--genesis UNIX_US] [--refresh-period SECS] [--refresh-epochs N]\n\
             \x20             [--ctrl-port P --ctrl-peers A0,A1,...] [--ctrl-fault-seed S]\n\
             \x20             [--hb-ms MS] [--suspect-ms MS] [--strikes N]\n\
             \x20             [--duration SECS] [--interval SECS]"
        );
        return;
    }
    let port = num(&args, "--port", 47800) as u16;
    let readers = num(&args, "--readers", 1) as usize;
    let workers = num(&args, "--workers", 1) as usize;
    let motes = num(&args, "--motes", 100_000) as usize;
    let seed = num(&args, "--seed", 2005);
    let duration = num(&args, "--duration", 0);
    let interval = num(&args, "--interval", 5).max(1);

    // Recovery on (the BS ACKs every accepted reading, which is what
    // motegen measures RTT against); explicit counters so drops never
    // desynchronize the end-to-end window.
    let mut cfg = ProtocolConfig::default()
        .with_recovery(RecoveryConfig::default())
        .with_counter_mode(CounterMode::Explicit);
    // A bigger dedup ring lets ARQ retransmits of long-gone readings
    // still find their ACK during crash soaks.
    cfg.dedup_cache = num(&args, "--dedup", cfg.dedup_cache as u64) as usize;

    // Wall-clock refresh schedule shared with the generator: epoch k
    // begins at --genesis + k * --refresh-period, so a restarted daemon
    // and every mote agree on the current epoch with no handshake.
    let refresh_epochs = num(&args, "--refresh-epochs", 0) as u32;
    if refresh_epochs > 0 {
        let genesis = num(&args, "--genesis", 0);
        if genesis == 0 {
            eprintln!("wsn-bs: --refresh-epochs needs --genesis UNIX_US");
            std::process::exit(2);
        }
        let period = num(&args, "--refresh-period", 60) * 1_000_000;
        cfg.erase_km_at = genesis;
        cfg = cfg.with_auto_refresh(refresh_epochs, period);
    }

    let state_dir = opt(&args, "--state-dir").map(std::path::PathBuf::from);

    let admission = flag(&args, "--admit").then(|| ResourceConfig {
        enabled: true,
        neighbor_rate_per_sec: num(&args, "--admit-rate", 50),
        neighbor_burst: num(&args, "--admit-burst", 25),
        ..ResourceConfig::default()
    });

    // Multi-sink deployment: `--sink I --sinks K` makes this process
    // sink I of K — it holds only the `Ki` entries of motes whose home
    // sink (id mod K) is I. Run K daemons on distinct ports and point
    // `motegen --sinks K` at all of them.
    let sinks = num(&args, "--sinks", 1) as u32;
    let sink_partition = (sinks > 1).then(|| {
        let sink = num(&args, "--sink", 0) as u32;
        (sink, sinks)
    });

    let n = motes + 1;
    eprintln!("wsn-bs: provisioning {n} node ids (seed {seed})...");
    let t0 = Instant::now();
    let server = UdpServer::spawn(UdpServerConfig {
        bind: opt(&args, "--bind").unwrap_or_else(|| "0.0.0.0".to_string()),
        base_port: port,
        readers,
        workers,
        n,
        seed,
        cfg,
        admission,
        queue_depth: num(&args, "--queue", 4096) as usize,
        rcvbuf: opt(&args, "--rcvbuf").map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --rcvbuf: {v}");
                std::process::exit(2);
            })
        }),
        sink_partition,
        state_dir: state_dir.clone(),
        snapshot_every_bytes: opt(&args, "--snapshot-bytes").map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for --snapshot-bytes: {v}");
                std::process::exit(2);
            })
        }),
    })
    .unwrap_or_else(|e| {
        eprintln!("wsn-bs: spawn failed: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "wsn-bs: up in {:?}; readers on ports {:?}, {workers} worker shard(s)",
        t0.elapsed(),
        server.ports()
    );
    if !server.rcvbuf_effective().is_empty() {
        eprintln!(
            "wsn-bs: SO_RCVBUF granted per reader: {:?}",
            server.rcvbuf_effective()
        );
    }
    if let Some((sink, k)) = sink_partition {
        eprintln!("wsn-bs: serving as sink {sink} of {k} (partitioned key registry)");
    }
    if let Some(dir) = &state_dir {
        eprintln!(
            "wsn-bs: durable state in {} (WAL + snapshots)",
            dir.display()
        );
    }

    // Distributed control plane: `--ctrl-port P --ctrl-peers A0,A1,…`
    // joins this sink to its peers — keyed heartbeats, failure
    // detection with takeover of a dead sink's nodes, two-phase
    // failback, replicated revocations. `--ctrl-fault-seed` runs all
    // inter-sink traffic through the deterministic fault shim's soak
    // schedule (seeded partition-between-sinks).
    let control = opt(&args, "--ctrl-port").map(|p| {
        let (sink, k) = sink_partition.unwrap_or_else(|| {
            eprintln!("wsn-bs: --ctrl-port requires --sink I --sinks K");
            std::process::exit(2);
        });
        let ctrl_port: u16 = p.parse().unwrap_or_else(|_| {
            eprintln!("bad value for --ctrl-port: {p}");
            std::process::exit(2);
        });
        let peers: Vec<SocketAddr> = opt(&args, "--ctrl-peers")
            .unwrap_or_else(|| {
                eprintln!("wsn-bs: --ctrl-port needs --ctrl-peers A0,A1,... (one per sink)");
                std::process::exit(2);
            })
            .split(',')
            .map(|a| {
                a.parse().unwrap_or_else(|_| {
                    eprintln!("bad --ctrl-peers address: {a}");
                    std::process::exit(2);
                })
            })
            .collect();
        if peers.len() != k as usize {
            eprintln!("wsn-bs: --ctrl-peers needs exactly {k} addresses");
            std::process::exit(2);
        }
        let soak = ControlTiming::soak();
        let timing = ControlTiming {
            heartbeat_us: num(&args, "--hb-ms", soak.heartbeat_us / 1000) * 1000,
            suspect_after_us: num(&args, "--suspect-ms", soak.suspect_after_us / 1000) * 1000,
            max_strikes: num(&args, "--strikes", soak.max_strikes as u64) as u32,
            ..soak
        };
        let bind_host = opt(&args, "--bind").unwrap_or_else(|| "0.0.0.0".to_string());
        let cp = ControlPlane::spawn(
            ControlPlaneConfig {
                sink,
                k,
                n,
                seed,
                bind: format!("{bind_host}:{ctrl_port}")
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("wsn-bs: bad control bind {bind_host}:{ctrl_port}");
                        std::process::exit(2);
                    }),
                peers,
                timing,
                faults: opt(&args, "--ctrl-fault-seed").map(|v| {
                    FaultConfig::soak(v.parse().unwrap_or_else(|_| {
                        eprintln!("bad value for --ctrl-fault-seed: {v}");
                        std::process::exit(2);
                    }))
                }),
            },
            server.control_senders(),
            None,
        )
        .unwrap_or_else(|e| {
            eprintln!("wsn-bs: control plane spawn failed: {e}");
            std::process::exit(1);
        });
        eprintln!("wsn-bs: control plane up on port {ctrl_port} (sink {sink} of {k})");
        cp
    });

    let started = Instant::now();
    let mut last_rx = 0u64;
    let mut last_ok = 0u64;
    loop {
        std::thread::sleep(Duration::from_secs(interval));
        let s = server.stats();
        let rx = s.datagrams_rx.load(Ordering::Relaxed);
        let ok = s.readings_accepted.load(Ordering::Relaxed);
        println!(
            "rx {rx} (+{}/s) | accepted {ok} (+{}/s) | tx {} | shed: admit {} quarantine {} \
             queue {} oversize {} | {} | unroutable {} | wal {} snap {}",
            (rx - last_rx) / interval,
            (ok - last_ok) / interval,
            s.datagrams_tx.load(Ordering::Relaxed),
            s.admission_rejects.load(Ordering::Relaxed),
            s.quarantine_rejects.load(Ordering::Relaxed),
            s.queue_full_drops.load(Ordering::Relaxed),
            s.oversize_drops.load(Ordering::Relaxed),
            DaemonErrors::from_stats(s),
            s.unroutable.load(Ordering::Relaxed),
            s.wal_appends.load(Ordering::Relaxed),
            s.snapshots_written.load(Ordering::Relaxed),
        );
        if let Some(cp) = &control {
            let c = cp.stats();
            println!(
                "ctrl: hb_tx {} rx {} bad_auth {} | suspect {} dead {} | takeover {} \
                 handoffs {} | revs {}",
                c.heartbeats_tx.load(Ordering::Relaxed),
                c.msgs_rx.load(Ordering::Relaxed),
                c.bad_auth.load(Ordering::Relaxed),
                c.suspicions.load(Ordering::Relaxed),
                c.deaths.load(Ordering::Relaxed),
                c.takeover_nodes.load(Ordering::Relaxed),
                c.handoffs_committed.load(Ordering::Relaxed),
                c.revocations_applied.load(Ordering::Relaxed),
            );
        }
        last_rx = rx;
        last_ok = ok;
        if duration > 0 && started.elapsed() >= Duration::from_secs(duration) {
            break;
        }
    }
    if let Some(cp) = control {
        cp.shutdown();
    }
    server.shutdown();
}

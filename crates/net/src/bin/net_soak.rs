//! `net-soak`: the self-contained CI smoke for the UDP backend — spawns
//! an in-process base-station reactor on loopback ephemeral ports,
//! drives it with the motegen core, and asserts zero protocol errors
//! plus a readings/s floor.
//!
//! ```text
//! net-soak --duration 30 --motes 20000 --floor 2000
//! ```
//!
//! With `--admit`, the reader-side token-bucket/quarantine admission
//! layer is enabled and a garbage-flood client (valid-looking headers,
//! wrong keys) hammers the same sockets throughout the run. The pass
//! condition becomes: the *legitimate* throughput floor still holds and
//! the flood is visibly shed pre-crypto (admission/quarantine counters
//! grow) — flood-induced auth failures are expected, not errors.
//!
//! Exit status 0 = pass.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wsn_core::config::{CounterMode, ProtocolConfig, RecoveryConfig, ResourceConfig};
use wsn_core::forward::{e2e_seal_with, sealer, wrap_frame};
use wsn_core::msg::{DataUnit, Inner};
use wsn_net::cli::num;
use wsn_net::load::{provision_motes, run, LoadParams};
use wsn_net::udp::wall_us;
use wsn_net::{UdpServer, UdpServerConfig};

/// Floods protocol-shaped garbage at the server: well-formed wrapped
/// headers claiming a handful of real cluster ids, sealed under a key
/// the provisioner never issued. Every frame parses at the reader,
/// costs a MAC check at a shard until quarantine feedback kicks in,
/// then is shed pre-crypto. Returns frames sent.
fn garbage_flood(
    targets: Vec<SocketAddr>,
    cids: Vec<u32>,
    stop: Arc<AtomicBool>,
    sent: Arc<AtomicU64>,
) {
    let socket = match std::net::UdpSocket::bind("127.0.0.1:0") {
        Ok(s) => s,
        Err(_) => return,
    };
    let wrong_key = wsn_crypto::Key128::from_bytes([0xAA; 16]);
    let kc = sealer(&wrong_key);
    let ki = sealer(&wrong_key);
    let mut seq = 0u64;
    while !stop.load(Ordering::Relaxed) {
        for &cid in &cids {
            let body = e2e_seal_with(&ki, cid, seq, b"garbage");
            let unit = DataUnit {
                src: cid,
                ctr: Some(seq),
                sealed: true,
                body,
            };
            let frame = wrap_frame(&kc, cid, cid, seq, wall_us(), 1, &Inner::Data(unit));
            let target = targets[seq as usize % targets.len()];
            if socket.send_to(&frame, target).is_ok() {
                sent.fetch_add(1, Ordering::Relaxed);
            }
            seq += 1;
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let duration = num(&args, "--duration", 30);
    let motes = num(&args, "--motes", 20_000) as usize;
    let floor = num(&args, "--floor", 1_000);
    let seed = num(&args, "--seed", 2005);
    let admit = args.iter().any(|a| a == "--admit");
    let rcvbuf = args
        .iter()
        .position(|a| a == "--rcvbuf")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("bad --rcvbuf"));

    let cfg = ProtocolConfig::default()
        .with_recovery(RecoveryConfig::default())
        .with_counter_mode(CounterMode::Explicit);
    let mut server_cfg = UdpServerConfig::localhost(0, motes + 1, seed, cfg);
    server_cfg.queue_depth = 8192;
    server_cfg.rcvbuf = rcvbuf;
    if admit {
        server_cfg.admission = Some(ResourceConfig {
            enabled: true,
            neighbor_rate_per_sec: 500,
            neighbor_burst: 250,
            ..ResourceConfig::default()
        });
    }
    eprintln!("net-soak: spawning in-process server for {motes} motes...");
    let server = UdpServer::spawn(server_cfg).unwrap_or_else(|e| {
        eprintln!("net-soak: spawn failed: {e}");
        std::process::exit(1);
    });
    if !server.rcvbuf_effective().is_empty() {
        eprintln!(
            "net-soak: SO_RCVBUF granted per reader: {:?}",
            server.rcvbuf_effective()
        );
    }
    let targets: Vec<SocketAddr> = server
        .ports()
        .iter()
        .map(|p| SocketAddr::from(([127, 0, 0, 1], *p)))
        .collect();

    // The flood claims the top 8 mote ids: real clusters, wrong keys —
    // the worst case for the server, since each frame is plausible
    // until its MAC fails.
    let stop = Arc::new(AtomicBool::new(false));
    let flood_sent = Arc::new(AtomicU64::new(0));
    let flooder = admit.then(|| {
        let targets = targets.clone();
        let cids: Vec<u32> = (motes.saturating_sub(8) as u32 + 1..=motes as u32).collect();
        let stop = Arc::clone(&stop);
        let sent = Arc::clone(&flood_sent);
        eprintln!("net-soak: garbage flood up (cids {:?})", cids);
        std::thread::spawn(move || garbage_flood(targets, cids, stop, sent))
    });

    let params = LoadParams {
        motes,
        seed,
        targets,
        senders: 1,
        duration: Duration::from_secs(duration),
        payload_bytes: 24,
        rate: None,
        latency_sample: 64,
        sinks: 1,
        retry: None,
        faults: None,
        epochs: None,
        failover: false,
    };
    eprintln!("net-soak: provisioning motes...");
    let army = provision_motes(motes, seed);
    eprintln!("net-soak: soaking for {duration}s...");
    let report = run(&params, army).unwrap_or_else(|e| {
        eprintln!("net-soak: load run failed: {e}");
        std::process::exit(1);
    });
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = flooder {
        let _ = h.join();
    }

    // Give in-flight datagrams a moment to clear the reactor.
    std::thread::sleep(Duration::from_millis(300));
    let stats = server.stats();
    let accepted = stats.readings_accepted.load(Ordering::Relaxed);
    let errors = stats.protocol_errors();
    let shed = stats.queue_full_drops.load(Ordering::Relaxed);
    let admit_shed = stats.admission_rejects.load(Ordering::Relaxed)
        + stats.quarantine_rejects.load(Ordering::Relaxed);
    let accepted_per_sec = accepted as f64 / report.elapsed.as_secs_f64();
    println!(
        "sent {} ({:.0}/s) | accepted {} ({:.0}/s) | shed {} | admission shed {} | \
         protocol errors {} | storage {} | acks {}",
        report.sent,
        report.sent_per_sec,
        accepted,
        accepted_per_sec,
        shed,
        admit_shed,
        errors,
        stats.storage_failures.load(Ordering::Relaxed),
        report.acks_seen,
    );
    if admit {
        println!(
            "flood: {} garbage frames sent | quarantine rejects {} | bad auth {}",
            flood_sent.load(Ordering::Relaxed),
            stats.quarantine_rejects.load(Ordering::Relaxed),
            stats.bad_auth.load(Ordering::Relaxed),
        );
    }
    if let (Some(p50), Some(p99)) = (report.p50_us, report.p99_us) {
        println!(
            "latency ({} samples): p50 {:.2} ms | p99 {:.2} ms",
            report.latency_samples,
            p50 as f64 / 1000.0,
            p99 as f64 / 1000.0
        );
    }
    server.shutdown();

    if admit {
        // Under flood the pass condition is: admission visibly sheds the
        // attack pre-crypto, and legitimate throughput holds its floor.
        if admit_shed == 0 && flood_sent.load(Ordering::Relaxed) > 0 {
            eprintln!("net-soak: FAIL — flood ran but admission shed nothing");
            std::process::exit(1);
        }
    } else if errors != 0 {
        eprintln!("net-soak: FAIL — {errors} protocol errors");
        std::process::exit(1);
    }
    if accepted_per_sec < floor as f64 {
        eprintln!("net-soak: FAIL — {accepted_per_sec:.0} readings/s below floor {floor}");
        std::process::exit(1);
    }
    println!("net-soak: PASS");
}

//! Transport-layer smoke test for `wsn-net`: a short end-to-end run over
//! real UDP sockets (in-process server, ephemeral ports), including the
//! datagram trace vocabulary.

use std::time::Duration;
use wsn_core::config::{CounterMode, ProtocolConfig, RecoveryConfig};
use wsn_net::load::{self, EpochSchedule, LoadParams};
use wsn_net::udp::wall_us;
use wsn_net::{UdpServer, UdpServerConfig};
use wsn_trace::JsonlSink;

/// A short real-socket run: 200 motes against an in-process UDP server
/// on ephemeral ports. Every frame that reaches the shards must
/// validate (zero protocol errors) and recovery ACKs must flow back.
#[test]
fn udp_end_to_end_smoke() {
    let motes = 200usize;
    let seed = 2005u64;
    let cfg = ProtocolConfig::default()
        .with_recovery(RecoveryConfig::default())
        .with_counter_mode(CounterMode::Explicit);

    let mut server_cfg = UdpServerConfig::localhost(0, motes + 1, seed, cfg);
    server_cfg.queue_depth = 8192;
    let trace_path =
        std::env::temp_dir().join(format!("wsn_net_smoke_{}.jsonl", std::process::id()));
    let server = UdpServer::spawn_traced(
        server_cfg,
        Some(Box::new(
            JsonlSink::create(&trace_path).expect("trace file"),
        )),
    )
    .expect("server spawn");
    let targets = server
        .ports()
        .iter()
        .map(|p| format!("127.0.0.1:{p}").parse().unwrap())
        .collect();

    let army = load::provision_motes(motes, seed);
    let report = load::run(
        &LoadParams {
            motes,
            seed,
            targets,
            senders: 1,
            duration: Duration::from_secs(2),
            payload_bytes: 24,
            rate: Some(2_000),
            latency_sample: 8,
            sinks: 1,
            retry: None,
            faults: None,
            epochs: None,
            failover: false,
        },
        army,
    )
    .expect("load run");

    let stats = server.stats().clone();
    server.shutdown();

    assert!(report.sent > 0, "nothing sent");
    assert_eq!(report.send_errors, 0, "send errors on loopback");
    let accepted = stats
        .readings_accepted
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(accepted > 0, "server accepted nothing");
    assert_eq!(
        stats.protocol_errors(),
        0,
        "protocol errors on valid traffic"
    );
    assert!(report.acks_seen > 0, "no recovery ACKs came back");

    // The UDP backend traces transport events through the same pipeline.
    let jsonl = std::fs::read_to_string(&trace_path).expect("trace written");
    let _ = std::fs::remove_file(&trace_path);
    assert!(jsonl.contains("\"datagram_rx\""), "no DatagramRx traced");
    assert!(jsonl.contains("\"datagram_tx\""), "no DatagramTx traced");
}

/// A server started 2.5 refresh periods after the schedule's genesis,
/// with no state directory, must roll its cluster keys to the epoch every
/// mote is already in (epoch 2) before it serves: otherwise it rejects
/// every reading as a bad MAC.
#[test]
fn in_memory_server_catches_up_refresh_epochs() {
    let motes = 200usize;
    let seed = 2005u64;
    let period_us = 20_000_000;
    let genesis_us = wall_us() - 5 * period_us / 2;
    let mut cfg = ProtocolConfig::default()
        .with_recovery(RecoveryConfig::default())
        .with_counter_mode(CounterMode::Explicit);
    cfg.erase_km_at = genesis_us;
    let cfg = cfg.with_auto_refresh(5, period_us);

    let server_cfg = UdpServerConfig::localhost(0, motes + 1, seed, cfg);
    assert!(server_cfg.state_dir.is_none());
    let server = UdpServer::spawn(server_cfg).expect("server spawn");
    let targets = server
        .ports()
        .iter()
        .map(|p| format!("127.0.0.1:{p}").parse().unwrap())
        .collect();
    let report = load::run(
        &LoadParams {
            motes,
            seed,
            targets,
            senders: 1,
            duration: Duration::from_secs(1),
            payload_bytes: 24,
            rate: Some(2_000),
            latency_sample: 0,
            sinks: 1,
            retry: None,
            faults: None,
            epochs: Some(EpochSchedule {
                genesis_us,
                period_us,
                max_epochs: 5,
            }),
            failover: false,
        },
        load::provision_motes(motes, seed),
    )
    .expect("load run");
    let stats = server.stats().clone();
    server.shutdown();

    let accepted = stats
        .readings_accepted
        .load(std::sync::atomic::Ordering::Relaxed);
    let bad_auth = stats.bad_auth.load(std::sync::atomic::Ordering::Relaxed);
    assert!(report.sent > 0, "nothing sent");
    assert_eq!(
        bad_auth, 0,
        "{bad_auth} of {} readings failed auth",
        report.sent
    );
    assert!(accepted > 0, "server accepted nothing");
    assert_eq!(stats.protocol_errors(), 0);
}

//! `udp-durable`: durable ingest over real UDP sockets on loopback.
//!
//! An in-process `UdpServer` (1 reader thread, 1 worker shard) serves
//! 100,000 provisioned motes with its state directory on, so every
//! reading's key-state mutation is appended to the write-ahead log before
//! its ACK leaves. The load is `wsn_net::load`: one sender thread on one
//! socket, a closed loop with 64 readings in flight (ARQ window), 24-byte
//! payloads, no injected faults. Syscalls, the reader-to-worker hand-off,
//! the base station's Step-2 unwrap / Step-1 open / counter window /
//! dedup, the WAL append and the ACK seal do the work; the event core and
//! per-hop forwarding do none. This is loopback, not a radio or a real
//! network link. After the load a second server is started on the same
//! state directory, so the WAL's replay path is timed beside its append
//! path. The replayed journal is checked against the counters every mote
//! sent, and the restored registry against every mote.

use crate::measure::{cpu_seconds, median, peak_rss_kib, Spans};
use crate::{scratch_dir, Run};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use wsn_core::config::{CounterMode, ProtocolConfig, RecoveryConfig};
use wsn_core::persist::StateMutation;
use wsn_net::load::{provision_motes, run_with_army, LoadParams, Mote, RetryConfig};
use wsn_net::wal::{registry_ids, Recovered, StateStore};
use wsn_net::{UdpServer, UdpServerConfig};

/// Provisioned motes (ids `1..=MOTES`; the base station is id 0).
const MOTES: usize = 100_000;
/// Readings in flight per sender (the ARQ window).
const WINDOW: usize = 64;
/// Reading payload before sealing, bytes.
pub const PAYLOAD_BYTES: usize = 24;
/// Untimed load before the timed windows: long enough at this host's
/// rate for every mote to send its first reading.
const WARMUP: Duration = Duration::from_secs(2);
/// Compaction threshold while serving the load: above any WAL a run
/// writes, so no snapshot (and no `sync_all`) lands in the timed phase.
/// The checkout's disk is a shared virtual disk whose fsync latency would
/// be measured otherwise; WAL appends never fsync, so the append path is
/// the same as on tmpfs. The restart compacts at the default threshold.
const NO_SNAPSHOT: u64 = 1 << 40;
/// One in this many readings is timed from send to ACK.
const LATENCY_SAMPLE: u64 = 8;

/// The protocol configuration `net-soak` and `wsn-bs` serve: hop-by-hop
/// ACKs on, explicit end-to-end counters.
pub fn protocol_config() -> ProtocolConfig {
    ProtocolConfig::default()
        .with_recovery(RecoveryConfig::default())
        .with_counter_mode(CounterMode::Explicit)
}

/// The serving configuration. `snapshot_every_bytes` is the compaction
/// threshold: `None` keeps the daemon's default (1 MiB of WAL).
fn server_config(seed: u64, dir: &Path, snapshot_every_bytes: Option<u64>) -> UdpServerConfig {
    let mut cfg = UdpServerConfig::localhost(0, MOTES + 1, seed, protocol_config());
    cfg.state_dir = Some(dir.to_path_buf());
    cfg.snapshot_every_bytes = snapshot_every_bytes;
    cfg
}

fn load_params(seed: u64, server: &UdpServer, duration: Duration) -> LoadParams {
    LoadParams {
        motes: MOTES,
        seed,
        targets: server
            .ports()
            .iter()
            .map(|p| SocketAddr::from(([127, 0, 0, 1], *p)))
            .collect(),
        senders: 1,
        duration,
        payload_bytes: PAYLOAD_BYTES,
        rate: None,
        latency_sample: LATENCY_SAMPLE,
        sinks: 1,
        // Loopback loses nothing, so a retransmit only fires if an ACK
        // is seconds late; the timeout keeps host stalls from causing one.
        retry: Some(RetryConfig {
            timeout_us: 2_000_000,
            max_retries: 3,
            jitter_us: 10_000,
            window: WINDOW,
        }),
        faults: None,
        epochs: None,
        failover: false,
    }
}

/// Removes a state directory left by this run (best effort).
fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Run {
    let root: PathBuf = scratch_dir().join(format!("udp-{}", std::process::id()));
    remove(&root);
    let run = measure(seed, seconds, trace, &root);
    remove(&root);
    run
}

fn measure(seed: u64, seconds: u64, trace: bool, root: &Path) -> Run {
    let mut spans = Spans::new(trace);
    let mut run = Run::default();

    // Set-up: the server spawn (provisioning every mote's keys, opening the
    // empty state directory) plus provisioning the load generator's army.
    let setup = |spans: &mut Spans, dir: &Path| {
        let server = spans
            .time("udp_server.spawn", || {
                UdpServer::spawn(server_config(seed, dir, Some(NO_SNAPSHOT)))
            })
            .expect("spawning the UDP server");
        let army = spans.time("load.provision_motes", || provision_motes(MOTES, seed));
        (server, army)
    };
    let dir = root.join("state");
    let t = Instant::now();
    let (server, mut army) = setup(&mut spans, &dir);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    // Warm-up: one untimed window long enough to send every mote's first
    // reading, so the base station's per-source state is populated.
    let warm = load_params(seed, &server, WARMUP);
    let (warm_report, back) = spans
        .time("load.run_with_army", || run_with_army(&warm, army))
        .expect("warm-up load run");
    army = back;
    let mut total = warm_report.clone();
    let stats = server.stats();
    let counter = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    let (rx0, tx0) = (counter(&stats.datagrams_rx), counter(&stats.datagrams_tx));
    let appends0 = counter(&stats.wal_appends);

    // The timed load: equal windows over `--seconds`, against the same
    // army (counters carry over).
    let windows = (seconds / 2).max(2);
    let window_len = Duration::from_secs_f64(seconds as f64 / windows as f64);
    let mut acked = 0u64;
    let mut peak_rss_mb = 0.0;
    let mut rates = Vec::new();
    let mut cpu_per_ack = Vec::new();
    let mut p50_us = Vec::new();
    let mut p99_us = Vec::new();
    for w in 0..windows {
        let params = load_params(seed, &server, window_len);
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let (report, back) = spans
            .time("load.run_with_army", || run_with_army(&params, army))
            .expect("load run");
        let dt = t.elapsed().as_secs_f64();
        cpu_per_ack.push((cpu_seconds() - cpu0) / report.acked as f64);
        army = back;
        acked += report.acked;
        rates.push(report.acked as f64 / dt);
        if let (Some(p50), Some(p99)) = (report.p50_us, report.p99_us) {
            p50_us.push(p50 as f64);
            p99_us.push(p99 as f64);
        }
        total.sent += report.sent;
        total.acked += report.acked;
        total.gave_up += report.gave_up;
        total.retransmits += report.retransmits;
        total.send_errors += report.send_errors;
        total.latency_samples += report.latency_samples;
        if w == 0 {
            // Memory of serving the load, before any extra set-up below.
            peak_rss_mb = peak_rss_kib() / 1024.0;
        }
        // One more set-up sample after every window, so the samples see
        // the same host conditions as the load does: this host's speed
        // drifts over tens of seconds, and back-to-back set-ups all land
        // in one stretch of it.
        let extra = root.join(format!("setup-{w}"));
        let t = Instant::now();
        let (s, a) = setup(&mut spans, &extra);
        setup_s.push(t.elapsed().as_secs_f64());
        s.shutdown();
        drop(a);
        remove(&extra);
    }
    let half = rates.len() / 2;
    run.note(
        "half_rate_ratio",
        rates[rates.len() - half..].iter().sum::<f64>() / rates[..half].iter().sum::<f64>(),
    );

    let accepted = counter(&stats.readings_accepted);
    let errors = stats.protocol_errors();
    let rx = counter(&stats.datagrams_rx) - rx0;
    let tx = counter(&stats.datagrams_tx) - tx0;
    let appends = counter(&stats.wal_appends) - appends0;
    let queue_drops = counter(&stats.queue_full_drops);
    spans.time("udp_server.shutdown", || server.shutdown());

    // Recovery: the store's own replay, then a full server restart.
    let (store, recovered) = spans
        .time("state_store.open", || StateStore::open(&dir, 0))
        .expect("reopening the state directory");
    drop(store);
    let journal = check_journal(&recovered, &mut army);
    drop(recovered);
    let t = Instant::now();
    let restarted = spans
        .time("udp_server.spawn", || {
            UdpServer::spawn(server_config(seed, &dir, None))
        })
        .expect("restarting the UDP server");
    let restart_ms = t.elapsed().as_secs_f64() * 1e3;
    let snapshots = restarted.stats().snapshots_written.load(Ordering::Relaxed);
    spans.time("udp_server.shutdown", || restarted.shutdown());
    let ids = spans
        .time("wal.registry_ids", || registry_ids(&dir, 1))
        .expect("reading the registry back");
    let covered = covers_every_mote(&ids);
    drop(army);

    run.check(
        format!("{errors} protocol errors at the server"),
        errors == 0,
    );
    run.check(
        format!(
            "every reading ACKed ({} sent, {} acked, {} given up)",
            total.sent, total.acked, total.gave_up
        ),
        total.acked == total.sent && total.gave_up == 0,
    );
    run.check(
        format!("server accepted each reading once ({accepted} accepted)"),
        accepted == total.acked,
    );
    let what = "replayed WAL holds the counters every mote sent";
    match journal.as_str() {
        "" => run.check(what, true),
        wrong => run.check(format!("{what} ({wrong})"), false),
    }
    run.check("restored registry holds every provisioned mote", covered);
    run.attempted = total.sent;
    run.failed = total.sent - total.acked;

    let acked = acked as f64;
    run.e2e("setup_s", median(&setup_s));
    run.e2e("ops_per_s", median(&rates));
    run.e2e("cpu_us_per_op", median(&cpu_per_ack) * 1e6);
    run.e2e("latency_p50_ms", median(&p50_us) / 1e3);
    run.e2e("peak_rss_mb", peak_rss_mb);
    run.e2e("tx_per_op", (rx + tx) as f64 / acked);
    run.note("acked", total.acked as f64);

    run.layer("udp.datagrams_rx_per_reading", rx as f64 / acked);
    run.layer("udp.datagrams_tx_per_reading", tx as f64 / acked);
    run.layer("udp.queue_full_drops", queue_drops as f64);
    run.layer("udp.ack_p99_ms", median(&p99_us) / 1e3);
    run.layer("udp.ack_samples", total.latency_samples as f64);
    run.layer("udp.restart_ms", restart_ms);
    run.layer("load.retransmits", total.retransmits as f64);
    run.layer("load.send_errors", total.send_errors as f64);
    run.layer("wal.appends_per_reading", appends as f64 / acked);
    run.layer("wal.snapshots_written", snapshots as f64);
    if trace {
        let (replay_s, _) = spans.self_time("state_store.open");
        run.layer("wal.replay_ms", replay_s * 1e3);
        run.note("spans", spans.len() as f64);
        run.stage_input("udp-durable.datagrams_rx", rx as f64 / acked);
        run.stage_input("udp-durable.datagrams_tx", tx as f64 / acked);
        run.stage_input("udp-durable.appends", appends as f64 / acked);
        run.stage_input("udp-durable.cpu_us_per_reading", median(&cpu_per_ack) * 1e6);
    }
    run.spans = spans.to_jsonl();
    run
}

/// Checks the replayed journal against the load generator: no record was
/// discarded, no snapshot was cut, and each mote's accepted counters are
/// exactly `0, 1, ..` up to the next counter it would send. Every reading
/// sent was ACKed (checked separately), so this is the counter state the
/// ACKs promised would survive. Returns what is wrong, or "" if nothing.
fn check_journal(recovered: &Recovered, army: &mut [Mote]) -> String {
    if recovered.discarded != 0 {
        return format!("{} records discarded", recovered.discarded);
    }
    if recovered.snapshot.is_some() {
        return "a snapshot was cut during the load".to_string();
    }
    let mut next_ctr = vec![0u64; MOTES + 1];
    for m in &recovered.mutations {
        if let StateMutation::CounterAccept { src, ctr } = *m {
            let Some(expected) = next_ctr.get_mut(src as usize) else {
                return format!("counter for unknown mote {src}");
            };
            if ctr != *expected {
                return format!("mote {src}: counter {ctr} replayed, {expected} expected");
            }
            *expected += 1;
        }
    }
    for mote in army {
        let sent = mote.next_reading(PAYLOAD_BYTES).ctr;
        if next_ctr[mote.id as usize] != sent {
            return format!(
                "mote {}: {} counters replayed, {sent} sent",
                mote.id, next_ctr[mote.id as usize]
            );
        }
    }
    String::new()
}

/// Whether `ids` (sorted or not) includes every mote id `1..=MOTES`.
fn covers_every_mote(ids: &[u32]) -> bool {
    let mut seen = vec![false; MOTES + 1];
    for &id in ids {
        if let Some(s) = seen.get_mut(id as usize) {
            *s = true;
        }
    }
    seen[1..].iter().all(|&s| s)
}

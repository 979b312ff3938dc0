//! `sink-failover-soak`: the distributed-control-plane gauntlet — CI's
//! proof that a fleet of `wsn-bs` sinks survives losing one of its
//! members without losing a key entry or its delivery floor.
//!
//! The soak spawns `k` real `wsn-bs` children (partitioned registries,
//! control plane meshed over localhost, every inter-sink datagram
//! through the seeded fault shim), then drives three measurement
//! windows with one shared mote army (counters and epochs carry
//! across, so replay protection stays armed):
//!
//! * **Phase A** — steady state, all `k` sinks up, ≥10% bursty drop on
//!   every client socket. Baseline acked/s.
//! * **Phase B** — SIGKILL one sink mid-window. The survivors' failure
//!   detector declares it dead, the gradient-next sink re-derives and
//!   installs the victim's `Ki` entries (journaling `FailoverIn`
//!   before serving), and the clients' ARQ failover rotates exhausted
//!   readings to the takeover sink.
//! * **Phase C** — post-failover steady state. Recovery acked/s.
//!
//! Pass conditions:
//!
//! 1. **Delivery recovers**: phase C acked/s ≥ 95% of phase A.
//! 2. **Zero lost key entries**: the offline WAL oracle
//!    ([`wsn_net::wal::registry_ids`]) unioned across the *surviving*
//!    sinks' durable state still covers every provisioned mote id —
//!    the victim's partition lives on as journaled takeover installs.
//! 3. **No hard protocol errors**: stale / malformed counters stay
//!    zero across all daemons; auth failures stay inside a small race
//!    budget. Unknown-cluster drops are *expected* during the takeover
//!    window (frames racing the install) and only reported.
//! 4. **No storage failure**: no daemon shard stopped on a failed WAL
//!    append or snapshot (`storage` in the `errors:` segment).
//!
//! ```text
//! sink-failover-soak --motes 1500 --sinks 3 --csv results/figures/sinkfailover_soak.csv
//! ```
//!
//! Exit status 0 = pass.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wsn_net::cli::{num, opt};
use wsn_net::daemon::{Daemon, DaemonErrors};
use wsn_net::load::{provision_motes, run_with_army, LoadParams, LoadReport, Mote, RetryConfig};
use wsn_net::{wal, FaultConfig};

/// One sink of the fleet.
struct Sink {
    id: u32,
    daemon: Daemon,
}

/// Spawns sink `i` of `k` with durable state and the control plane
/// meshed to its peers; its error counters are folded into `errors`
/// when the instance dies.
#[allow(clippy::too_many_arguments)]
fn spawn_sink(
    bs_bin: &Path,
    sink: u32,
    k: u32,
    base_port: u16,
    ctrl_base: u16,
    motes: usize,
    seed: u64,
    ctrl_fault_seed: u64,
    state_root: &Path,
    errors: &Arc<Mutex<DaemonErrors>>,
) -> Sink {
    let peers: Vec<String> = (0..k)
        .map(|i| format!("127.0.0.1:{}", ctrl_base + i as u16))
        .collect();
    let state_dir = state_root.join(format!("sink{sink}"));
    let daemon = Daemon::spawn(
        bs_bin,
        &[
            "--bind",
            "127.0.0.1",
            "--port",
            &(base_port + sink as u16 * 8).to_string(),
            "--motes",
            &motes.to_string(),
            "--seed",
            &seed.to_string(),
            "--workers",
            "1",
            "--sink",
            &sink.to_string(),
            "--sinks",
            &k.to_string(),
            "--state-dir",
            &state_dir.display().to_string(),
            "--dedup",
            "65536",
            "--snapshot-bytes",
            "65536",
            // Control plane: heartbeat fast, suspect after 500 ms of
            // silence, one extra strike — a kill is declared dead in
            // roughly 1.5 s, well inside phase B.
            "--ctrl-port",
            &(ctrl_base + sink as u16).to_string(),
            "--ctrl-peers",
            &peers.join(","),
            "--ctrl-fault-seed",
            &ctrl_fault_seed.to_string(),
            "--hb-ms",
            "100",
            "--suspect-ms",
            "500",
            "--strikes",
            "1",
            "--interval",
            "1",
        ],
        errors,
    )
    .unwrap_or_else(|e| {
        eprintln!(
            "sink-failover-soak: failed to spawn {}: {e}",
            bs_bin.display()
        );
        std::process::exit(1);
    });
    Sink { id: sink, daemon }
}

/// One measurement window against the shared army.
fn window(params: &LoadParams, secs: u64, army: Vec<Mote>) -> (LoadReport, Vec<Mote>) {
    let mut p = params.clone();
    p.duration = Duration::from_secs(secs);
    run_with_army(&p, army).unwrap_or_else(|e| {
        eprintln!("sink-failover-soak: load window failed: {e}");
        std::process::exit(1);
    })
}

/// Acked readings per *nominal* window second. The report's elapsed
/// time includes the closing ARQ drain (which stretches when motes
/// start a window pointed at a dead home), so rating against it would
/// understate a window that delivered everything slightly late.
fn acked_per_sec(r: &LoadReport, nominal_secs: u64) -> f64 {
    r.acked as f64 / (nominal_secs.max(1) as f64)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: sink-failover-soak [--motes M] [--sinks K] [--seed S] [--rate R]\n\
             \x20                        [--phase-a SECS] [--phase-b SECS] [--phase-c SECS]\n\
             \x20                        [--kill-at SECS] [--victim I] [--port P]\n\
             \x20                        [--fault-seed S] [--csv PATH]"
        );
        return;
    }
    let motes = num(&args, "--motes", 1_500) as usize;
    let k = num(&args, "--sinks", 3) as u32;
    let seed = num(&args, "--seed", 2005);
    let rate = num(&args, "--rate", 1_500);
    let phase_a = num(&args, "--phase-a", 5);
    let phase_b = num(&args, "--phase-b", 8);
    let phase_c = num(&args, "--phase-c", 5);
    let kill_at = num(&args, "--kill-at", 2);
    let victim = num(&args, "--victim", (k - 1) as u64) as u32;
    let base_port = num(&args, "--port", 48_000) as u16;
    let ctrl_base = base_port + 500;
    let fault_seed = num(&args, "--fault-seed", 42);
    assert!(k >= 2, "--sinks must be at least 2");
    assert!(victim < k, "--victim must name one of the {k} sinks");
    assert!(kill_at < phase_b, "--kill-at must fall inside --phase-b");

    let bs_bin = std::env::current_exe()
        .expect("current_exe")
        .with_file_name("wsn-bs");
    if !bs_bin.exists() {
        eprintln!("sink-failover-soak: {} not built", bs_bin.display());
        std::process::exit(1);
    }

    let state_root = std::env::temp_dir().join(format!("wsn-sink-failover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_root);

    let errors = Arc::new(Mutex::new(DaemonErrors::default()));
    let mut fleet: Vec<Sink> = (0..k)
        .map(|i| {
            spawn_sink(
                &bs_bin,
                i,
                k,
                base_port,
                ctrl_base,
                motes,
                seed,
                fault_seed,
                &state_root,
                &errors,
            )
        })
        .collect();
    eprintln!(
        "sink-failover-soak: {k} sinks up (data ports from {base_port}, control from \
         {ctrl_base}), state in {}",
        state_root.display()
    );
    // Provisioning + socket bind in the children; ARQ absorbs early sends.
    std::thread::sleep(Duration::from_millis(1_200));

    let targets: Vec<SocketAddr> = (0..k)
        .map(|i| SocketAddr::from(([127, 0, 0, 1], base_port + i as u16 * 8)))
        .collect();
    let params = LoadParams {
        motes,
        seed,
        targets,
        senders: 2,
        duration: Duration::from_secs(phase_a), // overridden per window
        payload_bytes: 24,
        rate: Some(rate),
        latency_sample: 64,
        sinks: k as usize,
        // Short ARQ timeouts so exhaustion-triggered failover lands
        // well inside phase B.
        retry: Some(RetryConfig {
            timeout_us: 100_000,
            max_retries: 2,
            jitter_us: 20_000,
            window: 64,
        }),
        faults: Some(FaultConfig::soak(fault_seed)),
        epochs: None,
        failover: true,
    };

    eprintln!(
        "sink-failover-soak: phase A — {motes} motes at {rate}/s across {k} sinks, \
         10% bursty drop, {phase_a}s"
    );
    let army = provision_motes(motes, seed);
    let (report_a, army) = window(&params, phase_a, army);

    eprintln!(
        "sink-failover-soak: phase B — {phase_b}s window, SIGKILL sink {victim} at t+{kill_at}s"
    );
    let (report_b, army) = {
        let params = params.clone();
        let load = std::thread::spawn(move || window(&params, phase_b, army));
        std::thread::sleep(Duration::from_secs(kill_at));
        eprintln!("sink-failover-soak: kill -9 sink {victim}");
        let pos = fleet
            .iter()
            .position(|s| s.id == victim)
            .expect("victim in fleet");
        fleet.swap_remove(pos).daemon.kill();
        load.join().expect("phase B load panicked")
    };

    eprintln!("sink-failover-soak: phase C — post-failover steady state, {phase_c}s");
    let (report_c, _army) = window(&params, phase_c, army);

    // Let the last WAL batches flush, then take the survivors down hard
    // — the oracle below reads only what is durable on disk.
    std::thread::sleep(Duration::from_secs(1));
    for s in fleet {
        s.daemon.kill();
    }

    // Offline oracle: union the surviving sinks' durable registries.
    // Every provisioned mote id must appear somewhere — the victim's
    // partition survives as journaled `FailoverIn` takeovers.
    let mut durable: std::collections::BTreeSet<u32> = Default::default();
    for i in (0..k).filter(|&i| i != victim) {
        durable
            .extend(wal::registry_ids(&state_root.join(format!("sink{i}")), 1).unwrap_or_default());
    }
    let missing = (1..=motes as u32)
        .filter(|id| !durable.contains(id))
        .count();

    let e = *errors.lock().unwrap();
    let a_rate = acked_per_sec(&report_a, phase_a);
    let c_rate = acked_per_sec(&report_c, phase_c);
    let recovery = if a_rate > 0.0 { c_rate / a_rate } else { 0.0 };
    let failovers = report_a.failovers + report_b.failovers + report_c.failovers;
    let retransmits = report_a.retransmits + report_b.retransmits + report_c.retransmits;
    let gave_up = report_a.gave_up + report_b.gave_up + report_c.gave_up;

    println!(
        "phase A: sent {} acked {} ({:.0}/s) | phase B: sent {} acked {} (kill at t+{kill_at}s) \
         | phase C: sent {} acked {} ({:.0}/s)",
        report_a.sent,
        report_a.acked,
        a_rate,
        report_b.sent,
        report_b.acked,
        report_c.sent,
        report_c.acked,
        c_rate,
    );
    println!(
        "recovery {:.1}% of baseline | failovers {failovers} | retransmits {retransmits} | \
         gave up {gave_up} | socket retries {}",
        recovery * 100.0,
        report_a.socket_retries + report_b.socket_retries + report_c.socket_retries,
    );
    println!(
        "surviving durable registries: {} ids (missing {missing} of {motes}) | daemon {e}",
        durable.len(),
    );

    if let Some(csv) = opt(&args, "--csv") {
        let path = PathBuf::from(csv);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let header = "motes,sinks,victim,phase_a_s,phase_b_s,phase_c_s,kill_at_s,rate,\
                      a_acked_per_s,c_acked_per_s,recovery_ratio,failovers,retransmits,\
                      gave_up,missing_keys,auth,stale,malformed,unknown,ctr_rejects\n";
        let row = format!(
            "{},{},{},{},{},{},{},{},{:.1},{:.1},{:.4},{},{},{},{},{},{},{},{},{}\n",
            motes,
            k,
            victim,
            phase_a,
            phase_b,
            phase_c,
            kill_at,
            rate,
            a_rate,
            c_rate,
            recovery,
            failovers,
            retransmits,
            gave_up,
            missing,
            e.auth,
            e.stale,
            e.malformed,
            e.unknown,
            e.ctr,
        );
        std::fs::write(&path, format!("{header}{row}")).unwrap_or_else(|err| {
            eprintln!("sink-failover-soak: cannot write {}: {err}", path.display());
            std::process::exit(1);
        });
        eprintln!("sink-failover-soak: wrote {}", path.display());
    }
    let _ = std::fs::remove_dir_all(&state_root);

    // Epoch-free run, but ARQ retransmits racing a failover install can
    // still fail auth once each; keep the same sliver budget as the
    // crash soak.
    let total_sent = report_a.sent + report_b.sent + report_c.sent;
    let auth_budget = 16 + total_sent / 1_000;
    let mut failed = false;
    if missing > 0 {
        eprintln!(
            "sink-failover-soak: FAIL — {missing} key-table entries lost across the \
             surviving sinks"
        );
        failed = true;
    }
    if recovery < 0.95 {
        eprintln!(
            "sink-failover-soak: FAIL — post-failover delivery {:.1}% of baseline \
             (floor 95%)",
            recovery * 100.0
        );
        failed = true;
    }
    if failovers == 0 {
        eprintln!("sink-failover-soak: FAIL — no client failovers observed (kill ineffective?)");
        failed = true;
    }
    if e.stale + e.malformed > 0 || e.auth > auth_budget {
        eprintln!(
            "sink-failover-soak: FAIL — hard protocol errors (auth {} > budget {auth_budget}, \
             stale {}, malformed {})",
            e.auth, e.stale, e.malformed
        );
        failed = true;
    }
    if e.storage > 0 {
        eprintln!(
            "sink-failover-soak: FAIL — {} shard(s) stopped on a storage error",
            e.storage
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("sink-failover-soak: PASS");
}

//! `crash-soak`: the kill-9 restart gauntlet for the durable base
//! station — CI's proof that `--state-dir` actually survives a crash.
//!
//! The soak spawns a real `wsn-bs` child (found next to this binary)
//! with durable state, drives it with the ARQ load generator through
//! the deterministic fault shim (10% bursty drop + 20% reorder), then
//! SIGKILLs the daemon mid-run and restarts it from the same state
//! directory. Pass conditions:
//!
//! 1. **Zero key loss**: the durable registry (snapshot + WAL replay,
//!    via [`wsn_net::wal::registry_ids`]) still holds every provisioned
//!    mote id after the final kill.
//! 2. **ACK floor**: ≥ 95% of unique readings are acknowledged
//!    end-to-end despite the faults and the restart — client ARQ plus
//!    WAL-before-ACK ride out the crash.
//! 3. **No hard protocol errors**: the daemon's stale / malformed /
//!    unknown-cluster counters stay zero, and auth failures stay inside
//!    the small epoch-boundary race budget. Counter rejects are
//!    *expected* (the dedup cache is memory-only, so post-restart
//!    retransmits of already-journaled readings replay their counters —
//!    and still get ACKed) and only reported.
//! 4. **No storage failure**: no daemon shard stopped on a failed WAL
//!    append or snapshot (`storage` in the `errors:` segment).
//!
//! ```text
//! crash-soak --motes 2000 --duration 16 --kill-at 6 --csv results/crashsoak.csv
//! ```
//!
//! Exit status 0 = pass.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wsn_net::cli::{num, opt};
use wsn_net::daemon::{Daemon, DaemonErrors};
use wsn_net::load::{provision_motes, run, EpochSchedule, LoadParams, RetryConfig};
use wsn_net::udp::wall_us;
use wsn_net::{wal, FaultConfig};

/// Spawns a `wsn-bs` with durable state; its error counters are folded
/// into `errors` when the instance dies.
#[allow(clippy::too_many_arguments)]
fn spawn_bs(
    bs_bin: &Path,
    port: u16,
    motes: usize,
    seed: u64,
    state_dir: &Path,
    workers: usize,
    genesis: u64,
    errors: &Arc<Mutex<DaemonErrors>>,
) -> Daemon {
    Daemon::spawn(
        bs_bin,
        &[
            "--port",
            &port.to_string(),
            "--motes",
            &motes.to_string(),
            "--seed",
            &seed.to_string(),
            "--workers",
            &workers.to_string(),
            "--state-dir",
            &state_dir.display().to_string(),
            // Big dedup ring: ARQ retransmits of long-ACKed readings
            // must still resolve as duplicates, not counter replays.
            "--dedup",
            "65536",
            // Low snapshot threshold: the kill should land on a
            // snapshot+WAL-tail mix, exercising both recovery paths.
            "--snapshot-bytes",
            "65536",
            // Wall-clock refresh schedule shared with the generator;
            // restart catch-up has to land on the same epoch.
            "--genesis",
            &genesis.to_string(),
            "--refresh-period",
            "5",
            "--refresh-epochs",
            "8",
            "--interval",
            "1",
        ],
        errors,
    )
    .unwrap_or_else(|e| {
        eprintln!("crash-soak: failed to spawn {}: {e}", bs_bin.display());
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: crash-soak [--motes M] [--seed S] [--duration SECS] [--kill-at SECS]\n\
             \x20                [--port P] [--rate R] [--workers W] [--fault-seed S]\n\
             \x20                [--csv PATH]"
        );
        return;
    }
    let motes = num(&args, "--motes", 2_000) as usize;
    let seed = num(&args, "--seed", 2005);
    let duration = num(&args, "--duration", 16);
    let kill_at = num(&args, "--kill-at", duration / 3 + 1);
    let port = num(&args, "--port", 47920) as u16;
    let rate = num(&args, "--rate", 2_000);
    let workers = num(&args, "--workers", 2) as usize;
    let fault_seed = num(&args, "--fault-seed", 42);
    assert!(kill_at < duration, "--kill-at must fall inside --duration");

    // The daemon lives next to this binary in target/<profile>/.
    let bs_bin = std::env::current_exe()
        .expect("current_exe")
        .with_file_name("wsn-bs");
    if !bs_bin.exists() {
        eprintln!("crash-soak: {} not built", bs_bin.display());
        std::process::exit(1);
    }

    let state_dir = std::env::temp_dir().join(format!("wsn-crash-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let genesis = wall_us();
    let sched = EpochSchedule {
        genesis_us: genesis,
        period_us: 5_000_000,
        max_epochs: 8,
    };

    let errors = Arc::new(Mutex::new(DaemonErrors::default()));
    eprintln!(
        "crash-soak: daemon up (port {port}, {workers} shards, state in {})",
        state_dir.display()
    );
    let daemon = spawn_bs(
        &bs_bin, port, motes, seed, &state_dir, workers, genesis, &errors,
    );
    // Provisioning + socket bind in the child; the client's ARQ absorbs
    // any sends that land before the daemon is listening.
    std::thread::sleep(Duration::from_millis(800));

    let targets: Vec<SocketAddr> = vec![SocketAddr::from(([127, 0, 0, 1], port))];
    let params = LoadParams {
        motes,
        seed,
        targets,
        senders: 2,
        duration: Duration::from_secs(duration),
        payload_bytes: 24,
        rate: Some(rate),
        latency_sample: 64,
        sinks: 1,
        retry: Some(RetryConfig::soak()),
        faults: Some(FaultConfig::soak(fault_seed)),
        epochs: Some(sched),
        failover: false,
    };
    eprintln!(
        "crash-soak: soaking {motes} motes at {rate}/s for {duration}s through 10% bursty \
         drop + reorder; kill -9 at t+{kill_at}s"
    );
    let army = provision_motes(motes, seed);
    let load = std::thread::spawn(move || run(&params, army));

    // The crash: SIGKILL — no flush, no shutdown hook, the WAL's page
    // cache residue is all the next instance gets.
    std::thread::sleep(Duration::from_secs(kill_at));
    eprintln!("crash-soak: kill -9");
    daemon.kill();
    std::thread::sleep(Duration::from_millis(300));
    eprintln!("crash-soak: restarting from {}", state_dir.display());
    let daemon = spawn_bs(
        &bs_bin, port, motes, seed, &state_dir, workers, genesis, &errors,
    );

    let report = load
        .join()
        .expect("load thread panicked")
        .unwrap_or_else(|e| {
            eprintln!("crash-soak: load run failed: {e}");
            std::process::exit(1);
        });

    // Let the final WAL batches flush, then take the daemon down hard
    // again — the registry check below reads only what's durable.
    std::thread::sleep(Duration::from_secs(1));
    daemon.kill();

    let durable: std::collections::BTreeSet<u32> = wal::registry_ids(&state_dir, workers)
        .unwrap_or_default()
        .into_iter()
        .collect();
    let missing = (1..=motes as u32)
        .filter(|id| !durable.contains(id))
        .count();
    let e = *errors.lock().unwrap();
    let ack_rate = report.ack_rate();

    println!(
        "sent {} | acked {} ({:.2}%) | retransmits {} | gave up {} | send errors {}",
        report.sent,
        report.acked,
        ack_rate * 100.0,
        report.retransmits,
        report.gave_up,
        report.send_errors,
    );
    println!(
        "durable registry: {} / {motes} mote ids (missing {missing}) | daemon {e}",
        durable.len().min(motes),
    );
    if let (Some(p50), Some(p99)) = (report.p50_us, report.p99_us) {
        println!(
            "latency ({} samples): p50 {:.2} ms | p99 {:.2} ms",
            report.latency_samples,
            p50 as f64 / 1000.0,
            p99 as f64 / 1000.0
        );
    }

    if let Some(csv) = opt(&args, "--csv") {
        let path = PathBuf::from(csv);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let header = "motes,duration_s,kill_at_s,rate,sent,acked,ack_rate,retransmits,gave_up,\
                      missing_keys,auth,stale,malformed,unknown,ctr_rejects\n";
        let row = format!(
            "{},{},{},{},{},{},{:.4},{},{},{},{},{},{},{},{}\n",
            motes,
            duration,
            kill_at,
            rate,
            report.sent,
            report.acked,
            ack_rate,
            report.retransmits,
            report.gave_up,
            missing,
            e.auth,
            e.stale,
            e.malformed,
            e.unknown,
            e.ctr,
        );
        std::fs::write(&path, format!("{header}{row}")).unwrap_or_else(|err| {
            eprintln!("crash-soak: cannot write {}: {err}", path.display());
            std::process::exit(1);
        });
        eprintln!("crash-soak: wrote {}", path.display());
    }
    let _ = std::fs::remove_dir_all(&state_dir);

    // Epoch-boundary races (a frame wrapped at epoch k arriving just
    // after the shard ratcheted to k+1) fail auth once and succeed on
    // the ARQ retry; budget a sliver for them.
    let auth_budget = 16 + report.sent / 1_000;
    let mut failed = false;
    if missing > 0 {
        eprintln!("crash-soak: FAIL — {missing} key-table entries lost across the crash");
        failed = true;
    }
    if ack_rate < 0.95 {
        eprintln!(
            "crash-soak: FAIL — ack rate {:.2}% below the 95% floor",
            ack_rate * 100.0
        );
        failed = true;
    }
    if e.stale + e.malformed + e.unknown > 0 || e.auth > auth_budget {
        eprintln!(
            "crash-soak: FAIL — hard protocol errors (auth {} > budget {auth_budget}, \
             stale {}, malformed {}, unknown {})",
            e.auth, e.stale, e.malformed, e.unknown
        );
        failed = true;
    }
    if e.storage > 0 {
        eprintln!(
            "crash-soak: FAIL — {} shard(s) stopped on a storage error",
            e.storage
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("crash-soak: PASS");
}

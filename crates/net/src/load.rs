//! The load-generator core shared by `motegen` and `net-soak`: a
//! population of simulated motes multiplexed over a bounded UDP socket
//! pool, producing protocol-correct sealed readings at line rate.
//!
//! Each mote is modeled as a singleton cluster head (cluster id = node
//! id) provisioned from the same master seed as the server, so its
//! cluster key `Kci` and end-to-end key `Ki` match what the base
//! station derives. A reading is the full two-step pipeline of the
//! paper — Step 1 (`Ki` seal with an explicit counter) then Step 2
//! (`Kci` wrap with `τ` freshness) — indistinguishable on the wire from
//! a frame emitted by the simulator.
//!
//! Latency is measured through the recovery layer's hop-by-hop ACKs:
//! the base station (run with recovery enabled) acknowledges every
//! accepted Data frame under the mote's cluster key, keyed by the
//! frame's dedup key. A 1-in-K sample of sends is remembered and
//! matched against unwrapped ACKs for round-trip percentiles, so the
//! latency map stays small at any send rate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};
use wsn_core::config::ProtocolConfig;
use wsn_core::forward::{e2e_seal_with, sealer, unwrap_with, wrap_frame};
use wsn_core::keys::Provisioner;
use wsn_core::msg::{DataUnit, Inner, Message};
use wsn_core::refresh;
use wsn_crypto::authenc::AuthEnc;
use wsn_crypto::Key128;
use wsn_sim::rng::derive_seed;

use crate::fault::{FaultConfig, FaultySocket};
use crate::intersink::failover_order;
use crate::udp::wall_us;

/// Whether a socket error is transient — the kind a loopback daemon
/// restart (ECONNREFUSED burst), a mid-reconfiguration interface
/// (ENETUNREACH/EHOSTUNREACH), or plain backpressure (EAGAIN) surfaces
/// — and worth retrying with bounded backoff rather than aborting the
/// run. Matches on stable `ErrorKind`s first, then raw errnos for the
/// kinds std maps to `Uncategorized`.
pub fn is_transient_socket_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::Interrupted
            | io::ErrorKind::TimedOut
    ) || matches!(
        e.raw_os_error(),
        Some(11)  // EAGAIN
            | Some(101) // ENETUNREACH
            | Some(111) // ECONNREFUSED
            | Some(113) // EHOSTUNREACH
    )
}

/// Absorbs a failed send instead of aborting the run. `WouldBlock`
/// waits 50 µs. Other transient errors (a daemon restart's ECONNREFUSED
/// burst on loopback, an interface flap's ENETUNREACH) back off 1 ms
/// doubling to 32 ms over a streak: a refused-to-dead target cannot spin
/// the sender, and the wait stays far below the ARQ retransmit timeout.
/// The reading is lost (fire-and-forget) or re-sent by ARQ.
fn absorb_send_error(e: &io::Error, streak: &mut u32, tally: &mut ThreadTally) {
    if e.kind() == io::ErrorKind::WouldBlock {
        std::thread::sleep(Duration::from_micros(50));
        return;
    }
    tally.send_errors += 1;
    if is_transient_socket_error(e) {
        tally.socket_retries += 1;
        std::thread::sleep(Duration::from_millis(1u64 << (*streak).min(5)));
        *streak += 1;
    }
}

/// Where a mote sends outside failover: its home sink (`id % sinks`,
/// the sink holding its `Ki`) when `sinks > 1`, else the next target
/// round-robin.
fn home_target(params: &LoadParams, id: u32, round_robin: &mut usize) -> SocketAddr {
    if params.sinks > 1 {
        return params.targets[id as usize % params.sinks];
    }
    *round_robin += 1;
    params.targets[(*round_robin - 1) % params.targets.len()]
}

/// The network-wide refresh schedule shared by daemon and generator:
/// refresh epoch `k` begins at `genesis_us + k * period_us` (UNIX
/// microseconds), capped at `max_epochs`. Mirrors the absolute
/// boundaries the base station arms (`erase_km_at + k · period`), so
/// both sides ratchet `Kci` at the same wall-clock instants with no
/// coordination traffic.
#[derive(Clone, Copy, Debug)]
pub struct EpochSchedule {
    /// `erase_km_at` as an absolute UNIX-microsecond timestamp.
    pub genesis_us: u64,
    /// Refresh period, microseconds.
    pub period_us: u64,
    /// Total refresh epochs provisioned (`auto_refresh_epochs`).
    pub max_epochs: u32,
}

impl EpochSchedule {
    /// The epoch the schedule says is current at `now_us`.
    pub fn epoch_at(&self, now_us: u64) -> u32 {
        if self.period_us == 0 {
            return 0;
        }
        ((now_us.saturating_sub(self.genesis_us) / self.period_us) as u32).min(self.max_epochs)
    }
}

/// One sealed reading plus everything needed to retransmit it.
pub struct Reading {
    /// The wire frame (Step-2 wrap with a fresh `τ`).
    pub frame: bytes::Bytes,
    /// Dedup key the base station acknowledges under.
    pub ack_key: u64,
    /// End-to-end counter baked into the Step-1 seal.
    pub ctr: u64,
    /// The Step-1 sealed body. Retransmits reuse it verbatim, so the
    /// dedup key — and therefore the ACK — is identical on every
    /// attempt, while each attempt still gets a fresh `τ` and nonce.
    pub sealed: bytes::Bytes,
}

/// One simulated mote: a singleton cluster head with prebuilt cipher
/// schedules for both protocol layers.
pub struct Mote {
    /// Node id (= cluster id).
    pub id: u32,
    /// Current cluster key `Kci` (ratcheted per refresh epoch).
    kci: Key128,
    /// Step-2 sealer under `Kci`.
    kc: AuthEnc,
    /// Step-1 sealer under the end-to-end key `Ki`.
    ki: AuthEnc,
    /// End-to-end counter (explicit mode).
    ctr: u64,
    /// Frame sequence (nonce input); per-mote, so nonces never repeat
    /// under a key.
    seq: u64,
    /// Refresh epoch this mote's `Kci` is at.
    epoch: u32,
    /// Learned failover-chain position (0 = home sink). Persisted
    /// across load windows by `run_with_army`, so a mote that failed
    /// over keeps sending to the surviving sink it landed on.
    pub route: u32,
}

impl Mote {
    /// Builds the next sealed reading frame.
    pub fn next_reading(&mut self, payload_bytes: usize) -> Reading {
        // Unique body per (mote, counter): the counter is the leading 8
        // bytes, the rest is filler — so dedup keys never collide.
        let mut body = vec![0u8; payload_bytes.max(8)];
        body[..8].copy_from_slice(&self.ctr.to_be_bytes());
        let sealed = e2e_seal_with(&self.ki, self.id, self.ctr, &body);
        let ctr = self.ctr;
        self.ctr += 1;
        let unit = DataUnit {
            src: self.id,
            ctr: Some(ctr),
            sealed: true,
            body: sealed.clone(),
        };
        let ack_key = unit.dedup_key();
        let frame = self.wrap_unit(unit);
        Reading {
            frame,
            ack_key,
            ctr,
            sealed,
        }
    }

    /// Re-wraps a previously sealed reading for retransmission: same
    /// Step-1 body and counter (same dedup/ACK key), fresh `τ` and a
    /// new nonce, so retries pass freshness and never reuse a nonce
    /// under `Kci`.
    pub fn rewrap(&mut self, ctr: u64, sealed: &bytes::Bytes) -> bytes::Bytes {
        self.wrap_unit(DataUnit {
            src: self.id,
            ctr: Some(ctr),
            sealed: true,
            body: sealed.clone(),
        })
    }

    fn wrap_unit(&mut self, unit: DataUnit) -> bytes::Bytes {
        let frame = wrap_frame(
            &self.kc,
            self.id,
            self.id,
            self.seq,
            wall_us(),
            1,
            &Inner::Data(unit),
        );
        self.seq += 1;
        frame
    }

    /// Ratchets `Kci` forward to whatever epoch the shared schedule says
    /// is current — the same `hash_step` the daemon and every in-sim
    /// node apply, so the mote stays unwrappable across refresh
    /// boundaries (and across a daemon restart that caught up epochs).
    pub fn sync_epoch(&mut self, sched: &EpochSchedule, now_us: u64) {
        let target = sched.epoch_at(now_us);
        while self.epoch < target {
            self.kci = refresh::hash_step(&self.kci);
            self.kc = sealer(&self.kci);
            self.epoch += 1;
        }
    }
}

/// Provisions `motes` simulated motes (ids `1..=motes`) from the shared
/// master seed, with cipher schedules prebuilt. The server must be
/// spawned with `n = motes + 1` and the same seed.
pub fn provision_motes(motes: usize, seed: u64) -> Vec<Mote> {
    let mut provisioner = Provisioner::new(derive_seed(seed, 1));
    let mut army = Vec::with_capacity(motes);
    for id in 1..=motes as u32 {
        let m = provisioner.provision(id);
        army.push(Mote {
            id,
            kci: m.kci,
            kc: sealer(&m.kci),
            ki: sealer(&m.ki),
            ctr: 0,
            seq: 0,
            epoch: 0,
            route: 0,
        });
    }
    army
}

/// Client-side ARQ over the recovery layer's ACKs: every reading is
/// retransmitted (same dedup key, fresh `τ`) until acknowledged or
/// abandoned. This is what rides out injected loss and base-station
/// restarts — in-flight readings simply retry until the daemon is back.
#[derive(Clone, Debug)]
pub struct RetryConfig {
    /// Retransmit timeout for the first attempt, µs; doubles per retry.
    pub timeout_us: u64,
    /// Retransmits per reading before giving up.
    pub max_retries: u32,
    /// Uniform random extra delay added to each retransmit deadline, µs
    /// — decorrelates the retry storm after a daemon restart.
    pub jitter_us: u64,
    /// Per-thread cap on unacknowledged readings; new sends stall while
    /// the window is full.
    pub window: usize,
}

impl RetryConfig {
    /// The crash-soak schedule: 250 ms initial timeout doubling over 6
    /// retries (~16 s of patience — enough to span a kill + restart),
    /// 50 ms jitter, 64 readings in flight per thread.
    pub fn soak() -> Self {
        RetryConfig {
            timeout_us: 250_000,
            max_retries: 6,
            jitter_us: 50_000,
            window: 64,
        }
    }
}

/// Load-run parameters.
#[derive(Clone, Debug)]
pub struct LoadParams {
    /// Concurrent simulated motes.
    pub motes: usize,
    /// Master seed shared with the server.
    pub seed: u64,
    /// Server reader sockets to spray across (round-robin per send).
    pub targets: Vec<SocketAddr>,
    /// Sender threads; each owns one socket from the bounded pool and
    /// an `id % senders` partition of the mote population.
    pub senders: usize,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Reading payload size before sealing, bytes (min 8).
    pub payload_bytes: usize,
    /// Aggregate target send rate, readings/s (`None` = as fast as the
    /// sockets drain).
    pub rate: Option<u64>,
    /// Latency sampling: remember 1 in this many sends for RTT matching
    /// against ACKs (0 disables latency measurement).
    pub latency_sample: u64,
    /// Multi-sink routing: with `sinks > 1`, mote `id` always sends to
    /// `targets[id % sinks]` — the socket realization of nearest-sink
    /// assignment, matching a fleet of `wsn-bs --sink I --sinks K`
    /// daemons whose partitioned registries hold exactly those motes.
    /// `0` or `1` keeps the legacy round-robin spray.
    pub sinks: usize,
    /// Client-side ARQ (`None` = fire-and-forget, the legacy behavior:
    /// loss shows up as missing ACKs, nothing is retransmitted).
    pub retry: Option<RetryConfig>,
    /// Seeded fault injection wrapped around every sender socket; each
    /// thread gets a sub-seeded copy so schedules never collide.
    pub faults: Option<FaultConfig>,
    /// Shared refresh schedule: motes hash-ratchet `Kci` at its epoch
    /// boundaries exactly as the daemon does (`None` = no refresh).
    pub epochs: Option<EpochSchedule>,
    /// Client-side sink failover (requires ARQ and `sinks > 1`): when a
    /// reading exhausts its retries against one sink, rotate it to the
    /// next sink in [`failover_order`] — same Step-1 seal and dedup
    /// key, fresh `τ` for the new home — and remember the working sink
    /// for the mote's future sends. `false` keeps the single-home ARQ
    /// behavior byte-identical to pre-failover runs.
    pub failover: bool,
}

/// What a load run measured.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Motes simulated.
    pub motes: usize,
    /// Readings sent.
    pub sent: u64,
    /// ACKs received and matched to a live latency sample, plus ACKs
    /// observed without a sample (counted, not timed).
    pub acks_seen: u64,
    /// `send_to` failures (e.g. ECONNREFUSED bursts on loopback).
    pub send_errors: u64,
    /// Wall-clock elapsed.
    pub elapsed: Duration,
    /// Sustained send rate.
    pub sent_per_sec: f64,
    /// RTT samples collected.
    pub latency_samples: usize,
    /// Median round-trip, µs (send → BS accept → ACK back), if sampled.
    pub p50_us: Option<u64>,
    /// 99th-percentile round-trip, µs, if sampled.
    pub p99_us: Option<u64>,
    /// Unique readings acknowledged end-to-end (ARQ mode only).
    pub acked: u64,
    /// Retransmissions sent (ARQ mode only).
    pub retransmits: u64,
    /// Readings abandoned after exhausting their retries (ARQ mode
    /// only).
    pub gave_up: u64,
    /// Transient send/recv errors absorbed with bounded backoff
    /// (EAGAIN, ECONNREFUSED bursts, ENETUNREACH, …) instead of
    /// aborting the run. Also counted in `send_errors`.
    pub socket_retries: u64,
    /// Readings rotated to a different sink after exhausting their
    /// retries against the previous one (failover mode only).
    pub failovers: u64,
}

impl LoadReport {
    /// Fraction of unique readings acknowledged end-to-end (ARQ mode).
    pub fn ack_rate(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        self.acked as f64 / self.sent as f64
    }
}

/// Per-thread tallies merged into the final report.
#[derive(Default)]
struct ThreadTally {
    sent: u64,
    acks_seen: u64,
    send_errors: u64,
    samples: Vec<u64>,
    acked: u64,
    retransmits: u64,
    gave_up: u64,
    socket_retries: u64,
    failovers: u64,
}

/// Binds a nonblocking sender socket behind the fault shim, which passes
/// straight through when `params.faults` is `None`. Each thread gets a
/// sub-seeded schedule, so schedules never collide.
fn bind_sender(thread_idx: usize, params: &LoadParams) -> io::Result<FaultySocket> {
    let socket = UdpSocket::bind("127.0.0.1:0").or_else(|_| UdpSocket::bind("0.0.0.0:0"))?;
    socket.set_nonblocking(true)?;
    let faults = params.faults.clone().unwrap_or_else(FaultConfig::disabled);
    let cfg = FaultConfig {
        seed: derive_seed(faults.seed, 7_000 + thread_idx as u64),
        ..faults
    };
    // This thread is link `idx + 1`; the daemon end is 0.
    Ok(FaultySocket::new(socket, cfg, thread_idx as u32 + 1, 0))
}

/// Runs the load: partitions the mote army across `senders` threads,
/// each cycling its motes round-robin (so per-mote rates stay uniform
/// and far below any admission limit), draining ACKs opportunistically.
pub fn run(params: &LoadParams, army: Vec<Mote>) -> io::Result<LoadReport> {
    run_with_army(params, army).map(|(report, _)| report)
}

/// [`run`], but hands the mote army back (in its original order) so a
/// caller can run several measurement windows against the same
/// population — counters, sequence numbers and epochs carry across
/// windows, which replay protection at the base station requires.
pub fn run_with_army(params: &LoadParams, army: Vec<Mote>) -> io::Result<(LoadReport, Vec<Mote>)> {
    assert!(!params.targets.is_empty(), "no targets");
    assert!(params.senders >= 1);
    assert!(
        params.sinks <= 1 || params.targets.len() >= params.sinks,
        "--sinks {} needs at least that many targets (got {})",
        params.sinks,
        params.targets.len()
    );
    assert_eq!(army.len(), params.motes, "army size mismatch");
    let cfg = ProtocolConfig::default();

    // Partition motes across sender threads by position.
    let mut partitions: Vec<Vec<Mote>> = (0..params.senders).map(|_| Vec::new()).collect();
    for (i, mote) in army.into_iter().enumerate() {
        partitions[i % params.senders].push(mote);
    }

    let start = Instant::now();
    let mut handles = Vec::with_capacity(params.senders);
    for (p, motes) in partitions.into_iter().enumerate() {
        let params = params.clone();
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(
            move || -> io::Result<(ThreadTally, Vec<Mote>)> {
                match params.retry.clone() {
                    Some(rc) => sender_loop_arq(p, motes, &params, &cfg, &rc),
                    None => sender_loop(p, motes, &params, &cfg),
                }
            },
        ));
    }

    let mut report = LoadReport {
        motes: params.motes,
        ..LoadReport::default()
    };
    let mut all_samples: Vec<u64> = Vec::new();
    let mut returned: Vec<Vec<Mote>> = Vec::with_capacity(params.senders);
    for h in handles {
        let (tally, motes) = h.join().expect("sender thread panicked")?;
        report.sent += tally.sent;
        report.acks_seen += tally.acks_seen;
        report.send_errors += tally.send_errors;
        report.acked += tally.acked;
        report.retransmits += tally.retransmits;
        report.gave_up += tally.gave_up;
        report.socket_retries += tally.socket_retries;
        report.failovers += tally.failovers;
        all_samples.extend(tally.samples);
        returned.push(motes);
    }
    report.elapsed = start.elapsed();
    report.sent_per_sec = report.sent as f64 / report.elapsed.as_secs_f64();
    all_samples.sort_unstable();
    report.latency_samples = all_samples.len();
    if !all_samples.is_empty() {
        report.p50_us = Some(all_samples[all_samples.len() / 2]);
        report.p99_us = Some(all_samples[(all_samples.len() * 99) / 100]);
    }
    // Undo the round-robin partition: thread `p` held original army
    // positions p, p + senders, p + 2·senders, … in order.
    let total: usize = returned.iter().map(|v| v.len()).sum();
    let mut iters: Vec<_> = returned.into_iter().map(|v| v.into_iter()).collect();
    let mut army = Vec::with_capacity(total);
    for i in 0..total {
        army.push(
            iters[i % params.senders]
                .next()
                .expect("thread returned fewer motes than it was given"),
        );
    }
    Ok((report, army))
}

fn sender_loop(
    thread_idx: usize,
    mut motes: Vec<Mote>,
    params: &LoadParams,
    cfg: &ProtocolConfig,
) -> io::Result<(ThreadTally, Vec<Mote>)> {
    let mut socket = bind_sender(thread_idx, params)?;
    let mut tally = ThreadTally::default();
    if motes.is_empty() {
        return Ok((tally, motes));
    }
    let mut error_streak = 0u32;
    // Sampled in-flight sends: ACK key → send time. Bounded by pruning.
    let mut pending: HashMap<u64, u64> = HashMap::new();
    let mut rx_buf = vec![0u8; 2048];
    let per_thread_rate = params.rate.map(|r| (r as f64) / params.senders as f64);
    let start = Instant::now();
    let mut mote_idx = thread_idx; // desynchronize thread start positions
    let mut target_idx = thread_idx;
    let sample_every = params.latency_sample;

    while start.elapsed() < params.duration {
        // Pace against the per-thread budget if a rate was requested.
        if let Some(rate) = per_thread_rate {
            let budget = (start.elapsed().as_secs_f64() * rate) as u64;
            if tally.sent >= budget {
                legacy_drain(
                    &mut socket,
                    &mut rx_buf,
                    &mut motes,
                    params,
                    cfg,
                    &mut pending,
                    &mut tally,
                );
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
        }

        let n = motes.len();
        let mote = &mut motes[mote_idx % n];
        mote_idx += 1;
        if let Some(sched) = &params.epochs {
            mote.sync_epoch(sched, wall_us());
        }
        let target = home_target(params, mote.id, &mut target_idx);
        let reading = mote.next_reading(params.payload_bytes);
        match socket.send_to(&reading.frame, target) {
            Ok(_) => {
                error_streak = 0;
                tally.sent += 1;
                if sample_every > 0 && tally.sent.is_multiple_of(sample_every) {
                    pending.insert(reading.ack_key, wall_us());
                    // Keep the sample map bounded: drop stale samples
                    // (their ACK was lost or shed) once it grows.
                    if pending.len() > 65_536 {
                        let cutoff = wall_us().saturating_sub(5_000_000);
                        pending.retain(|_, &mut t| t >= cutoff);
                    }
                }
            }
            Err(e) => absorb_send_error(&e, &mut error_streak, &mut tally),
        }

        // Drain replies periodically rather than per send.
        if tally.sent.is_multiple_of(32) {
            legacy_drain(
                &mut socket,
                &mut rx_buf,
                &mut motes,
                params,
                cfg,
                &mut pending,
                &mut tally,
            );
        }
    }
    // Final drain: catch ACKs still in flight at the deadline.
    let grace = Instant::now();
    while grace.elapsed() < Duration::from_millis(200) {
        legacy_drain(
            &mut socket,
            &mut rx_buf,
            &mut motes,
            params,
            cfg,
            &mut pending,
            &mut tally,
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok((tally, motes))
}

/// A reading awaiting its ACK in ARQ mode.
struct InFlight {
    /// Index into the thread's mote partition.
    mote_pos: usize,
    ctr: u64,
    sealed: bytes::Bytes,
    target: SocketAddr,
    /// Wall time to retransmit at, µs.
    deadline: u64,
    /// Retransmits performed so far against the current target.
    attempts: u32,
    /// Retransmits performed across every target (failover mode).
    total_attempts: u32,
    /// Position in the mote's sink-preference chain: 0 = home sink,
    /// `p` = `failover_order(home)[p - 1]`.
    sink_pos: u32,
    /// First-send time when this reading was latency-sampled.
    sent_at: Option<u64>,
}

/// The sink a mote at preference position `pos` sends to: its home at
/// position 0, then the [`failover_order`] of that home. `orders[h]`
/// must be `failover_order(h, sinks)`.
fn chain_sink(home: usize, pos: u32, orders: &[Vec<u32>]) -> usize {
    if pos == 0 {
        home
    } else {
        orders[home][pos as usize - 1] as usize
    }
}

fn sender_loop_arq(
    thread_idx: usize,
    mut motes: Vec<Mote>,
    params: &LoadParams,
    cfg: &ProtocolConfig,
    rc: &RetryConfig,
) -> io::Result<(ThreadTally, Vec<Mote>)> {
    let mut socket = bind_sender(thread_idx, params)?;
    let mut tally = ThreadTally::default();
    if motes.is_empty() {
        return Ok((tally, motes));
    }
    let mut rng = StdRng::seed_from_u64(derive_seed(params.seed, 0x517 + thread_idx as u64));
    let mut pending: HashMap<u64, InFlight> = HashMap::new();
    let mut rx_buf = vec![0u8; 2048];
    let per_thread_rate = params.rate.map(|r| (r as f64) / params.senders as f64);
    let start = Instant::now();
    let mut mote_idx = thread_idx;
    let mut target_idx = thread_idx;
    let sample_every = params.latency_sample;
    let mut error_streak = 0u32;
    // Failover bookkeeping: per-home preference orders, and each
    // mote's learned position in its chain (all start at home).
    let failover = params.failover && params.sinks > 1;
    let orders: Vec<Vec<u32>> = if failover {
        (0..params.sinks as u32)
            .map(|h| failover_order(h, params.sinks as u32))
            .collect()
    } else {
        Vec::new()
    };
    let mut routes: Vec<u32> = if failover {
        motes.iter().map(|m| m.route).collect()
    } else {
        Vec::new()
    };

    while start.elapsed() < params.duration {
        arq_drain(
            &mut socket,
            &mut rx_buf,
            &mut motes,
            params,
            cfg,
            &mut pending,
            &mut tally,
            &mut routes,
        );
        retransmit_due(
            &mut socket,
            &mut motes,
            params,
            rc,
            &mut rng,
            &mut pending,
            &mut tally,
            &orders,
            &mut routes,
        );

        // Window and rate gates: stall (draining) rather than send.
        let stalled = pending.len() >= rc.window
            || per_thread_rate
                .is_some_and(|rate| tally.sent >= (start.elapsed().as_secs_f64() * rate) as u64);
        if stalled {
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }

        let n = motes.len();
        let pos = mote_idx % n;
        mote_idx += 1;
        if let Some(sched) = &params.epochs {
            motes[pos].sync_epoch(sched, wall_us());
        }
        let (target, sink_pos) = if failover {
            // Send along the mote's learned route (home until a
            // failover moved it).
            let sp = routes[pos];
            let home = motes[pos].id as usize % params.sinks;
            (params.targets[chain_sink(home, sp, &orders)], sp)
        } else {
            (home_target(params, motes[pos].id, &mut target_idx), 0)
        };
        let reading = motes[pos].next_reading(params.payload_bytes);
        match socket.send_to(&reading.frame, target) {
            Ok(_) => {
                error_streak = 0;
                tally.sent += 1;
                let sent_at =
                    (sample_every > 0 && tally.sent.is_multiple_of(sample_every)).then(wall_us);
                pending.insert(
                    reading.ack_key,
                    InFlight {
                        mote_pos: pos,
                        ctr: reading.ctr,
                        sealed: reading.sealed,
                        target,
                        deadline: wall_us() + rc.timeout_us + rng.gen_range(0..=rc.jitter_us),
                        attempts: 0,
                        total_attempts: 0,
                        sink_pos,
                        sent_at,
                    },
                );
            }
            Err(e) => absorb_send_error(&e, &mut error_streak, &mut tally),
        }
    }
    // Closing drain: keep retransmitting until the window empties or
    // patience runs out, so readings in flight at the deadline still
    // count toward the ACK rate.
    let grace = Instant::now();
    let patience = Duration::from_micros(rc.timeout_us << (rc.max_retries.min(8) + 1));
    while !pending.is_empty() && grace.elapsed() < patience.min(Duration::from_secs(20)) {
        arq_drain(
            &mut socket,
            &mut rx_buf,
            &mut motes,
            params,
            cfg,
            &mut pending,
            &mut tally,
            &mut routes,
        );
        retransmit_due(
            &mut socket,
            &mut motes,
            params,
            rc,
            &mut rng,
            &mut pending,
            &mut tally,
            &orders,
            &mut routes,
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for (m, &r) in motes.iter_mut().zip(&routes) {
        m.route = r;
    }
    Ok((tally, motes))
}

/// Retransmits every in-flight reading past its deadline; abandons
/// readings that exhausted their retries. In failover mode (`orders`
/// non-empty) a reading that exhausts its retries against one sink is
/// instead rotated to the next sink in its preference chain — fresh
/// retry budget, same dedup key — and the mote's route follows it, so
/// its future sends start at the sink that might still answer. Only
/// when the whole chain is exhausted (`max_retries × sinks` attempts)
/// is the reading abandoned.
#[allow(clippy::too_many_arguments)]
fn retransmit_due(
    socket: &mut FaultySocket,
    motes: &mut [Mote],
    params: &LoadParams,
    rc: &RetryConfig,
    rng: &mut StdRng,
    pending: &mut HashMap<u64, InFlight>,
    tally: &mut ThreadTally,
    orders: &[Vec<u32>],
    routes: &mut [u32],
) {
    let now = wall_us();
    let mut abandoned: Vec<u64> = Vec::new();
    for (key, inf) in pending.iter_mut() {
        if inf.deadline > now {
            continue;
        }
        if inf.attempts >= rc.max_retries {
            let budget = rc.max_retries * params.sinks.max(1) as u32;
            if orders.is_empty() || inf.total_attempts >= budget {
                abandoned.push(*key);
                continue;
            }
            // Rotate to the next sink in this mote's chain and move
            // the mote's route with it.
            inf.sink_pos = (inf.sink_pos + 1) % params.sinks as u32;
            let home = motes[inf.mote_pos].id as usize % params.sinks;
            inf.target = params.targets[chain_sink(home, inf.sink_pos, orders)];
            inf.attempts = 0;
            routes[inf.mote_pos] = inf.sink_pos;
            tally.failovers += 1;
        }
        let mote = &mut motes[inf.mote_pos];
        if let Some(sched) = &params.epochs {
            mote.sync_epoch(sched, now);
        }
        let frame = mote.rewrap(inf.ctr, &inf.sealed);
        match socket.send_to(&frame, inf.target) {
            Ok(_) => {}
            Err(e) => {
                tally.send_errors += 1;
                if is_transient_socket_error(&e) {
                    tally.socket_retries += 1;
                }
            }
        }
        inf.attempts += 1;
        inf.total_attempts += 1;
        tally.retransmits += 1;
        // Exponential backoff with jitter; `wall_us` re-read so a slow
        // send doesn't compress the next interval.
        let backoff = rc.timeout_us << inf.attempts.min(16);
        inf.deadline = wall_us() + backoff + rng.gen_range(0..=rc.jitter_us);
    }
    for key in abandoned {
        pending.remove(&key);
        tally.gave_up += 1;
    }
}

/// Drains the socket non-blocking; unwraps ACK frames under the owning
/// mote's cluster key and resolves matching in-flight readings. With
/// failover routes (`routes` non-empty) an ACK confirms the sink that
/// answered, so the mote's route snaps to the acked reading's position
/// — this is how motes drift back to a recovered home sink after its
/// entries are handed back.
#[allow(clippy::too_many_arguments)]
fn arq_drain(
    socket: &mut FaultySocket,
    buf: &mut [u8],
    motes: &mut [Mote],
    params: &LoadParams,
    cfg: &ProtocolConfig,
    pending: &mut HashMap<u64, InFlight>,
    tally: &mut ThreadTally,
    routes: &mut [u32],
) {
    let mut acks_seen = 0u64;
    let mut acked: Vec<InFlight> = Vec::new();
    drain_acks(socket, buf, motes, params, cfg, |key| {
        acks_seen += 1;
        if let Some(inf) = pending.remove(&key) {
            acked.push(inf);
        }
    });
    tally.acks_seen += acks_seen;
    let now = wall_us();
    for inf in acked {
        tally.acked += 1;
        if !routes.is_empty() {
            routes[inf.mote_pos] = inf.sink_pos;
        }
        if let Some(sent_at) = inf.sent_at {
            tally.samples.push(now.saturating_sub(sent_at));
        }
    }
}

/// Legacy drain: matches ACKs against the sampled-send map only.
fn legacy_drain(
    socket: &mut FaultySocket,
    buf: &mut [u8],
    motes: &mut [Mote],
    params: &LoadParams,
    cfg: &ProtocolConfig,
    pending: &mut HashMap<u64, u64>,
    tally: &mut ThreadTally,
) {
    let mut acks_seen = 0u64;
    let mut matched: Vec<u64> = Vec::new();
    drain_acks(socket, buf, motes, params, cfg, |key| {
        acks_seen += 1;
        if let Some(sent_at) = pending.remove(&key) {
            matched.push(sent_at);
        }
    });
    tally.acks_seen += acks_seen;
    let now = wall_us();
    for sent_at in matched {
        tally.samples.push(now.saturating_sub(sent_at));
    }
}

/// Shared ACK-unwrap plumbing: reads every queued datagram, finds the
/// owning mote by cluster id, verifies the wrap, and hands each ACK key
/// to `on_ack`. Epoch sync runs before unwrapping so ACKs keep
/// verifying across a refresh boundary.
fn drain_acks(
    socket: &mut FaultySocket,
    buf: &mut [u8],
    motes: &mut [Mote],
    params: &LoadParams,
    cfg: &ProtocolConfig,
    mut on_ack: impl FnMut(u64),
) {
    loop {
        let len = match socket.recv_from(buf) {
            Ok((len, _)) => len,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(_) => return,
        };
        let Some((cid, nonce, sealed)) = Message::peek_wrapped(&buf[..len]) else {
            continue;
        };
        // cid → owning mote: this thread holds ids where the position
        // (id - 1) mod senders landed here; ids ascend by `senders`.
        let first = motes[0].id;
        let stride = if motes.len() > 1 {
            motes[1].id - motes[0].id
        } else {
            1
        };
        if cid < first || !(cid - first).is_multiple_of(stride) {
            continue;
        }
        let idx = ((cid - first) / stride) as usize;
        let Some(mote) = motes.get_mut(idx) else {
            continue;
        };
        if let Some(sched) = &params.epochs {
            mote.sync_epoch(sched, wall_us());
        }
        let Ok(u) = unwrap_with(&mote.kc, cid, nonce, sealed, wall_us(), cfg) else {
            continue;
        };
        if let Inner::Ack { key } = u.inner {
            on_ack(key);
        }
    }
}

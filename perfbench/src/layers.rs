//! Per-layer timings for traced runs: each module's public functions
//! timed in isolation, and the attribution of one reading's measured
//! cost to those stages.
//!
//! Every micro-timing passes its inputs and outputs through
//! `std::hint::black_box`, so the compiler can neither precompute the
//! work nor delete it; `rc5_scales_with_iterations` below checks that
//! the timed work grows with the iteration count.

use crate::measure::median;
use crate::udp_durable::{protocol_config, PAYLOAD_BYTES};
use crate::{scratch_dir, Run};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::net::UdpSocket;
use std::time::{Duration, Instant};
use wsn_core::base_station::BaseStation;
use wsn_core::config::ProtocolConfig;
use wsn_core::forward::{
    e2e_open_with, e2e_seal_with, open_setup_with, seal_setup_with, sealer, unwrap_in, wrap_frame,
    CounterWindow,
};
use wsn_core::keys::Provisioner;
use wsn_core::msg::{DataUnit, Inner, Message};
use wsn_core::persist::StateMutation;
use wsn_core::transport::Transport;
use wsn_crypto::cbcmac::CbcMac;
use wsn_crypto::hmac::HmacSha256;
use wsn_crypto::prf::PrfKey;
use wsn_crypto::rc5::Rc5;
use wsn_crypto::{BlockCipher, Key128};
use wsn_net::load::provision_motes;
use wsn_net::udp::wall_us;
use wsn_net::wal::StateStore;
use wsn_sim::event::{EventKind, EventQueue, SimTime};
use wsn_sim::node::{NodeId, TimerKey};

/// Samples per micro-timing; the reported value is their median.
const SAMPLES: usize = 9;
/// Target length of one sample.
const SAMPLE_TIME: Duration = Duration::from_millis(15);

/// Runs `op(i)` for `i` in `0..iters` and returns the elapsed time.
fn timed_loop<R>(iters: u64, mut op: impl FnMut(u64) -> R) -> Duration {
    let start = Instant::now();
    for i in 0..iters {
        black_box(op(black_box(i)));
    }
    start.elapsed()
}

/// Median nanoseconds per call of `op`, with the iteration count sized so
/// one sample takes about [`SAMPLE_TIME`].
fn ns_per_op<R>(mut op: impl FnMut(u64) -> R) -> f64 {
    let mut iters = 1u64;
    while timed_loop(iters, &mut op) < SAMPLE_TIME / 10 && iters < 1 << 30 {
        iters *= 2;
    }
    iters *= 10;
    let laps: Vec<f64> = (0..SAMPLES)
        .map(|_| timed_loop(iters, &mut op).as_nanos() as f64 / iters as f64)
        .collect();
    median(&laps)
}

/// One RC5-32/12 block encryption, chained so every call depends on the
/// previous ciphertext.
fn rc5_op(rc5: &Rc5, block: &mut [u8; 8]) {
    rc5.encrypt_block(black_box(&mut block[..]));
}

fn crypto(run: &mut Run) {
    let key = Key128::from_bytes([0x42; 16]);
    let k2 = Key128::from_bytes([0x17; 16]);
    let payload32 = [0xA5u8; 32];
    let payload64 = [0x5Au8; 64];

    let rc5 = Rc5::new(&key);
    let mut block = [0u8; 8];
    run.layer(
        "crypto.rc5_block_ns",
        ns_per_op(|_| rc5_op(&rc5, &mut block)),
    );

    let ae = sealer(&k2);
    run.layer(
        "crypto.aead_seal_32b_ns",
        ns_per_op(|i| ae.seal(i, black_box(&payload32))),
    );
    let sealed = ae.seal(7, &payload32);
    run.layer(
        "crypto.aead_open_32b_ns",
        ns_per_op(|_| {
            ae.open(black_box(7), black_box(&sealed))
                .expect("valid tag")
        }),
    );
    let mac = CbcMac::new(Rc5::new(&key));
    run.layer(
        "crypto.cbcmac_64b_ns",
        ns_per_op(|_| mac.tag(black_box(&payload64))),
    );
    run.layer(
        "crypto.hmac_sha256_32b_ns",
        ns_per_op(|_| HmacSha256::mac(black_box(key.as_bytes()), black_box(&payload32))),
    );
    // `Kci = F(KMC, i)` on a cached PRF schedule, as the provisioner runs it.
    let kmc = PrfKey::new(&key);
    run.layer(
        "crypto.prf_derive_ns",
        ns_per_op(|i| kmc.cluster_key(i as u32)),
    );
}

/// A reading's Step-2 frame as a forwarder emits it: a Step-1 sealed
/// 24-byte payload with an explicit counter, wrapped under a cluster key.
fn data_unit(src: u32, ctr: u64, body: &[u8]) -> Inner {
    Inner::Data(DataUnit {
        src,
        ctr: Some(ctr),
        sealed: true,
        body: bytes::Bytes::copy_from_slice(body),
    })
}

fn forward(run: &mut Run) {
    let cfg = ProtocolConfig::default();
    let ki = sealer(&Key128::from_bytes([0x11; 16]));
    let kc = sealer(&Key128::from_bytes([0x22; 16]));
    let data = [0x3Cu8; PAYLOAD_BYTES];

    run.layer(
        "forward.e2e_seal_ns",
        ns_per_op(|i| e2e_seal_with(&ki, 9, i, black_box(&data))),
    );
    let c1 = e2e_seal_with(&ki, 9, 5, &data);
    run.layer(
        "forward.e2e_open_ns",
        ns_per_op(|_| e2e_open_with(&ki, 9, black_box(5), black_box(&c1)).expect("valid")),
    );
    let inner = data_unit(9, 5, &c1);
    let now: SimTime = 1_000_000;
    run.layer(
        "forward.wrap_frame_ns",
        ns_per_op(|i| wrap_frame(&kc, 3, 9, i, black_box(now), 4, black_box(&inner))),
    );
    let frame = wrap_frame(&kc, 3, 9, 1, now, 4, &inner);
    let (cid, nonce, sealed) = Message::peek_wrapped(&frame).expect("wrapped frame");
    let mut scratch = Vec::new();
    run.layer(
        "forward.unwrap_in_ns",
        ns_per_op(|_| {
            unwrap_in(&kc, cid, nonce, black_box(sealed), now, &cfg, &mut scratch)
                .expect("valid frame")
        }),
    );
    let mut window = CounterWindow::new();
    run.layer(
        "forward.counter_accept_ns",
        ns_per_op(|i| window.accept(black_box(i)).is_ok()),
    );
}

fn setup_and_keys(run: &mut Run) {
    let km = sealer(&Key128::from_bytes([0x33; 16]));
    let kci = Key128::from_bytes([0x44; 16]);
    run.layer(
        "setup.hello_seal_ns",
        ns_per_op(|i| seal_setup_with(&km, 9, i, 9, black_box(&kci))),
    );
    let (nonce, hello) = seal_setup_with(&km, 9, 1, 9, &kci);
    run.layer(
        "setup.hello_open_ns",
        ns_per_op(|_| open_setup_with(&km, black_box(nonce), black_box(&hello)).expect("valid")),
    );
    const NODES: u32 = 20_000;
    let mut provisioner = Provisioner::new(0x5EED);
    let start = Instant::now();
    for id in 0..NODES {
        black_box(provisioner.provision(black_box(id)));
    }
    run.layer(
        "keys.provision_us_per_node",
        start.elapsed().as_secs_f64() * 1e6 / NODES as f64,
    );
}

/// The simulator's event core: one schedule plus one pop of a timer
/// event on a heap holding a steady backlog.
fn event_core(run: &mut Run) {
    const BACKLOG: u64 = 1_024;
    let mut q = EventQueue::with_capacity(BACKLOG as usize * 2);
    for i in 0..BACKLOG {
        q.schedule(i, timer(i));
    }
    let mut now = BACKLOG;
    run.layer(
        "sim.event_queue_ns",
        ns_per_op(|i| {
            now += 1;
            q.schedule(black_box(now + (i * 7919) % BACKLOG), timer(i));
            q.pop().expect("non-empty heap").at
        }),
    );
}

fn timer(i: u64) -> EventKind {
    EventKind::Timer {
        node: (i % 10_000) as NodeId,
        key: 1,
        gen: i,
    }
}

/// A benchmark-owned [`Transport`]: the base station's replies and timers
/// are counted and dropped.
struct StubTransport {
    now: SimTime,
    rng: StdRng,
    sent: u64,
}

impl Transport for StubTransport {
    fn id(&self) -> NodeId {
        0
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
    fn broadcast(&mut self, payload: bytes::Bytes) {
        black_box(payload);
        self.sent += 1;
    }
    fn send(&mut self, _to: NodeId, payload: bytes::Bytes) {
        black_box(payload);
        self.sent += 1;
    }
    fn set_timer(&mut self, key: TimerKey, delay: SimTime) {
        black_box((key, delay));
    }
    fn cancel_timer(&mut self, key: TimerKey) {
        black_box(key);
    }
}

/// The base station's per-reading path and the WAL append behind it:
/// `dispatch_message` on sealed readings from provisioned motes with the
/// journal on (Step-2 unwrap, Step-1 open, counter window, dedup, ACK
/// seal), then `StateStore::append` of each reading's journal batch.
fn base_station_and_wal(run: &mut Run) {
    const MOTES: usize = 1_000;
    const ROUNDS: usize = 8;
    let seed = 0xB5;
    let mut provisioner = Provisioner::new(wsn_sim::rng::derive_seed(seed, 1));
    for id in 0..=MOTES as u32 {
        provisioner.provision(id);
    }
    let cluster_keys = (0..=MOTES as u32)
        .map(|id| (id, provisioner.cluster_key_of(id)))
        .collect();
    let mut bs = BaseStation::new(
        protocol_config(),
        0,
        provisioner.km(),
        provisioner.registry().clone(),
        cluster_keys,
        provisioner.revocation_chain(),
    );
    bs.enable_journal();
    let mut ctx = StubTransport {
        now: wall_us(),
        rng: StdRng::seed_from_u64(seed),
        sent: 0,
    };
    let mut army = provision_motes(MOTES, seed);
    let mut batches: Vec<Vec<StateMutation>> = Vec::with_capacity(MOTES * ROUNDS);
    let mut dispatch_us = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        // Frames are stamped just before dispatch so `τ` stays fresh.
        let frames: Vec<_> = army
            .iter_mut()
            .map(|m| m.next_reading(PAYLOAD_BYTES))
            .collect();
        ctx.now = wall_us();
        let start = Instant::now();
        for r in &frames {
            bs.dispatch_message(&mut ctx, black_box(&r.frame));
            batches.push(bs.drain_journal());
        }
        dispatch_us.push(start.elapsed().as_secs_f64() * 1e6 / MOTES as f64);
        bs.received.clear();
    }
    let readings = (MOTES * ROUNDS) as u64;
    run.check(
        "micro: the base station ACKed every dispatched reading",
        ctx.sent == readings && bs.counter_rejects == 0 && bs.drops.bad_auth == 0,
    );
    run.layer("bs.dispatch_reading_us", median(&dispatch_us));

    let dir = scratch_dir().join(format!("wal-micro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut store, _) = StateStore::open(&dir, 0).expect("opening the micro-benchmark WAL");
    store.snapshot_every_bytes = u64::MAX;
    let mut bytes = 0u64;
    let start = Instant::now();
    for batch in &batches {
        bytes += store.append(black_box(batch)).expect("WAL append");
    }
    let append_us = start.elapsed().as_secs_f64() * 1e6 / batches.len() as f64;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    run.layer("wal.append_us", append_us);
    run.layer("wal.bytes_per_reading", bytes as f64 / readings as f64);
}

/// The socket floor: one datagram sent and received over loopback, no
/// thread hand-off.
fn syscalls(run: &mut Run) {
    const PAIRS: u32 = 20_000;
    let a = UdpSocket::bind("127.0.0.1:0").expect("binding a loopback socket");
    let b = UdpSocket::bind("127.0.0.1:0").expect("binding a loopback socket");
    let to = b.local_addr().expect("local address");
    let msg = [0xABu8; 64];
    let mut buf = [0u8; 256];
    let mut laps = Vec::new();
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..PAIRS / SAMPLES as u32 {
            a.send_to(black_box(&msg), to).expect("loopback send");
            black_box(b.recv_from(&mut buf).expect("loopback receive"));
        }
        laps.push(start.elapsed().as_secs_f64() * 1e6 / (PAIRS / SAMPLES as u32) as f64);
    }
    run.layer("udp.syscall_roundtrip_us", median(&laps));
}

fn load_generator(run: &mut Run) {
    let mut army = provision_motes(64, 0x10AD);
    run.layer(
        "load.next_reading_us",
        ns_per_op(|i| army[(i % 64) as usize].next_reading(black_box(PAYLOAD_BYTES))) / 1e3,
    );
}

/// Runs every micro-timing.
pub fn measure_all(run: &mut Run) {
    crypto(run);
    forward(run);
    setup_and_keys(run);
    event_core(run);
    base_station_and_wal(run);
    syscalls(run);
    load_generator(run);
}

fn layer(run: &Run, name: &str) -> f64 {
    run.layers.get(name).copied().unwrap_or(0.0)
}

/// Attributes a reading's measured cost to stages: Σ(stage unit cost ×
/// the exact per-reading count of that stage) over the measured cost of
/// one reading. Both shares are reported; the unattributed remainder is
/// whatever the stages do not explain (allocation, dispatch glue, cache
/// misses, thread hand-offs, idle wake-ups).
pub fn attribute_stages(run: &mut Run) {
    let input = |run: &Run, k: &str| run.stage_inputs.get(k).copied();
    if let Some(per_reading_us) = input(run, "sim-steady.per_reading_us") {
        let tx = input(run, "sim-steady.tx").unwrap_or(0.0);
        let rx = input(run, "sim-steady.rx").unwrap_or(0.0);
        let events = input(run, "sim-steady.events").unwrap_or(0.0);
        let stages_ns = tx * layer(run, "forward.wrap_frame_ns")
            + rx * layer(run, "forward.unwrap_in_ns")
            + events * layer(run, "sim.event_queue_ns")
            + layer(run, "forward.e2e_seal_ns")
            + layer(run, "forward.e2e_open_ns");
        let share = stages_ns / 1e3 / per_reading_us;
        run.layer("stages.sim-steady.attributed_share", share);
        run.layer("stages.sim-steady.unattributed_share", 1.0 - share);
    }
    if let Some(cpu_us) = input(run, "udp-durable.cpu_us_per_reading") {
        let datagrams = input(run, "udp-durable.datagrams_rx").unwrap_or(0.0)
            + input(run, "udp-durable.datagrams_tx").unwrap_or(0.0);
        let appends = input(run, "udp-durable.appends").unwrap_or(0.0);
        let stages_us = layer(run, "load.next_reading_us")
            + datagrams * layer(run, "udp.syscall_roundtrip_us")
            + layer(run, "bs.dispatch_reading_us")
            + appends * layer(run, "wal.append_us")
            + layer(run, "forward.unwrap_in_ns") / 1e3;
        let share = stages_us / cpu_us;
        run.layer("stages.udp-durable.attributed_share", share);
        run.layer("stages.udp-durable.unattributed_share", 1.0 - share);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The RC5 timing must measure real work: time grows with the
    /// iteration count and a block costs more than a few cycles (24
    /// data-dependent rotates). A loop the compiler deleted would read
    /// the same at any count, near zero per block.
    #[test]
    fn rc5_scales_with_iterations() {
        let rc5 = Rc5::new(&Key128::from_bytes([0x42; 16]));
        let mut block = [0u8; 8];
        let n = 200_000;
        // Best of three absorbs scheduler noise on a shared host.
        let best = |iters: u64, block: &mut [u8; 8]| {
            (0..3)
                .map(|_| timed_loop(iters, |_| rc5_op(&rc5, block)))
                .min()
                .expect("three laps")
        };
        let short = best(n, &mut block);
        let long = best(8 * n, &mut block);
        let ratio = long.as_secs_f64() / short.as_secs_f64();
        assert!(
            (4.0..16.0).contains(&ratio),
            "8x the iterations took {ratio:.2}x the time"
        );
        let ns = long.as_nanos() as f64 / (8 * n) as f64;
        assert!(ns > 2.0, "{ns:.2} ns per RC5 block is too fast to be real");
    }

    #[test]
    fn micro_timer_reports_positive_costs() {
        let mut run = Run::default();
        forward(&mut run);
        for (name, v) in &run.layers {
            assert!(*v > 0.0, "{name} = {v}");
        }
    }
}

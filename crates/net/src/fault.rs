//! Deterministic datagram fault injection.
//!
//! `wsn-chaos` crashes nodes, partitions regions and swaps link models
//! inside the simulator. This module adds seeded per-datagram schedules:
//! a [`FaultEngine`] decides, per datagram, whether to drop, duplicate,
//! reorder, delay or corrupt it, and two hosts consume those decisions:
//!
//! * [`FaultySocket`] wraps a `std::net::UdpSocket` (the load
//!   generator's send/recv path), holding delayed frames in user space
//!   and releasing them on later calls;
//! * the simulator, through its schedule-time delivery hook
//!   (`Simulator::set_delivery_hook` with a [`FaultEngine`]), applies
//!   the same decisions to its delivery queue and traces each one as a
//!   `NetFaultInjected` event.
//!
//! Determinism is the contract throughout:
//!
//! * Drop decisions reuse [`wsn_chaos::gilbert`] — the same
//!   Gilbert–Elliott burst process as the simulator's chaos plans, with
//!   the same private per-link RNG streams, so a `(seed, link,
//!   delivery-count)` triple names the same drop on every backend.
//! * The remaining knobs draw from a dedicated engine RNG, and a knob
//!   that is **off consumes zero draws**: installing a
//!   [`FaultConfig::disabled`] engine is byte-identical to installing
//!   none at all (pinned by the `fault_differential` test).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Instant;
use wsn_chaos::gilbert::{GeParams, GilbertElliott};
use wsn_sim::event::SimTime;
use wsn_sim::link::{DeliveryHook, LinkProcess, ScheduledCopy};
use wsn_sim::node::NodeId;
use wsn_sim::rng::derive_seed;

/// Seeded per-datagram fault schedule. Every probability is per
/// datagram; a knob at its zero value consumes no randomness.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Master seed; the drop process and the perturbation RNG derive
    /// private streams from it.
    pub seed: u64,
    /// Correlated burst loss (None = no drops).
    pub drop: Option<GeParams>,
    /// Probability a datagram is delivered twice.
    pub duplicate: f64,
    /// Probability a datagram is held past later sends (reordering —
    /// realized as an extra delay drawn from `reorder_delay_us`).
    pub reorder: f64,
    /// Extra hold applied to a reordered datagram, uniform inclusive
    /// range in microseconds.
    pub reorder_delay_us: (u64, u64),
    /// Baseline delay applied to every datagram, uniform inclusive
    /// range in microseconds (`(0, 0)` = none).
    pub delay_us: (u64, u64),
    /// Probability one payload byte is flipped in flight.
    pub corrupt: f64,
}

impl FaultConfig {
    /// Every knob off. Installing this engine is byte-identical to
    /// installing no engine (zero RNG draws per datagram).
    pub fn disabled() -> Self {
        FaultConfig {
            seed: 0,
            drop: None,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_delay_us: (0, 0),
            delay_us: (0, 0),
            corrupt: 0.0,
        }
    }

    /// True when no knob can ever fire.
    pub fn is_disabled(&self) -> bool {
        self.drop.is_none()
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.delay_us.1 == 0
            && self.corrupt == 0.0
    }

    /// The committed crash-soak schedule: 10% bursty drop (mean burst 4
    /// deliveries) plus 20% reordering held 1–5 ms and a trickle of
    /// duplicates. No corruption — the soak's zero-protocol-error gate
    /// must measure loss resilience, not MAC rejections.
    pub fn soak(seed: u64) -> Self {
        FaultConfig {
            seed,
            drop: Some(GeParams::bursty(0.10, 4.0)),
            duplicate: 0.02,
            reorder: 0.20,
            reorder_delay_us: (1_000, 5_000),
            delay_us: (0, 0),
            corrupt: 0.0,
        }
    }
}

/// What happened to the datagrams that crossed an engine, by fault kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Datagrams silently discarded.
    pub dropped: u64,
    /// Extra copies delivered.
    pub duplicated: u64,
    /// Datagrams held for reordering.
    pub reordered: u64,
    /// Datagrams given a baseline delay.
    pub delayed: u64,
    /// Datagrams with a flipped payload byte.
    pub corrupted: u64,
}

impl FaultCounters {
    /// Total perturbations applied.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.reordered + self.delayed + self.corrupted
    }
}

/// The seeded decision core shared by [`FaultySocket`] and the
/// simulator's delivery hook.
pub struct FaultEngine {
    cfg: FaultConfig,
    ge: Option<GilbertElliott>,
    /// Scratch RNG handed to [`LinkProcess::should_drop`]; the GE
    /// process keeps private per-link streams and never touches it.
    ge_scratch: StdRng,
    /// Draws for duplicate/reorder/delay/corrupt, consumed only while
    /// the corresponding knob is on.
    rng: StdRng,
    counters: FaultCounters,
}

impl FaultEngine {
    /// Builds an engine for `cfg`. Sub-seed 1 feeds the drop process,
    /// sub-seed 2 the perturbation RNG — so turning one knob never
    /// shifts another knob's stream.
    pub fn new(cfg: FaultConfig) -> Self {
        let ge = cfg
            .drop
            .map(|p| GilbertElliott::new(p, derive_seed(cfg.seed, 1)));
        FaultEngine {
            ge,
            ge_scratch: StdRng::seed_from_u64(derive_seed(cfg.seed, 3)),
            rng: StdRng::seed_from_u64(derive_seed(cfg.seed, 2)),
            counters: FaultCounters::default(),
            cfg,
        }
    }

    /// The configured schedule.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Perturbations applied so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }
}

impl DeliveryHook for FaultEngine {
    /// Decides the fate of one datagram on the directed link
    /// `from -> to`. With every knob off this returns exactly one clean
    /// copy and consumes zero RNG draws.
    fn decide(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        now: SimTime,
    ) -> Vec<ScheduledCopy> {
        if let Some(ge) = self.ge.as_mut() {
            if ge.should_drop(from, to, bytes, now, &mut self.ge_scratch) {
                self.counters.dropped += 1;
                return Vec::new();
            }
        }
        let copies = if self.cfg.duplicate > 0.0 && self.rng.gen::<f64>() < self.cfg.duplicate {
            self.counters.duplicated += 1;
            2
        } else {
            1
        };
        let mut out = Vec::with_capacity(copies);
        for _ in 0..copies {
            let mut copy = ScheduledCopy::clean();
            if self.cfg.delay_us.1 > 0 {
                copy.delay_us += self
                    .rng
                    .gen_range(self.cfg.delay_us.0..=self.cfg.delay_us.1);
                self.counters.delayed += 1;
            }
            if self.cfg.reorder > 0.0 && self.rng.gen::<f64>() < self.cfg.reorder {
                let (lo, hi) = self.cfg.reorder_delay_us;
                copy.delay_us += self.rng.gen_range(lo..=hi.max(lo));
                self.counters.reordered += 1;
            }
            if self.cfg.corrupt > 0.0 && self.rng.gen::<f64>() < self.cfg.corrupt {
                let offset = self.rng.gen_range(0..u16::MAX as usize);
                let mask = self.rng.gen_range(1..=u8::MAX);
                copy.corrupt = Some((offset, mask));
                self.counters.corrupted += 1;
            }
            out.push(copy);
        }
        out
    }
}

/// A datagram held back by the socket shim, waiting for its release
/// deadline.
struct HeldFrame {
    release: Instant,
    buf: Vec<u8>,
    to: SocketAddr,
}

/// A fault-injecting wrapper around a `UdpSocket`.
///
/// Outbound datagrams pass through the engine: drops vanish, duplicates
/// send twice, delayed/reordered copies are held in user space and
/// flushed on subsequent calls (send *or* recv — whichever touches the
/// socket next past the deadline). Inbound datagrams pass through the
/// drop and corrupt knobs on the reverse link, so ACK loss is modeled
/// too. The wrapped socket's blocking mode is untouched.
///
/// With a [`FaultConfig::disabled`] schedule the shim passes straight
/// through: `send_to` and `recv_from` are the socket's own, with no copy
/// and no engine call, so callers hold a `FaultySocket` whether or not
/// they inject faults.
pub struct FaultySocket {
    sock: UdpSocket,
    engine: FaultEngine,
    /// The schedule is disabled: send and recv are the socket's own.
    passthrough: bool,
    /// This endpoint's id for the per-link drop streams.
    link: NodeId,
    /// The other endpoint's id.
    peer: NodeId,
    held: Vec<HeldFrame>,
    epoch: Instant,
}

impl FaultySocket {
    /// Wraps `sock`. `link` identifies this endpoint and `peer` the
    /// other end for the per-link drop streams (a load-generator thread
    /// passes its thread index; the BS is conventionally 0).
    pub fn new(sock: UdpSocket, cfg: FaultConfig, link: NodeId, peer: NodeId) -> Self {
        FaultySocket {
            sock,
            passthrough: cfg.is_disabled(),
            engine: FaultEngine::new(cfg),
            link,
            peer,
            held: Vec::new(),
            epoch: Instant::now(),
        }
    }

    /// The wrapped socket (for configuration calls).
    pub fn socket(&self) -> &UdpSocket {
        &self.sock
    }

    /// Perturbations applied so far.
    pub fn counters(&self) -> FaultCounters {
        self.engine.counters()
    }

    /// Datagrams currently held for delayed release.
    pub fn held_frames(&self) -> usize {
        self.held.len()
    }

    fn now_us(&self) -> SimTime {
        self.epoch.elapsed().as_micros() as SimTime
    }

    /// Releases every held frame whose deadline has passed. Called
    /// implicitly by send/recv; call explicitly when idle to drain the
    /// queue. A transient send failure (EAGAIN, an ECONNREFUSED burst
    /// while a daemon restarts, ENETUNREACH) re-queues the frame with a
    /// 1 ms backoff instead of surfacing — a delayed frame failing to
    /// flush must not fail the caller's unrelated send or recv.
    pub fn flush_due(&mut self) -> io::Result<usize> {
        let now = Instant::now();
        let mut sent = 0;
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].release <= now {
                match self.sock.send_to(&self.held[i].buf, self.held[i].to) {
                    Ok(_) => {
                        self.held.swap_remove(i);
                        sent += 1;
                    }
                    Err(e) if crate::load::is_transient_socket_error(&e) => {
                        self.held[i].release = now + std::time::Duration::from_millis(1);
                        i += 1;
                    }
                    Err(e) => return Err(e),
                }
            } else {
                i += 1;
            }
        }
        Ok(sent)
    }

    /// Sends a datagram through the fault schedule. Returns the payload
    /// length (as if sent) even when the schedule dropped it — the
    /// caller must observe loss end-to-end, exactly as with a real lossy
    /// network.
    pub fn send_to(&mut self, buf: &[u8], to: SocketAddr) -> io::Result<usize> {
        if self.passthrough {
            return self.sock.send_to(buf, to);
        }
        self.flush_due()?;
        let now = self.now_us();
        let copies = self.engine.decide(self.link, self.peer, buf.len(), now);
        for copy in copies {
            let mut payload = buf.to_vec();
            copy.apply_corruption(&mut payload);
            if copy.delay_us == 0 {
                self.sock.send_to(&payload, to)?;
            } else {
                self.held.push(HeldFrame {
                    release: Instant::now() + std::time::Duration::from_micros(copy.delay_us),
                    buf: payload,
                    to,
                });
            }
        }
        Ok(buf.len())
    }

    /// Receives a datagram, applying inbound loss/corruption on the
    /// reverse link. Surviving frames are returned as-is; dropped ones
    /// are consumed and the read retried, so a nonblocking caller sees
    /// `WouldBlock` rather than a frame the schedule discarded.
    pub fn recv_from(&mut self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        if self.passthrough {
            return self.sock.recv_from(buf);
        }
        self.flush_due()?;
        loop {
            let (n, from) = self.sock.recv_from(buf)?;
            let now = self.now_us();
            let copies = self.engine.decide(self.peer, self.link, n, now);
            // Duplication and delay are meaningless for a single recv
            // buffer; the inbound path honors drop and corruption.
            match copies.first() {
                None => continue, // dropped: try the next datagram
                Some(copy) => {
                    copy.apply_corruption(&mut buf[..n]);
                    return Ok((n, from));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_engine_single_clean_copy_zero_draws() {
        let mut e = FaultEngine::new(FaultConfig::disabled());
        let mut witness = StdRng::seed_from_u64(derive_seed(0, 2));
        for i in 0..1000 {
            let copies = e.decide(1, 0, 64, i);
            assert_eq!(copies, vec![ScheduledCopy::clean()]);
            assert!(copies[0].is_clean());
        }
        // The perturbation stream was never touched.
        assert_eq!(e.rng.gen::<u64>(), witness.gen::<u64>());
        assert_eq!(e.counters().total(), 0);
        assert!(FaultConfig::disabled().is_disabled());
        assert!(!FaultConfig::soak(1).is_disabled());
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig::soak(42);
        let run = |cfg: FaultConfig| {
            let mut e = FaultEngine::new(cfg);
            (0..500).map(|i| e.decide(1, 0, 80, i)).collect::<Vec<_>>()
        };
        assert_eq!(run(cfg.clone()), run(cfg));
        let mut other = FaultConfig::soak(42);
        other.seed = 43;
        assert_ne!(run(FaultConfig::soak(42)), run(other));
    }

    #[test]
    fn soak_schedule_hits_configured_rates() {
        let mut e = FaultEngine::new(FaultConfig::soak(7));
        let n = 20_000;
        let mut delivered = 0u64;
        for i in 0..n {
            delivered += !e.decide(1, 0, 80, i).is_empty() as u64;
        }
        let c = e.counters();
        let drop_rate = c.dropped as f64 / n as f64;
        assert!((drop_rate - 0.10).abs() < 0.02, "drop rate {drop_rate}");
        let reorder_rate = c.reordered as f64 / delivered as f64;
        assert!((reorder_rate - 0.20).abs() < 0.02, "reorder {reorder_rate}");
        assert_eq!(c.corrupted, 0);
    }

    #[test]
    fn corruption_flips_exactly_one_byte() {
        let copy = ScheduledCopy {
            delay_us: 0,
            corrupt: Some((100, 0x40)),
        };
        let mut payload = vec![0u8; 7];
        copy.apply_corruption(&mut payload);
        assert_eq!(payload.iter().filter(|&&b| b != 0).count(), 1);
        assert_eq!(payload[100 % 7], 0x40);
        // Empty payload: no panic.
        copy.apply_corruption(&mut []);
    }

    #[test]
    fn faulty_socket_delivers_through_loss() {
        // Loopback pair: sender wrapped with the soak schedule, enough
        // sends that drops and held frames both occur, receiver counts.
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.set_nonblocking(true).unwrap();
        let dst = rx.local_addr().unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut faulty = FaultySocket::new(tx, FaultConfig::soak(3), 1, 0);

        // Interleave sends with drains so the kernel's UDP receive
        // buffer never overflows (kernel drops would break the
        // engine-counter accounting below).
        let n = 500u64;
        let mut got = 0u64;
        let mut buf = [0u8; 64];
        for i in 0..n {
            faulty.send_to(&[i as u8; 32], dst).unwrap();
            if i % 50 == 49 {
                while rx.recv_from(&mut buf).is_ok() {
                    got += 1;
                }
            }
        }
        // Drain held frames past their deadlines.
        std::thread::sleep(std::time::Duration::from_millis(10));
        faulty.flush_due().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        while rx.recv_from(&mut buf).is_ok() {
            got += 1;
        }
        let c = faulty.counters();
        assert_eq!(got, n - c.dropped + c.duplicated);
        assert!(c.dropped > 0, "soak schedule should drop some of {n}");
        assert!(c.reordered > 0);
        assert_eq!(faulty.held_frames(), 0);
    }

    #[test]
    fn recv_path_applies_reverse_link_faults() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let dst = rx.local_addr().unwrap();
        rx.set_nonblocking(true).unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut faulty = FaultySocket::new(rx, FaultConfig::soak(9), 1, 0);

        // Interleaved as above: never let the kernel buffer overflow.
        let n = 400u64;
        let mut got = 0u64;
        let mut buf = [0u8; 64];
        for i in 0..n {
            tx.send_to(&[i as u8; 16], dst).unwrap();
            if i % 50 == 49 {
                std::thread::sleep(std::time::Duration::from_millis(1));
                while faulty.recv_from(&mut buf).is_ok() {
                    got += 1;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
        while faulty.recv_from(&mut buf).is_ok() {
            got += 1;
        }
        let c = faulty.counters();
        assert_eq!(got, n - c.dropped);
        assert!(c.dropped > 0);
    }
}

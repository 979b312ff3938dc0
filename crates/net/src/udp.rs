//! The UDP transport backend: a sharded reactor serving the base
//! station over real sockets, built from `std::net` and threads alone.
//!
//! Architecture (mirrors the work-sharding shape of
//! `wsn_sim::parallel`):
//!
//! ```text
//!   reader 0 (socket :p+0) ──┐                 ┌── worker 0 (BS shard, cids ≡ 0 mod W)
//!   reader 1 (socket :p+1) ──┼── bounded mpsc ─┼── worker 1 (BS shard, cids ≡ 1 mod W)
//!   ...                      │                 │   ...
//!   reader R-1 ──────────────┘                 └── worker W-1
//!          ▲                                          │
//!          └───────── auth-failure feedback ──────────┘
//! ```
//!
//! Readers do everything that needs **no** cryptography: length check
//! against [`MAX_FRAME_BYTES`], header peek ([`Message::peek_wrapped`]),
//! and — when enabled — the token-bucket/quarantine admission layer
//! keyed by the claimed cluster id. Only admitted frames cross a
//! bounded channel to a worker, so a flood is shed *before* any RC5 or
//! HMAC work. Each worker owns a [`DurableShard`] (an independent
//! [`BaseStation`] with its timers and WAL) and is only a socket loop
//! around it: frames are routed by `cid % W`, and cluster key sets are
//! disjoint across shards, so nonce spaces never collide.
//!
//! Workers learn return routes from traffic (`cid → last source
//! address`) and route every outgoing frame by the cluster id in its
//! own header — the socket realization of the paper's broadcast
//! medium, where a reply wrapped under a cluster's key is only useful
//! to that cluster anyway. MAC failures flow back to the readers over
//! channels so the admission layer can quarantine abusive clusters
//! without the readers ever touching a key.
//!
//! The clock is microseconds since the UNIX epoch on both ends, so the
//! protocol's freshness window (`τ`) spans processes on one host (or
//! NTP-synced hosts) unchanged.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use wsn_core::base_station::BaseStation;
use wsn_core::config::{ProtocolConfig, ResourceConfig};
use wsn_core::keys::Provisioner;
use wsn_core::msg::{ClusterId, Message};
use wsn_core::persist::BsSnapshot;
use wsn_core::resource::{Admission, ResourceState};
use wsn_crypto::Key128;
use wsn_sim::event::SimTime;
use wsn_sim::node::NodeId;
use wsn_sim::radio::MAX_FRAME_BYTES;
use wsn_sim::rng::derive_seed;
use wsn_trace::{TraceEvent, TraceRecord, TraceSink};

use crate::shard::{CtrlCmd, DurableShard, Now, Released};
use crate::wal::{StateStore, Store};

/// Microseconds since the UNIX epoch — the wall-clock realization of
/// the simulator's virtual `SimTime`. Both `wsn-bs` and `motegen` stamp
/// `τ` from this, so the freshness window works across processes. Used
/// **only** for protocol timestamps; shard timers run on the monotonic
/// half of `Clock`, which a wall-clock step cannot disturb.
pub fn wall_us() -> SimTime {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock before 1970")
        .as_micros() as SimTime
}

/// The reactor's two clocks, read for every shard call. Timer deadlines
/// must not jump with the wall clock (NTP steps, manual `date` sets):
/// only `τ` stamping needs UNIX time, so the monotonic half measures
/// elapsed time from a fixed [`Instant`].
#[derive(Clone, Copy)]
struct Clock {
    epoch: Instant,
}

impl Clock {
    fn now(&self) -> Now {
        Now {
            wall: wall_us(),
            mono: self.epoch.elapsed().as_micros() as SimTime,
        }
    }
}

/// Shared transport counters, updated lock-free by readers and workers.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Datagrams received off the wire.
    pub datagrams_rx: AtomicU64,
    /// Datagrams sent.
    pub datagrams_tx: AtomicU64,
    /// Datagrams rejected for exceeding [`MAX_FRAME_BYTES`].
    pub oversize_drops: AtomicU64,
    /// Datagrams refused by pre-crypto token-bucket admission.
    pub admission_rejects: AtomicU64,
    /// Datagrams refused because their cluster is quarantined.
    pub quarantine_rejects: AtomicU64,
    /// Datagrams dropped because a worker queue was full (backpressure).
    pub queue_full_drops: AtomicU64,
    /// Readings the base-station shards accepted end-to-end.
    pub readings_accepted: AtomicU64,
    /// Duplicate readings suppressed by the dedup cache.
    pub duplicates: AtomicU64,
    /// Frames that failed cluster-layer authentication at a shard.
    pub bad_auth: AtomicU64,
    /// Frames outside the freshness window.
    pub stale: AtomicU64,
    /// Unparseable frames (post-admission).
    pub malformed: AtomicU64,
    /// Frames from clusters no shard holds a key for.
    pub unknown_cluster: AtomicU64,
    /// End-to-end counter rejections (replays / desyncs).
    pub counter_rejects: AtomicU64,
    /// Outgoing frames with no learned return route.
    pub unroutable: AtomicU64,
    /// Journal batches flushed to the write-ahead log.
    pub wal_appends: AtomicU64,
    /// Compacting snapshots written.
    pub snapshots_written: AtomicU64,
    /// Shards stopped by a storage error: a failed WAL append or
    /// snapshot. A stopped shard releases no frame (so ACKs nothing) and
    /// dispatches nothing more.
    pub storage_failures: AtomicU64,
}

impl NetStats {
    /// Protocol-level error total: everything that indicates a frame
    /// reached a shard but failed validation. Admission rejects and
    /// queue-full drops are load shedding, not errors, and excluded.
    pub fn protocol_errors(&self) -> u64 {
        self.bad_auth.load(Ordering::Relaxed)
            + self.stale.load(Ordering::Relaxed)
            + self.malformed.load(Ordering::Relaxed)
            + self.unknown_cluster.load(Ordering::Relaxed)
            + self.counter_rejects.load(Ordering::Relaxed)
    }
}

/// A trace sink shared by threads: the sink behind a mutex plus a
/// global sequence counter. The socket reactor and the inter-sink control
/// plane record coarse events (`DatagramRx`/`DatagramTx`/`SocketDrop`/
/// `AdmissionReject`, WAL and failover events), not payloads. Tracing a
/// load test costs a lock per event, so it defaults off.
pub struct SharedTrace {
    sink: Mutex<Box<dyn TraceSink>>,
    seq: AtomicU64,
}

impl SharedTrace {
    pub fn new(sink: Box<dyn TraceSink>) -> Arc<SharedTrace> {
        Arc::new(SharedTrace {
            sink: Mutex::new(sink),
            seq: AtomicU64::new(0),
        })
    }

    /// Records `event` at `node`, stamped `at` (UNIX µs).
    pub fn record(&self, at: SimTime, node: NodeId, event: TraceEvent) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let rec = TraceRecord {
            seq,
            at,
            node,
            event,
        };
        self.sink.lock().expect("trace sink poisoned").record(rec);
    }

    fn flush(&self) {
        self.sink.lock().expect("trace sink poisoned").flush();
    }
}

/// Configuration of one [`UdpServer`].
#[derive(Clone, Debug)]
pub struct UdpServerConfig {
    /// Address to bind reader sockets on; readers bind consecutive
    /// ports starting here (`std::net` has no `SO_REUSEPORT`).
    pub bind: String,
    /// First reader port; reader `r` binds `base_port + r`.
    pub base_port: u16,
    /// Socket-reader threads.
    pub readers: usize,
    /// Base-station worker shards.
    pub workers: usize,
    /// Provisioned id space (mote ids `1..n` plus the BS at 0). Must
    /// match the load generator's mote count plus one.
    pub n: usize,
    /// Master seed shared with the load generator; key material derives
    /// from `derive_seed(seed, 1)` exactly as in `Scenario::run`.
    pub seed: u64,
    /// Protocol configuration for every shard.
    pub cfg: ProtocolConfig,
    /// Pre-crypto admission at the readers: `Some` applies this
    /// token-bucket/quarantine config per cluster id; `None` admits
    /// everything (pure throughput mode).
    pub admission: Option<ResourceConfig>,
    /// Bounded per-worker queue depth.
    pub queue_depth: usize,
    /// Requested kernel receive buffer (`SO_RCVBUF`) per reader socket,
    /// in bytes; `None` keeps the system default. The kernel doubles
    /// the request for bookkeeping and clamps it to `net.core.rmem_max`
    /// — [`UdpServer::rcvbuf_effective`] reports what was granted.
    pub rcvbuf: Option<usize>,
    /// Multi-sink partitioning: `Some((sink, k))` makes this server one
    /// of `k` sinks, holding only the `Ki` entries of motes whose home
    /// sink (`id % k`, as in `wsn_core::sink::home_sink`) is `sink`.
    /// Cluster keys stay replicated — any sink can unwrap any envelope —
    /// mirroring the partitioned-registry/replicated-cluster-key split
    /// of the in-sim multi-sink deployment. `None` = the single-sink
    /// server holding everything.
    pub sink_partition: Option<(u32, u32)>,
    /// Durable state: `Some(dir)` opens one [`StateStore`] per worker
    /// shard under `dir` (restoring snapshot + WAL if present) and
    /// journals every key-state mutation through it, flushed **before**
    /// the replies it gates are released (WAL-before-ACK, enforced by
    /// [`DurableShard`]). `None` keeps all state in memory.
    pub state_dir: Option<PathBuf>,
    /// WAL size that triggers a compacting snapshot, per shard. `None`
    /// keeps the store's default (1 MiB); soaks force it low so a kill
    /// lands on a snapshot+tail mix rather than a bare log.
    pub snapshot_every_bytes: Option<u64>,
}

impl UdpServerConfig {
    /// A single-reader, single-worker localhost server — the right
    /// shape for smoke tests and single-core soaks.
    pub fn localhost(base_port: u16, n: usize, seed: u64, cfg: ProtocolConfig) -> Self {
        UdpServerConfig {
            bind: "127.0.0.1".to_string(),
            base_port,
            readers: 1,
            workers: 1,
            n,
            seed,
            cfg,
            admission: None,
            queue_depth: 4096,
            rcvbuf: None,
            sink_partition: None,
            state_dir: None,
            snapshot_every_bytes: None,
        }
    }
}

/// Sets `SO_RCVBUF` on a bound socket and returns the size the kernel
/// actually granted (it doubles the request for its own bookkeeping and
/// clamps to `net.core.rmem_max`). Raw `setsockopt` — the workspace
/// carries no libc binding and the two constants involved have been ABI
/// stable on Linux since forever.
#[cfg(target_os = "linux")]
fn set_rcvbuf(socket: &UdpSocket, bytes: usize) -> io::Result<usize> {
    use std::os::fd::AsRawFd;
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, val: *const u8, len: u32) -> i32;
        fn getsockopt(fd: i32, level: i32, name: i32, val: *mut u8, len: *mut u32) -> i32;
    }
    let fd = socket.as_raw_fd();
    let req: i32 = bytes.min(i32::MAX as usize) as i32;
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_RCVBUF,
            (&req as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let mut got: i32 = 0;
    let mut len = std::mem::size_of::<i32>() as u32;
    let rc = unsafe {
        getsockopt(
            fd,
            SOL_SOCKET,
            SO_RCVBUF,
            (&mut got as *mut i32).cast(),
            &mut len,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(got as usize)
}

#[cfg(not(target_os = "linux"))]
fn set_rcvbuf(_socket: &UdpSocket, _bytes: usize) -> io::Result<usize> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "SO_RCVBUF wiring is linux-only",
    ))
}

/// A frame crossing from a reader to a worker: the datagram plus the
/// source address it arrived from (the reply route).
type Crossing = (Bytes, SocketAddr);

/// A running UDP base station: reader + worker threads behind shared
/// stats and a shutdown flag.
pub struct UdpServer {
    stats: Arc<NetStats>,
    shutdown: Arc<AtomicBool>,
    ports: Vec<u16>,
    rcvbuf_effective: Vec<usize>,
    threads: Vec<JoinHandle<()>>,
    trace: Option<Arc<SharedTrace>>,
    ctrl_txs: Vec<mpsc::Sender<CtrlCmd>>,
}

impl UdpServer {
    /// Provisions key material, builds one [`BaseStation`] shard per
    /// worker, binds reader sockets, and starts all threads.
    pub fn spawn(config: UdpServerConfig) -> io::Result<UdpServer> {
        Self::spawn_traced(config, None)
    }

    /// [`Self::spawn`] with a trace sink recording transport events.
    pub fn spawn_traced(
        config: UdpServerConfig,
        trace: Option<Box<dyn TraceSink>>,
    ) -> io::Result<UdpServer> {
        assert!(config.readers >= 1 && config.workers >= 1);
        let stats = Arc::new(NetStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let trace = trace.map(SharedTrace::new);

        // Key material: identical derivation to `Scenario::run`, so a
        // load generator sharing (seed, n) holds matching keys.
        let mut provisioner = Provisioner::new(derive_seed(config.seed, 1));
        for id in 0..config.n as u32 {
            provisioner.provision(id);
        }
        let registry = match config.sink_partition {
            Some((sink, k)) => {
                assert!(sink < k, "sink id {sink} out of range for {k} sinks");
                provisioner
                    .registry()
                    .iter()
                    .filter(|(&id, _)| wsn_core::sink::home_sink(id, k) == sink)
                    .map(|(&id, &ki)| (id, ki))
                    .collect()
            }
            None => provisioner.registry().clone(),
        };
        let cluster_keys: HashMap<ClusterId, Key128> = (0..config.n as u32)
            .map(|id| (id, provisioner.cluster_key_of(id)))
            .collect();

        // Shards first, so a failed restore starts no thread. Km and the
        // revocation chain are never persisted: they re-derive from the
        // provisioning seed, and `from_snapshot` skips the chain forward
        // to the snapshot's reveal position.
        let clock = Clock {
            epoch: Instant::now(),
        };
        let bs_id = config.sink_partition.map_or(0, |(sink, _)| sink);
        let mut shards = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let store = match &config.state_dir {
                Some(dir) => {
                    let (mut store, recovered) = StateStore::open(dir, w)?;
                    if let Some(bytes) = config.snapshot_every_bytes {
                        store.snapshot_every_bytes = bytes;
                    }
                    Some((Box::new(store) as Box<dyn Store>, recovered))
                }
                None => None,
            };
            let build = |snap: Option<BsSnapshot>| match snap {
                Some(snap) => BaseStation::from_snapshot(
                    config.cfg.clone(),
                    provisioner.km(),
                    provisioner.revocation_chain(),
                    snap,
                ),
                None => BaseStation::new(
                    config.cfg.clone(),
                    bs_id,
                    provisioner.km(),
                    registry.clone(),
                    cluster_keys.clone(),
                    provisioner.revocation_chain(),
                ),
            };
            let rng = StdRng::seed_from_u64(derive_seed(config.seed, 100 + w as u64));
            let (stats, trace) = (Arc::clone(&stats), trace.clone());
            shards.push(DurableShard::open(
                build,
                store,
                rng,
                stats,
                trace,
                clock.now(),
            )?);
        }

        // Worker channels and reader feedback channels.
        let (worker_txs, worker_rxs): (Vec<SyncSender<Crossing>>, Vec<_>) = (0..config.workers)
            .map(|_| mpsc::sync_channel::<Crossing>(config.queue_depth))
            .unzip();
        let (feedback_txs, feedback_rxs): (Vec<mpsc::Sender<ClusterId>>, Vec<_>) =
            (0..config.readers).map(|_| mpsc::channel()).unzip();
        // Control-plane injection: one unbounded channel per worker
        // shard, drained each worker-loop iteration. Idle when no
        // control plane is attached.
        let (ctrl_txs, ctrl_rxs): (Vec<mpsc::Sender<CtrlCmd>>, Vec<_>) =
            (0..config.workers).map(|_| mpsc::channel()).unzip();

        let mut threads = Vec::with_capacity(config.readers + config.workers);
        let mut ports = Vec::with_capacity(config.readers);
        let mut rcvbuf_effective = Vec::new();

        for (r, feedback_rx) in feedback_rxs.into_iter().enumerate() {
            // base_port 0 = ephemeral for every reader (tests); the
            // actual ports come back via `UdpServer::ports`.
            let port = if config.base_port == 0 {
                0
            } else {
                config.base_port + r as u16
            };
            let socket = UdpSocket::bind((config.bind.as_str(), port))?;
            socket.set_read_timeout(Some(Duration::from_millis(50)))?;
            if let Some(bytes) = config.rcvbuf {
                rcvbuf_effective.push(set_rcvbuf(&socket, bytes)?);
            }
            ports.push(socket.local_addr()?.port());
            let txs = worker_txs.clone();
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            let admission_cfg = config.admission;
            let trace = trace.clone();
            threads.push(std::thread::spawn(move || {
                reader_loop(
                    socket,
                    txs,
                    feedback_rx,
                    admission_cfg,
                    stats,
                    shutdown,
                    trace,
                );
            }));
        }
        // Drop the originals so workers see disconnect once every
        // reader has exited.
        drop(worker_txs);

        for ((shard, rx), ctrl_rx) in shards.into_iter().zip(worker_rxs).zip(ctrl_rxs) {
            let out = Outlet {
                socket: UdpSocket::bind((config.bind.as_str(), 0))?,
                routes: HashMap::new(),
                stats: Arc::clone(&stats),
                trace: trace.clone(),
            };
            let feedback = feedback_txs.clone();
            let shutdown = Arc::clone(&shutdown);
            threads.push(std::thread::spawn(move || {
                worker_loop(shard, rx, ctrl_rx, out, clock, feedback, shutdown);
            }));
        }

        Ok(UdpServer {
            stats,
            shutdown,
            ports,
            rcvbuf_effective,
            threads,
            trace,
            ctrl_txs,
        })
    }

    /// The per-worker control-command channels, in shard order. The
    /// inter-sink control plane routes node-keyed commands to shard
    /// `node % workers` (the same sharding readers use for frames) and
    /// broadcasts revocations to every shard.
    pub fn control_senders(&self) -> Vec<mpsc::Sender<CtrlCmd>> {
        self.ctrl_txs.clone()
    }

    /// Live transport counters.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// The reader ports actually bound, in reader order.
    pub fn ports(&self) -> &[u16] {
        &self.ports
    }

    /// `SO_RCVBUF` sizes the kernel granted, in reader order. Empty when
    /// [`UdpServerConfig::rcvbuf`] was `None`.
    pub fn rcvbuf_effective(&self) -> &[usize] {
        &self.rcvbuf_effective
    }

    /// Signals every thread to stop, joins them, flushes any trace.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = &self.trace {
            t.flush();
        }
    }
}

impl Drop for UdpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One socket-reader thread: recv → length gate → header peek →
/// admission → bounded hand-off to `cid % W`. No cryptography.
fn reader_loop(
    socket: UdpSocket,
    txs: Vec<SyncSender<Crossing>>,
    feedback: Receiver<ClusterId>,
    admission_cfg: Option<ResourceConfig>,
    stats: Arc<NetStats>,
    shutdown: Arc<AtomicBool>,
    trace: Option<Arc<SharedTrace>>,
) {
    let w = txs.len();
    // One byte of headroom so an exactly-MAX-sized datagram is
    // distinguishable from a truncated oversize one.
    let mut buf = vec![0u8; MAX_FRAME_BYTES + 1];
    let mut admission = ResourceState::default();
    while !shutdown.load(Ordering::Relaxed) {
        // Quarantine feedback from the workers (rare; non-blocking).
        while let Ok(cid) = feedback.try_recv() {
            if let Some(cfg) = &admission_cfg {
                admission.note_auth_failure(cfg, cid, wall_us());
            }
        }
        // Timeouts (the shutdown poll) and transient errors alike.
        let Ok((len, addr)) = socket.recv_from(&mut buf) else {
            continue;
        };
        stats.datagrams_rx.fetch_add(1, Ordering::Relaxed);
        if len > MAX_FRAME_BYTES {
            stats.oversize_drops.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = &trace {
                t.record(wall_us(), 0, TraceEvent::SocketDrop { bytes: len as u32 });
            }
            continue;
        }
        let frame = &buf[..len];
        let shard = match Message::peek_wrapped(frame) {
            Some((cid, _, _)) => {
                let verdict = admission_cfg
                    .as_ref()
                    .map_or(Admission::Admit, |cfg| admission.admit(cfg, cid, wall_us()));
                let shed = match verdict {
                    Admission::Admit => None,
                    Admission::Throttle => Some(&stats.admission_rejects),
                    Admission::Quarantined => Some(&stats.quarantine_rejects),
                };
                if let Some(counter) = shed {
                    counter.fetch_add(1, Ordering::Relaxed);
                    if let Some(t) = &trace {
                        t.record(wall_us(), 0, TraceEvent::AdmissionReject { cid });
                    }
                    continue;
                }
                if let Some(t) = &trace {
                    t.record(
                        wall_us(),
                        0,
                        TraceEvent::DatagramRx {
                            from: cid,
                            bytes: len as u32,
                        },
                    );
                }
                cid as usize % w
            }
            // Setup chatter and unparseable bytes: shard 0 sorts it out
            // (and counts malformed frames).
            None => 0,
        };
        match txs[shard].try_send((Bytes::copy_from_slice(frame), addr)) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                stats.queue_full_drops.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = &trace {
                    t.record(wall_us(), 0, TraceEvent::SocketDrop { bytes: len as u32 });
                }
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

/// A worker's sending half: its tx socket and the return routes learned
/// from traffic (`cid → last source address`).
struct Outlet {
    socket: UdpSocket,
    routes: HashMap<ClusterId, SocketAddr>,
    stats: Arc<NetStats>,
    trace: Option<Arc<SharedTrace>>,
}

impl Outlet {
    /// Sends what a shard released. Each frame is routed by the cluster
    /// id in its header, falling back to the address of the frame being
    /// answered.
    fn send(&self, released: &Released, reply_to: Option<SocketAddr>) {
        for frame in released.frames() {
            if frame.len() > MAX_FRAME_BYTES {
                self.stats.oversize_drops.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let dest = Message::peek_wrapped(frame)
                .and_then(|(cid, _, _)| self.routes.get(&cid).copied())
                .or(reply_to);
            let Some(addr) = dest else {
                self.stats.unroutable.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            if self.socket.send_to(frame, addr).is_ok() {
                self.stats.datagrams_tx.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = &self.trace {
                    let bytes = frame.len() as u32;
                    t.record(wall_us(), 0, TraceEvent::DatagramTx { bytes });
                }
            }
        }
    }
}

/// Longest a worker blocks on its queue before re-checking control
/// commands, timers and shutdown.
const POLL_US: SimTime = 50_000;

/// One worker thread: a socket loop around a [`DurableShard`]. It drains
/// control commands, waits for a frame or the shard's next deadline,
/// learns the frame's return route, and sends what the shard released.
fn worker_loop(
    mut shard: DurableShard,
    rx: Receiver<Crossing>,
    ctrl: Receiver<CtrlCmd>,
    mut out: Outlet,
    clock: Clock,
    feedback: Vec<mpsc::Sender<ClusterId>>,
    shutdown: Arc<AtomicBool>,
) {
    // With no routes yet the start hook's link advert is unroutable, but
    // its timers arm exactly as on the simulator.
    out.send(&shard.on_start(clock.now()), None);
    while !shutdown.load(Ordering::Relaxed) {
        // Control commands first: an install must be journaled and live
        // before the re-homed mote's next frame is dispatched.
        while let Ok(cmd) = ctrl.try_recv() {
            out.send(&shard.on_control(cmd, clock.now()), None);
        }
        let wait_us = shard
            .next_deadline()
            .map_or(POLL_US, |at| at.saturating_sub(clock.now().mono))
            .clamp(1, POLL_US);
        match rx.recv_timeout(Duration::from_micros(wait_us)) {
            Ok((frame, from)) => {
                if let Some((cid, _, _)) = Message::peek_wrapped(&frame) {
                    out.routes.insert(cid, from);
                }
                let (released, bad_auth) = shard.on_datagram(&frame, clock.now());
                if let Some(cid) = bad_auth {
                    for f in &feedback {
                        let _ = f.send(cid);
                    }
                }
                out.send(&released, Some(from));
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        out.send(&shard.on_tick(clock.now()), None);
    }
}

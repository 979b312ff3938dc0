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
//! HMAC work. Workers own independent [`BaseStation`] shards: frames
//! are routed by `cid % W`, and cluster key sets are disjoint across
//! shards, so nonce spaces never collide.
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
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
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
use wsn_core::resource::{Admission, ResourceState};
use wsn_core::transport::Transport;
use wsn_crypto::Key128;
use wsn_sim::event::SimTime;
use wsn_sim::node::{NodeId, TimerKey};
use wsn_sim::radio::MAX_FRAME_BYTES;
use wsn_sim::rng::derive_seed;
use wsn_trace::{TraceEvent, TraceRecord, TraceSink};

use crate::wal::StateStore;

/// Microseconds since the UNIX epoch — the wall-clock realization of
/// the simulator's virtual `SimTime`. Both `wsn-bs` and `motegen` stamp
/// `τ` from this, so the freshness window works across processes. Used
/// **only** for protocol timestamps; the worker timer wheels run on
/// [`MonoClock`], which a wall-clock step cannot disturb.
pub fn wall_us() -> SimTime {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock before 1970")
        .as_micros() as SimTime
}

/// Monotonic microseconds for the worker timer wheels. Timer deadlines
/// must not jump with the wall clock (NTP steps, manual `date` sets):
/// only `τ` stamping needs UNIX time, so the wheel measures elapsed
/// time from a fixed [`Instant`] instead.
struct MonoClock {
    epoch: Instant,
}

impl MonoClock {
    fn new() -> MonoClock {
        MonoClock {
            epoch: Instant::now(),
        }
    }

    fn now_us(&self) -> SimTime {
        self.epoch.elapsed().as_micros() as SimTime
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

/// Optional shared trace hookup: a sink behind a mutex plus a global
/// sequence counter. Socket backends record coarse transport events
/// (`DatagramRx`/`DatagramTx`/`SocketDrop`/`AdmissionReject`), not
/// payloads — tracing a load test is possible but costs a lock per
/// event, so it defaults off.
struct SharedTrace {
    sink: Mutex<Box<dyn TraceSink>>,
    seq: AtomicU64,
}

impl SharedTrace {
    fn record(&self, node: NodeId, event: TraceEvent) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let rec = TraceRecord {
            seq,
            at: wall_us(),
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
    /// the actions it gates are applied (WAL-before-ACK). `None` keeps
    /// all state in memory.
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

/// A control-plane command injected into a worker shard, drained at the
/// top of every worker-loop iteration. This is how the inter-sink
/// control plane (`crate::intersink`) reaches the shard-owned
/// [`BaseStation`]s: installs, two-phase handoff steps, and replicated
/// revocation appends all land here and are journaled through the
/// shard's WAL (`persist`) before any traffic depends on them.
pub enum CtrlCmd {
    /// Install a partition entry. `from_sink: Some(dead)` is a failover
    /// takeover (journals [`wsn_core::persist::StateMutation::FailoverIn`]
    /// with provenance); `None` is the receiving side of a two-phase
    /// handoff (journals `RehomeIn`).
    Install {
        /// The entry (`Ki` + replay window) to install.
        state: wsn_core::sink::SinkNodeState,
        /// The sink the failure detector declared dead, for takeovers.
        from_sink: Option<u32>,
    },
    /// Copy a node's partition entry without removing it (phase 0 of a
    /// two-phase handoff). Replies `None` if this shard does not hold
    /// the entry.
    TakeCopy {
        /// Node whose entry to copy.
        node: u32,
        /// Reply channel (capacity ≥ 1; the worker never blocks on it).
        reply: SyncSender<Option<wsn_core::sink::SinkNodeState>>,
    },
    /// Journal the intent to hand `node` off to `to_sink` (phase 1).
    NoteIntent {
        /// Node being offered.
        node: u32,
        /// Destination sink.
        to_sink: u32,
    },
    /// Retire a node's entry after the receiving sink acknowledged the
    /// install (phase 2; journals `RehomeOut`).
    Retire {
        /// Node whose entry to drop.
        node: u32,
    },
    /// Apply a replicated revocation append (single-writer at sink 0;
    /// replicas receive it over the inter-sink protocol).
    Revoke {
        /// Cluster ids whose keys are deleted.
        cids: Vec<ClusterId>,
        /// Member node ids marked evicted.
        nodes: Vec<u32>,
    },
}

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
        let trace = trace.map(|sink| {
            Arc::new(SharedTrace {
                sink: Mutex::new(sink),
                seq: AtomicU64::new(0),
            })
        });

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

        // Worker channels and reader feedback channels.
        let mut worker_txs: Vec<SyncSender<Crossing>> = Vec::with_capacity(config.workers);
        let mut worker_rxs: Vec<Receiver<Crossing>> = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let (tx, rx) = mpsc::sync_channel::<Crossing>(config.queue_depth);
            worker_txs.push(tx);
            worker_rxs.push(rx);
        }
        let mut feedback_txs: Vec<mpsc::Sender<ClusterId>> = Vec::with_capacity(config.readers);
        let mut feedback_rxs: Vec<Receiver<ClusterId>> = Vec::with_capacity(config.readers);
        for _ in 0..config.readers {
            let (tx, rx) = mpsc::channel::<ClusterId>();
            feedback_txs.push(tx);
            feedback_rxs.push(rx);
        }
        // Control-plane injection: one unbounded channel per worker
        // shard, drained each worker-loop iteration. Idle when no
        // control plane is attached.
        let mut ctrl_txs: Vec<mpsc::Sender<CtrlCmd>> = Vec::with_capacity(config.workers);
        let mut ctrl_rxs: Vec<Receiver<CtrlCmd>> = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let (tx, rx) = mpsc::channel::<CtrlCmd>();
            ctrl_txs.push(tx);
            ctrl_rxs.push(rx);
        }

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

        let bs_id = config.sink_partition.map_or(0, |(sink, _)| sink);
        for ((w, rx), ctrl_rx) in worker_rxs.into_iter().enumerate().zip(ctrl_rxs) {
            let mut bs = BaseStation::new(
                config.cfg.clone(),
                bs_id,
                provisioner.km(),
                registry.clone(),
                cluster_keys.clone(),
                provisioner.revocation_chain(),
            );
            // Durable shards: restore snapshot + WAL (if any), then
            // journal everything from here on. Km and the revocation
            // chain are never persisted — they re-derive from the
            // provisioning seed, with the chain skipped forward to the
            // snapshot's reveal position inside `from_snapshot`.
            let mut store = None;
            if let Some(dir) = &config.state_dir {
                let (mut s, recovered) = StateStore::open(dir, w)?;
                if let Some(bytes) = config.snapshot_every_bytes {
                    s.snapshot_every_bytes = bytes;
                }
                let replayed = recovered.mutations.len() as u32;
                let restarted = recovered.snapshot.is_some() || replayed > 0;
                if let Some(snap) = recovered.snapshot {
                    bs = BaseStation::from_snapshot(
                        config.cfg.clone(),
                        provisioner.km(),
                        provisioner.revocation_chain(),
                        snap,
                    );
                }
                for m in &recovered.mutations {
                    bs.apply_mutation(m);
                }
                // Compaction on restore: an oversized WAL that was
                // replayed compacts *now* instead of waiting for the
                // next write-path append — otherwise every restart of a
                // quiet shard replays the same oversized log. Cut
                // before the journal is re-enabled so the snapshot is
                // exactly snapshot+WAL (catch-up rolls below land in
                // the journal with higher LSNs and replay on top).
                if replayed > 0 && s.wal_bytes() >= s.snapshot_every_bytes {
                    let bytes = s.write_snapshot(&bs.snapshot())?;
                    stats.snapshots_written.fetch_add(1, Ordering::Relaxed);
                    if let Some(t) = &trace {
                        t.record(
                            bs_id,
                            TraceEvent::SnapshotWritten {
                                lsn: s.last_lsn(),
                                bytes: bytes as u32,
                            },
                        );
                    }
                }
                bs.enable_journal();
                // Refresh epochs that elapsed while the daemon was down
                // fired on every live node; catch the shard up to the
                // shared absolute schedule before it sees traffic. The
                // rolls are journaled, so the next crash replays them.
                if config.cfg.auto_refresh_epochs > 0 {
                    let boundary = wall_us().saturating_sub(config.cfg.erase_km_at)
                        / config.cfg.auto_refresh_period;
                    let expected = (boundary as u32).min(config.cfg.auto_refresh_epochs);
                    while bs.epoch() < expected {
                        bs.apply_hash_refresh();
                    }
                }
                if restarted {
                    if let Some(t) = &trace {
                        t.record(bs_id, TraceEvent::BsRestart { replayed });
                    }
                }
                store = Some(s);
            }
            let tx_socket = UdpSocket::bind((config.bind.as_str(), 0))?;
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            let feedback = feedback_txs.clone();
            let rng = StdRng::seed_from_u64(derive_seed(config.seed, 100 + w as u64));
            let trace = trace.clone();
            threads.push(std::thread::spawn(move || {
                worker_loop(
                    bs, rng, rx, ctrl_rx, tx_socket, store, feedback, stats, shutdown, trace,
                );
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
        let (len, addr) = match socket.recv_from(&mut buf) {
            Ok(x) => x,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => continue,
        };
        stats.datagrams_rx.fetch_add(1, Ordering::Relaxed);
        if len > MAX_FRAME_BYTES {
            stats.oversize_drops.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = &trace {
                t.record(0, TraceEvent::SocketDrop { bytes: len as u32 });
            }
            continue;
        }
        let frame = &buf[..len];
        let shard = match Message::peek_wrapped(frame) {
            Some((cid, _, _)) => {
                if let Some(cfg) = &admission_cfg {
                    match admission.admit(cfg, cid, wall_us()) {
                        Admission::Admit => {}
                        Admission::Throttle => {
                            stats.admission_rejects.fetch_add(1, Ordering::Relaxed);
                            if let Some(t) = &trace {
                                t.record(0, TraceEvent::AdmissionReject { cid });
                            }
                            continue;
                        }
                        Admission::Quarantined => {
                            stats.quarantine_rejects.fetch_add(1, Ordering::Relaxed);
                            if let Some(t) = &trace {
                                t.record(0, TraceEvent::AdmissionReject { cid });
                            }
                            continue;
                        }
                    }
                }
                if let Some(t) = &trace {
                    t.record(
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
                    t.record(0, TraceEvent::SocketDrop { bytes: len as u32 });
                }
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

/// Deferred actions queued by the shard through the [`Transport`] seam
/// during one dispatch, applied after the hook returns (the simulator's
/// discipline, kept so hook code observes identical semantics).
enum UdpAction {
    Out(Bytes),
    SetTimer(TimerKey, SimTime),
    CancelTimer(TimerKey),
}

/// The [`Transport`] a worker hands its base-station shard.
struct UdpCtx<'a> {
    now: SimTime,
    rng: &'a mut StdRng,
    actions: &'a mut Vec<UdpAction>,
}

impl Transport for UdpCtx<'_> {
    fn id(&self) -> NodeId {
        0
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    fn broadcast(&mut self, payload: Bytes) {
        self.actions.push(UdpAction::Out(payload));
    }

    fn send(&mut self, _to: NodeId, payload: Bytes) {
        // One socket datagram either way: the unicast/broadcast split is
        // a radio concern; routing happens by the frame's cluster id.
        self.actions.push(UdpAction::Out(payload));
    }

    fn set_timer(&mut self, key: TimerKey, delay: SimTime) {
        self.actions.push(UdpAction::SetTimer(key, delay));
    }

    fn cancel_timer(&mut self, key: TimerKey) {
        self.actions.push(UdpAction::CancelTimer(key));
    }
}

/// Snapshot of the reject counters a shard exposes, used to mirror
/// per-dispatch deltas into the shared stats.
#[derive(Clone, Copy, Default)]
struct RejectSnapshot {
    bad_auth: u64,
    stale: u64,
    malformed: u64,
    unknown_cluster: u64,
    counter_rejects: u64,
    duplicates: u64,
}

impl RejectSnapshot {
    fn of(bs: &BaseStation) -> RejectSnapshot {
        RejectSnapshot {
            bad_auth: bs.drops.bad_auth,
            stale: bs.drops.stale,
            malformed: bs.drops.malformed,
            unknown_cluster: bs.drops.unknown_cluster,
            counter_rejects: bs.counter_rejects,
            duplicates: bs.duplicates,
        }
    }
}

/// Everything a worker owns besides its base-station shard: timer
/// wheel, return routes, tx socket, and the plumbing to the rest of the
/// reactor.
struct WorkerState {
    routes: HashMap<ClusterId, SocketAddr>,
    timer_heap: BinaryHeap<Reverse<(SimTime, u64, TimerKey)>>,
    timers: HashMap<TimerKey, u64>,
    timer_gen: u64,
    actions: Vec<UdpAction>,
    socket: UdpSocket,
    /// Monotonic base for the timer wheel; all heap deadlines are on
    /// this clock, never on the (steppable) wall clock.
    clock: MonoClock,
    store: Option<StateStore>,
    stats: Arc<NetStats>,
    trace: Option<Arc<SharedTrace>>,
}

impl WorkerState {
    /// WAL-before-ACK: drains the shard's journal and flushes it to the
    /// log. Must run after a dispatch but **before** [`Self::apply_actions`]
    /// releases the replies that acknowledge the journaled state.
    ///
    /// A storage error downgrades the shard to in-memory operation (with
    /// a stderr notice) rather than taking the reactor down: the daemon
    /// keeps serving, and the operator sees recovery is no longer
    /// guaranteed.
    fn persist(&mut self, bs: &mut BaseStation) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let batch = bs.drain_journal();
        if batch.is_empty() {
            return;
        }
        match store.append(&batch) {
            Ok(bytes) => {
                self.stats.wal_appends.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = &self.trace {
                    t.record(
                        0,
                        TraceEvent::WalAppend {
                            records: batch.len() as u32,
                            bytes: bytes as u32,
                        },
                    );
                }
            }
            Err(e) => {
                eprintln!("wsn-net: WAL append failed, shard now in-memory only: {e}");
                self.store = None;
                return;
            }
        }
        match store.maybe_snapshot(|| bs.snapshot()) {
            Ok(Some(bytes)) => {
                self.stats.snapshots_written.fetch_add(1, Ordering::Relaxed);
                let lsn = store.last_lsn();
                if let Some(t) = &self.trace {
                    t.record(
                        0,
                        TraceEvent::SnapshotWritten {
                            lsn,
                            bytes: bytes as u32,
                        },
                    );
                }
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("wsn-net: snapshot failed, shard now in-memory only: {e}");
                self.store = None;
            }
        }
    }
    /// Applies one dispatch's deferred actions: outgoing frames are
    /// routed by the cluster id in their header (fallback: the address
    /// the frame being answered came from); timers go on the wheel.
    fn apply_actions(&mut self, reply_to: Option<SocketAddr>) {
        for action in std::mem::take(&mut self.actions) {
            match action {
                UdpAction::Out(frame) => {
                    if frame.len() > MAX_FRAME_BYTES {
                        self.stats.oversize_drops.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let dest = Message::peek_wrapped(&frame)
                        .and_then(|(cid, _, _)| self.routes.get(&cid).copied())
                        .or(reply_to);
                    match dest {
                        Some(addr) => {
                            if self.socket.send_to(&frame, addr).is_ok() {
                                self.stats.datagrams_tx.fetch_add(1, Ordering::Relaxed);
                                if let Some(t) = &self.trace {
                                    t.record(
                                        0,
                                        TraceEvent::DatagramTx {
                                            bytes: frame.len() as u32,
                                        },
                                    );
                                }
                            }
                        }
                        None => {
                            self.stats.unroutable.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                UdpAction::SetTimer(key, delay) => {
                    self.timer_gen += 1;
                    self.timers.insert(key, self.timer_gen);
                    self.timer_heap.push(Reverse((
                        self.clock.now_us() + delay,
                        self.timer_gen,
                        key,
                    )));
                }
                UdpAction::CancelTimer(key) => {
                    self.timers.remove(&key);
                }
            }
        }
    }
}

/// One worker thread: owns a base-station shard, a wall-clock timer
/// wheel, and the learned return-route table.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    mut bs: BaseStation,
    mut rng: StdRng,
    rx: Receiver<Crossing>,
    ctrl: Receiver<CtrlCmd>,
    socket: UdpSocket,
    store: Option<StateStore>,
    feedback: Vec<mpsc::Sender<ClusterId>>,
    stats: Arc<NetStats>,
    shutdown: Arc<AtomicBool>,
    trace: Option<Arc<SharedTrace>>,
) {
    let mut st = WorkerState {
        routes: HashMap::new(),
        timer_heap: BinaryHeap::new(),
        timers: HashMap::new(),
        timer_gen: 0,
        actions: Vec::with_capacity(8),
        socket,
        clock: MonoClock::new(),
        store,
        stats: Arc::clone(&stats),
        trace,
    };
    let mut snap = RejectSnapshot::of(&bs);

    // Run the start hook: with no routes yet its link advert is
    // unroutable, but timers (advert jitter, revocation schedules) arm
    // exactly as on the simulator.
    {
        let mut ctx = UdpCtx {
            now: wall_us(),
            rng: &mut rng,
            actions: &mut st.actions,
        };
        bs.dispatch_start(&mut ctx);
    }
    // Also flushes anything restore-time catch-up journaled at spawn.
    st.persist(&mut bs);
    st.apply_actions(None);

    while !shutdown.load(Ordering::Relaxed) {
        // Control-plane commands first: an install must be journaled
        // and live before the re-homed mote's next frame is dispatched.
        while let Ok(cmd) = ctrl.try_recv() {
            match cmd {
                CtrlCmd::Install { state, from_sink } => {
                    match from_sink {
                        Some(dead) => bs.install_failover_state(state, dead),
                        None => bs.install_node_state(state),
                    }
                    // WAL-journaled handoff: the entry is durable before
                    // any traffic is served under it, so a takeover that
                    // crashes replays its installs.
                    st.persist(&mut bs);
                }
                CtrlCmd::TakeCopy { node, reply } => {
                    let _ = reply.try_send(bs.copy_node_state(node));
                }
                CtrlCmd::NoteIntent { node, to_sink } => {
                    bs.note_handoff_intent(node, to_sink);
                    st.persist(&mut bs);
                }
                CtrlCmd::Retire { node } => {
                    let _ = bs.take_node_state(node);
                    st.persist(&mut bs);
                }
                CtrlCmd::Revoke { cids, nodes } => {
                    bs.queue_revocation(cids, nodes);
                    st.persist(&mut bs);
                }
            }
        }
        // Sleep until the next timer or the poll ceiling.
        let now = st.clock.now_us();
        let wait_us = st
            .timer_heap
            .peek()
            .map(|Reverse((at, _, _))| at.saturating_sub(now))
            .unwrap_or(50_000)
            .min(50_000);
        let incoming = match rx.recv_timeout(Duration::from_micros(wait_us.max(1))) {
            Ok(x) => Some(x),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };

        if let Some((frame, from_addr)) = incoming {
            let now = wall_us();
            // Learn/refresh the return route before dispatch so the
            // shard's reply to this very frame is routable.
            let peeked_cid = Message::peek_wrapped(&frame).map(|(cid, _, _)| cid);
            if let Some(cid) = peeked_cid {
                st.routes.insert(cid, from_addr);
            }
            let received_before = bs.received.len();
            {
                let mut ctx = UdpCtx {
                    now,
                    rng: &mut rng,
                    actions: &mut st.actions,
                };
                bs.dispatch_message(&mut ctx, &frame);
            }
            // WAL-before-ACK: the mutations this frame caused hit the
            // log before the reply (its acknowledgment) can leave.
            st.persist(&mut bs);
            st.apply_actions(Some(from_addr));

            // Mirror what this dispatch changed into the shared stats,
            // and feed MAC failures back to the admission layer.
            let accepted = (bs.received.len() - received_before) as u64;
            if accepted > 0 {
                stats
                    .readings_accepted
                    .fetch_add(accepted, Ordering::Relaxed);
                // Keep shard memory flat under sustained load: the
                // log's content has been counted; only tests inspect
                // it, and they run on the simulator.
                bs.received.clear();
            }
            let after = RejectSnapshot::of(&bs);
            if after.bad_auth > snap.bad_auth {
                stats
                    .bad_auth
                    .fetch_add(after.bad_auth - snap.bad_auth, Ordering::Relaxed);
                if let Some(cid) = peeked_cid {
                    for f in &feedback {
                        let _ = f.send(cid);
                    }
                }
            }
            if after.stale > snap.stale {
                stats
                    .stale
                    .fetch_add(after.stale - snap.stale, Ordering::Relaxed);
            }
            if after.malformed > snap.malformed {
                stats
                    .malformed
                    .fetch_add(after.malformed - snap.malformed, Ordering::Relaxed);
            }
            if after.unknown_cluster > snap.unknown_cluster {
                stats.unknown_cluster.fetch_add(
                    after.unknown_cluster - snap.unknown_cluster,
                    Ordering::Relaxed,
                );
            }
            if after.counter_rejects > snap.counter_rejects {
                stats.counter_rejects.fetch_add(
                    after.counter_rejects - snap.counter_rejects,
                    Ordering::Relaxed,
                );
            }
            if after.duplicates > snap.duplicates {
                stats
                    .duplicates
                    .fetch_add(after.duplicates - snap.duplicates, Ordering::Relaxed);
            }
            snap = after;
        }

        // Fire due timers (superseded generations are skipped). The
        // heap holds monotonic deadlines; the dispatch still sees the
        // wall clock, which stamps `τ`.
        let mono_now = st.clock.now_us();
        while let Some(&Reverse((at, gen, key))) = st.timer_heap.peek() {
            if at > mono_now {
                break;
            }
            st.timer_heap.pop();
            if st.timers.get(&key) == Some(&gen) {
                st.timers.remove(&key);
                {
                    let mut ctx = UdpCtx {
                        now: wall_us(),
                        rng: &mut rng,
                        actions: &mut st.actions,
                    };
                    bs.dispatch_timer(&mut ctx, key);
                }
                st.persist(&mut bs);
                st.apply_actions(None);
            }
        }
    }
}

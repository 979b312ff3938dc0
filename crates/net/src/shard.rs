//! One base-station shard as a caller-driven state machine: its
//! [`BaseStation`], RNG, timer wheel, outgoing frames and optional
//! write-ahead [`Store`].
//!
//! A [`DurableShard`] opens no socket, spawns no thread and reads no
//! clock. Its host (the UDP worker in [`crate::udp`]) hands it datagrams,
//! control commands and ticks, each stamped with a [`Now`], and sends
//! whatever the call returns. Every call returns its outgoing frames in a
//! [`Released`], and the only constructor of a `Released` that can hold
//! frames appends the call's journal batch first. So an ACK cannot leave
//! before the WAL record it acknowledges (WAL-before-ACK), whatever the
//! host does.
//!
//! A storage error stops the shard. The failing call releases no frame,
//! later calls dispatch nothing, and [`NetStats::storage_failures`]
//! counts the stop. The failed call is never retried: after a failed
//! write the state on disk is unknown, and an ACK would promise a
//! durability the shard can no longer give.

use bytes::Bytes;
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::sync::atomic::Ordering;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use wsn_core::base_station::BaseStation;
use wsn_core::msg::{ClusterId, Message};
use wsn_core::persist::BsSnapshot;
use wsn_core::sink::SinkNodeState;
use wsn_core::transport::Transport;
use wsn_sim::event::SimTime;
use wsn_sim::node::{NodeId, TimerKey};
use wsn_trace::TraceEvent;

use crate::udp::{NetStats, SharedTrace};
use crate::wal::{Recovered, Store};

pub use release::Released;

/// The time a shard call happens at, on two clocks.
#[derive(Clone, Copy, Debug)]
pub struct Now {
    /// Microseconds since the UNIX epoch: stamps `τ` and places the
    /// refresh schedule.
    pub wall: SimTime,
    /// Monotonic microseconds: timer deadlines, which a wall-clock step
    /// must not move.
    pub mono: SimTime,
}

/// A control-plane command for one shard. This is how the inter-sink
/// control plane (`crate::intersink`) reaches the shard-owned
/// [`BaseStation`]s: installs, two-phase handoff steps and replicated
/// revocation appends are journaled before any traffic depends on them.
pub enum CtrlCmd {
    /// Install a partition entry. `from_sink: Some(dead)` is a failover
    /// takeover (journals [`wsn_core::persist::StateMutation::FailoverIn`] with
    /// provenance); `None` is the receiving side of a two-phase handoff
    /// (journals `RehomeIn`).
    Install {
        /// The entry (`Ki` + replay window) to install.
        state: SinkNodeState,
        /// The sink the failure detector declared dead, for takeovers.
        from_sink: Option<u32>,
    },
    /// Copy a node's partition entry without removing it (phase 0 of a
    /// two-phase handoff). Replies `None` if this shard does not hold
    /// the entry.
    TakeCopy {
        /// Node whose entry to copy.
        node: u32,
        /// Reply channel (capacity ≥ 1; the shard never blocks on it).
        reply: SyncSender<Option<SinkNodeState>>,
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

mod release {
    use super::Store;
    use bytes::Bytes;
    use std::io;
    use wsn_core::persist::StateMutation;

    /// The outgoing frames of one shard call. Private fields and one
    /// frame-carrying constructor, `Released::after_append`, which
    /// appends the call's journal batch before it builds the token.
    #[must_use = "a shard's released frames are its replies"]
    pub struct Released {
        frames: Vec<Bytes>,
    }

    impl Released {
        /// Appends `batch` to `store` (when there is one and the batch
        /// is not empty), then releases `frames` with the bytes written.
        /// On an append error nothing is released.
        pub(super) fn after_append(
            store: Option<&mut (dyn Store + 'static)>,
            batch: &[StateMutation],
            frames: Vec<Bytes>,
        ) -> io::Result<(Released, u64)> {
            let bytes = match store {
                Some(store) if !batch.is_empty() => store.append(batch)?,
                _ => 0,
            };
            Ok((Released { frames }, bytes))
        }

        /// No frames: what a stopped shard returns.
        pub(super) fn nothing() -> Released {
            Released { frames: Vec::new() }
        }

        /// The frames to send, in the order the shard produced them.
        pub fn frames(&self) -> &[Bytes] {
            &self.frames
        }
    }
}

/// Timers on the monotonic clock. Re-arming or cancelling a key bumps
/// its generation, and heap entries of an old generation are skipped.
#[derive(Default)]
struct Wheel {
    heap: BinaryHeap<Reverse<(SimTime, u64, TimerKey)>>,
    live: HashMap<TimerKey, u64>,
    generation: u64,
}

impl Wheel {
    fn set(&mut self, key: TimerKey, at: SimTime) {
        self.generation += 1;
        self.live.insert(key, self.generation);
        self.heap.push(Reverse((at, self.generation, key)));
    }

    /// Pops the earliest live timer due at `now`, if any.
    fn pop_due(&mut self, now: SimTime) -> Option<TimerKey> {
        while let Some(&Reverse((at, generation, key))) = self.heap.peek() {
            if at > now {
                return None;
            }
            self.heap.pop();
            if self.live.get(&key) == Some(&generation) {
                self.live.remove(&key);
                return Some(key);
            }
        }
        None
    }
}

/// The [`Transport`] a shard hands its base station: frames go to the
/// shard's outbox, timers onto its wheel.
struct ShardCtx<'a> {
    now: Now,
    rng: &'a mut StdRng,
    wheel: &'a mut Wheel,
    outbox: &'a mut Vec<Bytes>,
}

impl Transport for ShardCtx<'_> {
    fn id(&self) -> NodeId {
        0
    }

    fn now(&self) -> SimTime {
        self.now.wall
    }

    fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    fn broadcast(&mut self, payload: Bytes) {
        self.outbox.push(payload);
    }

    fn send(&mut self, _to: NodeId, payload: Bytes) {
        // One datagram either way: the unicast/broadcast split is a radio
        // concern, and the host routes by the frame's cluster id.
        self.outbox.push(payload);
    }

    fn set_timer(&mut self, key: TimerKey, delay: SimTime) {
        self.wheel.set(key, self.now.mono + delay);
    }

    fn cancel_timer(&mut self, key: TimerKey) {
        self.wheel.live.remove(&key);
    }
}

/// One durable base-station shard. See the module docs.
pub struct DurableShard {
    bs: BaseStation,
    rng: StdRng,
    wheel: Wheel,
    /// Frames the current call produced, released by [`Self::commit`].
    outbox: Vec<Bytes>,
    /// `None` keeps all state in memory.
    store: Option<Box<dyn Store>>,
    /// Set by the first storage error; the shard dispatches nothing more.
    stopped: bool,
    stats: Arc<NetStats>,
    trace: Option<Arc<SharedTrace>>,
}

impl DurableShard {
    /// Restores a shard and catches it up to `now`. `build` makes the
    /// base station: from the recovered snapshot if there is one, else
    /// fresh. With a store, the recovered WAL tail is replayed on top, an
    /// oversized replayed log is compacted at once, and journaling starts.
    /// Refresh epochs that elapsed before `now` are then rolled in both
    /// modes (journaled when there is a store).
    pub fn open(
        build: impl FnOnce(Option<BsSnapshot>) -> BaseStation,
        store: Option<(Box<dyn Store>, Recovered)>,
        rng: StdRng,
        stats: Arc<NetStats>,
        trace: Option<Arc<SharedTrace>>,
        now: Now,
    ) -> io::Result<DurableShard> {
        let (store, recovered) = match store {
            Some((store, recovered)) => (Some(store), recovered),
            None => (None, Recovered::default()),
        };
        let replayed = recovered.mutations.len() as u32;
        let restarted = recovered.snapshot.is_some() || replayed > 0;
        let mut bs = build(recovered.snapshot);
        for m in &recovered.mutations {
            bs.apply_mutation(m);
        }
        let mut shard = DurableShard {
            bs,
            rng,
            wheel: Wheel::default(),
            outbox: Vec::new(),
            store,
            stopped: false,
            stats,
            trace,
        };
        if let Some(store) = &shard.store {
            // Compact a replayed oversized log now, before the journal
            // starts, so the snapshot is exactly snapshot + WAL; otherwise
            // every restart of a quiet shard replays the same log.
            if replayed > 0 && store.snapshot_due() {
                shard.write_snapshot(now)?;
            }
            shard.bs.enable_journal();
        }
        // The catch-up rolls land in the journal and are appended by the
        // first commit (`on_start`).
        shard.bs.catch_up_refresh(now.wall);
        if restarted {
            shard.record(now, TraceEvent::BsRestart { replayed });
        }
        Ok(shard)
    }

    /// Runs the base station's start hook: arms its timers (link advert
    /// jitter, the refresh schedule) and appends what the restore
    /// journaled.
    pub fn on_start(&mut self, now: Now) -> Released {
        self.run(now, |bs, ctx| bs.dispatch_start(ctx));
        self.commit(now)
    }

    /// Dispatches one datagram. Also returns the frame's claimed cluster
    /// id if it failed cluster-layer authentication, for the readers'
    /// quarantine feedback.
    pub fn on_datagram(&mut self, frame: &[u8], now: Now) -> (Released, Option<ClusterId>) {
        self.run(now, |bs, ctx| bs.dispatch_message(ctx, frame));
        let bad_auth = (self.bs.drops.bad_auth > 0)
            .then(|| Message::peek_wrapped(frame).map(|(cid, _, _)| cid))
            .flatten();
        (self.commit(now), bad_auth)
    }

    /// Applies one control-plane command.
    pub fn on_control(&mut self, cmd: CtrlCmd, now: Now) -> Released {
        if self.stopped {
            return Released::nothing();
        }
        let bs = &mut self.bs;
        match cmd {
            CtrlCmd::Install { state, from_sink } => match from_sink {
                Some(dead) => bs.install_failover_state(state, dead),
                None => bs.install_node_state(state),
            },
            CtrlCmd::TakeCopy { node, reply } => {
                let _ = reply.try_send(bs.copy_node_state(node));
            }
            CtrlCmd::NoteIntent { node, to_sink } => bs.note_handoff_intent(node, to_sink),
            CtrlCmd::Retire { node } => {
                let _ = bs.take_node_state(node);
            }
            CtrlCmd::Revoke { cids, nodes } => bs.queue_revocation(cids, nodes),
        }
        self.commit(now)
    }

    /// Fires every timer due at `now.mono`.
    pub fn on_tick(&mut self, now: Now) -> Released {
        while let Some(key) = self.wheel.pop_due(now.mono) {
            self.run(now, |bs, ctx| bs.dispatch_timer(ctx, key));
        }
        self.commit(now)
    }

    /// The earliest armed timer deadline, monotonic µs (`None` when no
    /// timer is armed or the shard has stopped).
    pub fn next_deadline(&self) -> Option<SimTime> {
        let Reverse((at, _, _)) = self.wheel.heap.peek()?;
        (!self.stopped).then_some(*at)
    }

    /// Runs one base-station hook against the shard's transport.
    fn run(&mut self, now: Now, hook: impl FnOnce(&mut BaseStation, &mut ShardCtx)) {
        if self.stopped {
            return;
        }
        let mut ctx = ShardCtx {
            now,
            rng: &mut self.rng,
            wheel: &mut self.wheel,
            outbox: &mut self.outbox,
        };
        hook(&mut self.bs, &mut ctx);
    }

    /// Ends a call: appends its journal batch, releases its frames, counts
    /// what it did into [`NetStats`], and compacts the log when due.
    fn commit(&mut self, now: Now) -> Released {
        if self.stopped {
            return Released::nothing();
        }
        let batch = self.bs.drain_journal();
        let frames = std::mem::take(&mut self.outbox);
        let (released, bytes) =
            match Released::after_append(self.store.as_deref_mut(), &batch, frames) {
                Ok(done) => done,
                Err(e) => return self.stop("WAL append", e),
            };
        self.count();
        if !batch.is_empty() {
            self.stats.wal_appends.fetch_add(1, Ordering::Relaxed);
            let records = batch.len() as u32;
            let bytes = bytes as u32;
            self.record(now, TraceEvent::WalAppend { records, bytes });
        }
        if self.store.as_ref().is_some_and(|s| s.snapshot_due()) {
            if let Err(e) = self.write_snapshot(now) {
                return self.stop("snapshot", e);
            }
        }
        released
    }

    /// Moves the base station's counters into the shared stats (the one
    /// place a shard counts) and drops the accepted readings, which only
    /// simulator tests inspect, so memory stays flat under load.
    fn count(&mut self) {
        let bs = &mut self.bs;
        let s = &self.stats;
        let drops = std::mem::take(&mut bs.drops);
        for (counter, n) in [
            (&s.readings_accepted, bs.received.len() as u64),
            (&s.bad_auth, drops.bad_auth),
            (&s.stale, drops.stale),
            (&s.malformed, drops.malformed),
            (&s.unknown_cluster, drops.unknown_cluster),
            (&s.counter_rejects, std::mem::take(&mut bs.counter_rejects)),
            (&s.duplicates, std::mem::take(&mut bs.duplicates)),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
        bs.received.clear();
    }

    fn write_snapshot(&mut self, now: Now) -> io::Result<()> {
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        let bytes = store.write_snapshot(&self.bs.snapshot())? as u32;
        let lsn = store.last_lsn();
        self.stats.snapshots_written.fetch_add(1, Ordering::Relaxed);
        self.record(now, TraceEvent::SnapshotWritten { lsn, bytes });
        Ok(())
    }

    fn stop(&mut self, what: &str, e: io::Error) -> Released {
        eprintln!("wsn-net: {what} failed, base-station shard stopped (no more ACKs): {e}");
        self.stopped = true;
        self.stats.storage_failures.fetch_add(1, Ordering::Relaxed);
        Released::nothing()
    }

    fn record(&self, now: Now, event: TraceEvent) {
        if let Some(t) = &self.trace {
            t.record(now.wall, self.bs.id(), event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{provision_motes, Mote};
    use crate::udp::wall_us;
    use rand::SeedableRng;
    use std::sync::Mutex;
    use wsn_core::config::{CounterMode, ProtocolConfig, RecoveryConfig};
    use wsn_core::keys::Provisioner;
    use wsn_core::persist::StateMutation;
    use wsn_sim::rng::derive_seed;

    const SEED: u64 = 19;
    const MOTES: usize = 12;

    /// What the shard did with storage, and what the test saw released,
    /// in one order.
    #[derive(Debug)]
    enum Event {
        Append(Vec<StateMutation>),
        FailedAppend,
        Released,
    }

    type Log = Arc<Mutex<Vec<Event>>>;

    /// A store that records every append into the shared log and fails
    /// the `fail_on`-th append (1-based), if set.
    struct RecordingStore {
        log: Log,
        fail_on: Option<usize>,
        appends: usize,
    }

    impl Store for RecordingStore {
        fn append(&mut self, batch: &[StateMutation]) -> io::Result<u64> {
            self.appends += 1;
            let mut log = self.log.lock().unwrap();
            if Some(self.appends) == self.fail_on {
                log.push(Event::FailedAppend);
                return Err(io::Error::other("disk full"));
            }
            log.push(Event::Append(batch.to_vec()));
            Ok(16 * batch.len() as u64)
        }

        fn snapshot_due(&self) -> bool {
            false
        }

        fn write_snapshot(&mut self, _snap: &BsSnapshot) -> io::Result<u64> {
            unreachable!("snapshot_due is never true")
        }

        fn last_lsn(&self) -> u64 {
            0
        }
    }

    fn shard_with(store: RecordingStore, now: Now) -> (DurableShard, Arc<NetStats>) {
        let cfg = ProtocolConfig::default()
            .with_recovery(RecoveryConfig::default())
            .with_counter_mode(CounterMode::Explicit);
        let mut provisioner = Provisioner::new(derive_seed(SEED, 1));
        for id in 0..=MOTES as u32 {
            provisioner.provision(id);
        }
        let cluster_keys = (0..=MOTES as u32)
            .map(|id| (id, provisioner.cluster_key_of(id)))
            .collect();
        let bs = BaseStation::new(
            cfg,
            0,
            provisioner.km(),
            provisioner.registry().clone(),
            cluster_keys,
            provisioner.revocation_chain(),
        );
        let stats = Arc::new(NetStats::default());
        let store: Box<dyn Store> = Box::new(store);
        let shard = DurableShard::open(
            |snap| {
                assert!(snap.is_none(), "nothing was recovered");
                bs
            },
            Some((store, Recovered::default())),
            StdRng::seed_from_u64(SEED),
            Arc::clone(&stats),
            None,
            now,
        )
        .expect("opening a shard on a fake store");
        (shard, stats)
    }

    /// Notes a release in the log, after checking that every mutation in
    /// `expected` was appended since the previous release.
    fn release(log: &Log, released: &Released, expected: &[StateMutation]) {
        let mut log = log.lock().unwrap();
        let since = log
            .iter()
            .rposition(|e| matches!(e, Event::Released))
            .map_or(0, |i| i + 1);
        let appended: Vec<&StateMutation> = log[since..]
            .iter()
            .flat_map(|e| match e {
                Event::Append(batch) => batch.iter().collect(),
                _ => Vec::new(),
            })
            .collect();
        for m in expected {
            assert!(
                appended.contains(&m),
                "{} frame(s) released before {m:?} was appended; log {log:?}",
                released.frames().len()
            );
        }
        log.push(Event::Released);
    }

    fn reading(mote: &mut Mote) -> (bytes::Bytes, StateMutation) {
        let r = mote.next_reading(24);
        let accept = StateMutation::CounterAccept {
            src: mote.id,
            ctr: r.ctr,
        };
        (r.frame, accept)
    }

    #[test]
    fn released_frames_follow_the_append_of_their_journal_records() {
        let log = Log::default();
        let store = RecordingStore {
            log: Arc::clone(&log),
            fail_on: None,
            appends: 0,
        };
        // Virtual monotonic time; the wall clock must stay near the
        // motes' own `τ` stamps for freshness.
        let mut now = Now {
            wall: wall_us(),
            mono: 1_000,
        };
        let (mut shard, stats) = shard_with(store, now);
        let started = shard.on_start(now);
        release(&log, &started, &[]);
        let link_at = shard.next_deadline().expect("the start hook arms timers");

        let mut army = provision_motes(MOTES, SEED);
        for round in 0..3 {
            for mote in army.iter_mut() {
                let (frame, accept) = reading(mote);
                now.mono += 10;
                let (released, bad_auth) = shard.on_datagram(&frame, now);
                assert_eq!(bad_auth, None);
                assert_eq!(released.frames().len(), 1, "one ACK per reading");
                release(&log, &released, &[accept]);
            }
            assert_eq!(
                stats.readings_accepted.load(Ordering::Relaxed),
                (round + 1) * MOTES as u64
            );
        }

        // A wall-clock step moves no deadline: nothing fires before the
        // monotonic deadline, however far the wall clock jumps.
        let stepped = Now {
            wall: now.wall + 3_600_000_000,
            mono: link_at - 1,
        };
        let idle = shard.on_tick(stepped);
        assert!(idle.frames().is_empty());
        release(&log, &idle, &[]);
        assert_eq!(shard.next_deadline(), Some(link_at));

        // The link advert leaves only after `LinkAdvertised` is appended.
        now.mono = link_at;
        let advert = shard.on_tick(now);
        assert_eq!(advert.frames().len(), 1);
        release(&log, &advert, &[StateMutation::LinkAdvertised]);
        assert_eq!(
            stats.wal_appends.load(Ordering::Relaxed),
            3 * MOTES as u64 + 1
        );
        assert_eq!(stats.protocol_errors(), 0);
    }

    #[test]
    fn failed_append_stops_the_shard_without_retry() {
        let log = Log::default();
        let store = RecordingStore {
            log: Arc::clone(&log),
            fail_on: Some(2),
            appends: 0,
        };
        let now = Now {
            wall: wall_us(),
            mono: 1_000,
        };
        let (mut shard, stats) = shard_with(store, now);
        assert!(shard.on_start(now).frames().is_empty());
        let mut army = provision_motes(MOTES, SEED);

        let (frame, _) = reading(&mut army[0]);
        let (acked, _) = shard.on_datagram(&frame, now);
        assert_eq!(acked.frames().len(), 1, "the first append succeeds");

        let (frame, _) = reading(&mut army[1]);
        let (failed, _) = shard.on_datagram(&frame, now);
        assert!(failed.frames().is_empty(), "no ACK without its WAL record");
        assert_eq!(stats.storage_failures.load(Ordering::Relaxed), 1);

        // Stopped: nothing is dispatched, nothing released, and the store
        // is never called again.
        let (frame, _) = reading(&mut army[2]);
        assert!(shard.on_datagram(&frame, now).0.frames().is_empty());
        let revoke = CtrlCmd::Revoke {
            cids: vec![3],
            nodes: vec![3],
        };
        assert!(shard.on_control(revoke, now).frames().is_empty());
        let late = Now {
            wall: now.wall + 60_000_000,
            mono: now.mono + 60_000_000,
        };
        assert!(shard.on_tick(late).frames().is_empty());
        assert_eq!(shard.next_deadline(), None);

        let log = log.lock().unwrap();
        assert_eq!(log.len(), 2, "one append, one failed append: {log:?}");
        assert!(matches!(log[1], Event::FailedAppend));
        assert_eq!(stats.storage_failures.load(Ordering::Relaxed), 1);
        assert_eq!(stats.readings_accepted.load(Ordering::Relaxed), 1);
    }
}

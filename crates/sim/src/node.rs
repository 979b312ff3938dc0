//! The application interface: what a node's software sees.
//!
//! Protocol implementations (the paper's node state machine, the baselines,
//! the adversaries) implement [`App`]; the simulator calls the hooks and
//! applies the actions queued on the [`Ctx`].

use crate::event::SimTime;
use bytes::Bytes;
use rand::rngs::StdRng;
use wsn_trace::{TraceEvent, TraceRecord, TraceSink};

/// Node identifier (also the index into the topology).
pub type NodeId = u32;

/// Application-chosen timer identity; a node can keep several distinct
/// timers keyed by this value.
pub type TimerKey = u64;

/// Actions a node can queue during a hook invocation.
#[derive(Debug)]
pub(crate) enum Action {
    Broadcast(Bytes),
    Send(NodeId, Bytes),
    SetTimer(TimerKey, SimTime),
    CancelTimer(TimerKey),
}

/// Per-invocation context handed to [`App`] hooks.
///
/// Gives the node its identity, the virtual clock, a deterministic RNG and
/// the radio/timer actions. Actions take effect when the hook returns.
pub struct Ctx<'a> {
    pub(crate) id: NodeId,
    pub(crate) now: SimTime,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) actions: &'a mut Vec<Action>,
    pub(crate) sink: Option<&'a mut (dyn TraceSink + 'static)>,
    pub(crate) trace_seq: &'a mut u64,
    pub(crate) share: Option<&'a mut RxShare>,
}

impl<'a> Ctx<'a> {
    /// This node's ID.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current virtual time, microseconds.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The simulation RNG (deterministic, shared across nodes in event
    /// order).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Broadcasts `payload` to every node within radio range. Counts as
    /// **one** transmission regardless of how many neighbors receive it —
    /// the physical property the paper's design exploits.
    pub fn broadcast(&mut self, payload: impl Into<Bytes>) {
        self.actions.push(Action::Broadcast(payload.into()));
    }

    /// Sends `payload` addressed to neighbor `to`. Delivered only if `to`
    /// is in range; still costs one transmission (radio is a broadcast
    /// medium — addressing is a frame header, not a physical narrowing).
    pub fn send(&mut self, to: NodeId, payload: impl Into<Bytes>) {
        self.actions.push(Action::Send(to, payload.into()));
    }

    /// Arms (or re-arms) timer `key` to fire `delay` microseconds from now.
    /// Re-arming supersedes the previous pending instance of the same key.
    pub fn set_timer(&mut self, key: TimerKey, delay: SimTime) {
        self.actions.push(Action::SetTimer(key, delay));
    }

    /// Cancels any pending instance of timer `key`.
    pub fn cancel_timer(&mut self, key: TimerKey) {
        self.actions.push(Action::CancelTimer(key));
    }

    /// The receive share of the frame being delivered: every receiver of
    /// one fan-out entry is lent the same share, so a computation one
    /// receiver recorded for the frame can serve the next. On the
    /// single-heap simulator the entry is a hook-free broadcast; on the
    /// sharded engine it is a broadcast's receivers in one region. A
    /// per-receiver delivery, and every other hook, starts with an empty
    /// share. Both engines zero the share when the event ends and always
    /// lend one (`Some`).
    pub fn rx_share(&mut self) -> Option<&mut RxShare> {
        self.share.as_deref_mut()
    }

    /// Whether a trace sink is installed. Lets callers skip building
    /// expensive events entirely when tracing is off; [`Ctx::trace`]
    /// already does this for its own argument via laziness at the
    /// simulator layer, so plain call sites don't need to check.
    pub fn tracing(&self) -> bool {
        self.sink.is_some()
    }

    /// Records a protocol-layer trace event at this node and the current
    /// virtual time. No-op (one branch) when tracing is off.
    pub fn trace(&mut self, event: TraceEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            let rec = TraceRecord {
                seq: *self.trace_seq,
                at: self.now,
                node: self.id,
                event,
            };
            *self.trace_seq += 1;
            sink.record(rec);
        }
    }
}

/// One computation over a received frame, lent to every receiver of a
/// broadcast so the receivers that would compute the same thing do it
/// once.
///
/// The share holds an output and the exact input that produced it, as
/// the concatenation of the caller's input parts. For a Step-2 open, and
/// for a HELLO or LINK open under `Km`, the parts are the key bytes, the
/// nonce and the whole sealed frame, tag included, and the output is the
/// verified plaintext. [`RxShare::open`]
/// hands out the recorded output only to a caller whose input is
/// byte-for-byte the recorded one; any other caller computes its own
/// output, which replaces the record. A failed computation leaves the
/// share empty. The share is only ever as wide as one delivery: the
/// simulator zeroes it when the broadcast (or the per-receiver delivery)
/// ends, so neither input nor output outlives the frame that produced
/// it. Whoever else holds a share past its frame zeroes it with
/// [`RxShare::clear`]; there is no zeroing `Drop`, whose drop glue on
/// the per-receiver move of the share cost a fifth of `sim-steady`'s
/// throughput.
#[derive(Default)]
pub struct RxShare {
    input: Vec<u8>,
    output: Vec<u8>,
    stats: RxShareStats,
}

/// How often an [`RxShare`] computed an output and how often it handed a
/// recorded one out again. Kept across deliveries; holds no frame data.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RxShareStats {
    /// Outputs computed by the caller's closure, because the share held
    /// no output or one for another input.
    pub computed: u64,
    /// Recorded outputs handed to a caller with the same input.
    pub reused: u64,
}

impl RxShare {
    /// The output recorded for the input `parts` (concatenated), or, if
    /// the share holds any other input, the output `compute` writes into
    /// an empty buffer, which the share then records with `parts`. On an
    /// error the share is left empty and the error returned.
    pub fn open<E>(
        &mut self,
        parts: &[&[u8]],
        compute: impl FnOnce(&mut Vec<u8>) -> Result<(), E>,
    ) -> Result<&[u8], E> {
        if self.holds(parts) {
            self.stats.reused += 1;
            return Ok(&self.output);
        }
        self.clear();
        self.stats.computed += 1;
        if let Err(e) = compute(&mut self.output) {
            self.clear();
            return Err(e);
        }
        for part in parts {
            self.input.extend_from_slice(part);
        }
        Ok(&self.output)
    }

    /// Whether the share holds an output computed from exactly `parts`.
    fn holds(&self, parts: &[&[u8]]) -> bool {
        if self.input.is_empty() || self.input.len() != parts.iter().map(|p| p.len()).sum() {
            return false;
        }
        let mut rest = &self.input[..];
        parts.iter().all(|part| {
            let (head, tail) = rest.split_at(part.len());
            rest = tail;
            head == *part
        })
    }

    /// Whether the share holds nothing: no input, no output.
    pub fn is_empty(&self) -> bool {
        self.input.is_empty() && self.output.is_empty()
    }

    /// The counts so far.
    pub fn stats(&self) -> RxShareStats {
        self.stats
    }

    /// Overwrites input and output with zeros and empties the share,
    /// keeping the buffers' capacity for the next frame.
    pub fn clear(&mut self) {
        self.input.fill(0);
        self.input.clear();
        self.output.fill(0);
        self.output.clear();
    }
}

/// A node application. All hooks have empty defaults so implementations
/// only write what they use.
pub trait App {
    /// Called once at simulation start (time 0).
    fn on_start(&mut self, ctx: &mut Ctx) {
        let _ = ctx;
    }

    /// Called when a frame from `from` is delivered to this node.
    fn on_message(&mut self, ctx: &mut Ctx, from: NodeId, payload: &[u8]) {
        let _ = (ctx, from, payload);
    }

    /// Called when a timer armed with [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx, key: TimerKey) {
        let _ = (ctx, key);
    }
}

//! The discrete-event core: virtual time and the event queue.

use crate::node::{NodeId, TimerKey};
use bytes::Bytes;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Virtual simulation time in microseconds.
pub type SimTime = u64;

/// One microsecond.
pub const MICRO: SimTime = 1;
/// One millisecond in [`SimTime`] units.
pub const MILLI: SimTime = 1_000;
/// One second in [`SimTime`] units.
pub const SECOND: SimTime = 1_000_000;

/// What happens when an event fires.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// Node start-up hook.
    Start(NodeId),
    /// A timer armed by a node. `gen` invalidates superseded/cancelled
    /// timers lazily.
    Timer {
        /// Owning node.
        node: NodeId,
        /// App-chosen timer identity.
        key: TimerKey,
        /// Arming generation; stale generations are dropped on fire.
        gen: u64,
    },
    /// Radio delivery of a frame to one receiver.
    Deliver {
        /// Transmitting node (or a synthetic adversary ID).
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Frame payload.
        payload: Bytes,
    },
    /// Radio delivery of one broadcast to every neighbour of `from` (on
    /// the sharded engine, every neighbour in the entry's region), in
    /// neighbour order: one queue entry in place of one
    /// [`Self::Deliver`] per receiver. Those would carry consecutive
    /// sequence numbers at one fire time, so no other event could run
    /// between them.
    Broadcast {
        /// Transmitting node.
        from: NodeId,
        /// Frame payload.
        payload: Bytes,
    },
}

/// An event queued for a particular virtual time. Ties break on insertion
/// sequence so execution order is fully deterministic.
#[derive(Debug)]
pub struct QueuedEvent {
    /// Fire time.
    pub at: SimTime,
    /// Insertion sequence number (tie-breaker).
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic time-ordered event queue.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<QueuedEvent>,
    seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty queue with heap space for `cap` pending events, so
    /// steady-state scheduling avoids reallocation-and-copy of the heap.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
        }
    }

    /// Total heap slots currently allocated.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Schedules `kind` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(QueuedEvent { at, seq, kind });
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<QueuedEvent> {
        self.heap.pop()
    }

    /// Earliest pending fire time.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, EventKind::Start(3));
        q.schedule(10, EventKind::Start(1));
        q.schedule(20, EventKind::Start(2));
        let order: Vec<SimTime> = std::iter::from_fn(|| q.pop().map(|e| e.at)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for id in 0..5u32 {
            q.schedule(100, EventKind::Start(id));
        }
        let ids: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|e| match e.kind {
                EventKind::Start(id) => id,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn with_capacity_preallocates_and_behaves_identically() {
        let mut q = EventQueue::with_capacity(16);
        assert!(q.capacity() >= 16);
        q.schedule(30, EventKind::Start(3));
        q.schedule(10, EventKind::Start(1));
        let order: Vec<SimTime> = std::iter::from_fn(|| q.pop().map(|e| e.at)).collect();
        assert_eq!(order, vec![10, 30]);
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, EventKind::Start(0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(1));
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}

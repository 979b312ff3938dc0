//! The transport seam: what the protocol state machines require from
//! whatever carries their frames and fires their timers.
//!
//! [`ProtocolNode`](crate::node::ProtocolNode) and
//! [`BaseStation`](crate::base_station::BaseStation) are pure
//! message-driven state machines; everything they ask of the outside
//! world goes through this trait — broadcast/unicast framed datagrams,
//! arm/cancel keyed timers, read a clock and a deterministic RNG, and
//! emit trace events. The discrete-event simulator's per-invocation
//! [`wsn_sim::node::Ctx`] is the first implementation (the blanket
//! impl below simply delegates, so simulator runs are byte-identical to
//! the pre-seam code); the `wsn-net` crate provides a real-I/O backend
//! (a UDP reactor) that drives the same unmodified state machines over
//! actual sockets.
//!
//! Handlers take `&mut impl Transport`, so every backend is
//! monomorphized — the simulator hot path pays no dynamic dispatch for
//! having grown a second transport.

use bytes::Bytes;
use rand::rngs::StdRng;
use wsn_sim::event::SimTime;
use wsn_sim::node::{Ctx, NodeId, TimerKey};
use wsn_trace::TraceEvent;

/// The environment a protocol state machine runs against.
///
/// Semantics every implementation must honor (the simulator defines
/// them; the real backends reproduce them):
///
/// * **Broadcast is one transmission** reaching every in-range
///   neighbor; unicast is a frame header, not a physical narrowing.
/// * **Actions are deferred**: frames queued during a hook invocation
///   are transmitted after the hook returns, never re-entrantly.
/// * **Timers are keyed and superseding**: re-arming a key replaces the
///   pending instance; cancel removes it.
/// * **The clock is microseconds** — virtual time in the simulator,
///   wall-clock µs since an epoch on real backends. Only differences
///   and ordering are meaningful to the protocol.
pub trait Transport {
    /// This node's ID.
    fn id(&self) -> NodeId;

    /// Current time, microseconds.
    fn now(&self) -> SimTime;

    /// The node's deterministic RNG.
    fn rng(&mut self) -> &mut StdRng;

    /// Broadcasts `payload` to every node within radio range. Counts as
    /// **one** transmission regardless of how many neighbors receive it.
    fn broadcast(&mut self, payload: Bytes);

    /// Sends `payload` addressed to neighbor `to`.
    fn send(&mut self, to: NodeId, payload: Bytes);

    /// Arms (or re-arms) timer `key` to fire `delay` microseconds from
    /// now. Re-arming supersedes the previous pending instance.
    fn set_timer(&mut self, key: TimerKey, delay: SimTime);

    /// Cancels any pending instance of timer `key`.
    fn cancel_timer(&mut self, key: TimerKey);

    /// Whether a trace sink is installed (lets callers skip building
    /// expensive events entirely when tracing is off).
    fn tracing(&self) -> bool {
        false
    }

    /// Records a protocol-layer trace event at this node and the
    /// current time. No-op when tracing is off.
    fn trace(&mut self, event: TraceEvent) {
        let _ = event;
    }
}

/// The simulator's per-invocation context is the canonical transport:
/// pure delegation to the inherent methods, so protocol behavior under
/// the seam is byte-identical to calling [`Ctx`] directly.
impl Transport for Ctx<'_> {
    fn id(&self) -> NodeId {
        Ctx::id(self)
    }

    fn now(&self) -> SimTime {
        Ctx::now(self)
    }

    fn rng(&mut self) -> &mut StdRng {
        Ctx::rng(self)
    }

    fn broadcast(&mut self, payload: Bytes) {
        Ctx::broadcast(self, payload);
    }

    fn send(&mut self, to: NodeId, payload: Bytes) {
        Ctx::send(self, to, payload);
    }

    fn set_timer(&mut self, key: TimerKey, delay: SimTime) {
        Ctx::set_timer(self, key, delay);
    }

    fn cancel_timer(&mut self, key: TimerKey) {
        Ctx::cancel_timer(self, key);
    }

    fn tracing(&self) -> bool {
        Ctx::tracing(self)
    }

    fn trace(&mut self, event: TraceEvent) {
        Ctx::trace(self, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use wsn_sim::geom::Point;
    use wsn_sim::net::Simulator;
    use wsn_sim::topology::{Topology, TopologyConfig};

    /// An app that exercises every Transport method through the generic
    /// seam rather than the concrete Ctx, proving the two dispatch
    /// paths see identical state.
    #[derive(Default)]
    struct SeamProbe {
        seen_id: Option<NodeId>,
        fired: u32,
    }

    impl SeamProbe {
        fn drive(&mut self, t: &mut impl Transport) {
            self.seen_id = Some(t.id());
            assert_eq!(t.now(), 0);
            let _ = t.rng().gen::<u64>();
            t.broadcast(Bytes::from_static(b"probe"));
            t.set_timer(7, 1_000);
            t.set_timer(8, 2_000);
            t.cancel_timer(8);
            assert!(!t.tracing());
            t.trace(TraceEvent::BecameHead); // must be a no-op
        }
    }

    impl wsn_sim::node::App for SeamProbe {
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.drive(ctx);
        }

        fn on_timer(&mut self, _ctx: &mut Ctx, key: TimerKey) {
            assert_eq!(key, 7, "canceled timer must not fire");
            self.fired += 1;
        }
    }

    #[test]
    fn ctx_satisfies_transport_seam() {
        let cfg = TopologyConfig {
            n: 2,
            side: 10.0,
            radius: 5.0,
            wrap: false,
        };
        let topo = Topology::from_positions(cfg, vec![Point::new(1.0, 1.0), Point::new(2.0, 1.0)]);
        let mut sim = Simulator::new(topo, |_| SeamProbe::default());
        sim.run();
        for id in 0..2u32 {
            let probe = &sim.apps()[id as usize];
            assert_eq!(probe.seen_id, Some(id));
            assert_eq!(probe.fired, 1);
        }
        // The broadcast crossed the medium: both nodes transmitted once
        // and heard the other's frame.
        assert_eq!(sim.counters().tx_msgs[0], 1);
        assert_eq!(sim.counters().rx_msgs[1], 1);
    }
}

//! Gradient routing toward the sinks.
//!
//! The paper deliberately abstracts routing ("no matter what routing
//! protocol is followed, intermediate nodes need to verify that the message
//! is not tampered with") — but a runnable system needs one. This module
//! implements the simplest scheme compatible with the paper's security
//! analysis:
//!
//! * each sink floods an authenticated **beacon** through the Step-2
//!   machinery; every node remembers `hops = sender_hops + 1` toward that
//!   sink (minimum over all beacons heard) and re-floods once per
//!   improvement;
//! * a data frame is **forwarded by exactly the receivers strictly closer
//!   to its sink** than the sender (the sender's hop count rides,
//!   authenticated, in the Step-2 header), with duplicate suppression.
//!
//! Because hop counts are carried inside the authenticated envelope and no
//! other routing state is exchanged, the "spoofed, altered or replayed
//! routing information" attack class of §VI has no surface, and there are
//! no privileged nodes for sinkhole formation.
//!
//! Sinks are node ids `0..K`, and a node keeps one gradient per sink in
//! a [`Gradients`] table. A single-sink deployment is the k = 1 case:
//! its base station is sink 0. A [`Route`] names the sink a frame
//! descends toward, and the forwarding code is written once against it.

use crate::config::SinkConfig;
use crate::msg::{DataUnit, Inner};

/// The sink a frame is addressed to, i.e. which gradient it descends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route(pub u32);

impl Route {
    /// Multi-sink traffic from a node that has heard no sink yet: no node
    /// has a gradient along it, so only a sink in radio range takes it.
    pub const UNROUTED: Route = Route(u32::MAX);

    /// The route the legacy `Data`/`Beacon` tags name: sink 0, or
    /// [`Route::UNROUTED`] in a multi-sink deployment. Frames that
    /// descend no gradient carry our distance along it.
    pub fn legacy(sinks: &SinkConfig) -> Route {
        if sinks.enabled {
            Self::UNROUTED
        } else {
            Self(0)
        }
    }

    /// The one place the wire tag is chosen: a multi-sink deployment
    /// names the sink (`SinkData`/`SinkBeacon`); single-sink and unrouted
    /// traffic use the legacy tags, which decode via [`Route::legacy`].
    fn sink_tag(self, sinks: &SinkConfig) -> Option<u32> {
        (sinks.enabled && self != Route::UNROUTED).then_some(self.0)
    }

    /// The frame that carries `unit` along this route.
    pub fn data(self, sinks: &SinkConfig, unit: DataUnit) -> Inner {
        match self.sink_tag(sinks) {
            Some(sink) => Inner::SinkData { sink, unit },
            None => Inner::Data(unit),
        }
    }

    /// The beacon that teaches this route's gradient.
    pub fn beacon(self, sinks: &SinkConfig) -> Inner {
        match self.sink_tag(sinks) {
            Some(sink) => Inner::SinkBeacon { sink },
            None => Inner::Beacon,
        }
    }
}

/// A node's gradient table, indexed by sink id `0..K`. Sink 0 is inline,
/// so a single-sink node allocates nothing for routing. An unknown sink
/// reads as unestablished and learns nothing.
#[derive(Clone, Debug, Default)]
pub struct Gradients {
    first: Gradient,
    rest: Box<[Gradient]>,
}

impl Gradients {
    /// A table for sinks `0..k`, with no gradient to any of them.
    pub fn new(k: u32) -> Self {
        Gradients {
            rest: vec![Gradient::default(); k.saturating_sub(1) as usize].into(),
            ..Self::default()
        }
    }

    /// Number of sinks `K`.
    pub fn k(&self) -> u32 {
        self.rest.len() as u32 + 1
    }

    /// Our gradient along `route`.
    pub fn get(&self, route: Route) -> Gradient {
        match route.0 {
            0 => self.first,
            sink => self
                .rest
                .get(sink as usize - 1)
                .copied()
                .unwrap_or_default(),
        }
    }

    /// Our gradient along `route`, to update (`None` for an unknown sink).
    pub fn get_mut(&mut self, route: Route) -> Option<&mut Gradient> {
        match route.0 {
            0 => Some(&mut self.first),
            sink => self.rest.get_mut(sink as usize - 1),
        }
    }

    /// Observes a beacon along `route` from `sender_hops` away; `true` on
    /// improvement (re-flood it with our own distance).
    pub fn observe_beacon(&mut self, route: Route, sender_hops: u32) -> bool {
        self.get_mut(route)
            .is_some_and(|g| g.observe_beacon(sender_hops))
    }

    /// Forgets every learned distance.
    pub fn reset(&mut self) {
        self.first.invalidate();
        self.rest.iter_mut().for_each(Gradient::invalidate);
    }

    /// The nearest sink as `(sink, hops)`: minimum `(hops, sink_id)` over
    /// established gradients, so ties go to the smaller id. `None` until
    /// any beacon is heard.
    pub fn nearest(&self) -> Option<(u32, u32)> {
        (0..self.k())
            .map(|sink| (sink, self.get(Route(sink)).hops()))
            .filter(|&(_, hops)| hops != NO_GRADIENT)
            .min_by_key(|&(sink, hops)| (hops, sink))
    }
}

/// A node's gradient state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Gradient {
    hops: u32,
}

/// Hop value meaning "no gradient yet".
pub const NO_GRADIENT: u32 = u32::MAX;

impl Default for Gradient {
    fn default() -> Self {
        Gradient { hops: NO_GRADIENT }
    }
}

impl Gradient {
    /// A gradient fixed at a distance (a sink sits at `at(0)`).
    pub fn at(hops: u32) -> Self {
        Gradient { hops }
    }

    /// Current hop distance to the sink.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// Whether any beacon has been heard.
    pub fn established(&self) -> bool {
        self.hops != NO_GRADIENT
    }

    /// Observes a beacon whose sender was `sender_hops` from the sink.
    /// Returns `true` if this *improved* our distance (in which case the
    /// beacon should be re-flooded).
    pub fn observe_beacon(&mut self, sender_hops: u32) -> bool {
        let candidate = sender_hops.saturating_add(1);
        if candidate < self.hops {
            self.hops = candidate;
            true
        } else {
            false
        }
    }

    /// The greedy forwarding decision: should this node re-wrap and
    /// forward a data frame whose sender was `sender_hops` away?
    pub fn should_forward(&self, sender_hops: u32) -> bool {
        self.established() && self.hops < sender_hops
    }

    /// Forgets the learned distance — route repair: the next-hop set this
    /// gradient implied has stopped responding, so stop trusting it and
    /// let the following beacon (scoped RouteRequest reply or full
    /// re-flood) re-teach it.
    pub fn invalidate(&mut self) {
        self.hops = NO_GRADIENT;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unestablished() {
        let g = Gradient::default();
        assert!(!g.established());
        assert!(!g.should_forward(5));
    }

    #[test]
    fn beacon_improvements() {
        let mut g = Gradient::default();
        assert!(g.observe_beacon(0)); // BS neighbor: hops = 1
        assert_eq!(g.hops(), 1);
        assert!(!g.observe_beacon(0)); // no improvement
        assert!(!g.observe_beacon(5));
        assert_eq!(g.hops(), 1);
    }

    #[test]
    fn forwarding_is_strictly_downhill() {
        let mut g = Gradient::default();
        g.observe_beacon(1); // hops = 2
        assert!(g.should_forward(3));
        assert!(g.should_forward(NO_GRADIENT)); // source had no gradient
        assert!(!g.should_forward(2)); // equal: don't forward
        assert!(!g.should_forward(1)); // uphill: don't forward
    }

    #[test]
    fn saturating_beacon() {
        let mut g = Gradient::default();
        // A (bogus) beacon from a sender at u32::MAX must not wrap around.
        assert!(!g.observe_beacon(NO_GRADIENT));
        assert!(!g.established());
    }

    #[test]
    fn base_station_gradient() {
        let g = Gradient::at(0);
        assert!(g.established());
        assert!(g.should_forward(1));
    }
}

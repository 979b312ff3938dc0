//! Gradient routing toward the base station.
//!
//! The paper deliberately abstracts routing ("no matter what routing
//! protocol is followed, intermediate nodes need to verify that the message
//! is not tampered with") — but a runnable system needs one. This module
//! implements the simplest scheme compatible with the paper's security
//! analysis:
//!
//! * the base station floods an authenticated **beacon** through the
//!   Step-2 machinery; every node remembers `hops = sender_hops + 1`
//!   (minimum over all beacons heard) and re-floods once per improvement;
//! * a data frame is **forwarded by exactly the receivers strictly closer
//!   to the base station** than the sender (the sender's hop count rides,
//!   authenticated, in the Step-2 header), with duplicate suppression.
//!
//! Because hop counts are carried inside the authenticated envelope and no
//! other routing state is exchanged, the "spoofed, altered or replayed
//! routing information" attack class of §VI has no surface, and there are
//! no privileged nodes for sinkhole formation.
//!
//! With several sinks ([`crate::sink`]) a node keeps one gradient per
//! sink besides this one; a [`Route`] names which gradient a frame
//! descends, and the forwarding code is written once against it.

use crate::msg::{DataUnit, Inner};

/// Which gradient a frame descends: the base station's, or the one
/// toward a named sink. The wire keeps the two apart (`Data` vs
/// `SinkData`, `Beacon` vs `SinkBeacon`); the forwarding rule does not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// The single-sink gradient toward the base station.
    Bs,
    /// The gradient toward sink `id` (multi-sink mode).
    Sink(u32),
}

impl Route {
    /// The frame that carries `unit` along this route.
    pub fn data(self, unit: DataUnit) -> Inner {
        match self {
            Route::Bs => Inner::Data(unit),
            Route::Sink(sink) => Inner::SinkData { sink, unit },
        }
    }

    /// The beacon that teaches this route's gradient.
    pub fn beacon(self) -> Inner {
        match self {
            Route::Bs => Inner::Beacon,
            Route::Sink(sink) => Inner::SinkBeacon { sink },
        }
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
    /// A gradient fixed at a distance (the base station uses `at(0)`).
    pub fn at(hops: u32) -> Self {
        Gradient { hops }
    }

    /// Current hop distance to the base station.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// Whether any beacon has been heard.
    pub fn established(&self) -> bool {
        self.hops != NO_GRADIENT
    }

    /// Observes a beacon whose sender was `sender_hops` from the base
    /// station. Returns `true` if this *improved* our distance (in which
    /// case the beacon should be re-flooded).
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

//! Per-link channel processes: the pluggable loss model.
//!
//! The simulator consults exactly one [`LinkProcess`] for every frame
//! delivery; the process decides whether the channel eats the frame.
//! The default is [`IidLoss`] — the historical `RadioConfig::loss`
//! knob, an independent Bernoulli draw per receiver. Richer models
//! (correlated Gilbert–Elliott bursts, time-varying interference) plug
//! in through [`crate::net::Simulator::set_link_process`] without the
//! delivery path changing shape.
//!
//! A second, optional seam acts one step earlier: a [`DeliveryHook`]
//! decides at *scheduling* time which copies of a frame reach a
//! receiver — none (dropped), one, or two (duplicated), each possibly
//! delayed or corrupted. Seeded datagram fault schedules
//! (`wsn_net::fault::FaultEngine`) plug in here through
//! [`crate::net::Simulator::set_delivery_hook`]; with no hook installed
//! the delivery path is exactly the hook-free one.
//!
//! Determinism contract: a process may either draw from the simulator's
//! main RNG (passed to [`LinkProcess::should_drop`]) or keep its own
//! seeded streams. Either way the decision must be a pure function of
//! the seed material and the delivery sequence, never of wall-clock
//! time or thread scheduling. A [`DeliveryHook`] never sees the main
//! RNG, so installing one that perturbs nothing leaves a run
//! byte-identical to installing none.

use crate::event::SimTime;
use crate::node::NodeId;
use rand::rngs::StdRng;
use rand::Rng;

/// A channel loss model consulted once per frame delivery.
pub trait LinkProcess: Send {
    /// Returns `true` if the frame from `from` to `to` at virtual time
    /// `now` is lost in the channel. `rng` is the simulator's main RNG;
    /// implementations that keep private per-link streams should leave
    /// it untouched so swapping models does not perturb unrelated
    /// randomness.
    fn should_drop(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        now: SimTime,
        rng: &mut StdRng,
    ) -> bool;
}

/// Independent per-receiver Bernoulli loss — the trivial link process
/// the `RadioConfig::loss` knob always meant.
///
/// Draw discipline matters: the simulator's RNG is shared with protocol
/// timers, so this process consumes exactly one draw per delivery *and
/// only when `loss > 0`*, preserving byte-identical traces with seeds
/// produced before the [`LinkProcess`] refactor.
#[derive(Clone, Copy, Debug)]
pub struct IidLoss {
    /// Frame-loss probability in `[0, 1)`.
    pub loss: f64,
}

impl IidLoss {
    /// A process dropping each frame independently with probability
    /// `loss`.
    pub fn new(loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        IidLoss { loss }
    }
}

impl LinkProcess for IidLoss {
    fn should_drop(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        _bytes: usize,
        _now: SimTime,
        rng: &mut StdRng,
    ) -> bool {
        self.loss > 0.0 && rng.gen::<f64>() < self.loss
    }
}

/// One delivery scheduled for a frame by a [`DeliveryHook`] (a dropped
/// frame schedules none; a duplicated one schedules two).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduledCopy {
    /// Deliver this many microseconds later than the unperturbed path.
    pub delay_us: u64,
    /// Flip payload byte `offset % len` with this XOR mask (never 0).
    pub corrupt: Option<(usize, u8)>,
}

impl ScheduledCopy {
    /// The unperturbed delivery.
    pub fn clean() -> Self {
        ScheduledCopy {
            delay_us: 0,
            corrupt: None,
        }
    }

    /// True when this copy is the unperturbed delivery.
    pub fn is_clean(&self) -> bool {
        self.delay_us == 0 && self.corrupt.is_none()
    }

    /// Applies the corruption (if any) to a payload in place.
    pub fn apply_corruption(&self, payload: &mut [u8]) {
        if let Some((offset, mask)) = self.corrupt {
            if !payload.is_empty() {
                let i = offset % payload.len();
                payload[i] ^= mask;
            }
        }
    }
}

/// A schedule-time delivery decision, consulted once per receiver for
/// every frame a node transmits.
pub trait DeliveryHook: Send {
    /// Decides the fate of one `bytes`-long frame on the directed link
    /// `from -> to`, due at virtual time `now`. Empty = dropped;
    /// otherwise each entry is one copy to schedule.
    fn decide(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        now: SimTime,
    ) -> Vec<ScheduledCopy>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn zero_loss_never_drops_and_never_draws() {
        let mut p = IidLoss::new(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut witness = StdRng::seed_from_u64(1);
        for i in 0..100 {
            assert!(!p.should_drop(0, 1, 32, i, &mut rng));
        }
        // The RNG was not consumed at all.
        assert_eq!(rng.next_u64(), witness.next_u64());
    }

    #[test]
    fn loss_rate_is_roughly_honored() {
        let mut p = IidLoss::new(0.3);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 50_000;
        let dropped = (0..n)
            .filter(|&i| p.should_drop(0, 1, 32, i, &mut rng))
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed {rate}");
    }

    #[test]
    #[should_panic]
    fn certain_loss_rejected() {
        let _ = IidLoss::new(1.0);
    }
}

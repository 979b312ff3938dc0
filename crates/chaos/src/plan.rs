//! Fault plans: time-anchored fault schedules built before the run.
//!
//! A [`FaultPlan`] is data, not behavior — a sorted list of
//! [`Fault`]s plus battery budgets, all fixed before the simulation
//! starts. The chaos engine (`wsn_core::chaos`) interprets it against a
//! live network.
//! Everything random about a plan (churn times, drift factors) is drawn
//! from streams derived from the plan's own master seed at *build* time,
//! so a plan is a pure function of its inputs and the same plan replays
//! byte-identically on any thread count.

use crate::gilbert::GeParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsn_sim::event::SimTime;
use wsn_sim::node::NodeId;
use wsn_sim::rng::derive_seed;

/// Stream tags for seed derivation within a plan (distinct from the
/// simulation's own streams because they derive from the *plan* seed).
mod stream {
    pub const CHURN: u64 = 0x6368_7572;
    pub const DRIFT: u64 = 0x6472_6966;
    pub const GILBERT: u64 = 0x6765_6C6C;
}

/// What a single fault does when it fires.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSpec {
    /// Power the node off. `wipe` decides what the matching reboot does:
    /// a wiped node cold-boots from empty flash and must re-enter the
    /// network through the §IV-E node-addition path; a non-wiped node
    /// resumes with its RAM (keys, cluster membership) intact.
    Crash {
        /// The victim.
        node: NodeId,
        /// Whether the crash destroys protocol state.
        wipe: bool,
    },
    /// Power a crashed node back on, honoring the wipe-ness of the crash
    /// that downed it.
    Reboot {
        /// The node to revive.
        node: NodeId,
    },
    /// Swap the channel to Gilbert–Elliott burst loss.
    BurstLoss(GeParams),
    /// Cut the deployment along the vertical line `x = frac · side`:
    /// frames between the two sides are dropped until healed.
    Partition {
        /// Cut position as a fraction of the deployment side, in (0, 1).
        frac: f64,
    },
    /// Heal the partition in force, if any.
    Heal,
    /// Give every node a clock-rate factor drawn uniformly from
    /// `[1 − spread, 1 + spread]` (its timers run fast or slow by up to
    /// `spread`). Factors are sampled from the plan's drift stream.
    ClockDrift {
        /// Maximum relative clock error, in `[0, 1)`.
        spread: f64,
    },
    /// Not a fault: a scheduled key-refresh epoch, so re-keying rounds
    /// interleave with the faults on the same timeline. Powered-off nodes
    /// miss the epoch — which is precisely what resilience experiments
    /// measure.
    KeyRefresh,
}

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq)]
pub struct Fault {
    /// Virtual time at which the fault fires.
    pub at: SimTime,
    /// What happens.
    pub spec: FaultSpec,
}

/// A node's battery budget: it dies (state-retained crash) as soon as
/// its cumulative radio energy crosses `budget_uj`. Checked by the
/// engine on a fixed virtual-time grid, so deaths are deterministic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatteryBudget {
    /// The metered node.
    pub node: NodeId,
    /// Lifetime energy allowance, microjoules.
    pub budget_uj: f64,
}

/// A deterministic fault schedule. Build with the fluent methods, then
/// hand to `wsn_core::chaos::run_plan` (directly, or attached to a
/// scenario via `Scenario::chaos`).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
    batteries: Vec<BatteryBudget>,
    battery_poll_us: SimTime,
}

impl FaultPlan {
    /// An empty plan whose random choices (churn, drift) derive from
    /// `seed`. An empty plan leaves a run untouched.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
            batteries: Vec::new(),
            battery_poll_us: 100_000,
        }
    }

    /// The plan's master seed (per-fault streams derive from it).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.batteries.is_empty()
    }

    /// Scheduled faults in firing order (stable for equal times).
    pub fn faults(&self) -> Vec<Fault> {
        let mut out = self.faults.clone();
        out.sort_by_key(|f| f.at);
        out
    }

    /// Registered battery budgets.
    pub fn batteries(&self) -> &[BatteryBudget] {
        &self.batteries
    }

    /// Virtual-time grid on which battery budgets are checked.
    pub fn battery_poll_us(&self) -> SimTime {
        self.battery_poll_us
    }

    /// Sets the battery polling grid (default 100 ms of virtual time).
    pub fn with_battery_poll_us(mut self, poll: SimTime) -> Self {
        assert!(poll > 0, "poll interval must be positive");
        self.battery_poll_us = poll;
        self
    }

    /// Crashes `node` at `at`, retaining its state for a later reboot.
    pub fn crash_at(mut self, at: SimTime, node: NodeId) -> Self {
        self.faults.push(Fault {
            at,
            spec: FaultSpec::Crash { node, wipe: false },
        });
        self
    }

    /// Crashes `node` at `at`, destroying its state: the matching reboot
    /// re-enters through the node-addition path.
    pub fn crash_wiped_at(mut self, at: SimTime, node: NodeId) -> Self {
        self.faults.push(Fault {
            at,
            spec: FaultSpec::Crash { node, wipe: true },
        });
        self
    }

    /// Reboots `node` at `at` (it must have crashed earlier in the plan).
    pub fn reboot_at(mut self, at: SimTime, node: NodeId) -> Self {
        self.faults.push(Fault {
            at,
            spec: FaultSpec::Reboot { node },
        });
        self
    }

    /// Kills `node` (state-retained, no reboot) once its cumulative
    /// radio energy exceeds `budget_uj` — the battery-depletion death
    /// driven by the simulator's energy meters.
    pub fn battery_death(mut self, node: NodeId, budget_uj: f64) -> Self {
        assert!(budget_uj >= 0.0, "budget must be non-negative");
        self.batteries.push(BatteryBudget { node, budget_uj });
        self
    }

    /// Switches the channel to Gilbert–Elliott burst loss at `at`.
    pub fn burst_loss_at(mut self, at: SimTime, params: GeParams) -> Self {
        self.faults.push(Fault {
            at,
            spec: FaultSpec::BurstLoss(params),
        });
        self
    }

    /// Partitions the deployment at `at` along `x = frac · side`.
    pub fn partition_at(mut self, at: SimTime, frac: f64) -> Self {
        assert!((0.0..1.0).contains(&frac) && frac > 0.0, "frac in (0,1)");
        self.faults.push(Fault {
            at,
            spec: FaultSpec::Partition { frac },
        });
        self
    }

    /// Heals any partition at `at`.
    pub fn heal_at(mut self, at: SimTime) -> Self {
        self.faults.push(Fault {
            at,
            spec: FaultSpec::Heal,
        });
        self
    }

    /// At `at`, perturbs every node's clock rate by up to ±`spread`
    /// (election and refresh timers drift apart from then on).
    pub fn clock_drift_at(mut self, at: SimTime, spread: f64) -> Self {
        assert!(spread > 0.0 && spread < 1.0, "spread in (0,1)");
        self.faults.push(Fault {
            at,
            spec: FaultSpec::ClockDrift { spread },
        });
        self
    }

    /// Samples `events` crash→reboot cycles over the victim pool
    /// `nodes`, with crash times uniform in `[from, until)`, outage
    /// lengths uniform in `[5%, 25%]` of the window, and each crash
    /// wiping state with probability ½. All draws come from the plan's
    /// churn stream, so the same seed yields the same churn everywhere.
    pub fn churn(mut self, nodes: &[NodeId], events: usize, from: SimTime, until: SimTime) -> Self {
        assert!(until > from, "empty churn window");
        assert!(!nodes.is_empty(), "empty victim pool");
        let window = until - from;
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, stream::CHURN));
        for _ in 0..events {
            let node = nodes[rng.gen_range(0..nodes.len())];
            let crash_at = from + rng.gen_range(0..window);
            let outage = window / 20 + rng.gen_range(0..window / 5);
            let wipe = rng.gen_bool(0.5);
            self.faults.push(Fault {
                at: crash_at,
                spec: FaultSpec::Crash { node, wipe },
            });
            self.faults.push(Fault {
                at: crash_at + outage,
                spec: FaultSpec::Reboot { node },
            });
        }
        self
    }

    /// Schedules a key-refresh epoch at `at` (see [`FaultSpec::KeyRefresh`]).
    ///
    /// Intended for networks in `Hash` refresh mode, where an epoch is a
    /// local computation. In `Recluster` mode a refresh runs the network
    /// to quiescence, which also drains traffic scheduled later in the
    /// window — the interleaving this plan exists to create.
    pub fn refresh_at(mut self, at: SimTime) -> Self {
        self.faults.push(Fault {
            at,
            spec: FaultSpec::KeyRefresh,
        });
        self
    }

    /// Times of all scheduled refresh epochs, sorted.
    pub fn refresh_times(&self) -> Vec<SimTime> {
        let mut out: Vec<SimTime> = self
            .faults
            .iter()
            .filter(|f| f.spec == FaultSpec::KeyRefresh)
            .map(|f| f.at)
            .collect();
        out.sort_unstable();
        out
    }

    /// Seed for the Gilbert–Elliott per-link streams. Engine-facing
    /// (the interpreter lives in `wsn_core::chaos`).
    pub fn gilbert_seed(&self) -> u64 {
        derive_seed(self.seed, stream::GILBERT)
    }

    /// Fresh RNG for sampling drift factors. Engine-facing (the
    /// interpreter lives in `wsn_core::chaos`).
    pub fn drift_rng(&self) -> StdRng {
        StdRng::seed_from_u64(derive_seed(self.seed, stream::DRIFT))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        let p = FaultPlan::new(1);
        assert!(p.is_empty());
        assert!(p.faults().is_empty());
    }

    #[test]
    fn faults_come_back_sorted() {
        let p = FaultPlan::new(1)
            .reboot_at(500, 3)
            .crash_at(100, 3)
            .heal_at(300);
        let ats: Vec<SimTime> = p.faults().iter().map(|f| f.at).collect();
        assert_eq!(ats, vec![100, 300, 500]);
    }

    #[test]
    fn churn_is_deterministic_and_paired() {
        let build = || FaultPlan::new(77).churn(&[1, 2, 3, 4, 5], 10, 1_000, 2_000_000);
        assert_eq!(build().faults(), build().faults());
        let faults = build().faults();
        assert_eq!(faults.len(), 20);
        let crashes = faults
            .iter()
            .filter(|f| matches!(f.spec, FaultSpec::Crash { .. }))
            .count();
        assert_eq!(crashes, 10);
        // Every crash has a later reboot of the same node.
        for f in &faults {
            if let FaultSpec::Crash { node, .. } = f.spec {
                assert!(faults.iter().any(|g| matches!(
                    g.spec, FaultSpec::Reboot { node: n } if n == node)
                    && g.at > f.at));
            }
        }
    }

    #[test]
    fn churn_differs_across_seeds() {
        let a = FaultPlan::new(1)
            .churn(&[1, 2, 3], 5, 0, 1_000_000)
            .faults();
        let b = FaultPlan::new(2)
            .churn(&[1, 2, 3], 5, 0, 1_000_000)
            .faults();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic]
    fn partition_frac_must_be_interior() {
        let _ = FaultPlan::new(0).partition_at(10, 0.0);
    }
}

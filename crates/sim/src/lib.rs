//! # wsn-sim
//!
//! A discrete-event wireless-sensor-network simulator, standing in for the
//! SensorSimII simulator the paper used (SensorSimII is unobtainable — the
//! project link is dead). The paper exercises its simulator for exactly
//! three things, all reproduced here:
//!
//! 1. **Topology generation** — "several thousands of nodes (2500 to 3600)
//!    in a random topology", with the number of nodes and communication
//!    range chosen to set the network *density* (average neighbors per
//!    node). See [`topology`].
//! 2. **Localized message exchange** — nodes broadcast to their one-hop
//!    neighborhood with randomized timers (exponential election delays).
//!    See [`event`], [`net`], [`node`].
//! 3. **Cost accounting** — messages and bytes transmitted per node
//!    (Figures 8 and 9), and an energy model weighting transmissions as the
//!    dominant cost. See [`net::Counters`], [`energy`].
//!
//! The simulator is deterministic: all randomness flows from a single `u64`
//! seed, and [`parallel::run_trials`] fans independent trials out across
//! threads while keeping per-trial determinism (each trial derives its own
//! seed, so results are identical regardless of thread count).
//!
//! For million-node deployments, [`shard`] provides a second engine that
//! decomposes the deployment area into regions running on separate
//! threads, exchanging boundary events under a conservative lookahead
//! window — with outputs byte-identical for *any* region count.
//!
//! ## Example
//!
//! ```
//! use wsn_sim::prelude::*;
//!
//! // A trivial app: every node broadcasts one byte at start-up and counts
//! // what it hears.
//! struct Pinger { heard: usize }
//! impl App for Pinger {
//!     fn on_start(&mut self, ctx: &mut Ctx) {
//!         ctx.broadcast(vec![0x55]);
//!     }
//!     fn on_message(&mut self, _ctx: &mut Ctx, _from: NodeId, _payload: &[u8]) {
//!         self.heard += 1;
//!     }
//! }
//!
//! let topo = Topology::random(&TopologyConfig::with_density(100, 8.0), 42);
//! let mut sim = Simulator::new(topo, |_id| Pinger { heard: 0 });
//! sim.run();
//! let total_heard: usize = sim.apps().iter().map(|a| a.heard).sum();
//! assert!(total_heard > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod event;
pub mod geom;
pub mod hash;
pub mod link;
pub mod net;
pub mod node;
pub mod parallel;
pub mod radio;
pub mod rng;
pub mod shard;
pub mod topology;

/// One-stop import for simulator users.
pub mod prelude {
    pub use crate::event::SimTime;
    pub use crate::link::{IidLoss, LinkProcess};
    pub use crate::net::{Counters, Simulator};
    pub use crate::node::{App, Ctx, NodeId, RxShare, TimerKey};
    pub use crate::radio::RadioConfig;
    pub use crate::shard::{ShardedSimulator, Shards};
    pub use crate::topology::{Topology, TopologyConfig};
}

pub use event::SimTime;
pub use net::Simulator;
pub use node::{App, Ctx, NodeId};
pub use shard::{ShardedSimulator, Shards};
pub use topology::{Topology, TopologyConfig};

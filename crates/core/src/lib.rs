//! # wsn-core
//!
//! The localized, distributed key-management protocol of Dimitriou &
//! Krontiris (IPPS 2005), implemented end-to-end on the [`wsn_sim`]
//! discrete-event simulator with the [`wsn_crypto`] toolkit.
//!
//! ## Protocol lifecycle
//!
//! 1. **Initialization** ([`keys`]) — pre-deployment provisioning: node key
//!    `Ki`, potential cluster key `Kci = F(KMC, i)`, master key `Km`, and
//!    the revocation-chain commitment `K0`.
//! 2. **Cluster key setup** ([`node`], [`setup`]) — exponential-timer
//!    cluster-head election (one HELLO broadcast per head, zero
//!    transmissions per member), then one local LINK broadcast per node so
//!    neighbors of a cluster learn its key. `Km` is erased afterwards.
//! 3. **Secure message forwarding** ([`forward`], [`node`]) — optional
//!    end-to-end Step 1 (`c1 = E_Kencr(D) | MAC`), mandatory hop-by-hop
//!    Step 2 (cluster-key wrap with freshness timestamp and the sender's
//!    CID so border nodes pick the right key from their set `S`). Routing
//!    is gradient descent toward the base station over a beacon-established
//!    hop field ([`routing`]), with duplicate suppression via the
//!    data-fusion peek ([`fusion`]).
//! 4. **Key refresh** ([`refresh`]) — hash refresh `Kc <- F(Kc)` or
//!    re-clustering under current keys.
//! 5. **Eviction** ([`evict`]) — base-station revocation commands
//!    authenticated with the one-way key chain, flooded hop-by-hop.
//! 6. **Node addition** ([`join`]) — new nodes carrying `KMC` associate to
//!    existing clusters and derive their neighbors' cluster keys locally.
//!
//! ## Quick example
//!
//! ```
//! use wsn_core::prelude::*;
//!
//! // Deploy 300 nodes at density 10 and run the full key-setup phase.
//! let outcome = run_setup(&SetupParams {
//!     n: 300,
//!     density: 10.0,
//!     seed: 7,
//!     cfg: ProtocolConfig::default(),
//! });
//! let report = &outcome.report;
//! // Every sensor ends up in exactly one cluster with its key in hand.
//! assert_eq!(report.cluster_sizes.iter().sum::<usize>(), 300 - 1); // minus BS
//! assert!(report.mean_keys_per_node >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base_station;
pub mod chaos;
pub mod config;
pub mod error;
pub mod evict;
pub mod forward;
pub mod fusion;
mod hash;
pub mod join;
pub mod keys;
pub mod msg;
pub mod node;
pub mod persist;
pub mod recovery;
pub mod refresh;
pub mod resource;
pub mod routing;
pub mod setup;
pub mod sink;
pub mod stats;
pub mod transport;

/// Common imports for protocol users: everything an experiment needs —
/// the [`setup::Scenario`] builder, the chaos plan vocabulary, and the
/// trace sinks — behind a single `use wsn_core::prelude::*;`.
pub mod prelude {
    pub use crate::base_station::BaseStation;
    pub use crate::chaos::{run_plan, ChaosReport};
    pub use crate::config::{
        ProtocolConfig, RecoveryConfig, RefreshMode, ResourceConfig, SinkConfig,
    };
    pub use crate::error::ProtocolError;
    pub use crate::keys::{NodeKeyMaterial, Provisioner};
    pub use crate::node::{ProtocolApp, ProtocolNode, Role};
    pub use crate::setup::{
        run_setup, Backend, NetworkHandle, Scenario, SetupOutcome, SetupParams,
    };
    pub use crate::sink::SinkNodeState;
    pub use crate::stats::SetupReport;
    pub use wsn_chaos::{BatteryBudget, FaultPlan, FaultSpec, GeParams, GilbertElliott};
    pub use wsn_sim::radio::RadioConfig;
    pub use wsn_sim::shard::Shards;
    pub use wsn_trace::{JsonlSink, MemorySink, NullSink, Timeline, TraceEvent, TraceSink};
}

pub use config::ProtocolConfig;
pub use error::ProtocolError;

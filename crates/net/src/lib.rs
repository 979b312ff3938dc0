//! `wsn-net`: the real socket transport for the protocol state machines.
//!
//! The protocol crates (`wsn-core`) talk to the world only through the
//! [`wsn_core::transport::Transport`] seam. The discrete-event
//! simulator is one implementation; this crate provides the other,
//! built from `std::net` and threads alone (no async runtime):
//!
//! - [`udp`]: a sharded UDP reactor — reader threads performing
//!   pre-crypto admission control feed per-cluster worker shards over
//!   bounded channels — serving the base station over real sockets,
//!   with an inter-sink control plane ([`intersink`]). Each worker is a
//!   socket loop around a [`shard::DurableShard`], the caller-clocked
//!   base-station shard that journals to a write-ahead log ([`wal`])
//!   before it releases the replies that depend on it.
//! - [`fault`]: seeded datagram fault schedules (drop, duplicate,
//!   delay/reorder, corrupt). [`FaultySocket`] applies them to a UDP
//!   socket; [`FaultEngine`] is also a `wsn_sim::link::DeliveryHook`,
//!   so the same schedule runs on the simulator's one event core.
//!
//! Five binaries ship with the crate: `wsn-bs` (a base-station daemon
//! on UDP), `motegen` (a load generator multiplexing 100k+ simulated
//! motes over a bounded socket pool), `net-soak` (a self-contained CI
//! smoke: in-process base station plus generator on 127.0.0.1), and the
//! `crash-soak` / `sink-failover-soak` kill gauntlets. They share the
//! flag parser in [`cli`]; the gauntlets spawn `wsn-bs` and read its
//! error counters through [`daemon`].

pub mod cli;
pub mod daemon;
pub mod fault;
pub mod intersink;
pub mod load;
pub mod shard;
pub mod udp;
pub mod wal;

pub use fault::{FaultConfig, FaultCounters, FaultEngine, FaultySocket};
pub use intersink::{ControlPlane, ControlPlaneConfig, ControlStats, ControlTiming};
pub use udp::{NetStats, UdpServer, UdpServerConfig};

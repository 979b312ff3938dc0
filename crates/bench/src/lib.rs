//! # wsn-bench
//!
//! The reproduction harness: one function per figure in the paper's
//! evaluation (Section V) plus the security comparison of Section VI.
//! The `figures` binary drives these and prints the same series the paper
//! plots. The one bench (`benches/crypto.rs`) is the cipher ablation
//! (RC5 vs Speck vs XTEA vs AES); every other performance number comes
//! from `perfbench` (see `BENCHMARK.json`).
//!
//! Every experiment is an average over independent seeded trials fanned
//! out with [`wsn_sim::parallel::run_trials`]; results are deterministic
//! for a given master seed regardless of thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod energy;
pub mod figures;
pub mod millionnode;
pub mod multisink;
pub mod overload;
pub mod resilience;
pub mod security;
pub mod sinkfailover;

/// The density sweep used throughout the paper's Section V
/// (average neighbors per node).
pub const DENSITIES: [f64; 6] = [8.0, 10.0, 12.5, 15.0, 17.5, 20.0];

/// Default trials per data point.
pub const DEFAULT_TRIALS: usize = 10;

/// Master seed for the published numbers.
pub const MASTER_SEED: u64 = 2005;

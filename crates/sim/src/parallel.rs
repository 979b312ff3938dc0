//! Parallel trial execution.
//!
//! Every figure in the paper is an average over independent random
//! topologies. Trials share nothing, so this is embarrassingly parallel:
//! [`run_trials`] fans them out over scoped threads while keeping results
//! **identical to a sequential run** — each trial derives its own seed
//! from `(master_seed, trial_index)`, and results are returned in trial
//! order regardless of which thread ran what.

use crate::rng::derive_seed;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Worker-thread selector for [`run_trials`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Jobs {
    /// `WSN_JOBS` when that environment variable is set to a positive
    /// integer, otherwise the machine's available parallelism. This is
    /// the **only** place in the workspace that reads `WSN_JOBS`; the
    /// variable exists so CI (and anyone chasing a determinism bug) can
    /// pin the fan-out and prove results identical by diffing two runs.
    Auto,
    /// An explicit worker count (1 = sequential, no threads spawned).
    Fixed(usize),
}

impl Jobs {
    /// The worker count this selector resolves to for `trials` trials
    /// (never more workers than trials, never fewer than one).
    pub fn resolve(self, trials: usize) -> usize {
        let threads = match self {
            Jobs::Fixed(threads) => {
                assert!(threads >= 1, "need at least one worker");
                threads
            }
            Jobs::Auto => std::env::var("WSN_JOBS")
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|&n: &usize| n >= 1)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                }),
        };
        threads.min(trials.max(1))
    }
}

/// Runs `trials` independent experiments in parallel and returns their
/// results in trial order.
///
/// `f(trial_index, trial_seed)` must be a pure function of its arguments
/// (all simulator state seeded from `trial_seed`), which makes the output
/// independent of the worker count — asserted by the test suite. `jobs`
/// selects the fan-out; see [`Jobs`].
pub fn run_trials<T, F>(master_seed: u64, trials: usize, jobs: Jobs, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    let threads = jobs.resolve(trials);
    if trials == 0 {
        return Vec::new();
    }

    if threads == 1 {
        return (0..trials)
            .map(|i| f(i, derive_seed(master_seed, i as u64)))
            .collect();
    }

    // Work-stealing over a shared atomic index. Workers send `(index,
    // result)` pairs over a channel and the parent re-assembles them in
    // trial order, so no worker ever touches the results vector.
    let next = &AtomicUsize::new(0);
    let f = &f;
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let mut results: Vec<Option<T>> = (0..trials).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= trials {
                    break;
                }
                let out = f(i, derive_seed(master_seed, i as u64));
                if tx.send((i, out)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, out) in rx {
            results[i] = Some(out);
        }
    });

    results
        .into_iter()
        .map(|r| r.expect("trial slot unfilled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_trial_order() {
        let out = run_trials(1, 64, Jobs::Fixed(4), |i, _| i * 2);
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let compute = |threads| {
            run_trials(99, 40, Jobs::Fixed(threads), |i, seed| {
                // Something that actually uses the seed.
                seed.wrapping_mul(i as u64 + 1)
            })
        };
        let seq = compute(1);
        assert_eq!(seq, compute(2));
        assert_eq!(seq, compute(8));
    }

    #[test]
    fn zero_trials() {
        let out: Vec<u64> = run_trials(0, 0, Jobs::Fixed(3), |_, s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn seeds_are_distinct_per_trial() {
        let seeds = run_trials(7, 100, Jobs::Fixed(4), |_, seed| seed);
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
    }

    #[test]
    fn auto_thread_count_works() {
        let out = run_trials(3, 10, Jobs::Auto, |i, _| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_resolution_honors_wsn_jobs_and_trial_cap() {
        assert_eq!(Jobs::Fixed(8).resolve(3), 3);
        assert_eq!(Jobs::Fixed(2).resolve(100), 2);
        assert_eq!(Jobs::Fixed(5).resolve(0), 1);
        // Restores the variable afterwards; the only other readers pick
        // a thread count, which never changes results.
        let prior = std::env::var("WSN_JOBS").ok();
        std::env::set_var("WSN_JOBS", "3");
        assert_eq!(Jobs::Auto.resolve(100), 3);
        std::env::set_var("WSN_JOBS", "0");
        assert!(Jobs::Auto.resolve(100) >= 1);
        std::env::set_var("WSN_JOBS", "many");
        assert!(Jobs::Auto.resolve(100) >= 1);
        match prior {
            Some(v) => std::env::set_var("WSN_JOBS", v),
            None => std::env::remove_var("WSN_JOBS"),
        }
    }

    #[test]
    #[should_panic]
    fn zero_workers_rejected() {
        let _ = Jobs::Fixed(0).resolve(4);
    }
}

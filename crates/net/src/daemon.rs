//! `wsn-bs` as a child process: the error segment of its stats line and
//! the spawn helper the kill gauntlets (`crash-soak`,
//! `sink-failover-soak`) share.
//!
//! The daemon prints
//! `errors: auth N stale N malformed N unknown N ctr N storage N` inside
//! every stats line through [`DaemonErrors`]'s `Display`, and the
//! soaks read it back with [`DaemonErrors::parse`], so the format lives
//! in this module only.

use crate::udp::NetStats;
use std::fmt;
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A daemon's error counters, as its stats line reports them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonErrors {
    /// Frames that failed cluster-layer authentication.
    pub auth: u64,
    /// Frames outside the freshness window.
    pub stale: u64,
    /// Unparseable frames.
    pub malformed: u64,
    /// Frames from clusters no shard holds a key for.
    pub unknown: u64,
    /// End-to-end counter rejections.
    pub ctr: u64,
    /// Shards stopped by a storage error (they ACK nothing more).
    pub storage: u64,
}

impl DaemonErrors {
    /// The counters of a running server.
    pub fn from_stats(s: &NetStats) -> Self {
        DaemonErrors {
            auth: s.bad_auth.load(Ordering::Relaxed),
            stale: s.stale.load(Ordering::Relaxed),
            malformed: s.malformed.load(Ordering::Relaxed),
            unknown: s.unknown_cluster.load(Ordering::Relaxed),
            ctr: s.counter_rejects.load(Ordering::Relaxed),
            storage: s.storage_failures.load(Ordering::Relaxed),
        }
    }

    /// Reads the `errors:` segment of a stats line: the text after
    /// `errors:` up to the next `|`. `None` if the line has no such
    /// segment or the segment is not exactly the six named counters.
    pub fn parse(line: &str) -> Option<Self> {
        let segment = line.split("errors:").nth(1)?.split('|').next()?;
        let words: Vec<&str> = segment.split_whitespace().collect();
        let [a, auth, s, stale, m, malformed, u, unknown, c, ctr, st, storage] = words[..] else {
            return None;
        };
        let names = ["auth", "stale", "malformed", "unknown", "ctr", "storage"];
        if [a, s, m, u, c, st] != names {
            return None;
        }
        Some(DaemonErrors {
            auth: auth.parse().ok()?,
            stale: stale.parse().ok()?,
            malformed: malformed.parse().ok()?,
            unknown: unknown.parse().ok()?,
            ctr: ctr.parse().ok()?,
            storage: storage.parse().ok()?,
        })
    }

    fn add(&mut self, o: &DaemonErrors) {
        self.auth += o.auth;
        self.stale += o.stale;
        self.malformed += o.malformed;
        self.unknown += o.unknown;
        self.ctr += o.ctr;
        self.storage += o.storage;
    }
}

impl fmt::Display for DaemonErrors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "errors: auth {} stale {} malformed {} unknown {} ctr {} storage {}",
            self.auth, self.stale, self.malformed, self.unknown, self.ctr, self.storage
        )
    }
}

/// A running `wsn-bs` child. A thread scans its stdout for stats lines;
/// the counters are cumulative per instance, so when the instance exits
/// its last line's counters are added to the shared total.
pub struct Daemon {
    child: Child,
    reader: JoinHandle<()>,
}

impl Daemon {
    /// Starts `bin` with `args`, stdout piped to the scanner and stderr
    /// inherited.
    pub fn spawn(bin: &Path, args: &[&str], total: &Arc<Mutex<DaemonErrors>>) -> io::Result<Self> {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let total = Arc::clone(total);
        let reader = std::thread::spawn(move || {
            let mut last = DaemonErrors::default();
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(e) = DaemonErrors::parse(&line) {
                    last = e;
                }
            }
            total
                .lock()
                .expect("another stats reader panicked")
                .add(&last);
        });
        Ok(Daemon { child, reader })
    }

    /// SIGKILLs the instance and waits until its counters are folded in.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.reader.join().expect("stats reader panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_segment_round_trips() {
        let e = DaemonErrors {
            auth: 7,
            stale: 1,
            malformed: 2,
            unknown: 3,
            ctr: 9,
            storage: 1,
        };
        // Embedded as `wsn-bs` prints it: more segments on either side.
        let line = format!("rx 10 (+1/s) | accepted 9 (+1/s) | {e} | unroutable 4 | wal 5 snap 0");
        assert_eq!(DaemonErrors::parse(&line), Some(e));
        assert_eq!(DaemonErrors::parse(&e.to_string()), Some(e));
    }

    #[test]
    fn parse_rejects_malformed_segments() {
        let ok = "errors: auth 0 stale 0 malformed 0 unknown 0 ctr 0 storage 0";
        assert!(DaemonErrors::parse(ok).is_some());
        for bad in [
            "errors: auth x stale 0 malformed 0 unknown 0 ctr 0 storage 0",
            "errors: auth 0 stale 0 malformed 0 unknown 0 ctr -1 storage 0",
            "errors: auth 0 stale 0 malformed 0 unknown 0 ctr 0",
            "errors: auth 0 stale 0 bogus 0 unknown 0 ctr 0 storage 0",
            "rx 10 | accepted 9",
        ] {
            assert_eq!(DaemonErrors::parse(bad), None, "{bad}");
        }
    }
}

//! Measurement plumbing shared by every workload: process CPU time, peak
//! resident memory, order statistics, and the in-memory span recorder
//! the traced runs use.

use std::fmt::Write as _;
use std::time::Instant;

/// Process CPU time (all threads, user + system), seconds.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel has accepted since 2.6.12.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far (`VmHWM`), KiB.
pub fn peak_rss_kib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status")
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`.
fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One timed call: name, start and end (ns since the recorder's origin),
/// and the index of the enclosing span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Spans around the public calls a workload makes, kept in memory and
/// written out once the run ends. A disabled recorder costs one branch
/// per call site.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f` inside a span called `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    /// Opens a span that later calls nest under; pair with [`Self::exit`].
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes a span opened by [`Self::enter`].
    pub fn exit(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans closed out of order");
        }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of the spans named `name` (their durations minus the
    /// time their direct children cover), seconds, and how many there are.
    pub fn self_time(&self, name: &str) -> (f64, usize) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut total_ns = 0u64;
        let mut count = 0;
        for (s, child) in self.spans.iter().zip(&child_ns) {
            if s.name == name {
                total_ns += (s.end_ns - s.start_ns).saturating_sub(*child);
                count += 1;
            }
        }
        (total_ns as f64 * 1e-9, count)
    }

    /// The spans as JSON lines: `{"id", "name", "start_ns", "end_ns", "parent"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(true);
        spans.time("outer", || {
            spans_sleep(2);
        });
        let outer = spans.enter("parent");
        spans.time("child", || spans_sleep(5));
        spans.exit(outer);
        let (child, n) = spans.self_time("child");
        let (parent, _) = spans.self_time("parent");
        assert_eq!(n, 1);
        assert!(child >= 0.004);
        assert!(parent < child);
        assert_eq!(spans.len(), 3);
        assert!(spans
            .to_jsonl()
            .lines()
            .nth(2)
            .unwrap()
            .contains("\"parent\":1"));
    }

    fn spans_sleep(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        let x = spans.time("a", || 7);
        assert_eq!(x, 7);
        assert_eq!(spans.len(), 0);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > a);
        assert!(peak_rss_kib() > 0.0);
    }
}

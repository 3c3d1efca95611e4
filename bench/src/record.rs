//! What one closed-loop client records during the timed phase, and how
//! it is reduced to metrics afterwards.
//!
//! Only the call under test sits between the two `Instant`s; the
//! allocation counters are sampled on the same boundary, so neither
//! verification nor bookkeeping is ever charged to the system.
//!
//! Two scopes are kept apart:
//!
//! - the **timed phase** — every operation until `--seconds` is up, cut
//!   into segments of a fixed operation count; wall metrics come from
//!   per-segment sums, so their memory does not grow with the host's
//!   speed;
//! - the **counted window** — the first `window_ops` operations; counts,
//!   simulated-clock values and the per-operation samples behind the
//!   wall tails come from it, so they cover the same operations on
//!   every host and repeat exactly for a seed on a single client.

use crate::alloc;
use crate::stats::{self, Better, SegmentSummary};
use agar::ReadMetrics;
use std::time::{Duration, Instant};

/// One timed call: wall time, allocations and bytes requested inside it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    pub ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Runs `call` between two clock and allocation-counter samples.
#[inline]
pub fn timed<R>(call: impl FnOnce() -> R) -> (R, Cost) {
    let (a0, b0) = alloc::snapshot();
    let start = Instant::now();
    let result = call();
    let ns = start.elapsed().as_nanos() as u64;
    let (a1, b1) = alloc::snapshot();
    (
        result,
        Cost {
            ns,
            allocs: a1 - a0,
            alloc_bytes: b1 - b0,
        },
    )
}

/// Sums and samples over the counted window.
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub reads: u64,
    pub writes: u64,
    pub read_allocs: u64,
    pub read_alloc_bytes: u64,
    /// Simulated latency of every read, microseconds.
    pub sim_us: Vec<u64>,
    /// `backend_fetches + fill_fetches` over the reads.
    pub backend_chunks: u64,
    pub fill_chunks: u64,
    /// Reads served at least one chunk by the local cache (the paper's
    /// Figure 7 numerator: total + partial object hits).
    pub object_hits: u64,
    /// Wall time of every read / write, nanoseconds.
    pub read_ns: Vec<f64>,
    pub write_ns: Vec<f64>,
}

impl Window {
    /// Adds one successful read inside the window.
    pub fn read(&mut self, cost: Cost, metrics: &ReadMetrics) {
        self.reads += 1;
        self.read_allocs += cost.allocs;
        self.read_alloc_bytes += cost.alloc_bytes;
        self.sim_us.push(metrics.latency.as_micros() as u64);
        self.backend_chunks += (metrics.backend_fetches + metrics.fill_fetches) as u64;
        self.fill_chunks += metrics.fill_fetches as u64;
        self.object_hits += u64::from(metrics.cache_hits > 0);
    }
}

/// One client's record of the timed phase.
pub struct Recorder {
    segment_ops: usize,
    window_ops: usize,
    deadline: Instant,
    /// Operations attempted so far (reads + writes, failed ones too).
    pub ops: usize,
    pub reads: u64,
    pub writes: u64,
    pub failed: u64,
    pub reconfigure_ns: Vec<u64>,
    pub reconfigure_allocs: Vec<u64>,
    /// Mean read time of each completed segment, microseconds.
    segment_read_mean_us: Vec<f64>,
    segment_busy_ns: Vec<u64>,
    // The segment in progress.
    read_ns: u64,
    read_count: u64,
    busy_ns: u64,
    pub window: Window,
    pub verify_ns: u64,
}

impl Recorder {
    pub fn new(segment_ops: usize, window_ops: usize, measure_for: Duration) -> Self {
        Recorder {
            segment_ops: segment_ops.max(1),
            window_ops,
            deadline: Instant::now() + measure_for,
            ops: 0,
            reads: 0,
            writes: 0,
            failed: 0,
            reconfigure_ns: Vec::new(),
            reconfigure_allocs: Vec::new(),
            segment_read_mean_us: Vec::new(),
            segment_busy_ns: Vec::new(),
            read_ns: 0,
            read_count: 0,
            busy_ns: 0,
            window: Window {
                // Sized up front: no harness reallocation mid-window.
                sim_us: Vec::with_capacity(window_ops),
                read_ns: Vec::with_capacity(window_ops),
                ..Window::default()
            },
            verify_ns: 0,
        }
    }

    /// Whether the operation about to be issued is inside the counted
    /// window.
    pub fn in_window(&self) -> bool {
        self.ops < self.window_ops
    }

    /// Whether the operation just completed closed the counted window
    /// (the moment to snapshot public counters).
    pub fn window_just_closed(&self) -> bool {
        self.ops == self.window_ops
    }

    pub fn read_done(&mut self, cost: Cost) {
        if self.in_window() {
            self.window.read_ns.push(cost.ns as f64);
        }
        self.reads += 1;
        self.read_ns += cost.ns;
        self.read_count += 1;
        self.op_done(cost.ns);
    }

    pub fn write_done(&mut self, cost: Cost) {
        if self.in_window() {
            self.window.write_ns.push(cost.ns as f64);
        }
        self.writes += 1;
        self.op_done(cost.ns);
    }

    /// A call that returned `Err`: attempted, failed, still busy time.
    pub fn failed_op(&mut self, cost: Cost) {
        self.failed += 1;
        self.op_done(cost.ns);
    }

    /// A call the client will re-issue (a read that lost to concurrent
    /// writes): busy time, not an operation.
    pub fn lost_attempt(&mut self, cost: Cost) {
        self.busy_ns += cost.ns;
    }

    /// A `maybe_reconfigure` that returned `true`: busy time of the
    /// current segment, but not an operation.
    pub fn reconfigured(&mut self, cost: Cost) {
        self.reconfigure_ns.push(cost.ns);
        self.reconfigure_allocs.push(cost.allocs);
        self.busy_ns += cost.ns;
    }

    fn op_done(&mut self, ns: u64) {
        self.busy_ns += ns;
        self.ops += 1;
        if self.ops.is_multiple_of(self.segment_ops) {
            if self.read_count > 0 {
                let mean_ns = self.read_ns as f64 / self.read_count as f64;
                self.segment_read_mean_us.push(mean_ns / 1e3);
            }
            (self.read_ns, self.read_count) = (0, 0);
            self.segment_busy_ns.push(std::mem::take(&mut self.busy_ns));
        }
    }

    /// Whether the client should stop issuing operations: checked after
    /// every operation, true only on a segment boundary once both the
    /// counted window and the measuring time are complete.
    pub fn should_stop(&self) -> bool {
        self.ops.is_multiple_of(self.segment_ops)
            && self.ops >= self.window_ops
            && Instant::now() >= self.deadline
    }

    pub fn segments(&self) -> usize {
        self.segment_busy_ns.len()
    }

    /// Mean read time of each completed segment, microseconds.
    pub fn segment_read_means_us(&self) -> &[f64] {
        &self.segment_read_mean_us
    }

    /// Operations per busy second of each completed segment.
    pub fn segment_ops_per_s(&self) -> Vec<f64> {
        self.segment_busy_ns
            .iter()
            .filter(|&&ns| ns > 0)
            .map(|&ns| self.segment_ops as f64 / (ns as f64 / 1e9))
            .collect()
    }
}

/// Quiet-quarter read time over every client's segments.
pub fn read_wall_us(clients: &[Recorder]) -> SegmentSummary {
    let means: Vec<f64> = clients
        .iter()
        .flat_map(|c| c.segment_read_means_us().iter().copied())
        .collect();
    stats::quiet_quarter(&means, Better::Lower)
}

/// Quiet-quarter throughput, summed over clients (each client is its
/// own closed loop, so its busy time is its own).
pub fn ops_per_s(clients: &[Recorder]) -> SegmentSummary {
    let mut total = SegmentSummary::default();
    for client in clients {
        let s = stats::quiet_quarter(&client.segment_ops_per_s(), Better::Higher);
        total.quiet += s.quiet;
        total.median += s.median;
        total.iqr += s.iqr;
        total.segments += s.segments;
    }
    total
}

/// What one benchmark run reports.
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Calls that returned `Err`, wrong-byte reads and stale reads.
    pub failed: u64,
    /// No failed operation and every end-of-run invariant held.
    pub correct: bool,
    /// Every end-to-end metric (untraced run) or every per-layer metric
    /// (traced run), by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable context: medians, IQRs, sample counts.
    pub notes: Vec<String>,
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(ns: u64) -> Cost {
        Cost {
            ns,
            ..Cost::default()
        }
    }

    #[test]
    fn segments_close_on_op_count_and_carry_reconfigure_time() {
        let mut rec = Recorder::new(4, 6, Duration::ZERO);
        for ns in [1_000, 2_000, 3_000] {
            rec.read_done(cost(ns));
        }
        rec.reconfigured(cost(94_000)); // busy, not an op
        rec.lost_attempt(cost(1_000)); // busy, not an op either
        assert!(!rec.should_stop(), "mid-segment");
        rec.write_done(cost(4_000));
        assert_eq!(rec.segments(), 1);
        assert!(!rec.should_stop(), "window (6 ops) not complete");
        for ns in [5_000, 5_000] {
            rec.read_done(cost(ns));
        }
        assert!(rec.window_just_closed() && !rec.in_window());
        assert!(!rec.should_stop(), "window done but mid-segment");
        for ns in [7_000, 7_000] {
            rec.read_done(cost(ns));
        }
        assert!(rec.should_stop(), "boundary, window done, deadline passed");
        assert_eq!(rec.segment_read_means_us(), [2.0, 6.0]);
        let ops = rec.segment_ops_per_s();
        assert!(
            (ops[0] - 4.0 / 105e-6).abs() < 1e-6,
            "reconfigure + lost attempt are busy"
        );
        assert!((ops[1] - 4.0 / 24e-6).abs() < 1e-6);
        assert_eq!((rec.reads, rec.writes, rec.ops), (7, 1, 8));
        // Per-operation samples stop at the window's edge.
        assert_eq!(
            rec.window.read_ns,
            [1_000.0, 2_000.0, 3_000.0, 5_000.0, 5_000.0]
        );
        assert_eq!(rec.window.write_ns, [4_000.0]);
    }

    #[test]
    fn timed_charges_only_the_call() {
        let _harness = std::hint::black_box(vec![0u8; 4096]);
        let (v, c) = timed(|| std::hint::black_box(vec![0u8; 100]));
        assert_eq!(v.len(), 100);
        assert_eq!((c.allocs, c.alloc_bytes), (1, 100));
        assert!(peak_rss_mb() > 0.0);
    }
}

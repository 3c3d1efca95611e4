//! From what the clients recorded to named metrics: the reductions all
//! four workloads share. A workload adds what only it can measure and
//! lets [`with_zeros`] fill in the per-layer metrics that do not apply
//! to it.

use crate::metrics::PER_LAYER;
use crate::record::{self, Recorder, Window};
use crate::stats::{self, ratio, SegmentSummary};
use agar_cache::CacheStats;
use agar_obs::{ReadTrace, StageSummaries};

pub type Metrics = Vec<(&'static str, f64)>;

/// The timed phase of one run, over all of its clients.
pub struct Phase<'a> {
    recorders: &'a [Recorder],
    pub read_wall: SegmentSummary,
    pub ops: SegmentSummary,
}

impl<'a> Phase<'a> {
    pub fn of(recorders: &'a [Recorder]) -> Self {
        Phase {
            recorders,
            read_wall: record::read_wall_us(recorders),
            ops: record::ops_per_s(recorders),
        }
    }

    fn sum(&self, field: fn(&Recorder) -> u64) -> f64 {
        self.recorders.iter().map(field).sum::<u64>() as f64
    }

    /// A sum over every client's counted window.
    pub fn window(&self, field: fn(&Window) -> u64) -> f64 {
        self.recorders.iter().map(|r| field(&r.window)).sum::<u64>() as f64
    }

    pub fn attempted(&self) -> u64 {
        self.sum(|r| r.ops as u64) as u64
    }

    pub fn failed(&self) -> u64 {
        self.sum(|r| r.failed) as u64
    }

    pub fn reads(&self) -> f64 {
        self.sum(|r| r.reads)
    }

    pub fn writes(&self) -> f64 {
        self.sum(|r| r.writes)
    }

    /// The spread and sample counts beside the two wall metrics.
    pub fn notes(&self) -> Vec<String> {
        let line = |name: &str, s: &SegmentSummary, samples: f64, what: &str| {
            format!(
                "{name}: quiet-quarter mean {:.3}, median {:.3}, IQR {:.3} over {} segments, \
                 {samples} {what}",
                s.quiet, s.median, s.iqr, s.segments
            )
        };
        vec![
            line("read_wall_us", &self.read_wall, self.reads(), "reads"),
            line("ops_per_s", &self.ops, self.attempted() as f64, "ops"),
        ]
    }

    fn sim_ms(&self) -> Vec<f64> {
        self.recorders
            .iter()
            .flat_map(|r| r.window.sim_us.iter().map(|&us| us as f64 / 1e3))
            .collect()
    }

    /// Every end-to-end metric, in the manifest's order.
    pub fn end_to_end(&self, setup_s: f64) -> Metrics {
        let reads = self.window(|w| w.reads);
        let sim_ms = self.sim_ms();
        // At smoke scale the window is too short for a P99 with ten
        // samples beyond it; fall back to the highest percentile the
        // sample supports.
        let sim_tail = [0.99, 0.95, 0.9, 0.5]
            .iter()
            .find_map(|&q| stats::tail_percentile(&sim_ms, q))
            .unwrap_or_else(|| stats::median(&sim_ms));
        vec![
            ("setup_s", setup_s),
            ("read_wall_us", self.read_wall.quiet),
            ("ops_per_s", self.ops.quiet),
            ("read_allocs", ratio(self.window(|w| w.read_allocs), reads)),
            (
                "read_alloc_kb",
                ratio(self.window(|w| w.read_alloc_bytes), reads) / 1e3,
            ),
            ("read_sim_mean_ms", stats::mean(&sim_ms)),
            ("read_sim_p99_ms", sim_tail),
            (
                "object_hit_ratio",
                ratio(self.window(|w| w.object_hits), reads),
            ),
            ("peak_rss_mb", record::peak_rss_mb()),
        ]
    }

    /// The per-layer metrics the recorders alone determine.
    pub fn per_layer(&self) -> Metrics {
        let reads = self.window(|w| w.reads);
        let pooled = |field: fn(&Window) -> &Vec<f64>| -> Vec<f64> {
            self.recorders
                .iter()
                .flat_map(|r| field(&r.window).iter().copied())
                .collect()
        };
        let read_ns = pooled(|w| &w.read_ns);
        let tail_us = |q| stats::tail_percentile(&read_ns, q).unwrap_or(0.0) / 1e3;
        vec![
            ("core.node.read_wall_p99_us", tail_us(0.99)),
            ("core.node.read_wall_p999_us", tail_us(0.999)),
            (
                "core.node.fill_chunks_per_read",
                ratio(self.window(|w| w.fill_chunks), reads),
            ),
            (
                "store.backend_chunks_per_read",
                ratio(self.window(|w| w.backend_chunks), reads),
            ),
            (
                "cluster.router.write_wall_us",
                stats::median(&pooled(|w| &w.write_ns)) / 1e3,
            ),
            ("bench.segment_iqr_frac", self.read_wall.iqr_frac()),
            (
                "bench.verify_us",
                ratio(self.sum(|r| r.verify_ns), self.reads()) / 1e3,
            ),
            (
                "bench.failed_frac",
                ratio(self.failed() as f64, self.attempted() as f64),
            ),
        ]
    }

    /// Tracing overhead: this (traced) phase's leading segments against
    /// an untraced baseline's, client by client — same seed, so the
    /// same operations. Returns the metric and its note.
    pub fn trace_overhead(&self, baseline: &[Vec<f64>]) -> (Metrics, String) {
        let (mut traced, mut plain) = (Vec::new(), Vec::new());
        for (recorder, untraced) in self.recorders.iter().zip(baseline) {
            let segments = recorder.segment_read_means_us();
            let shared = segments.len().min(untraced.len());
            traced.extend(&segments[..shared]);
            plain.extend(&untraced[..shared]);
        }
        let (traced_us, plain_us) = (stats::median(&traced), stats::median(&plain));
        (
            vec![(
                "bench.trace_overhead_frac",
                ratio(traced_us, plain_us) - 1.0,
            )],
            format!(
                "trace overhead over the first {} segments: traced {traced_us:.3} us vs \
                 untraced {plain_us:.3} us",
                plain.len()
            ),
        )
    }
}

/// The planner, cache and codec metrics that are deltas of the public
/// `CacheStats` counters, over `reads` reads in `kops` thousand
/// operations. (Without a disk tier the disk counters never move.)
pub fn counter_metrics(delta: &CacheStats, reads: f64, kops: f64) -> Metrics {
    let lookups = (delta.chunk_hits() + delta.chunk_misses()) as f64;
    let degraded = delta
        .object_reads()
        .saturating_sub(delta.systematic_fast_reads());
    vec![
        (
            "core.planner.hedges_per_read",
            ratio(delta.hedged_requests() as f64, reads),
        ),
        (
            "core.planner.hedge_win_frac",
            ratio(delta.hedge_wins() as f64, delta.hedged_requests() as f64),
        ),
        (
            "cache.ram_hit_ratio",
            ratio(delta.chunk_hits() as f64, lookups),
        ),
        (
            "cache.evictions_per_kop",
            ratio(delta.evictions() as f64, kops),
        ),
        (
            "cache.disk_hit_ratio",
            ratio(delta.disk_hits() as f64, lookups),
        ),
        (
            "cache.promotions_per_kop",
            ratio(delta.tier_promotions() as f64, kops),
        ),
        (
            "cache.demotions_per_kop",
            ratio(delta.tier_demotions() as f64, kops),
        ),
        (
            "cache.disk_evictions_per_kop",
            ratio(delta.disk_evictions() as f64, kops),
        ),
        (
            "ec.systematic_frac",
            ratio(delta.systematic_fast_reads() as f64, reads),
        ),
        (
            "ec.decode_plan_hit_frac",
            ratio(delta.decode_plan_hits() as f64, degraded as f64),
        ),
    ]
}

/// Mean simulated stage times from the nodes' own sim-clock traces.
pub fn stage_metrics(traces: &[ReadTrace]) -> Metrics {
    let stages = StageSummaries::from_traces(traces);
    vec![
        ("core.node.sim_lookup_ms", stages.lookup.mean_ms),
        ("core.node.sim_fetch_ms", stages.fetch.mean_ms),
        ("core.node.sim_bind_ms", stages.bind.mean_ms),
    ]
}

/// Adds every declared per-layer metric the workload did not report,
/// as 0: a layer that does nothing in a workload reads 0 there.
pub fn with_zeros(mut metrics: Metrics) -> Metrics {
    for declared in &PER_LAYER {
        if !metrics.iter().any(|(name, _)| *name == declared.name) {
            metrics.push((declared.name, 0.0));
        }
    }
    metrics
}

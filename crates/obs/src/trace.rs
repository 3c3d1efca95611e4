//! Per-request read-path tracing.
//!
//! A [`ReadTrace`] is the record of one object read, decomposed into
//! the read path's stages plus an outcome (retries, hedge wins/cancels,
//! version races, chunk sources). The read path names six stages —
//! lookup → plan → fetch → bind → decode → fill; a trace carries a span
//! for the five on the critical path (fill runs off it), in the order
//! dumps have always listed them: plan, lookup, fetch, bind, decode.
//! Stage timestamps are on the **simulated clock** — the
//! engine models latency instead of measuring it, so traces are
//! byte-identical per seed and a regression diff of two trace dumps is
//! meaningful.
//!
//! Traces land in a bounded per-node ring buffer ([`TraceBuffer`]) and
//! can be dumped as chrome://tracing JSON (load in `chrome://tracing`
//! or Perfetto) or folded into per-stage latency histograms
//! ([`StageHistograms`]) that feed the metrics registry. Sampling is a
//! deterministic counter knob (every Nth read), never a random draw —
//! randomness would perturb the engine's seeded RNG streams.

use crate::histogram::Histogram;
use crate::json::json_escape;
use crate::percentile::{LatencyHistogram, LatencySummary};
use crate::registry::{Labels, MetricsRegistry};
use agar_net::SimTime;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A critical-path stage of the read path (the sixth, fill, runs off
/// the critical path and has no span).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadStage {
    /// Knapsack-config lookup and (re)planning, including hedge
    /// policy selection.
    Plan,
    /// Local cache lookup (RAM, then disk tier).
    Lookup,
    /// Chunk fetches on the read's critical path (remote caches and
    /// the backend; for hedged reads, up to the k-th arrival).
    Fetch,
    /// Hedge binding overhang: time stragglers kept flying past the
    /// k-th arrival before cancellation.
    Bind,
    /// Erasure decode (systematic fast path, cached plan, or matrix
    /// inversion).
    Decode,
}

impl ReadStage {
    /// All traced stages, in dump order (declaration order: a stage
    /// `as usize` is its index here).
    pub const ALL: [ReadStage; 5] = [
        ReadStage::Plan,
        ReadStage::Lookup,
        ReadStage::Fetch,
        ReadStage::Bind,
        ReadStage::Decode,
    ];

    /// Stable lowercase name (used as the `stage` label and in trace
    /// dumps).
    pub fn name(self) -> &'static str {
        match self {
            ReadStage::Plan => "plan",
            ReadStage::Lookup => "lookup",
            ReadStage::Fetch => "fetch",
            ReadStage::Bind => "bind",
            ReadStage::Decode => "decode",
        }
    }
}

/// How the object was decoded.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DecodeKind {
    /// All k data chunks arrived: straight concatenation.
    #[default]
    Systematic,
    /// The decode matrix came from the plan cache.
    PlanCacheHit,
    /// A fresh matrix inversion.
    Inversion,
}

impl DecodeKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            DecodeKind::Systematic => "systematic",
            DecodeKind::PlanCacheHit => "plan_cache_hit",
            DecodeKind::Inversion => "inversion",
        }
    }
}

/// One timed span inside a [`ReadTrace`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StageSpan {
    /// Which stage this span covers.
    pub stage: ReadStage,
    /// Sim-clock start of the span.
    pub start: SimTime,
    /// Modelled duration of the span.
    pub duration: Duration,
}

/// The outcome side of a trace: what the read did, not just how long
/// it took.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReadOutcome {
    /// Plan attempts beyond the first (region-unavailable replans).
    pub replans: u32,
    /// Whole-read retries caused by losing a version race.
    pub version_races: u32,
    /// Chunks served from the local RAM tier.
    pub ram_hits: u32,
    /// Chunks served from the local disk tier.
    pub disk_hits: u32,
    /// Chunks served from remote caches.
    pub remote_hits: u32,
    /// Chunks fetched from the storage backend.
    pub backend_fetches: u32,
    /// Extra hedge requests issued beyond the needed k.
    pub hedges_issued: u32,
    /// Hedges that bound into the first-k result.
    pub hedge_wins: u32,
    /// Hedges cancelled after the k-th arrival.
    pub hedges_cancelled: u32,
    /// How the object was decoded.
    pub decode: DecodeKind,
    /// End-to-end modelled read latency.
    pub total: Duration,
}

/// One read, fully attributed: identity, sim-clock placement, stage
/// spans, and outcome.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReadTrace {
    /// The object id read.
    pub object: u64,
    /// The reading node's region index.
    pub region: u64,
    /// Sim-clock start of the read.
    pub start: SimTime,
    /// Stage spans, in pipeline order.
    pub spans: Vec<StageSpan>,
    /// The outcome record.
    pub outcome: ReadOutcome,
}

impl ReadTrace {
    /// The trace of `object` read from region index `region` at
    /// sim-time `start`, its `[lookup, fetch, bind]` stage durations
    /// laid onto the sim clock: plan and lookup start at the read's
    /// start, fetch (the worst bound arrival) runs from the start, bind
    /// (the straggler overhang) starts where fetch ends, and decode is
    /// an instantaneous marker at the read's end (`outcome.total`).
    pub fn new(
        object: u64,
        region: u64,
        start: SimTime,
        outcome: ReadOutcome,
        [lookup, fetch, bind]: [Duration; 3],
    ) -> Self {
        let span = |stage, start, duration| StageSpan {
            stage,
            start,
            duration,
        };
        let spans = vec![
            span(ReadStage::Plan, start, Duration::ZERO),
            span(ReadStage::Lookup, start, lookup),
            span(ReadStage::Fetch, start, fetch),
            span(ReadStage::Bind, start + fetch, bind),
            span(ReadStage::Decode, start + outcome.total, Duration::ZERO),
        ];
        ReadTrace {
            object,
            region,
            start,
            spans,
            outcome,
        }
    }
}

/// A bounded ring of completed traces. Oldest traces are dropped once
/// the capacity is reached; the drop count is kept so a dump can say
/// what it is missing.
#[derive(Debug)]
pub struct TraceBuffer {
    traces: Mutex<VecDeque<ReadTrace>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl TraceBuffer {
    /// A ring holding at most `capacity` traces.
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            traces: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records a completed trace, evicting the oldest at capacity.
    pub fn record(&self, trace: ReadTrace) {
        let mut traces = self.traces.lock().expect("trace buffer poisoned");
        if traces.len() == self.capacity {
            traces.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        traces.push_back(trace);
    }

    /// Copies out the retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<ReadTrace> {
        self.traces
            .lock()
            .expect("trace buffer poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.traces.lock().expect("trace buffer poisoned").len()
    }

    /// Whether no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Traces evicted by the ring since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Renders traces as a chrome://tracing / Perfetto JSON document:
/// complete (`"ph": "X"`) events, one per stage span, with the
/// outcome attached to the decode marker's `args`. Deterministic:
/// trace order and span order are preserved, timestamps are sim-clock
/// microseconds.
pub fn chrome_trace_json(traces: &[ReadTrace]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (tid, trace) in traces.iter().enumerate() {
        for span in &trace.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"read\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}",
                json_escape(span.stage.name()),
                span.start.as_micros(),
                span.duration.as_micros() as u64,
                trace.region,
                tid
            );
            if span.stage == ReadStage::Decode {
                let o = &trace.outcome;
                let _ = write!(
                    out,
                    ",\"args\":{{\"object\":{},\"decode\":\"{}\",\"replans\":{},\"version_races\":{},\"ram_hits\":{},\"disk_hits\":{},\"remote_hits\":{},\"backend_fetches\":{},\"hedges_issued\":{},\"hedge_wins\":{},\"hedges_cancelled\":{},\"total_us\":{}}}",
                    trace.object,
                    o.decode.name(),
                    o.replans,
                    o.version_races,
                    o.ram_hits,
                    o.disk_hits,
                    o.remote_hits,
                    o.backend_fetches,
                    o.hedges_issued,
                    o.hedge_wins,
                    o.hedges_cancelled,
                    o.total.as_micros() as u64
                );
            }
            out.push('}');
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Per-stage registry histograms: one lock-free [`Histogram`] per
/// pipeline stage, fed from completed traces.
#[derive(Clone, Debug, Default)]
pub struct StageHistograms {
    histograms: [Histogram; 5],
}

impl StageHistograms {
    /// Fresh empty per-stage histograms.
    pub fn new() -> Self {
        StageHistograms::default()
    }

    /// Folds one trace's spans into the stage histograms.
    pub fn observe(&self, trace: &ReadTrace) {
        for span in &trace.spans {
            self.histograms[span.stage as usize].record(span.duration);
        }
    }

    /// The histogram for one stage.
    pub fn stage(&self, stage: ReadStage) -> &Histogram {
        &self.histograms[stage as usize]
    }

    /// Registers the five histograms as
    /// `agar_read_stage_seconds{stage=...}` with the caller's base
    /// labels appended first.
    pub fn register_with(&self, registry: &MetricsRegistry, base: &Labels) {
        for (i, stage) in ReadStage::ALL.iter().enumerate() {
            let mut labels = base.clone();
            labels = labels.with("stage", stage.name());
            registry.register_histogram(
                "agar_read_stage_seconds",
                "Modelled latency of each read-pipeline stage.",
                labels,
                &self.histograms[i],
            );
        }
    }
}

/// Per-stage latency summaries for harness tables: exact percentiles
/// computed from a trace snapshot. `Copy` so experiment result structs
/// stay `Copy`.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct StageSummaries {
    /// Plan-stage summary (duration is replan-only, usually zero).
    pub plan: LatencySummary,
    /// Local lookup component.
    pub lookup: LatencySummary,
    /// Critical-path fetch component.
    pub fetch: LatencySummary,
    /// Hedge straggler overhang.
    pub bind: LatencySummary,
    /// Decode marker (instantaneous in the model).
    pub decode: LatencySummary,
}

impl StageSummaries {
    /// Summarises a trace snapshot with the exact shared percentile
    /// rule (one [`LatencyHistogram`] per stage).
    pub fn from_traces(traces: &[ReadTrace]) -> Self {
        let mut histograms: [LatencyHistogram; 5] = Default::default();
        for trace in traces {
            for span in &trace.spans {
                histograms[span.stage as usize].record(span.duration);
            }
        }
        let s = |i: usize| histograms[i].summary();
        StageSummaries {
            plan: s(0),
            lookup: s(1),
            fetch: s(2),
            bind: s(3),
            decode: s(4),
        }
    }

    /// The number of traces summarised: the plan stage's sample count,
    /// since every sealed trace carries exactly one span per stage.
    /// Summaries do not merge; to combine runs, concatenate their
    /// traces and summarise once.
    pub fn samples(&self) -> usize {
        self.plan.samples
    }

    /// Headers for the per-stage P99 table columns.
    pub fn p99_headers() -> Vec<String> {
        [
            "plan P99",
            "lookup P99",
            "fetch P99",
            "bind P99",
            "decode P99",
        ]
        .map(String::from)
        .to_vec()
    }

    /// The matching cells, whole milliseconds.
    pub fn p99_cells(&self) -> Vec<String> {
        [
            self.plan.p99_ms,
            self.lookup.p99_ms,
            self.fetch.p99_ms,
            self.bind.p99_ms,
            self.decode.p99_ms,
        ]
        .iter()
        .map(|ms| format!("{ms:.0}"))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace(start_ms: u64, fetch_ms: u64) -> ReadTrace {
        let outcome = ReadOutcome {
            remote_hits: 9,
            hedges_issued: 2,
            hedge_wins: 1,
            hedges_cancelled: 1,
            total: Duration::from_millis(fetch_ms.max(1)),
            ..ReadOutcome::default()
        };
        let ms = Duration::from_millis;
        let start = SimTime::from_millis(start_ms);
        ReadTrace::new(42, 3, start, outcome, [ms(1), ms(fetch_ms), ms(2)])
    }

    #[test]
    fn new_lays_spans_on_the_sim_clock() {
        let trace = sample_trace(100, 40);
        assert_eq!(trace.spans.len(), 5);
        assert_eq!(trace.spans[0].stage, ReadStage::Plan);
        assert_eq!(trace.spans[2].start, SimTime::from_millis(100));
        assert_eq!(trace.spans[2].duration, Duration::from_millis(40));
        // Bind starts where fetch ends.
        assert_eq!(trace.spans[3].start, SimTime::from_millis(140));
        // Decode marker sits at the read's end.
        assert_eq!(trace.spans[4].start, SimTime::from_millis(140));
        assert_eq!(trace.outcome.hedge_wins, 1);
    }

    #[test]
    fn ring_buffer_bounds_and_counts_drops() {
        let ring = TraceBuffer::new(2);
        for i in 0..5 {
            ring.record(sample_trace(i, 1));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let kept = ring.snapshot();
        assert_eq!(kept[0].start, SimTime::from_millis(3));
        assert_eq!(kept[1].start, SimTime::from_millis(4));
    }

    #[test]
    fn chrome_json_is_deterministic_and_well_formed() {
        let traces = vec![sample_trace(0, 10), sample_trace(50, 20)];
        let a = chrome_trace_json(&traces);
        let b = chrome_trace_json(&traces);
        assert_eq!(a, b, "same traces render byte-identically");
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.contains("\"name\":\"fetch\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"object\":42"));
        assert!(a.contains("\"hedge_wins\":1"));
        // 2 traces × 5 spans = 10 events.
        assert_eq!(a.matches("\"cat\":\"read\"").count(), 10);
    }

    #[test]
    fn stage_histograms_feed_the_registry() {
        let stages = StageHistograms::new();
        stages.observe(&sample_trace(0, 30));
        assert_eq!(stages.stage(ReadStage::Fetch).count(), 1);
        let registry = MetricsRegistry::new();
        stages.register_with(&registry, &Labels::new().with("scenario", "test"));
        let text = registry.render_prometheus();
        assert!(text.contains("agar_read_stage_seconds_bucket{scenario=\"test\",stage=\"fetch\""));
        assert_eq!(
            text.matches("# TYPE agar_read_stage_seconds histogram")
                .count(),
            1
        );
    }

    #[test]
    fn stage_summaries_use_the_exact_rule() {
        let traces: Vec<ReadTrace> = (1..=100).map(|i| sample_trace(i, i)).collect();
        let s = StageSummaries::from_traces(&traces);
        assert_eq!(s.samples(), 100);
        assert!((s.fetch.p99_ms - 99.0).abs() < 1e-9);
        assert!((s.lookup.p99_ms - 1.0).abs() < 1e-9);
        assert_eq!(s.p99_cells().len(), StageSummaries::p99_headers().len());
        assert_eq!(StageSummaries::default().p99_cells()[0], "0");
    }
}

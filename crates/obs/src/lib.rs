//! # agar-obs — observability substrate for the Agar reproduction
//!
//! End-to-end telemetry for the engine, in three pieces:
//!
//! 1. **A labeled metrics registry** ([`MetricsRegistry`]): typed
//!    [`Counter`]/[`Gauge`]/[`Histogram`] handles with static label
//!    sets (region, tier, source kind, scenario). Handles are single
//!    relaxed atomics — the registry mutex is only taken at
//!    registration and scrape time — and existing counters can be
//!    **late-bound** so subsystems keep their own structs while the
//!    registry scrapes the same cells. A component declares its cells
//!    as the rows of one [`cell_table!`] (family, labels, help once per
//!    cell) and registers them by walking the rows.
//! 2. **Per-request read tracing** ([`ReadTrace`]): each sampled read
//!    is decomposed into plan → lookup → fetch → bind → decode stage
//!    spans on the simulated clock, with a full outcome record
//!    (replans, version races, hedge wins/cancels, chunk sources).
//!    Traces sit in a bounded ring ([`TraceBuffer`]) and dump as
//!    chrome://tracing JSON ([`chrome_trace_json`]) or fold into
//!    per-stage histograms ([`StageHistograms`]).
//! 3. **Exposition writers**: Prometheus text format
//!    ([`MetricsRegistry::render_prometheus`]) and a JSON snapshot
//!    ([`MetricsRegistry::render_json`]) — both hand-rolled,
//!    deterministic, dependency-free.
//!
//! Percentile math ([`nearest_rank_index`], [`LatencyHistogram`],
//! [`LatencySummary`]) lives here too, as the single source of truth
//! shared by the experiment harness and the registry histograms.
//!
//! ```
//! use agar_obs::{Counter, Histogram, Labels, MetricsRegistry};
//! use std::time::Duration;
//!
//! let registry = MetricsRegistry::new();
//! let (hits, latency) = (Counter::new(), Histogram::new());
//! registry.register_counter(
//!     "agar_chunk_hits_total",
//!     "Chunk lookups served from cache.",
//!     Labels::new().with("tier", "ram"),
//!     &hits,
//! );
//! registry.register_histogram(
//!     "agar_read_seconds",
//!     "End-to-end read latency.",
//!     Labels::new(),
//!     &latency,
//! );
//! hits.inc();
//! latency.record(Duration::from_millis(35));
//!
//! let scrape = registry.render_prometheus();
//! assert!(scrape.contains("agar_chunk_hits_total{tier=\"ram\"} 1"));
//! assert!(scrape.contains("# TYPE agar_read_seconds histogram"));
//! ```

pub mod histogram;
mod json;
pub mod percentile;
pub mod registry;
pub mod table;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use percentile::{nearest_rank_index, LatencyHistogram, LatencySummary};
pub use registry::{Counter, Gauge, Labels, MetricsRegistry};
pub use table::{CounterRow, TableCell};
pub use trace::{
    chrome_trace_json, DecodeKind, ReadOutcome, ReadStage, ReadTrace, StageHistograms, StageSpan,
    StageSummaries, TraceBuffer,
};

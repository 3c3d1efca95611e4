//! # agar-workload — YCSB-style workload generation
//!
//! The Agar paper drives its evaluation with a modified YCSB client:
//! read-only workloads over 300 × 1 MB objects, keys drawn from Zipfian
//! distributions with skews between 0.2 and 1.4 (default 1.1), plus a
//! uniform control. This crate reproduces that driver:
//!
//! - [`Zipfian`] — exact inverse-CDF Zipfian sampling valid for *any*
//!   skew (YCSB's Gray-formula generator only handles skew < 1, but the
//!   paper sweeps up to 1.4);
//! - the paper's uniform control; a [`Distribution`] picks it or
//!   [`Zipfian`] for a stream;
//! - [`WorkloadSpec`]/[`OpStream`] — seeded, deterministic operation
//!   streams with a configurable read/write mix;
//! - [`ReadWriteMix`]/[`MixedStream`] — the cluster write-path
//!   extension: a write ratio plus a write-size distribution
//!   ([`WriteSizeDist`]), yielding [`MixedOp`]s whose writes carry a
//!   sampled payload size;
//! - [`cdf`] — the analytic popularity CDF (Figure 9);
//! - [`scenario`] — the straggler/fault family for the tail-latency
//!   harness: per-region slowdown spikes, flaky backends and dead
//!   regions as pure-data [`StragglerScenario`] descriptors,
//!   deterministic under the simulated clock, and the one fail/heal
//!   [`FailureCycle`] that flaky regions and `agar-chaos`'s fetch-fault
//!   windows share ([`FlakyRegion`] is also `agar-chaos`'s outage).
//!
//! # Examples
//!
//! The paper's default workload:
//!
//! ```
//! use agar_workload::WorkloadSpec;
//!
//! let spec = WorkloadSpec::paper_default();
//! let ops: Vec<_> = spec.stream(42)?.collect();
//! assert_eq!(ops.len(), 1_000);
//! assert!(ops.iter().all(|op| op.is_read()));
//! # Ok::<(), agar_workload::WorkloadError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cdf;
pub mod error;
pub mod scenario;
pub mod spec;
pub mod zipf;

pub use cdf::{zipf_popularity_cdf, CdfPoint};
pub use error::WorkloadError;
pub use scenario::{FailureCycle, FlakyRegion, SlowdownSpike, StragglerScenario};
pub use spec::{
    Distribution, MixedOp, MixedStream, Op, OpStream, ReadWriteMix, WorkloadSpec, WriteSizeDist,
};
pub use zipf::Zipfian;

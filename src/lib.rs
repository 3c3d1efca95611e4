//! Umbrella crate for the Agar reproduction workspace.
//!
//! This crate exists to host the runnable [examples](../examples) and the
//! cross-crate integration tests in `tests/`. It re-exports the public
//! surface of every workspace crate so examples can use a single import
//! root.
//!
//! See the individual crates for the actual implementation:
//!
//! - [`agar_ec`] — erasure coding (GF(2^8), Reed-Solomon)
//! - [`agar_net`] — geo topology, latency models, discrete-event simulation
//! - [`agar_cache`] — the sharded LRU chunk store and the RAM-over-disk tiers
//! - [`agar_workload`] — YCSB-style workload generators
//! - [`agar_store`] — S3-like erasure-coded backend
//! - [`agar`] — the paper's contribution: knapsack-driven cache configuration
//! - [`agar_cluster`] — the cluster tier: consistent-hash routing,
//!   single-flight coalescing, region-batched fetches
//! - [`agar_bench`] — the experiment harness reproducing the paper's figures

pub use agar;
pub use agar_bench;
pub use agar_cache;
pub use agar_cluster;
pub use agar_ec;
pub use agar_net;
pub use agar_store;
pub use agar_workload;

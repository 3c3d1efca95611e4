//! # agar — a caching system for erasure-coded data
//!
//! A from-scratch Rust reproduction of **Agar** (Raluca Halalai, Pascal
//! Felber, Anne-Marie Kermarrec, François Taïani — ICDCS 2017): a caching
//! layer for geo-distributed, erasure-coded object stores that decides
//! not only *which objects* to cache but *how many erasure-coded chunks*
//! of each, by solving a 0/1-Knapsack-style optimisation with dynamic
//! programming.
//!
//! The crate mirrors the paper's Figure 3 architecture:
//!
//! - [`RequestMonitor`] (§III-b) — per-object popularity via an
//!   exponentially weighted moving average (α = 0.8);
//! - [`RegionManager`] (§III-a) — per-region chunk-read latency
//!   estimates from warm-up probes and live observations;
//! - [`options`] (§IV-A) — caching-option generation: discard the `m`
//!   furthest chunks, cache from the most distant remaining sites in,
//!   value = popularity × latency improvement;
//! - [`knapsack`] (§IV-B, Figures 4 & 5) — the POPULATE dynamic program
//!   with the RELAX move, plus greedy and exhaustive baselines;
//! - [`cache_manager::solve`] (§III-c) — the periodic solve: options
//!   for every tracked object, the two-budget knapsack, carried entries;
//! - [`AgarNode`] — the per-region deployment: hint-driven reads,
//!   partial cache hits, off-critical-path cache fill;
//! - [`baselines`] (§V-A) — the LRU-c / LFU-c / Backend clients the
//!   paper compares against;
//! - [`fetcher`] — the pluggable backend-fetch strategy: per-chunk
//!   direct fetches by default, swapped for the `agar-cluster`
//!   coordinator (single-flight coalescing + region-batched round
//!   trips) in multi-node deployments. Cache collaboration between
//!   nodes and cross-region write coherence (the paper's §VI
//!   sketches) live in `agar-cluster`'s consistent-hash-routed
//!   `ClusterRouter`.
//!
//! # Examples
//!
//! Build a six-region deployment, warm it, and watch Agar beat a cold
//! read:
//!
//! ```
//! use agar::{AgarNode, AgarSettings, CachingClient};
//! use agar_ec::{CodingParams, ObjectId};
//! use agar_net::presets::{aws_six_regions, FRANKFURT};
//! use agar_store::{populate, Backend, RoundRobin};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let preset = aws_six_regions();
//! let backend = Arc::new(Backend::new(
//!     preset.topology,
//!     Arc::new(preset.latency),
//!     CodingParams::paper_default(),
//!     Box::new(RoundRobin),
//! )?);
//! let mut rng = StdRng::seed_from_u64(0);
//! populate(&backend, 10, 9_000, &mut rng)?;
//!
//! let node = AgarNode::new(
//!     FRANKFURT,
//!     backend,
//!     AgarSettings::paper_default(9_000), // fits one full object
//!     42,
//! )?;
//! let object = ObjectId::new(0);
//! let cold = node.read(object)?;
//! for _ in 0..20 { node.read(object)?; }
//! node.force_reconfigure();
//! node.read(object)?; // fills the cache
//! let warm = node.read(object)?;
//! assert!(warm.latency < cold.latency);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod breaker;
pub mod cache_manager;
pub mod config;
pub mod error;
pub mod fetcher;
mod inline;
pub mod knapsack;
pub mod monitor;
pub mod node;
pub mod options;
pub mod planner;
pub mod region_manager;
pub mod retry;

pub use baselines::{BaselinePolicy, FixedChunksClient};
pub use breaker::{BreakerPolicy, CircuitBreaker};
pub use config::{CacheConfiguration, Transition};
pub use error::AgarError;
pub use fetcher::{ChunkFetcher, DirectFetcher, FetchRequest};
pub use knapsack::{greedy, optimum, optimum_tiered, Config, KnapsackSolver};
pub use monitor::RequestMonitor;
pub use node::{AgarNode, AgarSettings, CachingClient, ReadMetrics};
pub use options::{
    generate_disk_options, generate_options, generate_tiered_options, CachingOption, ObjectOptions,
    TieredOptions,
};
pub use planner::{ChunkSource, HedgePolicy, LocalHits, ReadPlan, ReadPlanner, RemoteChunk};
pub use region_manager::RegionManager;
pub use retry::RetryPolicy;

//! # agar-net — geo-distribution substrate for the Agar reproduction
//!
//! The Agar paper (Halalai et al., ICDCS 2017) evaluates on six AWS
//! regions connected by real WAN links. This crate provides the simulated
//! equivalent:
//!
//! - [`region`] — named regions and the deployment [`Topology`];
//! - [`time`] — the virtual clock ([`SimTime`]);
//! - [`latency`] — pluggable [`latency::LatencyModel`]s: constant, and a
//!   per-region-pair matrix with optional uniform/log-normal jitter;
//! - [`presets`] — the calibrated six-region AWS matrix (shapes match the
//!   paper's Figure 2) and the paper's illustrative Table I;
//! - [`sim`] — a deterministic discrete-event [`sim::Simulation`].
//!
//! Agar's warm-up probing (§III-a) samples a [`latency::LatencyModel`]
//! directly; it lives in `agar::RegionManager::warm_up`.
//!
//! # Examples
//!
//! Sample a chunk fetch latency on the calibrated deployment:
//!
//! ```
//! use agar_net::latency::LatencyModel;
//! use agar_net::presets::{aws_six_regions, FRANKFURT, SYDNEY};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let preset = aws_six_regions();
//! let mut rng = StdRng::seed_from_u64(42);
//! let chunk = preset.latency.nominal_bytes();
//! let d = preset.latency.sample(FRANKFURT, SYDNEY, chunk, &mut rng);
//! assert!(d.as_millis() > 500, "Sydney is far from Frankfurt");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod latency;
pub mod presets;
pub mod region;
pub mod sim;
pub mod time;

pub use error::NetError;
pub use latency::{ConstantLatency, Jitter, LatencySpike, MatrixLatency, SpikedLatency};
pub use presets::GeoPreset;
pub use region::{Region, RegionId, Topology};
pub use sim::{Scheduler, Simulation};
pub use time::SimTime;

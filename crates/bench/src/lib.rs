//! # agar-bench — the experiment harness for the Agar reproduction
//!
//! Regenerates every table and figure of the paper's evaluation, plus
//! the simulated-clock grid experiments CI gates on:
//!
//! | Artefact | Binary invocation |
//! |---|---|
//! | Figure 2 (motivating experiment) | `experiments -- fig2` |
//! | Table I (latency estimates) | `experiments -- table1` |
//! | Figure 6 (policy comparison, latency) | `experiments -- fig6` |
//! | Figure 7 (policy comparison, hit ratio) | `experiments -- fig7` |
//! | Figure 8a (cache-size sweep) | `experiments -- fig8a` |
//! | Figure 8b (workload sweep) | `experiments -- fig8b` |
//! | Figure 9 (popularity CDF) | `experiments -- fig9` |
//! | Figure 10 (cache contents) | `experiments -- fig10` |
//! | §II-D / §VI solver claims | `experiments -- ablation` |
//! | Hedged vs unhedged tail latency ([`tail`]) | `experiments -- tail` |
//! | Two-tier cache under catalogue pressure ([`tiers`]) | `experiments -- tiers` |
//! | Failure handling under injected faults ([`chaos`]) | `experiments -- chaos` |
//! | Cluster write path under a read/write mix ([`mixed`]) | `experiments -- mixed` |
//!
//! [`experiments::Runner`] dispatches those ids. Every experiment is a
//! function of one [`ExperimentParams`] — scale, runs, operations and
//! latency profile — and builds its own [`Deployment`] from it, so no
//! experiment sees another's writes or decode plans; its seeds and
//! cache sizes are constants beside its figure function or its
//! [`Layout`], and every Agar node it measures comes from
//! `Deployment::agar_node`. Everything simulated replays one driver,
//! [`harness::closed_loop`]: closed-loop clients on a deterministic
//! simulated clock, exactly mirroring the paper's two YCSB clients per
//! region ([`CLIENTS`]) and 30-second reconfiguration epochs. The
//! `mixed` cluster cells replay it too, with every read checked against
//! one [`history::WriteHistory`], so every report is byte-reproducible
//! per seed. Host-clock costs (codec MB/s, cache ns/op, ops/s scaling,
//! lease contention) are the gated benchmark's business — see `bench/`
//! at the repository root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cell;
#[cfg(test)]
mod census;
pub mod chaos;
pub mod cluster;
pub mod experiments;
pub mod harness;
pub mod history;
pub mod mixed;
pub mod table;
pub mod tail;
pub mod tiers;

pub use cell::{report_json, Cell, Layout};
pub use chaos::{chaos_run, ChaosPolicy, ChaosScenario};
pub use cluster::build_warm_cluster;
pub use experiments::ExperimentParams;
pub use harness::{
    closed_loop, run_averaged, run_once, Deployment, LatencyProfile, LoopOutcome, OpSample,
    PolicySpec, RunConfig, RunResult, Scale, Serve, CLIENTS,
};
pub use history::WriteHistory;
pub use mixed::{run_mixed_cluster, MixedRun};
pub use table::Table;
pub use tail::{tail_run, TAIL_CACHE_MB};
pub use tiers::tiers_run;

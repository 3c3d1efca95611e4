//! # agar-cluster — the cluster tier of the Agar reproduction
//!
//! The paper (Halalai et al., ICDCS 2017) evaluates one cache node per
//! region and sketches inter-node collaboration in §VI. This crate is
//! the layer between a single [`AgarNode`](agar::AgarNode) and a
//! deployment: several nodes fronted by one router, with membership,
//! routing and fetch deduplication owned in one place.
//!
//! - [`ClusterRing`] — a deterministic consistent-hash ring (seeded,
//!   virtual nodes) mapping objects and chunks to their owning node;
//!   adding or removing a member re-homes only the moved ring segment.
//! - [`ClusterRouter`] — routes each read to the object's owner,
//!   offers chunks from the next members on the ring walk (the §VI
//!   collaboration, now targeted instead of a linear scan of every
//!   member), falls back to the backend, and keeps writes coherent
//!   across members: under the object's lease the owner writes, then
//!   every other member drops the object's chunk ids.
//! - [`WriteLeaseManager`] — per-object write leases (same-object
//!   writes serialise, distinct objects proceed in parallel, no router
//!   lock held across write I/O) and the poison set that makes the
//!   writer after a crashed one fence.
//! - [`FetchCoordinator`] — shared by every member as its
//!   [`ChunkFetcher`](agar::fetcher::ChunkFetcher): concurrent readers
//!   of one chunk share a single in-flight backend fetch
//!   (single-flight), and one reader's same-region chunks travel as
//!   one batched, once-priced round trip.
//!
//! # Examples
//!
//! Route reads over a four-node cluster and watch ownership
//! concentrate:
//!
//! ```
//! use agar::{AgarNode, AgarSettings};
//! use agar_cluster::{ClusterRouter, ClusterSettings};
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
//! populate(&backend, 8, 900, &mut rng)?;
//!
//! let router = ClusterRouter::new(Arc::clone(&backend), ClusterSettings::default(), 42)?;
//! for i in 0..4 {
//!     let node = AgarNode::new(
//!         FRANKFURT,
//!         Arc::clone(&backend),
//!         AgarSettings::paper_default(2_700),
//!         i,
//!     )?;
//!     router.add_node(Arc::new(node));
//! }
//! let metrics = router.read(ObjectId::new(3))?;
//! assert_eq!(metrics.metrics().data.len(), 900);
//! // The same object always lands on the same member.
//! assert_eq!(router.read(ObjectId::new(3))?.home, metrics.home);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod coordinator;
pub mod lease;
pub mod ring;
pub mod router;

pub use coordinator::FetchCoordinator;
pub use lease::{WriteLease, WriteLeaseManager};
pub use ring::ClusterRing;
pub use router::{
    ClusterReadMetrics, ClusterRouter, ClusterSettings, ClusterWriteMetrics, MembershipChange,
};

//! # agar-store — the geo-distributed erasure-coded object store
//!
//! The substrate under Agar (Halalai et al., ICDCS 2017, Figure 1): an
//! S3-like object store spanning several regions, where each object is
//! Reed-Solomon-encoded into `k + m` chunks distributed round-robin, one
//! bucket per region. This crate provides:
//!
//! - [`Bucket`] — a region's durable chunk store with failure injection;
//! - [`PlacementPolicy`] / [`RoundRobin`] — the paper's chunk layout;
//! - [`ObjectManifest`] — per-object metadata (size, version, locations)
//!   and the one ranking of an object's chunks by estimated latency
//!   ([`ObjectManifest::rank_chunks`]): a read fetches the `k` cheapest
//!   reachable chunks;
//! - [`Backend`] — the multi-region store: encode-and-place writes,
//!   latency-sampled chunk fetches (single or region-batched, one
//!   priced round trip per region), region failure injection.
//!
//! The paper's cache-less "Backend" baseline reader is
//! `agar::FixedChunksClient::backend_only`, on top of this crate.
//!
//! # Examples
//!
//! ```
//! use agar_ec::{ChunkId, CodingParams, ObjectId};
//! use agar_net::latency::LatencyModel;
//! use agar_net::presets::{aws_six_regions, FRANKFURT, SYDNEY};
//! use agar_store::{populate, Backend, RoundRobin};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let preset = aws_six_regions();
//! let backend = Backend::new(
//!     preset.topology,
//!     Arc::new(preset.latency),
//!     CodingParams::paper_default(),
//!     Box::new(RoundRobin),
//! )?;
//! let mut rng = StdRng::seed_from_u64(0);
//! populate(&backend, 10, 9_000, &mut rng)?;
//!
//! // A Frankfurt client needs k = 9 of the 12 chunks: the 3 most
//! // distant, Sydney's two among them, are never fetched.
//! let model = backend.latency_model();
//! let estimates: Vec<_> = backend
//!     .topology()
//!     .ids()
//!     .map(|r| model.mean(FRANKFURT, r, 100_000))
//!     .collect();
//! let object = ObjectId::new(3);
//! let manifest = backend.manifest(object)?;
//! let ranked = manifest.rank_chunks(&estimates);
//! assert!(ranked[..9].iter().all(|&(i, _)| manifest.location(i as usize) != SYDNEY));
//! let fetch = backend.fetch_chunk(FRANKFURT, ChunkId::new(object, ranked[0].0), &mut rng)?;
//! assert_eq!(fetch.data.len(), 1_000);
//! # Ok::<(), agar_store::StoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod bucket;
pub mod error;
pub mod manifest;
pub mod placement;

pub use backend::{expected_payload, populate, Backend, BatchFetchOutcome, ChunkFetch, ObjectPut};
pub use bucket::{Bucket, StoredChunk};
pub use error::StoreError;
pub use manifest::ObjectManifest;
pub use placement::{PlacementPolicy, RoundRobin};

//! # agar-ec — erasure-coding substrate for the Agar reproduction
//!
//! A from-scratch implementation of systematic Reed-Solomon erasure
//! coding over GF(2^8), as required by the Agar caching system
//! (Halalai et al., ICDCS 2017). The paper's prototype used the Longhair
//! Cauchy Reed-Solomon library; this crate is the pure-Rust object codec
//! the workspace calls — encode an object into `k + m` chunks, rebuild it
//! from any `k` — plus the object/chunk identity types the rest of the
//! workspace shares.
//!
//! The layers, bottom-up:
//!
//! - [`gf256`] — GF(2^8) arithmetic on `u8` and the one SIMD-dispatched
//!   slice kernel, a fused dot product that the encode and the one-pass
//!   degraded decode both run;
//! - [`rs`] — the systematic [`ReedSolomon`] codec:
//!   [`encode_object`](ReedSolomon::encode_object) and
//!   [`reconstruct_object_report`](ReedSolomon::reconstruct_object_report),
//!   with the only linear algebra a code needs kept private: the
//!   systematic encoding rows and a `k x k` Gauss-Jordan inverse;
//! - [`chunk`] — [`ObjectId`], [`ChunkId`], [`ChunkSet`] and
//!   [`CodingParams`] shared by the store, cache and Agar core crates.
//!
//! # Examples
//!
//! Split a 1 MB object the way the paper's deployment does — RS(9, 3) —
//! and recover it from a subset of chunks:
//!
//! ```
//! use agar_ec::{CodingParams, ReedSolomon};
//!
//! let rs = ReedSolomon::new(CodingParams::paper_default())?;
//! let object = vec![42u8; 1_000_000];
//! let mut shards: Vec<Option<bytes::Bytes>> =
//!     rs.encode_object(&object)?.into_iter().map(Some).collect();
//!
//! // Three chunks lost (an entire AWS region plus one more).
//! shards[2] = None;
//! shards[3] = None;
//! shards[11] = None;
//!
//! let (recovered, _report) = rs.reconstruct_object_report(&shards, object.len())?;
//! assert_eq!(recovered.as_ref(), object.as_slice());
//! # Ok::<(), agar_ec::EcError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chunk;
pub mod error;
pub mod gf256;
pub mod rs;

pub use chunk::{ChunkId, ChunkIndex, ChunkSet, CodingParams, ObjectId};
pub use error::EcError;
pub use rs::{DecodeReport, ReedSolomon};

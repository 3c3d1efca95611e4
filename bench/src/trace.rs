//! The traced run's per-layer spans, recorded from outside the program.
//!
//! For a sampled operation the tracer first runs a **shadow read**: the
//! same sequence of public layer calls the node's read path makes
//! (manifest, hinted-chunk lookups, plan, backend fetch, decode), each
//! between its own pair of clock samples. The shadow only peeks — no
//! recency update, no statistics, no fill, its own RNG — so it perturbs
//! no node state, and its bytes must equal the real read's bytes: that
//! equality is the check that the shadow still mirrors the node.
//!
//! Then the real call runs, with [`TimingFetcher`] installed through
//! `AgarNode::set_chunk_fetcher` so the fetch inside the read is timed
//! as well. A layer's cost is its shadow span (lookup, plan, decode) or
//! its in-read span (fetch); what is left of the read is the node's
//! own glue, `core.node.self_us`.
//!
//! ```text
//! op ─┬─ shadow ─┬─ store.manifest      Backend::manifest
//!     │          ├─ cache.lookup        AgarNode::peek_chunk_tier × hinted
//!     │          ├─ core.planner.plan   ReadPlanner::plan / plan_hedged
//!     │          ├─ store.fetch         DirectFetcher::fetch
//!     │          └─ ec.decode           ReedSolomon::reconstruct_object_report
//!     └─ read ───── store.fetch         (the installed fetcher, in-read)
//! op ─┬─ ec.encode                      ReedSolomon::encode_object (write shadow)
//!     └─ router.write
//! ```

use crate::json::Json;
use crate::record::Cost;
use crate::stats::{self, ratio};
use agar::{
    AgarNode, ChunkFetcher, ChunkSource, DirectFetcher, FetchRequest, HedgePolicy, LocalHits,
    ReadPlanner,
};
use agar_cache::CacheTier;
use agar_ec::{ChunkId, ObjectId};
use agar_net::RegionId;
use agar_store::{Backend, ChunkFetch, StoreError};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// Only the first this-many sampled operations keep their spans for the
/// span file (the per-layer metrics use every sampled operation).
const SPAN_FILE_OPS: u64 = 2_048;

/// One span: a timed call into a layer, or a grouping node above some.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The operation the span belongs to.
    pub op: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub chunks: u32,
    pub bytes: u64,
}

// ---- the in-read fetch decorator -------------------------------------

/// Fetch calls the installed decorator saw on this thread since the
/// last [`take_fetches`].
#[derive(Default)]
pub struct FetchLog {
    pub calls: u64,
    pub chunks: u64,
    pub bytes: u64,
    pub ns: u64,
    /// `(start, ns, chunks, bytes)` per call.
    pub spans: Vec<(Instant, u64, u32, u64)>,
}

thread_local! {
    static FETCHES: RefCell<FetchLog> = RefCell::new(FetchLog::default());
}

/// Drains this thread's fetch log.
pub fn take_fetches() -> FetchLog {
    FETCHES.with(|log| std::mem::take(&mut *log.borrow_mut()))
}

/// Times every call through the node's fetch hook and forwards it
/// unchanged — to `DirectFetcher` on a single node, to the cluster's
/// coordinator (where the time includes waiting on a coalesced flight).
pub struct TimingFetcher {
    inner: Arc<dyn ChunkFetcher>,
}

impl TimingFetcher {
    pub fn new(inner: Arc<dyn ChunkFetcher>) -> Self {
        TimingFetcher { inner }
    }
}

impl ChunkFetcher for TimingFetcher {
    fn fetch(
        &self,
        client_region: RegionId,
        requests: &[FetchRequest],
        rng: &mut dyn RngCore,
    ) -> Vec<(FetchRequest, Result<ChunkFetch, StoreError>)> {
        if requests.is_empty() {
            // The node calls its fetcher even when the plan needs
            // nothing from the backend; that is not a fetch.
            return self.inner.fetch(client_region, requests, rng);
        }
        let start = Instant::now();
        let results = self.inner.fetch(client_region, requests, rng);
        let ns = start.elapsed().as_nanos() as u64;
        let bytes: u64 = results
            .iter()
            .filter_map(|(_, r)| r.as_ref().ok())
            .map(|fetch| fetch.data.len() as u64)
            .sum();
        FETCHES.with(|log| {
            let mut log = log.borrow_mut();
            log.calls += 1;
            log.chunks += requests.len() as u64;
            log.bytes += bytes;
            log.ns += ns;
            log.spans.push((start, ns, requests.len() as u32, bytes));
        });
        results
    }
}

// ---- the shadow read --------------------------------------------------

/// Length and a 64-bit mix of a payload. The shadow keeps this, not its
/// bytes: holding a second object-sized buffer across the real read
/// pushes the allocator's heap top past its trim threshold, and the
/// read that follows then pays page faults no untraced read pays (at
/// 1 MB that more than doubled the sampled reads' time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    len: usize,
    mix: u64,
}

impl Digest {
    pub fn of(data: &[u8]) -> Self {
        let mut mix = 0x9E37_79B9_7F4A_7C15u64;
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            mix = (mix ^ w)
                .wrapping_mul(0x0000_0100_0000_01B3)
                .rotate_left(29);
        }
        for &byte in words.remainder() {
            mix = (mix ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Digest {
            len: data.len(),
            mix,
        }
    }
}

/// What one shadow read measured.
pub struct Shadow {
    pub digest: Digest,
    /// The manifest version the shadow decoded.
    pub version: u64,
    pub manifest_ns: u64,
    pub lookup_ns: u64,
    pub plan_ns: u64,
    pub decode_ns: u64,
    pub gf_bytes: u64,
}

/// Per-sampled-operation layer times, nanoseconds.
#[derive(Default)]
pub struct LayerSamples {
    pub manifest: Vec<f64>,
    pub lookup: Vec<f64>,
    pub plan: Vec<f64>,
    pub fetch: Vec<f64>,
    pub decode: Vec<f64>,
    /// Shadow encodes of sampled writes.
    pub encode: Vec<f64>,
    pub read: Vec<f64>,
    /// read − (lookup + plan + in-read fetch + decode); negative when
    /// the shadow's peeks cost more than the read's own lookups did.
    pub self_time: Vec<f64>,
    pub gf_bytes: u64,
}

/// A read between [`Tracer::begin_read`] and [`Tracer::end_read`].
pub struct OpenRead {
    op: u64,
    object: ObjectId,
    op_span: Option<usize>,
    shadow: Option<Shadow>,
    /// Whether this operation was sampled (got a shadow attempt).
    pub sampled: bool,
    started_ns: u64,
}

/// A write between [`Tracer::begin_write`] and [`Tracer::end_write`].
pub struct OpenWrite {
    op: u64,
    op_span: Option<usize>,
    started_ns: u64,
}

/// One client's tracer.
pub struct Tracer {
    sample_every: u64,
    epoch: Instant,
    rng: StdRng,
    backend: Arc<Backend>,
    direct: DirectFetcher,
    pub spans: Vec<Span>,
    pub layers: LayerSamples,
    /// Operations that got a shadow read.
    pub sampled: u64,
    /// Sampled reads whose bytes differed from the shadow's.
    pub mismatches: u64,
    /// Sampled operations a concurrent write invalidated (no verdict).
    pub raced: u64,
    /// Fetch calls/chunks the decorator saw inside reads.
    pub fetch_calls: u64,
    pub fetch_chunks: u64,
    /// Reads the two counters above are over.
    pub reads: u64,
}

impl Tracer {
    pub fn new(backend: Arc<Backend>, sample_every: u64, seed: u64) -> Self {
        Tracer {
            sample_every: sample_every.max(1),
            epoch: Instant::now(),
            rng: StdRng::seed_from_u64(seed ^ 0x5AAD_0755),
            direct: DirectFetcher::new(Arc::clone(&backend)),
            backend,
            spans: Vec::new(),
            layers: LayerSamples::default(),
            sampled: 0,
            mismatches: 0,
            raced: 0,
            fetch_calls: 0,
            fetch_chunks: 0,
            reads: 0,
        }
    }

    fn samples(&self, op: u64) -> bool {
        op.is_multiple_of(self.sample_every)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn keeps_spans(&self) -> bool {
        self.sampled <= SPAN_FILE_OPS
    }

    fn push(&mut self, span: Span) -> Option<usize> {
        if !self.keeps_spans() {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Times `call` as a child span of `parent`.
    fn layer<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        call: impl FnOnce(&mut Self) -> (R, u32, u64),
    ) -> (R, u64) {
        let start_ns = self.now_ns();
        let start = Instant::now();
        let (result, chunks, bytes) = call(self);
        let ns = start.elapsed().as_nanos() as u64;
        self.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns + ns,
            chunks,
            bytes,
        });
        (result, ns)
    }

    /// Starts a read of `object` on `node`. If the operation is sampled,
    /// opens its `op` span and runs the shadow read first (the shadow
    /// is `None` when a concurrent write raced it). Hand the result to
    /// [`Tracer::end_read`] once the real call returned.
    pub fn begin_read(&mut self, op: u64, node: &AgarNode, object: ObjectId) -> OpenRead {
        let mut open = OpenRead {
            op,
            object,
            op_span: None,
            shadow: None,
            sampled: self.samples(op),
            started_ns: 0,
        };
        if open.sampled {
            self.sampled += 1;
            let start_ns = self.now_ns();
            let span = |name, parent| Span {
                name,
                op,
                parent,
                start_ns,
                end_ns: start_ns,
                chunks: 0,
                bytes: 0,
            };
            open.op_span = self.push(span("op", None));
            let shadow_span = self.push(span("shadow", open.op_span));
            open.shadow = self.shadow_layers(op, shadow_span, node, object);
            let end_ns = self.now_ns();
            if let Some(index) = shadow_span {
                self.spans[index].end_ns = end_ns;
            }
            if open.shadow.is_none() {
                self.raced += 1;
            }
        }
        take_fetches(); // fills of an earlier reconfiguration or write
        open.started_ns = self.now_ns();
        open
    }

    fn shadow_layers(
        &mut self,
        op: u64,
        parent: Option<usize>,
        node: &AgarNode,
        object: ObjectId,
    ) -> Option<Shadow> {
        let backend = Arc::clone(&self.backend);
        let (manifest, manifest_ns) = self.layer("store.manifest", op, parent, |_| {
            (backend.manifest(object), 0, 0)
        });
        let manifest = manifest.ok()?;
        let version = manifest.version();
        let total = manifest.params().total_chunks();
        let config = node.current_config();
        let planner = ReadPlanner::new(&manifest, &config);

        let hinted = planner.hinted();
        let (hits, lookup_ns) = self.layer("cache.lookup", op, parent, |_| {
            let mut hits = LocalHits::default();
            let mut bytes = 0;
            for &index in hinted {
                match node.peek_chunk_tier(&ChunkId::new(object, index), version) {
                    Some((data, CacheTier::Ram)) => {
                        bytes += data.len() as u64;
                        hits.ram.push((index, data));
                    }
                    Some((data, CacheTier::Disk)) => {
                        bytes += data.len() as u64;
                        hits.disk.push((index, data));
                    }
                    None => {}
                }
            }
            (hits, hinted.len() as u32, bytes)
        });

        let settings = node.settings();
        let estimates = node.latency_estimates();
        let (plan, plan_ns) = self.layer("core.planner.plan", op, parent, |_| {
            let plan = if settings.max_hedges == 0 {
                planner.plan(hits, &[], &backend, &estimates, settings.disk_read)
            } else {
                // The node's per-region deviations are not public, so
                // the shadow prices no hedges; any k chunks decode to
                // the same bytes.
                let hedging = HedgePolicy {
                    max_hedges: settings.max_hedges,
                    z: settings.hedge_z,
                    deviations: &[],
                    excluded: &[],
                };
                planner.plan_hedged(hits, &[], &backend, &estimates, settings.disk_read, hedging)
            };
            let sources = plan.as_ref().map_or(0, |p| p.sources.len() as u32);
            (plan, sources, 0)
        });
        let plan = plan.ok()?;

        let mut shards: Vec<Option<Bytes>> = vec![None; total];
        let mut requests = Vec::new();
        for (index, source) in plan.sources {
            match source {
                ChunkSource::Local { data }
                | ChunkSource::LocalDisk { data }
                | ChunkSource::Remote { data, .. } => shards[index as usize] = Some(data),
                ChunkSource::Backend { region, .. } => requests.push(FetchRequest {
                    chunk: ChunkId::new(object, index),
                    region,
                    version,
                }),
            }
        }
        let region = node.region();
        let (fetched, _) = self.layer("store.fetch", op, parent, |tracer| {
            let results = tracer.direct.fetch(region, &requests, &mut tracer.rng);
            let bytes = results
                .iter()
                .filter_map(|(_, r)| r.as_ref().ok())
                .map(|f| f.data.len() as u64)
                .sum();
            (results, requests.len() as u32, bytes)
        });
        if fetched.len() != requests.len() {
            return None; // the direct fetcher stopped early: a race
        }
        for (request, result) in fetched {
            let fetch = result.ok()?;
            if fetch.version != version {
                return None;
            }
            shards[request.chunk.index().value() as usize] = Some(fetch.data);
        }

        let (decoded, decode_ns) = self.layer("ec.decode", op, parent, |_| {
            let decoded = backend
                .codec()
                .reconstruct_object_report(&shards, manifest.size());
            let bytes = decoded.as_ref().map_or(0, |(data, _)| data.len() as u64);
            (decoded, total as u32, bytes)
        });
        let (data, report) = decoded.ok()?;
        Some(Shadow {
            digest: Digest::of(&data),
            version,
            manifest_ns,
            lookup_ns,
            plan_ns,
            decode_ns,
            gf_bytes: report.gf_multiply_bytes,
        })
    }

    /// Records the real read that followed [`Tracer::begin_read`]: the
    /// decorator's fetch log, and for a sampled read its spans, the
    /// byte comparison with the shadow (skipped when the manifest shows
    /// a write landed in between) and the layer times.
    pub fn end_read(&mut self, open: OpenRead, name: &'static str, cost: Cost, data: &[u8]) {
        let fetches = take_fetches();
        self.reads += 1;
        self.fetch_calls += fetches.calls;
        self.fetch_chunks += fetches.chunks;
        let Some(shadow) = open.shadow else { return };
        let (op, started_ns) = (open.op, open.started_ns);
        let read_span = self.push(Span {
            name,
            op,
            parent: open.op_span,
            start_ns: started_ns,
            end_ns: started_ns + cost.ns,
            chunks: fetches.chunks as u32,
            bytes: data.len() as u64,
        });
        if read_span.is_some() {
            for &(start, ns, chunks, bytes) in &fetches.spans {
                let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
                self.push(Span {
                    name: "store.fetch",
                    op,
                    parent: read_span,
                    start_ns,
                    end_ns: start_ns + ns,
                    chunks,
                    bytes,
                });
            }
        }
        if let Some(index) = open.op_span {
            self.spans[index].end_ns = started_ns + cost.ns;
        }
        let version_now = self
            .backend
            .manifest(open.object)
            .map_or(0, |manifest| manifest.version());
        if shadow.version != version_now {
            self.raced += 1;
            return;
        }
        if Digest::of(data) != shadow.digest {
            self.mismatches += 1;
        }
        let layers = &mut self.layers;
        layers.manifest.push(shadow.manifest_ns as f64);
        layers.lookup.push(shadow.lookup_ns as f64);
        layers.plan.push(shadow.plan_ns as f64);
        layers.fetch.push(fetches.ns as f64);
        layers.decode.push(shadow.decode_ns as f64);
        layers.read.push(cost.ns as f64);
        let children = shadow.lookup_ns + shadow.plan_ns + fetches.ns + shadow.decode_ns;
        layers.self_time.push(cost.ns as f64 - children as f64);
        layers.gf_bytes += shadow.gf_bytes;
    }

    /// Starts a write. If the operation is sampled, opens its `op` span
    /// and runs the write's shadow first: the codec work `put_object`
    /// will do (`encode_object` on the same bytes, result discarded).
    pub fn begin_write(&mut self, op: u64, payload: &[u8]) -> OpenWrite {
        let mut op_span = None;
        if self.samples(op) {
            self.sampled += 1;
            let start_ns = self.now_ns();
            op_span = self.push(Span {
                name: "op",
                op,
                parent: None,
                start_ns,
                end_ns: start_ns,
                chunks: 0,
                bytes: payload.len() as u64,
            });
            let backend = Arc::clone(&self.backend);
            let (_, ns) = self.layer("ec.encode", op, op_span, |_| {
                let shards = std::hint::black_box(backend.codec().encode_object(payload));
                let chunks = shards.map_or(0, |s| s.len() as u32);
                ((), chunks, payload.len() as u64)
            });
            self.layers.encode.push(ns as f64);
        }
        OpenWrite {
            op,
            op_span,
            started_ns: self.now_ns(),
        }
    }

    /// Records the real write that followed [`Tracer::begin_write`].
    pub fn end_write(&mut self, open: OpenWrite, cost: Cost) {
        let Some(index) = open.op_span else { return };
        let end_ns = open.started_ns + cost.ns;
        self.spans[index].end_ns = end_ns;
        let bytes = self.spans[index].bytes;
        self.push(Span {
            name: "router.write",
            op: open.op,
            parent: open.op_span,
            start_ns: open.started_ns,
            end_ns,
            chunks: 0,
            bytes,
        });
    }

    /// The per-layer metrics the tracer alone determines (medians over
    /// the sampled reads).
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let layers = &self.layers;
        let us = |ns: &[f64]| stats::median(ns) / 1e3;
        let in_read_fetches: Vec<f64> = layers
            .fetch
            .iter()
            .copied()
            .filter(|&ns| ns > 0.0)
            .collect();
        vec![
            ("core.node.self_us", us(&layers.self_time)),
            (
                "core.node.unattributed_frac",
                ratio(
                    stats::median(&layers.self_time),
                    stats::median(&layers.read),
                ),
            ),
            ("core.planner.plan_us", us(&layers.plan)),
            ("cache.lookup_us", us(&layers.lookup)),
            ("ec.decode_us", us(&layers.decode)),
            ("ec.encode_us", us(&layers.encode)),
            (
                "ec.gf_bytes_per_read",
                ratio(layers.gf_bytes as f64, layers.read.len() as f64),
            ),
            ("store.fetch_us", us(&in_read_fetches)),
            (
                "store.fetch_calls_per_read",
                ratio(self.fetch_calls as f64, self.reads as f64),
            ),
            (
                "store.chunks_per_fetch_call",
                ratio(self.fetch_chunks as f64, self.fetch_calls as f64),
            ),
            ("store.manifest_ns", stats::median(&layers.manifest)),
            ("bench.shadow_mismatches", self.mismatches as f64),
            ("bench.sampled_ops", self.sampled as f64),
        ]
    }

    /// The layer decomposition in one line.
    pub fn note(&self) -> String {
        let layers = &self.layers;
        let us = |ns: &[f64]| stats::median(ns) / 1e3;
        format!(
            "layers over {} sampled reads ({} raced a write): read {:.3} us = lookup {:.3} + plan {:.3} \
             + fetch {:.3} + decode {:.3} + self {:.3} (medians)",
            layers.read.len(),
            self.raced,
            us(&layers.read),
            us(&layers.lookup),
            us(&layers.plan),
            us(&layers.fetch),
            us(&layers.decode),
            us(&layers.self_time),
        )
    }

    /// Merges another client's tracer into this one (span parents are
    /// re-based).
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
        let (a, b) = (&mut self.layers, other.layers);
        a.manifest.extend(b.manifest);
        a.lookup.extend(b.lookup);
        a.plan.extend(b.plan);
        a.fetch.extend(b.fetch);
        a.decode.extend(b.decode);
        a.encode.extend(b.encode);
        a.read.extend(b.read);
        a.self_time.extend(b.self_time);
        a.gf_bytes += b.gf_bytes;
        self.sampled += other.sampled;
        self.mismatches += other.mismatches;
        self.raced += other.raced;
        self.fetch_calls += other.fetch_calls;
        self.fetch_chunks += other.fetch_chunks;
        self.reads += other.reads;
    }

    /// The span file's document.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(span.name)),
                    ("op", Json::Num(span.op as f64)),
                    (
                        "parent",
                        span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns", Json::Num(span.start_ns as f64)),
                    ("end_ns", Json::Num(span.end_ns as f64)),
                    ("chunks", Json::Num(f64::from(span.chunks))),
                    ("bytes", Json::Num(span.bytes as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("sample_every", Json::Num(self.sample_every as f64)),
            ("sampled_ops", Json::Num(self.sampled as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_length_order_and_single_bit_changes() {
        let a: Vec<u8> = (0..1_003u32).map(|i| (i * 7 % 251) as u8).collect();
        let same = Digest::of(&a);
        assert_eq!(same, Digest::of(&a.clone()));
        let mut flipped = a.clone();
        flipped[500] ^= 1;
        assert_ne!(same, Digest::of(&flipped), "one bit in a full word");
        flipped = a.clone();
        flipped[1_002] ^= 1;
        assert_ne!(same, Digest::of(&flipped), "one bit in the tail");
        let mut swapped = a.clone();
        swapped.swap(0, 8);
        assert_ne!(same, Digest::of(&swapped), "word order");
        assert_ne!(same, Digest::of(&a[..1_002]), "length");
        assert_ne!(
            Digest::of(&[0u8; 16]),
            Digest::of(&[0u8; 24]),
            "zero padding"
        );
    }
}

//! Write-path cache coherence (the paper's §VI "supporting data writes"
//! discussion, implemented as an extension).
//!
//! Two complementary mechanisms keep caches coherent:
//!
//! 1. **Version validation on read** (always on, built into
//!    [`crate::AgarNode`] and the baselines): every cached chunk carries
//!    the object version it was encoded from; a read compares it against
//!    the manifest and treats stale chunks as misses.
//! 2. **Invalidation broadcast on write** (this module): a
//!    [`WriteCoordinator`] fans a write out to the backend and then
//!    invalidates the object's chunks in *every* region's Agar node, so
//!    remote caches do not serve an extra round of stale lookups. It
//!    stays invalidate-only where [`AgarNode::write`] updates its own
//!    cache: the coordinator's put runs outside every node, so no
//!    region's cache ever held the bytes it encoded.
//!
//! The paper suggests Paxos for full coherence; with a single
//! authoritative backend per object and monotonically increasing
//! versions, validation + best-effort invalidation already provides
//! read-your-writes from any region in this simulation (the backend's
//! manifest is the linearisation point).

use crate::error::AgarError;
use crate::node::AgarNode;
use agar_ec::ObjectId;
use agar_net::RegionId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// Fans writes out to the backend and invalidates every region's cache.
pub struct WriteCoordinator {
    nodes: Vec<Arc<AgarNode>>,
    backend: Arc<agar_store::Backend>,
    rng: Mutex<StdRng>,
    writes: Mutex<u64>,
}

impl WriteCoordinator {
    /// Creates a coordinator over the given Agar nodes (one per region).
    pub fn new(backend: Arc<agar_store::Backend>, nodes: Vec<Arc<AgarNode>>, seed: u64) -> Self {
        WriteCoordinator {
            nodes,
            backend,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            writes: Mutex::new(0),
        }
    }

    /// Writes `data` to `object` from `writer_region` and broadcasts
    /// invalidations. Returns the new version and the write latency
    /// (invalidation is asynchronous and off the latency path).
    ///
    /// # Errors
    ///
    /// Propagates backend write failures; invalidation is best-effort.
    pub fn write(
        &self,
        writer_region: RegionId,
        object: ObjectId,
        data: &[u8],
    ) -> Result<(u64, Duration), AgarError> {
        let put = {
            let mut rng = self.rng.lock();
            // The backend put is a simulated write that draws its
            // latency sample from this RNG; holding the coordinator's
            // RNG lock across it is what serialises writers.
            self.backend
                // agar-lint: allow(lock-across-blocking)
                .put_object(writer_region, object, data, &mut *rng)?
        };
        for node in &self.nodes {
            node.invalidate_object(object);
        }
        *self.writes.lock() += 1;
        Ok((put.version, put.latency))
    }

    /// Number of coordinated writes so far.
    pub fn writes(&self) -> u64 {
        *self.writes.lock()
    }

    /// The coordinated nodes.
    pub fn nodes(&self) -> &[Arc<AgarNode>] {
        &self.nodes
    }
}

impl std::fmt::Debug for WriteCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteCoordinator")
            .field("nodes", &self.nodes.len())
            .field("writes", &self.writes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{AgarSettings, CachingClient};
    use agar_ec::CodingParams;
    use agar_net::presets::{aws_six_regions, FRANKFURT, SYDNEY};
    use agar_store::{populate, Backend, RoundRobin};

    fn setup() -> (Arc<Backend>, Vec<Arc<AgarNode>>) {
        let preset = aws_six_regions();
        let backend = Arc::new(
            Backend::new(
                preset.topology.clone(),
                Arc::new(preset.latency),
                CodingParams::paper_default(),
                Box::new(RoundRobin),
            )
            .unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(0);
        populate(&backend, 3, 900, &mut rng).unwrap();
        let nodes: Vec<Arc<AgarNode>> = preset
            .topology
            .ids()
            .map(|region| {
                Arc::new(
                    AgarNode::new(
                        region,
                        Arc::clone(&backend),
                        AgarSettings::paper_default(1_800),
                        region.index() as u64,
                    )
                    .unwrap(),
                )
            })
            .collect();
        (backend, nodes)
    }

    fn warm(node: &AgarNode, object: ObjectId) {
        for _ in 0..20 {
            node.read(object).unwrap();
        }
        node.force_reconfigure();
        node.read(object).unwrap(); // fill
    }

    #[test]
    fn write_invalidates_all_regions() {
        let (backend, nodes) = setup();
        let object = ObjectId::new(0);
        // Warm the Frankfurt and Sydney caches.
        warm(&nodes[FRANKFURT.index()], object);
        warm(&nodes[SYDNEY.index()], object);
        assert!(nodes[FRANKFURT.index()]
            .cache_contents()
            .contains_key(&object));
        assert!(nodes[SYDNEY.index()].cache_contents().contains_key(&object));

        let coordinator = WriteCoordinator::new(Arc::clone(&backend), nodes.clone(), 9);
        let payload = vec![3u8; 900];
        let (version, latency) = coordinator.write(FRANKFURT, object, &payload).unwrap();
        assert_eq!(version, 2);
        assert!(latency > Duration::ZERO);
        assert_eq!(coordinator.writes(), 1);

        // Every region's cache dropped the object...
        for node in coordinator.nodes() {
            assert!(!node.cache_contents().contains_key(&object));
        }
        // ...and reads from any region observe the new data.
        let metrics = nodes[SYDNEY.index()].read(object).unwrap();
        assert_eq!(metrics.data.as_ref(), payload.as_slice());
        let metrics = nodes[FRANKFURT.index()].read(object).unwrap();
        assert_eq!(metrics.data.as_ref(), payload.as_slice());
    }

    #[test]
    fn version_validation_alone_guarantees_freshness() {
        // Even WITHOUT broadcast, the version check ensures
        // read-your-writes: a direct backend write leaves stale cached
        // chunks behind, and reads still return fresh data.
        let (backend, nodes) = setup();
        let object = ObjectId::new(1);
        warm(&nodes[SYDNEY.index()], object);
        let mut rng = StdRng::seed_from_u64(4);
        let payload = vec![8u8; 900];
        backend
            .put_object(FRANKFURT, object, &payload, &mut rng)
            .unwrap();
        let metrics = nodes[SYDNEY.index()].read(object).unwrap();
        assert_eq!(metrics.cache_hits, 0);
        assert_eq!(metrics.data.as_ref(), payload.as_slice());
    }

    #[test]
    fn debug_output() {
        let (backend, nodes) = setup();
        let coordinator = WriteCoordinator::new(backend, nodes, 0);
        assert!(format!("{coordinator:?}").contains("WriteCoordinator"));
    }
}

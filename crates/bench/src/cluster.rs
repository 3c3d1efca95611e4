//! The warm multi-node cluster the `mixed` experiment and the cluster
//! acceptance tests run against: `K` Agar nodes behind one
//! [`ClusterRouter`], clients reading through the router, which fans
//! them out to the owning member by consistent hash.

use crate::harness::Deployment;
use agar_cluster::{ClusterRouter, ClusterSettings};
use agar_ec::ObjectId;
use agar_net::RegionId;
use std::sync::Arc;

/// Per-member cache size in paper MB units: 10 "MB" holds any hot set
/// the harnesses use at every cluster size (each owner holds a subset).
const MEMBER_CACHE_MB: f64 = 10.0;

/// Builds a `members`-node cluster in `region` whose caches are warm
/// for objects `0..hot_objects`: every hot object is made popular
/// through routed reads (so its ring owner's monitor sees it), every
/// member reconfigures (downloading its configured chunks a priori),
/// and a verification pass confirms full cache hits.
///
/// Every member, built by `Deployment::agar_node`, hedges up to
/// `max_hedges` speculative backend fetches per read (0 reproduces the
/// unhedged cluster exactly) and, with `trace`, samples every read —
/// the mixed experiment turns that on for its per-stage breakdown
/// columns.
///
/// # Panics
///
/// Panics if a member cannot hold its share of the hot set (caller
/// sizing bug) or a read fails.
pub fn build_warm_cluster(
    deployment: &Deployment,
    region: RegionId,
    members: usize,
    hot_objects: u64,
    max_hedges: usize,
    trace: bool,
    seed: u64,
) -> Arc<ClusterRouter> {
    assert!(members > 0, "need at least one member");
    assert!(hot_objects > 0, "need at least one hot object");
    let router = Arc::new(
        ClusterRouter::new(
            Arc::clone(&deployment.backend),
            ClusterSettings::default(),
            seed,
        )
        .expect("default cluster settings are valid"),
    );
    for i in 0..members {
        router.add_node(deployment.agar_node(
            region,
            deployment.scale.cache_bytes(MEMBER_CACHE_MB),
            seed ^ (i as u64 + 1),
            |settings| {
                settings.max_hedges = max_hedges;
                settings.trace_sample_every = u64::from(trace);
            },
            None,
        ));
    }
    for object in 0..hot_objects {
        for _ in 0..3 {
            router.read(ObjectId::new(object)).expect("warm-up read");
        }
    }
    router.force_reconfigure_all();
    let k = deployment.backend.params().data_chunks();
    for object in 0..hot_objects {
        let metrics = router
            .read(ObjectId::new(object))
            .expect("verification read");
        assert_eq!(
            metrics.metrics().cache_hits,
            k,
            "object {object} not fully cached on its owner; shrink the hot set or grow the caches"
        );
    }
    router
}

//! Set-up: workload parameters, the populated six-region backend, the
//! node or cluster under test, its warm-up — and the payload checks
//! every returned byte goes through.

use agar::{AgarNode, AgarSettings, CachingClient, KnapsackSolver};
use agar_cluster::{ClusterRouter, ClusterSettings};
use agar_ec::{CodingParams, ObjectId};
use agar_net::latency::LatencyModel;
use agar_net::presets::{aws_six_regions, FRANKFURT};
use agar_net::{LatencySpike, RegionId, SpikedLatency};
use agar_store::{populate, Backend, RoundRobin};
use agar_workload::{Distribution, StragglerScenario, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The catalogue every workload populates (the paper's 300 objects).
pub const CATALOGUE: u64 = 300;
/// Key-popularity skew (the paper's Zipf 1.1).
pub const SKEW: f64 = 1.1;

/// How the node is warmed before the timed phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmUp {
    /// Three reads of every hot key, forced reconfiguration, then one
    /// more pass that must find every key fully cached.
    HotSet,
    /// A Zipf stream of this many reads, then a forced reconfiguration.
    Stream(usize),
    /// A Zipf stream, one read of every catalogue object (so the disk
    /// budget sees the long tail), then a forced reconfiguration — the
    /// `experiments -- tiers` warm-up.
    StreamAndSweep(usize),
}

/// Parameters of the three single-node workloads.
#[derive(Clone, Copy, Debug)]
pub struct NodeParams {
    pub name: &'static str,
    pub object_size: usize,
    /// Keys are drawn Zipf-distributed from `0..key_space`.
    pub key_space: u64,
    pub ram_bytes: usize,
    /// 0 = no disk tier.
    pub disk_bytes: usize,
    pub warm_up: WarmUp,
    /// Closed-loop clients. 1 = a plain loop on this OS thread; more =
    /// that many clients on the simulated clock, driven by one thread.
    pub clients: usize,
    /// Whether the 1 s reconfiguration tick (30 s period) runs.
    pub reconfigure: bool,
    /// Operations in the counted window: the exact-class metrics and
    /// every count are taken over the first `window_ops` operations, so
    /// they repeat for a seed whatever the host's speed. Also the length
    /// of the pre-generated key sequence (replayed once exhausted).
    pub window_ops: usize,
    /// Operations per segment (see `stats`).
    pub segment_ops: usize,
    /// Traced run: one operation in `sample_every` gets a shadow read.
    pub sample_every: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

const PAPER_OBJECT: usize = 1_000_000;

impl NodeParams {
    pub fn hot_hit() -> Self {
        NodeParams {
            name: "hot-hit",
            object_size: 9_000,
            key_space: 8,
            ram_bytes: 10 * 9_000, // the paper's "10 MB" at this scale
            disk_bytes: 0,
            warm_up: WarmUp::HotSet,
            clients: 1,
            reconfigure: false,
            window_ops: 262_144,
            segment_ops: 8_192,
            sample_every: 64,
            setups: 15,
        }
    }

    pub fn paper_zipf() -> Self {
        NodeParams {
            name: "paper-zipf",
            object_size: PAPER_OBJECT,
            key_space: CATALOGUE,
            ram_bytes: 10 * PAPER_OBJECT,
            disk_bytes: 0,
            warm_up: WarmUp::Stream(500),
            clients: 2,
            reconfigure: true,
            window_ops: 8_192,
            segment_ops: 128,
            sample_every: 8,
            setups: 3,
        }
    }

    pub fn tiered_pressure() -> Self {
        // 90 KB objects, not the paper's 1 MB: at 1 MB a read through
        // the disk tier costs ~1 ms here and a 10 s run sees too few
        // segments for a steady estimate. The shape — RAM a sixteenth
        // of the catalogue, disk all of it — is what matters.
        let object_size = 90_000;
        let catalogue_bytes = CATALOGUE as usize * object_size;
        NodeParams {
            name: "tiered-pressure",
            object_size,
            key_space: CATALOGUE,
            ram_bytes: catalogue_bytes / 16,
            disk_bytes: catalogue_bytes,
            warm_up: WarmUp::StreamAndSweep(1_000),
            clients: 2,
            reconfigure: true,
            window_ops: 32_768,
            segment_ops: 512,
            sample_every: 8,
            setups: 5,
        }
    }

    /// The same shapes at roughly 1/100 of the work, for `cargo test`.
    pub fn smoke(mut self) -> Self {
        const SMOKE_OBJECT: usize = 9_000;
        let shrink = |bytes: usize| {
            (bytes as u128 * SMOKE_OBJECT as u128 / self.object_size as u128) as usize
        };
        (self.ram_bytes, self.disk_bytes) = (shrink(self.ram_bytes), shrink(self.disk_bytes));
        self.object_size = SMOKE_OBJECT;
        self.warm_up = match self.warm_up {
            WarmUp::HotSet => WarmUp::HotSet,
            WarmUp::Stream(n) => WarmUp::Stream(n / 4),
            WarmUp::StreamAndSweep(n) => WarmUp::StreamAndSweep(n / 4),
        };
        self.window_ops = (self.window_ops / 64).max(256);
        self.segment_ops = (self.segment_ops / 64).max(16);
        self.sample_every = 4;
        self.setups = 1;
        self
    }

    pub fn chunk_size(&self) -> usize {
        CodingParams::paper_default().chunk_size(self.object_size)
    }

    /// The node's settings: paper defaults, the preset's client-side
    /// constants, and — for large budgets — the bounded solver
    /// `experiments -- tiers` uses.
    pub fn settings(&self, trace: bool) -> AgarSettings {
        let preset = aws_six_regions();
        let mut settings = AgarSettings::paper_default(self.ram_bytes);
        settings.cache_read = preset.cache_read;
        settings.client_overhead = preset.client_overhead;
        if self.disk_bytes > 0 {
            settings.disk_capacity_bytes = self.disk_bytes;
            settings.disk_read = Duration::from_millis(45);
            settings.disk_write = Duration::from_millis(60);
        }
        let capacity_chunks = self.ram_bytes.max(self.disk_bytes) / self.chunk_size().max(1);
        if capacity_chunks >= 200 {
            settings.solver = KnapsackSolver::new()
                .with_early_termination(30)
                .with_passes(1);
        }
        // The node's own sim-clock trace; on in the traced run only.
        settings.trace_sample_every = u64::from(trace);
        settings
    }
}

/// Parameters of `cluster-mixed`.
#[derive(Clone, Copy, Debug)]
pub struct ClusterParams {
    pub object_size: usize,
    pub key_space: u64,
    pub members: usize,
    /// RAM per member, in objects.
    pub ram_objects: usize,
    pub max_hedges: usize,
    pub write_ratio: f64,
    /// OS-thread clients.
    pub clients: usize,
    pub warm_up_ops: usize,
    /// Counted window and key-sequence length, per client.
    pub window_ops: usize,
    pub segment_ops: usize,
    pub sample_every: u64,
    pub setups: usize,
}

impl ClusterParams {
    pub fn cluster_mixed() -> Self {
        ClusterParams {
            object_size: 90_000,
            key_space: 64,
            members: 3,
            ram_objects: 16,
            max_hedges: 2,
            write_ratio: 0.2,
            clients: 2,
            warm_up_ops: 2_000,
            window_ops: 131_072,
            segment_ops: 2_048,
            sample_every: 8,
            setups: 5,
        }
    }

    pub fn smoke(mut self) -> Self {
        self.object_size = 9_000;
        self.warm_up_ops /= 4;
        self.window_ops /= 64;
        self.segment_ops /= 64;
        self.sample_every = 4;
        self.setups = 1;
        self
    }
}

/// The populated store plus the region the clients live in.
pub struct Deployment {
    pub backend: Arc<Backend>,
    pub region: RegionId,
}

/// Builds the six-region backend (latency matrix anchored at this
/// object size's chunk size, as every experiment does) and populates
/// the catalogue. `scenario` overlays latency spikes on the model.
pub fn build_backend(object_size: usize, scenario: &StragglerScenario) -> Deployment {
    let mut preset = aws_six_regions();
    let chunk = CodingParams::paper_default().chunk_size(object_size);
    preset.latency = preset.latency.clone().with_nominal_bytes(chunk);
    let spikes: Vec<LatencySpike> = scenario
        .spikes
        .iter()
        .map(|s| LatencySpike {
            region: RegionId::new(s.region),
            every: s.every,
            factor: s.factor,
        })
        .collect();
    let model: Arc<dyn LatencyModel> = if spikes.is_empty() {
        Arc::new(preset.latency.clone())
    } else {
        Arc::new(SpikedLatency::new(Arc::new(preset.latency.clone()), spikes))
    };
    let backend = Backend::new(
        preset.topology.clone(),
        model,
        CodingParams::paper_default(),
        Box::new(RoundRobin),
    )
    .expect("preset deployment is valid");
    // Population draws only simulated write latencies from this RNG.
    let mut rng = StdRng::seed_from_u64(0xA6A2);
    populate(&backend, CATALOGUE, object_size, &mut rng).expect("healthy deployment");
    Deployment {
        backend: Arc::new(backend),
        region: FRANKFURT,
    }
}

/// A Zipf read stream over `0..key_space`.
pub fn zipf_keys(key_space: u64, object_size: usize, ops: usize, seed: u64) -> Vec<u32> {
    WorkloadSpec {
        object_count: key_space,
        object_size,
        operations: ops,
        read_fraction: 1.0,
        distribution: Distribution::Zipfian { skew: SKEW },
    }
    .stream(seed)
    .expect("valid workload spec")
    .map(|op| op.key() as u32)
    .collect()
}

/// One complete single-node set-up: populate, build, warm, reconfigure.
pub fn setup_node(params: &NodeParams, seed: u64, trace: bool) -> (Deployment, Arc<AgarNode>) {
    let deployment = build_backend(params.object_size, &StragglerScenario::calm());
    let node = Arc::new(
        AgarNode::new(
            deployment.region,
            Arc::clone(&deployment.backend),
            params.settings(trace),
            seed ^ 0x5EED,
        )
        .expect("valid settings"),
    );
    let read = |key: u64| {
        node.read(ObjectId::new(key)).expect("warm-up read");
    };
    match params.warm_up {
        WarmUp::HotSet => {
            for key in 0..params.key_space {
                (0..3).for_each(|_| read(key));
            }
            node.force_reconfigure();
            let k = deployment.backend.params().data_chunks();
            for key in 0..params.key_space {
                let metrics = node.read(ObjectId::new(key)).expect("verification read");
                assert_eq!(metrics.cache_hits, k, "hot object {key} not fully cached");
            }
        }
        WarmUp::Stream(ops) | WarmUp::StreamAndSweep(ops) => {
            for key in zipf_keys(params.key_space, params.object_size, ops, seed ^ 0x3A3A) {
                read(u64::from(key));
            }
            if matches!(params.warm_up, WarmUp::StreamAndSweep(_)) {
                (0..CATALOGUE).for_each(read);
            }
            node.force_reconfigure();
        }
    }
    (deployment, node)
}

/// One complete cluster set-up: populate (with the spike scenario),
/// build the members, route a warm-up stream, reconfigure everyone and
/// replay the stream so configured chunks are resident.
pub fn setup_cluster(
    params: &ClusterParams,
    seed: u64,
    trace: bool,
) -> (Deployment, Arc<ClusterRouter>) {
    let deployment = build_backend(params.object_size, &StragglerScenario::slow_spikes());
    let preset = aws_six_regions();
    let mut settings = AgarSettings::paper_default(params.ram_objects * params.object_size);
    settings.cache_read = preset.cache_read;
    settings.client_overhead = preset.client_overhead;
    settings.max_hedges = params.max_hedges;
    settings.trace_sample_every = u64::from(trace);
    let router = Arc::new(
        ClusterRouter::new(
            Arc::clone(&deployment.backend),
            ClusterSettings::default(),
            seed ^ 0xC1A5,
        )
        .expect("default cluster settings are valid"),
    );
    for member in 0..params.members {
        let node = AgarNode::new(
            deployment.region,
            Arc::clone(&deployment.backend),
            settings.clone(),
            seed ^ (member as u64 + 1),
        )
        .expect("valid settings");
        router.add_node(Arc::new(node));
    }
    let warm = zipf_keys(
        params.key_space,
        params.object_size,
        params.warm_up_ops,
        seed ^ 0x3A3A,
    );
    for pass in 0..2 {
        for &key in &warm {
            router
                .read(ObjectId::new(u64::from(key)))
                .expect("warm-up read");
        }
        if pass == 0 {
            router.force_reconfigure_all();
        }
    }
    (deployment, router)
}

/// Runs `build` `setups` times, dropping each result before the next
/// is built, and returns the last one with the median build time.
pub fn timed_setups<T>(setups: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::with_capacity(setups);
    let mut last = None;
    for _ in 0..setups.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        seconds.push(start.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        crate::stats::median(&seconds),
    )
}

// ---- payload verification -------------------------------------------

/// Byte `j` of the pristine payload `populate` wrote for object `key`.
fn pristine_byte(key: u64, j: usize) -> u8 {
    (key.wrapping_mul(31).wrapping_add(j as u64 * 7) % 251) as u8
}

/// How many head and tail bytes every read is checked against.
const EDGE: usize = 32;

/// Checks a pristine (never rewritten) object: length and head/tail
/// bytes always, every byte when `full`.
pub fn verify_pristine(key: u64, size: usize, data: &[u8], full: bool) -> bool {
    if data.len() != size {
        return false;
    }
    let matches = |j: usize| data[j] == pristine_byte(key, j);
    if full {
        return (0..size).all(matches);
    }
    let edge = EDGE.min(size);
    (0..edge).all(matches) && (size - edge..size).all(matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_store::expected_payload;

    #[test]
    fn pristine_check_agrees_with_the_store() {
        let payload = expected_payload(7, 9_000);
        assert!(verify_pristine(7, 9_000, &payload, true));
        assert!(verify_pristine(7, 9_000, &payload, false));
        assert!(!verify_pristine(8, 9_000, &payload, false), "wrong object");
        assert!(
            !verify_pristine(7, 9_000, &payload[..8_999], false),
            "short"
        );
        let mut torn = payload.clone();
        torn[4_500] ^= 1;
        assert!(verify_pristine(7, 9_000, &torn, false), "edges still match");
        assert!(
            !verify_pristine(7, 9_000, &torn, true),
            "full compare sees it"
        );
        torn[8_999] ^= 1;
        assert!(!verify_pristine(7, 9_000, &torn, false), "tail byte");
    }

    #[test]
    fn smoke_scale_keeps_the_shape() {
        let tiered = NodeParams::tiered_pressure().smoke();
        assert_eq!(
            tiered.ram_bytes * 16,
            CATALOGUE as usize * tiered.object_size
        );
        assert_eq!(tiered.disk_bytes, CATALOGUE as usize * tiered.object_size);
        assert_eq!(NodeParams::hot_hit().smoke().object_size, 9_000);
        let keys = zipf_keys(8, 9_000, 1_000, 1);
        assert!(keys.iter().all(|&k| k < 8));
        assert_eq!(keys, zipf_keys(8, 9_000, 1_000, 1), "same seed, same keys");
        assert_ne!(keys, zipf_keys(8, 9_000, 1_000, 2));
    }
}

//! Chaos suite (ISSUE 10): deterministic fault injection against the
//! hardened read/write paths, across a seed sweep.
//!
//! Every scenario family asserts the same safety core — zero stale
//! reads and zero torn decodes: a successful read always returns the
//! exact expected payload; a read that cannot complete fails loudly
//! (`ReadContention` / `RegionUnavailable`), never silently returns
//! old or mixed bytes. On top of that each family checks its own
//! liveness property: partitions reroute instead of stalling, flaky
//! fetches stay within the retry-amplification budget, a crashed lease
//! owner is fenced by the next writer, and disk corruption degrades to
//! backend fetches while being counted.

use agar::{
    AgarError, AgarNode, AgarSettings, BreakerPolicy, CachingClient, DirectFetcher, RetryPolicy,
};
use agar_bench::{Deployment, Scale};
use agar_chaos::{ChaosClock, ChaosPlane, ChaosSpec, FetchFaultSpec};
use agar_cluster::{ClusterRouter, ClusterSettings};
use agar_ec::ObjectId;
use agar_net::presets::TOKYO;
use agar_net::SimTime;
use agar_obs::LatencyHistogram;
use agar_store::expected_payload;
use agar_workload::{FailureCycle, FlakyRegion};
use std::sync::Arc;
use std::time::Duration;

/// The sweep: every scenario must hold under each of these seeds.
const SEEDS: [u64; 3] = [0x11, 0x22, 0x33];

/// Objects the drive loop cycles through.
const OBJECTS: u64 = 6;

/// Retry policy for the hardened cells: one extra attempt over the
/// historical loop, priced backoff, and a per-read deadline.
fn hardened_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 5,
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(200),
        deadline: Duration::from_secs(2),
    }
}

fn hardened_breaker() -> BreakerPolicy {
    BreakerPolicy {
        failure_threshold: 2,
        cooldown: Duration::from_secs(5),
    }
}

/// A single-node rig behind a chaos plane on a manually-advanced
/// simulated clock.
struct Rig {
    deployment: Deployment,
    node: Arc<AgarNode>,
    plane: Arc<ChaosPlane>,
    clock: ChaosClock,
    now: SimTime,
}

impl Rig {
    fn build(mut spec: ChaosSpec, retry: RetryPolicy, breaker: BreakerPolicy, seed: u64) -> Rig {
        let deployment = Deployment::build(Scale::tiny());
        let mut settings = AgarSettings::paper_default(64 * 1024);
        settings.retry = retry;
        settings.breaker = breaker;
        let node = Arc::new(
            AgarNode::new(
                deployment.region("Frankfurt"),
                Arc::clone(&deployment.backend),
                settings,
                seed,
            )
            .unwrap(),
        );
        spec.seed = seed;
        let clock = ChaosClock::new();
        let plane = Arc::new(ChaosPlane::new(
            Arc::new(DirectFetcher::new(Arc::clone(&deployment.backend))),
            spec,
            clock.clone(),
        ));
        node.set_chunk_fetcher(Arc::clone(&plane) as _);
        Rig {
            deployment,
            node,
            plane,
            clock,
            now: SimTime::ZERO,
        }
    }

    /// Drives `ops` closed-loop reads, asserting every successful read
    /// decodes the exact expected payload (zero stale reads, zero torn
    /// decodes). Returns (per-read outcome latencies, error count,
    /// total successful backend fetches).
    fn drive(&mut self, ops: u64) -> (Vec<Duration>, usize, u64) {
        let mut latencies = Vec::with_capacity(ops as usize);
        let mut errors = 0usize;
        let mut fetches = 0u64;
        let size = self.deployment.scale.object_size;
        for i in 0..ops {
            self.clock.set(self.now);
            self.node.set_sim_now(self.now);
            self.node.maybe_reconfigure(self.now);
            let key = i % OBJECTS;
            match self.node.read(ObjectId::new(key)) {
                Ok(metrics) => {
                    assert_eq!(
                        metrics.data.as_ref(),
                        expected_payload(key, size).as_slice(),
                        "stale or torn decode for object {key} at op {i}"
                    );
                    fetches += metrics.backend_fetches as u64;
                    latencies.push(metrics.latency);
                    self.now += metrics.latency;
                }
                Err(_) => {
                    errors += 1;
                    latencies.push(Duration::from_secs(2));
                    self.now += Duration::from_secs(2);
                }
            }
        }
        (latencies, errors, fetches)
    }
}

/// One finite partition window: Tokyo drops out at t=5s for 20s, then
/// stays healed for the rest of the run.
fn one_partition() -> ChaosSpec {
    ChaosSpec {
        outages: vec![FlakyRegion {
            region: TOKYO.index() as u16,
            cycle: FailureCycle {
                first_failure_s: 5,
                down_s: 20,
                period_s: 1_000_000,
            },
        }],
        ..ChaosSpec::quiet()
    }
}

/// Mild probabilistic fetch errors in periodic windows.
fn flaky_fetches() -> ChaosSpec {
    ChaosSpec {
        fetch_faults: Some(FetchFaultSpec {
            per_1024: 30,
            cycle: FailureCycle {
                first_failure_s: 3,
                down_s: 12,
                period_s: 24,
            },
        }),
        ..ChaosSpec::quiet()
    }
}

/// Partition family: a region outage must reroute reads — zero
/// errors, correct payloads — and once the region heals, the tail must
/// recover to the calm baseline.
#[test]
fn partition_reroutes_and_recovers_after_heal() {
    for seed in SEEDS {
        let mut calm = Rig::build(
            ChaosSpec::quiet(),
            hardened_retry(),
            hardened_breaker(),
            seed,
        );
        let (calm_lat, calm_errors, _) = calm.drive(200);
        assert_eq!(calm_errors, 0, "seed {seed:#x}: calm run must not error");

        let mut rig = Rig::build(one_partition(), hardened_retry(), hardened_breaker(), seed);
        let (lat, errors, _) = rig.drive(200);
        assert_eq!(
            errors, 0,
            "seed {seed:#x}: partition must reroute, not fail"
        );
        assert!(
            rig.plane.counters().partition_faults.get() > 0,
            "seed {seed:#x}: the outage never fired"
        );
        assert!(
            rig.node.retries() > 0,
            "seed {seed:#x}: rerouting must charge the retry budget"
        );

        // Post-heal recovery: the last quarter of the run happens long
        // after the 25 s outage window; its P99 must sit within 10% of
        // the calm baseline's over the same ops.
        let tail_ops = 50;
        let [healed, baseline] = [&lat, &calm_lat].map(|run| {
            let mut histogram = LatencyHistogram::new();
            for &latency in &run[run.len() - tail_ops..] {
                histogram.record(latency);
            }
            histogram.percentile(0.99)
        });
        assert!(
            healed <= baseline.mul_f64(1.10),
            "seed {seed:#x}: post-heal P99 {healed:?} above 1.1x calm {baseline:?}"
        );
    }
}

/// Partition family, breaker liveness: consecutive injected failures
/// must trip the region open (excluding it from plans) and the
/// post-heal probe must close it again.
#[test]
fn breaker_trips_open_on_a_partition_and_recloses_after_heal() {
    // Threshold 1: the region manager already reroutes plans after the
    // first failure (the region sorts last), so a partitioned region
    // records one failure per outage, not a streak — the streak
    // threshold is for flapping regions that keep getting planned.
    let trigger_happy = BreakerPolicy {
        failure_threshold: 1,
        cooldown: Duration::from_secs(5),
    };
    for seed in SEEDS {
        let mut rig = Rig::build(one_partition(), hardened_retry(), trigger_happy, seed);
        let (_, errors, _) = rig.drive(250);
        assert_eq!(errors, 0, "seed {seed:#x}");
        let breaker = rig.node.breaker();
        assert!(
            breaker.counters().opens.get() > 0,
            "seed {seed:#x}: breaker never tripped"
        );
        assert!(
            breaker.counters().probes.get() > 0,
            "seed {seed:#x}: no half-open probe"
        );
        assert_eq!(
            breaker.open_regions(),
            0,
            "seed {seed:#x}: a region is still open long after the heal"
        );
    }
}

/// Flaky-fetch family: probabilistic per-fetch errors must be absorbed
/// by the retry budget — correct payloads, bounded amplification.
#[test]
fn flaky_fetch_errors_stay_within_the_retry_budget() {
    for seed in SEEDS {
        let mut calm = Rig::build(
            ChaosSpec::quiet(),
            hardened_retry(),
            hardened_breaker(),
            seed,
        );
        let (_, _, calm_fetches) = calm.drive(200);

        let mut rig = Rig::build(flaky_fetches(), hardened_retry(), hardened_breaker(), seed);
        let (_, errors, fetches) = rig.drive(200);
        assert_eq!(errors, 0, "seed {seed:#x}: budget must absorb the faults");
        assert!(
            rig.plane.counters().fetch_error_faults.get() > 0,
            "seed {seed:#x}: the fault schedule never fired"
        );
        assert!(rig.node.retries() > 0, "seed {seed:#x}");
        // Retry amplification: a read's re-plans and version-race
        // restarts draw on one budget, so it makes at most max_attempts
        // passes, and the blow-up stays within max_attempts x the calm
        // fetch volume.
        let budget = calm_fetches * u64::from(hardened_retry().max_attempts);
        assert!(
            fetches <= budget,
            "seed {seed:#x}: {fetches} fetches exceed the {budget} budget"
        );
        // Backoff was actually priced into the failed attempts.
        assert!(
            rig.node.counters().retry_backoff_micros.get() > 0,
            "seed {seed:#x}"
        );
    }
}

/// Owner-crash family: a writer that dies mid-write (manifest landed,
/// chunks torn, lease never released) must leave the object loudly
/// unreadable — never a stale or mixed decode — until the next writer
/// fences the poisoned lease and repairs the object.
#[test]
fn owner_crash_mid_write_fences_and_repairs() {
    for seed in SEEDS {
        let deployment = Deployment::build(Scale::tiny());
        let size = deployment.scale.object_size;
        let router = Arc::new(
            ClusterRouter::new(
                Arc::clone(&deployment.backend),
                ClusterSettings::default(),
                seed,
            )
            .unwrap(),
        );
        for i in 0..3u64 {
            let node = Arc::new(
                AgarNode::new(
                    deployment.region("Frankfurt"),
                    Arc::clone(&deployment.backend),
                    AgarSettings::paper_default(32 * 1024),
                    seed ^ i,
                )
                .unwrap(),
            );
            router.add_node(node);
        }
        // Every member, not only the owner, holds the object.
        let object = ObjectId::new(0);
        let members = router.member_ids();
        for _ in 0..10 {
            for &id in &members {
                router.read_from(id, object).unwrap();
            }
        }
        router.force_reconfigure_all();
        for &id in &members {
            router.read_from(id, object).unwrap();
            let member = router.member(id).unwrap();
            assert!(member.cache_contents().contains_key(&object));
        }

        // The owner acquires the lease, writes the manifest plus a few
        // chunks, and dies without releasing.
        let owner = router.ring().owner_of_object(object).unwrap();
        let lease = router.lease_manager().acquire(object);
        let torn_version = deployment
            .backend
            .put_object_interrupted(object, &vec![0xAB; size], 4)
            .unwrap();
        lease.crash();
        router.crash_node(owner).unwrap();

        // The slot is free (no deadlock).
        assert_eq!(router.lease_manager().active_leases(), 0);

        // The torn object is loudly unreadable: the version check
        // rejects every mixed assembly. Never stale pristine bytes.
        match router.read(object) {
            Err(AgarError::ReadContention { .. }) => {}
            Err(other) => panic!("seed {seed:#x}: unexpected error {other}"),
            Ok(metrics) => panic!(
                "seed {seed:#x}: torn object decoded {} bytes",
                metrics.metrics().data.len()
            ),
        }

        // The next writer fences the poisoned lease and repairs, and
        // leaves only the new owner holding the object.
        let repaired = vec![0xCD; size];
        let metrics = router.write(object, &repaired).unwrap();
        assert_eq!(metrics.version, torn_version + 1);
        assert_eq!(
            router.lease_manager().fences(),
            1,
            "seed {seed:#x}: the poisoned lease was not fenced"
        );
        for id in router.member_ids() {
            let held = router.member(id).unwrap().cache_contents();
            assert_eq!(
                held.contains_key(&object),
                id == metrics.home,
                "seed {seed:#x}: member {id}"
            );
        }
        for _ in 0..2 {
            let read = router.read(object).unwrap();
            assert_eq!(read.metrics().data.as_ref(), repaired.as_slice());
        }
        assert_eq!(router.lease_manager().active_leases(), 0);
    }
}

/// Disk-corruption family: flipping bytes in live disk segments under
/// traffic must degrade to backend fetches — correct payloads, with
/// every bad frame counted.
#[test]
fn disk_corruption_under_live_traffic_degrades_and_is_counted() {
    for seed in SEEDS {
        let deployment = Deployment::build(Scale::tiny());
        let size = deployment.scale.object_size;
        let mut settings = AgarSettings::paper_default(size);
        settings.disk_capacity_bytes = 4 * size;
        settings.disk_read = Duration::from_millis(45);
        settings.disk_write = Duration::from_millis(60);
        let node = AgarNode::new(
            deployment.region("Frankfurt"),
            Arc::clone(&deployment.backend),
            settings,
            seed,
        )
        .unwrap();
        for _ in 0..20 {
            for i in 0..4u64 {
                node.read(ObjectId::new(i)).unwrap();
            }
        }
        node.force_reconfigure();
        for i in 0..4u64 {
            node.read(ObjectId::new(i)).unwrap();
        }
        let paths = node.disk_segment_paths();
        assert!(!paths.is_empty(), "seed {seed:#x}: no disk segments");
        let flipped = agar_chaos::corrupt_segments(&paths, seed, 64).unwrap();
        assert!(flipped > 0, "seed {seed:#x}: nothing corrupted");

        // Traffic continues: every read still decodes the exact
        // payload, sourcing damaged chunks from the backend.
        for round in 0..3 {
            for i in 0..4u64 {
                let metrics = node.read(ObjectId::new(i)).unwrap();
                assert_eq!(
                    metrics.data.as_ref(),
                    expected_payload(i, size).as_slice(),
                    "seed {seed:#x} round {round}: corrupted read"
                );
            }
        }
        assert!(
            node.disk_corrupt_frames() > 0,
            "seed {seed:#x}: corruption was never detected"
        );
    }
}

/// Combined family: partition + flaky fetches at once, hardened
/// policies. The read path must stay correct and recover.
#[test]
fn combined_faults_are_survived_with_hardened_policies() {
    for seed in SEEDS {
        let spec = ChaosSpec {
            outages: one_partition().outages,
            fetch_faults: flaky_fetches().fetch_faults,
            ..ChaosSpec::quiet()
        };
        // Stacked fault sources need a deeper budget than either alone:
        // an attempt can lose one fetch to the partition and the next
        // to an injected error, so give the loop more headroom.
        let deep_retry = RetryPolicy {
            max_attempts: 8,
            ..hardened_retry()
        };
        let mut rig = Rig::build(spec, deep_retry, hardened_breaker(), seed);
        let (_, errors, _) = rig.drive(250);
        assert_eq!(
            errors, 0,
            "seed {seed:#x}: combined faults must be survived"
        );
        assert!(
            rig.plane.counters().partition_faults.get() > 0,
            "seed {seed:#x}"
        );
        assert!(
            rig.plane.counters().fetch_error_faults.get() > 0,
            "seed {seed:#x}"
        );
    }
}

/// Determinism: the same seed yields a byte-identical fault schedule
/// and byte-identical results; different seeds differ.
#[test]
fn fault_schedules_and_results_replay_bit_identically_per_seed() {
    let run = |seed: u64| {
        let mut rig = Rig::build(flaky_fetches(), hardened_retry(), hardened_breaker(), seed);
        let (latencies, errors, fetches) = rig.drive(150);
        (
            latencies,
            errors,
            fetches,
            rig.plane.counters().faults_injected.get(),
            rig.node.retries(),
            format!("{:?}", rig.node.cache_stats()),
        )
    };
    for seed in SEEDS {
        assert_eq!(run(seed), run(seed), "seed {seed:#x} replay diverged");
    }
    assert_ne!(
        run(SEEDS[0]).3,
        run(SEEDS[1]).3,
        "different seeds drew the same fault schedule"
    );
}

/// Byte-identity when disabled: a node behind a quiet chaos plane with
/// default retry/breaker policies must be indistinguishable from a
/// plain pre-chaos node — same latency bit patterns, same counters.
#[test]
fn quiet_plane_and_default_policies_are_byte_identical_to_a_plain_node() {
    let run = |wrap: bool| {
        let deployment = Deployment::build(Scale::tiny());
        let settings = AgarSettings::paper_default(64 * 1024);
        assert_eq!(settings.retry, RetryPolicy::default());
        assert_eq!(settings.breaker, BreakerPolicy::default());
        let node = AgarNode::new(
            deployment.region("Frankfurt"),
            Arc::clone(&deployment.backend),
            settings,
            7,
        )
        .unwrap();
        if wrap {
            let plane = Arc::new(ChaosPlane::new(
                Arc::new(DirectFetcher::new(Arc::clone(&deployment.backend))),
                ChaosSpec::quiet(),
                ChaosClock::new(),
            ));
            node.set_chunk_fetcher(plane as _);
        }
        let latencies: Vec<Duration> = (0..60u64)
            .map(|i| node.read(ObjectId::new(i % OBJECTS)).unwrap().latency)
            .collect();
        (latencies, format!("{:?}", node.cache_stats()))
    };
    let plain = run(false);
    let wrapped = run(true);
    assert_eq!(plain, wrapped, "a quiet chaos plane perturbed the engine");
}

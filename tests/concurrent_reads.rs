//! Concurrency smoke tests: several OS threads sharing one `AgarNode`.
//!
//! The node's read path is a staged pipeline over independently locked
//! concerns (sharded cache, monitor, region manager, config snapshot) —
//! these tests pin down that (a) concurrent reads return correct data,
//! (b) the accounting invariant `cache hits + backend fetches == k`
//! holds per read and in aggregate, (c) reads, writes and
//! reconfigurations interleave without deadlock, and (d) a
//! single-threaded replay after all that is still deterministic per
//! seed. Whether a cache-hit-heavy workload scales with threads is a
//! wall-clock question for the `bench/` benchmark, not a test here.

use agar::{AgarError, AgarNode, AgarSettings, CachingClient};
use agar_ec::{CodingParams, ObjectId};
use agar_net::presets::{aws_six_regions, FRANKFURT};
use agar_store::{expected_payload, populate, Backend, RoundRobin};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const K: usize = 9; // RS(9, 3) data chunks

fn shared_node(objects: u64, cache_bytes: usize) -> Arc<AgarNode> {
    node_with(objects, AgarSettings::paper_default(cache_bytes))
}

fn node_with(objects: u64, settings: AgarSettings) -> Arc<AgarNode> {
    let preset = aws_six_regions();
    let backend = Backend::new(
        preset.topology,
        Arc::new(preset.latency),
        CodingParams::paper_default(),
        Box::new(RoundRobin),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    populate(&backend, objects, 900, &mut rng).unwrap();
    Arc::new(AgarNode::new(FRANKFURT, Arc::new(backend), settings, 7).unwrap())
}

#[test]
fn concurrent_reads_are_correct_and_stats_add_up() {
    let objects = 6u64;
    // Cache fits two objects: a mix of hits, partial hits and misses.
    let node = shared_node(objects, 1_800);
    // Warm objects 0 and 1.
    for object in 0..2 {
        for _ in 0..20 {
            node.read(ObjectId::new(object)).unwrap();
        }
    }
    node.force_reconfigure();
    let warm_reads = 2 * 20;

    let threads = 8;
    let reads_per_thread = 40;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let node = Arc::clone(&node);
            scope.spawn(move || {
                for i in 0..reads_per_thread {
                    let object = ((t + i) % objects as usize) as u64;
                    let metrics = node.read(ObjectId::new(object)).unwrap();
                    assert_eq!(
                        metrics.data.as_ref(),
                        expected_payload(object, 900).as_slice(),
                        "thread {t} read {i} returned corrupt data"
                    );
                    // Every chunk served came from the cache or the
                    // backend — nothing is double-counted or dropped.
                    assert_eq!(
                        metrics.cache_hits + metrics.backend_fetches,
                        K,
                        "thread {t} read {i}: hits + fetches != k"
                    );
                }
            });
        }
    });

    let stats = node.cache_stats();
    let total_reads = warm_reads + threads * reads_per_thread;
    assert_eq!(
        stats.object_reads(),
        total_reads as u64,
        "every read must be accounted exactly once"
    );
    assert!(stats.object_total_hits() > 0, "warm objects should hit");
    assert!(stats.object_misses() > 0, "cold objects should miss");
}

#[test]
fn reads_writes_and_reconfigurations_interleave_without_deadlock() {
    let objects = 4u64;
    let node = shared_node(objects, 3_600);
    for object in 0..objects {
        for _ in 0..10 {
            node.read(ObjectId::new(object)).unwrap();
        }
    }
    node.force_reconfigure();

    std::thread::scope(|scope| {
        // Readers: object versions change under them, so only the
        // accounting invariant (not payload content) is asserted.
        for t in 0..4 {
            let node = Arc::clone(&node);
            scope.spawn(move || {
                for i in 0..60 {
                    let object = ((t + i) % objects as usize) as u64;
                    let metrics = loop {
                        match node.read(ObjectId::new(object)) {
                            Ok(metrics) => break metrics,
                            // Every attempt raced one of the writer's
                            // back-to-back writes: a documented outcome.
                            Err(AgarError::ReadContention { .. }) => continue,
                            Err(e) => panic!("racing read failed: {e}"),
                        }
                    };
                    assert_eq!(metrics.cache_hits + metrics.backend_fetches, K);
                }
            });
        }
        // A writer invalidating cached chunks.
        {
            let node = Arc::clone(&node);
            scope.spawn(move || {
                for round in 0..5u8 {
                    let payload = vec![round + 1; 900];
                    node.write(ObjectId::new(0), &payload).unwrap();
                }
            });
        }
        // A reconfiguration ticker.
        {
            let node = Arc::clone(&node);
            scope.spawn(move || {
                for _ in 0..5 {
                    node.force_reconfigure();
                    std::thread::yield_now();
                }
            });
        }
    });

    assert!(node.reconfigurations() >= 6);
    // A final read sees the last written version.
    let metrics = node.read(ObjectId::new(0)).unwrap();
    assert_eq!(metrics.data.as_ref(), vec![5u8; 900].as_slice());
}

/// Readers racing reconfigurations — whose re-tier step moves chunks
/// between RAM and disk under them — and a writer only ever decode a
/// whole object, no older than the newest write that completed before
/// the read began.
#[test]
fn tiered_readers_racing_reconfigurations_see_whole_current_objects() {
    const OBJECTS: u64 = 6;
    // RAM fits one object, the disk tier the rest of the catalogue.
    let mut settings = AgarSettings::paper_default(900);
    settings.disk_capacity_bytes = 16 * 900;
    settings.disk_read = Duration::from_millis(45);
    settings.disk_write = Duration::from_millis(60);
    let node = node_with(OBJECTS, settings);
    for object in 0..OBJECTS {
        node.read(ObjectId::new(object)).unwrap();
    }
    node.force_reconfigure();
    assert!(node.current_config().disk_chunks() > 0, "disk tier unused");

    // Object 0 is rewritten with constant fills 1, 2, …; `completed`
    // is the newest fill whose write has returned.
    let completed = AtomicU8::new(0);
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(4);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                barrier.wait();
                let mut sweeps = 0;
                while !done.load(Ordering::Acquire) || sweeps == 0 {
                    for object in 0..OBJECTS {
                        let floor = completed.load(Ordering::Acquire);
                        let data = match node.read(ObjectId::new(object)) {
                            Ok(metrics) => metrics.data,
                            // Three racing attempts in a row: an
                            // explicit outcome, never silent staleness.
                            Err(AgarError::ReadContention { .. }) => continue,
                            Err(e) => panic!("racing read failed: {e}"),
                        };
                        if data.as_ref() == expected_payload(object, 900).as_slice() {
                            assert!(object != 0 || floor == 0, "pristine after write {floor}");
                        } else {
                            let fill = data[0];
                            assert_eq!(object, 0, "only object 0 is rewritten");
                            assert!(data.iter().all(|&b| b == fill), "mixed versions");
                            assert!(fill >= floor, "read fill {fill} after {floor} completed");
                        }
                    }
                    sweeps += 1;
                }
            });
        }
        scope.spawn(|| {
            barrier.wait();
            for fill in 1..=40u8 {
                node.write(ObjectId::new(0), &vec![fill; 900]).unwrap();
                completed.store(fill, Ordering::Release);
            }
        });
        barrier.wait();
        // The hot object changes every round, so every epoch re-tiers.
        for round in 0..40u64 {
            for _ in 0..6 {
                let _ = node.read(ObjectId::new(round % OBJECTS));
            }
            node.force_reconfigure();
        }
        done.store(true, Ordering::Release);
    });

    let stats = node.cache_stats();
    assert!(stats.tier_promotions() > 0 && stats.tier_demotions() > 0);
    assert_eq!(node.disk_corrupt_frames(), 0);
    let last = node.read(ObjectId::new(0)).unwrap();
    assert_eq!(last.data.as_ref(), vec![40u8; 900].as_slice());
}

#[test]
fn single_threaded_reads_stay_deterministic_after_concurrency() {
    // Two fresh nodes, same seed, same operation sequence: identical
    // metrics. (The per-operation derived RNGs must not depend on
    // anything but the operation order.)
    let run = || {
        let node = shared_node(3, 1_800);
        let mut log = Vec::new();
        for i in 0..30u64 {
            let metrics = node.read(ObjectId::new(i % 3)).unwrap();
            log.push((metrics.latency, metrics.cache_hits, metrics.backend_fetches));
        }
        node.force_reconfigure();
        for i in 0..30u64 {
            let metrics = node.read(ObjectId::new(i % 3)).unwrap();
            log.push((metrics.latency, metrics.cache_hits, metrics.backend_fetches));
        }
        log
    };
    assert_eq!(run(), run());
}

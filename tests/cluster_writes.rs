//! Race suite for the cluster write path: per-object write leases, the
//! invalidation of every other member, and the absence of the old
//! state-lock serialisation.
//!
//! The acceptance bar: concurrent sibling readers during writes never
//! decode mixed versions; same-object writers serialise on the lease
//! while distinct-object writers (and membership changes) proceed in
//! parallel; a membership change mid-write neither deadlocks nor leaks
//! a lease; and once a test's last write of an object quiesces, only
//! the object's owner holds it.

use agar::{AgarError, AgarNode, AgarSettings, CachingClient};
use agar_cluster::{ClusterRouter, ClusterSettings};
use agar_ec::{CodingParams, ObjectId};
use agar_net::presets::{aws_six_regions, FRANKFURT};
use agar_store::{expected_payload, populate, Backend, RoundRobin};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const SIZE: usize = 900;

fn backend(objects: u64) -> Arc<Backend> {
    let preset = aws_six_regions();
    let backend = Backend::new(
        preset.topology,
        Arc::new(preset.latency),
        CodingParams::paper_default(),
        Box::new(RoundRobin),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    populate(&backend, objects, SIZE, &mut rng).unwrap();
    Arc::new(backend)
}

fn node(backend: &Arc<Backend>, seed: u64) -> Arc<AgarNode> {
    Arc::new(
        AgarNode::new(
            FRANKFURT,
            Arc::clone(backend),
            AgarSettings::paper_default(3 * SIZE),
            seed,
        )
        .unwrap(),
    )
}

fn cluster(backend: &Arc<Backend>, members: usize) -> Arc<ClusterRouter> {
    let router = ClusterRouter::new(Arc::clone(backend), ClusterSettings::default(), 7).unwrap();
    for i in 0..members {
        router.add_node(node(backend, i as u64));
    }
    Arc::new(router)
}

/// A member with a two-tier cache: RAM fits roughly one object, the
/// disk tier holds the rest of the catalogue.
fn tiered_node(backend: &Arc<Backend>, seed: u64) -> Arc<AgarNode> {
    let mut settings = AgarSettings::paper_default(SIZE);
    settings.disk_capacity_bytes = 16 * SIZE;
    settings.disk_read = Duration::from_millis(45);
    settings.disk_write = Duration::from_millis(60);
    Arc::new(AgarNode::new(FRANKFURT, Arc::clone(backend), settings, seed).unwrap())
}

/// Checked once the last routed write of `object` has quiesced: no
/// member but the object's ring owner holds a chunk of it. The write
/// invalidated every other member, and routed reads fill only the
/// owner.
fn assert_only_the_owner_holds(router: &ClusterRouter, object: ObjectId) {
    let owner = router.ring().owner_of_object(object).unwrap();
    for id in router.member_ids().into_iter().filter(|&id| id != owner) {
        let member = router.member(id).unwrap();
        assert!(
            !member.cache_contents().contains_key(&object),
            "member {id} holds {object:?}; its owner is {owner}"
        );
    }
}

/// Concurrent readers racing a stream of writes must always decode a
/// *whole* version: either the pristine populate payload or one of
/// the written constant-fill payloads — never a mix of chunk
/// versions, and never garbage.
#[test]
fn concurrent_readers_never_decode_mixed_versions() {
    let backend = backend(3);
    let router = cluster(&backend, 3);
    let object = ObjectId::new(0);
    // Warm the object so there are cached chunks to invalidate.
    for _ in 0..30 {
        router.read(object).unwrap();
    }
    router.force_reconfigure_all();
    router.read(object).unwrap();

    // Fill bytes are registered BEFORE the write is issued, so any
    // payload a racing reader can observe is already in the set.
    let valid_fills: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let readers = 4;
    let barrier = Barrier::new(readers + 1);
    std::thread::scope(|scope| {
        for _ in 0..readers {
            let router = Arc::clone(&router);
            let valid_fills = Arc::clone(&valid_fills);
            let stop = Arc::clone(&stop);
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) || reads == 0 {
                    match router.read(object) {
                        Ok(metrics) => {
                            reads += 1;
                            let data = metrics.metrics().data.as_ref();
                            let pristine = data == expected_payload(0, SIZE).as_slice();
                            let whole_write = data.first().is_some_and(|&first| {
                                data.iter().all(|&b| b == first)
                                    && valid_fills.lock().unwrap().contains(&first)
                            });
                            assert!(
                                pristine || whole_write,
                                "decoded a mixed-version or unknown payload"
                            );
                        }
                        // Three racing attempts in a row is a safe,
                        // explicit outcome — never silent staleness.
                        Err(AgarError::ReadContention { .. }) => {}
                        Err(e) => panic!("racing read failed: {e}"),
                    }
                }
            });
        }
        barrier.wait();
        for write in 0..15u8 {
            let fill = 0x10 + write;
            valid_fills.lock().unwrap().push(fill);
            let metrics = router.write(object, &vec![fill; SIZE]).unwrap();
            assert_eq!(metrics.version, u64::from(write) + 2);
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
    });
    // Every lease was released.
    assert_eq!(router.lease_manager().active_leases(), 0);
    // The final read settles on the last written payload.
    let last = router.read(object).unwrap();
    assert_eq!(
        last.metrics().data.as_ref(),
        vec![0x10 + 14; SIZE].as_slice()
    );
    // The owner kept the chunks of its last write, and no one else
    // holds any.
    let owner = router.ring().owner_of_object(object).unwrap();
    assert!(router
        .member(owner)
        .unwrap()
        .cache_contents()
        .contains_key(&object));
    assert_only_the_owner_holds(&router, object);
}

/// Same-object writers serialise on the lease: a write issued while
/// the object's lease is held parks until the holder releases.
/// Distinct-object writes and reads proceed meanwhile.
#[test]
fn same_object_writes_serialise_while_distinct_objects_proceed() {
    let backend = backend(4);
    let router = cluster(&backend, 3);
    let contested = ObjectId::new(0);

    // Hold the contested object's lease from the test thread.
    let lease = router.lease_manager().acquire(contested);
    assert!(!lease.contended());

    let blocked_done = Arc::new(AtomicBool::new(false));
    let handle = {
        let router = Arc::clone(&router);
        let blocked_done = Arc::clone(&blocked_done);
        std::thread::spawn(move || {
            let metrics = router.write(contested, &[0xAA; SIZE]).unwrap();
            blocked_done.store(true, Ordering::SeqCst);
            assert!(metrics.lease_contended, "must have waited for the lease");
            metrics.version
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        !blocked_done.load(Ordering::SeqCst),
        "same-object write did not serialise on the lease"
    );

    // A write to a DIFFERENT object runs to completion while the
    // contested lease is still held: no shared router lock on the
    // write path.
    let other = router.write(ObjectId::new(1), &[0xBB; SIZE]).unwrap();
    assert_eq!(other.version, 2);
    assert!(!other.lease_contended);
    // Reads are never gated on any write lease.
    let read = router.read(ObjectId::new(2)).unwrap();
    assert_eq!(
        read.metrics().data.as_ref(),
        expected_payload(2, SIZE).as_slice()
    );
    assert!(!blocked_done.load(Ordering::SeqCst));

    drop(lease); // release: the parked writer proceeds
    assert_eq!(handle.join().unwrap(), 2);
    assert!(blocked_done.load(Ordering::SeqCst));
    assert_eq!(router.lease_manager().active_leases(), 0, "leaked lease");
    let stats = router.cache_stats();
    assert!(stats.lease_contentions() >= 1);
    assert_only_the_owner_holds(&router, contested);
    assert_only_the_owner_holds(&router, ObjectId::new(1));
}

/// Membership changes must not stall behind a blocked write (the old
/// bug: `write` held the router state lock across backend I/O, so
/// `add_node`/`remove_node` queued behind it), and a lease held
/// across the change is neither deadlocked nor leaked.
#[test]
fn membership_changes_proceed_and_leases_survive_mid_write() {
    let backend = backend(8);
    let router = cluster(&backend, 3);
    let contested = ObjectId::new(0);
    let lease = router.lease_manager().acquire(contested);

    // A writer parks behind the held lease...
    let handle = {
        let router = Arc::clone(&router);
        std::thread::spawn(move || router.write(contested, &[0xCC; SIZE]).unwrap().version)
    };
    std::thread::sleep(Duration::from_millis(30));

    // ...and membership changes still complete promptly.
    let start = Instant::now();
    let change = router.add_node(node(&backend, 99));
    let removal = router.remove_node(change.node).unwrap();
    assert_eq!(removal.node, change.node);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "membership change stalled behind a blocked write"
    );

    drop(lease);
    assert_eq!(handle.join().unwrap(), 2);
    assert_eq!(router.lease_manager().active_leases(), 0, "leaked lease");
    // The cluster still serves every object correctly.
    for i in 1..8u64 {
        let metrics = router.read(ObjectId::new(i)).unwrap();
        assert_eq!(
            metrics.metrics().data.as_ref(),
            expected_payload(i, SIZE).as_slice()
        );
    }
    assert_only_the_owner_holds(&router, contested);
}

/// Distinct-object writers hammering the cluster in parallel never
/// contend on each other's leases, and every write lands with a
/// distinct, monotonically assigned version.
#[test]
fn distinct_object_writers_proceed_in_parallel() {
    let backend = backend(8);
    let router = cluster(&backend, 3);
    let writers = 4;
    let rounds = 10;
    let barrier = Barrier::new(writers);
    std::thread::scope(|scope| {
        for t in 0..writers {
            let router = Arc::clone(&router);
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let object = ObjectId::new(t as u64); // one object per writer
                for round in 0..rounds {
                    let metrics = router
                        .write(object, &vec![(t * 16 + round) as u8; SIZE])
                        .unwrap();
                    assert_eq!(metrics.version, round as u64 + 2);
                    assert!(
                        !metrics.lease_contended,
                        "distinct objects must not share a lease"
                    );
                }
            });
        }
    });
    let stats = router.cache_stats();
    assert_eq!(stats.lease_grants(), (writers * rounds) as u64);
    assert_eq!(stats.lease_contentions(), 0);
    assert_eq!(router.lease_manager().active_leases(), 0);
    for t in 0..writers {
        assert_only_the_owner_holds(&router, ObjectId::new(t as u64));
    }
}

/// The mixed-version invariant must hold when members cache through a
/// two-tier hierarchy: a write invalidates BOTH tiers on every member,
/// so no reader ever decodes a stale disk-resident chunk alongside
/// fresh RAM ones. Tiny RAM budgets push most planned chunks to disk,
/// which keeps the disk tier on the read path throughout the race.
#[test]
fn tiered_members_never_serve_stale_disk_chunks() {
    const OBJECTS: u64 = 6;
    let backend = backend(OBJECTS);
    let members: Vec<Arc<AgarNode>> = (0..3).map(|i| tiered_node(&backend, i)).collect();
    let router = {
        let router =
            ClusterRouter::new(Arc::clone(&backend), ClusterSettings::default(), 7).unwrap();
        for member in &members {
            router.add_node(Arc::clone(member));
        }
        Arc::new(router)
    };
    // Warm every object into the hierarchy; the knapsack's second
    // budget lands the long tail on disk.
    for round in 0..3 {
        for i in 0..OBJECTS {
            router.read(ObjectId::new(i)).unwrap();
        }
        if round == 0 {
            router.force_reconfigure_all();
        }
    }

    // Racing readers assert every decode is a whole version: the
    // pristine populate payload or a registered constant fill.
    let valid_fills: Vec<Mutex<Vec<u8>>> = (0..OBJECTS).map(|_| Mutex::new(Vec::new())).collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let router = Arc::clone(&router);
            let valid_fills = &valid_fills;
            let stop = &stop;
            scope.spawn(move || {
                let mut sweeps = 0u64;
                while !stop.load(Ordering::Relaxed) || sweeps == 0 {
                    for i in 0..OBJECTS {
                        match router.read(ObjectId::new(i)) {
                            Ok(metrics) => {
                                let data = metrics.metrics().data.as_ref();
                                let pristine = data == expected_payload(i, SIZE).as_slice();
                                let whole_write = data.first().is_some_and(|&first| {
                                    data.iter().all(|&b| b == first)
                                        && valid_fills[i as usize].lock().unwrap().contains(&first)
                                });
                                assert!(
                                    pristine || whole_write,
                                    "stale or mixed payload for object {i}"
                                );
                            }
                            Err(AgarError::ReadContention { .. }) => {}
                            Err(e) => panic!("racing read failed: {e}"),
                        }
                    }
                    sweeps += 1;
                }
            });
        }
        for round in 0..5u8 {
            for i in 0..OBJECTS {
                let fill = 0x20 + round * OBJECTS as u8 + i as u8;
                valid_fills[i as usize].lock().unwrap().push(fill);
                router.write(ObjectId::new(i), &vec![fill; SIZE]).unwrap();
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    // After the dust settles every object reads back its LAST write —
    // twice, so the second pass decodes from the refilled hierarchy.
    for pass in 0..2 {
        for i in 0..OBJECTS {
            let metrics = router.read(ObjectId::new(i)).unwrap();
            let fill = 0x20 + 4 * OBJECTS as u8 + i as u8;
            assert_eq!(
                metrics.metrics().data.as_ref(),
                vec![fill; SIZE].as_slice(),
                "object {i} pass {pass}"
            );
        }
    }
    let disk_hits: u64 = members.iter().map(|m| m.cache_stats().disk_hits()).sum();
    assert!(disk_hits > 0, "the disk tier never served a chunk");
    assert_eq!(router.lease_manager().active_leases(), 0, "leaked lease");
    for i in 0..OBJECTS {
        assert_only_the_owner_holds(&router, ObjectId::new(i));
    }
}

/// An owner that crashes mid-write — manifest landed, chunk set torn,
/// lease never released, node yanked from the ring without a graceful
/// sweep — must not wedge the object: racing readers see only whole
/// versions or explicit contention errors, and the next writer fences
/// the poisoned lease and repairs the object.
#[test]
fn owner_crash_mid_write_race_fences_holders_and_repairs() {
    let backend = backend(3);
    let router = cluster(&backend, 3);
    let object = ObjectId::new(0);
    for _ in 0..20 {
        router.read(object).unwrap();
    }
    router.force_reconfigure_all();
    router.read(object).unwrap();
    let owner = router.ring().owner_of_object(object).unwrap();
    assert!(
        router
            .member(owner)
            .unwrap()
            .cache_contents()
            .contains_key(&object),
        "the warm owner must hold the object"
    );

    let repaired: Arc<Mutex<Option<u8>>> = Arc::new(Mutex::new(None));
    let stop = Arc::new(AtomicBool::new(false));
    let readers = 3;
    let barrier = Barrier::new(readers + 1);
    std::thread::scope(|scope| {
        for _ in 0..readers {
            let router = Arc::clone(&router);
            let repaired = Arc::clone(&repaired);
            let stop = Arc::clone(&stop);
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) || reads == 0 {
                    match router.read(object) {
                        Ok(metrics) => {
                            reads += 1;
                            let data = metrics.metrics().data.as_ref();
                            let pristine = data == expected_payload(0, SIZE).as_slice();
                            let whole_repair = data.first().is_some_and(|&first| {
                                data.iter().all(|&b| b == first)
                                    && *repaired.lock().unwrap() == Some(first)
                            });
                            assert!(
                                pristine || whole_repair,
                                "decoded a torn or stale payload during the crash race"
                            );
                        }
                        // The torn window reads as explicit contention,
                        // never as silently stale bytes.
                        Err(AgarError::ReadContention { .. }) => {}
                        Err(e) => panic!("racing read failed: {e}"),
                    }
                }
            });
        }
        barrier.wait();

        // The owner starts a write: lease held, manifest bumped, only
        // 4 of 12 chunks land — then the process dies.
        let lease = router.lease_manager().acquire(object);
        let torn_version = backend
            .put_object_interrupted(object, &[0xAB; SIZE], 4)
            .unwrap();
        lease.crash();
        router.crash_node(owner).unwrap();
        assert_eq!(router.lease_manager().active_leases(), 0, "wedged lease");
        assert!(!router.member_ids().contains(&owner), "crashed member kept");

        // Survivor repairs under a fenced lease while readers race.
        *repaired.lock().unwrap() = Some(0xCD);
        let metrics = router.write(object, &[0xCD; SIZE]).unwrap();
        assert_eq!(metrics.version, torn_version + 1);
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(router.lease_manager().fences(), 1, "poison never fenced");
    assert_eq!(router.lease_manager().active_leases(), 0);
    // The cluster settles on the repaired payload from the refilled
    // hierarchy.
    for _ in 0..2 {
        let read = router.read(object).unwrap();
        assert_eq!(read.metrics().data.as_ref(), [0xCD; SIZE].as_slice());
    }
    // Of the survivors, only the new owner holds the repaired object.
    assert_only_the_owner_holds(&router, object);
}

/// A removed member is fully detached: it drops its cached chunks of
/// the re-homed segment, leaves the shared fetch coordinator, and —
/// if re-added — does not resurrect stale content past the version
/// check (the original `remove_node` left both wired up).
#[test]
fn removed_members_are_detached_and_rejoin_cleanly() {
    let backend = backend(12);
    let router = cluster(&backend, 2);
    // Warm everything so every member holds chunks of its segment.
    for round in 0..3 {
        for i in 0..12u64 {
            router.read(ObjectId::new(i)).unwrap();
        }
        if round == 0 {
            router.force_reconfigure_all();
        }
    }
    // Add a third member and make its segment warm on it.
    let joined = node(&backend, 50);
    let change = router.add_node(Arc::clone(&joined));
    assert!(!change.moved_objects.is_empty(), "nothing re-homed");
    for _ in 0..3 {
        for &object in &change.moved_objects {
            router.read(object).unwrap();
        }
    }
    router.force_reconfigure_all();
    for &object in &change.moved_objects {
        router.read(object).unwrap();
    }
    let held: Vec<ObjectId> = joined.cache_contents().keys().copied().collect();
    assert!(
        held.iter().any(|o| change.moved_objects.contains(o)),
        "the joined member never cached its segment"
    );

    // Remove it: the re-homed objects leave its cache.
    let removal = router.remove_node(change.node).unwrap();
    let contents = joined.cache_contents();
    for object in &removal.moved_objects {
        assert!(
            !contents.contains_key(object),
            "departing member kept re-homed object {object:?}"
        );
    }
    // Its fetcher is the default again: a direct read works without
    // the cluster coordinator (and without touching its in-flight
    // table — asserted by the read simply succeeding standalone).
    let solo = joined.read(ObjectId::new(0)).unwrap();
    assert_eq!(solo.data.as_ref(), expected_payload(0, SIZE).as_slice());

    // Re-join: reads through the router stay correct, and a write to a
    // re-homed object invalidates wherever it landed.
    let rejoin = router.add_node(Arc::clone(&joined));
    let target = rejoin
        .moved_objects
        .first()
        .copied()
        .unwrap_or(ObjectId::new(0));
    let payload = vec![0xEE; SIZE];
    router.write(target, &payload).unwrap();
    for i in 0..12u64 {
        let object = ObjectId::new(i);
        let expected = if object == target {
            payload.clone()
        } else {
            expected_payload(i, SIZE)
        };
        let metrics = router.read(object).unwrap();
        assert_eq!(metrics.metrics().data.as_ref(), expected.as_slice());
    }
    assert_only_the_owner_holds(&router, target);
}

/// Dropping a router frees its members: a reference cycle through any
/// member would keep it — and its disk tier's temp directory — alive
/// for the rest of the process.
#[test]
fn dropping_a_tiered_router_removes_its_disk_directories() {
    const OBJECTS: u64 = 24;
    let backend = backend(OBJECTS);
    let router = ClusterRouter::new(Arc::clone(&backend), ClusterSettings::default(), 7).unwrap();
    let ids: Vec<u64> = (0..3)
        .map(|seed| router.add_node(tiered_node(&backend, seed)).node)
        .collect();
    for _ in 0..2 {
        for i in 0..OBJECTS {
            router.read(ObjectId::new(i)).unwrap();
        }
        router.force_reconfigure_all();
    }
    router.write(ObjectId::new(0), &[7; SIZE]).unwrap();
    assert_only_the_owner_holds(&router, ObjectId::new(0));
    // Each member's knapsack put its long tail on disk, so each store
    // has segment files; their parent is the store's directory.
    let dirs: Vec<std::path::PathBuf> = ids
        .iter()
        .map(|&id| {
            let segments = router.member(id).unwrap().disk_segment_paths();
            let first = segments.first().expect("member wrote no disk frame");
            first.parent().unwrap().to_path_buf()
        })
        .collect();
    assert!(dirs.iter().all(|dir| dir.is_dir()));

    drop(router);
    for dir in dirs {
        assert!(!dir.exists(), "{} outlived its router", dir.display());
    }
}

//! Generated schedules over the cluster write path, checked against a
//! per-key write history after every operation.
//!
//! One seed makes one single-threaded schedule over a three-member
//! cluster (one member tiered): routed and member-addressed reads,
//! variable-size routed writes, `AgarNode::write` straight at a member
//! (bypassing router, lease and sibling invalidation), forced
//! reconfigurations, a writer that dies mid-put holding the lease
//! (`put_object_interrupted` + `WriteLease::crash`) and the write that
//! repairs it, and members leaving and (re)joining. Being
//! single-threaded, every operation ends at quiescence, so the oracle
//! is exact:
//!
//! - a read that succeeds returns exactly the newest completed version
//!   (a torn object refuses reads until a full write repairs it);
//! - RAM and disk bytes stay within their budgets on every node;
//! - no fetch stays in flight, and at the end no lease is held or
//!   poisoned;
//! - after a write the writer's chunks of the object are the configured
//!   set at the new version, each in exactly one tier (barring a
//!   capacity overflow, which may only lose some of them);
//! - after a routed write no member but the owner holds the object.
//!
//! A failure prints its seed and the operations that led to it.

use agar::{AgarError, AgarNode, AgarSettings, CachingClient};
use agar_cluster::{ClusterRouter, ClusterSettings};
use agar_ec::{ChunkId, CodingParams, ObjectId};
use agar_net::presets::{aws_six_regions, FRANKFURT};
use agar_store::{expected_payload, populate, Backend, RoundRobin};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SEEDS: std::ops::Range<u64> = 0..200;
const OPS: usize = 150;
const OBJECTS: u64 = 10;
const SIZE: usize = 900;

// ---- the oracle ----------------------------------------------------------

/// What is known about one key's writes. A write's payload is one fill
/// byte repeated (`1..=250`, so codec zero padding never passes for
/// one); version 1 is the populate pattern.
struct KeyHistory {
    /// `(version, fill, size)` of every completed write, oldest first.
    completed: Vec<(u64, u8, usize)>,
    /// The backend's version counter: completed and torn puts bump it.
    backend_version: u64,
    /// A writer died with the manifest installed and fewer than k
    /// chunks landed: no read can succeed until a full write repairs it.
    torn: bool,
    /// That writer's lease was never released: the next routed write
    /// fences before its grant.
    poisoned: bool,
}

struct WriteHistory {
    keys: Vec<KeyHistory>,
}

impl WriteHistory {
    fn new() -> Self {
        let keys = (0..OBJECTS).map(|_| KeyHistory {
            completed: Vec::new(),
            backend_version: 1,
            torn: false,
            poisoned: false,
        });
        WriteHistory {
            keys: keys.collect(),
        }
    }

    /// The payload of the next write to `key`.
    fn next_payload(&self, key: u64, size: usize) -> Vec<u8> {
        let fill = (self.keys[key as usize].completed.len() % 250) as u8 + 1;
        vec![fill; size]
    }

    /// Files a completed write under the version the backend gave it.
    fn complete(&mut self, key: u64, payload: &[u8], version: u64) {
        let history = &mut self.keys[key as usize];
        assert_eq!(version, history.backend_version + 1, "key {key}");
        history.backend_version = version;
        history.completed.push((version, payload[0], payload.len()));
        history.torn = false;
    }

    fn newest(&self, key: u64) -> u64 {
        let history = &self.keys[key as usize];
        history.completed.last().map_or(1, |&(version, ..)| version)
    }

    /// The newest completed version whose payload is exactly `data`;
    /// `None` for bytes no write produced (a mixed-version decode, a
    /// torn length, leaked padding).
    fn classify(&self, key: u64, data: &[u8]) -> Option<u64> {
        let written = self.keys[key as usize].completed.iter().rev();
        let as_write = written
            .filter(|&&(_, fill, size)| size == data.len() && data.iter().all(|&b| b == fill))
            .map(|&(version, ..)| version)
            .next();
        as_write.or_else(|| (data == expected_payload(key, SIZE).as_slice()).then_some(1))
    }
}

// ---- the schedule --------------------------------------------------------

fn ram_node(backend: &Arc<Backend>, seed: u64) -> Arc<AgarNode> {
    let settings = AgarSettings::paper_default(3 * SIZE);
    Arc::new(AgarNode::new(FRANKFURT, Arc::clone(backend), settings, seed).unwrap())
}

fn tiered_node(backend: &Arc<Backend>, seed: u64) -> Arc<AgarNode> {
    let mut settings = AgarSettings::paper_default(SIZE);
    settings.disk_capacity_bytes = 16 * SIZE;
    settings.disk_read = Duration::from_millis(45);
    settings.disk_write = Duration::from_millis(60);
    Arc::new(AgarNode::new(FRANKFURT, Arc::clone(backend), settings, seed).unwrap())
}

struct Schedule<'a> {
    backend: Arc<Backend>,
    router: ClusterRouter,
    /// Every node the schedule ever built, members or not.
    nodes: Vec<Arc<AgarNode>>,
    /// Members that left and may rejoin with whatever they still cache.
    departed: Vec<Arc<AgarNode>>,
    history: WriteHistory,
    expected_fences: u64,
    rng: StdRng,
    log: &'a Mutex<Vec<String>>,
}

impl<'a> Schedule<'a> {
    fn new(seed: u64, log: &'a Mutex<Vec<String>>) -> Self {
        let preset = aws_six_regions();
        let backend = Backend::new(
            preset.topology,
            Arc::new(preset.latency),
            CodingParams::paper_default(),
            Box::new(RoundRobin),
        )
        .unwrap();
        populate(&backend, OBJECTS, SIZE, &mut StdRng::seed_from_u64(seed)).unwrap();
        let backend = Arc::new(backend);
        let router =
            ClusterRouter::new(Arc::clone(&backend), ClusterSettings::default(), seed).unwrap();
        let nodes = vec![
            ram_node(&backend, seed),
            ram_node(&backend, seed + 1),
            tiered_node(&backend, seed + 2),
        ];
        for node in &nodes {
            router.add_node(Arc::clone(node));
        }
        Schedule {
            backend,
            router,
            nodes,
            departed: Vec::new(),
            history: WriteHistory::new(),
            expected_fences: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x5EED_5C4E_D01E),
            log,
        }
    }

    fn note(&self, op: String) {
        self.log.lock().unwrap().push(op);
    }

    fn run(mut self) {
        for _ in 0..OPS {
            self.step();
            self.check_quiescent();
        }
        // Whatever is still torn or poisoned is repaired through the
        // router, then every key reads back its newest version and no
        // lease is left held or poisoned.
        for key in 0..OBJECTS {
            let history = &self.history.keys[key as usize];
            if history.torn || history.poisoned {
                self.routed_write(key, SIZE);
            }
        }
        for key in 0..OBJECTS {
            self.read(key, None);
            let lease = self.router.lease_manager().acquire(ObjectId::new(key));
            assert!(!lease.fenced(), "key {key} was left poisoned");
        }
        self.check_quiescent();
        assert_eq!(self.router.lease_manager().active_leases(), 0);
    }

    fn step(&mut self) {
        let key = self.rng.random_range(0..OBJECTS);
        let size = self.rng.random_range(SIZE / 2..=SIZE);
        match self.rng.random_range(0..100u32) {
            0..38 => self.read(key, None),
            38..48 => {
                let member = self.some_member();
                self.read(key, Some(member));
            }
            48..68 => self.routed_write(key, size),
            68..76 => self.direct_write(key, size),
            76..84 => {
                self.note("reconfigure all".into());
                self.router.force_reconfigure_all();
            }
            84..92 => self.crash_mid_write(key, size),
            _ => self.change_membership(),
        }
    }

    fn some_member(&mut self) -> u64 {
        let ids = self.router.member_ids();
        ids[self.rng.random_range(0..ids.len())]
    }

    /// A routed read (`from: None`) or one addressed to a member. It
    /// succeeds with exactly the newest completed version, unless the
    /// object is torn: then it loses the version race every time.
    fn read(&mut self, key: u64, from: Option<u64>) {
        self.note(format!("read {key} from {from:?}"));
        let object = ObjectId::new(key);
        let result = match from {
            None => self.router.read(object),
            Some(member) => self.router.read_from(member, object),
        };
        if self.history.keys[key as usize].torn {
            assert!(
                matches!(result, Err(AgarError::ReadContention { .. })),
                "key {key} is torn, yet a read of it ended in {result:?}"
            );
            return;
        }
        let data = result.unwrap().into_inner().data;
        let newest = self.history.newest(key);
        match self.history.classify(key, &data) {
            Some(version) => assert_eq!(version, newest, "key {key}: a stale read"),
            None => panic!("key {key}: {} bytes no write produced", data.len()),
        }
    }

    fn routed_write(&mut self, key: u64, size: usize) {
        self.note(format!("routed write {key} x {size}"));
        let object = ObjectId::new(key);
        let payload = self.history.next_payload(key, size);
        let owner_id = self.router.ring().owner_of_object(object).unwrap();
        let owner = self.router.member(owner_id).unwrap();
        let before = owner.cache_stats();
        let write = self.router.write(object, &payload).unwrap();
        assert_eq!(write.home, owner_id);
        self.history.complete(key, &payload, write.version);
        // A routed write is what fences a crashed writer's lease.
        let history = &mut self.history.keys[key as usize];
        self.expected_fences += u64::from(std::mem::take(&mut history.poisoned));
        self.check_writer(&owner, before, object, write.version);
        // Every other member was invalidated or never held the object.
        for id in self.router.member_ids() {
            let member = self.router.member(id).unwrap();
            if id != owner_id {
                assert!(
                    !member.cache_contents().contains_key(&object),
                    "member {id}"
                );
            }
        }
    }

    /// `AgarNode::write` at a member that need not be the owner: no
    /// lease, no sibling invalidation — the version check on lookup is
    /// all that keeps the siblings' older chunks from being served.
    fn direct_write(&mut self, key: u64, size: usize) {
        let member = self.some_member();
        self.note(format!("direct write {key} x {size} at {member}"));
        let object = ObjectId::new(key);
        let payload = self.history.next_payload(key, size);
        let writer = self.router.member(member).unwrap();
        let before = writer.cache_stats();
        let (version, _) = writer.write(object, &payload).unwrap();
        self.history.complete(key, &payload, version);
        self.check_writer(&writer, before, object, version);
    }

    /// The owner takes the lease, installs the manifest, lands fewer
    /// than k chunks and dies. Reads refuse the torn object; most of
    /// the time the next routed write repairs it right away, otherwise
    /// the rest of the schedule (or its end) does.
    fn crash_mid_write(&mut self, key: u64, size: usize) {
        let landed = self.rng.random_range(0..9usize);
        self.note(format!(
            "crash writing {key} x {size} after {landed} chunks"
        ));
        let object = ObjectId::new(key);
        let lease = self.router.lease_manager().acquire(object);
        let history = &mut self.history.keys[key as usize];
        self.expected_fences += u64::from(std::mem::take(&mut history.poisoned));
        let payload = vec![0xFF; size];
        let torn = self
            .backend
            .put_object_interrupted(object, &payload, landed)
            .unwrap();
        lease.crash();
        assert_eq!(torn, history.backend_version + 1);
        history.backend_version = torn;
        history.torn = true;
        history.poisoned = true;
        for _ in 0..self.rng.random_range(0..3u32) {
            self.read(key, None);
        }
        if self.rng.random_range(0..4u32) > 0 {
            self.routed_write(key, size);
        }
    }

    /// A member leaves (never the last two), or one joins: a departed
    /// one with whatever it still caches, or a fresh one.
    fn change_membership(&mut self) {
        let members = self.router.member_ids().len();
        if members > 2 && (members == 4 || self.rng.random_range(0..2u32) == 0) {
            let id = self.some_member();
            self.note(format!("remove member {id}"));
            self.departed.push(self.router.member(id).unwrap());
            self.router.remove_node(id).unwrap();
        } else {
            let node = match self.departed.pop() {
                Some(node) if self.rng.random_range(0..2u32) == 0 => node,
                _ => {
                    let seed = self.rng.random_range(0..1 << 20);
                    let node = ram_node(&self.backend, seed);
                    self.nodes.push(Arc::clone(&node));
                    node
                }
            };
            let change = self.router.add_node(node);
            self.note(format!("add member {}", change.node));
        }
    }

    /// After a write, what the writer holds of the object is the
    /// configured set at the new version, each chunk in the one tier
    /// the configuration names. A capacity eviction during the write
    /// (objects change size, the knapsack counts chunks) may lose some
    /// of the set; it never puts a chunk anywhere else.
    fn check_writer(
        &self,
        writer: &AgarNode,
        before: agar_cache::CacheStats,
        object: ObjectId,
        version: u64,
    ) {
        let config = writer.current_config();
        let mut configured = config.chunks_for(object).to_vec();
        if config.is_carried(object) {
            configured.clear();
        }
        configured.sort_unstable();
        let cached = writer.cache_contents().remove(&object).unwrap_or_default();
        let after = writer.cache_stats();
        let overflowed = (after.evictions(), after.disk_evictions())
            != (before.evictions(), before.disk_evictions());
        if overflowed {
            assert!(cached.iter().all(|index| configured.contains(index)));
        } else {
            assert_eq!(cached, configured, "{object:?} at the writer");
        }
        for index in cached {
            let id = ChunkId::new(object, index);
            let residency = writer.chunk_residency(&id);
            match residency[..] {
                [(tier, at)] => {
                    assert_eq!(at, version, "{id:?}");
                    assert_eq!(Some(tier), config.tier_for(id), "{id:?}");
                }
                _ => panic!("{id:?} is in {residency:?}"),
            }
        }
    }

    /// What holds between any two operations of a single thread.
    fn check_quiescent(&self) {
        for node in &self.nodes {
            let (ram, disk) = node.cached_bytes();
            let settings = node.settings();
            assert!(ram <= settings.cache_capacity_bytes, "RAM over budget");
            assert!(disk <= settings.disk_capacity_bytes, "disk over budget");
        }
        let leases = self.router.lease_manager();
        assert_eq!(self.router.coordinator().in_flight(), 0);
        assert_eq!(leases.active_leases(), 0);
        assert_eq!(leases.fences(), self.expected_fences);
    }
}

#[test]
fn generated_write_schedules_hold_every_invariant_after_every_operation() {
    for seed in SEEDS {
        let log = Mutex::new(Vec::new());
        let outcome = catch_unwind(AssertUnwindSafe(|| Schedule::new(seed, &log).run()));
        if let Err(panic) = outcome {
            let log = log.lock().unwrap();
            let tail = &log[log.len().saturating_sub(12)..];
            eprintln!(
                "write schedule failed: seed {seed}, operation {}",
                log.len()
            );
            eprintln!("last operations:\n  {}", tail.join("\n  "));
            resume_unwind(panic);
        }
    }
}

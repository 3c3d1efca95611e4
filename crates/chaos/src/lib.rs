//! Deterministic, seeded fault injection for the Agar reproduction.
//!
//! Everything the simulator can break is driven from pure data plus the
//! run seed, so a failing run replays bit-identically:
//!
//! - [`FlakyRegion`] — periodic fail→heal partitions/blackouts of a
//!   whole region on a [`FailureCycle`], the same schedule the `tail`
//!   harness's scenarios use (pure function of the sim clock, no RNG
//!   draws);
//! - [`FetchFaultSpec`] — per-fetch error returns at a configured rate
//!   inside scheduled fault windows, decided by hashing the run seed
//!   with a per-plane fetch sequence number (again: no RNG draws, so
//!   installing a quiet plane perturbs nothing);
//! - [`corrupt_segments`] — deterministic byte flips in live
//!   `DiskStore` append-log segments, exercising the checksum/length
//!   validation fall-through;
//! - node crash mid-write is driven by the cluster tier itself
//!   (`WriteLease::crash` + `ClusterRouter::crash_node`), which this
//!   crate's scenarios compose with the schedules above.
//!
//! The injection point for the first two is [`ChaosPlane`], a
//! [`ChunkFetcher`] decorator installed between the node and its real
//! fetcher (direct or cluster coordinator). Faulted fetches return
//! [`StoreError::RegionUnavailable`] without touching the inner
//! fetcher, which funnels them into exactly the re-plan / retry /
//! breaker machinery the read path uses for real region failures.
//!
//! With an empty [`ChaosSpec`] the plane delegates wholesale — same
//! calls, same RNG draw order, byte-identical results — matching the
//! repo-wide "disabled ⇒ byte-identical" convention
//! (`trace_sample_every = 0`, `disk_capacity = 0`, `max_hedges = 0`).

#![warn(missing_docs)]

use agar::{ChunkFetcher, FetchRequest};
use agar_net::{RegionId, SimTime};
use agar_store::{ChunkFetch, StoreError};
use agar_workload::{FailureCycle, FlakyRegion};
use rand::RngCore;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-fetch error injection: inside each scheduled fault window,
/// every fetch independently errors with probability
/// `per_1024 / 1024`, decided by hashing the run seed with the plane's
/// fetch sequence number (no RNG draws, so the decision stream is
/// reproducible and does not perturb the node's seeded RNG).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchFaultSpec {
    /// Fault probability numerator out of 1024 (1024 ⇒ every fetch).
    pub per_1024: u16,
    /// When the fault window is open.
    pub cycle: FailureCycle,
}

/// The full fault schedule for one run, drawn from the run seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Seed every hash-based fault decision mixes in. Same seed ⇒
    /// byte-identical fault schedule.
    pub seed: u64,
    /// Region blackout schedules: each region is unreachable while its
    /// cycle is down.
    pub outages: Vec<FlakyRegion>,
    /// Per-fetch error injection, if any.
    pub fetch_faults: Option<FetchFaultSpec>,
}

impl ChaosSpec {
    /// A spec that injects nothing. A [`ChaosPlane`] built from it
    /// delegates wholesale and is byte-identical to no plane at all.
    pub fn quiet() -> Self {
        ChaosSpec::default()
    }

    /// True when the spec can never inject a fault.
    fn is_quiet(&self) -> bool {
        self.outages.is_empty() && self.fetch_faults.is_none()
    }
}

/// Shared sim-clock cell the fault plane reads its "now" from. The
/// harness stores the same instant it hands to `AgarNode::set_sim_now`,
/// so fault windows and breaker cooldowns tick on one clock.
#[derive(Clone, Debug, Default)]
pub struct ChaosClock(Arc<AtomicU64>);

impl ChaosClock {
    /// A clock starting at sim-time zero.
    pub fn new() -> Self {
        ChaosClock::default()
    }

    /// Advances the clock to `now` (monotonicity is the caller's
    /// responsibility; the schedules only read the latest value).
    pub fn set(&self, now: SimTime) {
        self.0.store(now.as_micros(), Ordering::Relaxed);
    }

    /// Current sim time in whole seconds (what the schedules key on).
    fn now_s(&self) -> u64 {
        self.0.load(Ordering::Relaxed) / 1_000_000
    }
}

/// SplitMix64 finalizer — the pure hash behind every per-fetch fault
/// decision. Keyed draws instead of RNG state keep the schedule
/// replayable and leave the node's seeded RNG streams untouched.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A [`ChunkFetcher`] decorator that injects scheduled faults before
/// delegating to the real fetcher. See the crate docs for the fault
/// model and the quiet-spec byte-identity guarantee.
pub struct ChaosPlane {
    inner: Arc<dyn ChunkFetcher>,
    spec: ChaosSpec,
    clock: ChaosClock,
    /// Monotone per-plane fetch sequence number; the hash key that
    /// makes per-fetch fault decisions deterministic.
    sequence: AtomicU64,
    counters: ChaosCounters,
}

agar_obs::cell_table! {
    /// The plane's fault counts: every injected fault, and the part of
    /// them from region blackouts and from the per-fetch error schedule.
    pub struct ChaosCounters {
        faults_injected: Counter "agar_chaos_faults_injected_total" []
            "Faults injected by the chaos plane, all classes.";
        partition_faults: Counter "agar_chaos_partition_faults_total" []
            "Fetches failed because their region was blacked out.";
        fetch_error_faults: Counter "agar_chaos_fetch_error_faults_total" []
            "Fetches failed by the per-fetch error schedule.";
    }
}

impl ChaosPlane {
    /// Wraps `inner` with the fault schedule in `spec`, reading the
    /// sim clock from `clock`.
    pub fn new(inner: Arc<dyn ChunkFetcher>, spec: ChaosSpec, clock: ChaosClock) -> Self {
        ChaosPlane {
            inner,
            spec,
            clock,
            sequence: AtomicU64::new(0),
            counters: ChaosCounters::default(),
        }
    }

    /// The plane's fault counters (see [`ChaosCounters`]).
    pub fn counters(&self) -> &ChaosCounters {
        &self.counters
    }

    /// Decides whether the fault plane fails this request, and counts
    /// the injection if so.
    fn inject(&self, request: &FetchRequest, now_s: u64, sequence: u64) -> bool {
        for outage in &self.spec.outages {
            if RegionId::new(outage.region) == request.region && outage.cycle.is_down_at(now_s) {
                self.counters.partition_faults.inc();
                self.counters.faults_injected.inc();
                return true;
            }
        }
        if let Some(faults) = &self.spec.fetch_faults {
            if faults.cycle.is_down_at(now_s)
                && mix(self.spec.seed ^ sequence) % 1024 < u64::from(faults.per_1024)
            {
                self.counters.fetch_error_faults.inc();
                self.counters.faults_injected.inc();
                return true;
            }
        }
        false
    }
}

impl ChunkFetcher for ChaosPlane {
    fn fetch(
        &self,
        client_region: RegionId,
        requests: &[FetchRequest],
        rng: &mut dyn RngCore,
    ) -> Vec<(FetchRequest, Result<ChunkFetch, StoreError>)> {
        if self.spec.is_quiet() {
            // Byte-identity fast path: no sequence bookkeeping, no
            // schedule checks — indistinguishable from no plane.
            return self.inner.fetch(client_region, requests, rng);
        }
        let now_s = self.clock.now_s();
        let mut faulted = None;
        for (position, request) in requests.iter().enumerate() {
            let sequence = self.sequence.fetch_add(1, Ordering::Relaxed);
            if self.inject(request, now_s, sequence) {
                faulted = Some(position);
                break;
            }
        }
        let Some(position) = faulted else {
            return self.inner.fetch(client_region, requests, rng);
        };
        // Fetch the clean prefix through the real fetcher, then append
        // the injected failure. The trait allows stopping early after a
        // RegionUnavailable entry, so the tail is never attempted —
        // the node re-plans around the "failed" region exactly as it
        // would for a real one.
        let mut results = if position == 0 {
            Vec::new()
        } else {
            self.inner.fetch(client_region, &requests[..position], rng)
        };
        if results.len() == position {
            // The inner fetcher delivered the full prefix (it may
            // itself have short-circuited, in which case its result is
            // already terminal and ours would never be reached).
            let request = requests[position];
            results.push((
                request,
                Err(StoreError::RegionUnavailable {
                    region: request.region,
                }),
            ));
        }
        results
    }
}

impl std::fmt::Debug for ChaosPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosPlane")
            .field("spec", &self.spec)
            .field("sequence", &self.sequence.load(Ordering::Relaxed))
            .field("faults_injected", &self.counters.faults_injected.get())
            .finish()
    }
}

/// Deterministically flips `flips` bytes across the given disk-store
/// segment files (seeded byte positions, XOR `0xFF`), simulating media
/// corruption under live traffic. Empty files are skipped. Returns the
/// number of bytes actually flipped.
pub fn corrupt_segments(
    paths: &[std::path::PathBuf],
    seed: u64,
    flips: usize,
) -> std::io::Result<usize> {
    use std::io::{Read, Seek, SeekFrom, Write};
    let mut flipped = 0;
    for flip in 0..flips as u64 {
        let candidates: Vec<&Path> = paths.iter().map(|p| p.as_path()).collect();
        if candidates.is_empty() {
            break;
        }
        let pick = mix(seed ^ flip.wrapping_mul(0x517C_C1B7_2722_0A95)) as usize % candidates.len();
        let path = candidates[pick];
        let mut file = match std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
        {
            Ok(file) => file,
            Err(_) => continue, // segment rotated away under us
        };
        let len = file.metadata()?.len();
        if len == 0 {
            continue;
        }
        let offset = mix(seed ^ flip ^ 0xC0FF_EE00) % len;
        let mut byte = [0u8; 1];
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut byte)?;
        byte[0] ^= 0xFF;
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(&byte)?;
        flipped += 1;
    }
    Ok(flipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_ec::{ChunkId, ObjectId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct CountingFetcher {
        calls: AtomicU64,
    }

    impl ChunkFetcher for CountingFetcher {
        fn fetch(
            &self,
            _client_region: RegionId,
            requests: &[FetchRequest],
            _rng: &mut dyn RngCore,
        ) -> Vec<(FetchRequest, Result<ChunkFetch, StoreError>)> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            requests
                .iter()
                .map(|&request| {
                    (
                        request,
                        Err(StoreError::FetchInterrupted {
                            chunk: request.chunk,
                        }),
                    )
                })
                .collect()
        }
    }

    fn request(region: u16) -> FetchRequest {
        FetchRequest {
            chunk: ChunkId::new(ObjectId::new(1), 0),
            region: RegionId::new(region),
            version: 1,
        }
    }

    #[test]
    fn quiet_plane_delegates_wholesale() {
        let inner = Arc::new(CountingFetcher {
            calls: AtomicU64::new(0),
        });
        let plane = ChaosPlane::new(
            Arc::clone(&inner) as _,
            ChaosSpec::quiet(),
            ChaosClock::new(),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let results = plane.fetch(RegionId::new(0), &[request(0), request(1)], &mut rng);
        assert_eq!(results.len(), 2);
        assert_eq!(inner.calls.load(Ordering::Relaxed), 1);
        assert_eq!(plane.counters().faults_injected.get(), 0);
    }

    #[test]
    fn partitioned_region_faults_without_touching_the_inner_fetcher() {
        let inner = Arc::new(CountingFetcher {
            calls: AtomicU64::new(0),
        });
        let clock = ChaosClock::new();
        clock.set(SimTime::from_secs(6));
        let spec = ChaosSpec {
            seed: 7,
            outages: vec![FlakyRegion {
                region: 1,
                cycle: FailureCycle {
                    first_failure_s: 5,
                    down_s: 5,
                    period_s: 20,
                },
            }],
            fetch_faults: None,
        };
        let plane = ChaosPlane::new(Arc::clone(&inner) as _, spec, clock.clone());
        let mut rng = StdRng::seed_from_u64(0);
        // First request is to the dead region: injected failure, inner
        // never called, tail never attempted.
        let results = plane.fetch(RegionId::new(0), &[request(1), request(0)], &mut rng);
        assert_eq!(results.len(), 1);
        assert!(matches!(
            results[0].1,
            Err(StoreError::RegionUnavailable { region }) if region == RegionId::new(1)
        ));
        assert_eq!(inner.calls.load(Ordering::Relaxed), 0);
        assert_eq!(plane.counters().partition_faults.get(), 1);

        // After the heal the same fetch goes straight through.
        clock.set(SimTime::from_secs(11));
        let results = plane.fetch(RegionId::new(0), &[request(1), request(0)], &mut rng);
        assert_eq!(results.len(), 2);
        assert_eq!(inner.calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fetch_fault_rate_is_deterministic_in_the_seed() {
        let schedule = |seed: u64| -> Vec<bool> {
            let inner = Arc::new(CountingFetcher {
                calls: AtomicU64::new(0),
            });
            let clock = ChaosClock::new();
            clock.set(SimTime::from_secs(1));
            let spec = ChaosSpec {
                seed,
                outages: Vec::new(),
                fetch_faults: Some(FetchFaultSpec {
                    per_1024: 512,
                    cycle: FailureCycle {
                        first_failure_s: 0,
                        down_s: 10,
                        period_s: 10,
                    },
                }),
            };
            let plane = ChaosPlane::new(inner as _, spec, clock);
            let mut rng = StdRng::seed_from_u64(0);
            (0..64)
                .map(|_| {
                    let results = plane.fetch(RegionId::new(0), &[request(0)], &mut rng);
                    matches!(results[0].1, Err(StoreError::RegionUnavailable { .. }))
                })
                .collect()
        };
        let a = schedule(42);
        let b = schedule(42);
        let c = schedule(43);
        assert_eq!(a, b, "same seed, same fault schedule");
        assert_ne!(a, c, "different seed, different schedule");
        let faults = a.iter().filter(|&&f| f).count();
        assert!((16..=48).contains(&faults), "rate ~1/2, got {faults}/64");
    }

    #[test]
    fn corrupt_segments_flips_seeded_bytes() {
        let dir = std::env::temp_dir().join(format!("agar-chaos-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-0.log");
        std::fs::write(&path, vec![0u8; 256]).unwrap();
        let flipped = corrupt_segments(std::slice::from_ref(&path), 9, 4).unwrap();
        assert_eq!(flipped, 4);
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.contains(&0xFF), "some byte was flipped");
        std::fs::remove_dir_all(&dir).ok();
    }
}

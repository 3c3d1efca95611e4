//! Scoped shard-parallel fan-out for the coding hot paths.
//!
//! Reed-Solomon work factors into per-shard jobs that touch disjoint
//! output slices: each parity shard of an encode and each missing data
//! shard of a decode is an independent dot product over the same
//! read-only inputs. [`for_each_job`] fans those jobs out round-robin
//! across `std::thread::available_parallelism()` scoped threads.
//!
//! Two guards keep the fan-out honest:
//!
//! - jobs smaller than [`PARALLEL_MIN_JOB_BYTES`] run sequentially —
//!   below that, spawning and joining cost more than the GF(2^8)
//!   kernel time they save, so the paper's 1 MB objects (and every
//!   benchmark workload) code on the caller's thread;
//! - with one hardware thread (or one job) everything runs inline on
//!   the caller's stack.
//!
//! Either way each job runs exactly once with the same inputs and
//! writes only through its own slice, so the output is byte-identical
//! regardless of how many threads the host offers.

use std::num::NonZeroUsize;

/// Per-job payload below which the fan-out is not worth a spawn.
/// Measured on a 2-vCPU VM with RS(9, 3) and three data shards lost:
/// at 113 KiB shards (a 1 MiB object) the decode takes 207 µs inline
/// and 337 µs fanned out, at 455 KiB shards 1.08 ms and 0.98 ms, at
/// 1 MiB shards 2.9 ms and 1.8 ms (EXPERIMENTS.md, 2026-09-28).
pub(crate) const PARALLEL_MIN_JOB_BYTES: usize = 1 << 20;

/// How many worker threads a fan-out may use (1 on a single-CPU host).
pub(crate) fn shard_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` once per job, spreading jobs round-robin over scoped
/// threads when both the job count and `job_bytes` (the payload each
/// job touches) justify it. Falls back to a plain sequential loop
/// otherwise — the two paths execute identical per-job work.
pub(crate) fn for_each_job<T, F>(jobs: Vec<T>, job_bytes: usize, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let workers = shard_parallelism().min(jobs.len());
    if workers <= 1 || job_bytes < PARALLEL_MIN_JOB_BYTES {
        for job in jobs {
            f(job);
        }
        return;
    }
    let mut lanes: Vec<Vec<T>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        lanes[i % workers].push(job);
    }
    std::thread::scope(|scope| {
        let mut lanes = lanes.into_iter();
        let own = lanes.next().expect("workers >= 1");
        for lane in lanes {
            let f = &f;
            scope.spawn(move || {
                for job in lane {
                    f(job);
                }
            });
        }
        // The caller's thread works its own lane instead of idling.
        for job in own {
            f(job);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_job_runs_exactly_once() {
        for (jobs, bytes) in [(0usize, 1 << 20), (1, 1 << 20), (7, 1 << 20), (64, 0)] {
            let hits = AtomicUsize::new(0);
            let mut outputs = vec![0u8; jobs];
            let slices: Vec<(usize, &mut u8)> = outputs.iter_mut().enumerate().collect();
            for_each_job(slices, bytes, |(i, out)| {
                *out = (i % 251) as u8 + 1;
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), jobs);
            for (i, &out) in outputs.iter().enumerate() {
                assert_eq!(out, (i % 251) as u8 + 1, "job {i} of {jobs}");
            }
        }
    }

    #[test]
    fn parallelism_is_at_least_one() {
        assert!(shard_parallelism() >= 1);
    }
}

//! Cache and request-monitor hot-path costs — the paper's §VI claims
//! the monitor + manager add ~0.5 ms per request; our in-process
//! equivalents should be far below that.

use agar::RequestMonitor;
use agar_cache::{chunk_cache, CachedChunk, PolicyKind};
use agar_ec::{ChunkId, ObjectId};
use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_cache_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache/insert_get_evict");
    let payload = Bytes::from(vec![0u8; 1_000]);
    for kind in PolicyKind::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(kind), &kind, |b, &kind| {
            // 100-entry cache under a rolling 1 000-key workload:
            // inserts evict constantly, gets mix hits and misses.
            let mut cache = chunk_cache(100 * 1_000, kind);
            let mut i = 0u64;
            b.iter(|| {
                let id = ChunkId::new(ObjectId::new(i % 1_000), (i % 12) as u8);
                cache.insert(id, CachedChunk::new(payload.clone(), 0));
                let probe = ChunkId::new(ObjectId::new((i / 2) % 1_000), (i % 12) as u8);
                black_box(cache.get(&probe).is_some());
                i += 1;
            })
        });
    }
    group.finish();
}

fn bench_monitor(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor");
    group.bench_function("record_read", |b| {
        let mut monitor = RequestMonitor::new();
        let mut i = 0u64;
        b.iter(|| {
            monitor.record_read(ObjectId::new(i % 300));
            i += 1;
        })
    });
    group.bench_function("end_epoch_300_objects", |b| {
        b.iter_batched(
            || {
                let mut monitor = RequestMonitor::new();
                for i in 0..300u64 {
                    for _ in 0..(300 - i) / 10 + 1 {
                        monitor.record_read(ObjectId::new(i));
                    }
                }
                monitor
            },
            |mut monitor| {
                monitor.end_epoch();
                monitor
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_cache_policies, bench_monitor);
criterion_main!(benches);

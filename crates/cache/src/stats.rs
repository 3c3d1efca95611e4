//! Cache statistics: one counter table.
//!
//! Two granularities matter in this system:
//!
//! - **chunk-level** hits/misses, recorded by the cache itself on every
//!   `get`;
//! - **object-level** full/partial hits (the paper's Figure 7 metric: a
//!   request is a *total hit* if every chunk came from the cache, a
//!   *partial hit* if at least one did), recorded by whoever assembles
//!   whole objects via [`AtomicCacheStats::record_object_read`].
//!
//! Every cache counter is declared **once**, as a row of the
//! `cache_stats!` invocation below: field name, metric family, label
//! pairs, help text. The rows become an [`agar_obs::cell_table!`], the
//! live [`AtomicCacheStats`] cells a cache or node writes (with
//! `ROWS` and `register_with`), and the fields of the plain-data
//! [`CacheStats`] report (getters, `delta_since`, `merge`). The
//! `report_only` fields are cluster events whose cells are rows of
//! their owners' tables (the fetch coordinator's, the lease manager's
//! and the router's); `ClusterRouter::cache_stats` fills them.
//!
//! One identity holds on every report: `chunk_hits + chunk_misses` is
//! the number of **RAM** lookups. A tiered cache records the RAM miss
//! before it consults disk, so a disk rescue counts in `chunk_misses`
//! *and* in `disk_hits`.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! cache_stats {
    (
        cells { $($cell:ident: $family:literal [$($labels:tt)*] $help:literal;)* }
        report_only { $($(#[doc = $rdoc:literal])* $rep:ident;)* }
    ) => {
        agar_obs::cell_table! {
            /// Lock-free live cells for the counters a cache or node writes.
            ///
            /// Every cell is a registry [`Counter`](agar_obs::Counter) (a
            /// shared relaxed atomic), so many reader threads record
            /// outcomes without any lock — `stats.chunk_hits.inc()` — and
            /// the same cells are late-bound into a metrics registry by
            /// `register_with`: the scrape endpoint and this struct
            /// observe the same memory.
            ///
            /// # Snapshot semantics (non-atomic; fields may drift)
            ///
            /// [`AtomicCacheStats::snapshot`] loads each cell independently
            /// with `Ordering::Relaxed` — no global lock, no seqlock — so
            /// the copy is **not** a consistent cut. While writers run, a
            /// snapshot may see counter A's increment from an event but not
            /// counter B's from the *same* event. What it does guarantee:
            ///
            /// - each field is monotonic across snapshots, so
            ///   [`CacheStats::delta_since`] never goes negative;
            /// - a field never over-counts: a snapshot observes at most the
            ///   increments issued before the load, so
            ///   `chunk_hits + chunk_misses` never exceeds the lookups
            ///   initiated (pinned by the
            ///   `snapshot_never_overcounts_lookups_mid_hammer` test).
            ///
            /// Reporting paths here read quiescent stats or tolerate a few
            /// in-flight operations of drift; anything needing an exact cut
            /// must stop the writers first.
            pub struct AtomicCacheStats {
                $($cell: Counter $family [$($labels)*] $help;)*
            }
        }

        /// Counters describing cache effectiveness: the plain-data
        /// report every cache, node, baseline and router hands out.
        #[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
        pub struct CacheStats {
            $(#[doc = $help] pub $cell: u64,)*
            $($(#[doc = $rdoc])* pub $rep: u64,)*
        }

        impl CacheStats {
            $(#[doc = $help] pub fn $cell(&self) -> u64 { self.$cell })*
            $($(#[doc = $rdoc])* pub fn $rep(&self) -> u64 { self.$rep })*

            /// The counters accumulated since an earlier snapshot
            /// (saturating; used for per-batch statistics on a
            /// long-lived cache).
            pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
                CacheStats {
                    $($cell: self.$cell.saturating_sub(earlier.$cell),)*
                    $($rep: self.$rep.saturating_sub(earlier.$rep),)*
                }
            }

            /// Merges another set of counters into this one.
            pub fn merge(&mut self, other: &CacheStats) {
                $(self.$cell += other.$cell;)*
                $(self.$rep += other.$rep;)*
            }
        }

        impl AtomicCacheStats {
            /// A point-in-time copy of the cells as a [`CacheStats`]
            /// report (the `report_only` fields stay zero).
            pub fn snapshot(&self) -> CacheStats {
                CacheStats { $($cell: self.$cell.get(),)* ..CacheStats::default() }
            }

            /// The cells in table order, for the table-walking test.
            #[cfg(test)]
            fn cells(&self) -> Vec<&agar_obs::Counter> {
                vec![$(&self.$cell,)*]
            }
        }

        /// Every report field with its getter and its mutable slot,
        /// cells first, for the table-walking test.
        #[cfg(test)]
        #[allow(clippy::type_complexity)]
        const REPORT_TABLE: &[(
            &str,
            fn(&CacheStats) -> u64,
            fn(&mut CacheStats) -> &mut u64,
        )] = &[
            $((stringify!($cell), CacheStats::$cell, |stats| &mut stats.$cell),)*
            $((stringify!($rep), CacheStats::$rep, |stats| &mut stats.$rep),)*
        ];
    };
}

cache_stats! {
    cells {
        chunk_hits: "agar_cache_chunk_hits_total" [("tier", "ram")]
            "Chunk lookups served from a cache tier.";
        disk_hits: "agar_cache_chunk_hits_total" [("tier", "disk")]
            "Chunk lookups served from a cache tier.";
        chunk_misses: "agar_cache_chunk_misses_total" []
            "Chunk lookups that missed the RAM tier; disk rescues also count under hits{tier=disk}.";
        insertions: "agar_cache_insertions_total" []
            "Chunks admitted into the RAM tier.";
        evictions: "agar_cache_evictions_total" [("tier", "ram")]
            "Chunks evicted from a cache tier for capacity.";
        disk_evictions: "agar_cache_evictions_total" [("tier", "disk")]
            "Chunks evicted from a cache tier for capacity.";
        rejected_inserts: "agar_cache_rejected_inserts_total" []
            "Insertions vetoed by capacity or admission policy.";
        object_total_hits: "agar_object_reads_total" [("result", "total_hit")]
            "Object reads classified by cache outcome (paper Fig. 7).";
        object_partial_hits: "agar_object_reads_total" [("result", "partial_hit")]
            "Object reads classified by cache outcome (paper Fig. 7).";
        object_misses: "agar_object_reads_total" [("result", "miss")]
            "Object reads classified by cache outcome (paper Fig. 7).";
        decode_plan_hits: "agar_decode_plan_hits_total" []
            "Degraded decodes that reused a cached decode plan.";
        systematic_fast_reads: "agar_decode_systematic_fast_total" []
            "Object reads decoded via the zero-GF systematic fast path.";
        hedged_requests: "agar_hedge_requests_total" []
            "Speculative duplicate chunk requests issued.";
        hedge_wins: "agar_hedge_wins_total" []
            "Hedges that bound into the first-k decode set.";
        hedges_cancelled: "agar_hedge_cancelled_total" []
            "Straggler responses discarded after k arrivals.";
        tier_promotions: "agar_tier_promotions_total" []
            "Chunks a placement moved disk → RAM (a reconfiguration's configured moves).";
        tier_demotions: "agar_tier_demotions_total" []
            "Chunks a placement moved RAM → disk (a reconfiguration's configured moves).";
    }
    report_only {
        /// Backend fetches served by an in-flight duplicate
        /// (single-flight): the fetch coordinator's `coalesced_fetches`.
        coalesced_fetches;
        /// Region-grouped backend round trips issued: the fetch
        /// coordinator's `batched_requests`.
        batched_requests;
        /// Per-object write leases granted: the lease manager's
        /// `lease_grants`.
        lease_grants;
        /// Writes that waited behind another writer's lease: the lease
        /// manager's `lease_contentions`.
        lease_contentions;
        /// Members that held chunks of an object a routed write
        /// invalidated: the router's `targeted_invalidations`.
        targeted_invalidations;
    }
}

impl CacheStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        CacheStats::default()
    }

    /// Total object reads recorded.
    pub fn object_reads(&self) -> u64 {
        self.object_total_hits + self.object_partial_hits + self.object_misses
    }

    /// Chunk-level (RAM) hit ratio in `[0, 1]`; 0 if nothing recorded.
    fn chunk_hit_ratio(&self) -> f64 {
        let total = self.chunk_hits + self.chunk_misses;
        if total == 0 {
            0.0
        } else {
            self.chunk_hits as f64 / total as f64
        }
    }

    /// The paper's Figure 7 metric: (total + partial hits) / requests.
    pub fn object_hit_ratio(&self) -> f64 {
        let total = self.object_reads();
        if total == 0 {
            0.0
        } else {
            (self.object_total_hits + self.object_partial_hits) as f64 / total as f64
        }
    }
}

impl AtomicCacheStats {
    /// Fresh, all-zero cells.
    pub fn new() -> Self {
        AtomicCacheStats::default()
    }

    /// Records an object-level read outcome: `cached_chunks` of the
    /// `needed_chunks` required chunks came from the cache.
    ///
    /// Matches the paper's hit-ratio definition: all chunks cached is a
    /// total hit, at least one cached is a partial hit, none is a miss.
    pub fn record_object_read(&self, cached_chunks: usize, needed_chunks: usize) {
        if needed_chunks > 0 && cached_chunks >= needed_chunks {
            self.object_total_hits.inc();
        } else if cached_chunks > 0 {
            self.object_partial_hits.inc();
        } else {
            self.object_misses.inc();
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chunks {}/{} hits ({:.1}%), objects {} total + {} partial / {} reads ({:.1}%), {} evictions",
            self.chunk_hits,
            self.chunk_hits + self.chunk_misses,
            self.chunk_hit_ratio() * 100.0,
            self.object_total_hits,
            self.object_partial_hits,
            self.object_reads(),
            self.object_hit_ratio() * 100.0,
            self.evictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_obs::{Labels, MetricsRegistry};

    #[test]
    fn chunk_ratio() {
        let mut s = CacheStats::new();
        assert_eq!(s.chunk_hit_ratio(), 0.0);
        s.chunk_hits += 2;
        s.chunk_misses += 1;
        assert!((s.chunk_hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.chunk_hits(), 2);
        assert_eq!(s.chunk_misses(), 1);
    }

    #[test]
    fn object_hit_classification() {
        let atomic = AtomicCacheStats::new();
        for (cached, needed) in [(9, 9), (3, 9), (0, 9)] {
            atomic.record_object_read(cached, needed); // total, partial, miss
        }
        let s = atomic.snapshot();
        assert_eq!(s.object_total_hits(), 1);
        assert_eq!(s.object_partial_hits(), 1);
        assert_eq!(s.object_misses(), 1);
        assert_eq!(s.object_reads(), 3);
        assert!((s.object_hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_needed_chunks_is_a_miss_not_a_hit() {
        let atomic = AtomicCacheStats::new();
        atomic.record_object_read(0, 0);
        assert_eq!(atomic.snapshot().object_misses(), 1);
    }

    /// One distinct prime per table row, so a getter, a `merge` line or
    /// a scrape row wired to the wrong counter cannot cancel out.
    const PRIMES: [u64; 22] = [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
    ];

    /// Walks the counter table: cell → snapshot → getter → `delta_since`
    /// → `merge` → exposition, for every row.
    #[test]
    fn every_table_row_roundtrips() {
        assert_eq!(REPORT_TABLE.len(), PRIMES.len());
        let atomic = AtomicCacheStats::new();
        let cells = atomic.cells();
        assert_eq!(cells.len(), 17, "the counters a cache or node writes");
        // The `cells` rows lead the table; the `report_only` rows have
        // no cell here, so their report fields are set directly.
        for (cell, prime) in cells.iter().zip(PRIMES) {
            cell.add(prime);
        }
        let mut report = atomic.snapshot();
        for ((_, _, field), prime) in REPORT_TABLE.iter().zip(PRIMES).skip(cells.len()) {
            assert_eq!(
                *field(&mut report),
                0,
                "snapshot leaves report-only rows zero"
            );
            *field(&mut report) = prime;
        }

        let zero = CacheStats::new();
        let mut doubled = report;
        doubled.merge(&report);
        for ((field, get, _), prime) in REPORT_TABLE.iter().zip(PRIMES) {
            assert_eq!(get(&report), prime, "{field}");
            assert_eq!(get(&report.delta_since(&zero)), prime, "{field}");
            assert_eq!(get(&report.delta_since(&report)), 0, "{field}");
            assert_eq!(get(&zero.delta_since(&report)), 0, "saturating: {field}");
            assert_eq!(get(&doubled), 2 * prime, "{field}");
        }

        // Exposition: exactly one sample per cell row carrying that
        // row's value, and one HELP/TYPE pair per family.
        let registry = MetricsRegistry::new();
        atomic.register_with(&registry, &Labels::new());
        let text = registry.render_prometheus();
        let count = |line: String| text.lines().filter(|l| **l == line).count();
        let rows = AtomicCacheStats::ROWS;
        assert_eq!(rows.len(), cells.len());
        for (row, prime) in rows.iter().zip(PRIMES) {
            let labels = match row.labels {
                [] => String::new(),
                [(name, value)] => format!("{{{name}=\"{value}\"}}"),
                more => panic!("extend the test for {more:?}"),
            };
            assert_eq!(
                count(format!("{}{labels} {prime}", row.family)),
                1,
                "{text}"
            );
            assert_eq!(
                count(format!("# HELP {} {}", row.family, row.help)),
                1,
                "{text}"
            );
            assert_eq!(count(format!("# TYPE {} counter", row.family)), 1, "{text}");
        }
        let samples = text.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(samples, cells.len(), "{text}");
        // Rows sharing a family share its HELP text (the first
        // registration's wins in a scrape).
        for a in rows {
            for b in rows.iter().filter(|b| b.family == a.family) {
                assert_eq!(a.help, b.help, "{}", a.family);
            }
        }
    }

    #[test]
    fn register_with_exposes_live_cells() {
        let atomic = AtomicCacheStats::new();
        atomic.chunk_hits.inc(); // before registration: kept
        let registry = MetricsRegistry::new();
        atomic.register_with(&registry, &Labels::new().with("region", "Frankfurt"));
        atomic.chunk_hits.inc(); // after registration: same cell
        atomic.disk_hits.inc();
        atomic.record_object_read(9, 9);
        let text = registry.render_prometheus();
        assert!(
            text.contains("agar_cache_chunk_hits_total{region=\"Frankfurt\",tier=\"ram\"} 2"),
            "{text}"
        );
        assert!(text.contains("agar_cache_chunk_hits_total{region=\"Frankfurt\",tier=\"disk\"} 1"));
        assert!(
            text.contains("agar_object_reads_total{region=\"Frankfurt\",result=\"total_hit\"} 1")
        );
        // Re-registration with the same labels is idempotent.
        atomic.register_with(&registry, &Labels::new().with("region", "Frankfurt"));
        assert_eq!(registry.len(), 17);
    }

    /// Pins the documented snapshot invariant: because each lookup
    /// increments exactly one of `chunk_hits`/`chunk_misses` *after*
    /// the lookup was counted as initiated, a concurrent snapshot may
    /// lag but can never observe `hits + misses` exceeding the
    /// initiated-lookup count, despite every load being `Relaxed` and
    /// per-field.
    #[test]
    fn snapshot_never_overcounts_lookups_mid_hammer() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

        let stats = AtomicCacheStats::new();
        let lookups = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let stats = &stats;
                let lookups = &lookups;
                let stop = &stop;
                scope.spawn(move || {
                    let mut i = worker;
                    while !stop.load(Ordering::Relaxed) {
                        // A lookup is "initiated" strictly before its
                        // outcome is recorded.
                        lookups.fetch_add(1, Ordering::SeqCst);
                        if i % 3 == 0 {
                            stats.chunk_misses.inc();
                        } else {
                            stats.chunk_hits.inc();
                        }
                        i += 1;
                    }
                });
            }
            for _ in 0..200 {
                let snap = stats.snapshot();
                // Load the floor *after* the snapshot (fence keeps the
                // relaxed snapshot loads from sinking past it): every
                // outcome the snapshot saw had already bumped
                // `lookups`.
                std::sync::atomic::fence(Ordering::SeqCst);
                let initiated = lookups.load(Ordering::SeqCst);
                assert!(
                    snap.chunk_hits() + snap.chunk_misses() <= initiated,
                    "snapshot overcounted: {} + {} > {initiated}",
                    snap.chunk_hits(),
                    snap.chunk_misses()
                );
            }
            stop.store(true, Ordering::Relaxed);
        });
        // Quiescent: the counts reconcile exactly.
        let final_snap = stats.snapshot();
        assert_eq!(
            final_snap.chunk_hits() + final_snap.chunk_misses(),
            lookups.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn display_is_informative() {
        let atomic = AtomicCacheStats::new();
        atomic.chunk_hits.inc();
        atomic.record_object_read(2, 2);
        let text = atomic.snapshot().to_string();
        assert!(text.contains("chunks 1/1"));
        assert!(text.contains("objects 1 total"));
    }
}

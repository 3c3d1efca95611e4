//! Caching-option generation (the paper's §IV-A).
//!
//! A *caching option* is a hypothetical configuration for one object: a
//! set of chunks to cache, its weight (number of chunks) and its value
//! (popularity × expected latency improvement). Generation follows the
//! paper exactly:
//!
//! 1. discard the `m` chunks furthest from the cache (never fetched in
//!    the failure-free common case);
//! 2. fill options with chunks from the most distant remaining sites
//!    inward, one option per weight 1..=k;
//! 3. the latency improvement of an option is the difference between the
//!    latency of the furthest region contacted without the cached chunks
//!    and with them (chunk requests are issued in parallel, so the
//!    slowest contacted site dominates).

use agar_ec::ObjectId;
use agar_store::ObjectManifest;
use std::time::Duration;

/// One candidate cache allocation for one object.
#[derive(Clone, PartialEq, Debug)]
pub struct CachingOption {
    object: ObjectId,
    /// Chunk indices to cache, most distant first.
    chunks: Vec<u8>,
    /// Popularity × latency-improvement-in-ms.
    value: f64,
    /// Expected read latency (slowest contacted site) with these chunks
    /// cached — kept for diagnostics and tests.
    expected_latency: Duration,
}

impl CachingOption {
    /// The object this option caches chunks of.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// The chunk indices this option caches.
    pub fn chunks(&self) -> &[u8] {
        &self.chunks
    }

    /// Number of chunks cached (the Knapsack weight).
    pub fn weight(&self) -> u32 {
        self.chunks.len() as u32
    }

    /// Popularity-weighted latency improvement (the Knapsack value).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Expected read latency when this option is in effect.
    pub fn expected_latency(&self) -> Duration {
        self.expected_latency
    }
}

/// All caching options for one object, indexed by weight.
#[derive(Clone, Debug)]
pub struct ObjectOptions {
    object: ObjectId,
    /// `options[w - 1]` caches `w` chunks.
    options: Vec<CachingOption>,
    /// Expected read latency with nothing cached.
    baseline_latency: Duration,
}

impl ObjectOptions {
    /// The object these options describe.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// The option of exact weight `w`, if `1 <= w <= k`.
    pub fn by_weight(&self, w: u32) -> Option<&CachingOption> {
        if w == 0 {
            return None;
        }
        self.options.get(w as usize - 1)
    }

    /// All options, weight ascending.
    pub fn iter(&self) -> impl Iterator<Item = &CachingOption> {
        self.options.iter()
    }

    /// The highest option value across all weights (used to order keys).
    pub fn best_value(&self) -> f64 {
        self.options
            .iter()
            .map(CachingOption::value)
            .fold(0.0, f64::max)
    }

    /// Read latency with nothing cached (slowest contacted site).
    pub fn baseline_latency(&self) -> Duration {
        self.baseline_latency
    }

    /// The *dominant* options: strictly increasing latency improvement
    /// with weight. In the paper's six-region deployment these are the
    /// weights {1, 3, 5, 7, 9} — adding the second chunk of a region
    /// never helps until the whole region is removed from the read path.
    pub fn dominant(&self) -> Vec<&CachingOption> {
        let mut out: Vec<&CachingOption> = Vec::new();
        let mut best = 0.0;
        for option in &self.options {
            // Improvement is proportional to value at fixed popularity;
            // compare per-chunk latency improvement directly.
            let improvement = self
                .baseline_latency
                .saturating_sub(option.expected_latency)
                .as_secs_f64();
            if improvement > best + 1e-12 {
                out.push(option);
                best = improvement;
            }
        }
        out
    }
}

/// Generates the caching options for one object: the single-budget
/// case of [`generate_disk_options`], with nothing in RAM yet and the
/// cache itself as the tier.
///
/// - `latencies[r]` is the estimated chunk-read latency from the local
///   region to region `r` (the region manager's estimates);
/// - `cache_read` is the latency of reading a chunk from the local
///   cache;
/// - `popularity` is the request monitor's EWMA popularity.
///
/// # Panics
///
/// Panics if `latencies` does not cover every region in the manifest —
/// the caller wires both from the same topology, so a mismatch is a bug.
pub fn generate_options(
    manifest: &ObjectManifest,
    latencies: &[Duration],
    cache_read: Duration,
    popularity: f64,
) -> ObjectOptions {
    price(manifest, latencies, cache_read, cache_read, &[], popularity)
}

/// Generates the *disk-tier* caching options for one object, conditioned
/// on a RAM allocation already chosen by the first knapsack phase.
///
/// The disk tier is the second budget of the two-tier solve: after the
/// RAM phase fixes `ram_chunks`, the remaining used chunks (most distant
/// first) become candidates for the per-node disk store. A disk option
/// of weight `w` caches the `w` most distant remaining chunks; its
/// residual latency is the slowest of
///
/// - the next remaining uncached site (chunks still fetched remotely),
/// - `disk_read` (the disk reads run in parallel with the fetches), and
/// - `cache_read` when RAM chunks participate in the read;
///
/// and its value is `popularity ×` the improvement over the residual
/// latency of the RAM allocation alone. Returns `None` when the RAM
/// allocation already covers every used chunk (nothing left to place).
///
/// # Panics
///
/// Panics if `latencies` does not cover every region in the manifest —
/// the caller wires both from the same topology, so a mismatch is a bug.
pub fn generate_disk_options(
    manifest: &ObjectManifest,
    latencies: &[Duration],
    cache_read: Duration,
    disk_read: Duration,
    ram_chunks: &[u8],
    popularity: f64,
) -> Option<ObjectOptions> {
    let options = price(
        manifest, latencies, cache_read, disk_read, ram_chunks, popularity,
    );
    (!options.options.is_empty()).then_some(options)
}

/// The one pricing rule both generators share: the options of caching,
/// in a tier read at `tier_read`, the `w` most distant of the used
/// chunks `ram_chunks` leaves on the remote path, for every `w`.
fn price(
    manifest: &ObjectManifest,
    latencies: &[Duration],
    cache_read: Duration,
    tier_read: Duration,
    ram_chunks: &[u8],
    popularity: f64,
) -> ObjectOptions {
    // Chunks the RAM phase left on the remote read path, most distant
    // first (RAM options are distance prefixes, so this is a suffix —
    // but membership is checked explicitly for robustness).
    let mut remaining = used_chunks(manifest, latencies);
    remaining.retain(|(chunk, _)| !ram_chunks.contains(chunk));
    // The floor every residual keeps: the cache read when RAM
    // participates in the read.
    let floor = if ram_chunks.is_empty() {
        Duration::ZERO
    } else {
        cache_read
    };
    // Residual latency of the RAM allocation alone: the slowest
    // remaining site.
    let baseline_latency = remaining
        .first()
        .map_or(cache_read, |&(_, latency)| latency.max(floor));

    let mut options = Vec::with_capacity(remaining.len());
    for w in 1..=remaining.len() {
        let chunks: Vec<u8> = remaining[..w].iter().map(|&(c, _)| c).collect();
        // The slowest remaining fetch is the (w+1)-th most distant, or
        // the tier itself once everything needed is cached.
        let next_site = remaining.get(w).map_or(Duration::ZERO, |&(_, l)| l);
        let residual = next_site.max(tier_read).max(floor);
        let improvement_ms = baseline_latency.saturating_sub(residual).as_secs_f64() * 1_000.0;
        options.push(CachingOption {
            object: manifest.object(),
            chunks,
            value: popularity * improvement_ms,
            expected_latency: residual,
        });
    }
    ObjectOptions {
        object: manifest.object(),
        options,
        baseline_latency,
    }
}

/// The `k` chunks a failure-free read fetches, most distant first: the
/// `k` cheapest of [`ObjectManifest::rank_chunks`], reversed. The `m`
/// furthest are discarded — never fetched without failures, so caching
/// them would only add cache-miss download cost (§IV-A). Within one
/// region the lower (data) chunk index stays in use, keeping decode work
/// minimal in the common case.
fn used_chunks(manifest: &ObjectManifest, latencies: &[Duration]) -> Vec<(u8, Duration)> {
    let mut used = manifest.rank_chunks(latencies);
    used.truncate(manifest.params().data_chunks());
    used.reverse();
    used
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_ec::CodingParams;
    use agar_net::RegionId;

    /// Builds a manifest mirroring the paper's Figure 1 layout: RS(9,3),
    /// chunk i in region i % 6.
    fn paper_manifest() -> ObjectManifest {
        let params = CodingParams::paper_default();
        let locations = (0..12).map(|i| RegionId::new(i % 6)).collect();
        ObjectManifest::new(ObjectId::new(1), 1_000_000, 1, params, locations)
    }

    /// The paper's Table I latencies from Frankfurt, in region-id order
    /// (FRA, DUB, NVA, SAO, TYO, SYD).
    fn table1_latencies() -> Vec<Duration> {
        [80u64, 200, 600, 1400, 3400, 4600]
            .into_iter()
            .map(Duration::from_millis)
            .collect()
    }

    #[test]
    fn paper_worked_example_option_values() {
        // §IV's example: popularity 80; option 1 caches the Tokyo block
        // with value 80 x (3400 - 1400) = 160_000; option of weight 3
        // (Tokyo + the two São Paulo blocks) is worth 80 x (3400 - 600).
        // (The paper quotes "option 2" as caching São Paulo's two blocks
        // for 80 x (1400 - 600) = 64_000 of *additional* value, i.e. the
        // increment between weights 1 and 3.)
        let manifest = paper_manifest();
        let options = generate_options(
            &manifest,
            &table1_latencies(),
            Duration::from_millis(40),
            80.0,
        );

        let w1 = options.by_weight(1).unwrap();
        assert_eq!(w1.value(), 80.0 * 2000.0);
        // The single cached chunk is Tokyo's remaining data chunk (#4):
        // the discarded m = 3 are Sydney's two (#5, #11) and Tokyo's
        // parity (#10; ties broken toward lower index keeps #4 in use).
        assert_eq!(w1.chunks(), &[4]);

        let w3 = options.by_weight(3).unwrap();
        assert_eq!(w3.value(), 80.0 * 2800.0);
        // Tokyo's chunk plus São Paulo's two.
        assert_eq!(w3.chunks().len(), 3);
        assert!(w3.chunks().contains(&4));
        assert!(w3.chunks().contains(&3));
        assert!(w3.chunks().contains(&9));

        // Weight 2 adds a São Paulo chunk but the other stays on the
        // read path: no extra improvement over weight 1.
        let w2 = options.by_weight(2).unwrap();
        assert_eq!(w2.value(), w1.value());

        // Full replica: residual latency is the cache itself.
        let w9 = options.by_weight(9).unwrap();
        assert_eq!(w9.expected_latency(), Duration::from_millis(40));
        assert_eq!(w9.value(), 80.0 * (3400.0 - 40.0));
    }

    #[test]
    fn baseline_is_slowest_used_chunk() {
        let manifest = paper_manifest();
        let options = generate_options(
            &manifest,
            &table1_latencies(),
            Duration::from_millis(40),
            1.0,
        );
        // Furthest used chunk after discarding m = 3: Tokyo at 3400.
        assert_eq!(options.baseline_latency(), Duration::from_millis(3400));
    }

    #[test]
    fn dominant_options_match_region_boundaries() {
        let manifest = paper_manifest();
        let options = generate_options(
            &manifest,
            &table1_latencies(),
            Duration::from_millis(40),
            1.0,
        );
        let weights: Vec<u32> = options.dominant().iter().map(|o| o.weight()).collect();
        assert_eq!(weights, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn values_monotone_in_weight() {
        let manifest = paper_manifest();
        let options = generate_options(
            &manifest,
            &table1_latencies(),
            Duration::from_millis(40),
            5.0,
        );
        let values: Vec<f64> = options.iter().map(CachingOption::value).collect();
        for pair in values.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
        assert_eq!(options.best_value(), *values.last().unwrap());
    }

    #[test]
    fn zero_popularity_zeroes_values() {
        let manifest = paper_manifest();
        let options = generate_options(
            &manifest,
            &table1_latencies(),
            Duration::from_millis(40),
            0.0,
        );
        assert!(options.iter().all(|o| o.value() == 0.0));
    }

    #[test]
    fn chunks_are_most_distant_first() {
        let manifest = paper_manifest();
        let options = generate_options(
            &manifest,
            &table1_latencies(),
            Duration::from_millis(40),
            1.0,
        );
        let w5 = options.by_weight(5).unwrap();
        // Distances: TYO(4) > SAO(3,9) > NVA(2,8) > ...
        assert_eq!(w5.chunks()[0], 4);
        let set: std::collections::HashSet<u8> = w5.chunks().iter().copied().collect();
        assert_eq!(set, [4u8, 3, 9, 2, 8].into_iter().collect());
    }

    #[test]
    fn by_weight_bounds() {
        let manifest = paper_manifest();
        let options = generate_options(
            &manifest,
            &table1_latencies(),
            Duration::from_millis(40),
            1.0,
        );
        assert!(options.by_weight(0).is_none());
        assert!(options.by_weight(9).is_some());
        assert!(options.by_weight(10).is_none());
    }

    #[test]
    fn disk_options_price_the_second_budget_after_ram() {
        // RAM phase cached Tokyo's data chunk (#4); the disk tier now
        // prices the remaining eight used chunks at disk_read = 150 ms.
        let manifest = paper_manifest();
        let options = generate_disk_options(
            &manifest,
            &table1_latencies(),
            Duration::from_millis(40),
            Duration::from_millis(150),
            &[4],
            10.0,
        )
        .unwrap();
        // Residual with only RAM in effect: São Paulo at 1400 ms.
        assert_eq!(options.baseline_latency(), Duration::from_millis(1400));
        // One São Paulo chunk on disk leaves the other remote: no gain.
        assert_eq!(options.by_weight(1).unwrap().value(), 0.0);
        // Both São Paulo chunks on disk: residual drops to NVA's 600 ms.
        let w2 = options.by_weight(2).unwrap();
        assert_eq!(w2.value(), 10.0 * (1400.0 - 600.0));
        assert_eq!(w2.expected_latency(), Duration::from_millis(600));
        // All eight remaining chunks on disk: the disk itself dominates.
        let w8 = options.by_weight(8).unwrap();
        assert_eq!(w8.expected_latency(), Duration::from_millis(150));
        assert_eq!(w8.value(), 10.0 * (1400.0 - 150.0));
        assert!(options.by_weight(9).is_none(), "only 8 chunks remain");
        // Disk chunks never overlap the RAM allocation.
        assert!(options.iter().all(|o| !o.chunks().contains(&4)));
    }

    #[test]
    fn disk_options_without_ram_allocation_start_from_the_cold_baseline() {
        let manifest = paper_manifest();
        let options = generate_disk_options(
            &manifest,
            &table1_latencies(),
            Duration::from_millis(40),
            Duration::from_millis(150),
            &[],
            1.0,
        )
        .unwrap();
        // No RAM chunks: the baseline is the cold read's 3400 ms.
        assert_eq!(options.baseline_latency(), Duration::from_millis(3400));
        // Full disk replica bottoms out at the disk read, not the cache.
        let w9 = options.by_weight(9).unwrap();
        assert_eq!(w9.expected_latency(), Duration::from_millis(150));
        assert_eq!(w9.chunks().len(), 9);
    }

    #[test]
    fn full_ram_allocation_leaves_no_disk_options() {
        let manifest = paper_manifest();
        let full_ram: Vec<u8> = vec![4, 9, 3, 8, 2, 7, 1, 6, 0];
        assert!(generate_disk_options(
            &manifest,
            &table1_latencies(),
            Duration::from_millis(40),
            Duration::from_millis(150),
            &full_ram,
            1.0,
        )
        .is_none());
    }

    #[test]
    fn slow_disk_yields_worthless_options() {
        // A disk slower than every remote site can never improve a read.
        let manifest = paper_manifest();
        let options = generate_disk_options(
            &manifest,
            &table1_latencies(),
            Duration::from_millis(40),
            Duration::from_millis(5_000),
            &[4],
            10.0,
        )
        .unwrap();
        assert!(options.iter().all(|o| o.value() == 0.0));
    }
}

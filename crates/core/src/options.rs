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
    let used = used_chunks(manifest, latencies);
    price(
        manifest.object(),
        &used,
        cache_read,
        cache_read,
        false,
        popularity,
    )
}

/// Generates the *disk-tier* caching options for one object, conditioned
/// on the RAM allocation `ram_chunks`.
///
/// Given `ram_chunks`, the remaining used chunks (most distant first)
/// become candidates for the per-node disk store. A disk option
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
    // RAM options are distance prefixes, so what they leave is a
    // suffix — but membership is checked explicitly for robustness.
    let mut remaining = used_chunks(manifest, latencies);
    remaining.retain(|(chunk, _)| !ram_chunks.contains(chunk));
    let in_ram = !ram_chunks.is_empty();
    let options = price(
        manifest.object(),
        &remaining,
        cache_read,
        disk_read,
        in_ram,
        popularity,
    );
    (!options.options.is_empty()).then_some(options)
}

/// One object's joint options over the two tiers: for every RAM weight
/// `r = 0..=k` (the `r` most distant used chunks, as
/// [`generate_options`] takes them), the disk options of the next `d`
/// chunks, `d = 1..=k - r`. Every pair is priced by the one rule the
/// read is priced by (`read::price`): `cache_read` if `r > 0`,
/// `disk_read` if `d > 0`, and the slowest site still fetched remotely,
/// whichever is slowest.
#[derive(Clone, Debug)]
pub struct TieredOptions {
    /// The RAM options, the paper's single-budget options.
    ram: ObjectOptions,
    /// The used chunks, most distant first ([`used_chunks`]).
    used: Vec<(u8, Duration)>,
    /// The tiers' read latencies.
    cache_read: Duration,
    disk_read: Duration,
    /// The popularity every value is weighted by.
    popularity: f64,
    /// (expected latency, value) of `d` disk chunks after `r` in RAM,
    /// row by row: row `r` holds `d = 1..=k - r`, and starts at
    /// [`TieredOptions::row`]`(r)`.
    splits: Vec<(Duration, f64)>,
}

impl TieredOptions {
    /// The object these options describe.
    pub fn object(&self) -> ObjectId {
        self.ram.object
    }

    /// The RAM options: exactly [`generate_options`]' answer.
    pub fn ram(&self) -> &ObjectOptions {
        &self.ram
    }

    /// The number of chunks a failure-free read uses (`k`): the heaviest
    /// RAM weight.
    pub fn used(&self) -> u32 {
        self.used.len() as u32
    }

    /// Row `r` of the disk splits: (expected latency, value) of
    /// `d = 1..=k - r` disk chunks.
    fn row(&self, r: u32) -> &[(Duration, f64)] {
        let (r, k) = (r as usize, self.used.len());
        let start = r * k - r * r.saturating_sub(1) / 2;
        &self.splits[start..start + k - r]
    }

    /// The disk options after `r` chunks in RAM, exactly
    /// [`generate_disk_options`]' answer (empty at `r = k`), built on
    /// demand.
    ///
    /// # Panics
    ///
    /// Panics if `r` exceeds [`TieredOptions::used`].
    pub(crate) fn disk(&self, r: u32) -> ObjectOptions {
        let remaining = &self.used[r as usize..];
        let (cache_read, disk_read) = (self.cache_read, self.disk_read);
        price(
            self.object(),
            remaining,
            cache_read,
            disk_read,
            r > 0,
            self.popularity,
        )
    }

    /// The disk option of `d` chunks after `r` in RAM, if `d > 0`.
    pub(crate) fn disk_option(&self, r: u32, d: u32) -> Option<CachingOption> {
        let &(expected_latency, value) = self.row(r).get((d as usize).checked_sub(1)?)?;
        let chunks = &self.used[r as usize..(r + d) as usize];
        Some(CachingOption {
            object: self.object(),
            chunks: chunks.iter().map(|&(chunk, _)| chunk).collect(),
            value,
            expected_latency,
        })
    }

    /// What a read is worth with `r` chunks in RAM and `d` on disk: the
    /// RAM option's value plus the disk option's, 0 for `(0, 0)`.
    pub fn value(&self, r: u32, d: u32) -> f64 {
        let in_ram = self.ram.by_weight(r).map_or(0.0, CachingOption::value);
        let on_disk = (d as usize).checked_sub(1).and_then(|i| self.row(r).get(i));
        in_ram + on_disk.map_or(0.0, |&(_, value)| value)
    }

    /// The expected read latency with `r` chunks in RAM and `d` on disk.
    pub fn expected_latency(&self, r: u32, d: u32) -> Duration {
        let on_disk = (d as usize).checked_sub(1).and_then(|i| self.row(r).get(i));
        match (self.ram.by_weight(r), on_disk) {
            (_, Some(&(latency, _))) => latency,
            (Some(ram), None) => ram.expected_latency,
            (None, None) => self.ram.baseline_latency,
        }
    }

    /// The joint option of RAM weight `r` under a price of `lambda` per
    /// disk chunk: the disk count `d` that maximises
    /// `value(r, d) - lambda * d`, and that maximum. Ties go to the
    /// fewer disk chunks.
    pub fn joint(&self, r: u32, lambda: f64) -> (u32, f64) {
        let mut best = (0, 0.0);
        for (d, &(_, value)) in (1..).zip(self.row(r)) {
            let priced = value - lambda * f64::from(d);
            if priced > best.1 {
                best = (d, priced);
            }
        }
        let in_ram = self.ram.by_weight(r).map_or(0.0, CachingOption::value);
        (best.0, in_ram + best.1)
    }
}

/// Generates one object's joint options over a RAM tier read at
/// `cache_read` and a disk tier read at `disk_read`: its RAM options
/// ([`generate_options`]) and, for every RAM weight, the disk options
/// conditioned on it ([`generate_disk_options`]), all from one pricing
/// rule.
///
/// # Panics
///
/// Panics if `latencies` does not cover every region in the manifest —
/// the caller wires both from the same topology, so a mismatch is a bug.
pub fn generate_tiered_options(
    manifest: &ObjectManifest,
    latencies: &[Duration],
    cache_read: Duration,
    disk_read: Duration,
    popularity: f64,
) -> TieredOptions {
    let used = used_chunks(manifest, latencies);
    let ram = price(
        manifest.object(),
        &used,
        cache_read,
        cache_read,
        false,
        popularity,
    );
    // RAM's option of weight r holds the first r used chunks.
    let k = used.len();
    let mut splits = Vec::with_capacity(k * (k + 1) / 2);
    for r in 0..=k {
        let (_, priced) = priced(&used[r..], cache_read, disk_read, r > 0, popularity);
        splits.extend(priced);
    }
    TieredOptions {
        ram,
        used,
        cache_read,
        disk_read,
        popularity,
        splits,
    }
}

/// The options of caching, in a tier read at `tier_read`, the `w` most
/// distant of the used chunks ([`used_chunks`]) still on the remote
/// path, `remaining` (most distant first), for every `w`, as
/// [`priced`] prices them. `in_ram` says whether RAM holds the object's
/// other used chunks.
fn price(
    object: ObjectId,
    remaining: &[(u8, Duration)],
    cache_read: Duration,
    tier_read: Duration,
    in_ram: bool,
    popularity: f64,
) -> ObjectOptions {
    let (baseline_latency, priced) = priced(remaining, cache_read, tier_read, in_ram, popularity);
    let options = (1..)
        .zip(priced)
        .map(|(w, (expected_latency, value))| CachingOption {
            object,
            chunks: remaining[..w].iter().map(|&(c, _)| c).collect(),
            value,
            expected_latency,
        })
        .collect();
    ObjectOptions {
        object,
        options,
        baseline_latency,
    }
}

/// The one pricing rule every generator shares: the expected latency of
/// a read with the `w` most distant of `remaining` cached in a tier read
/// at `tier_read`, for every `w`, and its value, `popularity ×` the
/// milliseconds it saves over none of them (the baseline, returned
/// first). A read's latency is its slowest parallel source: the next
/// remaining site, the tier, and the RAM read when `in_ram`.
fn priced(
    remaining: &[(u8, Duration)],
    cache_read: Duration,
    tier_read: Duration,
    in_ram: bool,
    popularity: f64,
) -> (Duration, impl Iterator<Item = (Duration, f64)> + '_) {
    // The floor every residual keeps: the cache read when RAM
    // participates in the read.
    let floor = if in_ram { cache_read } else { Duration::ZERO };
    // Residual latency without the tier: the slowest remaining site.
    let baseline_latency = remaining
        .first()
        .map_or(cache_read, |&(_, latency)| latency.max(floor));
    let priced = (1..=remaining.len()).map(move |w| {
        // The slowest remaining fetch is the (w+1)-th most distant, or
        // the tier itself once everything needed is cached.
        let next_site = remaining.get(w).map_or(Duration::ZERO, |&(_, l)| l);
        let residual = next_site.max(tier_read).max(floor);
        let improvement_ms = baseline_latency.saturating_sub(residual).as_secs_f64() * 1_000.0;
        (residual, popularity * improvement_ms)
    });
    (baseline_latency, priced)
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

impl ObjectOptions {
    /// These options with the weight-`w` option worth `values[w - 1]`:
    /// the same chunks, priced for another objective.
    pub(crate) fn revalued(&self, values: &[f64]) -> Self {
        let options = self
            .options
            .iter()
            .zip(values)
            .map(|(option, &value)| CachingOption {
                value,
                ..option.clone()
            })
            .collect();
        ObjectOptions {
            object: self.object,
            options,
            baseline_latency: self.baseline_latency,
        }
    }
}

#[cfg(test)]
impl ObjectOptions {
    /// Options for `object` whose weight-`w` option is worth
    /// `values[w - 1]`: for solver tests that need values no latency
    /// model produces (not monotone in weight, tied, tiny or huge).
    pub(crate) fn from_values(object: ObjectId, values: &[f64]) -> Self {
        ObjectOptions {
            object,
            options: (1..=values.len() as u8)
                .zip(values)
                .map(|(weight, &value)| CachingOption {
                    object,
                    chunks: (0..weight).collect(),
                    value,
                    expected_latency: Duration::ZERO,
                })
                .collect(),
            baseline_latency: Duration::ZERO,
        }
    }
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
        assert_eq!(options.baseline_latency, Duration::from_millis(3400));
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
        assert_eq!(options.baseline_latency, Duration::from_millis(1400));
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
        assert_eq!(options.baseline_latency, Duration::from_millis(3400));
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
    fn tiered_options_price_every_split_as_the_read_does() {
        let manifest = paper_manifest();
        let (cache_read, disk_read) = (Duration::from_millis(40), Duration::from_millis(150));
        let options =
            generate_tiered_options(&manifest, &table1_latencies(), cache_read, disk_read, 10.0);
        assert_eq!(options.used(), 9);
        assert_eq!(options.object(), manifest.object());
        let ms = |ms| Duration::from_millis(ms);
        // Nothing cached: the cold read's slowest used site, Tokyo.
        assert_eq!(
            (options.value(0, 0), options.expected_latency(0, 0)),
            (0.0, ms(3400))
        );
        // RAM alone: exactly the single-budget options.
        let ram = generate_options(&manifest, &table1_latencies(), cache_read, 10.0);
        for r in 1..=9 {
            let option = ram.by_weight(r).unwrap();
            assert_eq!(options.value(r, 0), option.value());
            assert_eq!(options.expected_latency(r, 0), option.expected_latency());
        }
        // Disk alone: the disk floor, never the cache's.
        assert_eq!(options.expected_latency(0, 9), disk_read);
        assert_eq!(options.value(0, 9), 10.0 * (3400.0 - 150.0));
        // Tokyo in RAM, both São Paulo chunks on disk: N. Virginia next.
        assert_eq!(options.expected_latency(1, 2), ms(600));
        assert_eq!(options.value(1, 2), 10.0 * (3400.0 - 600.0));
        // Both tiers and no remote site: the slower tier.
        assert_eq!(options.expected_latency(4, 5), disk_read);
        assert_eq!(options.value(4, 5), options.value(0, 9));
        // Every split is the disk option conditioned on its RAM weight.
        for r in 0..=9 {
            let in_ram = ram.by_weight(r).map_or(&[][..], CachingOption::chunks);
            let disk = generate_disk_options(
                &manifest,
                &table1_latencies(),
                cache_read,
                disk_read,
                in_ram,
                10.0,
            );
            for d in 0..=10 {
                let option = disk.as_ref().and_then(|o| o.by_weight(d)).cloned();
                assert_eq!(options.disk(r).by_weight(d).cloned(), option, "({r}, {d})");
                assert_eq!(options.disk_option(r, d), option, "({r}, {d})");
            }
        }
        assert!(
            options.disk(9).iter().next().is_none(),
            "nothing left at r = k"
        );
    }

    #[test]
    fn joint_takes_the_best_disk_count_at_its_price() {
        let manifest = paper_manifest();
        let options = generate_tiered_options(
            &manifest,
            &table1_latencies(),
            Duration::from_millis(40),
            Duration::from_millis(150),
            1.0,
        );
        // Free disk: the fewest chunks of the best value. Frankfurt's
        // own pair (80 ms) is faster than the 150 ms disk, so it stays
        // remote.
        assert_eq!(options.joint(0, 0.0), (7, options.value(0, 9)));
        assert_eq!(options.value(0, 7), options.value(0, 9));
        assert_eq!(options.joint(4, 0.0), (3, options.value(4, 5)));
        assert_eq!(options.joint(9, 0.0), (0, options.value(9, 0)));
        // São Paulo's second chunk adds nothing without the first's
        // partner: at any price d = 1 never beats d = 0 after Tokyo.
        assert_eq!(options.value(1, 1), options.value(1, 0));
        // A price above every chunk's worth leaves the disk empty.
        assert_eq!(options.joint(0, 1e9), (0, 0.0));
        assert_eq!(options.joint(3, 1e9), (0, options.value(3, 0)));
        // In between: the two São Paulo chunks pay 400 ms each, so at
        // 399 they go on disk after Tokyo and nothing else does.
        assert_eq!(options.joint(1, 399.0).0, 2);
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

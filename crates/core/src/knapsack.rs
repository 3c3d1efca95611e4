//! The cache-configuration Knapsack solver (the paper's §IV-B,
//! Figures 4 & 5).
//!
//! Choosing which erasure-coded chunks to cache is a 0/1-Knapsack
//! variant: at most one caching option per object, weights are chunk
//! counts, values are popularity-weighted latency improvements.
//!
//! **The epoch's solve is exact.** A node without a disk tier runs
//! [`optimum`]: the multiple-choice-knapsack (MCKP) dynamic program over
//! capacity, in `O(objects × capacity × k)` time. On every recorded
//! epoch of `paper-zipf` and `tiered-pressure` it gives the same
//! configuration as the paper's `populate` wherever `populate` is
//! optimal, and it runs 8–9× faster (EXPERIMENTS.md). The paper
//! truncates its solve only to bound runtime (§VI), so the node no
//! longer truncates: early termination and passes apply to `populate`
//! alone, which the `ablation` experiment, the knapsack playground
//! example and the tests run.
//!
//! **A node with a disk tier solves both budgets as one knapsack**,
//! [`optimum_tiered`], over joint options priced as the read is priced
//! ([`TieredOptions`]). Whether a RAM chunk is worth its slot depends
//! on what lands on disk: a read partly in RAM and partly on disk costs
//! the slower tier, so beside a disk about as fast as RAM, RAM buys
//! latency only for an object it holds whole. The solve relaxes the
//! disk budget by a price per disk chunk, which leaves one [`optimum`]
//! over RAM; it is exact whenever the disk budget does not bind at a
//! price of 0. The sequential solve it replaced,
//! [`KnapsackSolver::populate_tiered`], fills RAM first against the
//! remote baseline and then the disk with what RAM left.
//!
//! **Every exact solve is certified** in builds with debug assertions,
//! by the MCKP's LP relaxation (Kellerer et al. ch. 11): the segments of
//! each object's upper convex hull, taken by decreasing slope until the
//! capacity is used, the last in part. The whole segments reach a
//! configuration and the relaxation bounds every one, so `optimum`
//! asserts that its answer is worth between the two.
//!
//! [`KnapsackSolver::populate`] is the paper's algorithm as its
//! pseudocode is written: `MaxV`, a map from weight to the best
//! [`Config`] of that weight, improved by two moves per option:
//!
//! - **Addition** — append an option to an existing intermediate
//!   configuration, producing a heavier configuration;
//! - **Relaxation** — shrink an option already in the configuration to
//!   a lower weight of the same object, using the freed space for the
//!   new option, keeping total weight constant.
//!
//! Documented deviations from the paper's pseudocode (the README lists
//! them all under "Deviations from the paper's pseudocode"):
//! weight keys are snapshotted per option (the pseudocode mutates `MaxV`
//! while iterating it), an option is never added to a configuration that
//! already caches its object (the pseudocode would double-count), and
//! the final answer is the best configuration of weight ≤ capacity
//! rather than exactly capacity.
//!
//! A greedy value-density solver is included as a baseline: §II-D
//! argues greedy can err by as much as 50%, and the tests verify the
//! dynamic program dominates greedy and matches the optimum on small
//! instances.

use crate::options::{CachingOption, ObjectOptions, TieredOptions};
use agar_ec::ObjectId;
use std::collections::{BTreeMap, HashMap};

/// An intermediate or final cache configuration: at most one caching
/// option per object.
#[derive(Clone, Debug, Default)]
pub struct Config {
    options: Vec<CachingOption>,
    weight: u32,
    value: f64,
}

impl Config {
    /// The empty configuration.
    pub fn empty() -> Self {
        Config::default()
    }

    /// Total weight in chunks.
    pub fn weight(&self) -> u32 {
        self.weight
    }

    /// Total popularity-weighted latency improvement.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The chosen options.
    pub fn options(&self) -> &[CachingOption] {
        &self.options
    }

    /// Whether an option for `object` is already present.
    fn contains_object(&self, object: ObjectId) -> bool {
        self.options.iter().any(|o| o.object() == object)
    }

    fn push(&mut self, option: CachingOption) {
        debug_assert!(!self.contains_object(option.object()));
        self.weight += option.weight();
        self.value += option.value();
        self.options.push(option);
    }

    /// This configuration with the option at `index`, if any, swapped
    /// for `replacement`, if any, and `addition` appended: its value is
    /// summed again in list order.
    fn replaced(
        &self,
        index: Option<usize>,
        replacement: Option<CachingOption>,
        addition: CachingOption,
    ) -> Config {
        let options: Vec<CachingOption> = (0..self.options.len())
            .filter(|&i| Some(i) != index)
            .map(|i| self.options[i].clone())
            .chain(replacement)
            .chain([addition])
            .collect();
        Config {
            weight: options.iter().map(CachingOption::weight).sum(),
            value: options.iter().map(CachingOption::value).sum(),
            options,
        }
    }
}

/// The relaxation move (paper Figure 5): try to make room for `option`
/// by shrinking one existing option of the configuration to a lower
/// weight of the same object, keeping the configuration's total weight
/// unchanged. Returns the improved configuration if any replacement
/// raises the value.
fn relax(
    config: &Config,
    option: &CachingOption,
    all_options: &HashMap<ObjectId, ObjectOptions>,
) -> Option<Config> {
    if config.contains_object(option.object()) {
        return None;
    }
    let mut best: Option<Config> = None;
    let mut best_value = config.value();
    for (index, old) in config.options().iter().enumerate() {
        if old.weight() < option.weight() {
            continue; // cannot free enough space
        }
        // SEARCHOPTION: the same object's option at the reduced weight;
        // weight 0 means full eviction (an implicit empty option).
        let shrunk = old.weight() - option.weight();
        let replacement = match all_options
            .get(&old.object())
            .and_then(|o| o.by_weight(shrunk))
        {
            Some(o) => Some(o.clone()),
            None if shrunk == 0 => None,
            None => continue,
        };
        let replacement_value = replacement.as_ref().map_or(0.0, CachingOption::value);
        let candidate_value = config.value() - old.value() + replacement_value + option.value();
        if candidate_value > best_value + 1e-9 {
            best_value = candidate_value;
            best = Some(config.replaced(Some(index), replacement, option.clone()));
        }
    }
    best
}

/// The paper's dynamic-programming solver for the cache configuration
/// (Figure 4), [`KnapsackSolver::populate`]. Its passes and early
/// termination configure `populate` alone: the epoch's solves,
/// [`optimum`] and [`optimum_tiered`], are exact.
#[derive(Clone, Debug)]
pub struct KnapsackSolver {
    /// §VI optimisation: stop after this many additional keys once a
    /// configuration of full capacity weight first exists. `None` runs
    /// the dynamic program to completion.
    stop_keys_after_full: Option<usize>,
    /// Number of sweeps over the option list. The paper's single-table
    /// RELAX can destroy a configuration that a later option needed to
    /// extend; a second sweep recovers most such losses (README,
    /// "Deviations from the paper's pseudocode"). The result remains an
    /// approximation, as the paper itself acknowledges (§VII-B).
    passes: usize,
}

impl Default for KnapsackSolver {
    fn default() -> Self {
        KnapsackSolver {
            stop_keys_after_full: None,
            passes: 2,
        }
    }
}

impl KnapsackSolver {
    /// The default solver: full run, two sweeps.
    pub fn new() -> Self {
        KnapsackSolver::default()
    }

    /// Overrides the number of sweeps over the option list (minimum 1).
    /// One sweep is the paper's literal single-pass table.
    #[must_use]
    pub fn with_passes(mut self, passes: usize) -> Self {
        self.passes = passes.max(1);
        self
    }

    /// Enables the paper's §VI early-termination heuristic: the run
    /// stops `keys` keys after a configuration of exactly the capacity
    /// weight first appears, making runtime independent of catalogue
    /// size.
    #[must_use]
    pub fn with_early_termination(mut self, keys: usize) -> Self {
        self.stop_keys_after_full = Some(keys);
        self
    }

    /// Computes the best configuration of weight ≤ `capacity` chunks.
    ///
    /// `POPULATE` from the paper: iterate objects in decreasing
    /// best-value order; for each of the object's options, first try to
    /// relax every intermediate configuration, then try to extend every
    /// intermediate configuration by addition. Each accepted move
    /// materialises its configuration, so a solve is quadratic in the
    /// budget; the epoch runs [`optimum`] instead.
    pub fn populate(
        &self,
        all_options: &HashMap<ObjectId, ObjectOptions>,
        capacity: u32,
    ) -> Config {
        if capacity == 0 {
            return Config::empty();
        }
        let keys = ordered_keys(all_options);
        if let Some(config) = uncontended(&keys, capacity) {
            return config;
        }

        let mut max_v: BTreeMap<u32, Config> = BTreeMap::new();
        max_v.insert(0, Config::empty());
        let mut keys_since_full: usize = 0;
        let mut seen_full = false;

        for object_options in keys.iter().cycle().take(keys.len() * self.passes) {
            for option in object_options.iter() {
                if option.weight() > capacity {
                    continue;
                }
                // Relaxation pass: improve configurations in place
                // (weight unchanged).
                let weights: Vec<u32> = max_v.keys().copied().collect();
                for w in &weights {
                    if let Some(improved) = relax(&max_v[w], option, all_options) {
                        debug_assert_eq!(improved.weight(), *w);
                        max_v.insert(*w, improved);
                    }
                }
                // Addition pass: extend configurations to new weights.
                // When the configuration already holds an option for the
                // same object, this becomes a *replacement* (upgrade or
                // downgrade) — without it a small option admitted early
                // could never grow, and the DP would miss optima the
                // exhaustive solver finds (README, "Deviations from the
                // paper's pseudocode").
                // Weights are visited in DESCENDING order, the classic
                // 0/1-knapsack trick: additions only ever target heavier
                // weights, so no configuration is overwritten before the
                // pass has extended it.
                let weights: Vec<u32> = max_v.keys().rev().copied().collect();
                for w in weights {
                    // Price the candidate without materialising it:
                    // almost every candidate loses the comparison below.
                    let base = &max_v[&w];
                    let held = base
                        .options
                        .iter()
                        .position(|o| o.object() == option.object());
                    let (new_weight, new_value) = match held.map(|index| &base.options[index]) {
                        Some(old) => (
                            w - old.weight() + option.weight(),
                            base.value() - old.value() + option.value(),
                        ),
                        None => (w + option.weight(), base.value() + option.value()),
                    };
                    if new_weight > capacity || new_weight == w {
                        continue;
                    }
                    let should_replace = max_v
                        .get(&new_weight)
                        .is_none_or(|existing| existing.value() < new_value - 1e-12);
                    if should_replace {
                        let candidate = base.replaced(held, None, option.clone());
                        debug_assert_eq!(candidate.weight(), new_weight);
                        max_v.insert(new_weight, candidate);
                    }
                }
            }

            if let Some(stop_after) = self.stop_keys_after_full {
                if seen_full {
                    keys_since_full += 1;
                    if keys_since_full >= stop_after {
                        break;
                    }
                } else if max_v.contains_key(&capacity) {
                    seen_full = true;
                }
            }
        }

        // The best configuration of weight ≤ capacity; among equal
        // values the last — heaviest — wins.
        max_v
            .into_values()
            .max_by(|a, b| {
                a.value()
                    .partial_cmp(&b.value())
                    .expect("config values are finite")
            })
            .unwrap_or_default()
    }

    /// The sequential two-budget solve over a RAM tier and a disk tier,
    /// exact in each phase but not over both: no epoch runs it. The node
    /// solves both budgets at once with [`optimum_tiered`]. The bench
    /// probe `core.knapsack.populate_ms` (`bench/src/probes.rs`) still
    /// times this solve, until that probe is pointed at the node's.
    ///
    /// Phase 1 solves `ram_options` against `ram_capacity` with
    /// [`optimum`]. Phase 2 asks `disk_options_for` for disk-tier options
    /// *conditioned on* the phase-1 allocation (the remaining chunks and
    /// the residual latencies they leave behind — see
    /// [`crate::options::generate_disk_options`]) and solves them the
    /// same way against `disk_capacity`. Conditioning keeps the two
    /// allocations disjoint by construction. The sequence prices RAM
    /// against the remote baseline, as if a chunk worth a RAM slot were
    /// worth it whatever lands on disk. That holds only while RAM is
    /// much faster than disk: a read partly in RAM and partly on disk
    /// costs the slower tier, so beside a disk about as fast as RAM the
    /// RAM phase spends its budget on the remote part of many objects,
    /// whose reads then cost what the disk alone gives.
    ///
    /// This solver's passes and early termination apply to `populate`
    /// alone.
    ///
    /// Returns `(ram, disk)`. The RAM configuration is exactly what
    /// [`optimum`] produces on its own, and with `disk_capacity = 0` the
    /// closure is never called and the disk configuration is empty.
    pub fn populate_tiered(
        &self,
        ram_options: &HashMap<ObjectId, ObjectOptions>,
        ram_capacity: u32,
        disk_capacity: u32,
        disk_options_for: impl FnOnce(&Config) -> HashMap<ObjectId, ObjectOptions>,
    ) -> (Config, Config) {
        let ram = optimum(ram_options, ram_capacity);
        let disk = if disk_capacity == 0 {
            Config::empty()
        } else {
            optimum(&disk_options_for(&ram), disk_capacity)
        };
        (ram, disk)
    }
}

/// Greedy baseline: sort all options by value density (value per chunk)
/// and take the best-density option per object that still fits. §II-D
/// explains why this can be far from optimal.
pub fn greedy(all_options: &HashMap<ObjectId, ObjectOptions>, capacity: u32) -> Config {
    let mut candidates: Vec<&CachingOption> = all_options
        .values()
        .flat_map(ObjectOptions::iter)
        .filter(|o| o.weight() > 0 && o.value() > 0.0)
        .collect();
    candidates.sort_by(|a, b| {
        let da = a.value() / a.weight() as f64;
        let db = b.value() / b.weight() as f64;
        db.partial_cmp(&da)
            .expect("densities are finite")
            .then(a.object().cmp(&b.object()))
            .then(a.weight().cmp(&b.weight()))
    });
    let mut config = Config::empty();
    for option in candidates {
        if config.contains_object(option.object()) {
            continue;
        }
        if config.weight() + option.weight() <= capacity {
            config.push(option.clone());
        }
    }
    config
}

/// The objects in `populate`'s key order (ORDERBY in the paper):
/// decreasing best value, ties by [`ObjectId`].
fn ordered_keys(all_options: &HashMap<ObjectId, ObjectOptions>) -> Vec<&ObjectOptions> {
    let mut keys: Vec<&ObjectOptions> = all_options.values().collect();
    keys.sort_by(|a, b| {
        b.best_value()
            .partial_cmp(&a.best_value())
            .expect("option values are finite")
            .then(a.object().cmp(&b.object()))
    });
    keys
}

/// The uncontended fast path of both solvers: when every object's best
/// option fits in the budget at once, the per-object choices are
/// independent and taking each object's maximum-value option is exactly
/// optimal, with no dynamic program needed. This is the common shape of
/// the *disk* phase of a two-tier solve, where the tier is sized to hold
/// most of what RAM rejected. Value ties break towards the heavier
/// option, as the dynamic programs' final scans do: a free upgrade to
/// more cached chunks at identical modelled value. Objects with no
/// option worth anything are left out. `None` when the best options do
/// not all fit.
fn uncontended(keys: &[&ObjectOptions], capacity: u32) -> Option<Config> {
    let best_per_object: Vec<&CachingOption> = keys
        .iter()
        .filter_map(|opts| {
            opts.iter()
                .filter(|o| o.value() > 0.0 && o.weight() > 0)
                .max_by(|a, b| {
                    a.value()
                        .partial_cmp(&b.value())
                        .expect("option values are finite")
                        .then(a.weight().cmp(&b.weight()))
                })
        })
        .collect();
    let best_total: u64 = best_per_object.iter().map(|o| u64::from(o.weight())).sum();
    if best_total > u64::from(capacity) {
        return None;
    }
    let mut config = Config::empty();
    for option in best_per_object {
        config.push(option.clone());
    }
    Some(config)
}

/// The exact optimum, and the solve every epoch of a node without a
/// disk tier runs (and [`optimum_tiered`] runs over RAM): past the
/// uncontended fast path
/// it shares with [`KnapsackSolver::populate`], the
/// multiple-choice-knapsack (MCKP) dynamic program over capacity, at
/// most one option per object, in `O(objects × capacity × k)` time.
///
/// It follows `populate`'s tie rule, so where `populate` reaches the
/// optimum the two give the same configuration (on every recorded epoch
/// instance of `paper-zipf` and `tiered-pressure`, EXPERIMENTS.md):
///
/// - A cell is the best value of *exactly* that many chunks, and the
///   answer is the best cell, the heaviest among equal values, as in
///   `populate`'s final scan.
/// - Objects are visited in `populate`'s key order, last first, so the
///   backtrack settles the most valuable object first. Among choices of
///   equal value the heavier option wins, and leaving the object out is
///   weight 0: the more valuable object holds the more chunks, as in
///   `populate`'s table, where it was placed first.
/// - Values within 1e-12 of each other, relative, are equal: sums of
///   the same options in different orders round a few ulps apart. The
///   answer's value is summed in key order, as `populate` sums a
///   configuration it built by additions.
///
/// Two optimal configurations can still tie in a way `populate` settles
/// by the path its table took; the proptests print such cases.
///
/// In builds with debug assertions every answer is certified by the LP
/// relaxation (module docs).
///
/// The table is one byte per object and weight: the weight the object
/// holds in that cell, 0 for none. Two value rows are reused across
/// objects. Each row runs only to the sum of the heaviest options of the
/// objects visited so far (their reach): every weight up to it is
/// reachable, since each object has an option at every weight from 1
/// up, so the backtrack never leaves it. A solve makes a constant number
/// of allocations besides its answer's options.
///
/// # Panics
///
/// Panics if an object has more than 255 options (a stripe holds at
/// most 255 chunks, so no generator makes one).
pub fn optimum(all_options: &HashMap<ObjectId, ObjectOptions>, capacity: u32) -> Config {
    if capacity == 0 {
        return Config::empty();
    }
    let keys = ordered_keys(all_options);
    let config = uncontended(&keys, capacity).unwrap_or_else(|| mckp(&keys, capacity));
    debug_assert!(
        lp_bound(&keys, capacity).certifies(&config, capacity),
        "the optimum {} (weight {}) at capacity {capacity} fails its certificate {:?}",
        config.value(),
        config.weight(),
        lp_bound(&keys, capacity)
    );
    config
}

/// [`optimum`]'s dynamic program over `keys`, in key order.
fn mckp(keys: &[&ObjectOptions], capacity: u32) -> Config {
    let width = capacity as usize + 1;
    // `taken[i * width + c]`: the weight key i holds in the best
    // configuration of keys i.. at exactly c chunks.
    let mut taken = vec![0u8; keys.len() * width];
    let mut best = vec![0.0f64; width];
    let mut next = vec![0.0f64; width];
    let mut values: Vec<f64> = Vec::with_capacity(usize::from(u8::MAX) + 1);
    let mut reach = 0usize;
    for (key, taken) in keys.iter().zip(taken.chunks_exact_mut(width)).rev() {
        // `values[w]`: the key's option of weight w; 0 for leaving it out.
        values.clear();
        values.push(0.0);
        values.extend(key.iter().map(CachingOption::value));
        let heaviest = values.len() - 1;
        assert!(
            heaviest <= usize::from(u8::MAX),
            "an object has at most 255 options"
        );
        let next_reach = (reach + heaviest).min(capacity as usize);
        let (row, taken) = (&mut next[..=next_reach], &mut taken[..=next_reach]);
        row.fill(f64::NEG_INFINITY);
        // Heaviest choice first: a lighter one must beat it. A choice
        // leaving more chunks than the objects after it reach has no
        // configuration under it.
        for (weight, &value) in values.iter().enumerate().take(next_reach + 1).rev() {
            let top = (weight + reach).min(next_reach);
            for ((cell, taken), &under) in row[weight..=top]
                .iter_mut()
                .zip(&mut taken[weight..=top])
                .zip(&best[..=top - weight])
            {
                let candidate = under + value;
                if beats(candidate, *cell) {
                    *cell = candidate;
                    *taken = weight as u8;
                }
            }
        }
        std::mem::swap(&mut best, &mut next);
        reach = next_reach;
    }
    // The best cell, the heaviest among equal values.
    let mut c = 0;
    for heavier in 1..=reach {
        if !beats(best[c], best[heavier]) {
            c = heavier;
        }
    }
    let mut config = Config::empty();
    for (key, taken) in keys.iter().zip(taken.chunks_exact(width)) {
        if let Some(option) = key.by_weight(u32::from(taken[c])) {
            config.push(option.clone());
            c -= option.weight() as usize;
        }
    }
    config
}

/// How far apart, relative to the kept one, two values must be for one
/// to beat the other in [`optimum`]: sums of the same options taken in
/// different orders round a few ulps apart, and a tie settled by that
/// rounding would settle it apart from `populate`.
const TIE: f64 = 1e-12;

/// Whether `value` beats `kept` by more than rounding. Values are
/// non-negative (popularity × a saturating improvement), and anything
/// beats an unset cell's −∞.
fn beats(value: f64, kept: f64) -> bool {
    value > kept * (1.0 + TIE)
}

/// The MCKP's LP relaxation at one capacity (Kellerer et al. ch. 11),
/// [`optimum`]'s certificate: [`segments`] taken whole while they fit,
/// then the first that does not in part.
#[derive(Clone, Copy, Debug, PartialEq)]
struct LpBound {
    /// What the whole segments are worth: each object at the hull vertex
    /// they reach, which is one of its options, so a configuration.
    feasible: f64,
    /// `feasible` plus the part segment's share: no configuration within
    /// the capacity is worth more.
    bound: f64,
}

impl LpBound {
    /// Whether `config` is within `capacity` and worth between
    /// `feasible` and `bound`, to [`TIE`].
    fn certifies(&self, config: &Config, capacity: u32) -> bool {
        config.weight() <= capacity
            && !beats(self.feasible, config.value())
            && !beats(config.value(), self.bound)
    }
}

fn lp_bound(keys: &[&ObjectOptions], capacity: u32) -> LpBound {
    let (mut room, mut feasible, mut part) = (capacity, 0.0, 0.0);
    for (slope, _, weight, value) in segments(keys) {
        if weight > room {
            part = f64::from(room) * slope;
            break;
        }
        room -= weight;
        feasible += value;
    }
    let bound = feasible + part;
    LpBound { feasible, bound }
}

/// Every object's [`hull`] segments as (slope, key, weight, value), by
/// decreasing slope, ties in key order. An object's slopes fall along its
/// hull, so a prefix of this list takes each object's segments from
/// (0, 0) without a gap.
fn segments(keys: &[&ObjectOptions]) -> Vec<(f64, usize, u32, f64)> {
    let mut segments: Vec<(f64, usize, u32, f64)> = Vec::new();
    for (key, options) in keys.iter().enumerate() {
        for pair in hull(options).windows(2) {
            let (weight, value) = (pair[1].0 - pair[0].0, pair[1].1 - pair[0].1);
            segments.push((slope(pair[0], pair[1]), key, weight, value));
        }
    }
    segments.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    segments
}

/// The rising part of the upper convex hull of (0, 0) and `options`'
/// (weight, value) points: vertices by increasing weight and value, each
/// segment's slope strictly below the one before. A point worth no more
/// than a lighter one is never on it.
fn hull(options: &ObjectOptions) -> Vec<(u32, f64)> {
    let mut hull = vec![(0, 0.0)];
    for point in options.iter().map(|o| (o.weight(), o.value())) {
        if point.1 <= hull[hull.len() - 1].1 {
            continue;
        }
        // The last vertex goes while it is on or under the chord to the
        // new point.
        while let [.., a, b] = hull[..] {
            if slope(a, b) > slope(b, point) {
                break;
            }
            hull.pop();
        }
        hull.push(point);
    }
    hull
}

/// The slope from one (weight, value) point to a heavier one.
fn slope((w0, v0): (u32, f64), (w1, v1): (u32, f64)) -> f64 {
    (v1 - v0) / f64::from(w1 - w0)
}

/// The two-budget solve every epoch of a node with a disk tier runs:
/// the configuration of RAM and disk chunks worth the most, at most one
/// joint option per object, within `ram_capacity` RAM chunks and
/// `disk_capacity` disk chunks. Returns `(ram, disk)`, each object's RAM
/// chunks its most distant used ones and its disk chunks the next (see
/// [`TieredOptions`]).
///
/// The disk budget is relaxed by a price λ per disk chunk (Kellerer et
/// al. ch. 11): at a given λ each object's best disk count for each RAM
/// weight is its own choice ([`TieredOptions::joint`]), and what is left
/// is a one-budget MCKP over RAM, which [`optimum`] solves. An option of
/// RAM weight `r` is worth the best joint value of at most `r` RAM
/// chunks over that of none, and the answer holds the fewest RAM chunks
/// of that value: a RAM chunk that buys nothing at the price is not
/// placed.
///
/// - Without a disk budget the answer is [`optimum`]'s over the RAM
///   options alone.
/// - At λ = 0 the disk is free. If the answer fits the disk budget it is
///   the optimum, after one dynamic program.
/// - Otherwise λ is bisected between 0 and a price at which no disk
///   chunk pays, to a bracket whose upper answer fits the disk and whose
///   lower does not, and the answer is settled between them: the
///   objects on whose choice the bracket and the sequential solve agree
///   keep it, and the others are solved exactly by a two-budget dynamic
///   program in the room left. This is a heuristic with no bound on its
///   gap, but it is never worth less than the sequential solve.
///
/// In builds with debug assertions the answer is checked to fit both
/// budgets and to be worth no less than the sequential solve (RAM by
/// [`optimum`], then disk on the chunks RAM left), to 1e-12 relative.
pub fn optimum_tiered(
    all_options: &HashMap<ObjectId, TieredOptions>,
    ram_capacity: u32,
    disk_capacity: u32,
) -> (Config, Config) {
    if disk_capacity == 0 {
        let ram_options = all_options
            .iter()
            .map(|(&object, options)| (object, options.ram().clone()))
            .collect();
        return (optimum(&ram_options, ram_capacity), Config::empty());
    }
    let mut objects: Vec<&TieredOptions> = all_options.values().collect();
    objects.sort_by_key(|options| options.object());
    let disk_used = |picks: &[(u32, u32)]| picks.iter().map(|&(_, d)| d).sum::<u32>();
    let mut picks = relaxed(&objects, ram_capacity, 0.0);
    if disk_used(&picks) > disk_capacity {
        let top = objects
            .iter()
            .flat_map(|options| (0..=options.used()).map(|r| options.joint(r, 0.0).1))
            .fold(0.0, f64::max);
        let ceiling = 1.0 + top;
        let (mut lo, mut hi) = (
            (0.0, picks),
            (ceiling, relaxed(&objects, ram_capacity, ceiling)),
        );
        while hi.0 - lo.0 > hi.0 * 1e-6 {
            let lambda = (lo.0 + hi.0) / 2.0;
            let at = relaxed(&objects, ram_capacity, lambda);
            if disk_used(&at) > disk_capacity {
                lo = (lambda, at);
            } else {
                hi = (lambda, at);
            }
        }
        picks = settled(&objects, &lo.1, hi.1, ram_capacity, disk_capacity);
    }
    let (mut ram, mut disk) = (Config::empty(), Config::empty());
    for (options, &(r, d)) in objects.iter().zip(&picks) {
        if let Some(option) = options.ram().by_weight(r) {
            ram.push(option.clone());
        }
        if let Some(option) = options.disk_option(r, d) {
            disk.push(option);
        }
    }
    debug_assert!(
        ram.weight() <= ram_capacity && disk.weight() <= disk_capacity,
        "the tiered answer ({}, {}) busts its budgets ({ram_capacity}, {disk_capacity})",
        ram.weight(),
        disk.weight()
    );
    debug_assert!(
        !beats(
            worth(&objects, &sequential(&objects, ram_capacity, disk_capacity)),
            worth(&objects, &picks)
        ),
        "the tiered answer {} falls short of the sequential solve {}",
        worth(&objects, &picks),
        worth(&objects, &sequential(&objects, ram_capacity, disk_capacity))
    );
    (ram, disk)
}

/// Each object's (RAM, disk) chunk counts in the answer to the disk
/// budget's relaxation at price `lambda`: the RAM MCKP over the joint
/// options at that price, each RAM weight settled to the fewest chunks
/// of its value, and each disk count the best for its RAM weight.
fn relaxed(objects: &[&TieredOptions], ram_capacity: u32, lambda: f64) -> Vec<(u32, u32)> {
    // `fewest[i][r]`: the fewest RAM chunks, at most r, worth object
    // i's best joint value of at most r.
    let mut fewest: Vec<Vec<u32>> = Vec::with_capacity(objects.len());
    let mut ram_options = HashMap::new();
    for options in objects {
        let joint: Vec<f64> = (0..=options.used())
            .map(|r| options.joint(r, lambda).1)
            .collect();
        let mut at_most = vec![0u32; joint.len()];
        for r in 1..joint.len() {
            let kept = at_most[r - 1];
            at_most[r] = if beats(joint[r], joint[kept as usize]) {
                r as u32
            } else {
                kept
            };
        }
        let gains: Vec<f64> = at_most[1..]
            .iter()
            .map(|&r| joint[r as usize] - joint[0])
            .collect();
        if at_most[at_most.len() - 1] > 0 {
            ram_options.insert(options.object(), options.ram().revalued(&gains));
        }
        fewest.push(at_most);
    }
    let answer = optimum(&ram_options, ram_capacity);
    let weights: HashMap<ObjectId, u32> = answer
        .options()
        .iter()
        .map(|option| (option.object(), option.weight()))
        .collect();
    objects
        .iter()
        .zip(&fewest)
        .map(|(options, fewest)| {
            let r = fewest[weights.get(&options.object()).map_or(0, |&w| w as usize)];
            (r, options.joint(r, lambda).0)
        })
        .collect()
}

/// An answer that fits both budgets, from the bracketing relaxations
/// `lo` (over the disk budget) and `hi` (within it). Three more answers
/// fit: the RAM weights of `lo`, of `hi` and of the sequential solve's
/// RAM phase ([`optimum`] over the RAM options alone), each with the
/// disk solved exactly on the chunks they leave ([`with_ram`]). The
/// objects on whose choice all five agree keep it; the others are solved
/// exactly by [`mckp_2d`] in the room the kept ones leave, which every
/// fitting answer's own choices fit, so the result is worth no less than
/// any of them. When that table would be too large, the best fitting
/// answer stands.
fn settled(
    objects: &[&TieredOptions],
    lo: &[(u32, u32)],
    hi: Vec<(u32, u32)>,
    ram_capacity: u32,
    disk_capacity: u32,
) -> Vec<(u32, u32)> {
    let ram_of = |picks: &[(u32, u32)]| picks.iter().map(|&(r, _)| r).collect::<Vec<_>>();
    let fitting = [
        sequential(objects, ram_capacity, disk_capacity),
        with_ram(objects, &ram_of(lo), disk_capacity),
        with_ram(objects, &ram_of(&hi), disk_capacity),
        hi,
    ];
    let mut best = &fitting[0];
    for candidate in &fitting[1..] {
        if beats(worth(objects, candidate), worth(objects, best)) {
            best = candidate;
        }
    }
    let mut best = best.clone();
    let free: Vec<usize> = (0..objects.len())
        .filter(|&i| fitting.iter().any(|picks| picks[i] != lo[i]))
        .collect();
    let (mut ram_room, mut disk_room) = (ram_capacity, disk_capacity);
    for (i, &(r, d)) in lo.iter().enumerate() {
        if !free.contains(&i) {
            ram_room -= r;
            disk_room -= d;
        }
    }
    let most: u32 = free.iter().map(|&i| objects[i].used()).sum();
    let (ram_room, disk_room) = (ram_room.min(most), disk_room.min(most));
    let choices: u64 = free
        .iter()
        .map(|&i| u64::from(objects[i].used() + 1) * u64::from(objects[i].used() + 2) / 2)
        .sum();
    if choices * u64::from(ram_room + 1) * u64::from(disk_room + 1) <= MCKP_2D_WORK {
        let sub: Vec<&TieredOptions> = free.iter().map(|&i| objects[i]).collect();
        for (&i, pick) in free.iter().zip(mckp_2d(&sub, ram_room, disk_room)) {
            best[i] = pick;
        }
    }
    best
}

/// Each object's (RAM, disk) chunk counts with the RAM weights `ram`
/// and the disk solved by [`optimum`] over the disk options those leave,
/// within `disk_capacity`.
fn with_ram(objects: &[&TieredOptions], ram: &[u32], disk_capacity: u32) -> Vec<(u32, u32)> {
    let disk_options = objects
        .iter()
        .zip(ram)
        .filter(|(options, &r)| r < options.used())
        .map(|(options, &r)| (options.object(), options.disk(r)))
        .collect();
    let disk = optimum(&disk_options, disk_capacity);
    objects
        .iter()
        .zip(ram)
        .map(|(options, &r)| {
            let held = disk
                .options()
                .iter()
                .find(|o| o.object() == options.object());
            (r, held.map_or(0, CachingOption::weight))
        })
        .collect()
}

/// The most choice × cell visits [`mckp_2d`] is given: a few tens of
/// milliseconds.
const MCKP_2D_WORK: u64 = 1 << 24;

/// The two-budget MCKP over `objects` by dynamic program: the (RAM,
/// disk) chunk counts, at most one joint option per object, worth the
/// most within `ram_capacity` and `disk_capacity`, in
/// `O(objects × ram × disk × k²)` time. A cell is the best value of at
/// most that many chunks of each kind; among equal values the fewer
/// chunks win.
fn mckp_2d(objects: &[&TieredOptions], ram_capacity: u32, disk_capacity: u32) -> Vec<(u32, u32)> {
    let (width, height) = (ram_capacity as usize + 1, disk_capacity as usize + 1);
    let cells = width * height;
    let mut taken = vec![(0u32, 0u32); objects.len() * cells];
    let mut best = vec![0.0f64; cells];
    let mut next = vec![0.0f64; cells];
    for (options, taken) in objects.iter().zip(taken.chunks_exact_mut(cells)).rev() {
        let k = options.used();
        let choices: Vec<(u32, u32, f64)> = (0..=k)
            .flat_map(|r| (0..=k - r).map(move |d| (r, d)))
            .map(|(r, d)| (r, d, options.value(r, d)))
            .collect();
        for ram in 0..width {
            for disk in 0..height {
                let cell = ram * height + disk;
                let mut kept = (best[cell], (0, 0));
                for &(r, d, value) in &choices {
                    let (r_, d_) = (r as usize, d as usize);
                    if r_ > ram || d_ > disk || (r, d) == (0, 0) {
                        continue;
                    }
                    let candidate = best[(ram - r_) * height + disk - d_] + value;
                    if beats(candidate, kept.0) {
                        kept = (candidate, (r, d));
                    }
                }
                next[cell] = kept.0;
                taken[cell] = kept.1;
            }
        }
        std::mem::swap(&mut best, &mut next);
    }
    let (mut ram, mut disk) = (ram_capacity as usize, disk_capacity as usize);
    taken
        .chunks_exact(cells)
        .map(|taken| {
            let (r, d) = taken[ram * height + disk];
            ram -= r as usize;
            disk -= d as usize;
            (r, d)
        })
        .collect()
}

/// The sequential two-budget solve, the floor the answer is held to:
/// RAM by [`optimum`] over the RAM options alone, then the disk solved
/// exactly on the chunks it leaves ([`with_ram`]).
fn sequential(
    objects: &[&TieredOptions],
    ram_capacity: u32,
    disk_capacity: u32,
) -> Vec<(u32, u32)> {
    let ram_options = objects
        .iter()
        .map(|options| (options.object(), options.ram().clone()))
        .collect();
    let ram = optimum(&ram_options, ram_capacity);
    let weights: Vec<u32> = objects
        .iter()
        .map(|options| {
            let held = ram
                .options()
                .iter()
                .find(|o| o.object() == options.object());
            held.map_or(0, CachingOption::weight)
        })
        .collect();
    with_ram(objects, &weights, disk_capacity)
}

/// What the (RAM, disk) chunk counts `picks` of `objects` are worth.
fn worth(objects: &[&TieredOptions], picks: &[(u32, u32)]) -> f64 {
    let values = objects.iter().zip(picks);
    values.map(|(options, &(r, d))| options.value(r, d)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::generate_options;
    use agar_ec::CodingParams;
    use agar_net::RegionId;
    use agar_store::ObjectManifest;
    use std::time::Duration;

    /// Object `i`'s manifest: RS(9, 3), chunk `c` in region `c mod 6`.
    fn manifest(i: u64) -> ObjectManifest {
        let locations = (0..12).map(|c| RegionId::new(c % 6)).collect();
        let params = CodingParams::paper_default();
        ObjectManifest::new(ObjectId::new(i), 1_000_000, 1, params, locations)
    }

    /// The paper's Table I latencies from Frankfurt, in milliseconds.
    const TABLE_ONE_MS: [u64; 6] = [80, 200, 600, 1400, 3400, 4600];

    /// Options for objects `0..` of the given popularities, at
    /// `latencies` and a 40 ms cache read.
    fn options_at(
        latencies: &[Duration],
        popularities: impl IntoIterator<Item = f64>,
    ) -> HashMap<ObjectId, ObjectOptions> {
        let cache_read = Duration::from_millis(40);
        (0..)
            .zip(popularities)
            .map(|(i, pop)| {
                let options = generate_options(&manifest(i), latencies, cache_read, pop);
                (ObjectId::new(i), options)
            })
            .collect()
    }

    /// Builds per-object options on the paper's Table I deployment with
    /// the given per-object popularities.
    fn build_options(popularities: &[f64]) -> HashMap<ObjectId, ObjectOptions> {
        let latencies = TABLE_ONE_MS.map(Duration::from_millis);
        options_at(&latencies, popularities.iter().copied())
    }

    #[test]
    fn zero_capacity_yields_empty_config() {
        let options = build_options(&[10.0, 5.0]);
        let config = KnapsackSolver::new().populate(&options, 0);
        assert_eq!(config.weight(), 0);
        assert_eq!(config.value(), 0.0);
        assert!(config.options().is_empty());
    }

    #[test]
    fn single_object_takes_best_affordable_weight() {
        let options = build_options(&[10.0]);
        // Capacity 9: full replica is affordable and most valuable.
        let config = KnapsackSolver::new().populate(&options, 9);
        assert_eq!(config.options().len(), 1);
        assert_eq!(config.weight(), 9);
        // Capacity 4: weight-3 option is the best (weight 4 adds nothing).
        let config = KnapsackSolver::new().populate(&options, 4);
        assert_eq!(config.value(), 10.0 * 2800.0);
    }

    #[test]
    fn never_exceeds_capacity() {
        let options = build_options(&[10.0, 8.0, 6.0, 4.0, 2.0]);
        for capacity in [0u32, 1, 3, 7, 10, 20, 45, 100] {
            let config = KnapsackSolver::new().populate(&options, capacity);
            assert!(config.weight() <= capacity, "capacity {capacity}");
        }
    }

    #[test]
    fn at_most_one_option_per_object() {
        let options = build_options(&[10.0, 8.0, 6.0]);
        let config = KnapsackSolver::new().populate(&options, 18);
        let mut seen = std::collections::HashSet::new();
        for option in config.options() {
            assert!(seen.insert(option.object()), "duplicate object in config");
        }
    }

    #[test]
    fn dp_matches_the_optimum_on_small_instances() {
        for (pops, capacity) in [
            (vec![10.0, 8.0], 9u32),
            (vec![10.0, 8.0, 6.0], 12),
            (vec![10.0, 1.0, 1.0, 1.0], 15),
            (vec![5.0, 5.0, 5.0], 7),
            (vec![100.0, 1.0], 10),
        ] {
            let options = build_options(&pops);
            let dp = KnapsackSolver::new().populate(&options, capacity);
            let opt = optimum(&options, capacity);
            assert!(
                (dp.value() - opt.value()).abs() < 1e-6,
                "pops {pops:?} capacity {capacity}: dp {} vs optimum {}",
                dp.value(),
                opt.value()
            );
        }
    }

    #[test]
    fn dp_dominates_greedy() {
        for (pops, capacity) in [
            (vec![10.0, 9.0, 8.0, 2.0], 12u32),
            (vec![10.0, 8.0, 6.0, 4.0, 2.0], 18),
            (vec![3.0, 3.0, 3.0, 3.0], 10),
        ] {
            let options = build_options(&pops);
            let dp = KnapsackSolver::new().populate(&options, capacity);
            let g = greedy(&options, capacity);
            assert!(
                dp.value() >= g.value() - 1e-9,
                "pops {pops:?} capacity {capacity}: dp {} < greedy {}",
                dp.value(),
                g.value()
            );
        }
    }

    #[test]
    fn popular_objects_get_more_chunks() {
        let options = build_options(&[100.0, 1.0]);
        // Room for one full replica plus a small option.
        let config = KnapsackSolver::new().populate(&options, 12);
        let hot = config
            .options()
            .iter()
            .find(|o| o.object() == ObjectId::new(0))
            .expect("hot object cached");
        let cold = config
            .options()
            .iter()
            .find(|o| o.object() == ObjectId::new(1));
        assert!(hot.weight() >= 7, "hot object got {} chunks", hot.weight());
        if let Some(cold) = cold {
            assert!(cold.weight() <= hot.weight());
        }
    }

    #[test]
    fn relax_shrinks_existing_entries_when_profitable() {
        let options = build_options(&[10.0, 9.9]);
        // Capacity 9 fits one full replica; equal-ish popularity means
        // two partial allocations (e.g. 3 + 5 or similar) beat 9 + 0:
        // weight 3 already captures 2800/3360 of the improvement.
        let config = KnapsackSolver::new().populate(&options, 9);
        assert!(config.options().len() == 2, "expected a split allocation");
        // And the split must beat the single full replica.
        assert!(config.value() > 10.0 * 3360.0);
    }

    #[test]
    fn relax_function_direct() {
        let options = build_options(&[10.0, 8.0]);
        let obj0 = ObjectId::new(0);
        let obj1 = ObjectId::new(1);
        // Config holding object 0 at weight 9.
        let mut config = Config::empty();
        config.push(options[&obj0].by_weight(9).unwrap().clone());
        // Relaxing with object 1's weight-3 option shrinks object 0 to 6.
        let incoming = options[&obj1].by_weight(3).unwrap();
        let improved = relax(&config, incoming, &options).expect("relaxation profitable");
        assert_eq!(improved.weight(), 9);
        assert!(improved.value() > config.value());
        assert!(improved.contains_object(obj1));
        // Relaxing with an option for an object already present: no-op.
        let present = options[&obj0].by_weight(1).unwrap();
        assert!(relax(&improved, present, &options).is_none());
    }

    #[test]
    fn early_termination_still_respects_capacity_and_quality() {
        let options = build_options(&[10.0, 8.0, 6.0, 4.0, 2.0, 1.0]);
        let exact = KnapsackSolver::new().populate(&options, 18);
        let fast = KnapsackSolver::new()
            .with_early_termination(2)
            .populate(&options, 18);
        assert!(fast.weight() <= 18);
        // The heuristic may lose some value but not most of it.
        assert!(
            fast.value() >= 0.8 * exact.value(),
            "fast {} vs exact {}",
            fast.value(),
            exact.value()
        );
    }

    #[test]
    fn greedy_fills_by_density() {
        let options = build_options(&[10.0, 1.0]);
        let config = greedy(&options, 9);
        assert!(config.weight() <= 9);
        assert!(config.value() > 0.0);
        // Highest-density option for the hot object must be present.
        assert!(config.contains_object(ObjectId::new(0)));
    }

    /// The optimum and the branch-and-bound oracle against every
    /// combination of at most one option per object, on up to four
    /// objects of varied popularity.
    #[test]
    fn optimum_matches_brute_force() {
        let brute = |options: &HashMap<ObjectId, ObjectOptions>, capacity: u32| {
            let mut best = 0.0f64;
            let mut stack = vec![(0u64, 0u32, 0.0f64)];
            while let Some((i, weight, value)) = stack.pop() {
                best = best.max(value);
                let Some(object) = options.get(&ObjectId::new(i)) else {
                    continue;
                };
                stack.push((i + 1, weight, value));
                for o in object.iter().filter(|o| weight + o.weight() <= capacity) {
                    stack.push((i + 1, weight + o.weight(), value + o.value()));
                }
            }
            best
        };
        for pops in [
            &[10.0][..],
            &[10.0, 9.9],
            &[5.0, 1.0, 3.0],
            &[100.0, 1.0, 1.0, 7.0],
        ] {
            let options = build_options(pops);
            for capacity in 0..=(9 * pops.len() as u32 + 1) {
                let opt = optimum(&options, capacity);
                let expected = brute(&options, capacity);
                assert!(opt.weight() <= capacity);
                assert!(
                    (opt.value() - expected).abs() < 1e-6,
                    "{pops:?} at {capacity}"
                );
                let (oracle, _) = BranchAndBound::solve(&options, capacity);
                assert!((oracle - expected).abs() < 1e-6, "{pops:?} at {capacity}");
                // In `populate`'s key order: decreasing best value, ties
                // by object.
                let order = ordered_keys(&options);
                let rank = |object| order.iter().position(|o| o.object() == object);
                assert!(opt
                    .options()
                    .windows(2)
                    .all(|w| rank(w[0].object()) < rank(w[1].object())));
            }
        }
    }

    /// Two objects, `a` and `b`, whose weight-2 options are worth no more
    /// than their weight-1 ones: values not concave in weight.
    fn tie_instance() -> (ObjectId, ObjectId, HashMap<ObjectId, ObjectOptions>) {
        let (a, b) = (ObjectId::new(0), ObjectId::new(1));
        let options = [
            (a, ObjectOptions::from_values(a, &[2.0, 2.0, 2.5])),
            (b, ObjectOptions::from_values(b, &[1.0, 1.0, 1.2])),
        ];
        (a, b, options.into_iter().collect())
    }

    /// Where two configurations are worth the same, the exact solve
    /// answers as `populate` does: the answer is the heaviest
    /// configuration among equal values, and the more valuable object
    /// takes the heavier of two options worth the same in total.
    #[test]
    fn optimum_breaks_ties_as_populate_does() {
        // At capacity 3, `a` 1 + `b` 1 (two chunks), `a` 2 + `b` 1 and
        // `a` 1 + `b` 2 (three each) are all worth 3.0, and every other
        // choice less.
        let (a, b, options) = tie_instance();
        let picks = |config: &Config| -> Vec<(ObjectId, u32)> {
            config
                .options()
                .iter()
                .map(|o| (o.object(), o.weight()))
                .collect()
        };
        let exact = optimum(&options, 3);
        let paper = KnapsackSolver::new().populate(&options, 3);
        assert_eq!(exact.value(), 3.0);
        assert_eq!(picks(&exact), [(a, 2), (b, 1)]);
        assert_eq!(picks(&exact), picks(&paper));
        assert_eq!(exact.value().to_bits(), paper.value().to_bits());
    }

    /// A cell is the best value of *exactly* its weight, so `mckp`'s
    /// rows run only to the reach of the objects visited so far: a cell
    /// past it has no configuration under it. Contended at 5 chunks, the
    /// best value is 3, and the heaviest configuration worth it holds
    /// object 0 at 1 chunk and object 1 at 4. A row run past the reach
    /// reads cells of the previous row that no choice wrote, and answers
    /// with 2 + 2 chunks.
    #[test]
    fn a_row_runs_only_to_the_reach_of_the_objects_visited() {
        let (a, b) = (ObjectId::new(0), ObjectId::new(1));
        let options: HashMap<ObjectId, ObjectOptions> = [
            (a, ObjectOptions::from_values(a, &[2.0, 2.0, 0.0])),
            (b, ObjectOptions::from_values(b, &[1.0, 1.0, 0.0, 1.0])),
        ]
        .into_iter()
        .collect();
        let keys = ordered_keys(&options);
        assert_eq!(keys[0].object(), a, "in key order");
        assert!(uncontended(&keys, 5).is_none(), "the best options fit");
        let exact = optimum(&options, 5);
        let picks: Vec<(ObjectId, u32)> = exact
            .options()
            .iter()
            .map(|o| (o.object(), o.weight()))
            .collect();
        assert_eq!((exact.value(), exact.weight()), (3.0, 5));
        assert_eq!(picks, [(a, 1), (b, 4)]);
    }

    /// The certificate by hand on the tie instance. `a`'s hull skips its
    /// weight-2 option: (0, 0) → (1, 2.0) → (3, 2.5), slopes 2.0 and 0.25;
    /// `b`'s is (0, 0) → (1, 1.0) → (3, 1.2), slopes 1.0 and 0.1. At
    /// capacity 3 the relaxation takes both first segments whole and half
    /// of `a`'s second: feasible 3.0, bound 3.25, strictly above the
    /// optimum's 3.0. At capacity 4 `a`'s second segment fits whole and
    /// nothing of `b`'s: feasible, optimum and bound are all 3.5.
    #[test]
    fn lp_bound_holds_a_non_concave_instance() {
        let (a, b, options) = tie_instance();
        assert_eq!(hull(&options[&a]), [(0, 0.0), (1, 2.0), (3, 2.5)]);
        assert_eq!(hull(&options[&b]), [(0, 0.0), (1, 1.0), (3, 1.2)]);
        let keys = ordered_keys(&options);
        let lp = lp_bound(&keys, 3);
        assert_eq!((lp.feasible, lp.bound), (3.0, 3.25));
        let exact = optimum(&options, 3);
        assert_eq!(exact.value(), 3.0);
        assert!(exact.value() < lp.bound && lp.certifies(&exact, 3));
        let lp = lp_bound(&keys, 4);
        assert_eq!((lp.feasible, lp.bound), (3.5, 3.5));
        assert_eq!(optimum(&options, 4).value(), 3.5);

        // It rejects a configuration worth less than the whole segments,
        // one worth more than the relaxation, and one over the capacity.
        let mut short = Config::empty();
        short.push(options[&a].iter().next().expect("a has options").clone());
        assert!(!lp_bound(&keys, 3).certifies(&short, 3));
        let mut over = short.clone();
        over.push(options[&b].iter().last().expect("b has options").clone());
        assert_eq!((over.weight(), over.value()), (4, 3.2));
        assert!(!lp_bound(&keys, 3).certifies(&over, 3));
        assert!(!lp_bound(&keys, 4).certifies(&over, 4));
    }

    /// A depth-first branch and bound over the LP relaxation: an exact
    /// solver that shares nothing with [`optimum`] but the key order and
    /// the hull segments. Keys are decided in order; a node that has
    /// decided keys `..i` with `room` chunks left is cut when its value
    /// plus the relaxation of keys `i..` at `room` cannot beat the best
    /// configuration found by more than 1e-12, relative.
    struct BranchAndBound {
        /// `relaxed[i][room]`: the LP relaxation of keys `i..` at `room`.
        relaxed: Vec<Vec<f64>>,
        /// Per key, its options as (weight, value).
        choices: Vec<Vec<(u32, f64)>>,
        best: f64,
        nodes: u64,
    }

    impl BranchAndBound {
        /// The oracle's value for `options` at `capacity`, and the nodes
        /// it visited.
        fn solve(options: &HashMap<ObjectId, ObjectOptions>, capacity: u32) -> (f64, u64) {
            let keys = ordered_keys(options);
            let segments = segments(&keys);
            // One walk down the segments of keys i.. per i.
            let relaxed: Vec<Vec<f64>> = (0..=keys.len())
                .map(|i| {
                    let mut rest = segments.iter().filter(|s| s.1 >= i).peekable();
                    let (mut used, mut value) = (0, 0.0);
                    (0..=capacity)
                        .map(|room| {
                            while let Some(s) = rest.next_if(|s| used + s.2 <= room) {
                                (used, value) = (used + s.2, value + s.3);
                            }
                            value + rest.peek().map_or(0.0, |s| f64::from(room - used) * s.0)
                        })
                        .collect()
                })
                .collect();
            let choices = keys
                .iter()
                .map(|options| options.iter().map(|o| (o.weight(), o.value())).collect())
                .collect();
            let root = lp_bound(&keys, capacity);
            assert!((relaxed[0][capacity as usize] - root.bound).abs() <= 1e-12 * root.bound);
            let mut search = BranchAndBound {
                relaxed,
                choices,
                best: root.feasible,
                nodes: 0,
            };
            search.visit(0, capacity, 0.0);
            (search.best, search.nodes)
        }

        /// Visits the node that has decided keys `..i`, worth `value` with
        /// `room` chunks left.
        fn visit(&mut self, i: usize, room: u32, value: f64) {
            self.nodes += 1;
            if i == self.choices.len() {
                self.best = self.best.max(value);
            } else if value + self.relaxed[i][room as usize] > self.best * (1.0 + 1e-12) {
                for c in 0..self.choices[i].len() {
                    let (weight, worth) = self.choices[i][c];
                    if weight <= room {
                        self.visit(i + 1, room - weight, value + worth);
                    }
                }
                self.visit(i + 1, room, value);
            }
        }
    }

    /// `optimum` against the branch-and-bound oracle on option values no
    /// latency model produces: not monotone in weight, with equal steps,
    /// exact ties and zeros, scaled from 1e-12 to 1e9 (mixed within one
    /// catalogue in four), 1..=9 options per object like the disk phase.
    #[test]
    fn optimum_matches_branch_and_bound_on_arbitrary_values() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xA6A2);
        for instance in 0..300 {
            let mut scale = 10f64.powi(rng.random_range(-12i32..=9));
            let options: HashMap<ObjectId, ObjectOptions> = (0..rng.random_range(1..=30))
                .map(|i| {
                    if instance % 4 == 3 {
                        scale = 10f64.powi(rng.random_range(-12i32..=9));
                    }
                    let mut values: Vec<f64> = Vec::new();
                    for _ in 0..rng.random_range(1..=9) {
                        values.push(match rng.random_range(0..6) {
                            0 => values.last().copied().unwrap_or(0.0),
                            1 => scale * f64::from(rng.random_range(0u32..4)),
                            2 => 0.0,
                            _ => scale * f64::from(rng.random_range(0u32..1_000_000)) / 1e5,
                        });
                    }
                    let object = ObjectId::new(i);
                    (object, ObjectOptions::from_values(object, &values))
                })
                .collect();
            let total: u32 = options.values().map(|o| o.iter().count() as u32).sum();
            let capacity = rng.random_range(0..=total + 5);
            let exact = optimum(&options, capacity).value();
            let (oracle, _) = BranchAndBound::solve(&options, capacity);
            let case = format!("instance {instance} at {capacity}: {exact} vs {oracle}");
            assert!((exact - oracle).abs() <= 1e-9 * oracle, "{case}");
        }
    }

    /// `optimum` against the branch-and-bound oracle on paper-shaped
    /// epochs: 300 RS(9, 3) objects placed round-robin on the six regions
    /// of `aws_six_regions`, each as popular as its Zipf share of 1 000
    /// reads, priced from every client at Zipf 0.5 to 1.5, at budgets up
    /// to 300 chunks. `--nocapture` prints each case's nodes and time.
    #[test]
    fn optimum_matches_branch_and_bound_at_paper_scale() {
        use agar_net::latency::LatencyModel;

        let preset = agar_net::presets::aws_six_regions();
        let bytes = preset.latency.nominal_bytes();
        for (client, skew) in (0..6).flat_map(|c| [0.5, 0.8, 1.1, 1.5].map(|s| (c, s))) {
            let mean = |r| {
                preset
                    .latency
                    .mean(RegionId::new(client), RegionId::new(r), bytes)
            };
            let latencies: Vec<Duration> = (0..6).map(mean).collect();
            let zipf = agar_workload::Zipfian::new(300, skew).expect("a valid Zipf");
            let options = options_at(&latencies, (0..300).map(|r| 1e3 * zipf.probability(r)));
            for capacity in [30, 90, 168, 300] {
                let started = std::time::Instant::now();
                let (oracle, nodes) = BranchAndBound::solve(&options, capacity);
                let (elapsed, exact) = (started.elapsed(), optimum(&options, capacity).value());
                let case = format!("client {client}, Zipf {skew}, capacity {capacity}");
                eprintln!("{case}: {nodes} nodes in {elapsed:.1?}, optimum {exact}");
                assert!((exact - oracle).abs() <= 1e-9 * oracle, "{case}: {oracle}");
            }
        }
    }

    /// Disk-option generation mirroring the cache manager's wiring: the
    /// RAM allocation per object conditions the second-phase options.
    fn disk_options_after(
        ram: &Config,
        popularities: &[f64],
        disk_read: Duration,
    ) -> HashMap<ObjectId, ObjectOptions> {
        (0..)
            .zip(popularities)
            .filter_map(|(i, &pop)| {
                let object = ObjectId::new(i);
                let ram_chunks = ram
                    .options()
                    .iter()
                    .find(|o| o.object() == object)
                    .map_or(&[][..], |o| o.chunks());
                crate::options::generate_disk_options(
                    &manifest(i),
                    &TABLE_ONE_MS.map(Duration::from_millis),
                    Duration::from_millis(40),
                    disk_read,
                    ram_chunks,
                    pop,
                )
                .map(|opts| (object, opts))
            })
            .collect()
    }

    #[test]
    fn tiered_solve_places_chunks_in_both_tiers() {
        let pops = [10.0, 8.0];
        let options = build_options(&pops);
        let solver = KnapsackSolver::new();
        let (ram, disk) = solver.populate_tiered(&options, 9, 18, |ram| {
            disk_options_after(ram, &pops, Duration::from_millis(150))
        });
        // Phase 1 is byte-identical to the plain solve.
        let plain = optimum(&options, 9);
        assert_eq!(ram.options(), plain.options());
        assert_eq!(ram.value(), plain.value());
        // The disk tier picks up chunks RAM could not afford.
        assert!(disk.weight() > 0, "disk tier must place chunks");
        assert!(disk.weight() <= 18);
        assert!(ram.value() + disk.value() > plain.value());
        // Per object, RAM and disk allocations never overlap.
        for disk_option in disk.options() {
            let ram_chunks = ram
                .options()
                .iter()
                .find(|o| o.object() == disk_option.object())
                .map_or(&[][..], |o| o.chunks());
            for chunk in disk_option.chunks() {
                assert!(
                    !ram_chunks.contains(chunk),
                    "chunk {chunk} placed in both tiers"
                );
            }
        }
    }

    #[test]
    fn zero_disk_capacity_skips_the_disk_phase() {
        let options = build_options(&[10.0, 8.0]);
        let (ram, disk) = KnapsackSolver::new().populate_tiered(&options, 9, 0, |_| {
            panic!("disk phase must not run with zero capacity")
        });
        assert_eq!(disk.weight(), 0);
        assert!(disk.options().is_empty());
        let plain = optimum(&options, 9);
        assert_eq!(ram.options(), plain.options());
        assert_eq!(ram.weight() + disk.weight(), plain.weight());
        assert_eq!(ram.value() + disk.value(), plain.value());
    }

    /// Joint options for objects `0..` of the given popularities on the
    /// Table I deployment, a 40 ms RAM tier and a disk read at
    /// `disk_read`.
    fn tiered_options(
        popularities: &[f64],
        disk_read: Duration,
    ) -> HashMap<ObjectId, TieredOptions> {
        let latencies = TABLE_ONE_MS.map(Duration::from_millis);
        (0..)
            .zip(popularities)
            .map(|(i, &pop)| {
                let options = crate::options::generate_tiered_options(
                    &manifest(i),
                    &latencies,
                    Duration::from_millis(40),
                    disk_read,
                    pop,
                );
                (ObjectId::new(i), options)
            })
            .collect()
    }

    /// Each object's (RAM, disk) chunk counts in a tiered answer, in
    /// object order.
    fn splits(ram: &Config, disk: &Config, objects: u64) -> Vec<(u32, u32)> {
        let weight = |config: &Config, object| {
            let held = config.options().iter().find(|o| o.object() == object);
            held.map_or(0, CachingOption::weight)
        };
        (0..objects)
            .map(|i| {
                (
                    weight(ram, ObjectId::new(i)),
                    weight(disk, ObjectId::new(i)),
                )
            })
            .collect()
    }

    /// The choice the joint solve makes about RAM options that tie: with
    /// a 45 ms disk beside a 40 ms RAM, a read of an object partly in RAM
    /// and partly on disk costs the disk's 45 ms, what the disk alone
    /// gives, so only an object wholly in RAM gains from it. The solve
    /// places RAM chunks only where they buy latency: of 12 RAM chunks
    /// the hottest object takes 9, the 3 left stay empty, and the other
    /// objects are wholly on disk (the MCKP's heavier-wins tie rule
    /// alone would have spent the 3 on a zero-gain part of one of them).
    #[test]
    fn a_ram_chunk_that_buys_nothing_is_not_placed() {
        let options = tiered_options(&[100.0, 50.0, 10.0], Duration::from_millis(45));
        let (ram, disk) = optimum_tiered(&options, 12, 100);
        assert_eq!(splits(&ram, &disk, 3), [(9, 0), (0, 9), (0, 9)]);
        let whole = options[&ObjectId::new(0)].value(9, 0);
        let on_disk = options[&ObjectId::new(1)].value(0, 9);
        // Worth the same as the zero-gain split it declines.
        assert_eq!(options[&ObjectId::new(1)].value(3, 6), on_disk);
        let value = whole + on_disk + options[&ObjectId::new(2)].value(0, 9);
        assert!((ram.value() + disk.value() - value).abs() <= 1e-9 * value);
    }

    /// The sequential solve spends RAM first, against the remote
    /// baseline: with a disk that serves every chunk at 45 ms it puts
    /// the weight-7 option of two objects in RAM (every used chunk but
    /// the local pair, worth 3 400 − 80 ms), and the disk then serves
    /// their local chunks, so both read at the disk's 45 ms. The joint
    /// solve reads the hottest object wholly from RAM at 40 ms instead.
    #[test]
    fn the_joint_solve_reads_hot_objects_wholly_from_ram() {
        let options = tiered_options(&[100.0, 90.0], Duration::from_millis(45));
        let ram_options = options.iter().map(|(&o, t)| (o, t.ram().clone())).collect();
        let (ram, disk) = KnapsackSolver::new().populate_tiered(&ram_options, 14, 100, |ram| {
            disk_options_after(ram, &[100.0, 90.0], Duration::from_millis(45))
        });
        assert_eq!(splits(&ram, &disk, 2), [(7, 2), (7, 2)]);
        let (joint_ram, joint_disk) = optimum_tiered(&options, 14, 100);
        assert_eq!(splits(&joint_ram, &joint_disk, 2), [(9, 0), (0, 9)]);
        let gain = joint_ram.value() + joint_disk.value() - (ram.value() + disk.value());
        assert!((gain - 100.0 * 5.0).abs() < 1e-6, "{gain}");
    }

    /// A disk budget the free-disk answer overruns: the bisected answer
    /// fits both budgets, is worth no less than the sequential solve
    /// (checked again inside the solve), and here reaches the optimum
    /// found by trying every split.
    #[test]
    fn a_binding_disk_budget_is_settled_within_both_budgets() {
        let pops = [100.0, 60.0, 30.0];
        let options = tiered_options(&pops, Duration::from_millis(150));
        let (ram, disk) = optimum_tiered(&options, 10, 8);
        assert!(ram.weight() <= 10 && disk.weight() <= 8);
        let ram_options = options.iter().map(|(&o, t)| (o, t.ram().clone())).collect();
        let (seq_ram, seq_disk) =
            KnapsackSolver::new().populate_tiered(&ram_options, 10, 8, |ram| {
                disk_options_after(ram, &pops, Duration::from_millis(150))
            });
        let value = ram.value() + disk.value();
        assert!(value >= seq_ram.value() + seq_disk.value());
        let objects: Vec<&TieredOptions> = (0..3).map(|i| &options[&ObjectId::new(i)]).collect();
        let best = mckp_2d(&objects, 10, 8);
        let optimum: f64 = objects
            .iter()
            .zip(&best)
            .map(|(o, &(r, d))| o.value(r, d))
            .sum();
        assert!(
            (value - optimum).abs() <= 1e-9 * optimum,
            "{value} against {optimum}"
        );
    }

    /// Without a disk budget the joint solve is the RAM-only optimum.
    #[test]
    fn a_tiered_solve_without_a_disk_budget_is_the_ram_optimum() {
        let options = tiered_options(&[10.0, 8.0], Duration::from_millis(150));
        let (ram, disk) = optimum_tiered(&options, 9, 0);
        let plain = optimum(&build_options(&[10.0, 8.0]), 9);
        assert!(disk.options().is_empty());
        assert_eq!(ram.options(), plain.options());
        assert_eq!(ram.value().to_bits(), plain.value().to_bits());
    }

    /// The two-budget dynamic program against every split of two
    /// objects.
    #[test]
    fn mckp_2d_matches_every_split() {
        let options = tiered_options(&[7.0, 3.0], Duration::from_millis(300));
        let objects: Vec<&TieredOptions> = (0..2).map(|i| &options[&ObjectId::new(i)]).collect();
        for (ram_capacity, disk_capacity) in [(0, 0), (3, 2), (9, 4), (5, 13), (18, 18)] {
            let mut best = 0.0f64;
            for r0 in 0..=9u32 {
                for d0 in 0..=9 - r0 {
                    for r1 in 0..=9u32 {
                        for d1 in 0..=9 - r1 {
                            if r0 + r1 <= ram_capacity && d0 + d1 <= disk_capacity {
                                best =
                                    best.max(objects[0].value(r0, d0) + objects[1].value(r1, d1));
                            }
                        }
                    }
                }
            }
            let picks = mckp_2d(&objects, ram_capacity, disk_capacity);
            let (ram, disk) = picks
                .iter()
                .fold((0, 0), |(r, d), &(pr, pd)| (r + pr, d + pd));
            assert!(ram <= ram_capacity && disk <= disk_capacity);
            let value: f64 = objects
                .iter()
                .zip(&picks)
                .map(|(o, &(r, d))| o.value(r, d))
                .sum();
            assert!(
                (value - best).abs() <= 1e-9 * best.max(1.0),
                "{value} against {best}"
            );
        }
    }

    #[test]
    fn config_accessors() {
        let config = Config::empty();
        assert_eq!(config.weight(), 0);
        assert_eq!(config.value(), 0.0);
        assert!(config.options().is_empty());
        assert!(!config.contains_object(ObjectId::new(0)));
    }
}

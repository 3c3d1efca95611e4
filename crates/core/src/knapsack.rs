//! The cache-configuration Knapsack solver (the paper's §IV-B,
//! Figures 4 & 5).
//!
//! Choosing which erasure-coded chunks to cache is a 0/1-Knapsack
//! variant: at most one caching option per object, weights are chunk
//! counts, values are popularity-weighted latency improvements.
//!
//! **The epoch's solve is exact.** [`KnapsackSolver::populate_tiered`],
//! which the cache manager runs every epoch, solves each phase with
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
//! [`KnapsackSolver::populate`] is the paper's algorithm. It adapts the
//! classic dynamic program with two improvement moves:
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
//!
//! `populate` runs over an index table, not over
//! [`Config`]s: a cell per weight holding `(key, weight)` picks into a
//! flat value table, so a move copies a few bytes per pick and
//! [`CachingOption`]s are cloned once, for the answer. The original
//! map-of-`Config`s formulation survives as the test-only `reference`
//! module, which the differential test holds this one to bit for bit.
//!
//! Almost no relaxation moves anything: on a paper-shaped instance (152
//! objects, an 89-chunk budget) 1 186 of 242 k calls do. So each cell
//! keeps one *relax limit* per option weight — no option of that weight
//! worth at most the limit can relax it — rebuilt only after the cell's
//! picks change, and the solver keeps a floor under every live cell's
//! limit. An option worth no more than the floor skips the relaxation
//! pass; a cell whose limit rules an option out costs one comparison;
//! every other call runs the unchanged exact scan. A limit is checked
//! in the scan's own floating-point expression rather than derived from
//! an error estimate, so the skip is exact and its margin for rounding
//! error is zero (the proof is on `Cell::refresh_relax_limits`); the
//! differential test covers option values from 1e-12 to 1e9 and values
//! on the scan's 1e-9 decision boundary.

use crate::options::{CachingOption, ObjectOptions};
use agar_ec::ObjectId;
use std::collections::HashMap;

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
}

/// One chosen option inside a [`Cell`]: the object's position in the
/// value-ordered key list, and the option's weight.
#[derive(Clone, Copy, Debug)]
struct Pick {
    key: u32,
    weight: u32,
}

/// Every option's value in one flat array, a consecutive run per key
/// (`ObjectOptions` holds exactly one option per weight `1..=n`), so the
/// solver's loops price a move without touching a [`CachingOption`].
struct ValueTable {
    /// `offsets[key]` is the slot of that key's weight-1 option.
    offsets: Vec<usize>,
    values: Vec<f64>,
}

impl ValueTable {
    fn new(keys: &[&ObjectOptions]) -> Self {
        let mut offsets = Vec::with_capacity(keys.len());
        let mut values = Vec::new();
        for object_options in keys {
            offsets.push(values.len());
            for (index, option) in object_options.iter().enumerate() {
                debug_assert_eq!(option.weight() as usize, index + 1);
                values.push(option.value());
            }
        }
        ValueTable { offsets, values }
    }

    fn of(&self, pick: Pick) -> f64 {
        self.values[self.offsets[pick.key as usize] + pick.weight as usize - 1]
    }

    /// The values of `pick`'s key at weights `1..=pick.weight`.
    fn up_to(&self, pick: Pick) -> &[f64] {
        let start = self.offsets[pick.key as usize];
        &self.values[start..start + pick.weight as usize]
    }

    /// Total value of `picks`, summed in list order.
    fn sum(&self, picks: &[Pick]) -> f64 {
        picks.iter().map(|&pick| self.of(pick)).sum()
    }
}

/// One intermediate configuration of the dynamic program — the cell of
/// the paper's `MaxV` table at one weight — as indices into the
/// [`ValueTable`]. `picks` is ordered exactly as the options of the
/// equivalent [`Config`] would be and `value` is the same float, built
/// by the same additions in the same order.
#[derive(Default)]
struct Cell {
    /// Whether a configuration of this weight exists yet.
    live: bool,
    picks: Vec<Pick>,
    /// Bit `key` is set iff `picks` holds an option of that key.
    members: Vec<u64>,
    value: f64,
    /// `relax_limits[w]`: no option of weight `w` worth at most this can
    /// relax the cell (see [`Cell::refresh_relax_limits`]). Rebuilt
    /// only after `picks` changed.
    relax_limits: Vec<f64>,
    /// Whether `picks` changed since `relax_limits` was built, i.e. the
    /// cell is on the solver's list of limits to rebuild.
    stale: bool,
}

impl Cell {
    fn set_member(&mut self, key: u32, member: bool) {
        let (word, bit) = (key as usize / 64, 1u64 << (key % 64));
        if member {
            self.members[word] |= bit;
        } else {
            self.members[word] &= !bit;
        }
    }

    fn holds(&self, key: u32) -> bool {
        self.members[key as usize / 64] >> (key % 64) & 1 == 1
    }

    /// Where in `picks` the option for `key` sits, if the cell has one.
    fn position_of(&self, key: u32) -> Option<usize> {
        if !self.holds(key) {
            return None;
        }
        self.picks.iter().position(|pick| pick.key == key)
    }

    /// The relaxation move (paper Figure 5): try to make room for the
    /// option `(key, weight, value)` by shrinking one existing pick to a
    /// lower weight of the same object — weight 0 meaning full eviction
    /// — keeping the cell's total weight unchanged. Applies the
    /// replacement that raises the value most, if any does, and returns
    /// whether it did.
    ///
    /// Almost every call changes nothing. A call that the cell's limit
    /// rules out costs one comparison; only the rest run the exact scan.
    fn relax(&mut self, key: u32, weight: u32, value: f64, values: &ValueTable) -> bool {
        debug_assert!(!self.stale, "relaxing a cell with stale limits");
        if value <= self.relax_limits[weight as usize] || self.holds(key) {
            return false;
        }
        let mut best = None;
        let mut best_value = self.value;
        for (index, &old) in self.picks.iter().enumerate() {
            if old.weight < weight {
                continue; // cannot free enough space
            }
            let shrunk = Pick {
                key: old.key,
                weight: old.weight - weight,
            };
            let shrunk_value = if shrunk.weight == 0 {
                0.0
            } else {
                values.of(shrunk)
            };
            let candidate_value = self.value - values.of(old) + shrunk_value + value;
            if candidate_value > best_value + 1e-9 {
                best_value = candidate_value;
                best = Some((index, shrunk));
            }
        }
        let Some((index, shrunk)) = best else {
            return false;
        };
        self.picks.remove(index);
        if shrunk.weight == 0 {
            self.set_member(shrunk.key, false);
        } else {
            self.picks.push(shrunk);
        }
        self.picks.push(Pick { key, weight });
        self.set_member(key, true);
        self.value = values.sum(&self.picks);
        self.stale = true;
        true
    }

    /// Rebuilds `relax_limits`, `width` of them, for the current picks
    /// and value.
    ///
    /// Why a limit is exact: the scan in [`Cell::relax`] takes a pick
    /// only if fl(P + value) > fl(best_value + 1e-9), where P = fl(fl(V −
    /// v(old)) + v(shrunk)) is the pick's partial sum, V the cell's value
    /// and best_value ≥ V. For weight w, B is the largest P over the
    /// picks a shrink by w applies to, computed below with the scan's own
    /// operations on the same floats, and the limit t is a float checked
    /// to satisfy fl(B + t) ≤ L = fl(V + 1e-9). Rounding to nearest is
    /// monotone, so for any value ≤ t and any such pick, fl(P + value) ≤
    /// fl(B + t) ≤ L ≤ fl(best_value + 1e-9): no pick passes and the scan
    /// would return without a move. The limit is checked in the scan's
    /// arithmetic rather than derived from an error estimate, so it needs
    /// no margin for rounding error: its margin is zero.
    fn refresh_relax_limits(&mut self, values: &ValueTable, width: usize) {
        // First the bound B per shrink weight, −∞ where no pick is that
        // heavy...
        self.relax_limits.clear();
        self.relax_limits.resize(width, f64::NEG_INFINITY);
        for &old in &self.picks {
            let options = values.up_to(old);
            let kept = self.value - options[old.weight as usize - 1];
            // Keeping `remaining` of its weight shrinks the pick by the
            // rest; keeping none evicts it.
            for remaining in 0..old.weight as usize {
                let shrunk_value = if remaining == 0 {
                    0.0
                } else {
                    options[remaining - 1]
                };
                let bound = &mut self.relax_limits[old.weight as usize - remaining];
                *bound = bound.max(kept + shrunk_value);
            }
        }
        // ...then the limit it allows.
        let threshold = self.value + 1e-9;
        for limit in &mut self.relax_limits {
            *limit = relax_limit(*limit, threshold);
        }
        self.stale = false;
    }
}

/// A float `t` with `bound + t <= threshold` as evaluated, near the
/// largest such; +∞ for a bound of −∞ (no pick to shrink), and −∞ (rule
/// nothing out) should the difference overflow.
fn relax_limit(bound: f64, threshold: f64) -> f64 {
    if bound == f64::NEG_INFINITY {
        return f64::INFINITY;
    }
    let mut limit = threshold - bound;
    if !limit.is_finite() {
        return f64::NEG_INFINITY;
    }
    let mut step = (bound.abs().max(threshold.abs()) * f64::EPSILON).max(f64::MIN_POSITIVE);
    while bound + limit > threshold {
        limit -= step;
        step *= 2.0;
    }
    limit
}

/// `floor[w] = min(floor[w], limits[w])` for every weight.
fn lower_floor(floor: &mut [f64], limits: &[f64]) {
    for (floor, &limit) in floor.iter_mut().zip(limits) {
        *floor = floor.min(limit);
    }
}

/// The paper's dynamic-programming solver for the cache configuration
/// (Figure 4), [`KnapsackSolver::populate`]. Its passes and early
/// termination configure `populate` alone: the epoch's two-budget solve,
/// [`KnapsackSolver::populate_tiered`], is exact.
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
    /// intermediate configuration by addition.
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

        // Past the fast path the best options do not all fit, so the
        // table is bounded by the catalogue (objects × k), not by the
        // budget.
        let values = ValueTable::new(&keys);
        let mut cells: Vec<Cell> = Vec::new();
        cells.resize_with(capacity as usize + 1, Cell::default);
        cells[0].live = true;
        cells[0].members = vec![0; keys.len().div_ceil(64)];
        cells[0].stale = true;
        // Relax limits run to the widest option list; `stale` holds the
        // live cells whose limits need rebuilding before the next
        // relaxation pass. Once it is drained, `relax_floor[w]` is at or
        // below every live cell's limit for weight `w`.
        let width = keys
            .iter()
            .map(|opts| opts.iter().count())
            .max()
            .unwrap_or(0)
            + 1;
        let mut stale: Vec<usize> = vec![0];
        let mut relax_floor = vec![f64::INFINITY; width];

        let mut keys_since_full: usize = 0;
        let mut seen_full = false;

        for (key, object_options) in (0u32..).zip(&keys).cycle().take(keys.len() * self.passes) {
            for option in object_options.iter() {
                let (weight, value) = (option.weight(), option.value());
                if weight > capacity {
                    continue;
                }
                // Relaxation pass: improve configurations in place
                // (weight unchanged). An option worth no more than the
                // floor relaxes no cell, so the pass is skipped; a full
                // pass rebuilds the floor from the cells it leaves as
                // they were.
                for w in stale.drain(..) {
                    cells[w].refresh_relax_limits(&values, width);
                    lower_floor(&mut relax_floor, &cells[w].relax_limits);
                }
                if value > relax_floor[weight as usize] {
                    relax_floor.fill(f64::INFINITY);
                    for (w, cell) in cells.iter_mut().enumerate().filter(|(_, cell)| cell.live) {
                        if cell.relax(key, weight, value, &values) {
                            stale.push(w);
                        } else {
                            lower_floor(&mut relax_floor, &cell.relax_limits);
                        }
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
                // pass has extended it. (A downgrade targets a lighter
                // weight, but never brings one to life ahead of the
                // scan: every key has an option at each weight from 1
                // up, so cells come to life in weight order.)
                for w in (0..=capacity).rev() {
                    let base = &cells[w as usize];
                    if !base.live {
                        continue;
                    }
                    // Price the candidate before building it: almost
                    // every candidate loses the comparison below.
                    let replaced = base.position_of(key);
                    let (new_weight, new_value) = match replaced {
                        Some(index) => {
                            let old = base.picks[index];
                            (w - old.weight + weight, base.value - values.of(old) + value)
                        }
                        None => (w + weight, base.value + value),
                    };
                    if new_weight > capacity || new_weight == w {
                        continue;
                    }
                    let existing = &cells[new_weight as usize];
                    let should_replace = !existing.live || existing.value < new_value - 1e-12;
                    if !should_replace {
                        continue;
                    }
                    let [base, target] = cells
                        .get_disjoint_mut([w as usize, new_weight as usize])
                        .expect("distinct weights within capacity");
                    if !target.stale {
                        target.stale = true;
                        stale.push(new_weight as usize);
                    }
                    target.picks.clear();
                    target.picks.extend_from_slice(&base.picks);
                    target.members.clear();
                    target.members.extend_from_slice(&base.members);
                    match replaced {
                        // A replacement re-sums in list order; a plain
                        // addition extends the running sum.
                        Some(index) => {
                            target.picks.remove(index);
                            target.picks.push(Pick { key, weight });
                            target.value = values.sum(&target.picks);
                        }
                        None => {
                            target.picks.push(Pick { key, weight });
                            target.set_member(key, true);
                            target.value = new_value;
                        }
                    }
                    // Checked in release builds too: a cell born below
                    // the scan would be extended in the pass that made
                    // it, which the reference solver never does.
                    assert!(
                        target.live || new_weight > w,
                        "a downgrade brought weight {new_weight} to life below the scan at {w}"
                    );
                    target.live = true;
                }
            }

            if let Some(stop_after) = self.stop_keys_after_full {
                if seen_full {
                    keys_since_full += 1;
                    if keys_since_full >= stop_after {
                        break;
                    }
                } else if cells[capacity as usize].live {
                    seen_full = true;
                }
            }
        }

        // The best configuration of weight ≤ capacity; among equal
        // values the last — heaviest — wins.
        (0u32..)
            .zip(&cells)
            .filter(|(_, cell)| cell.live)
            .max_by(|a, b| {
                a.1.value
                    .partial_cmp(&b.1.value)
                    .expect("config values are finite")
            })
            .map(|(weight, best)| Config {
                options: best
                    .picks
                    .iter()
                    .map(|pick| {
                        keys[pick.key as usize]
                            .by_weight(pick.weight)
                            .expect("picks index this key's options")
                            .clone()
                    })
                    .collect(),
                weight,
                value: best.value,
            })
            .unwrap_or_default()
    }
}

impl KnapsackSolver {
    /// Two-budget solve over a RAM tier and a disk tier: the solve every
    /// epoch runs, exact in each phase.
    ///
    /// Phase 1 solves `ram_options` against `ram_capacity` with
    /// [`optimum`]. Phase 2 asks `disk_options_for` for disk-tier options
    /// *conditioned on* the phase-1 allocation (the remaining chunks and
    /// the residual latencies they leave behind — see
    /// [`crate::options::generate_disk_options`]) and solves them the
    /// same way against `disk_capacity`. The sequential decomposition is
    /// deliberate: RAM strictly dominates disk on latency, so any chunk
    /// worth a RAM slot is worth it regardless of what lands on disk,
    /// and conditioning phase 2 on phase 1 keeps the two allocations
    /// disjoint by construction.
    ///
    /// The paper's [`KnapsackSolver::populate`] truncates only to bound
    /// its runtime (§VI), and the exact dynamic program is faster than
    /// it on every epoch instance, so neither phase runs it: this
    /// solver's passes and early termination apply to `populate` alone.
    /// Where `populate` is optimal the two answer alike (see
    /// [`optimum`]'s tie rule).
    ///
    /// Returns `(ram, disk)`. The RAM configuration is exactly what
    /// [`optimum`] produces on its own (the disk phase never perturbs
    /// it), so a deployment with `disk_capacity = 0` stays byte-identical
    /// to the single-tier engine: the closure is never called and the
    /// disk configuration is empty.
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

/// The exact optimum, and the solve every epoch runs
/// ([`KnapsackSolver::populate_tiered`]): past the uncontended fast path
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
    if let Some(config) = uncontended(&keys, capacity) {
        return config;
    }
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

/// The original formulation of the dynamic program — a map from weight
/// to fully materialised [`Config`], deep-cloned per accepted move — kept
/// verbatim as the oracle the index-table solver is held to.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::BTreeMap;

    impl Config {
        /// Replaces this configuration's option for `option.object()` (if
        /// any) with `option`, returning the new configuration.
        fn with_option(&self, option: CachingOption) -> Config {
            match self
                .options
                .iter()
                .position(|o| o.object() == option.object())
            {
                Some(index) => self.replace_and_add(index, None, option),
                None => {
                    let mut extended = self.clone();
                    extended.push(option);
                    extended
                }
            }
        }

        /// Replaces the option at `index` with `replacement` (possibly `None`
        /// for full eviction) and appends `addition`.
        fn replace_and_add(
            &self,
            index: usize,
            replacement: Option<CachingOption>,
            addition: CachingOption,
        ) -> Config {
            let mut options = Vec::with_capacity(self.options.len() + 1);
            for (i, option) in self.options.iter().enumerate() {
                if i == index {
                    continue;
                }
                options.push(option.clone());
            }
            if let Some(r) = replacement {
                options.push(r);
            }
            options.push(addition);
            let weight = options.iter().map(CachingOption::weight).sum();
            let value = options.iter().map(CachingOption::value).sum();
            Config {
                options,
                weight,
                value,
            }
        }
    }

    /// The relaxation move (paper Figure 5): try to make room for `option`
    /// by shrinking one existing option of the configuration to a lower
    /// weight of the same object, keeping the configuration's total weight
    /// unchanged. Returns the improved configuration if any replacement
    /// raises the value.
    pub(super) fn relax(
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
            let shrunk_weight = old.weight() - option.weight();
            // SEARCHOPTION: the same object's option at the reduced weight;
            // weight 0 means full eviction (an implicit empty option).
            let replacement = if shrunk_weight == 0 {
                None
            } else {
                match all_options
                    .get(&old.object())
                    .and_then(|opts| opts.by_weight(shrunk_weight))
                {
                    Some(o) => Some(o.clone()),
                    None => continue,
                }
            };
            let replacement_value = replacement.as_ref().map_or(0.0, CachingOption::value);
            let candidate_value = config.value() - old.value() + replacement_value + option.value();
            if candidate_value > best_value + 1e-9 {
                best_value = candidate_value;
                best = Some(config.replace_and_add(index, replacement, option.clone()));
            }
        }
        best
    }

    /// [`KnapsackSolver::populate`] as it was before the index table.
    pub(super) fn populate(
        solver: &KnapsackSolver,
        all_options: &HashMap<ObjectId, ObjectOptions>,
        capacity: u32,
    ) -> Config {
        let mut max_v: BTreeMap<u32, Config> = BTreeMap::new();
        max_v.insert(0, Config::empty());
        if capacity == 0 {
            return Config::empty();
        }

        // Keys in decreasing value order (ORDERBY in the paper).
        let mut keys: Vec<&ObjectOptions> = all_options.values().collect();
        keys.sort_by(|a, b| {
            b.best_value()
                .partial_cmp(&a.best_value())
                .expect("option values are finite")
                .then(a.object().cmp(&b.object()))
        });

        // Uncontended fast path: when every object's best option fits in
        // the budget simultaneously, the per-object choices are
        // independent and taking each object's maximum-value option is
        // exactly optimal — no dynamic program needed. This is the
        // common shape of the *disk* phase of a two-tier solve, where
        // the tier is sized to hold most of what RAM rejected. Value
        // ties break towards the heavier option, matching the dynamic
        // program below (its final scan keeps the last — heaviest —
        // configuration among equal values): a free upgrade to more
        // cached chunks at identical modelled value.
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
        if best_total <= u64::from(capacity) {
            let mut config = Config::empty();
            for option in best_per_object {
                config.push(option.clone());
            }
            return config;
        }

        let mut keys_since_full: usize = 0;
        let mut seen_full = false;

        for object_options in keys.iter().cycle().take(keys.len() * solver.passes) {
            for option in object_options.iter() {
                if option.weight() > capacity {
                    continue;
                }
                // Relaxation pass: improve configurations in place
                // (weight unchanged).
                let weights: Vec<u32> = max_v.keys().copied().collect();
                for w in &weights {
                    let config = &max_v[w];
                    if let Some(improved) = relax(config, option, all_options) {
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
                    // Price the candidate without materialising it: the
                    // clone inside `with_option` dominates solver runtime
                    // when configurations hold hundreds of options, and
                    // almost every candidate loses the comparison below.
                    let base = &max_v[&w];
                    let (new_weight, new_value) =
                        match base.options.iter().find(|o| o.object() == option.object()) {
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
                        let candidate = max_v[&w].with_option(option.clone());
                        debug_assert_eq!(candidate.weight(), new_weight);
                        max_v.insert(new_weight, candidate);
                    }
                }
            }

            if let Some(stop_after) = solver.stop_keys_after_full {
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

        max_v
            .into_values()
            .max_by(|a, b| {
                a.value()
                    .partial_cmp(&b.value())
                    .expect("config values are finite")
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::generate_options;
    use agar_ec::CodingParams;
    use agar_net::RegionId;
    use agar_store::ObjectManifest;
    use std::time::Duration;

    /// Builds per-object options on the paper's Table I deployment with
    /// the given per-object popularities.
    fn build_options(popularities: &[f64]) -> HashMap<ObjectId, ObjectOptions> {
        let latencies: Vec<Duration> = [80u64, 200, 600, 1400, 3400, 4600]
            .into_iter()
            .map(Duration::from_millis)
            .collect();
        let params = CodingParams::paper_default();
        popularities
            .iter()
            .enumerate()
            .map(|(i, &pop)| {
                let object = ObjectId::new(i as u64);
                let locations = (0..12).map(|c| RegionId::new(c % 6)).collect();
                let manifest = ObjectManifest::new(object, 1_000_000, 1, params, locations);
                (
                    object,
                    generate_options(&manifest, &latencies, Duration::from_millis(40), pop),
                )
            })
            .collect()
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
        let improved =
            reference::relax(&config, incoming, &options).expect("relaxation profitable");
        assert_eq!(improved.weight(), 9);
        assert!(improved.value() > config.value());
        assert!(improved.contains_object(obj1));
        // Relaxing with an option for an object already present: no-op.
        let present = options[&obj0].by_weight(1).unwrap();
        assert!(reference::relax(&improved, present, &options).is_none());
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

    /// The optimum against every combination of at most one option per
    /// object, on up to four objects of varied popularity.
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

    /// Where two configurations are worth the same, the exact solve
    /// answers as `populate` does: the answer is the heaviest
    /// configuration among equal values, and the more valuable object
    /// takes the heavier of two options worth the same in total.
    #[test]
    fn optimum_breaks_ties_as_populate_does() {
        let (a, b) = (ObjectId::new(0), ObjectId::new(1));
        // Each object's weight-2 option is worth no more than its
        // weight-1 one. At capacity 3, `a` 1 + `b` 1 (two chunks), `a` 2
        // + `b` 1 and `a` 1 + `b` 2 (three each) are all worth 3.0, and
        // every other choice less.
        let options: HashMap<ObjectId, ObjectOptions> = [
            (a, ObjectOptions::from_values(a, &[2.0, 2.0, 2.5])),
            (b, ObjectOptions::from_values(b, &[1.0, 1.0, 1.2])),
        ]
        .into_iter()
        .collect();
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

    /// Disk-option generation mirroring the cache manager's wiring: the
    /// RAM allocation per object conditions the second-phase options.
    fn disk_options_after(
        ram: &Config,
        popularities: &[f64],
        disk_read: Duration,
    ) -> HashMap<ObjectId, ObjectOptions> {
        let latencies: Vec<Duration> = [80u64, 200, 600, 1400, 3400, 4600]
            .into_iter()
            .map(Duration::from_millis)
            .collect();
        let params = CodingParams::paper_default();
        popularities
            .iter()
            .enumerate()
            .filter_map(|(i, &pop)| {
                let object = ObjectId::new(i as u64);
                let locations = (0..12).map(|c| RegionId::new(c % 6)).collect();
                let manifest = ObjectManifest::new(object, 1_000_000, 1, params, locations);
                let ram_chunks = ram
                    .options()
                    .iter()
                    .find(|o| o.object() == object)
                    .map_or(&[][..], |o| o.chunks());
                crate::options::generate_disk_options(
                    &manifest,
                    &latencies,
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

    /// The index-table solver against the map-of-`Config`s oracle, to
    /// the bit: same options in the same order, same weight, same value.
    #[test]
    fn index_table_matches_reference_solver() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xA6A2);
        let mut dp_instances = 0;
        for instance in 0..240 {
            // Mostly small catalogues, some paper-scale ones.
            let objects = match instance % 12 {
                0 => rng.random_range(200..=300),
                1..=3 => rng.random_range(40..=120),
                _ => rng.random_range(1..=40),
            };
            // Zipf-shaped popularities with exact ties and zeros mixed in.
            // One instance in four is scaled down until the solver's
            // 1e-9 / 1e-12 improvement thresholds decide moves.
            let scale = if rng.random_range(0..4) == 0 {
                1e-9
            } else {
                1000.0
            };
            let exponent = rng.random_range(5..=15) as f64 / 10.0;
            let mut pops: Vec<f64> = (1..=objects)
                .map(|rank| scale / (rank as f64).powf(exponent))
                .collect();
            for i in 1..objects {
                match rng.random_range(0..10) {
                    0 => pops[i] = 0.0,
                    1 | 2 => pops[i] = pops[i - 1],
                    _ => {}
                }
            }
            // RAM-shaped options (k per object) or disk-shaped ones
            // (fewer than k, conditioned on a RAM solve).
            let ram_options = build_options(&pops);
            let options = if instance % 3 == 2 {
                let ram_capacity = rng.random_range(1..=9 * objects as u32);
                let ram = KnapsackSolver::new()
                    .with_passes(1)
                    .populate(&ram_options, ram_capacity);
                disk_options_after(&ram, &pops, Duration::from_millis(150))
            } else {
                ram_options
            };
            // Capacities from 1 to past the uncontended threshold, which
            // no instance's total option count can exceed. The oracle
            // is quadratic in the budget: only small catalogues sweep
            // the whole range, large ones jump past the threshold.
            let total: u32 = options.values().map(|o| o.iter().count() as u32).sum();
            let capacity = match instance % 5 {
                0 => 1,
                1 => rng.random_range(1..=9),
                2 | 3 => rng.random_range(1..=total.clamp(1, 150)),
                _ if objects <= 40 => rng.random_range(1..=total + 5),
                _ => total + rng.random_range(0..=5),
            };
            let mut solver = KnapsackSolver::new().with_passes(1 + instance % 2);
            match instance % 7 {
                0 | 1 => solver = solver.with_early_termination(2),
                2 => solver = solver.with_early_termination(30),
                _ => {}
            }

            let got = solver.populate(&options, capacity);
            let want = reference::populate(&solver, &options, capacity);
            let case = format!("instance {instance}: {objects} objects, capacity {capacity}");
            assert_eq!(got.options(), want.options(), "{case}");
            assert_eq!(got.weight(), want.weight(), "{case}");
            assert_eq!(got.value().to_bits(), want.value().to_bits(), "{case}");
            if u64::from(total) > u64::from(capacity) {
                dp_instances += 1;
            }
        }
        assert!(
            dp_instances >= 100,
            "only {dp_instances} instances reached the table"
        );

        // Option values no latency model produces: not monotone in
        // weight, with equal steps, exact ties and zeros, scaled from
        // 1e-12 to 1e9 — and one catalogue in four mixes the scales, so
        // a cell's value can dwarf the options it relaxes. One in three
        // sits on the relaxation's decision boundary instead: each value
        // is a multiple of a coarse step (1e-3 to 1e6) plus a multiple of
        // a step near the scan's 1e-9 threshold, so a move's gain often
        // lands within a few ulps of that threshold and only the exact
        // arithmetic decides it. Each object has 1..=9 options, like the
        // disk phase's fewer-than-k ones.
        let mut dp_instances = 0;
        for instance in 0..300 {
            let objects: usize = match instance % 8 {
                0 => rng.random_range(100..=200),
                _ => rng.random_range(1..=40),
            };
            let instance_scale = 10f64.powi(rng.random_range(-12i32..=9));
            let mixed = instance % 4 == 3;
            let boundary = instance % 3 == 1;
            let coarse = 10f64.powi(rng.random_range(-3i32..=6));
            let fine = 1e-9 * 2f64.powi(rng.random_range(-2i32..=2));
            let options: HashMap<ObjectId, ObjectOptions> = (0..objects as u64)
                .map(|i| {
                    let scale = if mixed {
                        10f64.powi(rng.random_range(-12i32..=9))
                    } else {
                        instance_scale
                    };
                    let count: usize = rng.random_range(1..=9);
                    let mut values: Vec<f64> = Vec::with_capacity(count);
                    for weight in 0..count {
                        let value = match rng.random_range(0..6) {
                            0 if weight > 0 => values[weight - 1],
                            _ if boundary => {
                                coarse * f64::from(rng.random_range(0u32..4))
                                    + fine * f64::from(rng.random_range(0u32..4))
                            }
                            1 => scale * f64::from(rng.random_range(0u32..4)),
                            2 => 0.0,
                            _ => scale * f64::from(rng.random_range(0u32..1_000_000)) / 1e5,
                        };
                        values.push(value);
                    }
                    let object = ObjectId::new(i);
                    (object, ObjectOptions::from_values(object, &values))
                })
                .collect();
            let total: u32 = options.values().map(|o| o.iter().count() as u32).sum();
            let capacity = if objects <= 40 {
                rng.random_range(1..=total + 5)
            } else {
                rng.random_range(1..=total.clamp(1, 150))
            };
            let mut solver = KnapsackSolver::new().with_passes(1 + instance % 2);
            if instance % 5 == 0 {
                solver = solver.with_early_termination(3);
            }

            let got = solver.populate(&options, capacity);
            let want = reference::populate(&solver, &options, capacity);
            let case =
                format!("valued instance {instance}: {objects} objects, capacity {capacity}");
            assert_eq!(got.options(), want.options(), "{case}");
            assert_eq!(got.weight(), want.weight(), "{case}");
            assert_eq!(got.value().to_bits(), want.value().to_bits(), "{case}");
            if u64::from(total) > u64::from(capacity) {
                dp_instances += 1;
            }
        }
        assert!(
            dp_instances >= 150,
            "only {dp_instances} valued instances reached the table"
        );
    }

    /// A relax limit `t` admits no move: `bound + t <= threshold` as
    /// evaluated, for bounds and thresholds from 1e-12 to 1e9 in
    /// magnitude and a few ulps apart, and it gives away at most a few
    /// ulps against the exact difference.
    #[test]
    fn relax_limit_admits_no_move() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x11A1);
        assert_eq!(relax_limit(f64::NEG_INFINITY, 1.0), f64::INFINITY);
        for _ in 0..100_000 {
            let scale = 10f64.powi(rng.random_range(-12i32..=9));
            let threshold = scale * f64::from(rng.random_range(0u32..1_000_000)) / 1e5;
            let bound = match rng.random_range(0..3) {
                // A few ulps either side of the threshold...
                0 => {
                    let mut bound = threshold;
                    for _ in 0..rng.random_range(0..8) {
                        bound = if rng.random_range(0..2) == 0 {
                            bound.next_up()
                        } else {
                            bound.next_down()
                        };
                    }
                    bound
                }
                // ...or anywhere at the same scale, or another one.
                1 => scale * f64::from(rng.random_range(0u32..1_000_000)) / 1e5,
                _ => {
                    10f64.powi(rng.random_range(-12i32..=9))
                        * f64::from(rng.random_range(0u32..100))
                }
            };
            let limit = relax_limit(bound, threshold);
            assert!(
                bound + limit <= threshold,
                "bound {bound:e}, threshold {threshold:e}: limit {limit:e} admits a move"
            );
            let slack = 4.0 * f64::EPSILON * bound.abs().max(threshold.abs());
            assert!(
                (threshold - bound) - limit <= slack,
                "bound {bound:e}, threshold {threshold:e}: limit {limit:e} is too low"
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

//! The request monitor (paper §III-b).
//!
//! Listens to every client request, counts per-object access frequencies
//! over a fixed epoch, and maintains an exponentially weighted moving
//! average of popularity:
//!
//! ```text
//! popularity_i(key) = α · freq_i(key) + (1 − α) · popularity_{i−1}(key)
//! ```
//!
//! with α = 0.8 in the paper's experiments.

use agar_ec::ObjectId;
use std::collections::{BTreeSet, HashMap};

/// Per-object popularity tracking with epoch-based EWMA.
#[derive(Clone, Debug)]
pub struct RequestMonitor {
    alpha: f64,
    current_epoch_freq: HashMap<ObjectId, u64>,
    popularity: HashMap<ObjectId, f64>,
    epoch: u64,
    total_requests: u64,
    /// Popularities below this are dropped at epoch end to keep the
    /// tracked set bounded.
    prune_threshold: f64,
}

impl RequestMonitor {
    /// The paper's EWMA weighting coefficient.
    pub const PAPER_ALPHA: f64 = 0.8;

    /// Creates a monitor with the paper's α = 0.8.
    pub fn new() -> Self {
        Self::with_alpha(Self::PAPER_ALPHA)
    }

    /// Creates a monitor with a custom α.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn with_alpha(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0, 1]");
        RequestMonitor {
            alpha,
            current_epoch_freq: HashMap::new(),
            popularity: HashMap::new(),
            epoch: 0,
            total_requests: 0,
            prune_threshold: 1e-3,
        }
    }

    /// The configured α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Records one request for `object`.
    pub fn record_read(&mut self, object: ObjectId) {
        *self.current_epoch_freq.entry(object).or_insert(0) += 1;
        self.total_requests += 1;
    }

    /// Closes the current epoch, folding frequencies into popularity.
    ///
    /// Objects whose popularity decays below the prune threshold are
    /// forgotten, keeping memory proportional to the working set.
    pub fn end_epoch(&mut self) {
        // BTreeSet: dedup plus a deterministic fold order in one shot.
        let touched: BTreeSet<ObjectId> = self
            .current_epoch_freq
            .keys()
            .chain(self.popularity.keys())
            .copied()
            .collect();

        for object in touched {
            let freq = self.current_epoch_freq.get(&object).copied().unwrap_or(0) as f64;
            let prev = self.popularity.get(&object).copied().unwrap_or(0.0);
            let next = self.alpha * freq + (1.0 - self.alpha) * prev;
            if next < self.prune_threshold {
                self.popularity.remove(&object);
            } else {
                self.popularity.insert(object, next);
            }
        }
        self.current_epoch_freq.clear();
        self.epoch += 1;
    }

    /// The EWMA popularity of `object` (0 if unknown).
    pub fn popularity(&self, object: ObjectId) -> f64 {
        self.popularity.get(&object).copied().unwrap_or(0.0)
    }

    /// All tracked objects with their popularity, most popular first.
    pub fn popularities(&self) -> Vec<(ObjectId, f64)> {
        let mut v: Vec<(ObjectId, f64)> = self.popularity.iter().map(|(&k, &p)| (k, p)).collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("popularities are finite")
                .then(a.0.cmp(&b.0))
        });
        v
    }

    /// Number of completed epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total requests recorded since creation.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }
}

impl Default for RequestMonitor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worked_example() {
        // §IV: first iteration, previous popularity 0, frequency 100:
        // popularity = 0.8 x 100 + 0.2 x 0 = 80.
        let mut monitor = RequestMonitor::new();
        let key = ObjectId::new(1);
        for _ in 0..100 {
            monitor.record_read(key);
        }
        monitor.end_epoch();
        assert!((monitor.popularity(key) - 80.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_folds_across_epochs() {
        let mut monitor = RequestMonitor::new();
        let key = ObjectId::new(0);
        for _ in 0..100 {
            monitor.record_read(key);
        }
        monitor.end_epoch(); // 80
        for _ in 0..50 {
            monitor.record_read(key);
        }
        monitor.end_epoch(); // 0.8*50 + 0.2*80 = 56
        assert!((monitor.popularity(key) - 56.0).abs() < 1e-12);
        assert_eq!(monitor.epoch(), 2);
    }

    #[test]
    fn popularity_decays_when_idle() {
        let mut monitor = RequestMonitor::new();
        let key = ObjectId::new(0);
        for _ in 0..10 {
            monitor.record_read(key);
        }
        monitor.end_epoch(); // 8
        monitor.end_epoch(); // 1.6
        assert!((monitor.popularity(key) - 1.6).abs() < 1e-12);
        // After enough idle epochs the object is pruned entirely.
        for _ in 0..20 {
            monitor.end_epoch();
        }
        assert_eq!(monitor.popularity(key), 0.0);
        assert!(monitor.popularity.is_empty());
    }

    #[test]
    fn popularities_sorted_descending() {
        let mut monitor = RequestMonitor::new();
        for (id, count) in [(0u64, 5u32), (1, 50), (2, 20)] {
            for _ in 0..count {
                monitor.record_read(ObjectId::new(id));
            }
        }
        monitor.end_epoch();
        let pops = monitor.popularities();
        assert_eq!(pops.len(), 3);
        assert_eq!(pops[0].0, ObjectId::new(1));
        assert_eq!(pops[1].0, ObjectId::new(2));
        assert_eq!(pops[2].0, ObjectId::new(0));
        assert!(pops[0].1 > pops[1].1 && pops[1].1 > pops[2].1);
    }

    #[test]
    fn alpha_one_tracks_only_last_epoch() {
        let mut monitor = RequestMonitor::with_alpha(1.0);
        let key = ObjectId::new(0);
        for _ in 0..30 {
            monitor.record_read(key);
        }
        monitor.end_epoch();
        assert!((monitor.popularity(key) - 30.0).abs() < 1e-12);
        monitor.end_epoch();
        assert_eq!(monitor.popularity(key), 0.0, "history forgotten at alpha 1");
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn invalid_alpha_panics() {
        let _ = RequestMonitor::with_alpha(0.0);
    }

    #[test]
    fn totals_accumulate() {
        let mut monitor = RequestMonitor::new();
        monitor.record_read(ObjectId::new(0));
        monitor.record_read(ObjectId::new(1));
        monitor.end_epoch();
        monitor.record_read(ObjectId::new(0));
        assert_eq!(monitor.total_requests(), 3);
    }
}

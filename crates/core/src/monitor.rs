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

/// The paper's EWMA weighting coefficient.
const ALPHA: f64 = 0.8;

/// Popularities below this are dropped at epoch end to keep the tracked
/// set bounded.
const PRUNE_THRESHOLD: f64 = 1e-3;

/// Per-object popularity tracking with epoch-based EWMA.
#[derive(Clone, Debug, Default)]
pub struct RequestMonitor {
    current_epoch_freq: HashMap<ObjectId, u64>,
    popularity: HashMap<ObjectId, f64>,
    epoch: u64,
}

impl RequestMonitor {
    /// Creates a monitor with the paper's α = 0.8.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request for `object`.
    pub fn record_read(&mut self, object: ObjectId) {
        *self.current_epoch_freq.entry(object).or_insert(0) += 1;
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
            let next = ALPHA * freq + (1.0 - ALPHA) * prev;
            if next < PRUNE_THRESHOLD {
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
}

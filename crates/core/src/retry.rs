//! Retry budgets for the read path.
//!
//! A read is one loop of plan → fetch passes (`read.rs`): a pass too
//! few regions answered re-plans on its manifest snapshot, one that
//! lost a version race restarts on a fresh snapshot. [`RetryPolicy`]
//! is the loop's one budget per logical read: both kinds of retry count
//! as attempts, a re-plan is charged a capped exponential backoff
//! **priced on the simulated clock** (added to the read's modelled
//! latency, never slept), and the deadline stops the loop once the
//! read's accumulated backoff reaches it.
//!
//! The default — three attempts, zero backoff, no deadline — is the
//! historical fixed 3-attempt loop, byte-identical to it.

use std::time::Duration;

/// Retry budget for one read: attempt cap, capped exponential backoff,
/// and a per-read deadline on total backoff spent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum plan → fetch passes per read: re-plans after refusing
    /// regions and restarts after version races count alike. Must be
    /// ≥ 1; the historical loop used 3.
    pub max_attempts: u32,
    /// Backoff charged for a re-plan after the read's first pass;
    /// doubles with each later pass. A restart after a version race is
    /// charged none. `Duration::ZERO` (the default) charges nothing.
    pub base_backoff: Duration,
    /// Ceiling on a single retry's backoff. `Duration::ZERO` with a
    /// non-zero base means "uncapped".
    pub max_backoff: Duration,
    /// Per-read budget: once the backoff accumulated over the read's
    /// passes reaches this, no further pass — re-plan or restart — is
    /// made. `Duration::ZERO` disables the budget.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            deadline: Duration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// The backoff to charge for a re-plan after pass number `attempt`
    /// (1-based): `base · 2^(attempt-1)`, capped at
    /// [`RetryPolicy::max_backoff`] when that is non-zero.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let doublings = attempt.saturating_sub(1).min(20);
        let raw = self.base_backoff.saturating_mul(1u32 << doublings);
        if self.max_backoff.is_zero() {
            raw
        } else {
            raw.min(self.max_backoff)
        }
    }

    /// Whether another pass is allowed after `attempts` passes with
    /// `spent` backoff already charged to this read.
    pub fn allows_retry(&self, attempts: u32, spent: Duration) -> bool {
        if attempts >= self.max_attempts.max(1) {
            return false;
        }
        self.deadline.is_zero() || spent < self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_matches_the_historical_loop() {
        let policy = RetryPolicy::default();
        assert!(policy.allows_retry(1, Duration::ZERO));
        assert!(policy.allows_retry(2, Duration::ZERO));
        assert!(!policy.allows_retry(3, Duration::ZERO));
        assert_eq!(policy.backoff_for(1), Duration::ZERO);
        assert_eq!(policy.backoff_for(7), Duration::ZERO);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
            deadline: Duration::ZERO,
        };
        assert_eq!(policy.backoff_for(1), Duration::from_millis(10));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(20));
        assert_eq!(policy.backoff_for(3), Duration::from_millis(35));
        assert_eq!(policy.backoff_for(8), Duration::from_millis(35));
    }

    #[test]
    fn deadline_budget_stops_retries() {
        let policy = RetryPolicy {
            max_attempts: 100,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::ZERO,
            deadline: Duration::from_millis(25),
        };
        assert!(policy.allows_retry(1, Duration::from_millis(10)));
        assert!(!policy.allows_retry(2, Duration::from_millis(30)));
    }

    #[test]
    fn zero_attempt_floor_still_allows_one_attempt() {
        let policy = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        assert!(!policy.allows_retry(1, Duration::ZERO));
    }
}

//! Per-region circuit breakers for the read path.
//!
//! A region that keeps failing fetches should stop being *planned*,
//! not just retried around: the classic closed → open → half-open
//! state machine. The [`ReadPlanner`](crate::planner::ReadPlanner)
//! consults the breaker through
//! [`HedgePolicy::excluded`](crate::planner::HedgePolicy) so open
//! regions are excluded from primary **and** hedge pricing — plans
//! reroute to surviving regions, they never stall waiting on a dead
//! one. If exclusion would leave fewer than `k` reachable chunks the
//! node re-plans ungated and counts a degraded read instead of
//! failing: availability beats breaker hygiene.
//!
//! State advances only on recorded fetch outcomes and the simulated
//! clock (`AgarNode::set_sim_now`), so breaker behaviour replays
//! bit-identically. The default policy (`failure_threshold = 0`)
//! disables the breaker entirely: no state, no exclusions, and the
//! read path is byte-identical to pre-breaker builds.

use agar_net::RegionId;
use parking_lot::Mutex;

/// Breaker tuning. The default (`failure_threshold = 0`) disables the
/// breaker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive fetch failures that trip a region open. `0`
    /// disables the breaker.
    pub failure_threshold: u32,
    /// Sim-clock time an open region waits before a half-open probe
    /// is admitted.
    pub cooldown: std::time::Duration,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 0,
            cooldown: std::time::Duration::from_secs(5),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum RegionState {
    /// Healthy; counts consecutive failures toward the threshold.
    Closed { failures: u32 },
    /// Tripped; excluded from planning until the cooldown elapses.
    Open { since_micros: u64 },
    /// Cooldown elapsed; one probe plan is admitted. Success closes
    /// the breaker, failure re-opens it.
    HalfOpen,
}

/// Per-region circuit breaker consulted by the read planner.
#[derive(Debug)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    states: Mutex<Vec<RegionState>>,
    counters: BreakerCounters,
}

agar_obs::cell_table! {
    /// The breaker's state transitions: closed→open (and
    /// half-open→open), half-open probes admitted, and
    /// open/half-open→closed recoveries.
    pub struct BreakerCounters {
        opens: Counter "agar_breaker_opens_total" []
            "Circuit-breaker transitions to open (region excluded from plans).";
        probes: Counter "agar_breaker_probes_total" []
            "Half-open probe admissions after an open region's cooldown.";
        closes: Counter "agar_breaker_closes_total" []
            "Circuit-breaker recoveries to closed after a successful probe.";
    }
}

impl CircuitBreaker {
    /// Creates a breaker tracking `regions` regions under `policy`.
    pub fn new(policy: BreakerPolicy, regions: usize) -> Self {
        CircuitBreaker {
            policy,
            states: Mutex::new(vec![RegionState::Closed { failures: 0 }; regions]),
            counters: BreakerCounters::default(),
        }
    }

    /// Whether the breaker does anything at all.
    fn enabled(&self) -> bool {
        self.policy.failure_threshold > 0
    }

    /// Records a successful fetch from `region`. Closes a half-open
    /// (or even open — degraded re-plans may fetch from excluded
    /// regions) breaker and resets the failure streak.
    pub fn record_success(&self, region: RegionId) {
        if !self.enabled() {
            return;
        }
        let mut states = self.states.lock();
        let Some(state) = states.get_mut(region.index()) else {
            return;
        };
        match *state {
            RegionState::Closed { failures: 0 } => {}
            RegionState::Closed { .. } => *state = RegionState::Closed { failures: 0 },
            RegionState::HalfOpen | RegionState::Open { .. } => {
                *state = RegionState::Closed { failures: 0 };
                self.counters.closes.inc();
            }
        }
    }

    /// Records a failed fetch from `region` at sim-time `now_micros`.
    /// Trips the region open once the consecutive-failure streak hits
    /// the threshold; a failed half-open probe re-opens immediately.
    pub fn record_failure(&self, region: RegionId, now_micros: u64) {
        if !self.enabled() {
            return;
        }
        let mut states = self.states.lock();
        let Some(state) = states.get_mut(region.index()) else {
            return;
        };
        match *state {
            RegionState::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.policy.failure_threshold {
                    *state = RegionState::Open {
                        since_micros: now_micros,
                    };
                    self.counters.opens.inc();
                } else {
                    *state = RegionState::Closed { failures };
                }
            }
            RegionState::HalfOpen => {
                *state = RegionState::Open {
                    since_micros: now_micros,
                };
                self.counters.opens.inc();
            }
            RegionState::Open { .. } => {}
        }
    }

    /// The per-region exclusion mask at sim-time `now_micros`:
    /// `mask[region] == true` means the planner must not schedule the
    /// region. Open regions whose cooldown has elapsed transition to
    /// half-open here and are *admitted* (the probe). Returns an empty
    /// mask when the breaker is disabled — the planner treats that as
    /// "nothing excluded" with zero overhead.
    pub fn exclusion_mask(&self, now_micros: u64) -> Vec<bool> {
        if !self.enabled() {
            return Vec::new();
        }
        let mut states = self.states.lock();
        states
            .iter_mut()
            .map(|state| match *state {
                RegionState::Open { since_micros } => {
                    let elapsed = now_micros.saturating_sub(since_micros);
                    if elapsed >= self.policy.cooldown.as_micros() as u64 {
                        *state = RegionState::HalfOpen;
                        self.counters.probes.inc();
                        false
                    } else {
                        true
                    }
                }
                RegionState::Closed { .. } | RegionState::HalfOpen => false,
            })
            .collect()
    }

    /// How many regions are currently open (excluded).
    pub fn open_regions(&self) -> usize {
        if !self.enabled() {
            return 0;
        }
        self.states
            .lock()
            .iter()
            .filter(|state| matches!(state, RegionState::Open { .. }))
            .count()
    }

    /// The breaker's transition cells (see [`BreakerCounters`]).
    pub fn counters(&self) -> &BreakerCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn enabled_breaker() -> CircuitBreaker {
        CircuitBreaker::new(
            BreakerPolicy {
                failure_threshold: 3,
                cooldown: Duration::from_secs(2),
            },
            4,
        )
    }

    #[test]
    fn disabled_breaker_excludes_nothing_and_keeps_no_state() {
        let breaker = CircuitBreaker::new(BreakerPolicy::default(), 4);
        for _ in 0..10 {
            breaker.record_failure(RegionId::new(1), 0);
        }
        assert!(breaker.exclusion_mask(u64::MAX).is_empty());
        assert_eq!(breaker.counters().opens.get(), 0);
    }

    #[test]
    fn consecutive_failures_trip_the_region_open() {
        let breaker = enabled_breaker();
        let region = RegionId::new(2);
        breaker.record_failure(region, 0);
        breaker.record_failure(region, 0);
        assert!(
            !breaker.exclusion_mask(0)[2],
            "below threshold stays closed"
        );
        breaker.record_failure(region, 0);
        assert!(breaker.exclusion_mask(0)[2], "threshold trips open");
        assert_eq!(breaker.counters().opens.get(), 1);
        assert_eq!(breaker.open_regions(), 1);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let breaker = enabled_breaker();
        let region = RegionId::new(0);
        breaker.record_failure(region, 0);
        breaker.record_failure(region, 0);
        breaker.record_success(region);
        breaker.record_failure(region, 0);
        breaker.record_failure(region, 0);
        assert!(!breaker.exclusion_mask(0)[0]);
    }

    #[test]
    fn cooldown_admits_a_probe_and_the_probe_outcome_decides() {
        let breaker = enabled_breaker();
        let region = RegionId::new(1);
        for _ in 0..3 {
            breaker.record_failure(region, 1_000_000);
        }
        assert!(breaker.exclusion_mask(1_500_000)[1], "cooling down");
        // Cooldown (2s) elapsed: probe admitted, region re-planned.
        assert!(!breaker.exclusion_mask(3_000_000)[1]);
        assert_eq!(breaker.counters().probes.get(), 1);
        // Probe failed: straight back to open, no threshold needed.
        breaker.record_failure(region, 3_000_000);
        assert!(breaker.exclusion_mask(3_500_000)[1]);
        assert_eq!(breaker.counters().opens.get(), 2);
        // Second probe succeeds: closed and counted.
        assert!(!breaker.exclusion_mask(6_000_000)[1]);
        breaker.record_success(region);
        assert_eq!(breaker.counters().closes.get(), 1);
        assert!(!breaker.exclusion_mask(6_000_000)[1]);
        assert_eq!(breaker.open_regions(), 0);
    }
}

//! Straggler and fault scenarios for the tail-latency harness.
//!
//! The Agar paper's pitch is cutting the *tail* of erasure-coded read
//! latency, so the evaluation needs more than a steady WAN: it needs
//! regions that occasionally straggle (GC pauses, queue spikes), flake
//! (fail and heal on a schedule) or die outright. This module holds the
//! pure-data descriptors of those faults; the bench harness realises
//! them against its latency model and backend under the deterministic
//! simulated clock, so every scenario replays identically per seed.
//!
//! Regions are plain `u16` indices (the same values `agar-net`'s
//! `RegionId::new` accepts) — descriptors stay free of any network
//! dependency and serialise trivially.

use serde::{Deserialize, Serialize};

/// A periodic per-region slowdown: every `every`-th response served by
/// `region` takes `factor`× longer. Deterministic — no coin flips.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct SlowdownSpike {
    /// Index of the region whose responses straggle.
    pub region: u16,
    /// Period: the Nth, 2Nth, … responses are spiked.
    pub every: u64,
    /// Latency multiplier for spiked responses (≥ 1).
    pub factor: f64,
}

/// A fail/heal cycle on the simulated clock: down during
/// `[first_failure_s + i·period_s, first_failure_s + i·period_s + down_s)`
/// for every cycle `i`, up otherwise. A pure function of the clock (no
/// RNG draws). Flaky regions, region outages and fetch-fault windows all
/// run on it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct FailureCycle {
    /// Simulated second of the first failure.
    pub first_failure_s: u64,
    /// Seconds down per cycle.
    pub down_s: u64,
    /// Full fail-heal cycle length in seconds: it must exceed `down_s`
    /// for the cycle to ever heal, a huge period gives a one-shot
    /// failure, and zero never fails.
    pub period_s: u64,
}

impl FailureCycle {
    /// Whether the cycle is down at simulated second `now_s`.
    pub fn is_down_at(&self, now_s: u64) -> bool {
        if now_s < self.first_failure_s || self.period_s == 0 {
            return false;
        }
        (now_s - self.first_failure_s) % self.period_s < self.down_s
    }
}

/// A region that fails and heals on a [`FailureCycle`]: a `tail`
/// scenario's flaky region, and the chaos plane's region blackout.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct FlakyRegion {
    /// Index of the flaky region.
    pub region: u16,
    /// When the region is down.
    pub cycle: FailureCycle,
}

/// One named straggler/fault scenario: a spike schedule, flaky
/// regions, and regions dead for the whole run.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct StragglerScenario {
    /// Scenario name, used in reports and JSON output.
    pub name: &'static str,
    /// Periodic slowdown spikes.
    pub spikes: Vec<SlowdownSpike>,
    /// Regions failing and healing on a schedule.
    pub flaky: Vec<FlakyRegion>,
    /// Regions down for the entire run.
    pub dead: Vec<u16>,
}

impl StragglerScenario {
    /// A fault-free control: hedging should win nothing and waste
    /// (almost) nothing here.
    pub fn calm() -> Self {
        StragglerScenario {
            name: "calm",
            ..StragglerScenario::default()
        }
    }

    /// Classic tail-at-scale stragglers: two nearby regions each hit a
    /// 10× pause every 10th response — rare enough to leave the mean
    /// alone, common enough to own the P99.
    pub fn slow_spikes() -> Self {
        StragglerScenario {
            name: "slow-spikes",
            spikes: vec![
                SlowdownSpike {
                    region: 0,
                    every: 10,
                    factor: 10.0,
                },
                SlowdownSpike {
                    region: 1,
                    every: 10,
                    factor: 10.0,
                },
            ],
            ..StragglerScenario::default()
        }
    }

    /// A backend that keeps falling over: one mid-distance region is
    /// down 5 s out of every 20 s, starting at second 5.
    pub fn flaky_backend() -> Self {
        StragglerScenario {
            name: "flaky-backend",
            flaky: vec![FlakyRegion {
                region: 2,
                cycle: FailureCycle {
                    first_failure_s: 5,
                    down_s: 5,
                    period_s: 20,
                },
            }],
            ..StragglerScenario::default()
        }
    }

    /// A whole region lost for the run, with spikes on a survivor —
    /// degraded reads under stragglers, the paper's worst quadrant.
    pub fn dead_region() -> Self {
        StragglerScenario {
            name: "dead-region",
            spikes: vec![SlowdownSpike {
                region: 1,
                every: 10,
                factor: 10.0,
            }],
            dead: vec![3],
            ..StragglerScenario::default()
        }
    }

    /// Every scenario in the family, calm control first.
    pub fn all() -> Vec<StragglerScenario> {
        vec![
            StragglerScenario::calm(),
            StragglerScenario::slow_spikes(),
            StragglerScenario::flaky_backend(),
            StragglerScenario::dead_region(),
        ]
    }

    /// Whether the scenario injects any fault at all.
    pub fn is_calm(&self) -> bool {
        self.spikes.is_empty() && self.flaky.is_empty() && self.dead.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_cycle_is_down_for_down_s_of_every_period() {
        let cycle = FailureCycle {
            first_failure_s: 5,
            down_s: 5,
            period_s: 20,
        };
        let down: Vec<u64> = (0..50).filter(|&s| cycle.is_down_at(s)).collect();
        assert_eq!(
            down,
            [5, 6, 7, 8, 9, 25, 26, 27, 28, 29, 45, 46, 47, 48, 49]
        );
        // A huge period is a one-shot failure.
        let once = FailureCycle {
            period_s: u64::MAX,
            ..cycle
        };
        assert!(once.is_down_at(9) && !once.is_down_at(10) && !once.is_down_at(25));
        // Down for the whole period never heals; zero down never fails.
        let dead = FailureCycle {
            down_s: 20,
            ..cycle
        };
        assert!((5..100).all(|s| dead.is_down_at(s)));
        let quiet = FailureCycle { down_s: 0, ..cycle };
        assert!((0..100).all(|s| !quiet.is_down_at(s)));
        // A zero period never fails (and never divides by zero).
        let no_cycle = FailureCycle {
            period_s: 0,
            ..cycle
        };
        assert!((0..40).all(|s| !no_cycle.is_down_at(s)));
    }

    #[test]
    fn family_names_are_distinct_and_calm_leads() {
        let all = StragglerScenario::all();
        assert!(all[0].is_calm());
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn fault_scenarios_are_not_calm() {
        assert!(!StragglerScenario::slow_spikes().is_calm());
        assert!(!StragglerScenario::flaky_backend().is_calm());
        assert!(!StragglerScenario::dead_region().is_calm());
    }
}

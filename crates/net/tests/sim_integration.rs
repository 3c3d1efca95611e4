//! Integration tests for the discrete-event simulator driving
//! latency-model-based workloads — the pattern the experiment harness
//! relies on.

use agar_net::latency::LatencyModel;
use agar_net::presets::aws_six_regions;
use agar_net::sim::Simulation;
use agar_net::{RegionId, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// A closed-loop client world: issues the next request when the
/// previous completes, latency drawn from the preset matrix.
struct World {
    rng: StdRng,
    completed: usize,
    target: usize,
    last_completion: SimTime,
}

#[test]
fn closed_loop_against_latency_model_terminates_exactly() {
    let preset = aws_six_regions();
    let latency = preset.latency;
    let mut sim = Simulation::new(World {
        rng: StdRng::seed_from_u64(8),
        completed: 0,
        target: 200,
        last_completion: SimTime::ZERO,
    });

    fn issue(
        latency: &'static agar_net::MatrixLatency,
        world: &mut World,
        sched: &mut agar_net::Scheduler<World>,
    ) {
        if world.completed >= world.target {
            return;
        }
        let d = latency.sample(
            RegionId::new(0),
            RegionId::new(world.completed as u16 % 6),
            100_000,
            &mut world.rng,
        );
        sched.schedule_in(d, move |world: &mut World, sched| {
            world.completed += 1;
            world.last_completion = sched.now();
            issue(latency, world, sched);
        });
    }

    // Leak the model to get a 'static reference for the recursive
    // closures (test-only convenience).
    let latency: &'static agar_net::MatrixLatency = Box::leak(Box::new(latency));
    sim.schedule_at(SimTime::ZERO, move |world: &mut World, sched| {
        issue(latency, world, sched)
    });
    let end = sim.run();
    let world = sim.world();
    assert_eq!(world.completed, 200);
    assert_eq!(world.last_completion, end);
    // 200 sequential WAN fetches of 50..1050 ms must span minutes.
    assert!(end > SimTime::from_secs(60), "ended at {end}");
    assert!(end < SimTime::from_secs(600), "ended at {end}");
}

#[test]
fn interleaved_periodic_and_reactive_events_stay_ordered() {
    // A periodic 1 s tick and a burst of one-shot events must interleave
    // deterministically by timestamp.
    let mut sim = Simulation::new(Vec::<(u64, &'static str)>::new());
    fn tick(
        log: &mut Vec<(u64, &'static str)>,
        sched: &mut agar_net::Scheduler<Vec<(u64, &'static str)>>,
    ) {
        log.push((sched.now().as_millis(), "tick"));
        if sched.now() < SimTime::from_secs(5) {
            sched.schedule_in(Duration::from_secs(1), tick);
        }
    }
    sim.schedule_at(SimTime::from_secs(1), tick);
    for ms in [500u64, 1500, 1500, 4750] {
        sim.schedule_at(SimTime::from_millis(ms), move |log: &mut Vec<_>, _| {
            log.push((ms, "burst"));
        });
    }
    sim.run();
    let log = sim.world();
    let times: Vec<u64> = log.iter().map(|&(t, _)| t).collect();
    let mut sorted = times.clone();
    sorted.sort_unstable();
    assert_eq!(times, sorted, "events fired out of order: {log:?}");
    assert_eq!(log.iter().filter(|&&(_, k)| k == "tick").count(), 5);
    assert_eq!(log.iter().filter(|&&(_, k)| k == "burst").count(), 4);
}

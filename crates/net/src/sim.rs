//! A small deterministic discrete-event simulator.
//!
//! Experiments in this workspace run on virtual time: closed-loop clients
//! schedule their next operation when the previous one completes, and the
//! cache manager fires on a fixed reconfiguration period. The simulator is
//! generic over a user-supplied *world* type `W`; events are `FnOnce`
//! closures receiving exclusive access to the world and the scheduler, so
//! handlers can schedule follow-up events.
//!
//! Determinism: events at equal timestamps fire in scheduling order
//! (FIFO), and nothing in the simulator consults wall-clock time or an
//! unseeded RNG.
//!
//! # Examples
//!
//! ```
//! use agar_net::sim::Simulation;
//! use agar_net::SimTime;
//! use std::time::Duration;
//!
//! let mut sim = Simulation::new(0u32); // world = a counter
//! sim.schedule_in(Duration::from_millis(5), |world, sched| {
//!     *world += 1;
//!     // Events can schedule more events.
//!     sched.schedule_in(Duration::from_millis(5), |world, _| *world += 10);
//! });
//! sim.run();
//! assert_eq!(*sim.world(), 11);
//! assert_eq!(sim.now(), SimTime::from_millis(10));
//! ```

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Boxed event handler: gets the world and the scheduler.
type Handler<W> = Box<dyn FnOnce(&mut W, &mut Scheduler<W>)>;

struct Entry<W> {
    at: SimTime,
    seq: u64,
    handler: Handler<W>,
}

impl<W> PartialEq for Entry<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Entry<W> {}
impl<W> PartialOrd for Entry<W> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Entry<W> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The scheduling half of the simulator, handed to event handlers.
pub struct Scheduler<W> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Entry<W>>>,
}

impl<W> Scheduler<W> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `handler` to fire at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        handler: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) {
        assert!(at >= self.now, "cannot schedule an event in the past");
        let entry = Entry {
            at,
            seq: self.seq,
            handler: Box::new(handler),
        };
        self.seq += 1;
        self.queue.push(Reverse(entry));
    }

    /// Schedules `handler` to fire `delay` after the current instant.
    pub fn schedule_in(
        &mut self,
        delay: Duration,
        handler: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) {
        self.schedule_at(self.now + delay, handler);
    }
}

/// A discrete-event simulation over a world of type `W`.
pub struct Simulation<W> {
    world: W,
    scheduler: Scheduler<W>,
}

impl<W> Simulation<W> {
    /// Creates a simulation owning `world`, with the clock at zero.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            scheduler: Scheduler::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.scheduler.now()
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Consumes the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules an event at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        handler: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) {
        self.scheduler.schedule_at(at, handler);
    }

    /// Schedules an event after a delay.
    pub fn schedule_in(
        &mut self,
        delay: Duration,
        handler: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) {
        self.scheduler.schedule_in(delay, handler);
    }

    /// Fires the next event, if any; returns whether one fired.
    pub fn step(&mut self) -> bool {
        match self.scheduler.queue.pop() {
            Some(Reverse(entry)) => {
                debug_assert!(entry.at >= self.scheduler.now);
                self.scheduler.now = entry.at;
                (entry.handler)(&mut self.world, &mut self.scheduler);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue drains, returning the final time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now()
    }
}

impl<W: std::fmt::Debug> std::fmt::Debug for Simulation<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.scheduler.now)
            .field("pending", &self.scheduler.pending())
            .field("world", &self.world)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        sim.schedule_at(SimTime::from_millis(30), |w, _| w.push(3));
        sim.schedule_at(SimTime::from_millis(10), |w, _| w.push(1));
        sim.schedule_at(SimTime::from_millis(20), |w, _| w.push(2));
        sim.run();
        assert_eq!(sim.world(), &vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_millis(30));
    }

    #[test]
    fn equal_timestamps_fire_fifo() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        for i in 0..10 {
            sim.schedule_at(SimTime::from_millis(5), move |w, _| w.push(i));
        }
        sim.run();
        assert_eq!(sim.world(), &(0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_chain_events() {
        // A closed loop: each event schedules the next until 5 fired.
        fn tick(count: u32, world: &mut u32, sched: &mut Scheduler<u32>) {
            *world += 1;
            if count < 4 {
                sched.schedule_in(Duration::from_millis(2), move |w, s| tick(count + 1, w, s));
            }
        }
        let mut sim = Simulation::new(0u32);
        sim.schedule_in(Duration::from_millis(2), |w, s| tick(0, w, s));
        sim.run();
        assert_eq!(*sim.world(), 5);
        assert_eq!(sim.now(), SimTime::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::new(());
        sim.schedule_at(SimTime::from_millis(10), |_, _| {});
        sim.run();
        sim.schedule_at(SimTime::from_millis(5), |_, _| {});
    }

    #[test]
    fn step_returns_false_when_empty() {
        let mut sim = Simulation::new(());
        assert!(!sim.step());
        sim.schedule_in(Duration::ZERO, |_, _| {});
        assert!(sim.step());
        assert!(!sim.step());
    }

    #[test]
    fn world_accessors() {
        let sim = Simulation::new(42u32);
        assert_eq!(*sim.world(), 42);
        assert_eq!(sim.into_world(), 42);
    }

    #[test]
    fn debug_output_nonempty() {
        let sim = Simulation::new(7u8);
        let s = format!("{sim:?}");
        assert!(s.contains("Simulation"));
        assert!(s.contains("pending"));
    }
}

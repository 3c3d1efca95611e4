//! The three single-node workloads: `hot-hit` (one plain closed loop),
//! `paper-zipf` and `tiered-pressure` (two closed-loop clients on the
//! simulated clock, driven by one OS thread, with the 1 s
//! reconfiguration tick).

use crate::deploy::{self, Deployment, NodeParams};
use crate::probes::{self, ProbeInputs};
use crate::record::{timed, Outcome, Recorder};
use crate::reduce::{self, Phase};
use crate::stats::{self, ratio};
use crate::trace::{TimingFetcher, Tracer};
use crate::RunArgs;
use agar::{AgarNode, CachingClient, DirectFetcher};
use agar_cache::{CacheStats, CacheTier};
use agar_ec::{ChunkId, ObjectId};
use agar_net::sim::Simulation;
use agar_net::{Scheduler, SimTime};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every 16th read is compared byte for byte; the rest are checked on
/// length and head/tail bytes.
pub const FULL_CHECK_EVERY: usize = 16;

/// Simulated cost charged to a failed read so closed-loop pacing goes
/// on (as the experiment harness does).
const FAILED_READ_PENALTY: Duration = Duration::from_secs(2);

/// Public counters at one instant; metrics are deltas between two.
struct Counters {
    stats: CacheStats,
    retries: u64,
    degraded: u64,
    reconfigurations: u64,
    ram_chunks: u32,
    disk_chunks: u32,
}

impl Counters {
    fn of(node: &AgarNode) -> Self {
        let config = node.current_config();
        Counters {
            stats: node.cache_stats(),
            retries: node.retries(),
            degraded: node.degraded_reads(),
            reconfigurations: node.reconfigurations(),
            ram_chunks: config.ram_chunks(),
            disk_chunks: config.disk_chunks(),
        }
    }
}

/// The node, its client state and everything recorded about a phase.
struct World {
    params: NodeParams,
    deployment: Deployment,
    node: Arc<AgarNode>,
    keys: Vec<u32>,
    rec: Recorder,
    tracer: Option<Tracer>,
    /// Sim clients still looping.
    in_flight: usize,
    stop: bool,
    /// Counters when the counted window closed.
    window_end: Option<Counters>,
}

impl World {
    /// One closed-loop operation: optional shadow, the timed read, then
    /// verification and bookkeeping. Returns the simulated latency.
    fn one_op(&mut self, now: Option<SimTime>) -> Duration {
        let op = self.rec.ops;
        let key = u64::from(self.keys[op % self.keys.len()]);
        let object = ObjectId::new(key);
        if let Some(now) = now {
            self.node.set_sim_now(now);
        }
        let open = self
            .tracer
            .as_mut()
            .map(|tracer| tracer.begin_read(op as u64, &self.node, object));
        let in_window = self.rec.in_window();
        let (result, cost) = timed(|| self.node.read(object));
        let latency = match result {
            Ok(metrics) => {
                let check = Instant::now();
                let full = op.is_multiple_of(FULL_CHECK_EVERY);
                if !deploy::verify_pristine(key, self.params.object_size, &metrics.data, full) {
                    self.rec.failed += 1;
                }
                self.rec.verify_ns += check.elapsed().as_nanos() as u64;
                if in_window {
                    self.rec.window.read(cost, &metrics);
                }
                if let (Some(tracer), Some(open)) = (&mut self.tracer, open) {
                    tracer.end_read(open, "read", cost, &metrics.data);
                }
                self.rec.read_done(cost);
                metrics.latency
            }
            Err(_) => {
                self.rec.failed_op(cost);
                FAILED_READ_PENALTY
            }
        };
        if self.rec.window_just_closed() {
            self.window_end = Some(Counters::of(&self.node));
        }
        latency
    }
}

fn client_loop(world: &mut World, sched: &mut Scheduler<World>) {
    if world.stop {
        world.in_flight -= 1;
        return;
    }
    let latency = world.one_op(Some(sched.now()));
    world.stop = world.rec.should_stop();
    sched.schedule_in(latency, client_loop);
}

fn reconfigure_tick(world: &mut World, sched: &mut Scheduler<World>) {
    let now = sched.now();
    world.node.set_sim_now(now);
    let (reconfigured, cost) = timed(|| world.node.maybe_reconfigure(now));
    if reconfigured {
        world.rec.reconfigured(cost);
    }
    if world.in_flight > 0 {
        sched.schedule_in(Duration::from_secs(1), reconfigure_tick);
    }
}

/// Drives the closed loop(s) until the recorder says stop.
fn drive(mut world: World) -> World {
    if world.params.clients <= 1 && !world.params.reconfigure {
        loop {
            world.one_op(None);
            if world.rec.should_stop() {
                return world;
            }
        }
    }
    let clients = world.params.clients.max(1);
    world.in_flight = clients;
    let reconfigure = world.params.reconfigure;
    let mut sim = Simulation::new(world);
    if reconfigure {
        // The first tick only anchors the node's reconfiguration clock.
        sim.schedule_at(SimTime::ZERO, reconfigure_tick);
    }
    for _ in 0..clients {
        sim.schedule_at(SimTime::ZERO, client_loop);
    }
    sim.run();
    sim.into_world()
}

/// Builds the world for one phase over a finished set-up.
fn new_world(
    params: &NodeParams,
    (deployment, node): (Deployment, Arc<AgarNode>),
    keys: Vec<u32>,
    window_ops: usize,
    measure_for: Duration,
    tracer: Option<Tracer>,
) -> World {
    World {
        params: *params,
        deployment,
        node,
        keys,
        rec: Recorder::new(params.segment_ops, window_ops, measure_for),
        tracer,
        in_flight: 0,
        stop: false,
        window_end: None,
    }
}

/// Bytes resident per tier, found through public items only: the
/// node's contents listing, then a peek at each listed chunk.
fn tier_usage(world: &World) -> (usize, usize) {
    let (mut ram, mut disk) = (0, 0);
    for (object, chunks) in world.node.cache_contents() {
        let Ok(manifest) = world.deployment.backend.manifest(object) else {
            continue;
        };
        for index in chunks {
            match world
                .node
                .peek_chunk_tier(&ChunkId::new(object, index), manifest.version())
            {
                Some((data, CacheTier::Ram)) => ram += data.len(),
                Some((data, CacheTier::Disk)) => disk += data.len(),
                None => {}
            }
        }
    }
    (ram, disk)
}

/// Runs one single-node workload and reduces it to metrics.
pub fn run(params: &NodeParams, args: &RunArgs) -> Outcome {
    let measure_for = Duration::from_secs_f64(args.seconds);
    let generate = Instant::now();
    let keys = deploy::zipf_keys(
        params.key_space,
        params.object_size,
        params.window_ops,
        args.seed,
    );
    let gen_ns_per_op = generate.elapsed().as_nanos() as f64 / keys.len() as f64;

    // Traced run: an untraced baseline on a set-up of its own, over a
    // fifth of the time, so tracing overhead compares like with like.
    let baseline: Vec<Vec<f64>> = if args.trace {
        let setup = deploy::setup_node(params, args.seed, false);
        let phase = new_world(params, setup, keys.clone(), 0, measure_for / 5, None);
        vec![drive(phase).rec.segment_read_means_us().to_vec()]
    } else {
        Vec::new()
    };

    let (setup, setup_s) = deploy::timed_setups(params.setups, || {
        deploy::setup_node(params, args.seed, args.trace)
    });
    let tracer = args.trace.then(|| {
        let backend = Arc::clone(&setup.0.backend);
        setup
            .1
            .set_chunk_fetcher(Arc::new(TimingFetcher::new(Arc::new(DirectFetcher::new(
                Arc::clone(&backend),
            )))));
        Tracer::new(backend, params.sample_every, args.seed)
    });
    let before = Counters::of(&setup.1);
    let mut world = drive(new_world(
        params,
        setup,
        keys,
        params.window_ops,
        measure_for,
        tracer,
    ));

    // ---- end-of-run invariants ---------------------------------------
    let settings = world.node.settings().clone();
    let (ram_used, disk_used) = tier_usage(&world);
    let corrupt = world.node.disk_corrupt_frames();
    let mismatches = world.tracer.as_ref().map_or(0, |t| t.mismatches);
    let invariants_hold = ram_used <= settings.cache_capacity_bytes
        && disk_used <= settings.disk_capacity_bytes
        && corrupt == 0
        && mismatches == 0;

    let end = world.window_end.take().expect("the counted window closed");
    let phase = Phase::of(std::slice::from_ref(&world.rec));
    let mut notes = phase.notes();
    notes.push(format!(
        "counted window: {} ops; timed phase: {} ops in {} segments, {} reconfigurations",
        params.window_ops,
        world.rec.ops,
        world.rec.segments(),
        world.rec.reconfigure_ns.len()
    ));

    let metrics = if let Some(tracer) = &world.tracer {
        let kops = params.window_ops as f64 / 1e3;
        let reconfigure_ms: Vec<f64> = world
            .rec
            .reconfigure_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        let reconfigure_allocs: Vec<f64> = world
            .rec
            .reconfigure_allocs
            .iter()
            .map(|&a| a as f64)
            .collect();
        let probe = probes::run(&ProbeInputs {
            backend: &world.deployment.backend,
            node: &world.node,
            router: None,
            object_size: params.object_size,
            seed: args.seed,
        });
        let probed = |name: &str| {
            probe
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v)
        };
        let reconfigure_wall_ms = stats::median(&reconfigure_ms);
        let fill_wall_ms = if reconfigure_ms.is_empty() {
            0.0
        } else {
            reconfigure_wall_ms
                - probed("core.knapsack.populate_ms")
                - probed("core.options.generate_ms")
        };
        let (overhead, overhead_note) = phase.trace_overhead(&baseline);
        notes.push(overhead_note);
        notes.push(tracer.note());
        crate::write_trace_file(params.name, args, tracer);
        let mut metrics = vec![
            (
                "core.node.retries_per_kop",
                (end.retries - before.retries) as f64 / kops,
            ),
            (
                "core.node.degraded_per_kop",
                (end.degraded - before.degraded) as f64 / kops,
            ),
            (
                "cache.ram_used_frac",
                ratio(ram_used as f64, settings.cache_capacity_bytes as f64),
            ),
            (
                "cache.disk_used_frac",
                ratio(disk_used as f64, settings.disk_capacity_bytes as f64),
            ),
            ("cache.disk.corrupt_frames", corrupt as f64),
            ("core.knapsack.reconfigure_wall_ms", reconfigure_wall_ms),
            (
                "core.knapsack.reconfigure_p90_ms",
                stats::tail_percentile(&reconfigure_ms, 0.9).unwrap_or(0.0),
            ),
            ("core.knapsack.fill_wall_ms", fill_wall_ms),
            (
                "core.knapsack.reconfigure_allocs",
                stats::median(&reconfigure_allocs),
            ),
            (
                "core.knapsack.reconfigurations",
                (end.reconfigurations - before.reconfigurations) as f64,
            ),
            ("core.knapsack.config_chunks_ram", f64::from(end.ram_chunks)),
            (
                "core.knapsack.config_chunks_disk",
                f64::from(end.disk_chunks),
            ),
            ("workload.gen_ns_per_op", gen_ns_per_op),
        ];
        metrics.extend(tracer.metrics());
        metrics.extend(phase.per_layer());
        metrics.extend(reduce::counter_metrics(
            &end.stats.delta_since(&before.stats),
            phase.window(|w| w.reads),
            kops,
        ));
        metrics.extend(reduce::stage_metrics(&world.node.trace_snapshot()));
        metrics.extend(overhead);
        metrics.extend(probe);
        reduce::with_zeros(metrics)
    } else {
        phase.end_to_end(setup_s)
    };

    Outcome {
        attempted: world.rec.ops as u64,
        failed: world.rec.failed,
        correct: world.rec.failed == 0 && invariants_hold,
        metrics,
        notes,
    }
}

//! The settings census: every engine setting moves a gated cell when it
//! turns, or is a waiver that names the `bench/` line that keeps it.
//!
//! A row runs one cell of `experiments -- tail|tiers|chaos --tiny --ops
//! 300` (the cells CI `cmp`s) twice: with the defaults, and with one
//! setting of the cell's node perturbed through [`PERTURB`]. The cell's
//! JSON or its `--metrics` dump must differ; a waiver's must not.
//! [`settable`] destructures every settings type without `..`, so a new
//! field does not compile until it is named there, and then fails the
//! census until it has a row.
//!
//! The harness has a census of its own, `harness_census`: every field
//! of [`ExperimentParams`] moves the report of one cheap experiment id,
//! and every field of [`RunConfig`] moves a short tiny-scale Agar run.
//! [`harness_settable`] names those fields the same way.

use crate::chaos::{chaos_run, ChaosPolicy, ChaosScenario};
use crate::experiments::{ExperimentParams, Runner};
use crate::harness::{run_once, Deployment, LatencyProfile, PolicySpec, RunConfig, Scale};
use crate::tail::{tail_run, TAIL_CACHE_MB};
use crate::tiers::tiers_run;
use agar::{AgarSettings, BreakerPolicy, KnapsackSolver, RetryPolicy};
use agar_cluster::ClusterSettings;
use agar_net::presets::{FRANKFURT, SYDNEY, TOKYO};
use agar_obs::MetricsRegistry;
use agar_workload::{Distribution, StragglerScenario};
use std::cell::Cell;
use std::time::Duration;

thread_local! {
    /// The perturbation `Deployment::agar_node` applies last, after the
    /// cell's own `tune`. A cell runs
    /// on the thread that asked for it, and tests run on threads of
    /// their own.
    pub(crate) static PERTURB: Cell<Option<fn(&mut AgarSettings)>> = const { Cell::new(None) };
}

/// The gated cell a row runs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Site {
    /// A `tail` cell: scenario, Δ.
    Tail(&'static str, usize),
    /// A `tiers` cell: catalogue multiple, tiered.
    Tiers(usize, bool),
    /// A `chaos` cell: scenario, policy.
    Chaos(&'static str, ChaosPolicy),
}

struct Row {
    /// A settings field, `retry.` / `breaker.` for the nested policies,
    /// or a `solver.` builder.
    setting: &'static str,
    site: Site,
    perturb: fn(&mut AgarSettings),
    /// The `bench/` line that pins a setting no cell moves.
    waiver: Option<&'static str>,
}

const fn moves(setting: &'static str, site: Site, perturb: fn(&mut AgarSettings)) -> Row {
    Row {
        setting,
        site,
        perturb,
        waiver: None,
    }
}

const fn waived(
    setting: &'static str,
    site: Site,
    perturb: fn(&mut AgarSettings),
    pin: &'static str,
) -> Row {
    Row {
        setting,
        site,
        perturb,
        waiver: Some(pin),
    }
}

const CALM: Site = Site::Tail("calm", 0);
const RAM_ONLY: Site = Site::Tiers(16, false);
const TIERED: Site = Site::Tiers(16, true);
const FLAKY: Site = Site::Chaos("flaky-fetch", ChaosPolicy::Baseline);
const FLAKY_HARDENED: Site = Site::Chaos("flaky-fetch", ChaosPolicy::Hardened);

/// One row per settable value, in declaration order.
const ROWS: &[Row] = &[
    moves("cache_capacity_bytes", CALM, |s| {
        s.cache_capacity_bytes /= 2
    }),
    moves("cache_read", CALM, |s| s.cache_read *= 2),
    moves("client_overhead", CALM, |s| s.client_overhead *= 2),
    moves("max_hedges", Site::Tail("slow-spikes", 0), |s| {
        s.max_hedges = 2;
    }),
    moves("hedge_z", Site::Tail("slow-spikes", 2), |s| s.hedge_z = 0.5),
    moves("disk_capacity_bytes", TIERED, |s| {
        s.disk_capacity_bytes /= 4
    }),
    moves("disk_read", TIERED, |s| s.disk_read *= 2),
    // Every disk write runs off the critical path: nothing prices it.
    waived(
        "disk_write",
        TIERED,
        |s| s.disk_write *= 2,
        "bench/src/deploy.rs:161",
    ),
    // The epoch's solve is the exact dynamic program: passes and early
    // termination reach `populate` alone, which no node runs.
    waived(
        "solver.with_passes",
        RAM_ONLY,
        |s| s.solver = KnapsackSolver::new().with_passes(1),
        "bench/src/deploy.rs:165-167",
    ),
    waived(
        "solver.with_early_termination",
        RAM_ONLY,
        |s| s.solver = KnapsackSolver::new().with_early_termination(30),
        "bench/src/deploy.rs:165-167",
    ),
    moves("trace_sample_every", CALM, |s| s.trace_sample_every = 0),
    moves("retry.max_attempts", FLAKY, |s| s.retry.max_attempts = 1),
    moves("retry.base_backoff", FLAKY, |s| {
        s.retry.base_backoff = Duration::from_millis(10);
    }),
    // The hardened backoffs are 10, 20 and 40 ms: a 15 ms cap binds.
    moves("retry.max_backoff", FLAKY_HARDENED, |s| {
        s.retry.max_backoff = Duration::from_millis(15);
    }),
    moves("retry.deadline", FLAKY_HARDENED, |s| {
        s.retry.deadline = Duration::from_millis(25);
    }),
    moves("breaker.failure_threshold", FLAKY, |s| {
        s.breaker.failure_threshold = 3;
    }),
    moves("breaker.cooldown", FLAKY_HARDENED, |s| {
        s.breaker.cooldown = Duration::from_secs(1);
    }),
];

/// The names of a settings value's fields. The pattern has no `..`, so
/// a field missing from the list does not compile.
macro_rules! fields {
    ($value:expr => $ty:ident { $($field:ident),* $(,)? }) => {{
        let $ty { $($field: _),* } = $value;
        let names: Vec<&'static str> = vec![$(stringify!($field)),*];
        names
    }};
}

/// Every settable value of a node and a cluster, in declaration order:
/// the fields of `AgarSettings` with `retry` and `breaker` expanded to
/// their policies' fields and `solver` to `KnapsackSolver`'s builders,
/// then `ClusterSettings`' fields.
fn settable() -> Vec<String> {
    let node = fields!(AgarSettings::paper_default(0) => AgarSettings {
        cache_capacity_bytes,
        cache_read,
        client_overhead,
        max_hedges,
        hedge_z,
        disk_capacity_bytes,
        disk_read,
        disk_write,
        solver,
        trace_sample_every,
        retry,
        breaker,
    });
    let retry = fields!(RetryPolicy::default() => RetryPolicy {
        max_attempts,
        base_backoff,
        max_backoff,
        deadline,
    });
    let breaker = fields!(BreakerPolicy::default() => BreakerPolicy {
        failure_threshold,
        cooldown,
    });
    let cluster = fields!(ClusterSettings::default() => ClusterSettings {});
    let solver = ["with_passes", "with_early_termination"];
    let prefixed = |prefix: &str, names: &[&str]| -> Vec<String> {
        names
            .iter()
            .map(|name| format!("{prefix}.{name}"))
            .collect()
    };
    let mut names = Vec::new();
    for field in node {
        match field {
            "retry" => names.extend(prefixed("retry", &retry)),
            "breaker" => names.extend(prefixed("breaker", &breaker)),
            "solver" => names.extend(prefixed("solver", &solver)),
            _ => names.push(field.to_string()),
        }
    }
    names.extend(prefixed("cluster", &cluster));
    names
}

#[test]
fn settings_census() {
    /// The cell's JSON and its `--metrics` dump, with `perturb` applied to
    /// its node. Every cell builds its own deployment, so a run depends on
    /// no cell before it.
    fn run(site: Site, perturb: Option<fn(&mut AgarSettings)>) -> [String; 2] {
        PERTURB.set(perturb);
        let params = ExperimentParams::tiny();
        let registry = MetricsRegistry::new();
        let cell = match site {
            Site::Tail(name, delta) => {
                let scenario = StragglerScenario::all()
                    .into_iter()
                    .find(|s| s.name == name)
                    .expect("a tail scenario");
                tail_run(&params, &scenario, delta, TAIL_CACHE_MB, Some(&registry))
            }
            Site::Tiers(multiple, tiered) => tiers_run(&params, multiple, tiered, Some(&registry)),
            Site::Chaos(name, policy) => {
                let scenario = ChaosScenario::family(TOKYO)
                    .into_iter()
                    .find(|s| s.name == name)
                    .expect("a chaos scenario");
                chaos_run(&params, &scenario, policy, Some(&registry))
            }
        };
        PERTURB.set(None);
        [cell.json(), registry.render_json()]
    }

    let rows: Vec<&str> = ROWS.iter().map(|row| row.setting).collect();
    assert_eq!(rows, settable(), "one row per settable value, in order");

    let mut defaults: Vec<(Site, [String; 2])> = Vec::new();
    for row in ROWS {
        let default = match defaults.iter().find(|(site, _)| *site == row.site) {
            Some((_, output)) => output.clone(),
            None => {
                let output = run(row.site, None);
                defaults.push((row.site, output.clone()));
                output
            }
        };
        let perturbed = run(row.site, Some(row.perturb));
        match row.waiver {
            None => assert!(
                perturbed != default,
                "{} moves nothing in {:?}",
                row.setting,
                row.site
            ),
            Some(pin) => assert!(
                perturbed == default,
                "{} (waived for {pin}) moves {:?}",
                row.setting,
                row.site
            ),
        }
    }
}

/// A harness row's perturbation of its value.
type Perturb<T> = fn(&mut T);

/// One row per [`ExperimentParams`] field, in declaration order: the
/// experiment id whose report the field's perturbation must move.
const EXPERIMENT_ROWS: &[(&str, &str, Perturb<ExperimentParams>)] = &[
    ("scale", "fig9", |p| p.scale.object_count /= 2),
    ("runs", "fig2", |p| p.runs = 2),
    ("operations", "fig2", |p| p.operations /= 2),
    ("profile", "table1", |p| {
        p.profile = LatencyProfile::PaperTable1;
    }),
];

/// One row per [`RunConfig`] field, in declaration order: its
/// perturbation of a tiny-scale Agar run from Frankfurt.
const RUN_ROWS: &[(&str, Perturb<RunConfig>)] = &[
    ("client_region", |c| c.client_region = SYDNEY),
    ("policy", |c| c.policy = PolicySpec::Lru(5)),
    ("cache_mb", |c| c.cache_mb = 5.0),
    ("workload", |c| {
        c.workload.distribution = Distribution::Uniform;
    }),
    ("max_hedges", |c| c.max_hedges = 2),
    ("seed", |c| c.seed += 1),
];

/// Every settable value of the harness: the fields of
/// [`ExperimentParams`], then those of [`RunConfig`].
fn harness_settable() -> [Vec<&'static str>; 2] {
    let experiment = fields!(ExperimentParams::tiny() => ExperimentParams {
        scale,
        runs,
        operations,
        profile,
    });
    let run = fields!(RunConfig::paper_default(FRANKFURT, PolicySpec::Agar) => RunConfig {
        client_region,
        policy,
        cache_mb,
        workload,
        max_hedges,
        seed,
    });
    [experiment, run]
}

#[test]
fn harness_census() {
    let experiment: Vec<&str> = EXPERIMENT_ROWS.iter().map(|row| row.0).collect();
    let run: Vec<&str> = RUN_ROWS.iter().map(|row| row.0).collect();
    assert_eq!([experiment, run], harness_settable(), "one row per field");

    let report = |id: &str, perturb: Option<Perturb<ExperimentParams>>| {
        let mut params = ExperimentParams {
            operations: 60,
            ..ExperimentParams::tiny()
        };
        if let Some(perturb) = perturb {
            perturb(&mut params);
        }
        let (table, _) = Runner::new(params, None).run(id).expect("an id");
        table.to_string()
    };
    for &(field, id, perturb) in EXPERIMENT_ROWS {
        assert_ne!(
            report(id, None),
            report(id, Some(perturb)),
            "{field} moves nothing in {id}"
        );
    }

    let deployment = Deployment::build(Scale::tiny());
    let run = |perturb: Option<Perturb<RunConfig>>| {
        let mut config = RunConfig::paper_default(FRANKFURT, PolicySpec::Agar);
        config.workload.operations = 100;
        if let Some(perturb) = perturb {
            perturb(&mut config);
        }
        format!("{:?}", run_once(&deployment, &config))
    };
    let default = run(None);
    for &(field, perturb) in RUN_ROWS {
        assert_ne!(
            default,
            run(Some(perturb)),
            "{field} moves nothing in a run"
        );
    }
}

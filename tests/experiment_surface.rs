//! Pins the experiment surface the way `metrics_surface.rs` pins the
//! scrape: the ids the `experiments` binary accepts, that each one's
//! report is a function of its parameters alone, the report shape of
//! the simulated-clock grid experiments, and the contract of the one
//! closed-loop driver they all replay.

use agar_bench::experiments::{ExperimentParams, Runner, IDS, PAPER_IDS};
use agar_bench::{
    chaos_run, closed_loop, mixed_run, report_json, tail_run, tiers_run, Cell, ChaosPolicy,
    ChaosScenario, OpSample, Serve, TAIL_CACHE_MB,
};
use agar_net::presets::TOKYO;
use agar_net::SimTime;
use agar_obs::MetricsRegistry;
use agar_workload::{MixedOp, ReadWriteMix, StragglerScenario, WorkloadSpec};
use std::sync::Mutex;
use std::time::Duration;

#[test]
fn the_binary_accepts_exactly_these_ids_and_each_one_dispatches() {
    assert_eq!(
        IDS,
        [
            "fig2", "table1", "fig6", "fig7", "fig8a", "fig8b", "fig9", "fig10", "ablation",
            "mixed", "tail", "tiers", "chaos",
        ]
    );
    // `all` is the paper's own artefacts, nothing host- or CI-specific.
    assert_eq!(IDS[..PAPER_IDS].last(), Some(&"ablation"));

    let params = ExperimentParams {
        operations: 40,
        ..ExperimentParams::tiny()
    };
    let mut runner = Runner::new(params, None);
    for id in IDS {
        let (table, cells) = runner
            .run(id)
            .unwrap_or_else(|| panic!("{id} not dispatched"));
        assert!(!table.is_empty(), "{id} produced an empty table");
        // Only the two CI-gated experiments feed the shared cell list.
        assert_eq!(!cells.is_empty(), matches!(id, "tail" | "tiers"), "{id}");
    }
    // The host-clock surfaces moved to `bench/`; `all` is the
    // binary's own shorthand, not an experiment.
    for gone in ["ec", "throughput", "cluster", "all", ""] {
        assert!(runner.run(gone).is_none(), "{gone:?} must be rejected");
    }
}

/// `tiers`' cells (JSON) and the series of its metric dump, run after
/// the ids in `before` by one runner with one registry.
fn tiers_after(before: &[&str], params: ExperimentParams) -> (Vec<String>, Vec<String>) {
    let registry = MetricsRegistry::new();
    let mut runner = Runner::new(params, Some(&registry));
    for id in before {
        runner.run(id).expect("a known id");
    }
    let (_, cells) = runner.run("tiers").expect("tiers is an id");
    // `tiers` labels its cells `catalogue Nx`, `mixed` its ratios
    // `write N%`, and the figures register nothing.
    let dump = series_of(&registry, "catalogue ");
    (cells.iter().map(Cell::json).collect(), dump)
}

#[test]
fn an_experiment_reports_the_same_whatever_ran_before_it() {
    // Every id builds its own deployment: `mixed`'s rewrites of other
    // sizes and `fig2`'s warm decode plans stay out of `tiers`.
    let params = ExperimentParams {
        operations: 60,
        ..ExperimentParams::tiny()
    };
    let alone = tiers_after(&[], params);
    assert!(!alone.1.is_empty(), "tiers registers its cells");
    for before in [["mixed"], ["fig2"]] {
        let after = tiers_after(&before, params);
        assert_eq!(after.0, alone.0, "tiers cells after {before:?}");
        assert_eq!(after.1, alone.1, "tiers metric dump after {before:?}");
    }
}

/// The series of `registry`'s JSON dump whose scenario label starts
/// with `scenario`, one a line.
fn series_of(registry: &MetricsRegistry, scenario: &str) -> Vec<String> {
    let label = format!(r#""scenario": "{scenario}"#);
    registry
        .render_json()
        .lines()
        .filter(|line| line.contains(&label))
        .map(|line| line.trim_end_matches(',').to_string())
        .collect()
}

#[test]
fn a_lone_ratio_or_cell_reports_the_same_series_as_in_the_full_grid() {
    // Every `mixed` ratio and every `tiers` cell builds its own
    // deployment: the last of each, run alone, dumps exactly the series
    // it dumps after the rest of its grid (the codec's decode-plan
    // cache lives in the deployment's backend).
    let params = ExperimentParams {
        operations: 60,
        ..ExperimentParams::tiny()
    };
    let grid = MetricsRegistry::new();
    let mut runner = Runner::new(params, Some(&grid));
    runner.run("mixed").expect("mixed is an id");
    let (_, cells) = runner.run("tiers").expect("tiers is an id");

    let alone = MetricsRegistry::new();
    mixed_run(&params, 0.5, Some(&alone));
    let series = series_of(&alone, "write 50%");
    assert!(!series.is_empty(), "the ratio registers its series");
    assert_eq!(series, series_of(&grid, "write 50%"));

    let alone = MetricsRegistry::new();
    let cell = tiers_run(&params, 16, true, Some(&alone));
    assert_eq!(Some(cell.json()), cells.last().map(Cell::json));
    let series = series_of(&alone, "catalogue 16x");
    assert!(!series.is_empty(), "the cell registers its series");
    let in_grid: Vec<String> = series_of(&grid, "catalogue 16x")
        .into_iter()
        .filter(|line| line.contains(r#""policy": "tiered""#))
        .collect();
    assert_eq!(series, in_grid);
}

/// The keys of one rendered JSON object, in order.
fn json_keys(object: &str) -> Vec<&str> {
    object
        .split('"')
        .skip(1)
        .step_by(2)
        .zip(object.split('"').skip(2).step_by(2))
        .filter(|(_, after)| after.starts_with(':'))
        .map(|(key, _)| key)
        .collect()
}

/// Table headers and JSON keys of a cell both come from its layout's
/// one column list, around the shared core.
fn assert_reports_agree(cell: &Cell) {
    let layout = cell.layout;
    let table = layout.table(std::slice::from_ref(cell));
    assert_eq!(table.len(), 1);
    let mut headers = vec!["scenario", layout.policy_header, "mean (ms)"];
    headers.extend(["P50 (ms)", "P95 (ms)", "P99 (ms)", "P999 (ms)"]);
    let stage_names = ["plan", "lookup", "fetch", "bind", "decode"];
    let stage_headers: Vec<String> = stage_names.iter().map(|s| format!("{s} P99")).collect();
    if layout.stages {
        headers.extend(stage_headers.iter().map(String::as_str));
    }
    headers.push("max (ms)");
    headers.extend(layout.columns.iter().filter_map(|c| c.header));
    headers.push("errors");
    assert_eq!(table.title(), layout.title);
    assert_eq!(table.headers(), headers, "{}", layout.title);
    let row = table.rows().next().expect("one cell, one row");
    assert_eq!(row[..2], [cell.scenario.clone(), cell.policy.clone()]);
    assert_eq!(row.last(), Some(&cell.errors.to_string()));

    let json = cell.json();
    let mut keys = vec!["scenario", "policy"];
    keys.extend(layout.param);
    keys.extend(["operations", "errors", "mean_ms", "p50_ms", "p95_ms"]);
    keys.extend(["p99_ms", "p999_ms", "max_ms"]);
    keys.extend(layout.columns.iter().map(|c| c.key));
    let stage_keys: Vec<String> = stage_names.iter().map(|s| format!("{s}_p99_ms")).collect();
    if layout.stages {
        keys.extend(stage_keys.iter().map(String::as_str));
    }
    assert_eq!(json_keys(&json), keys, "{json}");
    assert_eq!(cell.values.len(), layout.columns.len());
    let report = report_json(&[table], std::slice::from_ref(cell));
    assert!(
        report.contains(&json),
        "the report embeds the cell verbatim"
    );
}

#[test]
fn grid_cells_render_table_and_json_from_one_column_list() {
    let params = ExperimentParams {
        operations: 40,
        ..ExperimentParams::tiny()
    };
    let cell = tail_run(
        &params,
        &StragglerScenario::slow_spikes(),
        2,
        TAIL_CACHE_MB,
        None,
    );
    assert_eq!((cell.operations, cell.param), (40, 2));
    assert_eq!(cell.stages.samples(), 40, "every read is traced");
    assert_reports_agree(&cell);

    let cell = tiers_run(&params, 4, true, None);
    assert_eq!((cell.scenario.as_str(), cell.param), ("catalogue 4x", 4));
    assert!(cell.count("chunk_lookups") >= cell.count("ram_hits"));
    assert_reports_agree(&cell);

    let scenario = &ChaosScenario::family(TOKYO)[1];
    let cell = chaos_run(&params, scenario, ChaosPolicy::Hardened, None);
    assert_eq!(cell.scenario, "partition");
    assert_eq!(cell.policy, "hardened");
    assert_reports_agree(&cell);
}

#[derive(Debug, PartialEq)]
enum Event {
    Clock(SimTime),
    Op(MixedOp),
    Tick(SimTime),
}

/// A server whose every operation takes 300 ms, logging what the
/// driver asks of it.
struct Recorder<'a>(&'a Mutex<Vec<Event>>);

impl Serve for Recorder<'_> {
    fn serve(&mut self, op: MixedOp) -> Option<OpSample> {
        self.0.lock().unwrap().push(Event::Op(op));
        Some(OpSample {
            latency: Duration::from_millis(300),
            backend_fetches: 9,
        })
    }

    fn tick(&mut self, now: SimTime) {
        self.0.lock().unwrap().push(Event::Tick(now));
    }
}

#[test]
fn the_clock_hook_fires_once_before_every_op_and_every_tick_in_time_order() {
    let ops = 10;
    let workload = WorkloadSpec {
        operations: ops,
        ..WorkloadSpec::paper_default()
    };
    let start = SimTime::from_millis(5_000);
    for clients in [1usize, 2] {
        let log = Mutex::new(Vec::new());
        let stream = workload.mixed_stream(ReadWriteMix::with_ratio(0.3), 7);
        let outcome = closed_loop(
            Recorder(&log),
            stream.unwrap(),
            clients,
            start,
            &mut |now| log.lock().unwrap().push(Event::Clock(now)),
        );
        assert_eq!(outcome.samples.len(), ops);
        assert_eq!(outcome.errors, 0);
        assert!(outcome.samples.iter().all(|s| s.backend_fetches == 9));

        let log = log.into_inner().unwrap();
        // Strict alternation: one clock call, then the op or tick it
        // announces — never two hooks in a row, never an unannounced
        // read, write or tick.
        let mut stamps = Vec::new();
        let (mut reads, mut writes, mut ticks) = (0, 0, Vec::new());
        for pair in log.chunks(2) {
            let [Event::Clock(at), event] = pair else {
                panic!("hook and event out of step: {pair:?}");
            };
            stamps.push(*at);
            match event {
                Event::Op(MixedOp::Read { .. }) => reads += 1,
                Event::Op(MixedOp::Write { .. }) => writes += 1,
                Event::Tick(now) => {
                    assert_eq!(now, at, "a tick sees the instant its hook saw");
                    ticks.push(*now);
                }
                Event::Clock(_) => panic!("two hooks in a row: {pair:?}"),
            }
        }
        assert_eq!(reads + writes, ops);
        assert!(writes > 0, "the stream must carry a write");
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
        // Ticks: one at `start`, then one per simulated second until
        // the first that finds every client retired. Each client's ops
        // are 300 ms apart, so the last one retires 300 ms x
        // ceil(ops / clients) in; a tick landing on that very instant
        // was scheduled earlier and fires first, so the run always
        // ends on the first whole second strictly after it.
        let retire = Duration::from_millis(300 * ops.div_ceil(clients) as u64);
        let last_tick = retire.as_secs() + 1;
        let expected: Vec<SimTime> = (0..=last_tick)
            .map(|s| start + Duration::from_secs(s))
            .collect();
        assert_eq!(ticks, expected, "{clients} client(s)");
        assert_eq!(outcome.end, start + Duration::from_secs(last_tick));
    }
}

//! One result shape for the simulated-clock grid experiments (`tail`,
//! `tiers`, `chaos`).
//!
//! Every cell of those experiments is the same closed-loop run seen
//! through a different lens, so they share one core — scenario, policy,
//! operations, errors, the latency ladder, the per-stage breakdown —
//! and each experiment contributes only a [`Layout`]: its title and its
//! own named columns. The table renderer and the JSON cell writer both
//! walk that one column list, so a column cannot appear in one report
//! and drift out of the other.

use crate::harness::LoopOutcome;
use crate::table::{json_string, LatencySummary, Table};
use agar_obs::{Labels, StageSummaries};

/// One experiment-specific column.
#[derive(Clone, Copy, Debug)]
pub struct ColumnSpec {
    /// The JSON key.
    pub key: &'static str,
    /// The table header; `None` keeps the column out of the printed
    /// table (JSON only).
    pub header: Option<&'static str>,
}

impl ColumnSpec {
    /// A column printed in the table under `header` and in JSON under
    /// `key`.
    pub(crate) const fn shown(key: &'static str, header: &'static str) -> Self {
        ColumnSpec {
            key,
            header: Some(header),
        }
    }

    /// A column reported in JSON only.
    pub(crate) const fn json_only(key: &'static str) -> Self {
        ColumnSpec { key, header: None }
    }
}

/// The value of one experiment-specific column.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// An event count: printed verbatim in both reports.
    Count(u64),
    /// A fraction in `[0, 1]`: four decimals in JSON, a percentage with
    /// one decimal in the table.
    Ratio(f64),
}

impl Value {
    /// `part / whole`, zero when nothing was counted.
    pub(crate) fn ratio(part: u64, whole: u64) -> Value {
        Value::Ratio(if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        })
    }
}

/// What one experiment adds to the shared cell core.
#[derive(Debug)]
pub struct Layout {
    /// Table title.
    pub title: &'static str,
    /// Header of the policy column (`engine` or `policy`).
    pub policy_header: &'static str,
    /// JSON key of the swept numeric parameter ([`Cell::param`]), if
    /// the experiment reports one.
    pub param: Option<&'static str>,
    /// Whether cells carry a per-stage breakdown (the node traced
    /// every read).
    pub stages: bool,
    /// The experiment's own columns, in report order.
    pub columns: &'static [ColumnSpec],
}

/// One (scenario, policy) cell of a grid experiment.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The experiment this cell belongs to.
    pub layout: &'static Layout,
    /// Scenario name (table row key).
    pub scenario: String,
    /// Policy or engine label.
    pub policy: String,
    /// The swept parameter this cell ran at (Δ, catalogue multiple);
    /// reported under [`Layout::param`].
    pub param: u64,
    /// Operations completed.
    pub operations: usize,
    /// Reads that failed outright (counted as 2 s penalty ops).
    pub errors: usize,
    /// Percentile summary of per-read simulated latency.
    pub latency: LatencySummary,
    /// Per-stage latency breakdown (plan/lookup/fetch/bind/decode) of
    /// the measured reads' traces; empty unless [`Layout::stages`].
    pub stages: StageSummaries,
    /// One value per [`Layout::columns`] entry.
    pub values: Vec<Value>,
}

/// The `{scenario, policy}` labels a cell's node (and fault plane)
/// register their metrics under, so a `--metrics` dump carries every
/// cell of the experiment.
pub(crate) fn cell_labels(scenario: &str, policy: &str) -> Labels {
    Labels::new()
        .with("scenario", scenario)
        .with("policy", policy)
}

impl Layout {
    /// Assembles a cell from a closed-loop outcome and the experiment's
    /// column values, and prints its progress line to stderr.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the column list.
    pub(crate) fn cell(
        &'static self,
        scenario: String,
        policy: String,
        param: u64,
        outcome: &LoopOutcome,
        stages: StageSummaries,
        values: Vec<Value>,
    ) -> Cell {
        assert_eq!(values.len(), self.columns.len(), "column count mismatch");
        let cell = Cell {
            layout: self,
            scenario,
            policy,
            param,
            operations: outcome.samples.len(),
            errors: outcome.errors,
            latency: outcome.latency(),
            stages,
            values,
        };
        eprintln!(
            "  {:<13} {:<10} P99 {:6.0} ms (P50 {:4.0}, mean {:5.0}), {} errors",
            cell.scenario,
            cell.policy,
            cell.latency.p99_ms,
            cell.latency.p50_ms,
            cell.latency.mean_ms,
            cell.errors
        );
        cell
    }

    /// Renders this experiment's cells as its table.
    pub fn table(&self, cells: &[Cell]) -> Table {
        let mut headers: Vec<String> = vec![
            "scenario".into(),
            self.policy_header.into(),
            "mean (ms)".into(),
        ];
        headers.extend(LatencySummary::percentile_headers());
        if self.stages {
            headers.extend(StageSummaries::p99_headers());
        }
        headers.push("max (ms)".into());
        headers.extend(
            self.columns
                .iter()
                .filter_map(|c| c.header.map(String::from)),
        );
        headers.push("errors".into());
        let mut table = Table::new(self.title, headers);
        for cell in cells {
            let mut row = vec![
                cell.scenario.clone(),
                cell.policy.clone(),
                format!("{:.0}", cell.latency.mean_ms),
            ];
            row.extend(cell.latency.percentile_cells());
            if self.stages {
                row.extend(cell.stages.p99_cells());
            }
            row.push(format!("{:.0}", cell.latency.max_ms));
            for (spec, value) in self.columns.iter().zip(&cell.values) {
                if spec.header.is_some() {
                    row.push(match value {
                        Value::Count(n) => n.to_string(),
                        Value::Ratio(r) => format!("{:.1}", r * 100.0),
                    });
                }
            }
            row.push(cell.errors.to_string());
            table.push_row(row);
        }
        table
    }
}

impl Cell {
    /// The count reported under `key`.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no count column of that name.
    pub fn count(&self, key: &str) -> u64 {
        let at = self.layout.columns.iter().position(|c| c.key == key);
        match at.map(|i| self.values[i]) {
            Some(Value::Count(n)) => n,
            other => panic!("{key} is not a count column of this cell: {other:?}"),
        }
    }

    /// The cell as one JSON object: the shared core (`scenario`,
    /// `policy`, the percentiles), then the experiment's columns, then
    /// the stage P99s.
    pub fn json(&self) -> String {
        let ms = |v: f64| format!("{v:.3}");
        let mut fields: Vec<(&str, String)> = vec![
            ("scenario", json_string(&self.scenario)),
            ("policy", json_string(&self.policy)),
        ];
        if let Some(key) = self.layout.param {
            fields.push((key, self.param.to_string()));
        }
        fields.extend([
            ("operations", self.operations.to_string()),
            ("errors", self.errors.to_string()),
            ("mean_ms", ms(self.latency.mean_ms)),
            ("p50_ms", ms(self.latency.p50_ms)),
            ("p95_ms", ms(self.latency.p95_ms)),
            ("p99_ms", ms(self.latency.p99_ms)),
            ("p999_ms", ms(self.latency.p999_ms)),
            ("max_ms", ms(self.latency.max_ms)),
        ]);
        for (spec, value) in self.layout.columns.iter().zip(&self.values) {
            fields.push((
                spec.key,
                match value {
                    Value::Count(n) => n.to_string(),
                    Value::Ratio(r) => format!("{r:.4}"),
                },
            ));
        }
        if self.layout.stages {
            fields.extend([
                ("plan_p99_ms", ms(self.stages.plan.p99_ms)),
                ("lookup_p99_ms", ms(self.stages.lookup.p99_ms)),
                ("fetch_p99_ms", ms(self.stages.fetch.p99_ms)),
                ("bind_p99_ms", ms(self.stages.bind.p99_ms)),
                ("decode_p99_ms", ms(self.stages.decode.p99_ms)),
            ]);
        }
        let body: Vec<String> = fields
            .iter()
            .map(|(key, value)| format!("\"{key}\": {value}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Serialises every emitted table plus the percentile cells as one
/// JSON document, the one CI `cmp`s against its `ci/BENCH_*.json`
/// baseline. All cells land in the `tail` section. Hand-rolled: the
/// vendored serde stub has no serialisation backend.
pub fn report_json(tables: &[Table], cells: &[Cell]) -> String {
    let tables: Vec<String> = tables
        .iter()
        .map(|t| format!("\n    {}", t.json()))
        .collect();
    let cells: Vec<String> = cells
        .iter()
        .map(|c| format!("\n    {}", c.json()))
        .collect();
    format!(
        "{{\n  \"tables\": [{}\n  ],\n  \"tail\": [{}\n  ]\n}}\n",
        tables.join(","),
        cells.join(",")
    )
}

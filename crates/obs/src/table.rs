//! Cell tables: every metric cell of a component is one row of one
//! table.
//!
//! A component declares its cells with
//! [`cell_table!`](crate::cell_table): per row the field, the handle
//! type ([`Counter`] or [`Gauge`]), the metric family, the row's own
//! label pairs and the HELP text. The macro
//! derives the struct of cells, its [`CounterRow`]s and a
//! `register_with(registry, base)` that walks the rows in declaration
//! order, so a row's family, labels and help are written exactly once
//! and every cell reaches the scrape. Adding a counter means adding a
//! row.
//!
//! ```
//! use agar_obs::{cell_table, Labels, MetricsRegistry};
//!
//! cell_table! {
//!     /// A toy component's cells.
//!     pub struct ToyCounters {
//!         hits: Counter "toy_lookups_total" [("result", "hit")]
//!             "Lookups by result.";
//!         misses: Counter "toy_lookups_total" [("result", "miss")]
//!             "Lookups by result.";
//!         depth: Gauge "toy_queue_depth" [] "Requests waiting.";
//!     }
//! }
//!
//! let counters = ToyCounters::default();
//! counters.hits.add(2);
//! counters.depth.set(5);
//! let registry = MetricsRegistry::new();
//! counters.register_with(&registry, &Labels::new().with("region", "fra"));
//! let scrape = registry.render_prometheus();
//! assert!(scrape.contains("toy_lookups_total{region=\"fra\",result=\"hit\"} 2"));
//! assert!(scrape.contains("# TYPE toy_queue_depth gauge"));
//! assert_eq!(ToyCounters::ROWS.len(), 3);
//! ```

use crate::registry::{Counter, Gauge, Labels, MetricsRegistry};

/// Where one cell lands in a scrape: a row of a cell table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterRow {
    /// Prometheus metric family.
    pub family: &'static str,
    /// Labels telling sibling rows of one family apart, appended to the
    /// registration's base labels.
    pub labels: &'static [(&'static str, &'static str)],
    /// HELP text (identical on every row of a family).
    pub help: &'static str,
}

impl CounterRow {
    /// `base` with this row's labels appended.
    fn labels(&self, base: &Labels) -> Labels {
        self.labels
            .iter()
            .fold(base.clone(), |labels, (name, value)| {
                labels.with(name, *value)
            })
    }
}

/// A handle a table row can hold. The registry keeps a clone of the
/// *same* cell, so counts accumulated before registration are kept and
/// a scrape always reflects the live value.
pub trait TableCell {
    /// Late-binds this cell into `registry` as `row`'s series under
    /// `base` labels.
    fn register(&self, registry: &MetricsRegistry, row: &CounterRow, base: &Labels);
}

impl TableCell for Counter {
    fn register(&self, registry: &MetricsRegistry, row: &CounterRow, base: &Labels) {
        registry.register_counter(row.family, row.help, row.labels(base), self);
    }
}

impl TableCell for Gauge {
    fn register(&self, registry: &MetricsRegistry, row: &CounterRow, base: &Labels) {
        registry.register_gauge(row.family, row.help, row.labels(base), self);
    }
}

/// Declares a struct of metric cells, one row per cell (see the
/// [module docs](crate::table)):
///
/// ```text
/// field: Counter|Gauge "family" [("label", "value"), …] "help";
/// ```
///
/// The struct derives `Debug` and `Default` (all cells zero), each
/// field is `pub` and documented with its help text and scrape row, and
/// the struct gains `ROWS` (the rows in declaration order) and
/// `register_with(&registry, &base)`, which registers every cell under
/// its row in that order.
#[macro_export]
macro_rules! cell_table {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($cell:ident: $kind:ident $family:literal [$($labels:tt)*] $help:literal;)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $name {
            $(
                #[doc = concat!(
                    $help, "\n\nScrape row: `", $family, "` ", stringify!($($labels)*)
                )]
                pub $cell: $crate::$kind,
            )*
        }

        impl $name {
            /// The table's rows in declaration order: where each cell
            /// lands in a scrape.
            pub const ROWS: &'static [$crate::CounterRow] = &[$(
                $crate::CounterRow { family: $family, labels: &[$($labels)*], help: $help },
            )*];

            /// Late-binds every cell into `registry` by walking
            /// [`Self::ROWS`] in order, each row's labels appended to
            /// `base` (typically region, member, scenario).
            pub fn register_with(
                &self,
                registry: &$crate::MetricsRegistry,
                base: &$crate::Labels,
            ) {
                let cells: &[&dyn $crate::TableCell] = &[$(&self.$cell,)*];
                for (row, cell) in Self::ROWS.iter().zip(cells) {
                    cell.register(registry, row, base);
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{Labels, MetricsRegistry};

    cell_table! {
        /// Cells for the walk test.
        struct Cells {
            first: Counter "t_first_total" [] "First.";
            level: Gauge "t_level" [("unit", "chunks")] "Level.";
            ram: Counter "t_hits_total" [("tier", "ram")] "Hits.";
            disk: Counter "t_hits_total" [("tier", "disk")] "Hits.";
        }
    }

    #[test]
    fn registration_walks_the_rows_in_order() {
        let cells = Cells::default();
        cells.first.add(3); // before registration: kept
        cells.level.set(7);
        let registry = MetricsRegistry::new();
        cells.register_with(&registry, &Labels::new().with("region", "fra"));
        cells.disk.inc(); // after registration: the same cell
        assert_eq!(registry.len(), Cells::ROWS.len());
        assert_eq!(
            registry.render_prometheus(),
            "# HELP t_first_total First.\n\
             # TYPE t_first_total counter\n\
             t_first_total{region=\"fra\"} 3\n\
             # HELP t_level Level.\n\
             # TYPE t_level gauge\n\
             t_level{region=\"fra\",unit=\"chunks\"} 7\n\
             # HELP t_hits_total Hits.\n\
             # TYPE t_hits_total counter\n\
             t_hits_total{region=\"fra\",tier=\"ram\"} 0\n\
             t_hits_total{region=\"fra\",tier=\"disk\"} 1\n"
        );
        // Re-registration under the same labels is idempotent.
        cells.register_with(&registry, &Labels::new().with("region", "fra"));
        assert_eq!(registry.len(), Cells::ROWS.len());
    }
}

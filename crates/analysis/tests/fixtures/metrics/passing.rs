//! Passing fixture: every Counter/Gauge/Histogram field appears in a
//! `register_*` function in the same file — hand-written cells and the
//! cells of a table macro alike.

pub struct ReadStats {
    pub hits: Counter,
    pub misses: Counter,
    pub latency: Histogram,
}

impl ReadStats {
    pub fn register_metrics(&self, registry: &Registry) {
        registry.bind("read_hits", &self.hits);
        registry.bind("read_misses", &self.misses);
        registry.bind_histogram("read_latency", &self.latency);
    }
}

/// A counter table: the cells are declared once per row and the
/// template's own `register_with` binds `$cell`, i.e. every row.
macro_rules! counter_table {
    ($($cell:ident: $family:literal $help:literal;)*) => {
        pub struct TableCells {
            $(#[doc = $help] pub $cell: Counter,)*
        }

        impl TableCells {
            pub fn register_with(&self, registry: &Registry) {
                $(registry.bind($family, &self.$cell);)*
            }
        }
    };
}

counter_table! {
    lookups: "cache_lookups_total" "Chunk lookups.";
    evictions: "cache_evictions_total" "Chunks evicted.";
}

/// An owner of two table rows plus a cell of its own: all three are
/// hand-written fields and all three are bound.
pub struct Coordinator {
    coalesced: Counter,
    batched: Counter,
    primary: Counter,
}

impl Coordinator {
    pub fn register_metrics(&self, registry: &Registry) {
        ROWS.coalesced.register(registry, &self.coalesced);
        ROWS.batched.register(registry, &self.batched);
        registry.bind("fetch_primary_total", &self.primary);
    }
}

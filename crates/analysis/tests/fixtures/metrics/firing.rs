//! Firing fixture: metric cell fields with no `register_*` binding —
//! they would tick forever without ever appearing in an exposition
//! page. Three shapes: a plain struct, an owner that holds a counter
//! table row but forgets to register it, and a table macro whose
//! template never binds its cells.

pub struct ReadStats {
    pub hits: Counter,
    pub misses: Counter,
    pub depth: Gauge,
}

impl ReadStats {
    pub fn register_metrics(&self, registry: &Registry) {
        registry.bind("read_hits", &self.hits);
        registry.bind("read_depth", &self.depth);
        // `misses` is never bound: the pass must flag it.
    }
}

/// Owns two rows of a counter table; only one reaches the registry.
pub struct LeaseManager {
    grants: Counter,
    contentions: Counter,
}

impl LeaseManager {
    pub fn register_metrics(&self, registry: &Registry) {
        ROWS.grants.register(registry, &self.grants);
        // `contentions` is never bound: the pass must flag it.
    }
}

/// A table macro must not blind the pass: this template declares
/// `$cell` cells and has no `register*` function that mentions them.
macro_rules! unbound_table {
    ($($cell:ident;)*) => {
        pub struct UnboundCells {
            $(pub $cell: Counter,)*
        }

        impl UnboundCells {
            pub fn snapshot(&self) -> Vec<u64> {
                vec![$(self.$cell.get(),)*]
            }
        }
    };
}

//! Passing fixture: seeded RNG, simulated clock, and every unordered
//! iteration is either reduced, sorted, or routed through a BTree
//! collection before its order can escape.

struct Tracker {
    counts: HashMap<ObjectId, u64>,
}

impl Tracker {
    fn sample(&mut self, clock: &SimClock, rng: &mut StdRng) -> Duration {
        self.jitter = rng.gen_range(0..10);
        clock.now()
    }

    /// A reduction is order-insensitive.
    fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// The collect-then-sort idiom: order never escapes unsorted.
    fn dump(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.counts.values().copied().collect();
        out.sort_unstable();
        out
    }

    /// Collecting into an ordered set neutralises in one statement.
    fn ids(&self) -> BTreeSet<ObjectId> {
        self.counts.keys().copied().collect::<BTreeSet<ObjectId>>()
    }
}

/// `options` and `weights` here are slices, ordered; the `HashMap`s of
/// those names below live only in test code and do not make them unordered.
fn picks(options: &[Option], weights: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    out.extend(options.iter().map(Option::weight));
    for w in weights.iter() {
        out.push(*w);
    }
    out
}

#[cfg(test)]
mod tests {
    struct Fixture {
        weights: HashMap<ObjectId, u32>,
    }

    #[test]
    fn picks_every_option() {
        let options: HashMap<ObjectId, Option> = HashMap::new();
        assert!(options.is_empty());
    }
}

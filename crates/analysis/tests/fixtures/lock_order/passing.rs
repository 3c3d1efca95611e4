//! Passing fixture: both functions take the pair in the same order,
//! and the condvar wait holds only the guard it atomically releases.

impl Coordinator {
    fn promote(&self) {
        let leases = self.leases.lock();
        let stats = self.stats.lock();
        stats.bump(leases.len());
    }

    fn release(&self) {
        let leases = self.leases.lock();
        let stats = self.stats.lock();
        stats.drop_one(leases.len());
    }

    fn wait_alone(&self) {
        let guard = self.queue.lock();
        let guard = self.ready.wait(guard);
        guard.len();
    }
}

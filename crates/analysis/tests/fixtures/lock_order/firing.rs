//! Firing fixture: two functions acquire the same pair of locks in
//! opposite orders (a deadlock cycle), and a condvar wait happens with
//! a second guard still live.

impl Coordinator {
    fn promote(&self) {
        let leases = self.leases.lock();
        let stats = self.stats.lock();
        stats.bump(leases.len());
    }

    fn release(&self) {
        let stats = self.stats.lock();
        let leases = self.leases.lock();
        stats.bump(leases.len());
    }

    fn wait_holding_two(&self) {
        let stats = self.stats.lock();
        let guard = self.queue.lock();
        let guard = self.ready.wait(guard);
        stats.bump(guard.len());
    }
}

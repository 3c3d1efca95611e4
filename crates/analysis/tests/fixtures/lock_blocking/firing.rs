//! Firing fixture: backend and disk work under live lock guards.

impl Node {
    /// Named guard held across a backend fetch.
    fn read_through(&self, id: ChunkId) -> Option<Chunk> {
        let state = self.state.lock();
        let chunk = self.backend.fetch_chunk(id);
        state.note(id);
        chunk
    }

    /// Temporary guard (dies at the semicolon) is fine, but this one
    /// wraps the blocking call itself inside the guard expression.
    fn decode_under_lock(&self) {
        let guard = self.table.write();
        self.codec.reconstruct_object_report(&self.shards, self.size);
        drop(guard);
    }

    /// Positioned I/O blocks too, and a guard obtained through a
    /// helper that returns one is still a guard.
    fn read_at_under_helper_lock(&self, buf: &mut [u8]) {
        let inner = self.inner();
        inner.file.read_exact_at(buf, inner.offset);
    }

    fn inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

//! Passing fixture: guards are dropped (or scoped out) before any
//! backend/codec/disk call.

impl Node {
    /// The guard's scope ends before the fetch.
    fn read_through(&self, id: ChunkId) -> Option<Chunk> {
        {
            let state = self.state.lock();
            state.note(id);
        }
        self.backend.fetch_chunk(id)
    }

    /// Explicit drop before the blocking call.
    fn decode_after_drop(&self) {
        let guard = self.table.write();
        let plan = guard.plan();
        drop(guard);
        self.codec.reconstruct_object_report(&self.shards, self.size);
        plan.apply();
    }

    /// A temp guard dies at its semicolon: the fetch is lock-free.
    fn peek_then_fetch(&self, id: ChunkId) -> Option<Chunk> {
        let hot = self.state.lock().contains(&id);
        if hot {
            return None;
        }
        self.backend.fetch_chunk(id)
    }

    /// The handle is cloned out under the helper's guard; the
    /// positioned write runs after the guard is dropped.
    fn write_at_after_helper_lock(&self, buf: &[u8]) {
        let inner = self.inner();
        let (file, offset) = (inner.file.clone(), inner.offset);
        drop(inner);
        file.write_all_at(buf, offset);
    }

    fn inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

//! Firing fixture: allow directives that suppress nothing.
//! agar-lint: allow(unsafe-hygiene)

impl Node {
    /// The guard's scope ends before the fetch, so the directive
    /// covers a call no pass flags.
    fn read_through(&self, id: ChunkId) -> Option<Chunk> {
        {
            let state = self.state.lock();
            state.note(id);
        }
        // agar-lint: allow(lock-across-blocking)
        self.backend.fetch_chunk(id)
    }

    /// The directive names the wrong pass: the finding it sits on
    /// still fires, and the directive is stale.
    fn fetch_under_guard(&self, id: ChunkId) -> Option<Chunk> {
        let state = self.state.lock();
        // agar-lint: allow(determinism)
        self.backend.fetch_chunk(id)
    }
}

//! Passing fixture: every allow directive suppresses a finding, on
//! its own line, on the line below it, or file-wide.
//! agar-lint: allow(unsafe-hygiene)

impl Node {
    fn fetch_under_guard(&self, id: ChunkId) -> Option<Chunk> {
        let state = self.state.lock();
        // agar-lint: allow(lock-across-blocking)
        self.backend.fetch_chunk(id)
    }

    fn decode_under_guard(&self) {
        let table = self.table.write();
        self.codec.reconstruct_object_report(&table.shards, 9); // agar-lint: allow(lock-across-blocking)
    }

    fn raw(&self) -> u8 {
        unsafe { *self.ptr }
    }
}

//@path crates/sim/src/collector.rs
pub fn ingest_frame(hooks: &mut dyn IngestHooks, store: &mut Store, frame: &[u8]) {
    if hooks.on_accepted_frame(frame).is_err() {
        return;
    }
    store.commit(frame);
}

//@path crates/sim/src/collector.rs
pub fn ingest_frame(hooks: &mut dyn IngestHooks, store: &mut Store, frame: &[u8]) {
    store.commit(frame); //~ journal-before-commit
    let _ = hooks.on_accepted_frame(frame);
}

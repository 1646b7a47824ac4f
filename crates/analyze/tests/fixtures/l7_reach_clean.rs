//@file crates/core/src/pipeline.rs
// funnel-lint: root
pub fn assess_change() -> u32 {
    std::panic::catch_unwind(|| read_frame()).unwrap_or(0)
}
//@file crates/topology/src/frame.rs
pub fn read_frame() -> u32 {
    decode().unwrap()
}
fn decode() -> Option<u32> {
    None
}

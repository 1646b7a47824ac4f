//@path crates/sim/src/agent.rs
use std::collections::BTreeMap;

fn ingest(frames: &[u8], index: &BTreeMap<u32, u32>) -> u32 {
    let decoded = frames.first().copied().unwrap_or(0);
    index[&(decoded as u32)] //~ panic-in-hot-path
}

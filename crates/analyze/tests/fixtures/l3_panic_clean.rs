//@path crates/sim/src/agent.rs
use std::collections::BTreeMap;

fn ingest(frames: &[u8], index: &mut BTreeMap<u32, u32>) -> Option<u32> {
    // A missing key degrades to None, never a panic.
    let decoded = u32::from(*frames.first()?);
    let cell = index.get(&decoded).copied();
    index.insert(decoded + 1, 0);
    cell
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_index() {
        let m: std::collections::BTreeMap<u32, u32> = [(1, 2)].into();
        assert_eq!(m[&1], 2);
    }
}

// Panics below an entry point, under the crate root's deny line. A call
// graph had to walk from `recover` to find them; clippy flags each where
// it is, however many calls down.
pub fn recover(frames: &[u32]) -> u32 {
    replay(frames)
}

fn replay(frames: &[u32]) -> u32 {
    let rest = &frames[1..]; //~ clippy::indexing_slicing
    let first = frames[0]; //~ clippy::indexing_slicing
    decode(rest.first().copied()) + first
}

fn decode(frame: Option<u32>) -> u32 {
    let value = frame.unwrap(); //~ clippy::unwrap_used
    if value > 9 {
        panic!("implausible frame"); //~ clippy::panic
    }
    value
}

// Test code may index: clippy.toml's allow-indexing-slicing-in-tests.
#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_index() {
        let v = [1u32, 2];
        assert_eq!(v[..1][0] + v[1], 3);
    }
}

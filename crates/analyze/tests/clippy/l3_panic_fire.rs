// Panicking calls on the ingestion path, under the hot-path deny line (map
// indexing is funnel-lint's `panic-in-hot-path`).
pub fn ingest(frames: &[u8]) -> u8 {
    let first = frames.first().unwrap(); //~ clippy::unwrap_used
    let decoded = decode(*first).expect("frame decodes"); //~ clippy::expect_used
    if decoded > 9 {
        panic!("implausible frame"); //~ clippy::panic
    }
    if decoded > 8 {
        unreachable!(); //~ clippy::unreachable
    }
    if decoded > 7 {
        todo!(); //~ clippy::todo
    }
    if decoded > 6 {
        unimplemented!(); //~ clippy::unimplemented
    }
    decoded
}

fn decode(b: u8) -> Option<u8> {
    Some(b)
}

// Test code may panic: clippy.toml's allow-*-in-tests.
#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic() {
        let v: Vec<u8> = vec![1];
        assert_eq!(*v.first().unwrap(), 1);
        assert_eq!(v.first().expect("one element"), &1);
        if v.len() > 1 {
            panic!("impossible");
        }
    }
}

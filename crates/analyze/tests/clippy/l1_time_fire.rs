// Wall-clock reads in a scoring path.
use std::time::{Instant, SystemTime}; //~ clippy::disallowed_types

pub fn score_window() -> u64 {
    let started = Instant::now(); //~ clippy::disallowed_methods
    let _wall = SystemTime::now(); //~ clippy::disallowed_types
    started.elapsed().as_millis() as u64
}

// A clock owner names its exemption and says why.
#[expect(clippy::disallowed_methods, reason = "the one clock owner")]
pub fn measure() -> Instant {
    Instant::now()
}

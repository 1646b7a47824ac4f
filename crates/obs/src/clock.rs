//! The profiling clock: deterministic sim time for tests, monotonic wall
//! time for real profiling — behind the pipeline's one clock choke point.
//!
//! `clippy.toml` disallows `Instant::now()` everywhere that does not say
//! why with an `#[expect]` (eval's Table 2 timing is the other owner), so a
//! timing facility for the pipeline itself needs exactly one sanctioned
//! reading site. The private `wall_ns` is that site: every span measurement
//! funnels
//! through it, and swapping in the [`SimClock`] (a plain atomic counter the
//! test advances by hand) removes the wall clock from the picture entirely —
//! which is how the span-merge tests stay bit-deterministic.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static SIM_MODE: AtomicBool = AtomicBool::new(false);
static SIM_NOW_NS: AtomicU64 = AtomicU64::new(0);

/// Deterministic test clock: a global counter advanced explicitly. While
/// [`SimClock::install`]ed, every span duration is a pure function of the
/// test's `advance_ns` calls — no wall-clock reads happen at all.
#[derive(Debug)]
pub struct SimClock;

impl SimClock {
    /// Switches the global clock to sim time, starting from 0.
    pub fn install() {
        SIM_NOW_NS.store(0, Ordering::Relaxed);
        SIM_MODE.store(true, Ordering::Relaxed);
    }

    /// Switches the global clock back to wall time.
    pub fn uninstall() {
        SIM_MODE.store(false, Ordering::Relaxed);
    }

    /// Moves sim time forward by `ns` nanoseconds.
    pub fn advance_ns(ns: u64) {
        SIM_NOW_NS.fetch_add(ns, Ordering::Relaxed);
    }

    /// Sets sim time to an absolute value.
    pub fn set_ns(ns: u64) {
        SIM_NOW_NS.store(ns, Ordering::Relaxed);
    }
}

/// The globally-selected clock: sim time when a [`SimClock`] is installed,
/// wall time otherwise. Span guards read this.
#[inline]
pub fn now_ns() -> u64 {
    if SIM_MODE.load(Ordering::Relaxed) {
        SIM_NOW_NS.load(Ordering::Relaxed)
    } else {
        wall_ns()
    }
}

/// Nanoseconds since the first reading — one of the workspace's two
/// wall-clock owners (the other is eval's Table 2 timing). Nothing computed
/// from it ever flows back into assessment verdicts (the obs registry is
/// write-only from the pipeline's point of view).
#[expect(
    clippy::disallowed_methods,
    reason = "the documented clock choke point: profiling only, never read by scoring"
)]
fn wall_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_is_deterministic() {
        let _g = crate::test_guard();
        SimClock::install();
        assert_eq!(now_ns(), 0);
        SimClock::advance_ns(40);
        SimClock::advance_ns(2);
        assert_eq!(now_ns(), 42);
        SimClock::set_ns(7);
        assert_eq!(now_ns(), 7);
        SimClock::uninstall();
    }
}

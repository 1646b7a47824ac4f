//! Observability for the FUNNEL pipeline: spans, metrics, profiling hooks.
//!
//! The assessment pipeline is gated by clippy and `funnel-lint` to be
//! bit-deterministic — no wall clock, no hashed iteration, no panics on the
//! ingestion-to-verdict path. That makes it trustworthy and *opaque*:
//! nothing says where wall-clock goes between ingest, detection, DiD, and
//! merge, how often the control cache hits, or how many frames each fault
//! path quarantines. This crate is the write-only side channel that answers
//! those questions without compromising the determinism contract:
//!
//! * **Spans** — [`span!`] guards record hierarchical stage timings into
//!   per-thread buffers. Buffers merge into the global registry, keyed by
//!   `(path, parent, window)`, with commutative ops only (sums, min/max,
//!   lowest-index-wins on ties — the same discipline as
//!   `funnel_core::parallel::merge`), so the aggregate never depends on
//!   thread scheduling.
//! * **Metrics** — named counters, gauges, and fixed log2-bucket
//!   [`Histogram`]s, every write filed under a one-minute window of the
//!   [`timeline`], the one store. Snapshots serialize with byte-stable key
//!   ordering.
//! * **Clock** — [`clock::now_ns`], monotonic wall time read at the
//!   workspace's single lint-suppressed `Instant::now` choke point, or sim
//!   time while a deterministic [`SimClock`](clock::SimClock) is installed
//!   for tests.
//! * **Fan-out** — [`parallel::fan_out`], the workspace's one pool of
//!   scoped workers: it lives here because it opens and flushes each
//!   worker's span buffer, and because `funnel-sim` needs it below
//!   `funnel-core`.
//! * **Reports** — [`ObsReport`]: the timeline summed over windows, as
//!   sorted JSON plus a human summary, opt-in via the `FUNNEL_OBS` env var
//!   ([`init_from_env`]).
//!
//! Instrumentation is **write-only and zero-cost when disabled**: every
//! entry point consults one relaxed atomic and returns at once while it
//! reads false. Nothing recorded here is ever read back by the pipeline,
//! so verdicts stay byte-identical with observability on or off, at any
//! worker count (proved by `crates/core/tests/obs_determinism.rs`).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod clock;
pub mod metrics;
pub mod names;
pub mod parallel;
pub mod report;
pub mod span;
pub mod timeline;
pub mod trace;

use metrics::Histogram;
use names::Name;
use parking_lot::Mutex;
use report::ObsReport;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use timeline::TimelineReport;

static ENABLED: AtomicBool = AtomicBool::new(false);

pub(crate) fn registry() -> &'static Mutex<TimelineReport> {
    static REGISTRY: OnceLock<Mutex<TimelineReport>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(TimelineReport::default()))
}

/// Whether recording is currently on. One relaxed load — this is the whole
/// cost of every instrumentation site while observability is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on. Instrumentation sites start accumulating from here.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off. Already-recorded data is kept until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Clears everything recorded so far (including the calling thread's span
/// buffer and the window cursor). The enabled flag is left as-is.
pub fn reset() {
    span::clear_thread();
    timeline::reset_window();
    *registry().lock() = TimelineReport::default();
}

/// Enables recording iff the `FUNNEL_OBS` env var is set to a truthy value
/// (anything except empty or `"0"`). Returns whether recording is now on.
/// This is the opt-in used by the examples, the CLI, and the sweep benches.
pub fn init_from_env() -> bool {
    let on = matches!(std::env::var("FUNNEL_OBS"), Ok(v) if !v.is_empty() && v != "0");
    if on {
        enable();
    }
    on
}

/// Applies one write to the registry under one lock, and counts it in
/// `timeline.records` in the same window: the timeline's own cost meter.
#[inline]
fn record(window: u64, write: impl FnOnce(&mut TimelineReport)) {
    if !enabled() {
        return;
    }
    let mut reg = registry().lock();
    write(&mut reg);
    *reg.counters
        .entry((names::TIMELINE_RECORDS.as_str(), window))
        .or_insert(0) += 1;
}

/// Adds `n` to the counter `name` in window `window` (no-op while
/// disabled). Pass the event's own data minute — the decoded frame minute,
/// the change minute, the tick minute — so attribution is independent of
/// thread interleaving; [`timeline::current_window`] where it has none.
#[inline]
pub fn counter_add(name: Name, window: u64, n: u64) {
    record(window, |reg| {
        *reg.counters.entry((name.as_str(), window)).or_insert(0) += n;
    });
}

/// Sets the gauge `name` for window `window` (no-op while disabled).
/// Max-wins within a window: a last-write rule would leak thread
/// scheduling into the bytes.
#[inline]
pub fn gauge_set(name: Name, window: u64, v: u64) {
    record(window, |reg| {
        let slot = reg.gauges.entry((name.as_str(), window)).or_insert(0);
        *slot = (*slot).max(v);
    });
}

/// Records `v` into the histogram `name` for window `window` (no-op while
/// disabled).
#[inline]
pub fn histogram_record(name: Name, window: u64, v: u64) {
    record(window, |reg| {
        reg.histograms
            .entry((name.as_str(), window))
            .or_insert_with(Histogram::new)
            .record(v);
    });
}

/// Merges the calling thread's span buffer into the global registry. Worker
/// threads call this before exiting (the thread-local destructor is the
/// fallback); [`snapshot`] calls it for the current thread.
pub fn flush_thread() {
    span::flush_thread();
}

/// Freezes everything recorded so far into an [`ObsReport`], the timeline
/// summed over windows (flushing the calling thread's span buffer first).
pub fn snapshot() -> ObsReport {
    flush_thread();
    ObsReport::fold(&registry().lock())
}

/// Freezes the telemetry timeline recorded so far (flushing the calling
/// thread's span buffer first).
pub fn timeline_snapshot() -> TimelineReport {
    flush_thread();
    registry().lock().clone()
}

/// Writes `contents` to `path`, creating its parent directories first: the
/// one file writer behind every obs artefact.
pub(crate) fn write_file(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, contents)
}

// The registry and clock mode are process-wide; tests that touch them
// serialize on this lock so `cargo test`'s parallel runner cannot
// interleave them.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::StageStat;
    use crate::test_guard as global_guard;

    #[test]
    fn disabled_recorder_is_noop() {
        let _g = global_guard();
        disable();
        reset();
        counter_add(names::FRAMES_INGESTED, 1, 5);
        histogram_record(names::DID_CONTROL_POOL_SIZE, 1, 4);
        gauge_set(names::WORK_UNITS_TOTAL, 1, 9);
        {
            let _span = span!(names::SPAN_ASSESS_ITEM);
        }
        let report = snapshot();
        assert!(report.counters.is_empty());
        assert!(report.gauges.is_empty());
        assert!(report.histograms.is_empty());
        assert!(report.spans.is_empty());
    }

    #[test]
    fn enabled_recorder_accumulates_and_resets() {
        let _g = global_guard();
        reset();
        enable();
        clock::SimClock::install();
        counter_add(names::FRAMES_INGESTED, 1, 2);
        counter_add(names::FRAMES_INGESTED, 1, 3);
        gauge_set(names::WORK_UNITS_TOTAL, 1, 7);
        histogram_record(names::DID_CONTROL_POOL_SIZE, 1, 3);
        {
            let _span = span!(names::SPAN_ASSESS_ITEM, 4);
            clock::SimClock::advance_ns(250);
        }
        {
            let _span = span!(names::SPAN_ASSESS_ITEM, 2);
            clock::SimClock::advance_ns(750);
        }
        let report = snapshot();
        assert_eq!(report.counters[names::FRAMES_INGESTED.as_str()], 5);
        assert_eq!(report.gauges[names::WORK_UNITS_TOTAL.as_str()], 7);
        assert_eq!(
            report.histograms[names::DID_CONTROL_POOL_SIZE.as_str()].count,
            1
        );
        let stat = &report.spans[names::SPAN_ASSESS_ITEM.as_str()];
        assert_eq!(stat.count, 2);
        assert_eq!(stat.total_ns, 1000);
        assert_eq!(stat.min_ns, 250);
        assert_eq!(stat.max_ns, 750);
        assert_eq!(stat.min_index, 2, "lowest index wins on merge");
        reset();
        disable();
        clock::SimClock::uninstall();
        assert!(snapshot().counters.is_empty());
    }

    #[test]
    fn cross_thread_span_buffers_merge_deterministically() {
        let _g = global_guard();
        reset();
        enable();
        clock::SimClock::install();
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                scope.spawn(move || {
                    for _ in 0..3 {
                        let _span = span!(names::SPAN_ASSESS_CHANGE, worker);
                    }
                    flush_thread();
                });
            }
        });
        let report = snapshot();
        let stat = &report.spans[names::SPAN_ASSESS_CHANGE.as_str()];
        assert_eq!(stat.count, 12);
        assert_eq!(stat.min_index, 0, "merge keeps the lowest worker index");
        reset();
        disable();
        clock::SimClock::uninstall();
    }

    #[test]
    fn snapshot_is_the_timeline_folded() {
        let _g = global_guard();
        reset();
        enable();
        clock::SimClock::install();
        // Windows are visited highest first, so the last gauge write lands
        // in the lowest window: only the highest-window rule reads 122.
        let windows = [12u64, 11, 10];
        for window in windows {
            timeline::set_window(window);
            std::thread::scope(|scope| {
                for worker in 0..3u64 {
                    scope.spawn(move || {
                        counter_add(names::FRAMES_INGESTED, window, worker + window);
                        histogram_record(
                            names::DID_CONTROL_POOL_SIZE,
                            window,
                            100 * worker + window,
                        );
                        gauge_set(names::WORK_UNITS_TOTAL, window, 10 * window + worker);
                        {
                            let _outer = span!(names::SPAN_ASSESS_CHANGE, worker + window);
                            let _inner = span!(names::SPAN_ASSESS_ITEM, worker + window);
                        }
                        drop(span!(names::SPAN_ASSESS_ITEM, 100 + worker + window));
                        // A scope may return before a thread's TLS destructor runs.
                        flush_thread();
                    });
                }
            });
        }
        let timeline = timeline_snapshot();
        assert_eq!(
            timeline.spans.len(),
            9,
            "3 windows × (worker, item under worker, item)"
        );

        let mut expected = ObsReport::default();
        let mut pool = Histogram::new();
        let mut workers = StageStat::empty();
        let mut items = StageStat::empty();
        for window in windows {
            for worker in 0..3 {
                *expected
                    .counters
                    .entry(names::FRAMES_INGESTED.as_str())
                    .or_insert(0) += worker + window;
                pool.record(100 * worker + window);
                workers.observe(0, worker + window);
                items.observe(0, worker + window);
                items.observe(0, 100 + worker + window);
            }
        }
        expected
            .counters
            .insert(names::TIMELINE_RECORDS.as_str(), 27);
        expected
            .gauges
            .insert(names::WORK_UNITS_TOTAL.as_str(), 122);
        expected
            .histograms
            .insert(names::DID_CONTROL_POOL_SIZE.as_str(), pool);
        expected
            .spans
            .insert(names::SPAN_ASSESS_CHANGE.as_str(), workers);
        expected
            .spans
            .insert(names::SPAN_ASSESS_ITEM.as_str(), items);
        assert_eq!(items.min_index, 10, "lowest window, under a parent");
        assert_eq!(snapshot(), expected);
        assert_eq!(ObsReport::fold(&timeline), expected);
        reset();
        disable();
        clock::SimClock::uninstall();
    }

    #[test]
    fn write_file_creates_missing_parents() {
        let dir = std::env::temp_dir().join(format!("funnel-obs-write-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("a").join("b").join("report.json");
        write_file(&path, "{}\n").expect("write into a fresh nested directory");
        assert_eq!(std::fs::read_to_string(&path).expect("read back"), "{}\n");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}

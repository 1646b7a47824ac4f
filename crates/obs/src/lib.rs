//! Observability for the FUNNEL pipeline: spans, metrics, profiling hooks.
//!
//! The assessment pipeline is gated by `funnel-lint` to be bit-deterministic
//! — no wall clock, no hashed iteration, no panics on the ingestion-to-
//! verdict path. That makes it trustworthy and *opaque*: nothing says where
//! wall-clock goes between ingest, detection, DiD, and merge, how often the
//! control cache hits, or how many frames each fault path quarantines. This
//! crate is the write-only side channel that answers those questions without
//! compromising the determinism contract:
//!
//! * **Spans** — [`span!`] guards record hierarchical stage timings into
//!   per-thread buffers. Buffers merge into one global `BTreeMap` keyed by
//!   span path with commutative ops only (sums, min/max, lowest-index-wins
//!   on ties — the same discipline as `funnel_core::parallel::merge`), so
//!   the aggregate never depends on thread scheduling.
//! * **Metrics** — named counters, gauges, and fixed log2-bucket
//!   [`Histogram`]s in a [`names`] registry. Snapshots
//!   serialize with byte-stable key ordering.
//! * **Clock** — a [`Clock`](clock::Clock) trait with a deterministic
//!   [`SimClock`](clock::SimClock) for tests and a monotonic
//!   [`WallClock`](clock::WallClock) behind the workspace's single
//!   lint-suppressed `Instant::now` choke point.
//! * **Reports** — [`ObsReport`]: sorted JSON plus a
//!   human summary, opt-in via the `FUNNEL_OBS` env var
//!   ([`init_from_env`]).
//!
//! Instrumentation is **write-only and zero-cost when disabled**: every
//! entry point consults one relaxed atomic and the no-op arm of the
//! [`Recorder`] enum returns immediately. Nothing recorded here is ever read
//! back by the pipeline, so verdicts stay byte-identical with observability
//! on or off, at any worker count (proved by
//! `crates/core/tests/obs_determinism.rs`).

#![forbid(unsafe_code)]

pub mod clock;
pub mod metrics;
pub mod names;
pub mod report;
pub mod span;
pub mod timeline;
pub mod trace;

use metrics::{Histogram, Registry, StageStat};
use names::Name;
use parking_lot::Mutex;
use report::ObsReport;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use timeline::TimelineReport;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// The counter every windowed write bumps: the timeline's own cost meter.
const TIMELINE_RECORDS: &str = names::TIMELINE_RECORDS.as_str();

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
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
/// buffer, the timeline, and the window cursor). The enabled flag is left
/// as-is.
pub fn reset() {
    span::clear_thread();
    timeline::reset_window();
    *registry().lock() = Registry::default();
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

/// The enum-dispatch recorder: the `Noop` arm is what instrumentation costs
/// when observability is off. Obtain one per call site via [`recorder`].
#[derive(Clone, Copy)]
pub enum Recorder {
    /// Recording off: every method returns immediately.
    Noop,
    /// Recording on: methods write into the global registry.
    Active(&'static Mutex<Registry>),
}

/// Returns the live recorder ([`Recorder::Active`]) when enabled, the no-op
/// otherwise.
#[inline]
pub fn recorder() -> Recorder {
    if enabled() {
        Recorder::Active(registry())
    } else {
        Recorder::Noop
    }
}

impl Recorder {
    /// Adds `n` to the counter `name`.
    #[inline]
    pub fn add(self, name: Name, n: u64) {
        if let Recorder::Active(reg) = self {
            *reg.lock().counters.entry(name.as_str()).or_insert(0) += n;
        }
    }

    /// Sets the gauge `name` to `v` (last write wins).
    #[inline]
    pub fn gauge(self, name: Name, v: u64) {
        if let Recorder::Active(reg) = self {
            reg.lock().gauges.insert(name.as_str(), v);
        }
    }

    /// Records `v` into the log2-bucket histogram `name`.
    #[inline]
    pub fn observe(self, name: Name, v: u64) {
        if let Recorder::Active(reg) = self {
            reg.lock()
                .histograms
                .entry(name.as_str())
                .or_insert_with(Histogram::new)
                .record(v);
        }
    }

    /// Adds `n` to the counter `name` in timeline window `window`, and to
    /// the plain (aggregate) counter — one lock for both.
    #[inline]
    pub fn add_windowed(self, name: Name, window: u64, n: u64) {
        if let Recorder::Active(reg) = self {
            let name = name.as_str();
            let mut reg = reg.lock();
            *reg.counters.entry(name).or_insert(0) += n;
            *reg.timeline.counters.entry((name, window)).or_insert(0) += n;
            *reg.counters.entry(TIMELINE_RECORDS).or_insert(0) += 1;
        }
    }

    /// Sets the gauge `name` for window `window` (max-wins within the
    /// window — a last-write rule would leak thread scheduling into the
    /// bytes) and last-write-wins into the plain gauge.
    #[inline]
    pub fn gauge_windowed(self, name: Name, window: u64, v: u64) {
        if let Recorder::Active(reg) = self {
            let name = name.as_str();
            let mut reg = reg.lock();
            reg.gauges.insert(name, v);
            let slot = reg.timeline.gauges.entry((name, window)).or_insert(0);
            *slot = (*slot).max(v);
            *reg.counters.entry(TIMELINE_RECORDS).or_insert(0) += 1;
        }
    }

    /// Records `v` into the histogram `name` for window `window` and into
    /// the plain histogram.
    #[inline]
    pub fn observe_windowed(self, name: Name, window: u64, v: u64) {
        if let Recorder::Active(reg) = self {
            let name = name.as_str();
            let mut reg = reg.lock();
            reg.histograms
                .entry(name)
                .or_insert_with(Histogram::new)
                .record(v);
            reg.timeline
                .histograms
                .entry((name, window))
                .or_insert_with(Histogram::new)
                .record(v);
            *reg.counters.entry(TIMELINE_RECORDS).or_insert(0) += 1;
        }
    }
}

/// Adds `n` to the counter `name` (no-op while disabled).
#[inline]
pub fn counter_add(name: Name, n: u64) {
    recorder().add(name, n);
}

/// Sets the gauge `name` to `v` (no-op while disabled).
#[inline]
pub fn gauge_set(name: Name, v: u64) {
    recorder().gauge(name, v);
}

/// Records `v` into the histogram `name` (no-op while disabled).
#[inline]
pub fn histogram_record(name: Name, v: u64) {
    recorder().observe(name, v);
}

/// Adds `n` to the counter `name` both in aggregate and in timeline window
/// `window` (no-op while disabled). Pass the event's own data minute — the
/// decoded frame minute, the change minute, the tick minute — so
/// attribution is independent of thread interleaving.
#[inline]
pub fn timeline_counter_add(name: Name, window: u64, n: u64) {
    recorder().add_windowed(name, window, n);
}

/// Sets the gauge `name` for timeline window `window` (max-wins within the
/// window) and in aggregate (no-op while disabled).
#[inline]
pub fn timeline_gauge_set(name: Name, window: u64, v: u64) {
    recorder().gauge_windowed(name, window, v);
}

/// Records `v` into the histogram `name` both in aggregate and in timeline
/// window `window` (no-op while disabled).
#[inline]
pub fn timeline_histogram_record(name: Name, window: u64, v: u64) {
    recorder().observe_windowed(name, window, v);
}

/// Merges the calling thread's span buffer into the global registry. Worker
/// threads call this before exiting (the thread-local destructor is the
/// fallback); [`snapshot`] calls it for the current thread.
pub fn flush_thread() {
    span::flush_thread_into(registry());
}

pub(crate) fn merge_spans(
    spans: &std::collections::BTreeMap<&'static str, StageStat>,
    windowed: &std::collections::BTreeMap<(&'static str, &'static str, u64), StageStat>,
) {
    let mut reg = registry().lock();
    for (path, stat) in spans {
        reg.spans
            .entry(path)
            .or_insert_with(StageStat::empty)
            .merge(stat);
    }
    reg.timeline.merge_spans(windowed);
}

/// Freezes everything recorded so far into an [`ObsReport`] (flushing the
/// calling thread's span buffer first).
pub fn snapshot() -> ObsReport {
    flush_thread();
    ObsReport::from_registry(&registry().lock())
}

/// Freezes the telemetry timeline recorded so far into a
/// [`TimelineReport`] (flushing the calling thread's span buffer first).
pub fn timeline_snapshot() -> TimelineReport {
    flush_thread();
    TimelineReport::from_data(&registry().lock().timeline)
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
    use crate::test_guard as global_guard;

    #[test]
    fn disabled_recorder_is_noop() {
        let _g = global_guard();
        disable();
        reset();
        counter_add(names::FRAMES_INGESTED, 5);
        histogram_record(names::DID_CONTROL_POOL_SIZE, 4);
        gauge_set(names::WORK_UNITS_TOTAL, 9);
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
        counter_add(names::FRAMES_INGESTED, 2);
        counter_add(names::FRAMES_INGESTED, 3);
        gauge_set(names::WORK_UNITS_TOTAL, 7);
        histogram_record(names::DID_CONTROL_POOL_SIZE, 3);
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
                        let _span = span!(names::SPAN_ASSESS_WORKER, worker);
                    }
                    flush_thread();
                });
            }
        });
        let report = snapshot();
        let stat = &report.spans[names::SPAN_ASSESS_WORKER.as_str()];
        assert_eq!(stat.count, 12);
        assert_eq!(stat.min_index, 0, "merge keeps the lowest worker index");
        reset();
        disable();
        clock::SimClock::uninstall();
    }
}

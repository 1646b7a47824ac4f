//! Span guards and per-thread span buffers.
//!
//! A [`crate::span!`] call starts a timing span for a static path like
//! `"detect.sst"`. At start it captures the current window cursor
//! ([`crate::timeline::current_window`]) and the innermost span already
//! open on the same thread (its *parent*); dropping the guard records the
//! elapsed clock under `(path, parent, window)` in the calling thread's
//! private buffer — no locks, no cross-thread traffic on the hot path. The
//! parent stack is purely thread-local and guards drop in LIFO scope order,
//! so causality capture costs one `Vec` push/pop and never synchronizes.
//!
//! Buffers merge into the global registry when a worker flushes
//! ([`crate::flush_thread`]) or exits (the thread-local destructor), and
//! the merge uses only the commutative ops of
//! [`StageStat::merge`](crate::metrics::StageStat::merge), so flush order —
//! i.e. thread scheduling — is unobservable in the aggregate.

use crate::clock;
use crate::metrics::StageStat;
use crate::names::Name;
use crate::timeline;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// The calling thread's span buffer. Dropping it (thread exit) flushes any
/// remaining spans into the global registry, so a worker that never
/// flushes still lands them — though possibly after a `thread::scope`
/// around it has returned: a snapshot that must see them needs
/// [`crate::flush_thread`] first.
#[derive(Default)]
struct LocalSpans {
    /// Completed spans by `(path, parent, window)`.
    map: BTreeMap<(&'static str, &'static str, u64), StageStat>,
    /// Paths of spans currently open on this thread, innermost last.
    stack: Vec<&'static str>,
}

impl Drop for LocalSpans {
    fn drop(&mut self) {
        if !self.map.is_empty() {
            crate::registry().lock().merge_spans(&self.map);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalSpans> = RefCell::new(LocalSpans::default());
}

/// Merges and clears the calling thread's buffer into the global registry.
pub(crate) fn flush_thread() {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        if local.map.is_empty() {
            return;
        }
        crate::registry().lock().merge_spans(&local.map);
        local.map.clear();
    });
}

/// Clears the calling thread's buffer without flushing (used by
/// [`crate::reset`]). Leaves the parent stack alone: any guards still
/// in-flight will pop their own entries on drop.
pub(crate) fn clear_thread() {
    LOCAL.with(|local| local.borrow_mut().map.clear());
}

/// An in-flight timing span; created by [`crate::span!`], recorded on drop.
/// Inert (no clock reads, no buffer writes) when recording was off at
/// creation time.
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct SpanGuard {
    path: &'static str,
    parent: &'static str,
    window: u64,
    index: u64,
    start_ns: u64,
    active: bool,
}

impl SpanGuard {
    /// Starts a span (called by the [`crate::span!`] macro).
    pub fn start(path: Name, index: u64) -> Self {
        let path = path.as_str();
        let active = crate::enabled();
        let (parent, window, start_ns) = if active {
            let parent = LOCAL.with(|local| {
                let mut local = local.borrow_mut();
                let parent = local.stack.last().copied().unwrap_or(timeline::ROOT);
                local.stack.push(path);
                parent
            });
            (parent, timeline::current_window(), clock::now_ns())
        } else {
            (timeline::ROOT, 0, 0)
        };
        Self {
            path,
            parent,
            window,
            index,
            start_ns,
            active,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let elapsed = clock::now_ns().saturating_sub(self.start_ns);
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            local.stack.pop();
            local
                .map
                .entry((self.path, self.parent, self.window))
                .or_insert_with(StageStat::empty)
                .observe(elapsed, self.index);
        });
    }
}

/// Starts a timing span for a static path, optionally tagged with an index
/// (worker or work-unit number; the merged stat keeps the lowest). Bind the
/// guard to a named local — `let _span = span!(...)` — so it spans the
/// enclosing scope.
///
/// ```
/// use funnel_obs::{names, span};
/// let _span = span!(names::SPAN_ASSESS_ITEM);
/// let _tagged = span!(names::SPAN_DETECT, 3);
/// ```
#[macro_export]
macro_rules! span {
    ($path:expr) => {
        $crate::span::SpanGuard::start($path, u64::MAX)
    };
    ($path:expr, $index:expr) => {
        $crate::span::SpanGuard::start($path, $index as u64)
    };
}

#[cfg(test)]
mod tests {
    use crate::clock::SimClock;
    use crate::timeline;

    #[test]
    fn nested_spans_record_hierarchically() {
        let _g = crate::test_guard();
        crate::reset();
        crate::enable();
        SimClock::install();
        timeline::set_window(42);
        {
            let _outer = span!(crate::names::SPAN_ASSESS_CHANGE);
            SimClock::advance_ns(10);
            {
                let _inner = span!(crate::names::SPAN_DETECT);
                SimClock::advance_ns(30);
            }
            SimClock::advance_ns(5);
        }
        let report = crate::snapshot();
        assert_eq!(
            report.spans[crate::names::SPAN_ASSESS_CHANGE.as_str()].total_ns,
            45
        );
        assert_eq!(
            report.spans[crate::names::SPAN_DETECT.as_str()].total_ns,
            30
        );

        let tl = crate::timeline_snapshot();
        let inner = tl.spans[&(
            crate::names::SPAN_DETECT.as_str(),
            crate::names::SPAN_ASSESS_CHANGE.as_str(),
            42,
        )];
        assert_eq!(inner.total_ns, 30);
        let outer = tl.spans[&(
            crate::names::SPAN_ASSESS_CHANGE.as_str(),
            timeline::ROOT,
            42,
        )];
        assert_eq!(outer.total_ns, 45);
        let edges = tl.edges();
        assert_eq!(edges[&("assess.change>detect.sst".to_string(), 42)], 1);
        crate::reset();
        crate::disable();
        SimClock::uninstall();
    }
}

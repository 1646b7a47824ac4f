//! What became of the windows a scorer was already asked about.
//!
//! An [`Outcome`] is a pure function of a window's samples, the scorer's
//! configuration and the threshold. Where those cannot change between two
//! detector runs over the same data — a stream monitor that decided every
//! window as it completed, then the batch-shaped run that assesses a change
//! over the same ring — the second run need not ask the scorer again: the
//! first one *records* each answer in a [`WindowOutcomes`] through its
//! [`ScoringPass`](crate::detector::ScoringPass), and the second *recalls*
//! them through a shared borrow, which cannot record. Which windows are
//! offered, held, scored or dropped is decided by the second run's own
//! [`PersistenceRun`](crate::detector::PersistenceRun) exactly as without a
//! memory; only where an answer comes from differs, and a window the memory
//! does not know is computed as before.
//!
//! Keeping the memory true is its owner's duty: whoever rewrites a sample
//! calls [`WindowOutcomes::forget_from`] for the oldest window that holds it.

use crate::detector::WindowTally;
use funnel_timeseries::series::MinuteBin;

/// What is known of the window decided at one minute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Never asked, forgotten, or no longer retained.
    Unknown,
    /// The scorer's bound ruled the window out.
    Screened,
    /// The bound let the window through; its score was not computed.
    Candidate,
    /// Scored, below the threshold.
    Below,
    /// Scored at or above the threshold: the full score's bits.
    Reached(f64),
}

/// The memory a [`ScoringPass`](crate::detector::ScoringPass) consults
/// before its scorer and records the scorer's answers in.
pub trait Outcomes {
    /// What is remembered of the window decided at `minute`.
    fn recall(&self, minute: MinuteBin) -> Outcome;

    /// Remembers `outcome` for the window decided at `minute`. A memory
    /// that is only read ignores it.
    fn record(&mut self, minute: MinuteBin, outcome: Outcome);

    /// Told the tally of each whole detector run that recalled from this
    /// memory, for an owner that accounts for what was reused.
    fn run_ended(&self, tally: WindowTally) {
        let _ = tally;
    }
}

/// The memory of a run with nothing to recall and no one to record for.
impl Outcomes for () {
    fn recall(&self, _minute: MinuteBin) -> Outcome {
        Outcome::Unknown
    }

    fn record(&mut self, _minute: MinuteBin, _outcome: Outcome) {}
}

/// A shared borrow recalls and never records.
impl<O: Outcomes> Outcomes for &O {
    fn recall(&self, minute: MinuteBin) -> Outcome {
        (**self).recall(minute)
    }

    fn record(&mut self, _minute: MinuteBin, _outcome: Outcome) {}

    fn run_ended(&self, tally: WindowTally) {
        (**self).run_ended(tally);
    }
}

impl<O: Outcomes> Outcomes for &mut O {
    fn recall(&self, minute: MinuteBin) -> Outcome {
        (**self).recall(minute)
    }

    fn record(&mut self, minute: MinuteBin, outcome: Outcome) {
        (**self).record(minute, outcome);
    }

    fn run_ended(&self, tally: WindowTally) {
        (**self).run_ended(tally);
    }
}

const UNKNOWN: u8 = 0;
const SCREENED: u8 = 1;
const CANDIDATE: u8 = 2;
const BELOW: u8 = 3;
const REACHED: u8 = 4;

/// The outcomes of the windows decided at the most recent minutes: one tag
/// byte a minute, in a ring sized once, plus the scores of the few windows
/// that reached. Everything it forgets — by retention, by the cap on kept
/// scores, by [`WindowOutcomes::forget_from`] — turns a recall into
/// [`Outcome::Unknown`] or [`Outcome::Candidate`], never into another answer.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutcomes {
    /// The tag of minute `m` in `[start, end)` sits at `m & (len − 1)`; the
    /// length is a power of two.
    tags: Box<[u8]>,
    start: MinuteBin,
    end: MinuteBin,
    /// `(minute, score)` of every retained minute tagged `REACHED`, sorted
    /// by minute.
    reached: Vec<(MinuteBin, f64)>,
}

impl WindowOutcomes {
    /// Scores kept per memory. A window that reaches when the list is full
    /// pushes the oldest one out, remembered as a candidate from then on.
    /// On the benchmark's live fleet, completions recall 91.9 % of their
    /// answers at 4, 93.3 % at 8, 94.5 % at 16 and 95.0 % with no cap.
    pub const SCORES_KEPT: usize = 16;

    /// A memory of at least the `retention` most recent minutes (rounded up
    /// to a power of two), allocated here and never again.
    pub fn new(retention: usize) -> Self {
        Self {
            tags: vec![UNKNOWN; Self::retained_minutes(retention)].into_boxed_slice(),
            start: 0,
            end: 0,
            reached: Vec::with_capacity(Self::SCORES_KEPT),
        }
    }

    /// How many minutes a memory asked for `retention` holds.
    pub fn retained_minutes(retention: usize) -> usize {
        retention.max(1).next_power_of_two()
    }

    /// Bytes one memory asked for `retention` minutes holds at most: its
    /// tags and its full list of scores. An accounting bound, not an
    /// allocator reading.
    pub fn bytes_for(retention: usize) -> usize {
        Self::retained_minutes(retention)
            + Self::SCORES_KEPT * std::mem::size_of::<(MinuteBin, f64)>()
    }

    /// Forgets every window decided at or after `minute`: a sample at
    /// `minute` or later was rewritten, and those are the windows that can
    /// hold it.
    pub fn forget_from(&mut self, minute: MinuteBin) {
        if minute >= self.end {
            return;
        }
        self.end = minute.max(self.start);
        let kept = self.reached.partition_point(|&(m, _)| m < minute);
        self.reached.truncate(kept);
    }

    fn slot(&self, minute: MinuteBin) -> usize {
        // The mask fits: it is below the tag count, a `usize`.
        (minute & (self.tags.len() as u64).wrapping_sub(1)) as usize
    }

    fn tag(&self, minute: MinuteBin) -> u8 {
        self.tags.get(self.slot(minute)).copied().unwrap_or(UNKNOWN)
    }

    fn set_tag(&mut self, minute: MinuteBin, tag: u8) {
        let slot = self.slot(minute);
        if let Some(t) = self.tags.get_mut(slot) {
            *t = tag;
        }
    }

    /// Moves the retained span so that it ends with `minute`: the minutes
    /// stepped over are unknown, and what falls off the front is let go.
    fn advance_to(&mut self, minute: MinuteBin) {
        let start = minute
            .saturating_add(1)
            .saturating_sub(self.tags.len() as u64)
            .max(self.start);
        for skipped in self.end.max(start)..minute {
            self.set_tag(skipped, UNKNOWN);
        }
        self.start = start;
        self.end = minute.saturating_add(1);
        let gone = self.reached.partition_point(|&(m, _)| m < start);
        if gone > 0 {
            self.reached.drain(..gone);
        }
    }

    /// Keeps `score` for `minute`, which has none yet; `false` when the list
    /// is full and `minute` is older than all it holds. Otherwise a full list
    /// lets its oldest go, remembered as a candidate from then on.
    fn keep_score(&mut self, minute: MinuteBin, score: f64) -> bool {
        let mut at = self.reached.partition_point(|&(m, _)| m < minute);
        if self.reached.len() >= Self::SCORES_KEPT {
            if at == 0 {
                return false;
            }
            let (oldest, _) = self.reached.remove(0);
            self.set_tag(oldest, CANDIDATE);
            at -= 1;
        }
        self.reached.insert(at, (minute, score));
        true
    }

    fn drop_score(&mut self, minute: MinuteBin) {
        if let Ok(at) = self.reached.binary_search_by_key(&minute, |&(m, _)| m) {
            self.reached.remove(at);
        }
    }
}

impl Outcomes for WindowOutcomes {
    fn recall(&self, minute: MinuteBin) -> Outcome {
        if minute < self.start || minute >= self.end {
            return Outcome::Unknown;
        }
        match self.tag(minute) {
            SCREENED => Outcome::Screened,
            CANDIDATE => Outcome::Candidate,
            BELOW => Outcome::Below,
            REACHED => self
                .reached
                .binary_search_by_key(&minute, |&(m, _)| m)
                .ok()
                .and_then(|at| self.reached.get(at))
                .map_or(Outcome::Candidate, |&(_, score)| Outcome::Reached(score)),
            _ => Outcome::Unknown,
        }
    }

    /// Minutes before the retained span are not remembered.
    fn record(&mut self, minute: MinuteBin, outcome: Outcome) {
        if minute < self.start {
            return;
        }
        if minute >= self.end {
            self.advance_to(minute);
        } else if self.tag(minute) == REACHED {
            self.drop_score(minute);
        }
        let tag = match outcome {
            Outcome::Unknown => UNKNOWN,
            Outcome::Screened => SCREENED,
            Outcome::Candidate => CANDIDATE,
            Outcome::Below => BELOW,
            Outcome::Reached(score) => {
                if self.keep_score(minute, score) {
                    REACHED
                } else {
                    CANDIDATE
                }
            }
        };
        self.set_tag(minute, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recalls_what_was_recorded_and_nothing_else() {
        let mut memory = WindowOutcomes::new(8);
        assert_eq!(memory.recall(100), Outcome::Unknown);
        memory.record(100, Outcome::Screened);
        memory.record(101, Outcome::Candidate);
        memory.record(103, Outcome::Reached(0.75));
        assert_eq!(memory.recall(99), Outcome::Unknown);
        assert_eq!(memory.recall(100), Outcome::Screened);
        assert_eq!(memory.recall(101), Outcome::Candidate);
        assert_eq!(memory.recall(102), Outcome::Unknown, "stepped over");
        assert_eq!(memory.recall(103), Outcome::Reached(0.75));
        assert_eq!(memory.recall(104), Outcome::Unknown);
        // A held candidate is scored later.
        memory.record(101, Outcome::Below);
        assert_eq!(memory.recall(101), Outcome::Below);
    }

    #[test]
    fn a_shared_borrow_cannot_record() {
        let mut memory = WindowOutcomes::new(8);
        memory.record(5, Outcome::Screened);
        let mut reader = &memory;
        reader.record(5, Outcome::Below);
        reader.record(6, Outcome::Below);
        assert_eq!(reader.recall(5), Outcome::Screened);
        assert_eq!(reader.recall(6), Outcome::Unknown);
        let mut writer = &mut memory;
        Outcomes::record(&mut writer, 6, Outcome::Below);
        assert_eq!(memory.recall(6), Outcome::Below);
    }

    #[test]
    fn forgetting_is_from_a_minute_on() {
        let mut memory = WindowOutcomes::new(8);
        for minute in 10..16 {
            memory.record(minute, Outcome::Reached(minute as f64));
        }
        memory.forget_from(13);
        assert_eq!(memory.recall(12), Outcome::Reached(12.0));
        for minute in 13..16 {
            assert_eq!(memory.recall(minute), Outcome::Unknown);
        }
        // What is recorded next does not bring the forgotten back.
        memory.record(15, Outcome::Below);
        assert_eq!(memory.recall(13), Outcome::Unknown);
        assert_eq!(memory.recall(14), Outcome::Unknown);
        assert_eq!(memory.recall(15), Outcome::Below);
        // Forgetting from before the span empties it; from past it, nothing.
        memory.forget_from(100);
        assert_eq!(memory.recall(12), Outcome::Reached(12.0));
        memory.forget_from(0);
        assert_eq!(memory.recall(12), Outcome::Unknown);
    }

    #[test]
    fn a_full_score_list_demotes_its_oldest_to_a_candidate() {
        let mut memory = WindowOutcomes::new(64);
        let kept = WindowOutcomes::SCORES_KEPT as u64;
        for minute in 0..=kept {
            memory.record(minute, Outcome::Reached(minute as f64));
        }
        assert_eq!(memory.recall(0), Outcome::Candidate);
        for minute in 1..=kept {
            assert_eq!(memory.recall(minute), Outcome::Reached(minute as f64));
        }
    }

    #[test]
    fn nothing_is_allocated_after_creation() {
        // Both buffers stay where `new` put them, at the size it gave them:
        // a monitor's tick pays for no allocation here, whatever it records.
        let mut memory = WindowOutcomes::new(96);
        let (tags, scores) = (memory.tags.as_ptr(), memory.reached.as_ptr());
        let mut minute = 0u64;
        for step in 0..20_000u64 {
            minute += if step % 997 == 0 { 500 } else { 1 };
            let outcome = match step % 5 {
                0 => Outcome::Screened,
                1 => Outcome::Candidate,
                _ => Outcome::Reached(step as f64),
            };
            memory.record(minute, outcome);
            if step % 7 == 0 {
                memory.record(minute - 1, Outcome::Below);
            }
            if step % 61 == 0 {
                memory.forget_from(minute - 3);
            }
        }
        assert_eq!(memory.tags.as_ptr(), tags);
        assert_eq!(memory.reached.as_ptr(), scores);
        assert_eq!(memory.reached.capacity(), WindowOutcomes::SCORES_KEPT);
    }

    #[test]
    fn the_byte_bound_counts_tags_and_scores() {
        assert_eq!(WindowOutcomes::retained_minutes(96), 128);
        assert_eq!(WindowOutcomes::retained_minutes(0), 1);
        assert_eq!(
            WindowOutcomes::bytes_for(96),
            128 + WindowOutcomes::SCORES_KEPT * 16
        );
    }
}

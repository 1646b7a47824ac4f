//! Change injection: level shifts and ramps (paper Fig. 2).
//!
//! A KPI change in the paper is "a non-transient change (e.g., lasting more
//! than 7 minutes) in a KPI that is introduced by a software change" — either
//! a level shift immediately after the change, or a ramp up/down that ensues
//! gradually. [`InjectedChange`] applies such a perturbation to a series and
//! remembers the onset minute, which the evaluation harness uses as the
//! ground-truth change start for detection-delay measurement (§4.4).

use crate::series::{MinuteBin, TimeSeries};

/// The shape of an injected behaviour change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChangeShape {
    /// Instantaneous shift by `delta` (absolute units), persisting to the end
    /// of the series.
    LevelShift {
        /// Signed magnitude of the shift.
        delta: f64,
    },
    /// Linear ramp from 0 to `delta` over `duration_minutes`, then holding at
    /// `delta`.
    Ramp {
        /// Signed magnitude reached at the end of the ramp.
        delta: f64,
        /// Minutes over which the ramp builds.
        duration_minutes: u32,
    },
    /// Transient spike lasting `duration_minutes`, then returning to normal.
    /// Not a KPI change under the paper's definition (< 7 min of persistence
    /// should be ignored); used to test the persistence rule and MRLS's
    /// spike-sensitivity.
    Spike {
        /// Signed magnitude of the spike.
        delta: f64,
        /// Minutes the spike lasts.
        duration_minutes: u32,
    },
}

impl ChangeShape {
    /// The additive perturbation `offset` minutes after onset.
    pub fn offset_at(&self, minutes_after_onset: u64) -> f64 {
        match *self {
            ChangeShape::LevelShift { delta } => delta,
            ChangeShape::Ramp {
                delta,
                duration_minutes,
            } => {
                if duration_minutes == 0 {
                    return delta;
                }
                let t = minutes_after_onset as f64 / duration_minutes as f64;
                delta * t.min(1.0)
            }
            ChangeShape::Spike {
                delta,
                duration_minutes,
            } => {
                if minutes_after_onset < duration_minutes as u64 {
                    delta
                } else {
                    0.0
                }
            }
        }
    }

    /// Whether this shape is a persistent KPI change under the paper's
    /// definition (level shifts and ramps are; spikes are not).
    pub fn is_persistent(&self) -> bool {
        !matches!(self, ChangeShape::Spike { .. })
    }
}

/// A change applied to a series at a specific onset minute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectedChange {
    /// Absolute minute at which the change starts (the ground-truth change
    /// start `c` of §4.4).
    pub onset: MinuteBin,
    /// Shape of the perturbation.
    pub shape: ChangeShape,
}

impl InjectedChange {
    /// A level shift of `delta` starting at `onset`.
    pub fn level_shift(onset: MinuteBin, delta: f64) -> Self {
        Self {
            onset,
            shape: ChangeShape::LevelShift { delta },
        }
    }

    /// A ramp to `delta` over `duration_minutes` starting at `onset`.
    pub fn ramp(onset: MinuteBin, delta: f64, duration_minutes: u32) -> Self {
        Self {
            onset,
            shape: ChangeShape::Ramp {
                delta,
                duration_minutes,
            },
        }
    }

    /// A transient spike of `delta` for `duration_minutes` starting at
    /// `onset`.
    pub fn spike(onset: MinuteBin, delta: f64, duration_minutes: u32) -> Self {
        Self {
            onset,
            shape: ChangeShape::Spike {
                delta,
                duration_minutes,
            },
        }
    }

    /// Applies the change in place. Values are clamped at zero when
    /// `non_negative` (utilizations/counters cannot go below zero).
    pub fn apply(&self, series: &mut TimeSeries, non_negative: bool) {
        let start = series.start();
        for (i, v) in series.values_mut().iter_mut().enumerate() {
            let bin = start + i as u64;
            if bin >= self.onset {
                *v += self.shape.offset_at(bin - self.onset);
                if non_negative {
                    *v = v.max(0.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(len: usize) -> TimeSeries {
        TimeSeries::new(0, vec![10.0; len])
    }

    #[test]
    fn level_shift_applies_from_onset() {
        let mut s = flat(10);
        InjectedChange::level_shift(4, 5.0).apply(&mut s, true);
        assert_eq!(s.values()[3], 10.0);
        assert_eq!(s.values()[4], 15.0);
        assert_eq!(s.values()[9], 15.0);
    }

    #[test]
    fn ramp_builds_linearly_then_holds() {
        let mut s = flat(12);
        InjectedChange::ramp(2, 8.0, 4).apply(&mut s, true);
        assert_eq!(s.values()[1], 10.0);
        assert_eq!(s.values()[2], 10.0); // t=0 → offset 0
        assert_eq!(s.values()[4], 14.0); // halfway
        assert_eq!(s.values()[6], 18.0); // full
        assert_eq!(s.values()[11], 18.0); // holds
    }

    #[test]
    fn spike_reverts() {
        let mut s = flat(10);
        InjectedChange::spike(3, 4.0, 2).apply(&mut s, true);
        assert_eq!(s.values()[2], 10.0);
        assert_eq!(s.values()[3], 14.0);
        assert_eq!(s.values()[4], 14.0);
        assert_eq!(s.values()[5], 10.0);
    }

    #[test]
    fn negative_shift_clamps_at_zero_when_requested() {
        let mut s = flat(5);
        InjectedChange::level_shift(0, -50.0).apply(&mut s, true);
        assert!(s.values().iter().all(|&v| v == 0.0));
        let mut s2 = flat(5);
        InjectedChange::level_shift(0, -50.0).apply(&mut s2, false);
        assert!(s2.values().iter().all(|&v| v == -40.0));
    }

    #[test]
    fn persistence_classification() {
        assert!(ChangeShape::LevelShift { delta: 1.0 }.is_persistent());
        assert!(ChangeShape::Ramp {
            delta: 1.0,
            duration_minutes: 30
        }
        .is_persistent());
        assert!(!ChangeShape::Spike {
            delta: 1.0,
            duration_minutes: 3
        }
        .is_persistent());
    }

    #[test]
    fn zero_duration_ramp_degenerates_to_level_shift() {
        let shape = ChangeShape::Ramp {
            delta: 3.0,
            duration_minutes: 0,
        };
        assert_eq!(shape.offset_at(0), 3.0);
        assert_eq!(shape.offset_at(100), 3.0);
    }
}

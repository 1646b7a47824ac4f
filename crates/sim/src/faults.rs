//! Deterministic telemetry fault injection.
//!
//! Production telemetry pipelines degrade in well-known ways: agents reboot
//! and lose minutes, the transport delays/reorders/duplicates frames, bytes
//! get truncated or flipped in flight, and sensors glitch. The paper's
//! FUNNEL runs on exactly such a substrate ("there might exist some KPIs of
//! dubious quality", §2.2), so a faithful reproduction must be assessed
//! under those faults — reproducibly.
//!
//! A [`FaultPlan`] declares fault *rates*; a [`FaultSchedule`] derives from
//! it every concrete per-frame and per-record decision as a pure function
//! of `(seed, shard, minute[, record])` via splitmix64 hashing. No RNG
//! state is threaded anywhere, so two runs with the same plan make
//! bit-identical decisions regardless of thread scheduling, and a schedule
//! can be queried out of order or from several threads.

use crate::splitmix64;
use serde::Deserialize;

/// Which slice of the agent fleet a [`PartitionWindow`] darkens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub enum PartitionScope {
    /// One agent shard loses its uplink.
    Shard(usize),
    /// Every shard with `shard % zones == zone` loses its uplink — a
    /// deterministic stand-in for an availability zone going dark.
    Zone {
        /// Which zone is dark.
        zone: usize,
        /// How many zones the fleet is striped across.
        zones: usize,
    },
    /// The whole collector is unreachable: every shard goes dark.
    Collector,
}

impl PartitionScope {
    /// Whether `shard` is inside this scope.
    pub fn covers(&self, shard: usize) -> bool {
        match *self {
            PartitionScope::Shard(s) => shard == s,
            PartitionScope::Zone { zone, zones } => zones > 0 && shard % zones == zone,
            PartitionScope::Collector => true,
        }
    }
}

/// What happens to the frames an agent generates while partitioned, once
/// connectivity returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub enum HealMode {
    /// Agents buffer nothing: every frame generated during the window is
    /// lost forever (agent reboots, ring-buffer-less senders).
    SilentDrop,
    /// Agents buffer up to `queue` frames (oldest evicted beyond that) and
    /// flush the entire backlog the minute connectivity returns — the
    /// thundering-herd heal that floods the collector.
    BufferedBurst {
        /// Agent-side queue bound, in frames.
        queue: usize,
    },
    /// Agents buffer (bounded by `queue`) and, after heal, drain at most
    /// `per_minute` backlog frames per minute alongside the live frame —
    /// the rate-limited catch-up a well-behaved agent performs.
    StaggeredCatchUp {
        /// Agent-side queue bound, in frames.
        queue: usize,
        /// Backlog frames released per post-heal minute.
        per_minute: usize,
    },
}

impl HealMode {
    /// The agent-side queue bound (`usize::MAX` when nothing is buffered —
    /// silent drop never enqueues, so the bound is moot).
    pub fn queue_bound(&self) -> usize {
        match *self {
            HealMode::SilentDrop => 0,
            HealMode::BufferedBurst { queue } => queue,
            HealMode::StaggeredCatchUp { queue, .. } => queue,
        }
    }
}

/// One correlated outage: a contiguous span of minutes during which every
/// shard in `scope` cannot reach the collector, plus the heal behaviour
/// when the span ends. Unlike the independent per-frame channels, a
/// partition takes out *every* frame of the scoped shards for the whole
/// window — the harshest realistic telemetry failure.
#[derive(Debug, Clone, Copy, PartialEq, Deserialize)]
pub struct PartitionWindow {
    /// Which shards go dark.
    pub scope: PartitionScope,
    /// First dark minute (absolute).
    pub start: u64,
    /// Length of the dark span in minutes; the window covers
    /// `[start, start + duration)`.
    pub duration: u64,
    /// What happens to the buffered span on heal.
    pub heal: HealMode,
}

impl PartitionWindow {
    /// Whether `(shard, minute)` is inside the dark span.
    pub fn covers(&self, shard: usize, minute: u64) -> bool {
        self.scope.covers(shard)
            && minute >= self.start
            && minute < self.start.saturating_add(self.duration)
    }

    /// First minute after the dark span (when buffered heals begin).
    pub fn heal_minute(&self) -> u64 {
        self.start.saturating_add(self.duration)
    }

    /// Derives a window whose start and duration are seeded pseudorandomly
    /// inside `[span_start, span_start + span_len)`: start is uniform over
    /// the span (leaving room for the duration), duration uniform in
    /// `[min_duration, max_duration]`. Same seed ⇒ same window, so a
    /// sweep can scatter outages without hand-placing them.
    pub fn seeded(
        seed: u64,
        scope: PartitionScope,
        heal: HealMode,
        span_start: u64,
        span_len: u64,
        min_duration: u64,
        max_duration: u64,
    ) -> Self {
        let lo = min_duration.max(1);
        let hi = max_duration.max(lo);
        let h = splitmix64(seed ^ 0x9A27_71E5_B6C0_4D13);
        let duration = lo + h % (hi - lo + 1);
        let slack = span_len.saturating_sub(duration);
        let start = span_start + if slack > 0 { splitmix64(h) % slack } else { 0 };
        Self {
            scope,
            start,
            duration,
            heal,
        }
    }
}

/// Declarative fault rates for one replay. All fields default to zero /
/// disabled, so `FaultPlan::default()` (= [`FaultPlan::none`]) reproduces
/// the clean path exactly.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct FaultPlan {
    /// Seed for every fault decision; distinct seeds fault different
    /// frames at the same rates.
    #[serde(default)]
    pub seed: u64,
    /// Probability (per agent frame) that the frame is silently dropped
    /// before reaching the collector.
    #[serde(default)]
    pub drop_frame_prob: f64,
    /// Probability (per surviving frame) that delivery is delayed.
    #[serde(default)]
    pub delay_prob: f64,
    /// Maximum delay in minutes for delayed frames (uniform in
    /// `1..=max_delay_minutes`). Delayed frames arrive out of order
    /// relative to the agent's later minutes.
    #[serde(default)]
    pub max_delay_minutes: u64,
    /// Probability (per surviving frame) that the transport delivers one
    /// extra copy.
    #[serde(default)]
    pub duplicate_prob: f64,
    /// Probability (per surviving frame) that the frame is truncated at a
    /// pseudorandom byte offset (such frames never decode).
    #[serde(default)]
    pub truncate_prob: f64,
    /// Probability (per surviving frame) that one payload byte is
    /// corrupted (XORed with a nonzero mask). The frame's checksum no
    /// longer matches, so the collector quarantines it whole.
    #[serde(default)]
    pub corrupt_prob: f64,
    /// Probability (per record) that the sensor glitches, scaling the
    /// measured value by [`FaultPlan::glitch_factor`].
    #[serde(default)]
    pub glitch_prob: f64,
    /// Multiplier applied to glitched measurements (e.g. `100.0` for the
    /// classic stuck-exponent spike). Ignored while `glitch_prob` is zero.
    #[serde(default)]
    pub glitch_factor: f64,
    /// Correlated outage windows (shard / zone / whole-collector scope).
    /// Orthogonal to the per-frame channels above: a frame is taken by a
    /// partition before any per-frame fate is rolled.
    #[serde(default)]
    pub partitions: Vec<PartitionWindow>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            drop_frame_prob: 0.0,
            delay_prob: 0.0,
            max_delay_minutes: 0,
            duplicate_prob: 0.0,
            truncate_prob: 0.0,
            corrupt_prob: 0.0,
            glitch_prob: 0.0,
            glitch_factor: 0.0,
            partitions: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// No faults: the replay is byte-for-byte the clean path.
    pub fn none() -> Self {
        Self::default()
    }

    /// A typical lossy-network profile: `rate` of frames dropped, half of
    /// `rate` corrupted, with everything else clean.
    pub fn lossy(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            drop_frame_prob: rate,
            corrupt_prob: rate * 0.5,
            ..Self::default()
        }
    }

    /// Adds one correlated outage window (builder-style).
    pub fn with_partition(mut self, window: PartitionWindow) -> Self {
        self.partitions.push(window);
        self
    }

    /// Whether every fault channel is disabled.
    pub fn is_none(&self) -> bool {
        self.drop_frame_prob <= 0.0
            && self.delay_prob <= 0.0
            && self.duplicate_prob <= 0.0
            && self.truncate_prob <= 0.0
            && self.corrupt_prob <= 0.0
            && self.glitch_prob <= 0.0
            && self.partitions.is_empty()
    }

    /// Freezes the plan into a queryable schedule.
    pub fn schedule(&self) -> FaultSchedule {
        FaultSchedule { plan: self.clone() }
    }
}

/// What the transport does to one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameFate {
    /// Frame never reaches the collector.
    pub dropped: bool,
    /// Minutes of transit delay (0 = on time).
    pub delay_minutes: u64,
    /// Extra copies delivered (0 = exactly once).
    pub duplicates: u32,
    /// Truncate to this fraction of the encoded length, in `[0, 1)`.
    pub truncate_frac: Option<f64>,
    /// Corrupt one payload byte: (position fraction within the payload
    /// region, nonzero XOR mask).
    pub corrupt: Option<(f64, u8)>,
}

impl FrameFate {
    /// The fate of a frame on a fault-free transport.
    pub fn clean() -> Self {
        Self {
            dropped: false,
            delay_minutes: 0,
            duplicates: 0,
            truncate_frac: None,
            corrupt: None,
        }
    }
}

/// A frozen [`FaultPlan`]: answers "what happens to frame (shard, minute)"
/// and "does record `i` glitch" as pure functions.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    plan: FaultPlan,
}

/// Uniform `[0, 1)` from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultSchedule {
    /// The plan this schedule was frozen from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Independent hash stream per (fault channel, shard, minute).
    fn hash(&self, channel: u64, shard: usize, minute: u64) -> u64 {
        splitmix64(
            self.plan.seed
                ^ splitmix64(channel)
                ^ splitmix64(shard as u64 ^ 0xA5A5_5A5A)
                ^ splitmix64(minute),
        )
    }

    /// The transport's decisions for the frame agent `shard` sends for
    /// `minute`.
    pub fn frame_fate(&self, shard: usize, minute: u64) -> FrameFate {
        let mut fate = FrameFate::clean();
        let p = &self.plan;
        if p.drop_frame_prob > 0.0 && unit(self.hash(1, shard, minute)) < p.drop_frame_prob {
            fate.dropped = true;
            return fate;
        }
        if p.delay_prob > 0.0 && p.max_delay_minutes > 0 {
            let h = self.hash(2, shard, minute);
            if unit(h) < p.delay_prob {
                fate.delay_minutes = 1 + splitmix64(h) % p.max_delay_minutes;
            }
        }
        if p.duplicate_prob > 0.0 && unit(self.hash(3, shard, minute)) < p.duplicate_prob {
            fate.duplicates = 1;
        }
        if p.truncate_prob > 0.0 {
            let h = self.hash(4, shard, minute);
            if unit(h) < p.truncate_prob {
                fate.truncate_frac = Some(unit(splitmix64(h)));
            }
        }
        if p.corrupt_prob > 0.0 {
            let h = self.hash(5, shard, minute);
            if unit(h) < p.corrupt_prob {
                let pos = unit(splitmix64(h));
                let mask = (splitmix64(h ^ 0xC0DE) % 255) as u8 + 1; // never 0
                fate.corrupt = Some((pos, mask));
            }
        }
        fate
    }

    /// Sensor-glitch multiplier for record `index` of frame
    /// (`shard`, `minute`); `None` means the sensor read true.
    pub fn glitch(&self, shard: usize, minute: u64, index: usize) -> Option<f64> {
        let p = &self.plan;
        if p.glitch_prob <= 0.0 {
            return None;
        }
        let h = splitmix64(self.hash(6, shard, minute) ^ splitmix64(index as u64));
        (unit(h) < p.glitch_prob).then_some(p.glitch_factor)
    }

    /// The partition window covering `(shard, minute)`, if any. Windows are
    /// checked in declaration order; the first match wins (overlapping
    /// windows are legal but the earlier declaration governs heal mode).
    pub fn partition_at(&self, shard: usize, minute: u64) -> Option<&PartitionWindow> {
        self.plan
            .partitions
            .iter()
            .find(|w| w.covers(shard, minute))
    }

    /// Whether `shard` is dark at `minute` under any declared partition.
    pub fn is_partitioned(&self, shard: usize, minute: u64) -> bool {
        self.partition_at(shard, minute).is_some()
    }

    /// The reorder horizon the collector must respect: a frame for minute
    /// `m` can arrive as late as the sending agent's minute
    /// `m + horizon`, so per-agent watermarks only prove loss once they
    /// pass `m + horizon`.
    pub fn reorder_horizon(&self) -> u64 {
        if self.plan.delay_prob > 0.0 {
            self.plan.max_delay_minutes
        } else {
            0
        }
    }

    /// Applies [`FrameFate::truncate_frac`] / [`FrameFate::corrupt`] to an
    /// encoded frame, returning the (possibly mangled) bytes. Corruption is
    /// confined to offsets `>= 12` (record count, records, checksum), and
    /// the wire checksum refuses every frame it touches.
    pub fn mangle(&self, fate: &FrameFate, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        if let Some((pos_frac, mask)) = fate.corrupt {
            if out.len() > 12 {
                let span = out.len() - 12;
                let idx = 12 + ((pos_frac * span as f64) as usize).min(span - 1);
                if let Some(slot) = out.get_mut(idx) {
                    *slot ^= mask;
                }
            }
        }
        if let Some(frac) = fate.truncate_frac {
            let keep = ((frac * out.len() as f64) as usize).min(out.len().saturating_sub(1));
            out.truncate(keep);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_frame_prob: 0.1,
            delay_prob: 0.2,
            max_delay_minutes: 3,
            duplicate_prob: 0.1,
            truncate_prob: 0.05,
            corrupt_prob: 0.05,
            glitch_prob: 0.01,
            glitch_factor: 100.0,
            partitions: vec![PartitionWindow {
                scope: PartitionScope::Zone { zone: 1, zones: 2 },
                start: 100,
                duration: 30,
                heal: HealMode::BufferedBurst { queue: 64 },
            }],
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let a = busy_plan(7).schedule();
        let b = busy_plan(7).schedule();
        for shard in 0..4 {
            for minute in 0..500 {
                assert_eq!(a.frame_fate(shard, minute), b.frame_fate(shard, minute));
                for idx in 0..10 {
                    assert_eq!(a.glitch(shard, minute, idx), b.glitch(shard, minute, idx));
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = busy_plan(1).schedule();
        let b = busy_plan(2).schedule();
        let fates_a: Vec<_> = (0..300).map(|m| a.frame_fate(0, m)).collect();
        let fates_b: Vec<_> = (0..300).map(|m| b.frame_fate(0, m)).collect();
        assert_ne!(fates_a, fates_b);
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let s = busy_plan(42).schedule();
        let n = 4000u64;
        let mut dropped = 0;
        let mut delayed = 0;
        let mut duplicated = 0;
        for m in 0..n {
            let f = s.frame_fate(0, m);
            dropped += usize::from(f.dropped);
            delayed += usize::from(f.delay_minutes > 0);
            duplicated += usize::from(f.duplicates > 0);
            if f.delay_minutes > 0 {
                assert!((1..=3).contains(&f.delay_minutes));
            }
        }
        let frac = |c: usize| c as f64 / n as f64;
        assert!(
            (0.07..0.13).contains(&frac(dropped)),
            "drop {}",
            frac(dropped)
        );
        // Delay/duplicate are evaluated on surviving frames only here, so
        // allow generous bands around the nominal 0.2 / 0.1.
        assert!(
            (0.14..0.26).contains(&frac(delayed)),
            "delay {}",
            frac(delayed)
        );
        assert!(
            (0.06..0.14).contains(&frac(duplicated)),
            "dup {}",
            frac(duplicated)
        );
    }

    #[test]
    fn none_plan_is_clean_everywhere() {
        let s = FaultPlan::none().schedule();
        assert!(s.plan().is_none());
        assert_eq!(s.reorder_horizon(), 0);
        for m in 0..200 {
            assert_eq!(s.frame_fate(3, m), FrameFate::clean());
            assert_eq!(s.glitch(3, m, 0), None);
        }
    }

    #[test]
    fn mangle_truncates_and_corrupts() {
        let s = busy_plan(3).schedule();
        let bytes: Vec<u8> = (0..100).collect();

        let trunc = FrameFate {
            truncate_frac: Some(0.5),
            ..FrameFate::clean()
        };
        let out = s.mangle(&trunc, &bytes);
        assert_eq!(out.len(), 50);
        assert_eq!(&out[..], &bytes[..50]);

        let corrupt = FrameFate {
            corrupt: Some((0.0, 0xFF)),
            ..FrameFate::clean()
        };
        let out = s.mangle(&corrupt, &bytes);
        assert_eq!(out.len(), bytes.len());
        // Header (first 12 bytes) untouched.
        assert_eq!(&out[..12], &bytes[..12]);
        let flipped: Vec<usize> = (0..out.len()).filter(|&i| out[i] != bytes[i]).collect();
        assert_eq!(flipped.len(), 1);
        assert!(flipped[0] >= 12);

        let clean = s.mangle(&FrameFate::clean(), &bytes);
        assert_eq!(clean, bytes);
    }

    #[test]
    fn partition_scopes_cover_expected_shards() {
        assert!(PartitionScope::Shard(2).covers(2));
        assert!(!PartitionScope::Shard(2).covers(3));
        let zone = PartitionScope::Zone { zone: 1, zones: 2 };
        assert!(zone.covers(1) && zone.covers(3) && zone.covers(5));
        assert!(!zone.covers(0) && !zone.covers(4));
        assert!(!PartitionScope::Zone { zone: 0, zones: 0 }.covers(0));
        for shard in 0..8 {
            assert!(PartitionScope::Collector.covers(shard));
        }
    }

    #[test]
    fn partition_window_covers_its_span_only() {
        let w = PartitionWindow {
            scope: PartitionScope::Shard(1),
            start: 50,
            duration: 10,
            heal: HealMode::SilentDrop,
        };
        assert!(!w.covers(1, 49));
        assert!(w.covers(1, 50));
        assert!(w.covers(1, 59));
        assert!(!w.covers(1, 60));
        assert!(!w.covers(0, 55));
        assert_eq!(w.heal_minute(), 60);

        let s = FaultPlan {
            partitions: vec![w],
            ..FaultPlan::none()
        }
        .schedule();
        assert!(s.is_partitioned(1, 55));
        assert!(!s.is_partitioned(0, 55));
        assert!(!s.is_partitioned(1, 60));
        assert_eq!(s.partition_at(1, 55), Some(&w));
    }

    #[test]
    fn seeded_window_is_deterministic_and_in_span() {
        let mk = |seed| {
            PartitionWindow::seeded(
                seed,
                PartitionScope::Collector,
                HealMode::SilentDrop,
                1000,
                500,
                15,
                60,
            )
        };
        let a = mk(9);
        assert_eq!(a, mk(9));
        assert_ne!(a, mk(10));
        for seed in 0..50 {
            let w = mk(seed);
            assert!((15..=60).contains(&w.duration), "duration {}", w.duration);
            assert!(w.start >= 1000);
            assert!(w.heal_minute() <= 1500);
        }
    }

    #[test]
    fn partitions_alone_disable_is_none() {
        let plan = FaultPlan::none().with_partition(PartitionWindow {
            scope: PartitionScope::Collector,
            start: 0,
            duration: 5,
            heal: HealMode::SilentDrop,
        });
        assert!(!plan.is_none());
        assert_eq!(plan.schedule().frame_fate(0, 0), FrameFate::clean());
    }

    #[test]
    fn plan_json_parses_with_defaults() {
        // Sparse JSON fills defaults.
        let sparse: FaultPlan =
            serde_json::from_str(r#"{"seed": 5, "drop_frame_prob": 0.25}"#).unwrap();
        assert_eq!(sparse.seed, 5);
        assert_eq!(sparse.drop_frame_prob, 0.25);
        assert_eq!(sparse.max_delay_minutes, 0);
        assert!(sparse.partitions.is_empty());
        // Every partition scope and heal mode reads back its variant.
        let plan: FaultPlan = serde_json::from_str(
            r#"{"partitions": [
                {"scope": {"Zone": {"zone": 1, "zones": 3}}, "start": 10, "duration": 5,
                 "heal": {"StaggeredCatchUp": {"queue": 8, "per_minute": 2}}},
                {"scope": {"Shard": 4}, "start": 0, "duration": 1,
                 "heal": {"BufferedBurst": {"queue": 3}}},
                {"scope": "Collector", "start": 2, "duration": 2, "heal": "SilentDrop"}
            ]}"#,
        )
        .unwrap();
        let window = |scope, start, duration, heal| PartitionWindow {
            scope,
            start,
            duration,
            heal,
        };
        assert_eq!(
            plan.partitions,
            vec![
                window(
                    PartitionScope::Zone { zone: 1, zones: 3 },
                    10,
                    5,
                    HealMode::StaggeredCatchUp {
                        queue: 8,
                        per_minute: 2
                    }
                ),
                window(
                    PartitionScope::Shard(4),
                    0,
                    1,
                    HealMode::BufferedBurst { queue: 3 }
                ),
                window(PartitionScope::Collector, 2, 2, HealMode::SilentDrop),
            ]
        );
    }
}

//! The central metric store.
//!
//! The paper's substrate is "a centralized Hadoop-based database … \[that\]
//! provides a subscription tool for other systems, such as FUNNEL" (§2.2).
//! This in-memory reproduction keeps the database half: every KPI key's
//! dense [`TimeSeries`] and [`CoverageMask`] side by side in one slot of a
//! slab behind a single read–write lock. The push half is not reproduced:
//! a channel that drops on a full buffer would make what a consumer sees
//! depend on thread scheduling, so FUNNEL's streaming engine is offered
//! measurements by its caller instead (`StreamEngine::offer`, fed from a
//! [`crate::LiveFeed`]), and batch assessment reads a [`StoreSnapshot`].
//!
//! Slots are addressed by a dense `KeyId` handed out in arrival order, so
//! a writer that already knows a key's id (the collector, one frame after it
//! first saw the key) appends without walking a map. Arrival order must
//! never reach a reader: ids are not serialised and order nothing;
//! everything a reader can enumerate (`keys()`, `export_entries()`,
//! [`StoreCut`], checkpoints) walks the one key-ordered index.
//!
//! Degradation is first-class: the store records *which* minutes carried a
//! real measurement (the mask — the dense series itself forward-fills gaps
//! and cannot tell a fill from a measurement). What was refused or
//! quarantined on the way in is counted once, by the collector
//! ([`crate::agent::ReplayStats`]).

use crate::kpi::KpiKey;
use funnel_timeseries::mask::CoverageMask;
use funnel_timeseries::series::{MinuteBin, TimeSeries};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One measurement of one key: what a [`crate::LiveFeed`] delivers and
/// `StreamEngine::offer` takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Which KPI.
    pub key: KpiKey,
    /// The minute the measurement covers.
    pub minute: MinuteBin,
    /// The measured value.
    pub value: f64,
}

/// The dense handle of one interned key: its slot's position in the slab.
///
/// An id names the same key for the life of the store — slots are never
/// freed or renumbered, [`MetricStore::restore_entries`] only empties the
/// ones it does not restore — so a writer may index its own per-key state
/// by it. Ids follow arrival order and therefore never leave the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyId(u32);

impl KeyId {
    /// Never handed to a slot: what [`Slab::id_of`] answers once the id
    /// space is exhausted, so further keys are refused instead of aliased.
    const NONE: KeyId = KeyId(u32::MAX);

    /// The id as an index into id-keyed side tables.
    pub(crate) fn as_index(self) -> usize {
        self.0 as usize
    }
}

/// What became of one write ([`Slab::write_id`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StoreWrite {
    /// The bin took the value: staged, appended or filled late.
    Taken,
    /// Refused: the bin already held a real measurement, staged or in its
    /// series — first write wins.
    Measured,
    /// Refused for another reason: an append behind the series end over a
    /// forward fill, a late write before the series anchor, or an id this
    /// store never handed out.
    Refused,
}

/// What a slot holds once its key has data.
#[derive(Debug, Clone)]
struct Held {
    series: TimeSeries,
    mask: CoverageMask,
}

/// One key's storage: the series and the mask of which of its minutes were
/// really measured, written together under the slab's one lock.
#[derive(Debug, Clone)]
struct Slot {
    key: KpiKey,
    /// `None` while the key is interned but not held: never written yet,
    /// or dropped by [`MetricStore::restore_entries`]. Readers treat such
    /// a key as unknown.
    held: Option<Held>,
    /// The lowest minute written since the last cut
    /// ([`MetricStore::cut_since`]): below it the series and the mask are
    /// what that cut saw. [`CLEAN`] when nothing was written since.
    dirty_from: MinuteBin,
    /// The lowest and the highest minute written late since the last seal
    /// ([`Slab::seal`]), whose forward fills [`Slot::settle`] has yet to
    /// bring up to date; `None` in a slot no late write touched since.
    unsettled: Option<(MinuteBin, MinuteBin)>,
}

/// [`Slot::dirty_from`] of a slot no write has touched since the last cut.
const CLEAN: MinuteBin = MinuteBin::MAX;

/// The held data of a slot about to be written at `minute`, created empty
/// and anchored there on the first write; an empty series (a placeholder
/// inserted before any measurement) re-anchors at its first real minute.
fn held_for_write(held: &mut Option<Held>, minute: MinuteBin) -> &mut Held {
    let held = held.get_or_insert_with(|| Held {
        series: TimeSeries::empty(minute),
        mask: CoverageMask::new(minute),
    });
    if held.series.is_empty() {
        held.series = TimeSeries::empty(minute);
    }
    held
}

impl Slot {
    /// Writes `value` at `minute`: the one write every path takes, a live
    /// append (`late == false`) or a late write. Past the series end either
    /// kind grows the series to `minute`, repeating the last value across
    /// any gap, and marks only `minute` itself as measured. Behind the end
    /// a bin that holds a real measurement refuses either kind, first write
    /// wins as in the real store, and so does any bin an append reaches;
    /// such a refusal changes nothing. A late write lands in an unmeasured
    /// bin that does not predate the series anchor. The bin takes the value
    /// at once; the forward-filled bins after it, up to the next real
    /// measurement, take it at the next seal ([`Slot::settle`]), once for
    /// all the late writes to this slot since the last one, so such a write
    /// widens the slot's unsettled span to `minute`. The next minute of a
    /// held key is staged instead ([`Slab::write_id`]).
    fn write(&mut self, minute: MinuteBin, value: f64, late: bool) -> StoreWrite {
        let Held { series, mask } = held_for_write(&mut self.held, minute);
        let end = series.end();
        if minute < end {
            if mask.is_present(minute) {
                return StoreWrite::Measured;
            }
            if !late {
                return StoreWrite::Refused;
            }
        }
        mask.rebase(minute);
        // Lowered before a late write is judged: one refused before the
        // anchor may still have re-anchored an empty mask. Past the end,
        // the gap fill, the value and the mask bits all land at or past
        // where series and mask ended.
        self.dirty_from = self.dirty_from.min(minute).min(end).min(mask.end());
        if minute >= end {
            extend_to(series, minute, value);
        } else {
            if minute < series.start() {
                return StoreWrite::Refused;
            }
            series.set(minute, value);
            self.unsettled = Some(self.unsettled.map_or((minute, minute), |(lo, hi)| {
                (lo.min(minute), hi.max(minute))
            }));
        }
        mask.mark(minute);
        StoreWrite::Taken
    }

    /// The minute this slot's series ends at, if an in-order append may be
    /// staged after it: the key holds data and its mask ends there too.
    fn stage_from(&self) -> Option<MinuteBin> {
        let Held { series, mask } = self.held.as_ref()?;
        let end = series.end();
        (!series.is_empty() && mask.end() == end).then_some(end)
    }

    /// Moves the `n` minutes this slot staged in column `column` of the
    /// open block onto the end of its series and its mask, every one
    /// measured, and lowers the dirty mark to where they land. A slot a
    /// restore emptied drops its run.
    fn seal(&mut self, block: &OpenBlock, column: usize, n: u8) {
        let Some(Held { series, mask }) = &mut self.held else {
            return;
        };
        let end = series.end();
        self.dirty_from = self.dirty_from.min(end);
        let width = block.staged.len();
        let first = (end - block.base) as usize * width + column;
        let n = usize::from(n);
        let mut run = [0.0; BLOCK];
        let cells = block.rows.iter().skip(first).step_by(width.max(1));
        for (to, &value) in run.iter_mut().zip(cells).take(n) {
            *to = value;
        }
        series.extend_from_slice(run.get(..n).unwrap_or_default());
        mask.extend_present(n);
    }

    /// Brings the forward fills of the late writes since the last seal up
    /// to date: from the lowest late minute on, every unmeasured bin takes
    /// the value of the nearest measured bin before it, up to the first
    /// measured bin past the highest late minute. That rule is the
    /// invariant every write path keeps, so the bins come out as a forward
    /// fill after each write would have left them — in one pass, however
    /// many late writes landed. A gap an append filled since, from a value
    /// not yet carried forward, is unmeasured too and lies before the
    /// append's own measured bin, so the pass reaches it.
    fn settle(&mut self) {
        let (Some((lo, hi)), Some(held)) = (self.unsettled.take(), self.held.as_mut()) else {
            return;
        };
        let Held { series, mask } = held;
        let mut carry = None;
        for minute in lo..series.end() {
            if mask.is_present(minute) {
                if minute > hi {
                    break;
                }
                carry = series.at(minute);
            } else if let Some(value) = carry {
                series.set(minute, value);
            }
        }
    }
}

/// Pushes `value` at `minute >= series.end()`, forward-filling the gap with
/// the last value (matching the upstream interpolation the paper's agents
/// perform).
fn extend_to(series: &mut TimeSeries, minute: MinuteBin, value: f64) {
    let last = series.values().last().copied().unwrap_or(value);
    let mut end = series.end();
    while end < minute {
        series.push(last);
        end += 1;
    }
    series.push(value);
}

/// The minutes the open block spans, one row each. A seal of the whole
/// block costs one pass over the slots however many minutes it moves, and
/// fewer rows seal more often: at 8 or 16 a record's commit cost 10 to
/// 40 % more than at 64.
const BLOCK: usize = 64;

/// Where in-order appends land before their series see them: a
/// minute-major table of [`BLOCK`] rows by `width` slots (the length of
/// `staged`), so the keys of one agent's frame, which hold consecutive
/// ids, write consecutive cells of one row. A slot's staged minutes are
/// the run that follows its series' end, each one measured; a seal moves
/// the run into the series with one extension ([`Slot::seal`]).
#[derive(Debug, Clone, Default)]
struct OpenBlock {
    /// Row `r`, column `id`: the value `id` staged for minute `base + r`.
    rows: Vec<f64>,
    /// How many minutes each slot has staged; its length is the width.
    staged: Vec<u8>,
    /// The minute of row 0.
    base: MinuteBin,
    /// Whether a slot may hold staged minutes: cleared only by
    /// [`Slab::seal`], which empties every one.
    open: bool,
}

/// Every slot plus the one ordered index over their keys. A write batch
/// ([`MetricStore::write_batch`]) holds it exclusively: a collector frame,
/// or a single keyed call.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slab {
    slots: Vec<Slot>,
    // BTreeMap, not HashMap: this index is the only source of enumeration
    // order, and report and checkpoint bytes follow it.
    index: BTreeMap<KpiKey, KeyId>,
    /// The slots a late write touched since the last seal, each listed
    /// once, settled by the next ([`Slab::seal`]).
    unsettled: Vec<KeyId>,
    /// The cut the slots' dirty marks count from; `None` before the first
    /// cut and after [`MetricStore::restore_entries`], which drops keys no
    /// mark remembers.
    last_cut: Option<CutId>,
    /// In-order appends not yet in their series; sealed before anything
    /// reads the slots.
    block: OpenBlock,
}

impl Slab {
    /// The id of `key`, assigning the next one on first sight. Interning
    /// alone does not make a key visible to readers.
    pub(crate) fn id_of(&mut self, key: KpiKey) -> KeyId {
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let id = match u32::try_from(self.slots.len()) {
            Ok(n) if n != KeyId::NONE.0 => KeyId(n),
            _ => return KeyId::NONE,
        };
        self.slots.push(Slot {
            key,
            held: None,
            dirty_from: CLEAN,
            unsettled: None,
        });
        self.index.insert(key, id);
        id
    }

    /// Replaces what each entry's key holds, interning new keys.
    fn hold(&mut self, entries: impl IntoIterator<Item = (KpiKey, TimeSeries, CoverageMask)>) {
        self.seal();
        for (key, series, mask) in entries {
            let id = self.id_of(key);
            if let Some(slot) = self.slots.get_mut(id.as_index()) {
                slot.held = Some(Held { series, mask });
                slot.dirty_from = 0;
            }
        }
    }

    /// How many keys are interned: every id handed out indexes below it.
    pub(crate) fn interned(&self) -> usize {
        self.slots.len()
    }

    /// The key `id` names, if this store handed `id` out.
    pub(crate) fn key_of(&self, id: KeyId) -> Option<KpiKey> {
        self.slots.get(id.as_index()).map(|slot| slot.key)
    }

    /// Writes `value` at `id`'s `minute`, a live append or a late write
    /// ([`Slot::write`]), and says what became of it. Either kind tries the
    /// open block first: the next minute of a key that holds data, as a
    /// collector writes nearly every record, is staged — one cell, no gap
    /// to fill, no anchor to move. Any other write seals the slot's staged
    /// run, so a staged bin answers as measured, and writes the slot; a
    /// late write it takes behind the series end is settled by the next
    /// seal.
    pub(crate) fn write_id(
        &mut self,
        id: KeyId,
        minute: MinuteBin,
        value: f64,
        late: bool,
    ) -> StoreWrite {
        let i = id.as_index();
        let Some(slot) = self.slots.get(i) else {
            return StoreWrite::Refused;
        };
        if let Some(end) = slot.stage_from() {
            let staged = self.block.staged.get(i).map_or(0, |&n| u64::from(n));
            if minute == end + staged && self.stage(i, minute, value) {
                return StoreWrite::Taken;
            }
        }
        self.seal_slot(i);
        let Some(slot) = self.slots.get_mut(i) else {
            return StoreWrite::Refused;
        };
        let settled = slot.unsettled.is_none();
        let write = slot.write(minute, value, late);
        if settled && slot.unsettled.is_some() {
            self.unsettled.push(id);
        }
        write
    }

    /// Stages `value` as slot `i`'s minute `minute`, the one after its
    /// staged run. A minute past the block, or a slot the block is too
    /// narrow for, seals everything and opens the block again at `minute`,
    /// as wide as the slab; `false` for a minute before an open block.
    fn stage(&mut self, i: usize, minute: MinuteBin, value: f64) -> bool {
        let block = &self.block;
        let rows = block.base..block.base + BLOCK as u64;
        if i >= block.staged.len() || !rows.contains(&minute) {
            if block.open && minute < block.base {
                return false;
            }
            self.seal();
            self.block.base = minute;
            if i >= self.block.staged.len() {
                let width = self.slots.len();
                self.block.staged.resize(width, 0);
                self.block.rows = vec![0.0; BLOCK * width];
            }
        }
        let block = &mut self.block;
        let at = (minute - block.base) as usize * block.staged.len() + i;
        match (block.rows.get_mut(at), block.staged.get_mut(i)) {
            (Some(cell), Some(n)) => {
                *cell = value;
                *n += 1;
                block.open = true;
                true
            }
            _ => false,
        }
    }

    /// Moves slot `i`'s staged run, if it has one, into its series.
    fn seal_slot(&mut self, i: usize) {
        let n = self.block.staged.get_mut(i).map_or(0, std::mem::take);
        if let (true, Some(slot)) = (n > 0, self.slots.get_mut(i)) {
            slot.seal(&self.block, i, n);
        }
    }

    /// Whether anything written waits for a seal: minutes staged in the
    /// open block, or forward fills behind a late write.
    fn pending(&self) -> bool {
        self.block.open || !self.unsettled.is_empty()
    }

    /// Moves every staged run into its series, closes the block and
    /// settles every slot a late write touched since the last seal, once
    /// each: before any read, cut or `hold`, so nothing pending reaches a
    /// reader.
    fn seal(&mut self) {
        if self.block.open {
            for (i, (slot, &n)) in self.slots.iter_mut().zip(&self.block.staged).enumerate() {
                if n > 0 {
                    slot.seal(&self.block, i, n);
                }
            }
            self.block.staged.fill(0);
            self.block.open = false;
        }
        for id in self.unsettled.drain(..) {
            if let Some(slot) = self.slots.get_mut(id.as_index()) {
                slot.settle();
            }
        }
    }

    fn held(&self, key: &KpiKey) -> Option<&Held> {
        let id = self.index.get(key)?;
        self.slots.get(id.as_index())?.held.as_ref()
    }

    /// Every held key with its series and mask, in key order.
    fn ordered(&self) -> impl Iterator<Item = (KpiKey, &TimeSeries, &CoverageMask)> + Clone {
        self.index.values().filter_map(|id| {
            let slot = self.slots.get(id.as_index())?;
            let held = slot.held.as_ref()?;
            Some((slot.key, &held.series, &held.mask))
        })
    }

    fn held_keys(&self) -> Vec<KpiKey> {
        self.ordered().map(|(key, _, _)| key).collect()
    }

    fn held_count(&self) -> usize {
        self.slots.iter().filter(|s| s.held.is_some()).count()
    }
}

/// The in-memory metric store.
#[derive(Default)]
pub struct MetricStore {
    /// Shared with every live [`StoreSnapshot`]; a writer that finds it
    /// shared copies it first (`Arc::make_mut`), once per write batch.
    slab: RwLock<Arc<Slab>>,
}

impl std::fmt::Debug for MetricStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricStore")
            .field("keys", &self.len())
            .finish()
    }
}

/// Names one cut of one store ([`MetricStore::cut_since`]). Unique within
/// the process and never serialised: it only lets whoever keeps a chain of
/// cuts prove that its newest link is the cut the store last marked clean
/// at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutId(u64);

static NEXT_CUT: AtomicU64 = AtomicU64::new(0);

/// What a cut reads, in place and without copying: the store as it stands
/// and the part of it written since the cut it continues. Every other
/// reader and writer waits while one is alive, and the thread holding it
/// must not touch the same store.
pub struct StoreCut<'a> {
    slab: &'a Slab,
    whole: bool,
}

impl StoreCut<'_> {
    /// Whether this cut continues no earlier one, so that
    /// [`StoreCut::written_since_cut`] is the whole store: the first cut,
    /// the first after a restore, or one whose caller named another cut
    /// than the store's last.
    pub fn is_whole(&self) -> bool {
        self.whole
    }

    /// Every key with its series and coverage mask, in sorted key order —
    /// [`MetricStore::export_entries`] without the clones.
    pub fn entries(&self) -> impl Iterator<Item = (KpiKey, &TimeSeries, &CoverageMask)> + Clone {
        self.slab.ordered()
    }

    /// Every key written since the cut this one continues, in sorted key
    /// order, each with the lowest minute that was (re)written: below it
    /// the series and the mask are what that cut saw, so the values and
    /// mask bits from there on are all a reader of both cuts is missing.
    /// Frontier appends leave that minute where the series ended; a
    /// backfill lowers it into history; a batch insert lowers it to 0.
    pub fn written_since_cut(
        &self,
    ) -> impl Iterator<Item = (KpiKey, MinuteBin, &TimeSeries, &CoverageMask)> + Clone {
        let whole = self.whole;
        self.slab.index.values().filter_map(move |id| {
            let slot = self.slab.slots.get(id.as_index())?;
            let held = slot.held.as_ref()?;
            let from = if whole { 0 } else { slot.dirty_from };
            (from != CLEAN).then_some((slot.key, from, &held.series, &held.mask))
        })
    }
}

impl MetricStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one batch of writes under the store's write lock, on the slab
    /// unshared: the first write after a snapshot that is still alive
    /// copies the slab here, and the snapshot keeps the old one. With no
    /// snapshot alive this is the lock alone. What the batch leaves pending
    /// (staged appends, the forward fills behind late writes) stays so
    /// across batches; a reader seals it ([`MetricStore::read`]).
    pub(crate) fn write_batch<R>(&self, batch: impl FnOnce(&mut Slab) -> R) -> R {
        let mut guard = self.slab.write();
        batch(Arc::make_mut(&mut guard))
    }

    /// Runs `read` on the slab with nothing pending: under the read lock
    /// while nothing is, else under the write lock, once the slab is
    /// sealed — a reader racing a writer waits for it as a write would.
    fn read<R>(&self, read: impl FnOnce(&Arc<Slab>) -> R) -> R {
        let guard = self.slab.read();
        if !guard.pending() {
            return read(&guard);
        }
        drop(guard);
        let mut guard = self.slab.write();
        if guard.pending() {
            Arc::make_mut(&mut guard).seal();
        }
        read(&guard)
    }

    /// Replaces the entire series for `key` (used by batch materialization).
    /// Every minute of the series counts as measured.
    pub fn insert(&self, key: KpiKey, series: TimeSeries) {
        let mask = CoverageMask::all_present(series.start(), series.len());
        self.write_batch(|slab| slab.hold([(key, series, mask)]));
    }

    /// Appends one live measurement, growing the series (gaps are filled by
    /// repeating the last value, matching the upstream interpolation the
    /// paper's agents perform). Only
    /// `minute` itself is marked as measured in the key's coverage mask —
    /// the fill minutes stay visibly synthetic. A late measurement for an
    /// already-filled minute is ignored (first write wins, as in the real
    /// store).
    pub fn append(&self, key: KpiKey, minute: MinuteBin, value: f64) {
        self.write_batch(|w| {
            let id = w.id_of(key);
            w.write_id(id, minute, value, false);
        });
    }

    /// Accepts a *late* measurement for a historical bin — the collector's
    /// backfill path after a network partition heals. The write is accepted
    /// iff the bin does not already hold a real measurement (first write
    /// still wins; forward-fills do not count as writes) and the minute is
    /// not before the series anchor. On acceptance the bin — and any
    /// forward-filled bins after it up to the next real measurement — takes
    /// the late value and the coverage mask gains the minute.
    ///
    /// Returns whether the measurement was accepted.
    pub fn backfill(&self, key: KpiKey, minute: MinuteBin, value: f64) -> bool {
        self.write_batch(|w| {
            let id = w.id_of(key);
            w.write_id(id, minute, value, true) == StoreWrite::Taken
        })
    }

    /// An immutable point-in-time view of every series and coverage mask —
    /// the read handle the parallel assessment engine fans out over.
    ///
    /// Taking one seals what was written since the last read (staged
    /// minutes, the fills behind late writes) into the series, then clones
    /// the `Arc`: the snapshot shares the store's slab,
    /// and the copy is paid by the first write batch that arrives while a
    /// snapshot is still alive — never when nobody writes, and once however
    /// many snapshots were taken in between. Every accessor is lock-free, so N
    /// assessment workers reading the same snapshot never contend with each
    /// other or with live ingestion. Cloning a [`StoreSnapshot`] is O(1)
    /// too. A series and its mask share a slot and a lock, so a
    /// snapshot never observes a written series whose mask still reports
    /// the bin as missing.
    ///
    /// # Example
    ///
    /// ```
    /// use funnel_sim::kpi::{KpiKey, KpiKind};
    /// use funnel_sim::store::MetricStore;
    /// use funnel_topology::impact::Entity;
    /// use funnel_topology::model::ServerId;
    ///
    /// let key = KpiKey::new(Entity::Server(ServerId(0)), KpiKind::CpuUtilization);
    /// let store = MetricStore::new();
    /// store.append(key, 0, 1.0);
    /// let snap = store.snapshot();
    /// store.append(key, 1, 2.0); // lands in the store, not the snapshot
    /// assert_eq!(snap.get(&key).unwrap().len(), 1);
    /// assert_eq!(store.get(&key).unwrap().len(), 2);
    /// ```
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            slab: self.read(Arc::clone),
        }
    }

    /// One checkpoint cut: runs `encode` over the store as it stands, then
    /// marks every key clean, under a single hold of the write lock — no
    /// write can land between what `encode` saw and the mark, so the next
    /// cut's [`StoreCut::written_since_cut`] misses nothing and repeats
    /// nothing. `since` is the [`CutId`] this call returned for the cut the
    /// caller's chain ends in; when it is not the store's last cut (or
    /// there is none) the cut is whole ([`StoreCut::is_whole`]). Marking is
    /// a write: a snapshot alive at the cut costs the slab copy any write
    /// after it would. The cut seals the slab first, which lowers the dirty
    /// marks of the minutes the open block moves.
    pub fn cut_since<R>(
        &self,
        since: Option<CutId>,
        encode: impl FnOnce(&StoreCut<'_>) -> R,
    ) -> (CutId, R) {
        self.write_batch(|slab| {
            slab.seal();
            let whole = since.is_none() || since != slab.last_cut;
            let result = encode(&StoreCut { slab, whole });
            for slot in &mut slab.slots {
                slot.dirty_from = CLEAN;
            }
            let id = CutId(NEXT_CUT.fetch_add(1, Ordering::Relaxed));
            slab.last_cut = Some(id);
            (id, result)
        })
    }

    /// A full copy of the series for `key`.
    pub fn get(&self, key: &KpiKey) -> Option<TimeSeries> {
        self.read(|slab| slab.held(key).map(|h| h.series.clone()))
    }

    /// A copy of the coverage mask for `key`: which minutes hold real
    /// measurements rather than forward-fills.
    pub fn mask(&self, key: &KpiKey) -> Option<CoverageMask> {
        self.read(|slab| slab.held(key).map(|h| h.mask.clone()))
    }

    /// Fraction of `[from, to)` that holds real measurements for `key`
    /// (0 when the key is unknown).
    pub fn coverage(&self, key: &KpiKey, from: MinuteBin, to: MinuteBin) -> f64 {
        self.read(|slab| slab.held(key).map_or(0.0, |h| h.mask.coverage(from, to)))
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.read(|slab| slab.held_count())
    }

    /// Whether the store holds no series.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All keys currently held, in sorted (deterministic) order.
    pub fn keys(&self) -> Vec<KpiKey> {
        self.read(|slab| slab.held_keys())
    }

    /// Deterministic export of every key's series and coverage mask, sorted
    /// by key — the store half of a recovery checkpoint.
    pub fn export_entries(&self) -> Vec<(KpiKey, TimeSeries, CoverageMask)> {
        self.read(|slab| {
            slab.ordered()
                .map(|(key, series, mask)| (key, series.clone(), mask.clone()))
                .collect()
        })
    }

    /// Replaces the store's contents with previously exported entries — the
    /// restore half of a recovery checkpoint.
    pub fn restore_entries(
        &self,
        entries: impl IntoIterator<Item = (KpiKey, TimeSeries, CoverageMask)>,
    ) {
        // `hold` seals, dropping what the emptied slots staged or left to
        // settle.
        self.write_batch(|slab| {
            for slot in &mut slab.slots {
                slot.held = None;
            }
            slab.last_cut = None;
            slab.hold(entries);
        });
    }
}

/// An immutable view of a [`MetricStore`] at one instant, created by
/// [`MetricStore::snapshot`].
///
/// Accessors mirror the store's read API but never touch a lock: the
/// snapshot holds the slab as it was behind an `Arc`, and a later writer
/// copies the slab before touching it. [`StoreSnapshot::held`] lends a
/// key's series and mask in place; `get` and `mask` copy them. This is the
/// view the batch pipeline hands its worker threads — every worker reads
/// the same bytes regardless of scheduling, which is one half of the
/// byte-identical-reports guarantee (the other half is the deterministic
/// merge in `funnel-core`).
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    slab: Arc<Slab>,
}

impl StoreSnapshot {
    /// The series and coverage mask of `key`, read in place: the snapshot
    /// is immutable, so nothing needs copying for as long as it lives.
    pub fn held(&self, key: &KpiKey) -> Option<(&TimeSeries, &CoverageMask)> {
        self.slab.held(key).map(|h| (&h.series, &h.mask))
    }

    /// A full copy of the series for `key`.
    pub fn get(&self, key: &KpiKey) -> Option<TimeSeries> {
        self.held(key).map(|(series, _)| series.clone())
    }

    /// A copy of the coverage mask for `key`.
    pub fn mask(&self, key: &KpiKey) -> Option<CoverageMask> {
        self.held(key).map(|(_, mask)| mask.clone())
    }

    /// Fraction of `[from, to)` that held real measurements for `key` at
    /// snapshot time (0 when the key is unknown).
    pub fn coverage(&self, key: &KpiKey, from: MinuteBin, to: MinuteBin) -> f64 {
        self.slab
            .held(key)
            .map_or(0.0, |h| h.mask.coverage(from, to))
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.slab.held_count()
    }

    /// Whether the snapshot holds no series.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All keys held, in sorted (deterministic) order.
    pub fn keys(&self) -> Vec<KpiKey> {
        self.slab.held_keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kpi::KpiKind;
    use funnel_topology::impact::Entity;
    use funnel_topology::model::ServerId;

    fn key(n: u32) -> KpiKey {
        KpiKey::new(Entity::Server(ServerId(n)), KpiKind::CpuUtilization)
    }

    #[test]
    fn insert_and_range() {
        let store = MetricStore::new();
        store.insert(key(0), TimeSeries::new(10, vec![1.0, 2.0, 3.0]));
        let series = store.get(&key(0)).unwrap();
        assert_eq!(series.slice(11, 13), &[2.0, 3.0]);
        assert_eq!(store.get(&key(1)), None);
        assert_eq!(store.len(), 1);
        // Batch inserts count as fully measured.
        assert_eq!(store.coverage(&key(0), 10, 13), 1.0);
        assert_eq!(store.coverage(&key(1), 0, 5), 0.0);
    }

    #[test]
    fn append_grows_and_fills_gaps() {
        let store = MetricStore::new();
        store.append(key(0), 5, 1.0);
        store.append(key(0), 6, 2.0);
        store.append(key(0), 9, 5.0); // gap at 7, 8 → repeat 2.0
        let s = store.get(&key(0)).unwrap();
        assert_eq!(s.start(), 5);
        assert_eq!(s.values(), &[1.0, 2.0, 2.0, 2.0, 5.0]);
        // Late write ignored.
        store.append(key(0), 6, 99.0);
        assert_eq!(store.get(&key(0)).unwrap().values()[1], 2.0);
    }

    #[test]
    fn mask_tracks_real_measurements_only() {
        let store = MetricStore::new();
        store.append(key(0), 5, 1.0);
        store.append(key(0), 6, 2.0);
        store.append(key(0), 9, 5.0);
        // The series is dense 5..=9, but 7 and 8 are fills.
        let mask = store.mask(&key(0)).unwrap();
        assert!(mask.is_present(5));
        assert!(mask.is_present(6));
        assert!(!mask.is_present(7));
        assert!(!mask.is_present(8));
        assert!(mask.is_present(9));
        assert_eq!(store.coverage(&key(0), 5, 10), 0.6);
    }

    #[test]
    fn backfill_fills_historical_gap_and_refreshes_fills() {
        let store = MetricStore::new();
        store.append(key(0), 5, 1.0);
        store.append(key(0), 9, 4.0); // 6..=8 forward-filled with 1.0
        assert!(store.backfill(key(0), 7, 3.0));
        let s = store.get(&key(0)).unwrap();
        // 6 still fills from minute 5; 7 is real; 8 now re-fills from 7.
        assert_eq!(s.values(), &[1.0, 1.0, 3.0, 3.0, 4.0]);
        let mask = store.mask(&key(0)).unwrap();
        assert!(mask.is_present(7));
        assert!(!mask.is_present(6));
        assert!(!mask.is_present(8));
    }

    #[test]
    fn backfill_is_dup_suppressed_against_real_bins() {
        let store = MetricStore::new();
        store.append(key(0), 5, 1.0);
        store.append(key(0), 8, 2.0);
        // 5 and 8 hold real measurements: first write wins.
        assert!(!store.backfill(key(0), 5, 99.0));
        assert!(!store.backfill(key(0), 8, 99.0));
        // Before the series anchor: nowhere to put it.
        assert!(!store.backfill(key(0), 2, 99.0));
        assert_eq!(store.get(&key(0)).unwrap().values(), &[1.0, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn backfill_past_frontier_extends_like_append() {
        let store = MetricStore::new();
        store.append(key(0), 0, 1.0);
        assert!(store.backfill(key(0), 3, 5.0));
        let s = store.get(&key(0)).unwrap();
        assert_eq!(s.values(), &[1.0, 1.0, 1.0, 5.0]);
        assert!(store.mask(&key(0)).unwrap().is_present(3));
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let store = MetricStore::new();
        store.append(key(0), 0, 1.0);
        store.append(key(0), 3, 4.0); // 1, 2 forward-filled
        let snap = store.snapshot();
        // Later live appends and backfills do not reach the snapshot.
        store.append(key(0), 5, 9.0);
        store.append(key(1), 0, 7.0);
        assert!(store.backfill(key(0), 1, 2.0));
        assert_eq!(snap.len(), 1);
        assert!(snap.get(&key(1)).is_none());
        let s = snap.get(&key(0)).unwrap();
        assert_eq!(s.values(), &[1.0, 1.0, 1.0, 4.0]);
        let mask = snap.mask(&key(0)).unwrap();
        assert!(mask.is_present(0) && mask.is_present(3));
        assert!(!mask.is_present(1) && !mask.is_present(2));
        assert_eq!(snap.coverage(&key(0), 0, 4), 0.5);
        assert_eq!(snap.keys(), vec![key(0)]);
        assert!(!snap.is_empty());
    }

    #[test]
    fn snapshots_share_the_slab_until_someone_writes() {
        let store = MetricStore::new();
        store.append(key(0), 0, 1.0);
        let (a, b) = (store.snapshot(), store.snapshot());
        assert!(Arc::ptr_eq(&a.slab, &b.slab), "no write between: one slab");

        // The first write with a snapshot alive copies; the snapshots keep
        // the old slab, the next snapshot sees the new one.
        store.append(key(0), 1, 2.0);
        let c = store.snapshot();
        assert!(!Arc::ptr_eq(&a.slab, &c.slab));
        assert_eq!(a.get(&key(0)).unwrap().len(), 1);
        assert_eq!(c.get(&key(0)).unwrap().len(), 2);

        // With no snapshot alive a write copies nothing: same allocation.
        let before = Arc::as_ptr(&c.slab);
        drop((a, b, c));
        store.append(key(0), 2, 3.0);
        assert!(store.backfill(key(1), 0, 5.0));
        let d = store.snapshot();
        assert_eq!(Arc::as_ptr(&d.slab), before);
        assert_eq!(d.get(&key(0)).unwrap().len(), 3);
    }

    #[test]
    fn snapshot_matches_store_reads_at_capture_time() {
        let store = MetricStore::new();
        for m in 0..30 {
            store.append(key(0), m, m as f64);
            if m % 3 != 0 {
                store.append(key(1), m, -(m as f64));
            }
        }
        let snap = store.snapshot();
        for k in [key(0), key(1)] {
            assert_eq!(snap.get(&k), store.get(&k), "{k:?}");
            assert_eq!(
                snap.mask(&k).map(|m| m.prefix_counts()),
                store.mask(&k).map(|m| m.prefix_counts()),
                "{k:?}"
            );
        }
        assert_eq!(snap.keys(), store.keys());
        // Clones share the frozen maps.
        let clone = snap.clone();
        assert_eq!(clone.len(), snap.len());
    }

    #[test]
    fn ids_outlive_a_restore_and_interning_alone_shows_nothing() {
        let store = MetricStore::new();
        let (a, b) = store.write_batch(|w| (w.id_of(key(0)), w.id_of(key(1))));
        assert_ne!(a, b);
        assert!(store.is_empty() && store.keys().is_empty());
        assert!(store.get(&key(0)).is_none() && store.snapshot().is_empty());
        assert!(store.export_entries().is_empty());

        store.append(key(1), 0, 1.0);
        store.restore_entries([(
            key(2),
            TimeSeries::new(3, vec![9.0]),
            CoverageMask::all_present(3, 1),
        )]);
        assert_eq!(store.keys(), vec![key(2)]);
        store.write_batch(|w| {
            assert_eq!((w.id_of(key(0)), w.id_of(key(1))), (a, b));
            assert_eq!(w.key_of(b), Some(key(1)));
            // The emptied slot starts over at its next write.
            assert_eq!(w.write_id(b, 5, 2.0, false), StoreWrite::Taken);
            assert_eq!(w.write_id(b, 4, 7.0, false), StoreWrite::Refused);
        });
        let series = store.get(&key(1)).unwrap();
        assert_eq!((series.start(), series.values()), (5, &[2.0][..]));
        assert_eq!(store.keys(), vec![key(1), key(2)]);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn a_snapshot_mid_block_sees_every_staged_minute_and_stays_isolated() {
        let store = MetricStore::new();
        for m in 0..10 {
            store.append(key(0), m, m as f64);
            store.append(key(1), m, -(m as f64));
        }
        assert!(store.slab.read().block.open, "minutes 1..10 are staged");
        let snap = store.snapshot();
        assert!(!store.slab.read().block.open);
        let want: Vec<f64> = (0..10).map(|m| m as f64).collect();
        assert_eq!(snap.get(&key(0)).unwrap().values(), &want[..]);
        assert_eq!(
            snap.mask(&key(1)).unwrap(),
            CoverageMask::all_present(0, 10)
        );
        store.append(key(0), 10, 10.0);
        assert!(store.backfill(key(1), 12, 5.0));
        assert!(store.slab.read().block.open);
        assert_eq!(snap.get(&key(0)).unwrap().len(), 10);
        assert_eq!(snap.get(&key(1)).unwrap().len(), 10);
        assert_eq!(store.get(&key(0)).unwrap().len(), 11);
        assert_eq!(store.coverage(&key(1), 0, 13), 11.0 / 13.0);
    }

    #[test]
    fn a_staged_bin_is_measured_and_its_duplicate_refused() {
        let store = MetricStore::new();
        store.write_batch(|w| {
            let id = w.id_of(key(0));
            assert_eq!(w.write_id(id, 3, 1.0, false), StoreWrite::Taken);
            assert_eq!(w.write_id(id, 4, 2.0, false), StoreWrite::Taken);
            assert_eq!(
                w.block.staged.get(id.as_index()),
                Some(&1),
                "minute 4 is staged"
            );
            // First write wins on both paths, over a staged bin and a
            // sealed one; a bin before the anchor is refused otherwise.
            for late in [false, true] {
                assert_eq!(w.write_id(id, 4, 99.0, late), StoreWrite::Measured);
                assert_eq!(w.write_id(id, 3, 99.0, late), StoreWrite::Measured);
                assert_eq!(w.write_id(id, 2, 99.0, late), StoreWrite::Refused);
            }
        });
        assert_eq!(store.get(&key(0)).unwrap().values(), &[1.0, 2.0]);
        assert_eq!(
            store.mask(&key(0)).unwrap(),
            CoverageMask::all_present(3, 2)
        );
    }

    /// The late write as it was defined before fills were settled in one
    /// pass: the bin, then at once every forward-filled bin after it up to
    /// the next real measurement. The model the batched writes are held to.
    fn fill_late_at_once(slot: &mut Slot, minute: MinuteBin, value: f64) -> StoreWrite {
        let Held { series, mask } = held_for_write(&mut slot.held, minute);
        if mask.is_present(minute) && minute < series.end() {
            return StoreWrite::Measured;
        }
        mask.rebase(minute);
        slot.dirty_from = slot
            .dirty_from
            .min(minute)
            .min(series.end())
            .min(mask.end());
        if minute >= series.end() {
            extend_to(series, minute, value);
        } else {
            if minute < series.start() {
                return StoreWrite::Refused;
            }
            series.set(minute, value);
            let mut m = minute + 1;
            while m < series.end() && !mask.is_present(m) {
                series.set(m, value);
                m += 1;
            }
        }
        mask.mark(minute);
        StoreWrite::Taken
    }

    /// Series start and value bits, mask start and bits.
    type HeldBits = (MinuteBin, Vec<u64>, MinuteBin, Vec<bool>);

    /// What one slot holds, by its bits, and its dirty mark.
    fn slot_bits(slot: &Slot) -> (Option<HeldBits>, MinuteBin) {
        let held = slot.held.as_ref().map(|h| {
            let values = h.series.values().iter().map(|v| v.to_bits()).collect();
            (
                h.series.start(),
                values,
                h.mask.start(),
                h.mask.bits().to_vec(),
            )
        });
        (held, slot.dirty_from)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random appends and late writes over three keys, grouped into
        /// write batches of one to eight, with a cut now and then: every
        /// write is taken or refused, and why, as the per-write model says, and
        /// after every batch each key's series bits, mask bits and dirty
        /// mark are the model's.
        #[test]
        fn batched_late_writes_settle_to_the_per_write_model(seed in any::<u64>()) {
            let mut state = seed | 1;
            let mut next = move |below: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % below
            };
            let store = MetricStore::new();
            let mut model: Vec<Slot> = (0..3)
                .map(|n| Slot { key: key(n), held: None, dirty_from: CLEAN, unsettled: None })
                .collect();
            for _ in 0..12 {
                let batch: Vec<(bool, u32, MinuteBin, f64)> = (0..1 + next(8))
                    .map(|_| {
                        let value = next(1000) as f64 - 500.0;
                        (next(3) == 0, next(3) as u32, 5 + next(60), value)
                    })
                    .collect();
                let outcomes = store.write_batch(|w| {
                    batch
                        .iter()
                        .map(|&(live, n, minute, value)| {
                            let id = w.id_of(key(n));
                            w.write_id(id, minute, value, !live)
                        })
                        .collect::<Vec<StoreWrite>>()
                });
                for (&(live, n, minute, value), got) in batch.iter().zip(outcomes) {
                    let slot = &mut model[n as usize];
                    let want = if live {
                        slot.write(minute, value, false)
                    } else {
                        fill_late_at_once(slot, minute, value)
                    };
                    prop_assert_eq!(got, want);
                }
                if next(4) == 0 {
                    store.cut_since(None, |_| ());
                    for slot in &mut model {
                        slot.dirty_from = CLEAN;
                    }
                }
                let snap = store.snapshot();
                let slab = &snap.slab;
                prop_assert!(slab.unsettled.is_empty());
                for slot in &model {
                    let stored = slab.index.get(&slot.key).map(|id| &slab.slots[id.as_index()]);
                    match stored {
                        Some(stored) => {
                            prop_assert_eq!(slot_bits(stored), slot_bits(slot));
                            prop_assert!(stored.unsettled.is_none());
                        }
                        None => prop_assert!(slot.held.is_none()),
                    }
                }
            }
        }

        /// The open block against the per-write model: up to six keys,
        /// interned as the run goes, over some 300 minutes (five blocks and
        /// more). Each batch writes every key at its next minute (staged),
        /// at the clock (a gap for a key that lags), late into staged,
        /// sealed or filled bins, or not at all; now and then a key is
        /// re-anchored by an empty insert or replaced by a short series,
        /// and the clock jumps past the block. Between batches come reads
        /// (`get`, `mask`, `coverage`, a snapshot of every slot) and cuts.
        /// Every write is taken or refused, and why (a staged bin counts as
        /// measured), as the model says; every read is the model's, and
        /// after a snapshot each slot's bits and dirty mark are.
        #[test]
        fn staged_appends_read_as_the_per_write_model(seed in any::<u64>()) {
            let mut state = seed | 1;
            let mut next = move |below: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % below
            };
            let store = MetricStore::new();
            let mut model: Vec<Slot> = Vec::new();
            let mut clock: MinuteBin = 3 + next(5);
            let mut staged_reads = 0;
            for _ in 0..240 {
                if model.len() < 6 && (model.is_empty() || next(40) == 0) {
                    let n = model.len() as u32;
                    model.push(Slot { key: key(n), held: None, dirty_from: CLEAN, unsettled: None });
                }
                clock += if next(30) == 0 { 10 + next(70) } else { 1 };
                if next(25) == 0 {
                    let at = next(model.len() as u64) as usize;
                    let slot = &mut model[at];
                    let series = if next(2) == 0 {
                        TimeSeries::empty(clock)
                    } else {
                        TimeSeries::new(clock - 3, vec![next(9) as f64; 3])
                    };
                    let mask = CoverageMask::all_present(series.start(), series.len());
                    store.insert(slot.key, series.clone());
                    slot.held = Some(Held { series, mask });
                    slot.dirty_from = 0;
                }
                // Each write is drawn against the model as the batch's
                // writes before it leave it; the store's outcome and the
                // model's, side by side.
                let writes = store.write_batch(|w| {
                    let mut writes = Vec::new();
                    for slot in model.iter_mut() {
                        for _ in 0..1 + next(2) {
                            let end = slot.held.as_ref().map_or(clock, |h| h.series.end());
                            let value = next(1000) as f64 - 500.0;
                            let (live, minute) = match next(10) {
                                0..=5 => (true, end),
                                6 => (true, clock),
                                7 => (false, clock.saturating_sub(next(100))),
                                8 => (true, clock.saturating_sub(next(100))),
                                _ => continue,
                            };
                            let id = w.id_of(slot.key);
                            let got = w.write_id(id, minute, value, !live);
                            let want = if live {
                                slot.write(minute, value, false)
                            } else {
                                fill_late_at_once(slot, minute, value)
                            };
                            writes.push((got, want));
                        }
                    }
                    writes
                });
                for (got, want) in writes {
                    prop_assert_eq!(got, want);
                }
                let open = store.slab.read().block.open;
                let slot = &model[next(model.len() as u64) as usize];
                let held = slot.held.as_ref();
                match next(8) {
                    0 => prop_assert_eq!(store.get(&slot.key), held.map(|h| h.series.clone())),
                    1 => prop_assert_eq!(store.mask(&slot.key), held.map(|h| h.mask.clone())),
                    2 => {
                        let (from, to) = (clock.saturating_sub(next(90)), clock + 1);
                        let want = held.map_or(0.0, |h| h.mask.coverage(from, to));
                        prop_assert_eq!(store.coverage(&slot.key, from, to), want);
                    }
                    3 => {
                        let snap = store.snapshot();
                        for slot in &model {
                            let stored = snap.slab.index.get(&slot.key)
                                .and_then(|id| snap.slab.slots.get(id.as_index()));
                            match stored {
                                Some(stored) => prop_assert_eq!(slot_bits(stored), slot_bits(slot)),
                                None => prop_assert!(slot.held.is_none()),
                            }
                        }
                    }
                    4 => {
                        store.cut_since(None, |_| ());
                        for slot in &mut model {
                            slot.dirty_from = CLEAN;
                        }
                    }
                    _ => continue,
                }
                prop_assert!(!store.slab.read().block.open, "a read or a cut seals");
                staged_reads += usize::from(open);
            }
            prop_assert!(staged_reads > 20, "only {} reads found minutes staged", staged_reads);
        }
    }
}

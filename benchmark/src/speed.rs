//! The machine's speed, measured beside every operation.
//!
//! The benchmark runs on a few cores of a shared host, and the speed of
//! those cores moves by a quarter and more in phases that last from one to
//! forty seconds: a pure register loop slows as much as the workloads do,
//! memory latency moves on its own schedule, and the guest sees no steal
//! time. No statistic of a twenty-second run averages that out. So the
//! harness runs a fixed calibration kernel, the *probe*, right before and
//! right after every timed operation, on as many threads as the program
//! works with, and restates the operation's time at the speed of a
//! reference machine: `time ÷ slowness beside it`. An operation that ran
//! while the machine was a quarter slow is scaled down by that quarter; the
//! ratio of two commits is untouched, because both are scaled by what the
//! same kernel measured.
//!
//! The probe has three parts, because the workloads slow down with all
//! three and no one of them tracked every workload: a dependent chain of
//! register arithmetic (core speed), a pointer chase through cache lines
//! (latency of the cache the cores share) and a sequential read
//! (bandwidth from it). The memory both walk is an arena twice the size of
//! a core's own cache, a sixteenth of it a probe, so what a probe touches
//! was pushed out of the core's cache by the probes since its last visit,
//! whatever the operations in between did, and is still in the shared one.
//! Each part's time is divided by what it takes on an unloaded core of the
//! reference machine; the probe's *slowness* is the geometric mean of the
//! three ratios.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Steps of the register chain.
const CHAIN_STEPS: u64 = 50_000;
/// `u32`s to a 64-byte cache line; a line's first is the link.
const LINE: usize = 16;
/// Cache lines of the arena: 4 MiB, one cycle through all of them.
const ARENA_LINES: usize = 1 << 16;
/// Cache lines to a 4 KiB page.
const PAGE_LINES: usize = 64;
/// Probes to a round of the arena: a probe chases a sixteenth of the
/// cycle and reads another sixteenth (256 KiB) front to back.
const ROUND: usize = 16;

/// What the three parts take, in milliseconds, on a core of the
/// development machine that nothing slows: the second percentile of
/// several thousand probes there. Constants, not the run's own fastest
/// probe: the fastest probe of a run moved by 5% between runs and took
/// every metric with it.
pub const REFERENCE_MS: [f64; 3] = [0.094, 0.21, 0.035];

/// One probe as timed: chain, chase and read, in milliseconds.
pub type Parts = [f64; 3];

/// The memory the chase and the read walk: the lines form one cycle,
/// linked through each line's first `u32`. The cycle takes the pages in
/// random order and the lines of a page in random order, one page after
/// the other: no prefetcher follows it, and it misses the TLB once a page,
/// not once a step (under nested paging a miss costs more than the line).
#[derive(Debug)]
struct Arena(Vec<u32>);

impl Arena {
    fn new() -> Self {
        let mut z = 0x2015u64;
        let mut shuffled = |mut items: Vec<usize>| {
            for i in (1..items.len()).rev() {
                z = crate::stats::mix(z);
                items.swap(i, (z % (i as u64 + 1)) as usize);
            }
            items
        };
        let pages = shuffled((0..ARENA_LINES / PAGE_LINES).collect());
        let order: Vec<usize> = pages
            .into_iter()
            .flat_map(|page| shuffled((page * PAGE_LINES..(page + 1) * PAGE_LINES).collect()))
            .collect();
        let mut cells = vec![0u32; ARENA_LINES * LINE];
        for (i, &line) in order.iter().enumerate() {
            cells[line * LINE] = (order[(i + 1) % ARENA_LINES] * LINE) as u32;
        }
        Self(cells)
    }

    /// A sixteenth of the cycle on from cell `at`; returns where it got to.
    fn chase(&self, mut at: u32) -> u32 {
        for _ in 0..ARENA_LINES / ROUND {
            at = self.0[at as usize];
        }
        at
    }

    /// Sum of sixteenth `slice` of the arena, front to back.
    fn read(&self, slice: usize) -> u64 {
        let len = self.0.len() / ROUND;
        self.0[slice * len..(slice + 1) * len]
            .iter()
            .map(|&x| u64::from(x))
            .sum()
    }
}

/// A dependent chain of splitmix steps: all registers, no memory.
fn chain(steps: u64) -> u64 {
    let mut z = 1u64;
    for i in 0..steps {
        z = (z ^ (z >> 30))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    z
}

/// One thread's side of the probe: where its chase has got to and which
/// slice it reads next.
#[derive(Debug)]
struct Walker {
    arena: Arc<Arena>,
    at: u32,
    slice: usize,
}

impl Walker {
    fn probe(&mut self) -> Parts {
        let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        std::hint::black_box(chain(std::hint::black_box(CHAIN_STEPS)));
        let chain_ms = ms(t0);
        let t0 = Instant::now();
        self.at = self.arena.chase(self.at);
        let chase_ms = ms(t0);
        let t0 = Instant::now();
        std::hint::black_box(self.arena.read(self.slice));
        let read_ms = ms(t0);
        self.slice = (self.slice + 1) % ROUND;
        [chain_ms, chase_ms, read_ms]
    }
}

/// The geometric mean of the parts' ratios to [`REFERENCE_MS`]: 1 on an
/// unloaded reference machine, 1.25 on one a quarter slower.
pub fn slowness(parts: Parts) -> f64 {
    parts
        .iter()
        .zip(REFERENCE_MS)
        .map(|(ms, reference)| ms / reference)
        .product::<f64>()
        .cbrt()
}

/// Runs the probe on `threads` threads at once: the caller's and
/// `threads − 1` helpers that sleep on a channel in between, so that a
/// workload whose operations fan out over workers has the speed of every
/// core it uses measured, not only the caller's.
#[derive(Debug)]
pub struct Prober {
    own: std::cell::RefCell<Walker>,
    helpers: Vec<(Sender<()>, Receiver<Parts>, JoinHandle<()>)>,
}

impl Prober {
    pub fn new(threads: usize) -> Self {
        let arena = Arc::new(Arena::new());
        // Threads share the arena and start at different places in it.
        let walker = |thread: usize| Walker {
            arena: Arc::clone(&arena),
            at: ((thread * ARENA_LINES / threads.max(1)) * LINE) as u32,
            slice: thread % ROUND,
        };
        let helpers = (1..threads)
            .map(|thread| {
                let (go, wait) = channel::<()>();
                let (report, result) = channel::<Parts>();
                let mut walker = walker(thread);
                let handle = std::thread::spawn(move || {
                    while wait.recv().is_ok() {
                        if report.send(walker.probe()).is_err() {
                            break;
                        }
                    }
                });
                (go, result, handle)
            })
            .collect();
        Self {
            own: std::cell::RefCell::new(walker(0)),
            helpers,
        }
    }

    /// One probe, part by part: the mean over the threads that ran it side
    /// by side.
    pub fn probe_parts(&self) -> Parts {
        for (go, _, _) in &self.helpers {
            go.send(()).expect("probe helper alive");
        }
        let mut total = self.own.borrow_mut().probe();
        for (_, result, _) in &self.helpers {
            let parts = result.recv().expect("probe helper alive");
            for (sum, part) in total.iter_mut().zip(parts) {
                *sum += part;
            }
        }
        total.map(|sum| sum / (self.helpers.len() + 1) as f64)
    }

    /// One probe: the machine's [`slowness`] right now.
    pub fn probe(&self) -> f64 {
        slowness(self.probe_parts())
    }
}

impl Drop for Prober {
    fn drop(&mut self) {
        for (go, result, handle) in self.helpers.drain(..) {
            drop((go, result));
            let _ = handle.join();
        }
    }
}

/// Restates `ops` (times in any unit) at reference speed. Operation `i`
/// ran between `probes[i]` and `probes[i + 1]`; the mean of the two is the
/// machine's slowness while it ran.
///
/// # Panics
///
/// Unless there is one probe more than there are operations.
pub fn at_reference_speed(ops: &[f64], probes: &[f64]) -> Vec<f64> {
    assert_eq!(
        probes.len(),
        ops.len() + 1,
        "a probe on either side of every op"
    );
    ops.iter()
        .zip(probes.windows(2))
        .map(|(op, beside)| op / (0.5 * (beside[0] + beside[1])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_speed_scales_by_the_probes_beside_the_op() {
        // Twice as slow on both sides halves the time; a probe at reference
        // speed on both sides leaves it alone.
        let got = at_reference_speed(&[10.0, 10.0, 10.0], &[2.0, 2.0, 1.0, 1.0]);
        assert!((got[0] - 5.0).abs() < 1e-12);
        assert!((got[1] - 10.0 / 1.5).abs() < 1e-12);
        assert!((got[2] - 10.0).abs() < 1e-12);
        assert!(at_reference_speed(&[], &[1.0]).is_empty());
    }

    #[test]
    fn slowness_is_the_geometric_mean_of_the_parts() {
        assert!((slowness(REFERENCE_MS) - 1.0).abs() < 1e-12);
        let [a, b, c] = REFERENCE_MS;
        assert!((slowness([8.0 * a, b, c]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn the_arena_is_one_cycle_through_every_line() {
        let arena = Arena::new();
        let mut seen = vec![false; ARENA_LINES];
        let mut at = 0u32;
        for _ in 0..ROUND {
            at = arena.chase(at);
            assert_eq!(at as usize % LINE, 0);
            assert!(!std::mem::replace(&mut seen[at as usize / LINE], true));
        }
        assert_eq!(at, 0, "back at the start after every line");
        let links: u64 = (0..ROUND).map(|slice| arena.read(slice)).sum();
        assert_eq!(
            links,
            (0..ARENA_LINES as u64).map(|l| l * LINE as u64).sum()
        );
    }

    #[test]
    fn prober_runs_on_every_thread_and_stops() {
        for threads in [1, 3] {
            let prober = Prober::new(threads);
            let s = prober.probe();
            assert!(s > 0.0 && s.is_finite());
            assert_eq!(prober.helpers.len(), threads - 1);
        }
        assert_ne!(chain(10), chain(11));
    }
}

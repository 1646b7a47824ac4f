//! Fleet-scale benchmark of the FUNNEL reproduction: four workloads, five
//! end-to-end metrics each, and a per-layer ledger from a traced run.
//!
//! The harness is the load generator. It builds worlds, frames, fault
//! scripts and feeds from `--seed`, hands the program only those generated
//! inputs, times the program's public functions from outside, and checks
//! every output against a reference. A workload is a fixed sequence of
//! operations repeated in passes; every operation is restated at the speed
//! of a reference machine ([`speed`]) and values come from the passes'
//! [`stats::floor_profile`]. See `README.md` for what each workload and
//! metric means.

pub mod batch;
pub mod fleet;
pub mod ingest;
pub mod metrics;
pub mod speed;
pub mod stats;
pub mod stream;
pub mod trace;

use fleet::{Fleet, FLEET_1K, FLEET_7K};
use metrics::Outcome;
use speed::{at_reference_speed, Prober};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{LayerFloor, Tracer};

/// The four workloads, in the order they are reported.
pub const WORKLOADS: [&str; 4] = ["ingest_clean", "ingest_heal", "batch_fleet", "stream_live"];

/// Input size: `Full` is what `BENCHMARK.json` measures; `Smoke` shrinks
/// the minutes and runs `fleet-1k` everywhere so `cargo test` can drive
/// every code path of the harness in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    /// The fleet of the ingest and batch workloads.
    pub fn big_fleet(self) -> Fleet {
        match self {
            Size::Full => FLEET_7K,
            Size::Smoke => FLEET_1K,
        }
    }
}

/// Threads a fan-out is priced with in the traced run (the
/// `*.parallel.speedup` rows): every core, at most 4.
pub fn fanout_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// Worker threads the program is configured with in the measured passes:
/// one fewer than [`fanout_threads`], at least one. A core is left to the
/// operating system and to whatever else the host runs in the guest; with
/// a worker on every core the passes measure the scheduler too (on the two
/// cores of the development machine `stream_live` spread 7–10% between
/// runs with two workers and 2–5% with one, eight runs apiece).
pub fn threads() -> usize {
    fanout_threads().saturating_sub(1).max(1)
}

/// Tells the allocator to keep freed memory instead of handing it back to
/// the kernel (glibc only; elsewhere nothing happens). Every pass builds
/// and drops a store, every wave a snapshot; returned to the kernel, that
/// memory is given back to the host after two idle seconds (free-page
/// reporting), and touching it again cost 25–160 µs a page on the
/// development machine against 1.5 µs for a page still held — seconds a
/// pass, in phases. A collector that has run for a day holds its heap; so
/// do the passes after the warm-up.
pub fn hold_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // Never trim the heap's top; serve blocks up to 32 MiB (the most
        // glibc allows) from the heap instead of mapping and unmapping.
        // SAFETY: `mallopt` only sets two integers inside the allocator.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}

/// Runs one workload once. `seconds` is the measuring time: of passes in
/// an untraced run, of alternated untraced and traced passes in a traced
/// one.
///
/// # Panics
///
/// On an unknown workload name.
pub fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool, size: Size) -> Outcome {
    hold_freed_memory();
    match name {
        "ingest_clean" => ingest::run(false, seed, seconds, trace, size),
        "ingest_heal" => ingest::run(true, seed, seconds, trace, size),
        "batch_fleet" => batch::run(seed, seconds, trace, size),
        "stream_live" => stream::run(seed, seconds, trace, size),
        other => panic!("unknown workload {other}; one of {WORKLOADS:?}"),
    }
}

/// Where traces and scratch files go: `out/` beside the manifest, inside
/// the checkout the harness was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under [`out_dir`], removed when dropped.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fresh scratch directory for this process and `tag`.
pub fn scratch_dir(tag: &str) -> Scratch {
    let path = out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).expect("create scratch directory under out/");
    Scratch(path)
}

/// Builds the inputs several times and returns the last build with the
/// median build time at reference speed, so one slow allocation does not
/// set `setup_s`: three builds at least, then more while they are cheap
/// (under 2.5 s in all, at most 25). A traced run reports no set-up time
/// and builds once.
pub fn timed_setups<T>(trace: bool, prober: &Prober, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::new();
    let mut probes = vec![prober.probe()];
    let mut built = None;
    loop {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build());
        seconds.push(t0.elapsed().as_secs_f64());
        probes.push(prober.probe());
        let enough = seconds.len() >= 3 && seconds.iter().sum::<f64>() >= 2.5;
        if trace || enough || seconds.len() == 25 {
            break;
        }
    }
    let seconds = at_reference_speed(&seconds, &probes);
    (built.expect("at least one round"), stats::median(&seconds))
}

/// What the passes of every workload have in common.
pub trait PassTimes {
    /// Measured time of the whole pass, in seconds.
    fn wall_s(&self) -> f64;
    /// The pass as its sequence of operation times, in milliseconds.
    fn ops_ms(&self) -> Vec<f64>;
    /// The probe before each operation and the one after the last.
    fn probes(&self) -> &[f64];
}

/// What the passes of an untraced run leave behind.
pub struct Passes<P> {
    /// Per pass, the op times at reference speed.
    pub ms: Vec<Vec<f64>>,
    /// Per pass, the op times as the clock read them.
    pub timed_ms: Vec<Vec<f64>>,
    pub last: P,
}

impl<P> Passes<P> {
    /// "… the fastest of N passes, X s a pass as timed": what every
    /// throughput metric says about where its number came from.
    pub fn describe(&self) -> String {
        let timed_s = stats::floor_profile(&self.timed_ms).iter().sum::<f64>() / 1e3;
        format!(
            "fastest of {} passes at reference speed ({timed_s:.3} s a pass as timed)",
            self.ms.len()
        )
    }
}

/// Samples (operations × passes) a run takes at least, so that the tail of
/// every workload is read at the same level in every run, however slow the
/// machine is that minute: [`stats::tail_level`] wants ten samples beyond
/// p90. No workload is made to run more than [`MOST_FORCED_PASSES`] for it.
const FEWEST_SAMPLES: usize = 100;
const MOST_FORCED_PASSES: usize = 8;

/// Repeats untraced passes for `seconds`, and until [`FEWEST_SAMPLES`] are
/// taken: the op times of each, and the last pass. `run` makes one pass and
/// checks its outputs; its second argument says which kind of pass it is,
/// for mismatch notes.
pub fn untraced_passes<P: PassTimes>(
    seconds: f64,
    mut run: impl FnMut(&mut Tracer, &str) -> P,
) -> Passes<P> {
    let mut budget = PassBudget::new(seconds);
    let (mut ms, mut timed_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut fewest_passes = 1;
    while budget.another() || budget.passes < fewest_passes {
        let pass = run(&mut Tracer::new(false), "pass");
        budget.spent(pass.wall_s());
        let ops = pass.ops_ms();
        fewest_passes = FEWEST_SAMPLES
            .div_ceil(ops.len().max(1))
            .min(MOST_FORCED_PASSES);
        ms.push(at_reference_speed(&ops, pass.probes()));
        timed_ms.push(ops);
        last = Some(pass);
    }
    Passes {
        ms,
        timed_ms,
        last: last.expect("at least one pass"),
    }
}

/// What the passes of a traced run leave behind.
pub struct TracedPasses<P> {
    /// Op times of the untraced passes.
    plain_ms: Vec<Vec<f64>>,
    traced_ms: Vec<Vec<f64>>,
    pub layers: LayerFloor,
    /// The last traced pass and its spans.
    pub last: P,
    pub tracer: Tracer,
}

/// Alternates untraced and traced passes for `seconds`, so that drift in
/// the machine's speed lands on both sides of the overhead.
pub fn traced_passes<P: PassTimes>(
    seconds: f64,
    mut run: impl FnMut(&mut Tracer, &str) -> P,
) -> TracedPasses<P> {
    let mut budget = PassBudget::new(seconds);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut layers = LayerFloor::default();
    let mut last = None;
    while budget.another() {
        let plain = run(&mut Tracer::new(false), "untraced pass");
        let mut tracer = Tracer::new(true);
        let traced = run(&mut tracer, "traced pass");
        budget.spent(plain.wall_s() + traced.wall_s());
        plain_ms.push(plain.ops_ms());
        traced_ms.push(traced.ops_ms());
        layers.absorb(&tracer);
        last = Some((traced, tracer));
    }
    let (last, tracer) = last.expect("at least one pass");
    TracedPasses {
        plain_ms,
        traced_ms,
        layers,
        last,
        tracer,
    }
}

impl<P> TracedPasses<P> {
    /// `obs.trace_overhead_pct`: (traced − untraced) ÷ untraced pass time,
    /// each the sum of its [`stats::floor_profile`].
    pub fn overhead(&self) -> metrics::Metric {
        let plain: f64 = stats::floor_profile(&self.plain_ms).iter().sum();
        let traced: f64 = stats::floor_profile(&self.traced_ms).iter().sum();
        metrics::Metric::new(
            "obs.trace_overhead_pct",
            (traced - plain) / plain * 100.0,
            format!(
                "traced {traced:.1} ms vs untraced {plain:.1} ms a pass, each op's fastest of {} alternated passes",
                self.plain_ms.len()
            ),
        )
    }
}

/// Decides how many passes fit the measuring time: another pass starts
/// while it would end closer to the target than stopping now does.
#[derive(Debug)]
struct PassBudget {
    target_s: f64,
    measured_s: f64,
    passes: usize,
}

impl PassBudget {
    fn new(target_s: f64) -> Self {
        Self {
            target_s,
            measured_s: 0.0,
            passes: 0,
        }
    }

    fn another(&self) -> bool {
        self.passes == 0 || self.measured_s * (1.0 + 0.5 / self.passes as f64) < self.target_s
    }

    fn spent(&mut self, wall_s: f64) {
        self.measured_s += wall_s;
        self.passes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_runs_the_pass_count_closest_to_the_target() {
        let mut b = PassBudget::new(10.0);
        assert!(b.another());
        while b.another() {
            b.spent(3.0);
        }
        // 3 passes = 9 s is closer to 10 s than 4 passes = 12 s.
        assert_eq!(b.passes, 3);
        let mut b = PassBudget::new(10.0);
        while b.another() {
            b.spent(30.0);
        }
        assert_eq!(b.passes, 1);
    }

    #[test]
    fn scratch_directories_are_removed_on_drop() {
        let scratch = scratch_dir("unit");
        let path = scratch.path().to_path_buf();
        std::fs::write(path.join("f"), b"x").unwrap();
        assert!(path.starts_with(out_dir()));
        drop(scratch);
        assert!(!path.exists());
    }
}

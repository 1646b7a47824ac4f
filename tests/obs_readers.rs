//! Every obs name has a reader: a name nobody reads costs a write at every
//! recording site and shows nothing. The readers are the committed
//! `results/` files (`pipeline_health.json` carries the self-monitor's
//! watched series), the `per_layer` rows of `BENCHMARK.json`, the
//! benchmark's sources, the diagnosis inputs, and `pipeline_health`'s
//! timeline and trace exports, which carry every name its healthy run
//! records. A name this test flags loses its recording sites, or gains a
//! reader.

#[path = "../examples/pipeline_health.rs"]
#[expect(
    dead_code,
    reason = "the test runs the healthy act, not the example's main"
)]
mod pipeline_health;

use funnel_suite::obs::names;
use funnel_suite::sim::faults::FaultPlan;
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// The text of every file directly in `dir` whose name `keep` accepts.
fn texts(dir: &Path, keep: impl Fn(&str) -> bool) -> Vec<String> {
    let mut texts = Vec::new();
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_file() && keep(name) {
            texts.push(fs::read_to_string(&path).expect("text file"));
        }
    }
    texts
}

#[test]
fn every_obs_name_has_a_reader() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &str| fs::read_to_string(root.join(path)).expect("repository file");

    // What .gitignore keeps out of results/ (wall-clock outputs, the
    // example's exports among them) is not a committed reader.
    let gitignore = read(".gitignore");
    let ignored: Vec<&str> = gitignore
        .lines()
        .filter_map(|line| line.strip_prefix("results/"))
        .collect();
    let mut readers = texts(&root.join("results"), |name| !ignored.contains(&name));
    let benchmark = read("BENCHMARK.json");
    let per_layer = benchmark
        .split_once("\"per_layer\"")
        .map_or("", |(_, rows)| rows);
    readers.push(per_layer.to_string());
    readers.extend(texts(&root.join("benchmark/src"), |name| {
        name.ends_with(".rs")
    }));
    readers.push(read("crates/diag/src/input.rs"));

    funnel_suite::obs::enable();
    let (world, change) = pipeline_health::build_world();
    let timeline = pipeline_health::instrumented_run(&world, change, FaultPlan::none());
    funnel_suite::obs::disable();
    let exported: BTreeSet<&str> = (timeline.counters.keys().map(|(name, _)| *name))
        .chain(timeline.gauges.keys().map(|(name, _)| *name))
        .chain(timeline.histograms.keys().map(|(name, _)| *name))
        .chain(timeline.spans.keys().map(|(path, _, _)| *path))
        .collect();

    let unread: Vec<&str> = names::ALL
        .iter()
        .map(|name| name.as_str())
        .filter(|name| {
            let quoted = format!("\"{name}\"");
            !exported.contains(name) && !readers.iter().any(|text| text.contains(&quoted))
        })
        .collect();
    assert!(unread.is_empty(), "obs names nothing reads: {unread:?}");
}

//! Command line of the benchmark.
//!
//! ```text
//! funnel-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! funnel-benchmark [--seed <n>] [--seconds <s>]        every workload, untraced then traced
//! funnel-benchmark --selfcheck [--seed <n>] [--seconds <s>]
//! ```
//!
//! The first form is what `BENCHMARK.json` runs: one workload, one result
//! line. The last line of standard output is the JSON result of the last
//! run made; everything above it is for people.

use funnel_benchmark::metrics::{print_table, result_line, Better, Outcome, END_TO_END};
use funnel_benchmark::{fanout_threads, run_workload, threads, Size, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    selfcheck: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2015,
        seconds: 20.0,
        trace: None,
        selfcheck: false,
        size: Size::Full,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--selfcheck" => args.selfcheck = true,
            "--smoke" => args.size = Size::Smoke,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The checked-out commit, read from `.git` beside the benchmark directory
/// ("none" in a checkout that is not a git repository).
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_owned();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map_or_else(|_| reference.to_owned(), |id| id.trim().to_owned()),
        None => head.to_owned(),
    }
}

fn print_provenance(size: Size) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "funnel-benchmark: nproc {nproc}, worker threads {} (fan-out rows {}), {} build, size {size:?}, rustc {}, commit {}",
        threads(),
        fanout_threads(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        env!("BENCH_RUSTC"),
        commit(),
    );
}

fn run_and_print(name: &str, args: &Args, trace: bool) -> Outcome {
    let outcome = run_workload(name, args.seed, args.seconds, trace, args.size);
    print_table(&outcome, trace);
    outcome
}

/// Runs every workload twice and compares each end-to-end metric of the
/// two sets against its bound.
fn selfcheck(args: &Args) -> bool {
    let mut pass = true;
    for name in WORKLOADS {
        let first = run_and_print(name, args, false);
        let second = run_and_print(name, args, false);
        pass &= first.verdicts.failed == 0 && second.verdicts.failed == 0;
        for m in END_TO_END {
            let (a, b) = (
                first.value(m.name).unwrap_or(0.0),
                second.value(m.name).unwrap_or(0.0),
            );
            // Positive = the second run is worse.
            let worse = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let ok = worse.abs() <= m.bound;
            pass &= ok;
            println!(
                "selfcheck {name:<13} {:<14} {a:>14.4} {b:>14.4} {:>+7.2}% against bound {:>3.0}%  {}",
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    pass
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("funnel-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    print_provenance(args.size);
    if cfg!(debug_assertions) && args.size == Size::Full {
        eprintln!("funnel-benchmark: refusing to report metrics from a debug build; use --release");
        return ExitCode::from(2);
    }
    if args.selfcheck {
        return if selfcheck(&args) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let traces: Vec<bool> = match args.trace {
        Some(trace) => vec![trace],
        None => vec![false, true],
    };
    let mut correct = true;
    let mut last = String::new();
    for name in names {
        for &trace in &traces {
            let outcome = run_and_print(name, &args, trace);
            correct &= outcome.verdicts.failed == 0;
            last = result_line(&outcome, trace);
        }
    }
    println!("{last}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

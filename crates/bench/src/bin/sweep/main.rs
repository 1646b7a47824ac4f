//! The contract sweeps: `sweep -- <fault|partition|stream|all>`.
//!
//! Each grid replays seeded worlds, asserts its contracts in-process and
//! writes `results/BENCH_<name>.json`; see `funnel_bench::grid`. Every
//! column is a pure function of `FUNNEL_SEED` (default 2015), so CI runs
//! `all` and diffs the committed tables. Timing lives in `benchmark/`.

mod cohort;
mod fault;
mod partition;
mod stream;

use funnel_bench::grid::run_grid;

fn main() -> std::io::Result<()> {
    let seed = funnel_bench::seed();
    let which = std::env::args().nth(1).unwrap_or_default();
    if !["fault", "partition", "stream", "all"].contains(&which.as_str()) {
        eprintln!("usage: sweep <fault|partition|stream|all>");
        std::process::exit(2);
    }
    let wanted = |name: &str| which == "all" || which == name;
    if wanted("fault") {
        run_grid(&fault::FaultGrid(cohort::Cohort::new(seed)), seed)?;
    }
    if wanted("partition") {
        run_grid(&partition::PartitionGrid(cohort::Cohort::new(seed)), seed)?;
    }
    if wanted("stream") {
        run_grid(&stream::StreamGrid::new(seed), seed)?;
    }
    Ok(())
}

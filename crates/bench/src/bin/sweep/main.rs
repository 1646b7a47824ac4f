//! Every committed table: `sweep -- <name|all>`.
//!
//! The paper's tables and figures (`table1`, `fig5`, `table3`, `fig2`,
//! `fig6`, `fig7`, `ablations`, and `seeds`, which re-reads Table 1 and
//! Table 3 at five seeds) and the three contract sweeps (`fault`,
//! `partition`, `stream`). Each is a `funnel_bench::grid::Grid`: it replays
//! seeded worlds, asserts its contract in-process and writes
//! `results/BENCH_<name>.json`. Every column is a pure function of a seed
//! that is a constant of its grid, and no column reads a clock, so CI runs
//! `all` and diffs `results/`. Timing lives in `table2` and `benchmark/`.

mod ablations;
mod cohort;
mod fault;
mod fig2;
mod fig5;
mod fig6;
mod fig7;
mod partition;
mod seeds;
mod stream;
mod table1;
mod table3;

use funnel_bench::grid::run_grid;
use funnel_bench::SEED;
use funnel_eval::cohort::evaluate_cohort;
use funnel_eval::methods::Method;
use funnel_sim::scenario::{deployment_week, evaluation_world};

const GRIDS: &str = "table1 fig5 table3 fig2 fig6 fig7 ablations seeds partition stream fault";

fn main() -> std::io::Result<()> {
    let which = std::env::args().nth(1).unwrap_or_default();
    if which != "all" && !GRIDS.split(' ').any(|grid| grid == which) {
        eprintln!("usage: sweep <{}|all>", GRIDS.replace(' ', "|"));
        std::process::exit(2);
    }
    let wanted = |name: &str| which == "all" || which == name;
    // No table depends on it; only how long the cohort passes take does.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());

    if wanted("table1") || wanted("fig5") {
        // One cohort pass, two folds.
        let (world, meta) = evaluation_world(SEED);
        let outcomes = evaluate_cohort(&world, &meta, &Method::ALL, workers);
        if wanted("table1") {
            run_grid(&table1::Table1Grid(&outcomes))?;
        }
        if wanted("fig5") {
            run_grid(&fig5::Fig5Grid(&outcomes))?;
        }
    }
    if wanted("table3") {
        let (world, meta) = deployment_week(SEED, table3::CHANGES_PER_DAY);
        run_grid(&table3::Table3Grid(table3::assess_week(
            &world, &meta, workers,
        )))?;
    }
    if wanted("fig2") {
        run_grid(&fig2::Fig2Grid::new())?;
    }
    if wanted("fig6") {
        run_grid(&fig6::Fig6Grid::new())?;
    }
    if wanted("fig7") {
        run_grid(&fig7::Fig7Grid)?;
    }
    if wanted("ablations") {
        let (world, mut meta) = evaluation_world(ablations::SEED);
        meta.changes.truncate(ablations::CHANGES);
        run_grid(&ablations::AblationGrid::new(&world, &meta, workers))?;
    }
    if wanted("seeds") {
        run_grid(&seeds::SeedsGrid {
            seeds: seeds::SEEDS.to_vec(),
            cohort_changes: usize::MAX,
            changes_per_day: table3::CHANGES_PER_DAY,
            workers,
        })?;
    }
    if wanted("partition") {
        run_grid(&partition::PartitionGrid(cohort::Cohort::new(SEED)))?;
    }
    if wanted("stream") {
        run_grid(&stream::StreamGrid::new(SEED))?;
    }
    // Last: with agent threads truly in parallel its determinism re-run can
    // fire (ROADMAP 4(d)), and a panic here should cost no other table.
    if wanted("fault") {
        run_grid(&fault::FaultGrid(cohort::Cohort::new(SEED)))?;
    }
    Ok(())
}

/// Every paper grid's cells and contract, on cohorts truncated until a
/// dev-profile `cargo test` can afford them, and Table 3 at full size
/// against its committed file; `sweep -- all` in CI is the full-size run of
/// the rest. The three contract sweeps have no smaller form.
#[cfg(test)]
mod tests {
    use super::*;
    use funnel_bench::grid::{check, render};

    #[test]
    fn table1_and_fig5_hold_on_a_truncated_cohort() {
        let (world, mut meta) = evaluation_world(SEED);
        meta.changes.truncate(2);
        let outcomes = evaluate_cohort(&world, &meta, &Method::ALL, 2);
        check(&table1::Table1Grid(&outcomes));
        check(&fig5::Fig5Grid(&outcomes));
    }

    /// Full size, against the committed bytes: a week costs seconds, so
    /// Tier-1 sees a Table 3 drift before CI's sweep does.
    #[test]
    fn table3_renders_the_committed_file() {
        let (world, meta) = deployment_week(SEED, table3::CHANGES_PER_DAY);
        let week = table3::assess_week(&world, &meta, 2);
        let (_, envelope) = render(&table3::Table3Grid(week));
        let committed = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/BENCH_table3.json");
        let committed = std::fs::read_to_string(committed).expect("the committed table");
        assert_eq!(envelope, committed);
    }

    #[test]
    fn the_case_study_figures_hold() {
        check(&fig2::Fig2Grid::new());
        check(&fig6::Fig6Grid::new());
        check(&fig7::Fig7Grid);
    }

    #[test]
    fn ablations_hold_on_a_truncated_cohort() {
        let (world, mut meta) = evaluation_world(ablations::SEED);
        meta.changes.truncate(1);
        check(&ablations::AblationGrid::new(&world, &meta, 2));
    }

    #[test]
    fn seeds_hold_on_two_seeds_of_truncated_cohorts() {
        let (_, fields) = check(&seeds::SeedsGrid {
            seeds: seeds::SEEDS[..2].to_vec(),
            cohort_changes: 8,
            changes_per_day: 6,
            workers: 2,
        });
        let (_, stats) = fields
            .iter()
            .find(|(k, _)| *k == "over_seeds")
            .expect("set");
        serde_json::from_str::<serde::Value>(stats).expect("the hand-built field parses");
    }
}

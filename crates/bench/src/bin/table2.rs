//! Table 2 — comparison of computational time.
//!
//! The one paper table that *is* a clock reading: it prints and commits no
//! file (every other table is a grid of `sweep`, a pure function of its
//! seed). At fleet size the same two quantities are the benchmark ledger's
//! `sst.score_window.ns` and `detect.run.us_per_item`.
//!
//! Measures each method's single-thread per-window cost on mixed-class KPI
//! windows and projects the number of cores needed to score one million
//! KPIs once per minute (the paper's scalability argument: FUNNEL fits on
//! one 12-core server, CUSUM needs a few cores, MRLS needs thousands).
//!
//! Two prices per method: the full window score (what the paper times), and
//! the detector's effective cost per window — the calibrated runner over
//! the same data, which for FUNNEL skips the Krylov work of every window
//! whose Eq. 11 multiplier already rules out the threshold, and of every
//! remaining window whose run of such candidates is too short for the
//! persistence rule to declare on. The core projection stays on the full
//! score, as in the paper: the worst case.
//!
//! Below the table, what the detector pays on *every* window: FUNNEL's
//! Eq. 11 bound, sliding (series order), rebuilt (no window a successor:
//! series alternating through one sliding state) and by the selections it
//! replaced.
//!
//! Paper reference values (12-core Xeon E5645, C++): FUNNEL 401.8 µs,
//! CUSUM 1.846 ms, MRLS 2.852 s ⇒ 7 / 31 / 47526 cores. Absolute numbers
//! differ on other hardware; the ordering and the orders-of-magnitude gaps
//! are the reproduced shape.

use funnel_eval::methods::Method;
use funnel_eval::timing::{
    cores_for_million_kpis, per_window_display, time_bound, time_detector, time_method,
};

fn main() {
    println!("Table 2: computational time per sliding window (single thread)\n");
    println!(
        "{:<14} {:>16} {:>16} {:>24}",
        "Method", "score/window", "detector/window", "# cores for 1M KPIs/min"
    );

    let budget = |m: Method| match m {
        Method::Mrls => 200, // ms-scale windows
        _ => 5000,           // µs-scale windows
    };

    for method in [Method::Funnel, Method::Cusum, Method::Mrls] {
        let score = time_method(method, budget(method));
        let detector = time_detector(method, budget(method));
        println!(
            "{:<14} {:>16} {:>16} {:>24}",
            method.name(),
            per_window_display(score),
            per_window_display(detector),
            cores_for_million_kpis(score)
        );
    }

    let bound = time_bound(300_000);
    println!(
        "\nFUNNEL's Eq. 11 bound, asked of every window: {:.0} ns sliding, {:.0} ns rebuilt \
         (by selection, as before the segments slid: {:.0} ns)",
        bound.sliding * 1e9,
        bound.rebuilt * 1e9,
        bound.selected * 1e9
    );

    println!("\npaper: FUNNEL 401.8 µs / 7 cores; CUSUM 1.846 ms / 31; MRLS 2.852 s / 47526");
}

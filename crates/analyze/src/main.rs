//! The `funnel-lint` CLI.
//!
//! ```text
//! cargo run -p funnel-analyze -- [--root DIR]
//! ```
//!
//! Exit codes: 0 = no finding, 1 = usage or I/O error, 2 = at least one
//! finding.

use funnel_analyze::lints::REGISTRY;
use funnel_analyze::{analyze, render_human, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
}

fn usage() -> String {
    let mut s = String::from(
        "funnel-lint — FUNNEL's determinism/no-panic static analysis\n\n\
         USAGE: funnel-lint [--root DIR]\n\n\
         Prints every finding and exits 2 if there is one.\n\n\
         LINTS:\n",
    );
    for l in &REGISTRY {
        s.push_str(&format!("  {:<26} {}\n", l.id, l.description));
    }
    s
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = PathBuf::from(it.next().ok_or("--root needs a value")?),
            "--help" | "-h" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}\n\n{}", usage())),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };

    let findings = match analyze(&Workspace::at(&args.root)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: failed to read workspace at {}: {e}",
                args.root.display()
            );
            return ExitCode::from(1);
        }
    };

    print!("{}", render_human(&findings));
    println!("funnel-lint: {} finding(s)", findings.len());
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

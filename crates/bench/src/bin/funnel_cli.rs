//! `funnel-cli` — assess software changes in a scenario file.
//!
//! ```text
//! funnel_cli demo                       # built-in quickstart scenario
//! funnel_cli assess <scenario.json>     # assess every change in a spec
//! funnel_cli assess <scenario.json> --change 0
//! funnel_cli spec-template              # print a starter scenario JSON
//! ```
//!
//! Scenario files are [`funnel_sim::spec::WorldSpec`] JSON; see
//! `spec-template` for the schema by example.

use funnel_core::pipeline::Funnel;
use funnel_core::report;
use funnel_core::FunnelConfig;
use funnel_sim::spec::WorldSpec;

/// The starter scenario `spec-template` prints and `demo` assesses.
const SPEC_TEMPLATE: &str = include_str!("spec_template.json");

fn main() {
    funnel_obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("demo") => demo(),
        Some("assess") => assess(&args[1..]),
        Some("spec-template") => {
            print!("{SPEC_TEMPLATE}");
            0
        }
        _ => {
            eprintln!(
                "usage: funnel_cli <demo | assess <scenario.json> [--change N] \
                 [--history-days D] | spec-template>"
            );
            2
        }
    };
    // FUNNEL_OBS=1 turns any CLI run into a profiled one.
    if let Ok(Some(obs)) = funnel_obs::report::write_default_if_enabled() {
        eprintln!("wrote {}", funnel_obs::report::DEFAULT_PATH);
        eprint!("{}", obs.human_summary());
    }
    std::process::exit(code);
}

fn demo() -> i32 {
    let spec: WorldSpec =
        serde_json::from_str(SPEC_TEMPLATE).expect("the built-in template parses");
    run_spec(&spec, None, 7)
}

fn assess(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("assess: missing scenario path");
        return 2;
    };
    let mut change: Option<usize> = None;
    let mut history_days = 7u32;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--change" => {
                i += 1;
                change = args.get(i).and_then(|s| s.parse().ok());
                if change.is_none() {
                    eprintln!("assess: --change needs an index");
                    return 2;
                }
            }
            "--history-days" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(d) => history_days = d,
                    None => {
                        eprintln!("assess: --history-days needs a number");
                        return 2;
                    }
                }
            }
            other => {
                eprintln!("assess: unknown flag '{other}'");
                return 2;
            }
        }
        i += 1;
    }

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("assess: cannot read {path}: {e}");
            return 1;
        }
    };
    let spec: WorldSpec = match serde_json::from_str(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("assess: invalid scenario JSON: {e}");
            return 1;
        }
    };
    run_spec(&spec, change, history_days)
}

fn run_spec(spec: &WorldSpec, only_change: Option<usize>, history_days: u32) -> i32 {
    let built = match spec.build() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("scenario error: {e}");
            return 1;
        }
    };
    let mut config = FunnelConfig::paper_default();
    config.history_days = history_days;
    let funnel = Funnel::new(config);

    let indices: Vec<usize> = match only_change {
        Some(i) if i < built.changes.len() => vec![i],
        Some(i) => {
            eprintln!("no change #{i}; the scenario has {}", built.changes.len());
            return 1;
        }
        None => (0..built.changes.len()).collect(),
    };

    let mut any_impact = false;
    for i in indices {
        let id = built.changes[i];
        let record = built
            .world
            .change_log()
            .get(id)
            .expect("spec change exists");
        println!(
            "--- change #{i}: \"{}\" on service #{} at minute {} ({:?}) ---",
            record.description, record.service.0, record.minute, record.launch
        );
        match funnel.assess_change(&built.world, id) {
            Ok(a) => {
                any_impact |= a.has_impact();
                print!("{}", report::render(built.world.topology(), &a));
            }
            Err(e) => {
                eprintln!("assessment failed: {e}");
                return 1;
            }
        }
        println!();
    }
    // Exit code mirrors the roll-back decision: 0 = clean, 3 = impact found.
    if any_impact {
        3
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::SPEC_TEMPLATE;
    use funnel_sim::spec::{
        ChangeKindSpec, ChangeSpec, EffectSpec, ScopeSpec, ServiceSpec, WorldSpec,
    };

    #[test]
    fn spec_template_parses_to_the_starter_spec_and_builds() {
        let spec: WorldSpec = serde_json::from_str(SPEC_TEMPLATE).expect("template parses");
        let starter = WorldSpec {
            seed: 42,
            days: 8,
            services: vec![ServiceSpec {
                name: "shop.web".into(),
                instances: 6,
                extra_kinds: vec![],
            }],
            relations: vec![],
            changes: vec![ChangeSpec {
                service: "shop.web".into(),
                kind: ChangeKindSpec::Upgrade,
                targets: 2,
                day: 7,
                minute_of_day: 540,
                description: "shop.web v2.3.1".into(),
                effects: vec![EffectSpec {
                    kpi: "page_view_response_delay".into(),
                    scope: ScopeSpec::TreatedInstances,
                    delta: 80.0,
                    ramp_minutes: 0,
                    delay_minutes: 0,
                }],
            }],
            shocks: vec![],
        };
        assert_eq!(spec, starter);
        let built = spec.build().expect("the template builds a world");
        assert_eq!(built.changes.len(), 1);
    }
}

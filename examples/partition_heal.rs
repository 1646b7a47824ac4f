//! Partition heal: a zone outage during a dark launch, end to end.
//!
//! A genuinely harmful dark launch (+90 ms response delay on 2 of 6 treated
//! instances) goes out — and ten minutes later a network partition cuts one
//! availability zone (half the agent fleet) off from the collector for 45
//! minutes, right across the assessment window. The story in three acts:
//!
//! 1. **Interim report, partition still open.** The coverage masks show one
//!    long contiguous gap, the gap-aware detector refuses change points
//!    bordering it, and the blocked items come back
//!    `Inconclusive { awaiting_backfill: true }` — flagged for repair, not
//!    guessed at.
//! 2. **The partition heals.** The dark zone's agents kept a bounded
//!    backlog and trickle it back (staggered catch-up); frames landing
//!    behind the collector's frontier ride the backfill path into their
//!    original historical minutes.
//! 3. **Re-assessment.** Every awaiting window's coverage crosses the
//!    configured threshold, `Funnel::reassess` re-runs the items against
//!    the healed store, and the interim `INCONCL.` lines upgrade to firm
//!    verdicts — the regression, invisible during the outage, is now
//!    attributed.
//!
//! ```bash
//! cargo run --release --example partition_heal
//! ```

use funnel_suite::core::config::MIN_COVERAGE;
use funnel_suite::core::pipeline::Funnel;
use funnel_suite::core::report;
use funnel_suite::sim::agent::{replay_prefix, replay_with_faults};
use funnel_suite::sim::effect::{ChangeEffect, EffectScope};
use funnel_suite::sim::faults::{FaultPlan, HealMode, PartitionScope, PartitionWindow};
use funnel_suite::sim::kpi::KpiKind;
use funnel_suite::sim::world::{SimConfig, WorldBuilder};
use funnel_suite::sim::MetricStore;
use funnel_suite::topology::change::ChangeKind;

pub fn main() {
    // A one-service world with a harmful dark launch at day 7, 09:00.
    let mut b = WorldBuilder::new(SimConfig::days(31, 8));
    let svc = b.add_service("prod.search", 6).expect("fresh");
    let regression = ChangeEffect::none().with_level_shift(
        KpiKind::PageViewResponseDelay,
        EffectScope::TreatedInstances,
        90.0,
    );
    let t_change = 7 * 1440 + 9 * 60;
    let change = b
        .deploy_change(
            ChangeKind::Upgrade,
            svc,
            2,
            t_change,
            regression,
            "search ranker v6",
        )
        .expect("valid");
    let world = b.build();
    let record = world.change_log().get(change).expect("logged");
    let kinds = |s| world.kinds_of_service(s).to_vec();

    // Zone 1 (half the 4-shard fleet) loses its collector link 10 minutes
    // after the deployment, for 45 minutes. The agents buffer the dark span
    // and trickle it back at 2 frames/minute once the link returns.
    let plan = FaultPlan::none().with_partition(PartitionWindow {
        scope: PartitionScope::Zone { zone: 1, zones: 2 },
        start: t_change + 10,
        duration: 45,
        heal: HealMode::StaggeredCatchUp {
            queue: 64,
            per_minute: 2,
        },
    });
    let funnel = Funnel::paper_default();

    // ── Act 1: the interim report, cut off while the zone is still dark.
    let interim_store = MetricStore::new();
    let cutoff = (t_change + 40) as usize;
    replay_prefix(&world, &interim_store, 4, plan.clone(), cutoff).expect("interim replay");
    let mut assessment = funnel
        .assess_change_with(&interim_store, world.topology(), record, &kinds)
        .expect("interim assessment");

    println!("── interim report (partition open, minute {cutoff}) ──\n");
    println!("{}", report::render(world.topology(), &assessment));

    let awaiting = assessment.awaiting_backfill_items().count();
    println!(
        "{awaiting} item(s) blocked by the unhealed gap await re-assessment; \
         {} attributed so far",
        assessment.caused_items().count()
    );
    // The outage must not be guessed at: awaiting items exist and none of
    // them was attributed or cleared.
    assert!(awaiting > 0, "the open partition blocked nothing?");
    assert!(assessment
        .awaiting_backfill_items()
        .all(|i| !i.verdict.is_caused()));
    // And against the still-dark store, nothing has healed to re-run.
    let topology = world.topology();
    let rerun = funnel.reassess(&mut assessment, &interim_store, topology, record);
    assert_eq!(rerun, Ok(0));

    // ── Act 2: the same schedule to completion — the zone heals and the
    // collector backfills the dark span into its historical minutes.
    let healed_store = MetricStore::new();
    let stats = replay_with_faults(&world, &healed_store, 4, plan).expect("healed replay");
    println!(
        "\n── partition healed ──\n\
         {} buffered frames rode the backfill path ({} records into \
         historical bins, {} frames lost)",
        stats.backfilled_frames, stats.backfilled_records, stats.partition_lost_frames
    );
    assert_eq!(stats.partition_lost_frames, 0, "bounded queue overflowed");

    // ── Act 3: every awaiting window healed past the coverage trigger; the
    // re-run upgrades the interim verdicts in place.
    let upgraded = funnel
        .reassess(&mut assessment, &healed_store, topology, record)
        .expect("re-assessment");

    println!("\n── final report (after re-assessment, {upgraded} upgraded) ──\n");
    println!("{}", report::render(world.topology(), &assessment));

    // The guarantees this example demonstrates:
    // 1. the heal resolved every awaiting item — nothing left in limbo,
    assert_eq!(upgraded, awaiting);
    assert_eq!(assessment.awaiting_backfill_items().count(), 0);
    // 2. the regression hidden behind the outage is now attributed,
    let delay_attributed = assessment
        .caused_items()
        .any(|i| i.key.kind == KpiKind::PageViewResponseDelay);
    assert!(delay_attributed, "the regression was never attributed");
    // 3. and every attribution rests on adequate, healed coverage.
    assert!(assessment
        .caused_items()
        .all(|i| i.quality.coverage >= MIN_COVERAGE));

    println!(
        "the +90ms regression was invisible during the outage, held back instead of \
         guessed, and attributed after the heal."
    );
}

//! The supervised assessment engine: retry, restart, and quarantine around
//! the parallel fan-out.
//!
//! [`parallel`] assumes every work unit either finishes or
//! returns a clean [`FunnelError`]. Production ingest is less polite: a
//! work unit can hit a transient source hiccup, stall past its deadline
//! budget, or turn out to be *poisoned* — an input that makes the
//! assessment code itself fall over, run after run. This module runs the
//! same fan-out (`parallel::assess_units`) with a per-unit supervisor as
//! the function each unit goes through:
//!
//! * **Retry** — failed attempts are re-run up to
//!   [`SupervisorConfig::max_retries`] times, at once: the pipeline never
//!   reads a clock, so there is no wait between attempts to schedule.
//! * **Restart** — a unit that blows its per-attempt deadline budget (a
//!   stall, surfaced by the [`FaultProbe`] in this deterministic setting)
//!   is torn down and restarted, counted separately from plain retries.
//! * **Quarantine** — a unit still failing after the retry budget (or one
//!   whose attempt *panicked* — every attempt runs under
//!   [`std::panic::catch_unwind`]) is quarantined: the supervisor
//!   synthesizes a [`Verdict::Inconclusive`](crate::pipeline::Verdict)
//!   item carrying
//!   [`QualityIssue::SupervisorQuarantined`] instead of aborting the whole
//!   assessment. One poisoned `(entity, kpi)` costs exactly one verdict;
//!   every other item is byte-identical to the fault-free run.
//!
//! Genuine pipeline errors ([`FunnelError`]) are *not* retried: they are
//! deterministic config/topology/data errors, so re-running them is wasted
//! work — they propagate exactly like the unsupervised engine, lowest
//! work-unit index first.
//!
//! Every decision is counted through `funnel-obs`
//! ([`SUPERVISOR_RETRIES`](funnel_obs::names::SUPERVISOR_RETRIES),
//! [`SUPERVISOR_RESTARTS`](funnel_obs::names::SUPERVISOR_RESTARTS),
//! [`SUPERVISOR_QUARANTINED`](funnel_obs::names::SUPERVISOR_QUARANTINED)),
//! once per run, so all three appear in the report even when no fault fires.

use crate::parallel::{self, ControlTable};
use crate::pipeline::{ChangeAssessment, Funnel, FunnelError, ItemAssessment};
use crate::quality::QualityIssue;
use crate::source::KpiSource;
use funnel_obs::names;
use funnel_sim::kpi::{KpiKey, KpiKind};
use funnel_topology::change::SoftwareChange;
use funnel_topology::impact::{identify_impact_set, ImpactSet};
use funnel_topology::model::{ServiceId, Topology};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Supervision policy for one assessment run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Worker threads for the fan-out (clamped like the unsupervised
    /// engine: at least 1, at most one per work unit).
    pub workers: usize,
    /// Re-run budget per work unit *after* the first attempt. `0` means
    /// any failure quarantines immediately.
    pub max_retries: u32,
    /// Kill switch for the chaos harness: abort the run (assessment
    /// withheld, [`SupervisorReport::aborted`] set) once this many work
    /// units have completed. `None` disables it.
    pub abort_after_units: Option<u64>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            max_retries: 3,
            abort_after_units: None,
        }
    }
}

/// A fault injected into one work-unit attempt by a [`FaultProbe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// A transient failure (source hiccup): the attempt fails, a plain
    /// retry follows.
    Transient,
    /// A deadline overrun: the attempt is torn down and restarted, counted
    /// under [`SupervisorReport::restarts`].
    Stall,
}

/// Injects faults into work-unit attempts — the chaos harness's hook into
/// the supervisor.
///
/// The probe is consulted *inside* the per-attempt
/// [`catch_unwind`] boundary, before the real assessment runs. Returning
/// `None` lets the attempt proceed; returning a fault fails it; and a
/// probe that **panics** models a poisoned work unit — the unwind is
/// caught and treated as a crashed attempt, so test probes may `panic!`
/// while the supervisor itself stays panic-free.
pub trait FaultProbe: Sync {
    /// The fault (if any) to inject into `attempt` (0-based) of `key`.
    fn fault(&self, key: &KpiKey, attempt: u32) -> Option<InjectedFault>;
}

/// The fault-free probe: production runs supervise with this.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultProbe for NoFaults {
    fn fault(&self, _key: &KpiKey, _attempt: u32) -> Option<InjectedFault> {
        None
    }
}

/// What the supervisor did while producing (or withholding) an assessment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SupervisorReport {
    /// Attempts re-run after a transient failure or caught panic.
    pub retries: u64,
    /// Attempts restarted after a deadline overrun.
    pub restarts: u64,
    /// Work units downgraded to `Inconclusive` after exhausting the retry
    /// budget, in key order.
    pub quarantined: Vec<KpiKey>,
    /// Whether the run was killed by
    /// [`SupervisorConfig::abort_after_units`] before finishing.
    pub aborted: bool,
}

/// A supervised assessment: the report always exists; the assessment is
/// withheld when the run was aborted mid-flight.
#[derive(Debug, Clone)]
pub struct Supervised {
    /// The merged assessment, `None` when [`SupervisorReport::aborted`].
    pub assessment: Option<ChangeAssessment>,
    /// What the supervisor observed and decided along the way.
    pub report: SupervisorReport,
}

/// One work unit's supervised history: the item it ended with (a clean
/// assessment, possibly after retries, or the synthesized quarantine
/// verdict once the retry budget ran out) and what it took to get there.
struct UnitRun {
    item: ItemAssessment,
    quarantined: bool,
    retries: u64,
    restarts: u64,
}

/// What a single attempt produced, from inside the unwind boundary.
enum Attempt {
    Finished(Result<ItemAssessment, FunnelError>),
    Transient,
    Stalled,
}

/// Runs one work unit under supervision: probe → attempt → retry loop →
/// quarantine. Panics from the attempt (poisoned unit, or a panicking test
/// probe) are caught here and consume a retry like any other failure.
///
/// # Errors
///
/// A genuine pipeline error — deterministic, so returned at once instead
/// of retried.
#[allow(clippy::too_many_arguments)] // mirrors the pipeline's internal plumbing
fn run_unit<S: KpiSource + Sync>(
    funnel: &Funnel,
    source: &S,
    change: &SoftwareChange,
    impact_set: &ImpactSet,
    key: KpiKey,
    table: &ControlTable,
    config: &SupervisorConfig,
    probe: &dyn FaultProbe,
) -> Result<UnitRun, FunnelError> {
    let mut retries = 0u64;
    let mut restarts = 0u64;
    for attempt in 0..=config.max_retries {
        // The probe runs inside the unwind boundary so a panicking probe
        // models a poisoned input crashing the assessment code itself. A
        // panic while a control window is being built leaves that window
        // unbuilt in the shared table — the next unit to need it builds it
        // — and built windows are pure functions of the read-only source,
        // so an entry is at worst absent, never wrong.
        let attempt_result = catch_unwind(AssertUnwindSafe(|| match probe.fault(&key, attempt) {
            Some(InjectedFault::Transient) => Attempt::Transient,
            Some(InjectedFault::Stall) => Attempt::Stalled,
            None => Attempt::Finished(funnel.assess_item(source, change, impact_set, key, table)),
        }));
        match attempt_result {
            Ok(Attempt::Finished(outcome)) => {
                return outcome.map(|item| UnitRun {
                    item,
                    quarantined: false,
                    retries,
                    restarts,
                });
            }
            Ok(Attempt::Transient) => {}
            Ok(Attempt::Stalled) => restarts += 1,
            Err(panic_payload) => drop(panic_payload),
        }
        if attempt < config.max_retries {
            retries += 1;
        }
    }
    Ok(UnitRun {
        item: funnel.unassessed_item(change, key, QualityIssue::SupervisorQuarantined),
        quarantined: true,
        retries,
        restarts,
    })
}

/// Assesses one change under supervision: the same enumerate → fan out →
/// merge shape as [`Funnel::assess_change_with`], with every work unit
/// wrapped in the retry/restart/quarantine loop and the whole run subject
/// to the [`SupervisorConfig::abort_after_units`] kill switch.
///
/// Determinism: for a fixed `(config, probe)` the returned assessment and
/// report are byte-identical for any worker count — results merge through
/// the same key-sorted [`parallel::merge`], quarantine lists come out
/// key-sorted, and counter addition commutes. An *aborted* run's partial tallies
/// do depend on scheduling, which is exactly why the assessment is
/// withheld (`None`) — the chaos harness discards everything but
/// `aborted` from a killed run.
// funnel-lint: root
pub fn supervise_change<S: KpiSource + Sync>(
    funnel: &Funnel,
    source: &S,
    topology: &Topology,
    change: &SoftwareChange,
    service_kinds: &dyn Fn(ServiceId) -> Vec<KpiKind>,
    config: &SupervisorConfig,
    probe: &dyn FaultProbe,
) -> Result<Supervised, FunnelError> {
    // Pin the timeline window to the change minute before the span opens
    // (same choke-point discipline as the unsupervised entry).
    funnel_obs::timeline::set_window(change.minute);
    let span = funnel_obs::span!(names::SPAN_ASSESS_CHANGE);
    let impact_set = identify_impact_set(topology, change)?;
    let work = crate::pipeline::enumerate_work_units(&impact_set, change, service_kinds);
    funnel_obs::timeline_gauge_set(names::WORK_UNITS_TOTAL, change.minute, work.len() as u64);

    // The same fan-out as the unsupervised engine, with the retry loop as
    // the per-unit function. A unit that finds the kill switch thrown
    // declines, which stops its worker and leaves the run short.
    let abort_limit = config.abort_after_units.unwrap_or(u64::MAX);
    let completed = AtomicU64::new(0);
    let runs = parallel::assess_units(&work, config.workers, |key, table| {
        if completed.load(Ordering::Relaxed) >= abort_limit {
            return None;
        }
        let run = run_unit(
            funnel,
            source,
            change,
            &impact_set,
            key,
            table,
            config,
            probe,
        );
        completed.fetch_add(1, Ordering::Relaxed);
        Some(run)
    })?;

    let mut report = SupervisorReport {
        aborted: runs.len() < work.len(),
        ..SupervisorReport::default()
    };
    let mut items: Vec<ItemAssessment> = Vec::with_capacity(runs.len());
    for run in runs {
        report.retries += run.retries;
        report.restarts += run.restarts;
        if run.quarantined {
            report.quarantined.push(run.item.key);
        }
        items.push(run.item);
    }

    funnel_obs::timeline_counter_add(names::SUPERVISOR_RETRIES, change.minute, report.retries);
    funnel_obs::timeline_counter_add(
        names::SUPERVISOR_QUARANTINED,
        change.minute,
        report.quarantined.len() as u64,
    );
    funnel_obs::timeline_counter_add(names::SUPERVISOR_RESTARTS, change.minute, report.restarts);
    drop(span);

    let assessment = (!report.aborted).then(|| ChangeAssessment {
        change: change.id,
        impact_set,
        items: parallel::merge(items),
    });
    Ok(Supervised { assessment, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Verdict;
    use funnel_sim::effect::{ChangeEffect, EffectScope};
    use funnel_sim::world::{SimConfig, World, WorldBuilder};
    use funnel_topology::change::{ChangeId, ChangeKind};

    fn shifted_world(delta: f64) -> (World, ChangeId) {
        let mut b = WorldBuilder::new(SimConfig::days(11, 8));
        let svc = b.add_service("prod.sup", 6).unwrap();
        let effect = ChangeEffect::none().with_level_shift(
            KpiKind::PageViewResponseDelay,
            EffectScope::TreatedInstances,
            delta,
        );
        let id = b
            .deploy_change(ChangeKind::Upgrade, svc, 2, 7 * 1440 + 200, effect, "t")
            .unwrap();
        (b.build(), id)
    }

    fn supervise(
        world: &World,
        change: ChangeId,
        config: &SupervisorConfig,
        probe: &dyn FaultProbe,
    ) -> Supervised {
        let funnel = Funnel::paper_default();
        let record = world.change_log().get(change).unwrap();
        let kinds = |svc| world.kinds_of_service(svc).to_vec();
        supervise_change(
            &funnel,
            world,
            world.topology(),
            record,
            &kinds,
            config,
            probe,
        )
        .unwrap()
    }

    /// A probe that panics on one key: the poisoned-work-unit model.
    struct PoisonKey(KpiKey);

    impl FaultProbe for PoisonKey {
        fn fault(&self, key: &KpiKey, _attempt: u32) -> Option<InjectedFault> {
            assert!(*key != self.0, "injected poison");
            None
        }
    }

    /// A probe that injects `fault` into the first `fails` attempts of one
    /// key, then lets it succeed.
    struct FlakyKey {
        key: KpiKey,
        fails: u32,
        fault: InjectedFault,
    }

    impl FaultProbe for FlakyKey {
        fn fault(&self, key: &KpiKey, attempt: u32) -> Option<InjectedFault> {
            (*key == self.key && attempt < self.fails).then_some(self.fault)
        }
    }

    fn clean_assessment(world: &World, change: ChangeId) -> ChangeAssessment {
        Funnel::paper_default()
            .assess_change(world, change)
            .unwrap()
    }

    #[test]
    fn fault_free_supervision_matches_the_unsupervised_engine() {
        let (world, change) = shifted_world(80.0);
        let clean = clean_assessment(&world, change);
        for workers in [1, 3, 8] {
            let config = SupervisorConfig {
                workers,
                ..SupervisorConfig::default()
            };
            let sup = supervise(&world, change, &config, &NoFaults);
            let assessment = sup.assessment.expect("not aborted");
            assert_eq!(format!("{clean:?}"), format!("{assessment:?}"));
            assert_eq!(sup.report, SupervisorReport::default());
        }
    }

    #[test]
    fn poisoned_unit_is_quarantined_and_everything_else_matches() {
        let (world, change) = shifted_world(80.0);
        let clean = clean_assessment(&world, change);
        let poisoned = clean.items[2].key;
        for workers in [1, 3, 8] {
            let config = SupervisorConfig {
                workers,
                max_retries: 2,
                ..SupervisorConfig::default()
            };
            let sup = supervise(&world, change, &config, &PoisonKey(poisoned));
            let assessment = sup.assessment.expect("not aborted");
            assert_eq!(sup.report.quarantined, vec![poisoned]);
            assert_eq!(sup.report.retries, 2);
            assert_eq!(assessment.items.len(), clean.items.len());
            for (got, want) in assessment.items.iter().zip(&clean.items) {
                assert_eq!(got.key, want.key);
                if got.key == poisoned {
                    assert_eq!(
                        got.verdict,
                        Verdict::Inconclusive {
                            awaiting_backfill: false
                        }
                    );
                    assert!(!got.caused);
                    assert!(got
                        .quality
                        .report
                        .issues
                        .contains(&QualityIssue::SupervisorQuarantined));
                } else {
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "key {:?}", got.key);
                }
            }
        }
    }

    #[test]
    fn transient_faults_retry_to_the_clean_verdict() {
        let (world, change) = shifted_world(80.0);
        let clean = clean_assessment(&world, change);
        let flaky = clean.items[0].key;
        let probe = FlakyKey {
            key: flaky,
            fails: 2,
            fault: InjectedFault::Transient,
        };
        let config = SupervisorConfig {
            workers: 3,
            max_retries: 3,
            ..SupervisorConfig::default()
        };
        let sup = supervise(&world, change, &config, &probe);
        let assessment = sup.assessment.expect("not aborted");
        // The flaky unit recovers: the final report matches the clean run.
        assert_eq!(format!("{clean:?}"), format!("{assessment:?}"));
        assert_eq!(sup.report.retries, 2);
        assert!(sup.report.quarantined.is_empty());
    }

    #[test]
    fn stalls_are_restarted_and_counted_separately() {
        let (world, change) = shifted_world(0.0);
        let clean = clean_assessment(&world, change);
        let stalled = clean.items[1].key;
        let probe = FlakyKey {
            key: stalled,
            fails: 1,
            fault: InjectedFault::Stall,
        };
        let sup = supervise(&world, change, &SupervisorConfig::default(), &probe);
        assert_eq!(sup.report.restarts, 1);
        assert_eq!(sup.report.retries, 1);
        let assessment = sup.assessment.expect("not aborted");
        assert_eq!(format!("{clean:?}"), format!("{assessment:?}"));
    }

    #[test]
    fn abort_after_units_withholds_the_assessment() {
        let (world, change) = shifted_world(0.0);
        for workers in [1, 4] {
            let config = SupervisorConfig {
                workers,
                abort_after_units: Some(2),
                ..SupervisorConfig::default()
            };
            let sup = supervise(&world, change, &config, &NoFaults);
            assert!(sup.report.aborted);
            assert!(sup.assessment.is_none());
        }
    }

    #[test]
    fn exhausted_retries_on_transient_faults_quarantine() {
        let (world, change) = shifted_world(0.0);
        let clean = clean_assessment(&world, change);
        let doomed = clean.items[0].key;
        let probe = FlakyKey {
            key: doomed,
            fails: u32::MAX,
            fault: InjectedFault::Transient,
        };
        let config = SupervisorConfig {
            max_retries: 2,
            ..SupervisorConfig::default()
        };
        let sup = supervise(&world, change, &config, &probe);
        assert_eq!(sup.report.quarantined, vec![doomed]);
        assert_eq!(sup.report.retries, 2);
        let assessment = sup.assessment.expect("not aborted");
        let item = assessment.items.iter().find(|i| i.key == doomed).unwrap();
        assert!(item.verdict.is_inconclusive());
        assert!(!item.verdict.awaiting_backfill());
    }
}

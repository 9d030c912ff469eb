//! The sharded campaign executor.
//!
//! [`run_campaign`] expands a plan into its work list and shards it across
//! a fixed pool of `std::thread` workers: the calling thread and
//! `workers − 1` scoped helpers. Each worker claims the next run off a
//! shared atomic cursor, constructs a **fresh, fully isolated** simulation
//! inside its own thread (kernel state is `Rc`-based and never crosses
//! threads — only the `Send` outcome does), executes it, and keeps the
//! indexed outcome; each worker hands its outcomes back when it is joined.
//! The outcomes are then sorted by work-list index and folded in plan
//! order, so the merged report is identical for any worker count.
//!
//! A run attaches its checkers from the per-process suite table of
//! [`designs::suite_view`], borrowed: no property is copied per run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

use abv_checker::Checker;
use abv_obs::{trace, TraceEvent, Tracer};
use designs::BuiltDesign;
use psl::ClockedProperty;

use crate::plan::{CampaignPlan, CheckerMode, PlanError, RunSpec};
use crate::report::{CampaignReport, RunOutcome};

/// How campaign runs are traced.
///
/// Tracing is per run: each worker attaches a fresh in-memory sink to its
/// freshly built simulation (sinks are `Rc`-based and never cross threads;
/// only the recorded `Send` events do), and the collector merges the
/// per-run traces in work-list order — so the merged trace, like the
/// merged report, is independent of the worker count.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceSettings {
    /// Record trace events (default: off, the no-op path).
    pub enabled: bool,
    /// Omit wall-clock args from run spans, so the merged trace is
    /// byte-identical across worker counts.
    pub deterministic: bool,
}

impl TraceSettings {
    /// Tracing off — the zero-overhead default.
    #[must_use]
    pub fn off() -> TraceSettings {
        TraceSettings::default()
    }

    /// Tracing on, with wall-clock annotations on run spans.
    #[must_use]
    pub fn on() -> TraceSettings {
        TraceSettings {
            enabled: true,
            deterministic: false,
        }
    }

    /// Tracing on with wall-clock fields omitted (reproducible output).
    #[must_use]
    pub fn deterministic() -> TraceSettings {
        TraceSettings {
            enabled: true,
            deterministic: true,
        }
    }
}

/// Executes one run spec in the calling thread: build the design fresh
/// from `(cell, seed)`, attach the cell's checker selection, simulate,
/// finalize.
///
/// # Errors
///
/// [`PlanError::BadCell`] (indexed by the spec's cell) when
/// [`designs::build`] rejects the spec: its design, level and fault (a
/// spec from [`CampaignPlan::run_specs`] of a validated plan never is
/// rejected for those, but the spec's fields are public), or a workload
/// size too large to build; [`PlanError::Attach`] when a property of the
/// cell's selection cannot be attached to the built model.
pub fn execute_run(spec: &RunSpec) -> Result<RunOutcome, PlanError> {
    execute_run_with(spec, TraceSettings::off())
}

/// [`execute_run`] with tracing: when enabled, the run's whole event
/// stream — kernel counters, transaction instants, checker-instance spans
/// and one `run` span covering the simulation — is captured into
/// [`RunOutcome::trace`].
///
/// # Errors
///
/// See [`execute_run`].
pub fn execute_run_with(spec: &RunSpec, settings: TraceSettings) -> Result<RunOutcome, PlanError> {
    let mut built = designs::build(
        spec.spec.design,
        spec.spec.level,
        spec.size,
        spec.seed,
        spec.spec.fault,
    )
    .map_err(|source| PlanError::BadCell {
        index: spec.cell,
        source,
    })?;
    let checkers = spec.spec.checkers;
    let suite = designs::suite_view(
        spec.spec.design,
        spec.spec.level,
        checkers == CheckerMode::ExpectedPassing,
    );
    let props = checkers.slice(suite);
    let sink = settings.enabled.then(|| {
        // Attach before the checkers so their track metadata is recorded.
        let (tracer, sink) = Tracer::memory();
        built.sim.set_tracer(tracer);
        sink
    });
    let checkers = attach_suite(&mut built, props, spec.cell)?;
    let tracer = built.sim.tracer().clone();
    trace!(
        tracer,
        TraceEvent::span_begin("run", 0, 0, 0)
            .with_arg("cell", spec.cell as u64)
            .with_arg("rep", spec.rep as u64)
            .with_arg("seed", format!("{:#018x}", spec.seed))
    );
    let start = Instant::now();
    let stats = built.run();
    let wall = start.elapsed();
    let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
    trace!(tracer, {
        let end = TraceEvent::span_end(0, 0, built.end_ns);
        if settings.deterministic {
            end
        } else {
            end.with_arg("wall_us", wall.as_micros() as u64)
        }
    });
    let trace = sink
        .map(|sink| sink.borrow_mut().take_events())
        .unwrap_or_default();
    Ok(RunOutcome {
        wall,
        stats,
        report,
        trace,
    })
}

/// Attaches one checker per property of cell `cell` to `built`.
fn attach_suite(
    built: &mut BuiltDesign,
    props: &[(String, ClockedProperty)],
    cell: usize,
) -> Result<Vec<Checker>, PlanError> {
    let binding = built.binding();
    Checker::attach_all(&mut built.sim, props, binding).map_err(|(i, source)| PlanError::Attach {
        cell,
        property: props[i].0.clone(),
        source,
    })
}

/// Runs `plan` on `workers` threads (clamped to `1..=total_runs`) and
/// merges the per-run results into a [`CampaignReport`].
///
/// The aggregate — everything except wall-clock fields — is a pure
/// function of the plan: seeds are derived from plan coordinates, work is
/// claimed from an atomic cursor but folded by work-list index, and each
/// run's simulation is freshly constructed inside its worker.
///
/// # Errors
///
/// Returns a [`PlanError`] if the plan fails validation; no work starts.
pub fn run_campaign(plan: &CampaignPlan, workers: usize) -> Result<CampaignReport, PlanError> {
    run_campaign_with(plan, workers, TraceSettings::off())
}

/// [`run_campaign`] with tracing: each worker records its runs' events into
/// per-run in-memory sinks, and the collector merges them in work-list
/// order into [`CampaignReport::trace`] with one trace process (`pid`) per
/// run. With [`TraceSettings::deterministic`], the merged trace is
/// byte-identical for any worker count.
///
/// # Errors
///
/// Returns a [`PlanError`] if the plan fails validation or its work list
/// cannot be allocated; no work starts. Otherwise the first run in plan
/// order that cannot be built (a workload size too large to build) is the
/// campaign's error.
pub fn run_campaign_with(
    plan: &CampaignPlan,
    workers: usize,
    settings: TraceSettings,
) -> Result<CampaignReport, PlanError> {
    plan.validate()?;
    let specs = plan.try_run_specs()?;
    let workers = workers.clamp(1, specs.len());
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();

    // Claims runs until the work list is exhausted. The caller runs this
    // too, so all `workers` threads simulate; outcomes cross threads only
    // at the joins below.
    let claim = || {
        let mut done = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(spec) = specs.get(index) else {
                break done;
            };
            done.push((index, execute_run_with(spec, settings)));
        }
    };
    let mut outcomes = thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mut outcomes = claim();
        for helper in helpers {
            match helper.join() {
                Ok(done) => outcomes.extend(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        outcomes
    });
    // The cursor hands out each index once, and a worker that died re-raises
    // its panic at its join, so sorted by index the outcomes are the work
    // list in order. Validation admits every cell's design, level and
    // fault; a run can still fail on its workload size, and the first such
    // failure in plan order is the campaign's error.
    outcomes.sort_unstable_by_key(|&(index, _)| index);
    let outcomes = outcomes
        .into_iter()
        .map(|(_, outcome)| outcome)
        .collect::<Result<Vec<_>, _>>()?;

    Ok(CampaignReport::assemble(
        plan,
        workers,
        started.elapsed(),
        &specs,
        outcomes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CheckerMode;
    use designs::{AbsLevel, DesignKind, Fault};

    #[test]
    fn invalid_plan_is_rejected_before_work_starts() {
        let err = run_campaign(&CampaignPlan::new("empty"), 4).unwrap_err();
        assert!(matches!(err, PlanError::NoCells));
    }

    #[test]
    fn single_run_campaign_matches_direct_execution() {
        let plan = CampaignPlan::new("one")
            .cell(DesignKind::Des56, AbsLevel::TlmCa, CheckerMode::All)
            .size(6)
            .seed(99);
        let report = run_campaign(&plan, 1).expect("valid plan");
        let direct = execute_run(&plan.run_specs()[0]).expect("buildable");
        assert_eq!(report.cells[0].stats, direct.stats);
        assert_eq!(report.cells[0].report, direct.report);
        assert!(report.all_pass());
    }

    #[test]
    fn workers_share_the_work_and_merge_identically() {
        let plan = CampaignPlan::new("grid")
            .cell(DesignKind::Des56, AbsLevel::Rtl, CheckerMode::First(2))
            .cell(DesignKind::ColorConv, AbsLevel::TlmAt, CheckerMode::All)
            .runs(4)
            .size(5)
            .seed(0xFEED);
        let solo = run_campaign(&plan, 1).expect("valid plan");
        let pooled = run_campaign(&plan, 3).expect("valid plan");
        assert_eq!(solo.deterministic_summary(), pooled.deterministic_summary());
        assert_eq!(pooled.workers, 3);
        assert_eq!(pooled.cells[0].runs, 4);
        assert_eq!(pooled.cells[1].runs, 4);
    }

    #[test]
    fn injected_fault_is_captured_with_its_seed() {
        let plan = CampaignPlan::new("fault")
            .cell_spec(
                crate::plan::CellSpec::new(DesignKind::Des56, AbsLevel::TlmAt, CheckerMode::All)
                    .with_fault(Fault::LatencyShort),
            )
            .runs(2)
            .size(5)
            .seed(0xDEAD);
        let report = run_campaign(&plan, 2).expect("valid plan");
        assert!(!report.all_pass());
        let first = report.cells[0]
            .first_failure
            .as_ref()
            .expect("fault detected");
        assert_eq!(first.rep, 0, "earliest failing repetition wins");
        assert_eq!(first.seed, plan.run_specs()[0].seed);
    }

    #[test]
    fn expected_passing_mode_excludes_review_failures() {
        let cell = |mode| {
            CampaignPlan::new("passing")
                .cell(DesignKind::ColorConv, AbsLevel::TlmAt, mode)
                .size(5)
                .seed(0xBEEF)
        };
        // The full suite carries c9, a review-expected failure at TLM-AT;
        // the expected-passing selection drops it and runs clean.
        let all = run_campaign(&cell(CheckerMode::All), 1).expect("valid plan");
        assert!(!all.all_pass());
        let passing = run_campaign(&cell(CheckerMode::ExpectedPassing), 1).expect("valid plan");
        assert!(passing.all_pass());
    }

    #[test]
    fn unattachable_property_names_its_cell_and_property() {
        let mut built =
            designs::build(DesignKind::Des56, AbsLevel::Rtl, 4, 1, Fault::None).expect("builds");
        let props = vec![(
            "ghost".to_owned(),
            "always no_such_signal @clk_pos".parse().expect("parses"),
        )];
        let err = attach_suite(&mut built, &props, 3).unwrap_err();
        let PlanError::Attach {
            cell,
            property,
            source,
        } = &err
        else {
            panic!("expected an attach error, got {err:?}");
        };
        assert_eq!((*cell, property.as_str()), (3, "ghost"));
        assert!(matches!(source, abv_checker::InstallError::Compile(_)));
        assert_eq!(
            err.to_string(),
            format!("cell 3: property `ghost` cannot be attached: {source}")
        );
        assert!(err.to_string().contains("no_such_signal"), "{err}");
        let chained = std::error::Error::source(&err).expect("carries its cause");
        assert_eq!(chained.to_string(), source.to_string());
    }

    #[test]
    fn first_error_in_plan_order_does_not_depend_on_the_running_thread() {
        // No run of this plan builds, and each cell's error names its own
        // design, so whichever thread claims run 0 — the caller or a
        // helper — the campaign must report cell 0's error.
        let plan = CampaignPlan::new("unbuildable")
            .cell(DesignKind::Fir, AbsLevel::Rtl, CheckerMode::All)
            .cell(DesignKind::Des56, AbsLevel::TlmCa, CheckerMode::None)
            .cell(
                DesignKind::ColorConv,
                AbsLevel::TlmAt,
                CheckerMode::First(3),
            )
            .runs(2)
            .size(usize::MAX);
        let expected = execute_run(&plan.run_specs()[0]).unwrap_err();
        assert!(
            matches!(expected, PlanError::BadCell { index: 0, .. }),
            "{expected:?}"
        );
        for workers in [1, 2, 3] {
            for _ in 0..20 {
                let err = run_campaign(&plan, workers).unwrap_err();
                assert_eq!(
                    format!("{err:?}"),
                    format!("{expected:?}"),
                    "{workers} workers"
                );
            }
        }
    }

    #[test]
    fn empty_checker_selections_run_and_report_no_properties() {
        let plan = CampaignPlan::new("empty suites")
            .cell(DesignKind::Des56, AbsLevel::Rtl, CheckerMode::None)
            .cell(
                DesignKind::ColorConv,
                AbsLevel::TlmCa,
                CheckerMode::First(0),
            )
            .cell(DesignKind::Fir, AbsLevel::TlmAt, CheckerMode::First(0))
            .cell(
                DesignKind::ColorConv,
                AbsLevel::TlmAtBulk,
                CheckerMode::None,
            )
            .runs(2)
            .size(4)
            .seed(0xE0);
        let solo = run_campaign(&plan, 1).expect("valid plan");
        let pooled = run_campaign(&plan, 2).expect("valid plan");
        assert_eq!(solo.deterministic_summary(), pooled.deterministic_summary());
        for cell in &pooled.cells {
            assert_eq!(cell.runs, 2, "{}", cell.spec);
            assert!(cell.report.properties.is_empty(), "{}", cell.spec);
            assert!(cell.first_failure.is_none(), "{}", cell.spec);
            assert!(cell.stats.events_processed > 0, "{} simulated", cell.spec);
        }
        assert!(pooled.all_pass());
        assert_eq!(pooled.total_failures(), 0);
    }

    #[test]
    fn oversized_worker_count_is_clamped() {
        let plan = CampaignPlan::new("clamp")
            .cell(DesignKind::Des56, AbsLevel::TlmAt, CheckerMode::None)
            .size(4);
        let report = run_campaign(&plan, 64).expect("valid plan");
        assert_eq!(report.workers, 1, "1 run cannot use 64 workers");
    }
}

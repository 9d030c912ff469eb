//! Campaign result aggregation.
//!
//! Workers hand back one [`RunOutcome`] per [`RunSpec`]; the engine folds
//! them **in work-list order** into per-cell aggregates, so the merged
//! result is a pure function of the plan — the worker count and scheduling
//! interleavings only affect wall-clock fields. [`CampaignReport::deterministic_summary`]
//! renders exactly the scheduling-independent part, which campaigns use to
//! assert byte-identical results across worker counts.

use std::fmt;
use std::time::Duration;

use abv_checker::{CheckReport, Failure};
use abv_obs::TraceEvent;
use desim::SimStats;

use crate::plan::{CampaignPlan, CellSpec, RunSpec};

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Wall-clock duration of the simulation loop.
    pub wall: Duration,
    /// Kernel counters of this run.
    pub stats: SimStats,
    /// Suite report of this run (empty without checkers).
    pub report: CheckReport,
    /// Recorded trace events (empty unless tracing was enabled via
    /// [`TraceSettings`](crate::TraceSettings)).
    pub trace: Vec<TraceEvent>,
}

/// The earliest failing run of a cell (work-list order) with enough
/// context to reproduce it: the repetition index and its derived seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirstFailure {
    /// Repetition index within the cell.
    pub rep: usize,
    /// The failing run's workload seed.
    pub seed: u64,
    /// Name of the first failing property of that run.
    pub property: String,
    /// Its first recorded violation.
    pub failure: Failure,
}

impl fmt::Display for FirstFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run {} (seed {:#018x}) {}: {}",
            self.rep, self.seed, self.property, self.failure
        )
    }
}

/// Aggregate of all repetitions of one cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell that was run.
    pub spec: CellSpec,
    /// Number of repetitions folded in.
    pub runs: usize,
    /// Kernel counters summed over all repetitions.
    pub stats: SimStats,
    /// Suite report merged over all repetitions
    /// (see [`CheckReport::merge`]).
    pub report: CheckReport,
    /// Total simulation wall time across repetitions.
    pub wall_total: Duration,
    /// Fastest repetition.
    pub wall_min: Duration,
    /// Slowest repetition.
    pub wall_max: Duration,
    /// Earliest failing repetition, if any.
    pub first_failure: Option<FirstFailure>,
}

impl CellReport {
    fn new(spec: CellSpec) -> CellReport {
        CellReport {
            spec,
            runs: 0,
            stats: SimStats::new(),
            report: CheckReport::new(),
            wall_total: Duration::ZERO,
            wall_min: Duration::MAX,
            wall_max: Duration::ZERO,
            first_failure: None,
        }
    }

    /// Folds one run in; its report moves into an empty aggregate instead
    /// of being copied.
    fn fold(&mut self, spec: &RunSpec, outcome: &mut RunOutcome) {
        self.runs += 1;
        self.stats.merge(&outcome.stats);
        self.wall_total += outcome.wall;
        self.wall_min = self.wall_min.min(outcome.wall);
        self.wall_max = self.wall_max.max(outcome.wall);
        if self.first_failure.is_none() {
            if let Some(property) = outcome
                .report
                .properties
                .iter()
                .find(|p| p.failure_count > 0)
            {
                if let Some(failure) = property.failures.first() {
                    self.first_failure = Some(FirstFailure {
                        rep: spec.rep,
                        seed: spec.seed,
                        property: property.name.clone(),
                        failure: failure.clone(),
                    });
                }
            }
        }
        if self.report.properties.is_empty() {
            // Exactly what `merge` would clone in.
            self.report = std::mem::take(&mut outcome.report);
        } else {
            self.report.merge(&outcome.report);
        }
    }

    /// True if every merged property passed.
    #[must_use]
    pub fn all_pass(&self) -> bool {
        self.report.all_pass()
    }

    /// Kernel events processed per wall-clock second, over all
    /// repetitions.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_total.is_zero() {
            return 0.0;
        }
        self.stats.events_processed as f64 / self.wall_total.as_secs_f64()
    }
}

/// The merged result of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Plan name.
    pub name: String,
    /// Workers the campaign executed with (wall-clock context only).
    pub workers: usize,
    /// Per-cell aggregates, in plan order.
    pub cells: Vec<CellReport>,
    /// End-to-end campaign wall time (including scheduling).
    pub wall_total: Duration,
    /// Runs per cell, echoed from the plan.
    pub runs_per_cell: usize,
    /// Workload size, echoed from the plan.
    pub size: usize,
    /// Base seed, echoed from the plan.
    pub base_seed: u64,
    /// Merged trace: per-run event streams concatenated in work-list order,
    /// each run remapped to its own trace process (`pid` = work-list index)
    /// and labelled via `process_name` metadata. Empty without tracing.
    pub trace: Vec<TraceEvent>,
}

impl CampaignReport {
    /// Folds per-run outcomes, one per spec of `specs` (the plan's work
    /// list in order), into per-cell aggregates.
    #[must_use]
    pub(crate) fn assemble(
        plan: &CampaignPlan,
        workers: usize,
        wall_total: Duration,
        specs: &[RunSpec],
        outcomes: Vec<RunOutcome>,
    ) -> CampaignReport {
        debug_assert_eq!(specs.len(), outcomes.len(), "one outcome per run spec");
        let mut cells: Vec<CellReport> = plan
            .cells
            .iter()
            .map(|&spec| CellReport::new(spec))
            .collect();
        let mut trace = Vec::new();
        for (run_index, (spec, mut outcome)) in specs.iter().zip(outcomes).enumerate() {
            cells[spec.cell].fold(spec, &mut outcome);
            if !outcome.trace.is_empty() {
                let pid = run_index as u64;
                trace.push(TraceEvent::process_name(
                    pid,
                    format!(
                        "run {run_index}: {} rep {} seed {:#018x}",
                        plan.cells[spec.cell], spec.rep, spec.seed
                    ),
                ));
                trace.extend(outcome.trace.into_iter().map(|mut ev| {
                    ev.pid = pid;
                    ev
                }));
            }
        }
        CampaignReport {
            name: plan.name.clone(),
            workers,
            cells,
            wall_total,
            runs_per_cell: plan.runs_per_cell,
            size: plan.size,
            base_seed: plan.base_seed,
            trace,
        }
    }

    /// True if every cell passed.
    #[must_use]
    pub fn all_pass(&self) -> bool {
        self.cells.iter().all(CellReport::all_pass)
    }

    /// Total failures across all cells.
    #[must_use]
    pub fn total_failures(&self) -> u64 {
        self.cells.iter().map(|c| c.report.total_failures()).sum()
    }

    /// The scheduling-independent rendering of the campaign result: plan
    /// echo, per-cell merged kernel counters, merged per-property reports
    /// and first failures. Wall-clock, throughput and worker count are
    /// deliberately excluded, so the same plan yields **byte-identical**
    /// summaries at any worker count.
    #[must_use]
    pub fn deterministic_summary(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign {}: {} cell(s) x {} run(s), size {}, seed {:#x}",
            self.name,
            self.cells.len(),
            self.runs_per_cell,
            self.size,
            self.base_seed
        );
        for (i, cell) in self.cells.iter().enumerate() {
            let _ = writeln!(out, "cell {i}: {} -- {}", cell.spec, cell.stats);
            for p in &cell.report.properties {
                let _ = writeln!(out, "  {p}");
            }
            match &cell.first_failure {
                Some(first) => {
                    let _ = writeln!(out, "  first failure: {first}");
                }
                None => {
                    let _ = writeln!(out, "  no failures");
                }
            }
        }
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.all_pass() { "PASS" } else { "FAIL" }
        );
        out
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.deterministic_summary())?;
        writeln!(
            f,
            "timing: {:.3}s total on {} worker(s)",
            self.wall_total.as_secs_f64(),
            self.workers
        )?;
        for (i, cell) in self.cells.iter().enumerate() {
            writeln!(
                f,
                "  cell {i}: sim {:.3}s (min {:.1}ms / max {:.1}ms per run), {:.0} events/s",
                cell.wall_total.as_secs_f64(),
                cell.wall_min.as_secs_f64() * 1e3,
                cell.wall_max.as_secs_f64() * 1e3,
                cell.events_per_sec()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CheckerMode;
    use abv_checker::PropertyReport;
    use designs::{AbsLevel, DesignKind};

    fn outcome(events: u64, wall_ms: u64, failures: u64) -> RunOutcome {
        let mut p = PropertyReport::new("p".into());
        p.activations = 1;
        for i in 0..failures {
            // Only reachable through the checker in production; emulate via
            // merge of a crafted report.
            let mut one = PropertyReport::new("p".into());
            one.failure_count = 1;
            one.failures = vec![Failure {
                fire_ns: i,
                fail_ns: i + 1,
                reason: abv_checker::FailReason::Violated,
                residual: String::new(),
            }];
            p.merge(&one);
        }
        RunOutcome {
            wall: Duration::from_millis(wall_ms),
            stats: SimStats {
                events_processed: events,
                ..SimStats::new()
            },
            report: [p].into_iter().collect(),
            trace: Vec::new(),
        }
    }

    fn tiny_plan() -> CampaignPlan {
        CampaignPlan::new("t")
            .cell(DesignKind::Des56, AbsLevel::Rtl, CheckerMode::First(1))
            .runs(2)
            .size(5)
    }

    #[test]
    fn assemble_merges_in_work_list_order() {
        let plan = tiny_plan();
        let specs = plan.run_specs();
        let outcomes = vec![outcome(10, 4, 0), outcome(30, 2, 1)];
        let report = CampaignReport::assemble(&plan, 3, Duration::from_millis(9), &specs, outcomes);
        assert_eq!(report.cells.len(), 1);
        let cell = &report.cells[0];
        assert_eq!(cell.runs, 2);
        assert_eq!(cell.stats.events_processed, 40);
        assert_eq!(cell.wall_min, Duration::from_millis(2));
        assert_eq!(cell.wall_max, Duration::from_millis(4));
        assert_eq!(cell.report.properties[0].activations, 2);
        let first = cell.first_failure.as_ref().expect("failure captured");
        assert_eq!(first.rep, 1);
        assert_eq!(first.seed, specs[1].seed);
        assert_eq!(first.property, "p");
        assert!(!report.all_pass());
        assert_eq!(report.total_failures(), 1);
    }

    #[test]
    fn deterministic_summary_excludes_timing() {
        let plan = tiny_plan();
        let specs = plan.run_specs();
        let fast = CampaignReport::assemble(
            &plan,
            1,
            Duration::from_millis(1),
            &specs,
            vec![outcome(10, 1, 0), outcome(10, 1, 0)],
        );
        let slow = CampaignReport::assemble(
            &plan,
            8,
            Duration::from_millis(999),
            &specs,
            vec![outcome(10, 500, 0), outcome(10, 400, 0)],
        );
        assert_eq!(fast.deterministic_summary(), slow.deterministic_summary());
        assert!(fast.deterministic_summary().contains("verdict: PASS"));
        assert!(fast.to_string().contains("timing:"));
    }
}

//! The kill matrix: per-mutant × per-level verdicts and their
//! cross-level differential.
//!
//! Executing a [`MutationPlan`](crate::MutationPlan) runs every
//! `(design, fault, level)` cell through the campaign engine and folds the
//! per-cell check reports into a [`KillMatrix`]: which properties failed
//! against which mutant at which level, whether each mutant is *killed*
//! (any expected-passing property fails), the mutation score per level,
//! and the differential — mutants whose detection differs between RTL and
//! a TLM level, the abstraction-induced blind spots Theorem III.1 rules
//! out for AT-compatible properties.

use std::fmt;

use abv_campaign::{run_campaign_with, CampaignReport, CellReport, PlanError, TraceSettings};
use abv_obs::TraceEvent;
use designs::{AbsLevel, DesignKind, Fault};

use crate::plan::MutationPlan;

/// One property's verdict against one mutant at one level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyVerdict {
    /// Property display name.
    pub property: String,
    /// True if the property held over the whole run.
    pub pass: bool,
    /// Total failures of the property.
    pub failures: u64,
    /// Failures that were missed `next_ε^τ` deadlines.
    pub timeout_fails: u64,
}

/// One mutant's outcome at one abstraction level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutantCell {
    /// The abstraction level the mutant ran at.
    pub level: AbsLevel,
    /// True if any expected-passing property failed.
    pub killed: bool,
    /// Total failures across the suite.
    pub failures: u64,
    /// Failures that were missed deadlines (the wrapper's timeout path).
    pub timeout_fails: u64,
    /// Per-property verdicts, in installation order.
    pub verdicts: Vec<PropertyVerdict>,
}

impl MutantCell {
    fn from_cell(cell: &CellReport) -> MutantCell {
        let verdicts: Vec<PropertyVerdict> = cell
            .report
            .properties
            .iter()
            .map(|p| PropertyVerdict {
                property: p.name.clone(),
                pass: p.failure_count == 0,
                failures: p.failure_count,
                timeout_fails: p.timeout_fails,
            })
            .collect();
        MutantCell {
            level: cell.spec.level,
            killed: cell.report.total_failures() > 0,
            failures: cell.report.total_failures(),
            timeout_fails: verdicts.iter().map(|v| v.timeout_fails).sum(),
            verdicts,
        }
    }

    /// Names of the properties that failed (the mutant's killers).
    #[must_use]
    pub fn failing_properties(&self) -> Vec<&str> {
        self.verdicts
            .iter()
            .filter(|v| !v.pass)
            .map(|v| v.property.as_str())
            .collect()
    }
}

/// One mutant's outcomes across all plan levels.
#[derive(Debug, Clone)]
pub struct MutantRow {
    /// The injected fault ([`Fault::None`] is the baseline row).
    pub fault: Fault,
    /// Per-level outcomes, in plan level order.
    pub cells: Vec<MutantCell>,
}

impl MutantRow {
    /// The outcome at `level`, if the plan ran it.
    #[must_use]
    pub fn cell(&self, level: AbsLevel) -> Option<&MutantCell> {
        self.cells.iter().find(|c| c.level == level)
    }

    /// True if the mutant was killed at every level it ran at.
    #[must_use]
    pub fn killed_everywhere(&self) -> bool {
        self.cells.iter().all(|c| c.killed)
    }
}

/// One design's slice of the kill matrix.
#[derive(Debug, Clone)]
pub struct DesignMatrix {
    /// The mutated IP.
    pub design: DesignKind,
    /// One row per catalogued fault, baseline first.
    pub mutants: Vec<MutantRow>,
}

impl DesignMatrix {
    /// The row of `fault`, if catalogued.
    #[must_use]
    pub fn mutant(&self, fault: Fault) -> Option<&MutantRow> {
        self.mutants.iter().find(|m| m.fault == fault)
    }

    /// The baseline ([`Fault::None`]) row.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has no baseline row — every catalogue starts
    /// with one.
    #[must_use]
    pub fn baseline(&self) -> &MutantRow {
        self.mutant(Fault::None).expect("catalogue has a baseline")
    }

    /// `(killed, total)` over the non-baseline mutants at `level`.
    #[must_use]
    pub fn mutation_score(&self, level: AbsLevel) -> (usize, usize) {
        let rows = self.mutants.iter().filter(|m| m.fault != Fault::None);
        rows.filter_map(|m| m.cell(level))
            .fold((0, 0), |(killed, total), cell| {
                (killed + usize::from(cell.killed), total + 1)
            })
    }
}

/// A cross-level detection difference: a mutant killed at `killed_at` but
/// surviving at `survives_at`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Differential {
    /// The mutated IP.
    pub design: DesignKind,
    /// The injected fault.
    pub fault: Fault,
    /// Level where the mutant is detected.
    pub killed_at: AbsLevel,
    /// Level where it escapes.
    pub survives_at: AbsLevel,
}

impl fmt::Display for Differential {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} killed at {} but survives at {}",
            self.design.label(),
            self.fault,
            self.killed_at.label(),
            self.survives_at.label()
        )
    }
}

/// The full `(design × fault × level)` verdict matrix of one mutation
/// campaign.
#[derive(Debug, Clone)]
pub struct KillMatrix {
    /// Workload size per run, echoed from the plan.
    pub size: usize,
    /// Base seed, echoed from the plan.
    pub seed: u64,
    /// Levels every mutant ran at, in plan order.
    pub levels: Vec<AbsLevel>,
    /// Per-design slices, in plan order.
    pub designs: Vec<DesignMatrix>,
}

impl KillMatrix {
    /// Folds a campaign report back into the matrix. `report` must come
    /// from executing `plan.campaign_plan()` — cells are consumed in the
    /// same design-major → fault → level order the plan emitted them.
    ///
    /// # Panics
    ///
    /// Panics if the report's cell grid does not match the plan's
    /// expansion.
    #[must_use]
    pub fn fold(plan: &MutationPlan, report: &CampaignReport) -> KillMatrix {
        let mut cells = report.cells.iter();
        let designs = plan
            .designs
            .iter()
            .map(|&design| DesignMatrix {
                design,
                mutants: plan
                    .mutants(design)
                    .into_iter()
                    .map(|fault| MutantRow {
                        fault,
                        cells: plan
                            .levels
                            .iter()
                            .map(|&level| {
                                let cell = cells.next().expect("report matches plan grid");
                                assert_eq!(
                                    (cell.spec.design, cell.spec.fault, cell.spec.level),
                                    (design, fault, level),
                                    "report cells follow plan expansion order"
                                );
                                MutantCell::from_cell(cell)
                            })
                            .collect(),
                    })
                    .collect(),
            })
            .collect();
        assert!(cells.next().is_none(), "report has no extra cells");
        KillMatrix {
            size: plan.size,
            seed: plan.seed,
            levels: plan.levels.clone(),
            designs,
        }
    }

    /// The slice of `design`, if the plan ran it.
    #[must_use]
    pub fn design(&self, design: DesignKind) -> Option<&DesignMatrix> {
        self.designs.iter().find(|d| d.design == design)
    }

    /// True if every baseline row is failure-free at every level — the
    /// precondition for reading kills as detections.
    #[must_use]
    pub fn baseline_clean(&self) -> bool {
        self.designs
            .iter()
            .all(|d| d.baseline().cells.iter().all(|c| c.failures == 0))
    }

    /// Mutants killed at RTL but escaping at some TLM level — detection
    /// power *lost* to abstraction.
    #[must_use]
    pub fn detection_regressions(&self) -> Vec<Differential> {
        self.differentials(|rtl, tlm| rtl.killed && !tlm.killed)
    }

    /// Mutants escaping at RTL but killed at some TLM level — detection
    /// power *gained* (rare; usually a sampling artefact worth review).
    #[must_use]
    pub fn detection_gains(&self) -> Vec<Differential> {
        self.differentials(|rtl, tlm| !rtl.killed && tlm.killed)
    }

    fn differentials(
        &self,
        select: impl Fn(&MutantCell, &MutantCell) -> bool,
    ) -> Vec<Differential> {
        let mut out = Vec::new();
        for dm in &self.designs {
            for row in dm.mutants.iter().filter(|m| m.fault != Fault::None) {
                let Some(rtl) = row.cell(AbsLevel::Rtl) else {
                    continue;
                };
                for tlm in row.cells.iter().filter(|c| c.level != AbsLevel::Rtl) {
                    if select(rtl, tlm) {
                        let (killed_at, survives_at) = if rtl.killed {
                            (rtl.level, tlm.level)
                        } else {
                            (tlm.level, rtl.level)
                        };
                        out.push(Differential {
                            design: dm.design,
                            fault: row.fault,
                            killed_at,
                            survives_at,
                        });
                    }
                }
            }
        }
        out
    }
}

impl fmt::Display for KillMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "kill matrix (workload size {}, seed {})",
            self.size, self.seed
        )?;
        for dm in &self.designs {
            writeln!(f)?;
            write!(f, "{:<24}", dm.design.label())?;
            for level in &self.levels {
                write!(f, " {:>12}", level.label())?;
            }
            writeln!(f)?;
            for row in &dm.mutants {
                write!(f, "  {:<22}", row.fault.to_string())?;
                for cell in &row.cells {
                    let text = if row.fault == Fault::None {
                        if cell.failures == 0 {
                            "clean".to_string()
                        } else {
                            format!("DIRTY({})", cell.failures)
                        }
                    } else if cell.killed {
                        format!("K({})", cell.failing_properties().len())
                    } else {
                        "survived".to_string()
                    };
                    write!(f, " {text:>12}")?;
                }
                writeln!(f)?;
            }
            write!(f, "  {:<22}", "mutation score")?;
            for &level in &self.levels {
                let (killed, total) = dm.mutation_score(level);
                write!(f, " {:>12}", format!("{killed}/{total}"))?;
            }
            writeln!(f)?;
        }
        writeln!(f)?;
        let regressions = self.detection_regressions();
        if regressions.is_empty() {
            writeln!(f, "cross-level differential: no detection regressions")?;
        } else {
            writeln!(
                f,
                "cross-level differential: {} regression(s)",
                regressions.len()
            )?;
            for d in &regressions {
                writeln!(f, "  REGRESSION: {d}")?;
            }
        }
        for d in self.detection_gains() {
            writeln!(f, "  gain: {d}")?;
        }
        Ok(())
    }
}

/// A mutation campaign's full result: the kill matrix plus the underlying
/// campaign report (wall-clock stats, merged traces).
#[derive(Debug, Clone)]
pub struct MutationOutcome {
    /// The folded verdict matrix.
    pub matrix: KillMatrix,
    /// The raw campaign report the matrix was folded from.
    pub campaign: CampaignReport,
}

/// Expands `plan` into its campaign grid, executes it on `workers`
/// threads and folds the kill matrix.
///
/// With tracing enabled, the outcome's campaign trace carries one run
/// span per `(mutant, level)` cell plus a `mutation:` counter track — one
/// series per `(design, level)` recording the cumulative kill count as the
/// catalogue advances.
///
/// # Errors
///
/// Returns a [`PlanError`] if the expanded campaign fails validation (no
/// work starts) or its workload size is too large to build.
pub fn run_mutation(
    plan: &MutationPlan,
    workers: usize,
    settings: TraceSettings,
) -> Result<MutationOutcome, PlanError> {
    let campaign_plan = plan.campaign_plan();
    let mut campaign = run_campaign_with(&campaign_plan, workers, settings)?;
    let matrix = KillMatrix::fold(plan, &campaign);
    if settings.enabled {
        append_kill_counters(
            &matrix,
            campaign_plan.total_runs() as u64,
            &mut campaign.trace,
        );
    }
    Ok(MutationOutcome { matrix, campaign })
}

/// Appends the `mutation:` counter track: per `(design, level)` series of
/// cumulative kills, one sample per non-baseline mutant (timestamped by
/// catalogue position, so the track is deterministic).
fn append_kill_counters(matrix: &KillMatrix, pid: u64, trace: &mut Vec<TraceEvent>) {
    trace.push(TraceEvent::process_name(pid, "mutation"));
    for dm in &matrix.designs {
        for (li, level) in matrix.levels.iter().enumerate() {
            let series = format!("mutation:{}:{}", dm.design.label(), level.label());
            let mut killed = 0u64;
            for (mi, row) in dm
                .mutants
                .iter()
                .filter(|m| m.fault != Fault::None)
                .enumerate()
            {
                killed += u64::from(row.cells[li].killed);
                trace.push(
                    TraceEvent::counter(series.clone(), pid, li as u64, mi as u64)
                        .with_arg("killed", killed),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fir_rtl_outcome() -> MutationOutcome {
        let plan = MutationPlan::new()
            .design(DesignKind::Fir)
            .level(AbsLevel::Rtl)
            .size(4)
            .seed(7);
        run_mutation(&plan, 1, TraceSettings::off()).expect("valid plan")
    }

    #[test]
    fn fir_rtl_slice_kills_every_mutant() {
        let outcome = fir_rtl_outcome();
        let dm = outcome.matrix.design(DesignKind::Fir).expect("FIR ran");
        assert!(outcome.matrix.baseline_clean());
        let (killed, total) = dm.mutation_score(AbsLevel::Rtl);
        assert_eq!((killed, total), (5, 5), "full RTL score");
        for row in dm.mutants.iter().filter(|m| m.fault != Fault::None) {
            assert!(row.killed_everywhere(), "{} survives", row.fault);
        }
    }

    #[test]
    fn verdicts_name_the_killing_properties() {
        let outcome = fir_rtl_outcome();
        let dm = outcome.matrix.design(DesignKind::Fir).expect("FIR ran");
        let row = dm.mutant(Fault::LatencyShort).expect("catalogued");
        let cell = row.cell(AbsLevel::Rtl).expect("RTL ran");
        assert!(cell.failing_properties().contains(&"f1"));
        assert!(
            cell.verdicts.iter().any(|v| v.pass),
            "not every property fails"
        );
    }

    #[test]
    fn trace_carries_the_mutation_counter_track() {
        let plan = MutationPlan::new()
            .design(DesignKind::Fir)
            .level(AbsLevel::Rtl)
            .size(3)
            .seed(7);
        let outcome = run_mutation(&plan, 1, TraceSettings::deterministic()).expect("valid plan");
        let counters: Vec<&TraceEvent> = outcome
            .campaign
            .trace
            .iter()
            .filter(|e| e.name.starts_with("mutation:FIR:RTL"))
            .collect();
        assert_eq!(counters.len(), 5, "one sample per non-baseline mutant");
        assert!(
            outcome.campaign.trace.iter().any(|e| e.name == "run"),
            "campaign run spans are preserved"
        );
    }

    #[test]
    fn differential_flags_an_rtl_only_kill() {
        // Synthesise a matrix where a mutant escapes at TLM-AT.
        let plan = MutationPlan::new().design(DesignKind::Fir).size(3).seed(7);
        let mut outcome = run_mutation(&plan, 2, TraceSettings::off()).expect("valid plan");
        assert!(outcome.matrix.detection_regressions().is_empty());
        let row = outcome.matrix.designs[0]
            .mutants
            .iter_mut()
            .find(|m| m.fault == Fault::CorruptData)
            .expect("catalogued");
        let at = row
            .cells
            .iter_mut()
            .find(|c| c.level == AbsLevel::TlmAt)
            .expect("AT ran");
        at.killed = false;
        let regressions = outcome.matrix.detection_regressions();
        assert_eq!(
            regressions,
            vec![Differential {
                design: DesignKind::Fir,
                fault: Fault::CorruptData,
                killed_at: AbsLevel::Rtl,
                survives_at: AbsLevel::TlmAt,
            }]
        );
        assert!(outcome.matrix.detection_gains().is_empty());
    }
}

//! Declarative campaign plans.
//!
//! A [`CampaignPlan`] describes a verification campaign as data: a grid of
//! [`CellSpec`]s (design × abstraction level × checker selection), a
//! repetition count, a workload size and a base seed. Expanding the plan
//! yields one [`RunSpec`] per `(cell, repetition)` pair, each with a seed
//! derived *only* from `(base_seed, cell, rep)` — never from scheduling —
//! so a campaign's work list is identical no matter how many workers later
//! execute it.

use std::fmt;

use abv_checker::InstallError;
use designs::{AbsLevel, BuildError, DesignKind, Fault};
use psl::ClockedProperty;
use tinyrng::TinyRng;

/// Which slice of a design's property suite a cell installs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckerMode {
    /// No checkers — the bare-simulation baseline (`w/out c.` in Table I).
    None,
    /// The first `n` properties of the suite, in suite order.
    First(usize),
    /// The whole suite available at the cell's level.
    All,
    /// The properties expected to *pass* at the cell's level — the suite
    /// minus review-expected-fail entries (see
    /// [`designs::passing_properties_at`]). Mutation campaigns use this so
    /// a kill is always a genuine detection, never a known false alarm.
    ExpectedPassing,
}

impl CheckerMode {
    /// Parses `"none"`/`"without"`, `"all"`/`"with"`,
    /// `"passing"`/`"expected-passing"`, or a number `n` (meaning the
    /// first `n` properties).
    #[must_use]
    pub fn parse(s: &str) -> Option<CheckerMode> {
        match s.to_ascii_lowercase().as_str() {
            "none" | "without" | "off" => Some(CheckerMode::None),
            "all" | "with" | "on" => Some(CheckerMode::All),
            "passing" | "expected-passing" => Some(CheckerMode::ExpectedPassing),
            n => n.parse().ok().map(|n| {
                if n == 0 {
                    CheckerMode::None
                } else {
                    CheckerMode::First(n)
                }
            }),
        }
    }

    /// Applies the selection to a suite's property list.
    #[must_use]
    pub fn select(self, mut all: Vec<(String, ClockedProperty)>) -> Vec<(String, ClockedProperty)> {
        let kept = self.slice(&all).len();
        all.truncate(kept);
        all
    }

    /// The selection's prefix of a suite's property list, borrowed.
    pub(crate) fn slice(self, all: &[(String, ClockedProperty)]) -> &[(String, ClockedProperty)] {
        match self {
            CheckerMode::None => &[],
            CheckerMode::First(n) => &all[..n.min(all.len())],
            CheckerMode::All | CheckerMode::ExpectedPassing => all,
        }
    }
}

impl fmt::Display for CheckerMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckerMode::None => f.write_str("no checkers"),
            CheckerMode::First(n) => write!(f, "{n} checker(s)"),
            CheckerMode::All => f.write_str("all checkers"),
            CheckerMode::ExpectedPassing => f.write_str("expected-passing checkers"),
        }
    }
}

/// One cell of the campaign grid: a design at an abstraction level with a
/// checker selection and an optional injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Which IP to simulate.
    pub design: DesignKind,
    /// At which abstraction level.
    pub level: AbsLevel,
    /// Which properties to attach.
    pub checkers: CheckerMode,
    /// Design mutation to inject (fault-detection campaigns).
    pub fault: Fault,
}

impl CellSpec {
    /// A fault-free cell.
    #[must_use]
    pub fn new(design: DesignKind, level: AbsLevel, checkers: CheckerMode) -> CellSpec {
        CellSpec {
            design,
            level,
            checkers,
            fault: Fault::None,
        }
    }

    /// The same cell with `fault` injected into the design.
    #[must_use]
    pub fn with_fault(mut self, fault: Fault) -> CellSpec {
        self.fault = fault;
        self
    }
}

impl fmt::Display for CellSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {} [{}]",
            self.design.label(),
            self.level.label(),
            self.checkers
        )?;
        if self.fault != Fault::None {
            write!(f, " fault={:?}", self.fault)?;
        }
        Ok(())
    }
}

/// A fully described unit of work: cell `cell` of the plan, repetition
/// `rep`, with its derived workload seed. A run is reproducible from this
/// value alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Index of the cell in [`CampaignPlan::cells`].
    pub cell: usize,
    /// Repetition index within the cell, `0..runs_per_cell`.
    pub rep: usize,
    /// The cell being run.
    pub spec: CellSpec,
    /// Workload size (requests / frames / samples).
    pub size: usize,
    /// Derived workload seed (see [`run_seed`]).
    pub seed: u64,
}

/// The workload seed of repetition `rep` of cell `cell`, derived from the
/// plan's base seed only — execution order and worker count play no part.
#[must_use]
pub fn run_seed(base_seed: u64, cell: usize, rep: usize) -> u64 {
    TinyRng::fork(base_seed, ((cell as u64) << 32) | rep as u64).next_u64()
}

/// A declarative verification-campaign plan.
///
/// ```
/// use abv_campaign::{CampaignPlan, CheckerMode};
/// use designs::{AbsLevel, DesignKind};
///
/// let plan = CampaignPlan::new("nightly")
///     .cell(DesignKind::ColorConv, AbsLevel::TlmAt, CheckerMode::All)
///     .runs(100)
///     .size(40)
///     .seed(0xC0FFEE);
/// assert_eq!(plan.total_runs(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// Display name of the campaign.
    pub name: String,
    /// The campaign grid.
    pub cells: Vec<CellSpec>,
    /// Repetitions per cell, each with its own derived seed.
    pub runs_per_cell: usize,
    /// Workload size per run.
    pub size: usize,
    /// Base seed the per-run seeds are forked from.
    pub base_seed: u64,
}

impl CampaignPlan {
    /// An empty plan named `name` with defaults: 1 run per cell, workload
    /// size 100, base seed 0xABC.
    #[must_use]
    pub fn new(name: impl Into<String>) -> CampaignPlan {
        CampaignPlan {
            name: name.into(),
            cells: Vec::new(),
            runs_per_cell: 1,
            size: 100,
            base_seed: 0xABC,
        }
    }

    /// Appends a fault-free cell.
    #[must_use]
    pub fn cell(self, design: DesignKind, level: AbsLevel, checkers: CheckerMode) -> CampaignPlan {
        self.cell_spec(CellSpec::new(design, level, checkers))
    }

    /// Appends an explicit cell spec.
    #[must_use]
    pub fn cell_spec(mut self, spec: CellSpec) -> CampaignPlan {
        self.cells.push(spec);
        self
    }

    /// Sets repetitions per cell.
    #[must_use]
    pub fn runs(mut self, runs: usize) -> CampaignPlan {
        self.runs_per_cell = runs;
        self
    }

    /// Sets the workload size per run.
    #[must_use]
    pub fn size(mut self, size: usize) -> CampaignPlan {
        self.size = size;
        self
    }

    /// Sets the base seed.
    #[must_use]
    pub fn seed(mut self, base_seed: u64) -> CampaignPlan {
        self.base_seed = base_seed;
        self
    }

    /// Total number of runs the plan expands to. Call it on a validated
    /// plan: [`validate`](Self::validate) rejects plans whose product
    /// overflows ([`PlanError::TooManyRuns`]).
    #[must_use]
    pub fn total_runs(&self) -> usize {
        self.cells.len() * self.runs_per_cell
    }

    /// Checks the plan is executable: non-empty, positive run count and
    /// size, a work list a `Vec` can hold, and every cell's design has a
    /// model at its level with its fault injected ([`designs::check`]).
    ///
    /// # Errors
    ///
    /// Returns the first problem found.
    pub fn validate(&self) -> Result<(), PlanError> {
        if self.cells.is_empty() {
            return Err(PlanError::NoCells);
        }
        if self.runs_per_cell == 0 {
            return Err(PlanError::ZeroRuns);
        }
        if self.size == 0 {
            return Err(PlanError::ZeroSize);
        }
        let addressable = isize::MAX as usize / std::mem::size_of::<RunSpec>();
        match self.cells.len().checked_mul(self.runs_per_cell) {
            Some(total) if total <= addressable => {}
            _ => {
                return Err(PlanError::TooManyRuns {
                    cells: self.cells.len(),
                    runs_per_cell: self.runs_per_cell,
                })
            }
        }
        for (index, cell) in self.cells.iter().enumerate() {
            designs::check(cell.design, cell.level, cell.fault)
                .map_err(|source| PlanError::BadCell { index, source })?;
        }
        Ok(())
    }

    /// Expands the plan into its work list, cell-major (`cell 0 rep 0`,
    /// `cell 0 rep 1`, …). The list — including every seed — depends only
    /// on the plan.
    ///
    /// # Panics
    ///
    /// Panics with the [`PlanError`] of [`try_run_specs`](Self::try_run_specs)
    /// when the list cannot be allocated.
    #[must_use]
    pub fn run_specs(&self) -> Vec<RunSpec> {
        self.try_run_specs().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run_specs`](Self::run_specs) for a validated plan, or
    /// [`PlanError::TooManyRuns`] when the work list cannot be allocated.
    ///
    /// # Errors
    ///
    /// [`PlanError::TooManyRuns`] when memory for the work list is not
    /// available.
    pub fn try_run_specs(&self) -> Result<Vec<RunSpec>, PlanError> {
        let mut specs = Vec::new();
        specs
            .try_reserve_exact(self.total_runs())
            .map_err(|_| PlanError::TooManyRuns {
                cells: self.cells.len(),
                runs_per_cell: self.runs_per_cell,
            })?;
        for (cell, spec) in self.cells.iter().enumerate() {
            for rep in 0..self.runs_per_cell {
                specs.push(RunSpec {
                    cell,
                    rep,
                    spec: *spec,
                    size: self.size,
                    seed: run_seed(self.base_seed, cell, rep),
                });
            }
        }
        Ok(specs)
    }
}

/// Why a plan cannot be executed.
#[derive(Debug)]
pub enum PlanError {
    /// The plan has no cells.
    NoCells,
    /// `runs_per_cell` is zero.
    ZeroRuns,
    /// `size` is zero.
    ZeroSize,
    /// `cells × runs_per_cell` overflows, exceeds the runs a
    /// `Vec<RunSpec>` can address, or needs more memory than is available.
    TooManyRuns {
        /// Number of cells in the plan.
        cells: usize,
        /// Requested runs per cell.
        runs_per_cell: usize,
    },
    /// A cell cannot be built: its design/level/fault combination has no
    /// model, or (found when its runs are built) its workload size is too
    /// large.
    BadCell {
        /// Index of the offending cell.
        index: usize,
        /// The [`designs::check`] or [`designs::build`] rejection.
        source: BuildError,
    },
    /// A property of a cell's checker selection cannot be attached to the
    /// cell's model (a signal the model lacks, or a context its binding
    /// does not offer).
    Attach {
        /// Index of the offending cell.
        cell: usize,
        /// Name of the property that failed to attach.
        property: String,
        /// The [`abv_checker::Checker::attach`] rejection.
        source: InstallError,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoCells => f.write_str("campaign plan has no cells"),
            PlanError::ZeroRuns => f.write_str("campaign plan has zero runs per cell"),
            PlanError::ZeroSize => f.write_str("campaign plan has zero workload size"),
            PlanError::TooManyRuns {
                cells,
                runs_per_cell,
            } => write!(
                f,
                "campaign plan has too many runs: {cells} cells x {runs_per_cell} runs per cell"
            ),
            PlanError::BadCell { index, source } => {
                write!(f, "cell {index} is not executable: {source}")
            }
            PlanError::Attach {
                cell,
                property,
                source,
            } => write!(
                f,
                "cell {cell}: property `{property}` cannot be attached: {source}"
            ),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::BadCell { source, .. } => Some(source),
            PlanError::Attach { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_depend_only_on_plan_coordinates() {
        let a = run_seed(7, 3, 11);
        assert_eq!(a, run_seed(7, 3, 11));
        assert_ne!(a, run_seed(7, 3, 12));
        assert_ne!(a, run_seed(7, 4, 11));
        assert_ne!(a, run_seed(8, 3, 11));
    }

    #[test]
    fn expansion_is_cell_major_and_seeded() {
        let plan = CampaignPlan::new("t")
            .cell(DesignKind::Des56, AbsLevel::Rtl, CheckerMode::All)
            .cell(DesignKind::ColorConv, AbsLevel::TlmAt, CheckerMode::None)
            .runs(3)
            .size(10);
        let specs = plan.run_specs();
        assert_eq!(specs.len(), 6);
        assert_eq!((specs[0].cell, specs[0].rep), (0, 0));
        assert_eq!((specs[2].cell, specs[2].rep), (0, 2));
        assert_eq!((specs[3].cell, specs[3].rep), (1, 0));
        assert_eq!(specs[4].seed, run_seed(plan.base_seed, 1, 1));
    }

    #[test]
    fn validation_catches_empty_and_unsupported() {
        assert!(matches!(
            CampaignPlan::new("t").validate(),
            Err(PlanError::NoCells)
        ));
        let plan =
            CampaignPlan::new("t").cell(DesignKind::Des56, AbsLevel::TlmAtBulk, CheckerMode::None);
        assert!(matches!(
            plan.validate(),
            Err(PlanError::BadCell { index: 0, .. })
        ));
        let plan = CampaignPlan::new("t")
            .cell(DesignKind::Des56, AbsLevel::Rtl, CheckerMode::None)
            .runs(0);
        assert!(matches!(plan.validate(), Err(PlanError::ZeroRuns)));
        // One cell does not overflow the product, but no `Vec` holds it.
        let plan = plan.runs(usize::MAX);
        assert!(matches!(
            plan.validate(),
            Err(PlanError::TooManyRuns {
                cells: 1,
                runs_per_cell: usize::MAX
            })
        ));
        let err = plan
            .cell(DesignKind::Des56, AbsLevel::Rtl, CheckerMode::All)
            .validate()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "campaign plan has too many runs: 2 cells x {} runs per cell",
                usize::MAX
            )
        );
    }

    #[test]
    fn a_valid_run_count_beyond_memory_is_an_error_not_an_abort() {
        let most = isize::MAX as usize / std::mem::size_of::<RunSpec>();
        let plan = CampaignPlan::new("t")
            .cell(DesignKind::Fir, AbsLevel::Rtl, CheckerMode::None)
            .runs(most);
        assert!(plan.validate().is_ok());
        assert!(matches!(
            plan.try_run_specs(),
            Err(PlanError::TooManyRuns {
                cells: 1,
                runs_per_cell
            }) if runs_per_cell == most
        ));
    }

    #[test]
    fn validation_agrees_with_the_design_support_rule() {
        let levels = [
            AbsLevel::Rtl,
            AbsLevel::TlmCa,
            AbsLevel::TlmAt,
            AbsLevel::TlmAtBulk,
        ];
        let faults = [
            Fault::None,
            Fault::LatencyShort,
            Fault::LatencyLong,
            Fault::CorruptData,
            Fault::DropReady,
            Fault::StuckControl,
            Fault::DropTransaction,
            Fault::DuplicateTransaction,
            Fault::BitFlip { bit: 0 },
            Fault::BitFlip { bit: 13 },
        ];
        for design in DesignKind::ALL {
            for level in levels {
                for fault in faults {
                    let cell = CellSpec::new(design, level, CheckerMode::All).with_fault(fault);
                    let validated = match CampaignPlan::new("t").cell_spec(cell).validate() {
                        Ok(()) => Ok(()),
                        Err(PlanError::BadCell { index: 0, source }) => Err(source),
                        Err(other) => panic!("{cell}: {other}"),
                    };
                    assert_eq!(validated, designs::check(design, level, fault), "{cell}");
                }
            }
        }
    }

    #[test]
    fn checker_mode_parse_and_select() {
        assert_eq!(CheckerMode::parse("with"), Some(CheckerMode::All));
        assert_eq!(CheckerMode::parse("without"), Some(CheckerMode::None));
        assert_eq!(CheckerMode::parse("3"), Some(CheckerMode::First(3)));
        assert_eq!(CheckerMode::parse("0"), Some(CheckerMode::None));
        assert_eq!(
            CheckerMode::parse("passing"),
            Some(CheckerMode::ExpectedPassing)
        );
        assert_eq!(
            CheckerMode::parse("expected-passing"),
            Some(CheckerMode::ExpectedPassing)
        );
        assert_eq!(CheckerMode::parse("sideways"), None);
        let all = designs::properties_at(DesignKind::Des56, AbsLevel::Rtl);
        assert_eq!(CheckerMode::None.select(all.clone()).len(), 0);
        assert_eq!(CheckerMode::First(2).select(all.clone()).len(), 2);
        assert_eq!(CheckerMode::ExpectedPassing.select(all.clone()).len(), 9);
        assert_eq!(CheckerMode::All.select(all).len(), 9);
    }
}

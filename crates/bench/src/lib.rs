//! `abv-bench` — the harness regenerating the paper's evaluation
//! (Section V): Table I simulation-time/overhead measurements and the
//! Fig. 6 RTL→TLM speedup comparison, plus ablation studies.
//!
//! Binaries: `table1` (Table I for both IPs), `fig6` (Fig. 6 average
//! speedups), `fig3` (Fig. 3 abstraction table), `bulk_at` (deviation D1).
//! Their grids are campaigns on `abv-campaign`; `perfbench`
//! (`BENCHMARK.json`) times and pins the same grid.
//!
//! Timing benches (`cargo bench`): `ablation`, `kernel_throughput`,
//! `mutation_throughput`, `trace_overhead` — plain `harness = false` mains
//! over [`stopwatch`], one statistic and one ledger format.
//!
//! Absolute times differ from the paper's testbed; the *shape* is what is
//! reproduced: overhead grows with checker count at every level, reusing
//! unabstracted checkers at TLM-CA costs more than at RTL, and abstracted
//! checkers at TLM-AT cost an order of magnitude less (see EXPERIMENTS.md).

pub mod stopwatch;

use std::time::{Duration, Instant};

use abv_campaign::{run_campaign, CampaignPlan, CellReport};
use abv_checker::{CheckReport, Checker};
use designs::Fault;
use desim::SimStats;
use stopwatch::env_usize;

pub use abv_campaign::CheckerMode;

/// Which IP to benchmark (re-exported from the design factory; the
/// benchmark binaries cover the paper's two IPs, `ALL` also has FIR).
pub use designs::DesignKind as Design;

/// Abstraction level of a measured run (Table I rows).
pub use designs::AbsLevel as Level;

/// Outcome of one measured simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Wall time of the simulation loop alone (no model/checker set-up).
    pub wall: Duration,
    /// Kernel activity counters.
    pub stats: SimStats,
    /// Checker reports (empty for a run without checkers).
    pub report: CheckReport,
}

/// The checker set sizes of Table I (`w/out c.`, `1 C`, `5 C`, `All C`).
#[must_use]
pub fn checker_counts(design: Design) -> [usize; 4] {
    [0, 1, 5, design.suite().len()]
}

/// Runs one measured simulation: `design` at `level` with the first
/// `n_checkers` properties installed, over a workload of `size` requests.
///
/// # Panics
///
/// Panics if the design has no model at `level` or checker attachment
/// fails (the suites are always attachable at their levels).
#[must_use]
pub fn run(design: Design, level: Level, n_checkers: usize, size: usize, seed: u64) -> RunResult {
    let mut props = designs::properties_at(design, level);
    props.truncate(n_checkers);
    let mut built =
        designs::build(design, level, size, seed, Fault::None).expect("level supported");
    let binding = built.binding();
    let checkers = Checker::attach_all(&mut built.sim, &props, binding).expect("installs");
    let start = Instant::now();
    let stats = built.run();
    let wall = start.elapsed();
    let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
    RunResult {
        wall,
        stats,
        report,
    }
}

/// Measures a grid of benchmark cells through the campaign engine: each
/// `(design, level, checkers)` triple becomes a campaign cell repeated
/// `reps` times on `workers` threads, and the per-cell aggregates come
/// back in input order ([`CellReport::wall_min`](abv_campaign::CellReport)
/// is the best-of-reps estimator the binaries print).
///
/// # Panics
///
/// Panics if a cell names a design/level pair without a model.
#[must_use]
pub fn measure(
    cells: &[(Design, Level, CheckerMode)],
    size: usize,
    reps: usize,
    workers: usize,
) -> Vec<CellReport> {
    let mut plan = CampaignPlan::new("bench")
        .runs(reps)
        .size(size)
        .seed(0xBEEF);
    for &(design, level, checkers) in cells {
        plan = plan.cell(design, level, checkers);
    }
    run_campaign(&plan, workers)
        .expect("benchmark plan must be executable")
        .cells
}

/// Measures the Table I / Fig. 6 grid of `design` through [`measure`]: every
/// level × [`checker_counts`], level-major.
#[must_use]
pub fn measure_grid(design: Design, size: usize, reps: usize, workers: usize) -> Vec<CellReport> {
    let modes = checker_counts(design).map(|n| match n {
        0 => CheckerMode::None,
        n => CheckerMode::First(n),
    });
    let cells: Vec<_> = Level::ALL
        .into_iter()
        .flat_map(|level| modes.map(|mode| (design, level, mode)))
        .collect();
    measure(&cells, size, reps, workers)
}

/// Worker threads of the table/fig binaries (`ABV_BENCH_WORKERS`, default: cores).
#[must_use]
pub fn default_workers() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    env_usize("ABV_BENCH_WORKERS", cores)
}

/// Requests per run of the table/fig binaries (`ABV_BENCH_SIZE`, default 3000).
#[must_use]
pub fn default_size() -> usize {
    env_usize("ABV_BENCH_SIZE", 3000)
}

/// Repetitions per cell of the table/fig binaries (`ABV_BENCH_REPS`, default 3).
#[must_use]
pub fn default_reps() -> usize {
    env_usize("ABV_BENCH_REPS", 3)
}

/// Percentage overhead of `with` over `base`.
#[must_use]
pub fn overhead_pct(base: Duration, with: Duration) -> f64 {
    (with.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn properties_per_level_counts() {
        assert_eq!(designs::properties_at(Design::Des56, Level::Rtl).len(), 9);
        assert_eq!(designs::properties_at(Design::Des56, Level::TlmCa).len(), 9);
        // p8 is deleted by the abstraction.
        assert_eq!(designs::properties_at(Design::Des56, Level::TlmAt).len(), 8);
        assert_eq!(
            designs::properties_at(Design::ColorConv, Level::TlmAt).len(),
            12
        );
    }

    #[test]
    fn checker_counts_track_suite_sizes() {
        assert_eq!(checker_counts(Design::Des56), [0, 1, 5, 9]);
        assert_eq!(checker_counts(Design::ColorConv), [0, 1, 5, 12]);
    }

    #[test]
    fn run_produces_activity_and_reports() {
        let r = run(Design::Des56, Level::Rtl, 2, 4, 1);
        assert!(r.stats.events_processed > 0);
        assert_eq!(r.report.properties.len(), 2);
        let r = run(Design::ColorConv, Level::TlmAt, 3, 4, 1);
        assert_eq!(r.report.properties.len(), 3);
    }

    #[test]
    fn tlm_at_runs_far_fewer_events_than_rtl() {
        let rtl = run(Design::Des56, Level::Rtl, 0, 20, 2);
        let at = run(Design::Des56, Level::TlmAt, 0, 20, 2);
        assert!(
            at.stats.events_processed * 10 < rtl.stats.events_processed,
            "AT {} vs RTL {}",
            at.stats.events_processed,
            rtl.stats.events_processed
        );
    }

    #[test]
    fn all_checkers_pass_at_each_level() {
        for design in [Design::Des56, Design::ColorConv] {
            for level in [Level::Rtl, Level::TlmCa] {
                let n = designs::properties_at(design, level).len();
                let r = run(design, level, n, 6, 3);
                assert!(
                    r.report.all_pass(),
                    "{} {}: {}",
                    design.label(),
                    level.label(),
                    r.report
                );
            }
        }
    }

    #[test]
    fn measure_returns_cells_in_input_order() {
        let cells = [
            (Design::Des56, Level::Rtl, CheckerMode::None),
            (Design::Des56, Level::TlmAt, CheckerMode::All),
        ];
        let reports = measure(&cells, 5, 2, 2);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].runs, 2);
        assert!(reports[0].report.properties.is_empty());
        assert_eq!(reports[1].report.properties.len(), 8);
        assert!(reports[0].stats.events_processed > reports[1].stats.events_processed);
    }

    #[test]
    fn overhead_pct_math() {
        let base = Duration::from_millis(100);
        let with = Duration::from_millis(163);
        assert!((overhead_pct(base, with) - 63.0).abs() < 1e-9);
    }
}

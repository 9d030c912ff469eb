//! Per-run allocation proxy for campaigns: a warm `execute_run` (suite
//! table derived, no first-call set-up left) stays within a recorded
//! allocation budget for one cell per IP, so a per-run copy of the suite
//! or of its report shows up here as a count, not as noise in a timing.
//!
//! The binary installs a counting global allocator, so it holds this one
//! test only: the harness's other threads must not allocate while a run is
//! measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use abv_campaign::{execute_run, CampaignPlan, CheckerMode};
use designs::{AbsLevel, DesignKind};

/// Counts every allocation and reallocation made through it.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter is a
// statistic that publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// Allocations of a warm expected-passing run at size 8, recorded: the
/// build, the checkers' attach (about 7 per property, see
/// `tests/setup_alloc.rs`), the simulation and the suite report. Cloning
/// the suite's `(name, property)` pairs out of the per-process table for
/// every run, instead of attaching from the table itself, made them 248,
/// 286 and 97.
const BUDGETS: [(DesignKind, AbsLevel, u64); 3] = [
    (DesignKind::Des56, AbsLevel::Rtl, 180),
    (DesignKind::ColorConv, AbsLevel::TlmCa, 193),
    (DesignKind::Fir, AbsLevel::TlmAt, 75),
];

#[test]
fn warm_runs_allocate_within_budget() {
    for (design, level, budget) in BUDGETS {
        let plan = CampaignPlan::new("alloc")
            .cell(design, level, CheckerMode::ExpectedPassing)
            .size(8)
            .seed(2015);
        let spec = plan.run_specs()[0];
        let cold = execute_run(&spec).expect("builds and attaches");
        let (warm, outcome) = counted(|| execute_run(&spec).expect("builds and attaches"));
        assert_eq!(
            outcome.report, cold.report,
            "a warm run repeats the cold one"
        );
        assert!(outcome.report.all_pass(), "{}", outcome.report);
        let what = format!("{} {}", design.label(), level.label());
        println!("{what}: {warm} allocations (budget {budget})");
        assert!(
            warm <= budget,
            "a warm {what} run allocated {warm} times (budget {budget})"
        );
    }
}

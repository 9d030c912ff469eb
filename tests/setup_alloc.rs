//! Set-up allocation proxy: deriving an IP's property suites happens once
//! per process, so a warm `properties_at` call allocates only the clones
//! it returns, and attaching the DES56 RTL suite stays within a recorded
//! allocation budget.
//!
//! The binary installs a counting global allocator, so it holds this one
//! test only: the harness's other threads must not allocate while a call
//! is measured, and no earlier test may have derived a suite.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use abv_checker::Checker;
use designs::{AbsLevel, DesignKind, Fault};

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

/// Allocations of `Checker::attach_all` over the 9-property DES56 RTL
/// suite, recorded: about 7 per property — the arena's four tables
/// (nodes, interning index, literals, per-node state) sized once from the
/// property, the report name and the host component — plus the regrowth
/// of the simulation's component list and the clock's subscriber list.
/// Lowering through an NNF copy of each property, with a hashed literal
/// table and three per-node columns, made it 145; arenas that grew while
/// the property was lowered, and a second copy of each name, 249.
const ATTACH_DES56_RTL_BUDGET: u64 = 61;

#[test]
fn warm_suite_calls_and_attach_allocate_within_budget() {
    let (cold, first) = counted(|| designs::properties_at(DesignKind::Des56, AbsLevel::TlmAt));
    let (warm, second) = counted(|| designs::properties_at(DesignKind::Des56, AbsLevel::TlmAt));
    assert_eq!(first, second);
    assert!(
        2 * warm < cold,
        "a warm call allocated {warm} times, the cold first call {cold}"
    );

    let props = designs::properties_at(DesignKind::Des56, AbsLevel::Rtl);
    let mut built =
        designs::build(DesignKind::Des56, AbsLevel::Rtl, 4, 2015, Fault::None).expect("builds");
    let binding = built.binding();
    let (attach, checkers) = counted(|| Checker::attach_all(&mut built.sim, &props, binding));
    let checkers = checkers.expect("suite attaches");
    assert!(
        attach <= ATTACH_DES56_RTL_BUDGET,
        "attaching the DES56 RTL suite allocated {attach} times (budget {ATTACH_DES56_RTL_BUDGET})"
    );

    built.run();
    let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
    assert!(report.all_pass(), "{report}");
}

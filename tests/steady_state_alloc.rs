//! Run-time allocation proxies.
//!
//! - Steady state: once a DES56 RTL all-checker simulation is warm, the
//!   heap allocations it makes inside a `run_until` window do not grow
//!   with the window's length. Per-event allocation in the kernel, the
//!   design model or the checker path would make them proportional to the
//!   number of events in the window.
//! - Cold run: a freshly built design without checkers runs to its end
//!   with a handful of allocations (the scheduler's and the kernel's
//!   buffers reaching their working size), at any workload length. A
//!   scheduler that sets up per-slot or per-timestamp buffers shows up
//!   here as hundreds.
//!
//! The binary installs a counting global allocator, so it holds this one
//! test only: the harness's other threads must not allocate while a window
//! is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use abv_checker::Checker;
use designs::{AbsLevel, DesignKind, Fault, CLOCK_PERIOD_NS};
use desim::SimTime;

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

#[test]
fn des56_rtl_all_checker_window_allocations_do_not_scale_with_length() {
    let props = designs::properties_at(DesignKind::Des56, AbsLevel::Rtl);
    let mut built =
        designs::build(DesignKind::Des56, AbsLevel::Rtl, 400, 2015, Fault::None).expect("builds");
    let binding = built.binding();
    let checkers = Checker::attach_all(&mut built.sim, &props, binding).expect("suite attaches");

    // Warm-up: pools, tables, queues and arenas reach their working size.
    let window = 200 * CLOCK_PERIOD_NS;
    let mut now = 2 * window;
    built.sim.run_until(SimTime::from_ns(now));

    let mut allocations_in = |len: u64| {
        now += len;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let stats = built.sim.run_until(SimTime::from_ns(now));
        (ALLOCATIONS.load(Ordering::Relaxed) - before, stats)
    };
    let (short, _) = allocations_in(window);
    let (long, stats) = allocations_in(4 * window);
    assert!(now < built.end_ns, "the windows lie inside the workload");
    assert!(stats.events_processed > 0);
    // A fourfold window processes about four times the events; a per-event
    // allocation would show up as hundreds here. Amortized growth of a
    // recording buffer may add a handful.
    assert!(
        long <= short + 8,
        "allocations: {short} in a {window} ns window, {long} in a {} ns window",
        4 * window
    );

    let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
    assert!(report.properties.iter().all(|p| p.failure_count == 0));

    // Cold runs: every IP and level, a short and a long workload.
    let mut cold = Vec::new();
    for design in DesignKind::ALL {
        for level in AbsLevel::ALL {
            for requests in [8, 500] {
                let mut built =
                    designs::build(design, level, requests, 2015, Fault::None).expect("builds");
                let before = ALLOCATIONS.load(Ordering::Relaxed);
                let stats = built.run();
                let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
                assert!(stats.events_processed > 0);
                cold.push((format!("{design:?} {level:?} {requests}"), made));
            }
        }
    }
    assert!(
        cold.iter().all(|&(_, made)| made <= COLD_RUN_BUDGET),
        "cold BuiltDesign::run allocations above {COLD_RUN_BUDGET}: {cold:?}"
    );
}

/// Allocations a fresh `BuiltDesign::run` without checkers may make.
const COLD_RUN_BUDGET: u64 = 8;

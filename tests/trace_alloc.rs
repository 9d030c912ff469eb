//! Allocation proxy for tracing: recording a traced DES56 RTL all-checker
//! run costs less than one heap allocation per recorded event, and
//! exporting the whole trace as Chrome JSON allocates at most twice (the
//! output buffer, plus one growth if some string needs escaping).
//!
//! Trace events borrow their static names, keys and string arguments, and
//! the exporter writes into one pre-sized buffer; an owned string per
//! event, or a temporary string per rendered field, would show up here as
//! several allocations per event.
//!
//! The binary installs a counting global allocator, so it holds this one
//! test only: the harness's other threads must not allocate while a phase
//! is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use abv_checker::Checker;
use abv_obs::{chrome_trace_json, Tracer};
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

/// Heap allocations made while `f` runs, and its result.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn traced_des56_rtl_run_records_and_exports_without_per_event_allocation() {
    let props = designs::properties_at(DesignKind::Des56, AbsLevel::Rtl);
    let mut built =
        designs::build(DesignKind::Des56, AbsLevel::Rtl, 50, 2015, Fault::None).expect("builds");
    let (tracer, sink) = Tracer::memory();
    built.set_tracer(tracer);
    let binding = built.binding();
    let checkers = Checker::attach_all(&mut built.sim, &props, binding).expect("suite attaches");

    let before = sink.borrow().len();
    let (run_allocations, stats) = allocations_in(|| built.run());
    let recorded = (sink.borrow().len() - before) as u64;
    assert!(stats.events_processed > 0);
    assert!(recorded > 1000, "{recorded} events recorded");
    // Left: one buffer per event with arguments, owned track labels and
    // instance-span names, and the sink's growth (about 0.53 per event).
    assert!(
        run_allocations < recorded,
        "{run_allocations} allocations for {recorded} recorded events"
    );

    let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
    assert!(report.properties.iter().all(|p| p.failure_count == 0));
    let events = sink.borrow_mut().take_events();
    let (export_allocations, json) = allocations_in(|| chrome_trace_json(&events));
    assert!(
        export_allocations <= 2,
        "{export_allocations} allocations to export {} events",
        events.len()
    );
    assert_eq!(
        json.matches("\"ph\":\"B\"").count(),
        json.matches("\"ph\":\"E\"").count()
    );
}

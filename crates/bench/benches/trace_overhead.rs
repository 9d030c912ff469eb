//! Tracing-overhead ablation: the same measured simulation loop with
//! (a) the default disabled tracer — the configuration behind every
//! Table I number, which must stay free — and (b) full in-memory
//! recording — the price of `rtl2tlm trace`.
//!
//! Plain timing harness (`harness = false`); run with
//! `cargo bench --bench trace_overhead`.

use std::hint::black_box;

use abv_bench::stopwatch::bench;
use abv_bench::{Design, Level};
use abv_checker::Checker;
use abv_obs::Tracer;
use designs::Fault;

/// Workload size per iteration; small enough for repeated timing.
const SIZE: usize = 120;

/// One full simulation of `design` at `level` with its whole suite
/// attached, under `tracer` (`None` = the production default).
fn traced_run(design: Design, level: Level, tracer: Option<Tracer>) -> u64 {
    let props = designs::properties_at(design, level);
    let mut built = designs::build(design, level, SIZE, 7, Fault::None).expect("level supported");
    if let Some(tracer) = tracer {
        built.set_tracer(tracer);
    }
    let binding = built.binding();
    let checkers = Checker::attach_all(&mut built.sim, &props, binding).expect("installs");
    let stats = built.run();
    let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
    stats.events_processed + report.total_failures()
}

fn main() {
    for (design, level) in [
        (Design::Des56, Level::Rtl),
        (Design::Des56, Level::TlmAt),
        (Design::ColorConv, Level::TlmAt),
    ] {
        println!("trace_overhead/{}/{}", design.label(), level.label());
        bench("disabled tracer (default)", || {
            black_box(traced_run(design, level, None))
        });
        bench("enabled, memory sink", || {
            let (tracer, sink) = Tracer::memory();
            let out = traced_run(design, level, Some(tracer));
            let recorded = sink.borrow().len();
            black_box((out, recorded))
        });
    }
}

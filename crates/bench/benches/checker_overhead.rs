//! Bench behind **Table I**: simulation time per
//! (design, abstraction level, checker count) cell — plus the progression
//! microbench comparing the interned-arena monitor core against the
//! retained `Rc`-tree reference implementation (ns per event at equal
//! verdicts).
//!
//! Plain timing harness (`harness = false`); run with
//! `cargo bench --bench checker_overhead`. The workload size is
//! overridable via `ABV_BENCH_SIZE` (default 120) and the per-benchmark
//! time budget via `ABV_BENCH_BUDGET_MS` (default 1000).

use std::hint::black_box;

use abv_bench::stopwatch::bench;
use abv_bench::{checker_counts, properties_for_level, run, Design, Level};
use abv_checker::{compile, compile_reference, PropertyChecker, ReferenceChecker};
use desim::{SignalId, Simulation};
use psl::ClockedProperty;
use tinyrng::TinyRng;

/// Workload size per iteration; small enough for repeated timing.
fn size() -> usize {
    std::env::var("ABV_BENCH_SIZE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(120)
}

/// A synthetic event stream over the suite's signals: one frame every
/// 10 ns with seeded pseudo-random values, shared by both monitor cores.
/// A frame is dense, indexed by [`SignalId::index`] like the kernel's own
/// signal store, so a read costs what it costs in a real simulation.
fn frames(sigs: &[SignalId], events: usize, seed: u64) -> Vec<(u64, Vec<u64>)> {
    let mut rng = TinyRng::new(seed);
    let width = sigs.iter().map(|s| s.index() + 1).max().unwrap_or(0);
    (1..=events)
        .map(|k| {
            let mut frame = vec![0; width];
            for s in sigs {
                frame[s.index()] = rng.range_u64(0, 4);
            }
            (k as u64 * 10, frame)
        })
        .collect()
}

/// Registers every signal the suite references and compiles both monitor
/// implementations from the same [`ClockedProperty`] list.
fn compile_suites(
    suite: &[(String, ClockedProperty)],
) -> (Vec<SignalId>, Vec<PropertyChecker>, Vec<ReferenceChecker>) {
    let mut sim = Simulation::new();
    let mut sigs = Vec::new();
    for (_, clocked) in suite {
        let mut names = clocked.property.signals();
        if let Some(guard) = clocked.context.guard() {
            names.extend(guard.signals());
        }
        for name in names {
            if sim.signal_id(name).is_none() {
                sigs.push(sim.add_signal(name, 0));
            }
        }
    }
    let arena = suite
        .iter()
        .map(|(name, clocked)| compile(name, clocked, &sim).expect("compiles").0)
        .collect();
    let reference = suite
        .iter()
        .map(|(name, clocked)| compile_reference(name, clocked, &sim).expect("compiles").0)
        .collect();
    (sigs, arena, reference)
}

/// ns-per-event comparison of the two monitor cores on a design's TLM-CA
/// suite. Asserts both report identical verdicts on the shared stream.
/// Each timed pass replays the whole stream through every checker and
/// then finishes them, so the pool and evaluation table drain between
/// passes (report counters accumulate; verdicts stay per-pass identical).
fn progression_bench(design: Design) {
    let suite = properties_for_level(design, Level::TlmCa);
    let (sigs, mut arena_suite, mut reference_suite) = compile_suites(&suite);
    let events = size() * 20;
    let stream = frames(&sigs, events, 0xA0B1);
    let end = (events as u64 + 1) * 10;
    let per_pass = (events * suite.len()) as u32;

    println!(
        "progression/{} ({} properties, {events} events)",
        design.label(),
        suite.len()
    );
    let arena_samples = bench("arena monitor", || {
        for (t, frame) in &stream {
            let read = |sig: SignalId| frame[sig.index()];
            for checker in &mut arena_suite {
                checker.on_event(&read, *t);
            }
        }
        for checker in &mut arena_suite {
            checker.finish(end);
        }
    });
    let reference_samples = bench("reference (Rc tree)", || {
        for (t, frame) in &stream {
            let read = |sig: SignalId| frame[sig.index()];
            for checker in &mut reference_suite {
                checker.on_event(&read, *t);
            }
        }
        for checker in &mut reference_suite {
            checker.finish(end);
        }
    });

    for (arena, reference) in arena_suite.iter().zip(&reference_suite) {
        assert_eq!(
            arena.report().verdict(),
            reference.report().verdict(),
            "verdicts must agree for {}",
            arena.name()
        );
    }
    let arena_ns = arena_samples.min().as_nanos() as f64 / f64::from(per_pass);
    let reference_ns = reference_samples.min().as_nanos() as f64 / f64::from(per_pass);
    println!(
        "  per-event: arena {arena_ns:.1} ns vs reference {reference_ns:.1} ns ({:.2}x)",
        reference_ns / arena_ns
    );
}

fn main() {
    let size = size();
    for design in [Design::Des56, Design::ColorConv] {
        println!("table1/{}", design.label());
        for level in Level::ALL {
            for &n in &checker_counts(design) {
                bench(&format!("{}/{n}C", level.label()), || {
                    black_box(run(design, level, n, size, 7))
                });
            }
        }
    }
    for design in [Design::Des56, Design::ColorConv] {
        progression_bench(design);
    }
}

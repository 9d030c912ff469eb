//! Scheduler throughput bench: events/second of the two-tier kernel
//! (time wheel + delta staging) on the clock-dominated RTL workloads of
//! all three IPs plus a synthetic many-component stress mix.
//!
//! Every repetition of a cell asserts the same [`SimStats`], so two
//! builds' rates compare the same work. `BENCH_kernel.json` at the
//! repository root is the record of the two-tier kernel against the
//! binary-heap scheduler it replaced.
//!
//! Plain timing harness (`harness = false`); run with
//! `cargo bench --bench kernel_throughput`. Knobs:
//!
//! - `ABV_BENCH_SIZE`: RTL workload size (default 120);
//! - `ABV_BENCH_BUDGET_MS`: per-cell time budget (default 1000);
//! - `ABV_BENCH_STRESS`: components in the synthetic mix (default 10000);
//! - `ABV_BENCH_JSON`: if set, write machine-readable results to this
//!   path.

use std::time::{Duration, Instant};

use abv_bench::stopwatch::budget;
use abv_bench::{run, Design, Level};
use desim::{Component, Event, SimCtx, SimStats, SimTime, Simulation};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// One measured cell: best-of wall time and the kernel stats.
struct Cell {
    label: String,
    events: u64,
    two_tier_eps: f64,
}

/// Repeats `go` under the time budget and returns the fastest wall time
/// plus the stats, asserting every repetition does identical work.
fn best_of(mut go: impl FnMut() -> (Duration, SimStats)) -> (Duration, SimStats) {
    let (_, expect) = go(); // warm-up
    let budget = budget();
    let started = Instant::now();
    let mut best = Duration::MAX;
    let mut iters = 0;
    while iters < 3 || (started.elapsed() < budget && iters < 30) {
        let (wall, stats) = go();
        assert_eq!(stats, expect, "run is not deterministic");
        best = best.min(wall);
        iters += 1;
    }
    (best, expect)
}

/// Measures one workload and prints its event rate.
fn cell(label: &str, go: impl FnMut() -> (Duration, SimStats)) -> Cell {
    let (wall, stats) = best_of(go);
    let events = stats.events_processed;
    let out = Cell {
        label: label.to_string(),
        events,
        two_tier_eps: events as f64 / wall.as_secs_f64(),
    };
    println!(
        "  {label:<18} {events:>9} events  two-tier {:>10.0} ev/s",
        out.two_tier_eps
    );
    out
}

/// An edge-sensitive shift-register pipeline: the per-clock RTL consumer
/// of the farm cell, woken on both edges of its clock and doing one
/// register shift per rising edge.
struct Pipeline {
    clk: desim::SignalId,
    out: desim::SignalId,
    det: rtlkit::EdgeDetector,
    shreg: u64,
}

impl Component for Pipeline {
    fn handle(&mut self, _ev: Event, ctx: &mut SimCtx<'_>) {
        let v = ctx.read(self.clk);
        if self.det.is_rising(v) {
            self.shreg = self.shreg.rotate_left(1) ^ 1;
            ctx.write(self.out, self.shreg & 0xFF);
        }
    }
}

/// A farm of `n` independent clocked pipelines in one simulation — the
/// multi-IP SoC shape where the scheduler actually carries load: with `n`
/// clocks pending, a binary heap would pay `O(log n)` per operation while
/// the wheel still inserts and drains in O(1).
fn farm_run(n: usize, horizon_ns: u64) -> (Duration, SimStats) {
    let mut sim = Simulation::new();
    sim.reserve_signals(2 * n);
    for i in 0..n {
        let period = 6 + 2 * (i as u64 % 5); // 6..=14 ns, staggered
        let clk = rtlkit::Clock::install(&mut sim, &format!("clk{i}"), period);
        let out = sim.add_signal(&format!("q{i}"), 0);
        let pipe = sim.add_component(Pipeline {
            clk: clk.signal,
            out,
            det: rtlkit::EdgeDetector::new(),
            shreg: i as u64,
        });
        sim.subscribe(clk.signal, pipe, 0);
    }
    let start = Instant::now();
    let stats = sim.run_until(SimTime::from_ns(horizon_ns));
    (start.elapsed(), stats)
}

/// A synthetic stress component: toggles its own signal every `period` ns
/// (self-subscribed, so each toggle also produces a delta-staged commit
/// wake), exercising the wheel, the staging area and — for the sparse
/// long-period members — the overflow heap.
struct Ticker {
    sig: desim::SignalId,
    period: u64,
    level: u64,
}

impl Component for Ticker {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        if ev.kind == 0 {
            self.level ^= 1;
            ctx.write(self.sig, self.level);
            ctx.schedule_self(self.period, 0);
        }
    }
}

/// Builds and runs the many-component mix: short periods landing in the
/// wheel window, a sparse tail far enough out to spill into overflow.
fn stress_run(components: usize, horizon_ns: u64) -> (Duration, SimStats) {
    let mut sim = Simulation::new();
    sim.reserve_signals(components);
    for i in 0..components {
        let sig = sim.add_signal(&format!("s{i}"), 0);
        let period = if i % 29 == 0 {
            1000 + (i as u64 % 7) * 100 // overflow-heap residents
        } else {
            1 + (i as u64 % 16) // wheel-window residents
        };
        let c = sim.add_component(Ticker {
            sig,
            period,
            level: 0,
        });
        sim.subscribe(sig, c, 1);
        sim.schedule(SimTime::from_ns(1 + (i as u64 % 11)), c, 0);
    }
    let start = Instant::now();
    let stats = sim.run_until(SimTime::from_ns(horizon_ns));
    (start.elapsed(), stats)
}

fn write_json(path: &str, cells: &[Cell]) {
    let mut out = String::from("{\n  \"bench\": \"kernel_throughput\",\n  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"events\": {}, \"two_tier_eps\": {:.1}}}{sep}\n",
            c.label, c.events, c.two_tier_eps
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write bench json");
    println!("wrote {path}");
}

fn main() {
    let size = env_usize("ABV_BENCH_SIZE", 120);
    let stress = env_usize("ABV_BENCH_STRESS", 10_000);
    let mut cells = Vec::new();

    println!("kernel_throughput (size {size}, stress {stress} components)");
    for design in [Design::Des56, Design::ColorConv, Design::Fir] {
        let label = format!("{}/rtl", design.label());
        cells.push(cell(&label, || {
            let r = run(design, Level::Rtl, 0, size, 7);
            (r.wall, r.stats)
        }));
    }
    cells.push(cell("farm/rtl-64", || farm_run(64, 4000)));
    cells.push(cell("stress/mix", || stress_run(stress, 400)));

    if let Ok(path) = std::env::var("ABV_BENCH_JSON") {
        write_json(&path, &cells);
    }
}

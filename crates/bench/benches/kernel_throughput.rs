//! Scheduler throughput bench: events/second of the two-tier kernel
//! (delta staging + timed heap) on the clock-dominated RTL workloads of
//! all three IPs plus two synthetic many-component cells.
//!
//! Every repetition of a cell asserts the same [`SimStats`], so two
//! builds' rates compare the same work.
//!
//! Plain timing harness (`harness = false`); run with
//! `cargo bench --bench kernel_throughput`. Knobs:
//!
//! - `ABV_BENCH_SIZE`: RTL workload size (default 120);
//! - `ABV_BENCH_BUDGET_MS`: per-cell time budget (default 1000);
//! - `ABV_BENCH_STRESS`: components in the synthetic mix (default 10000);
//! - `ABV_BENCH_JSON`: if set, write the ledger to this path
//!   (`scripts/bench.sh` writes `BENCH_kernel.json`): per cell, the
//!   median events/s over the timed repetitions, their interquartile
//!   range as `spread`, and `n`.

use std::time::{Duration, Instant};

use abv_bench::stopwatch::{env_usize, sample, write_ledger, Samples};
use abv_bench::{run, Design, Level};
use desim::{Component, Event, SimCtx, SimStats, SimTime, Simulation};

/// Samples `go`'s event rate under the time budget, asserting every
/// repetition does the warm-up's work, prints the median and returns the
/// ledger cell.
fn cell(
    label: &str,
    mut go: impl FnMut() -> (Duration, SimStats),
) -> (String, &'static str, &'static str, Samples) {
    let mut expect: Option<SimStats> = None;
    let rates = sample(|| {
        let (wall, stats) = go();
        assert_eq!(
            stats,
            *expect.get_or_insert(stats),
            "run is not deterministic"
        );
        stats.events_processed as f64 / wall.as_secs_f64()
    });
    let events = expect.expect("sampled").events_processed;
    println!(
        "  {label:<18} {events:>9} events  median {:>10.0} ev/s  (IQR {:.0}, n {})",
        rates.median(),
        rates.iqr(),
        rates.n()
    );
    (label.to_owned(), "events_per_sec", "1/s", rates)
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

/// A farm of `n` independent clocked pipelines in one simulation: `n`
/// clocks keep `n` events pending on the timed heap, so each clock edge
/// pays `O(log n)` there. No design the workspace builds has this shape
/// (each has one clock or one bus). Measured against the 256-slot time
/// wheel the heap replaced, which inserted and drained such edges in
/// O(1), this cell ran at 0.43× of the wheel's events/s (median of six
/// alternating runs), while the three IP cells ran at 1.03–1.08×;
/// EXPERIMENTS.md "One timed queue" has the runs.
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
/// wake), exercising the timed heap and the staging area.
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

/// Builds and runs the many-component mix: thousands of short periods and
/// a sparse long-period tail, all pending on the timed heap at once. With
/// about 10 000 pending events each push and pop walks a deep heap; this
/// cell ran at 0.36× of the time wheel's events/s (median of six
/// alternating runs), the price of one timed queue sized for one clock
/// or one bus.
fn stress_run(components: usize, horizon_ns: u64) -> (Duration, SimStats) {
    let mut sim = Simulation::new();
    sim.reserve_signals(components);
    for i in 0..components {
        let sig = sim.add_signal(&format!("s{i}"), 0);
        let period = if i % 29 == 0 {
            1000 + (i as u64 % 7) * 100 // sparse tail
        } else {
            1 + (i as u64 % 16)
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
        write_ledger(
            &path,
            "kernel_throughput",
            &[("size", size), ("stress", stress)],
            &cells,
        );
    }
}

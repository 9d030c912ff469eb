//! Regenerates the paper's **Table I** (simulation results): for each test
//! case and abstraction level, the simulation time without checkers and
//! with 1 / 5 / all checkers, plus the checker overhead percentage.
//!
//! The measurement grid is one campaign per IP — every (level, checker
//! count) cell runs `ABV_BENCH_REPS` repetitions, sharded across
//! `ABV_BENCH_WORKERS` threads — and the per-cell best-of wall time is
//! what the table prints.
//!
//! ```text
//! cargo run --release -p abv-bench --bin table1
//! ABV_BENCH_SIZE=10000 cargo run --release -p abv-bench --bin table1
//! ```

use abv_bench::{
    checker_counts, default_reps, default_size, default_workers, measure_grid, overhead_pct,
    Design, Level,
};

fn main() {
    let size = default_size();
    let reps = default_reps();
    let workers = default_workers();
    println!("TABLE I reproduction — simulation results");
    println!("(workload: {size} requests per IP, best of {reps} runs, {workers} worker(s);");
    println!(" absolute times are machine-specific, compare the overhead shape)\n");

    println!("Abstr. level   w/out c. (s)  with c. (s)   overhead   checkers");
    for design in [Design::Des56, Design::ColorConv] {
        println!("--- {} ---", design.label());
        let counts = checker_counts(design);
        let reports = measure_grid(design, size, reps, workers);
        for (li, level) in Level::ALL.into_iter().enumerate() {
            let base = reports[li * counts.len()].wall_min;
            for (ci, &n) in counts.iter().enumerate().skip(1) {
                let with = reports[li * counts.len() + ci].wall_min;
                let label = if n == *counts.last().expect("non-empty") {
                    "All C".to_owned()
                } else {
                    format!("{n} C")
                };
                println!(
                    "{:<14} {:>12.3} {:>12.3} {:>9.1}%   {}",
                    format!("{} {}", level.label(), label),
                    base.as_secs_f64(),
                    with.as_secs_f64(),
                    overhead_pct(base, with),
                    label
                );
            }
        }
        println!();
    }

    println!("Expected shape (paper Table I):");
    println!(" - overhead grows with the number of checkers at every level;");
    println!(" - TLM-CA overhead (unabstracted checkers) exceeds the RTL overhead;");
    println!(" - TLM-AT overhead (abstracted checkers) is roughly an order of");
    println!("   magnitude below the RTL overhead.");
}

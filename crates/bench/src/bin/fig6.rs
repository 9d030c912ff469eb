//! Regenerates the paper's **Fig. 6** (RTL/TLM simulation average
//! speedup): the speedup of each TLM implementation over RTL, with and
//! without checkers.
//!
//! The "with checkers" bar averages the speedups measured at the 1 C, 5 C
//! and All C configurations, mirroring the paper's averaging across
//! checker amounts. All (level, count) cells of one IP are measured by a
//! single campaign sharded across `ABV_BENCH_WORKERS` threads.
//!
//! ```text
//! cargo run --release -p abv-bench --bin fig6
//! ```

use abv_bench::{
    checker_counts, default_reps, default_size, default_workers, measure_grid, Design, Level,
};

fn bar(label: &str, value: f64) {
    let blocks = (value * 4.0).round() as usize;
    println!(
        "  {label:<22} {value:>6.2}x  {}",
        "#".repeat(blocks.min(120))
    );
}

fn main() {
    let size = default_size();
    let reps = default_reps();
    let workers = default_workers();
    println!("FIG. 6 reproduction — RTL/TLM simulation average speedup");
    println!("(workload: {size} requests per IP, best of {reps} runs, {workers} worker(s))\n");

    for design in [Design::Des56, Design::ColorConv] {
        println!("--- {} ---", design.label());
        let counts = checker_counts(design);
        let reports = measure_grid(design, size, reps, workers);
        let wall = |level_idx: usize, count_idx: usize| {
            reports[level_idx * counts.len() + count_idx]
                .wall_min
                .as_secs_f64()
        };

        let rtl_base = wall(0, 0);
        for (ti, level) in [Level::TlmCa, Level::TlmAt].into_iter().enumerate() {
            let speedup_wo = rtl_base / wall(ti + 1, 0);
            let speedups_with: Vec<f64> = (1..counts.len())
                .map(|ci| wall(0, ci) / wall(ti + 1, ci))
                .collect();
            let speedup_with = speedups_with.iter().sum::<f64>() / speedups_with.len() as f64;

            bar(&format!("{} w/out checkers", level.label()), speedup_wo);
            bar(&format!("{} with checkers", level.label()), speedup_with);
        }
        println!();
    }

    println!("Expected shape (paper Fig. 6): adding checkers *decreases* the");
    println!("TLM-CA speedup (unabstracted cycle-accurate checkers drag the");
    println!("event-driven simulation) and *increases* the TLM-AT speedup");
    println!("(abstracted checkers barely touch the sparse event stream while");
    println!("the RTL checkers slow the RTL reference down).");
}

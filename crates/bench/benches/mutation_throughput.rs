//! Mutation-campaign throughput bench: mutants/second of the full
//! kill-matrix campaign (all IPs × catalogue × RTL/TLM-CA/TLM-AT) at
//! 1 and 2 workers (more workers than cores would measure the host's
//! scheduler, not the campaign).
//!
//! Every worker count executes the *same* plan and must produce a
//! byte-identical kill-matrix JSON — the scaling numbers are meaningful
//! only because the result provably does not depend on scheduling.
//!
//! Plain timing harness (`harness = false`); run with
//! `cargo bench --bench mutation_throughput`. Knobs:
//!
//! - `ABV_BENCH_SIZE`: workload size per run (default 8, the tier-1
//!   configuration);
//! - `ABV_BENCH_BUDGET_MS`: per-cell time budget (default 1000);
//! - `ABV_BENCH_JSON`: if set, write machine-readable results to this
//!   path (`scripts/bench.sh` writes `BENCH_mutation.json`): per worker
//!   count, the median mutants/s over the timed iterations, their
//!   interquartile range as `spread`, and `n`.

use std::time::Instant;

use abv_bench::stopwatch::budget;
use abv_campaign::TraceSettings;
use abv_mutate::{run_mutation, MutationPlan};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The worker counts measured: one, and one per core of a 2-core host.
const WORKERS: [usize; 2] = [1, 2];

struct Cell {
    workers: usize,
    /// Mutants/s of every timed iteration, sorted ascending.
    rates: Vec<f64>,
}

impl Cell {
    fn quantile(&self, q: f64) -> f64 {
        self.rates[((self.rates.len() - 1) as f64 * q).round() as usize]
    }

    fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    fn iqr(&self) -> f64 {
        self.quantile(0.75) - self.quantile(0.25)
    }
}

fn write_json(path: &str, mutants: usize, runs: usize, size: usize, cells: &[Cell]) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = format!(
        "{{\n  \"bench\": \"mutation_throughput\",\n  \"host\": {{\"cores\": {cores}}},\n  \
         \"mutants\": {mutants},\n  \"runs\": {runs},\n  \"size\": {size},\n  \"cells\": [\n"
    );
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"label\": \"workers={}\", \"metric\": \"mutants_per_sec\", \"unit\": \"1/s\", \
             \"value\": {:.1}, \"spread\": {:.1}, \"n\": {}}}{sep}\n",
            c.workers,
            c.median(),
            c.iqr(),
            c.rates.len()
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write bench json");
    println!("wrote {path}");
}

fn main() {
    let size = env_usize("ABV_BENCH_SIZE", 8);
    let plan = MutationPlan::new().size(size).seed(2015);
    let mutants: usize = plan.designs.iter().map(|&d| plan.mutants(d).len()).sum();
    let runs = plan.campaign_plan().total_runs();
    println!("mutation_throughput ({mutants} mutants, {runs} runs, size {size})");

    let go = |workers: usize| {
        let start = Instant::now();
        let outcome = run_mutation(&plan, workers, TraceSettings::off()).expect("valid plan");
        (start.elapsed(), outcome.matrix.to_json())
    };
    let mut cells: Vec<Cell> = WORKERS
        .iter()
        .map(|&workers| Cell {
            workers,
            rates: Vec::new(),
        })
        .collect();
    // Warm-up, and the reference every timed campaign must reproduce.
    let (_, expect) = go(1);
    for &workers in &WORKERS[1..] {
        assert_eq!(go(workers).1, expect, "kill matrix depends on worker count");
    }
    // Worker counts alternate, so a busy phase of the host hits them alike.
    let budget = budget();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < 3 || (started.elapsed() < budget && rounds < 100) {
        for cell in &mut cells {
            let (wall, json) = go(cell.workers);
            assert_eq!(json, expect, "campaign is not deterministic");
            cell.rates.push(mutants as f64 / wall.as_secs_f64());
        }
        rounds += 1;
    }
    for cell in &mut cells {
        cell.rates.sort_by(f64::total_cmp);
        println!(
            "  workers {}  median {:>8.1} mutants/s  (IQR {:.1}, n {})",
            cell.workers,
            cell.median(),
            cell.iqr(),
            cell.rates.len()
        );
    }

    if let Ok(path) = std::env::var("ABV_BENCH_JSON") {
        write_json(&path, mutants, runs, size, &cells);
    }
}

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
//! - `ABV_BENCH_JSON`: if set, write the ledger to this path
//!   (`scripts/bench.sh` writes `BENCH_mutation.json`): per worker
//!   count, the median mutants/s over the timed iterations, their
//!   interquartile range as `spread`, and `n`.

use std::time::Instant;

use abv_bench::stopwatch::{budget, env_usize, write_ledger, Samples};
use abv_campaign::TraceSettings;
use abv_mutate::{run_mutation, MutationPlan};

/// The worker counts measured: one, and one per core of a 2-core host.
const WORKERS: [usize; 2] = [1, 2];

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
    // Mutants/s of every timed iteration, per worker count.
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); WORKERS.len()];
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
        for (&workers, rates) in WORKERS.iter().zip(&mut rates) {
            let (wall, json) = go(workers);
            assert_eq!(json, expect, "campaign is not deterministic");
            rates.push(mutants as f64 / wall.as_secs_f64());
        }
        rounds += 1;
    }
    let mut cells = Vec::new();
    for (&workers, rates) in WORKERS.iter().zip(rates) {
        let rates = Samples::new(rates);
        println!(
            "  workers {workers}  median {:>8.1} mutants/s  (IQR {:.1}, n {})",
            rates.median(),
            rates.iqr(),
            rates.n()
        );
        cells.push((
            format!("workers={workers}"),
            "mutants_per_sec",
            "1/s",
            rates,
        ));
    }

    if let Ok(path) = std::env::var("ABV_BENCH_JSON") {
        write_ledger(
            &path,
            "mutation_throughput",
            &[("mutants", mutants), ("runs", runs), ("size", size)],
            &cells,
        );
    }
}

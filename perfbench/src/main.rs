//! The repository benchmark. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <table1-grid|kill-matrix|traced-des56|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record-pins
//! ```
//!
//! Prints a human-readable report, then, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod host;
mod measure;
mod pins;
mod pipeline;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use measure::{Metric, Outcomes};
use spans::Recorder;
use workloads::{Expectations, Sizes, Workload};

const USAGE: &str = "usage: perfbench --workload <table1-grid|kill-matrix|traced-des56|all> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --record-pins";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value).ok_or(format!("unknown workload {value}"))?]
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let comma = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{comma}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Records one pass of every workload at each pinned seed into `pins.txt`.
fn record_pins() -> ExitCode {
    let expect = Expectations::new();
    let mut text = String::from(
        "# Expected outputs per pinned operation: workload, seed, key, fingerprint.\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --record-pins\n",
    );
    for workload in Workload::ALL {
        for seed in pins::PINNED_SEEDS {
            let p = workloads::pass(
                workload,
                seed,
                Sizes::FULL,
                &expect,
                &mut Recorder::new(false),
            );
            if p.failed > 0 {
                eprintln!(
                    "{} seed {seed}: {} rule violations",
                    workload.name(),
                    p.failed
                );
                return ExitCode::FAILURE;
            }
            text.push_str(&pins::render(workload.name(), seed, &p.checks));
        }
    }
    match std::fs::write(pins::PINS_PATH, text) {
        Ok(()) => {
            println!("wrote {}", pins::PINS_PATH);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", pins::PINS_PATH);
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--record-pins"] {
        return record_pins();
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let single = args.workloads.len() == 1;
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for workload in args.workloads {
        let Outcomes {
            attempted: a,
            failed: f,
            metrics: m,
            text,
        } = measure::run(workload, args.seed, args.seconds, args.trace);
        print!("{text}");
        attempted += a;
        failed += f;
        metrics.extend(m.into_iter().map(|metric| Metric {
            name: if single {
                metric.name
            } else {
                format!("{}.{}", workload.name(), metric.name)
            },
            ..metric
        }));
    }
    println!("{}", json_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

//! `rtl2tlm` — command-line front-end for the RTL-to-TLM property
//! abstraction flow.
//!
//! ```text
//! rtl2tlm abstract <file> [--clock-period NS] [--abstract-signal NAME]...
//! rtl2tlm campaign [--design D] [--level L] [--runs N] [--workers N]
//!                  [--size N] [--seed N] [--checkers with|without|both|N]
//!                  [--deterministic] [--trace PATH]
//! rtl2tlm trace [--design D] [--level L] [--requests N] [--seed N]
//!               --out PATH [--vcd PATH]
//! rtl2tlm mutate [--design D] [--level rtl|tlm-ca|tlm-at] [--size N]
//!                [--seed N] [--workers N] [--json] [--trace PATH]
//! ```
//!
//! Property files contain one `name: property` per line; `#` starts a
//! comment. Errors exit with status 1, or 2 when the requested workload is
//! too large to build. See `cargo run --bin rtl2tlm -- abstract --help`.

use std::process::ExitCode;

use rtl2tlm_abv::cli::{self, CampaignParams, CliError, MutateParams, TraceParams};

const USAGE: &str = "\
rtl2tlm — RTL-to-TLM property abstraction (DATE 2015 reproduction)

USAGE:
    rtl2tlm abstract <file> [--clock-period NS] [--abstract-signal NAME]...
    rtl2tlm campaign [--design des56|colorconv|fir]
                     [--level rtl|tlm-ca|tlm-at|tlm-at-bulk]
                     [--runs N] [--workers N] [--size N] [--seed N]
                     [--checkers with|without|both|N] [--deterministic]
                     [--trace PATH]
    rtl2tlm trace [--design des56|colorconv|fir]
                  [--level rtl|tlm-ca|tlm-at|tlm-at-bulk]
                  [--requests N] [--seed N] --out PATH [--vcd PATH]
    rtl2tlm mutate [--design des56|colorconv|fir]
                   [--level rtl|tlm-ca|tlm-at] [--size N] [--seed N]
                   [--workers N] [--json] [--trace PATH]

COMMANDS:
    abstract   Abstract the RTL properties in <file> (one `name: property`
               per line, `#` comments) into TLM properties.
    campaign   Run a seeded multi-run verification campaign sharded across
               worker threads and print the merged report; the part above
               `timing:` is identical for any --workers value
               (--deterministic prints only that part). --trace writes
               the merged per-run trace as Chrome trace-event JSON.
               --runs 1 is a single verdict-only run.
    trace      Run one traced simulation with the full checker suite,
               report the verdicts and write the checker-lifecycle spans,
               kernel counters and transaction instants as Chrome
               trace-event JSON (load the file in ui.perfetto.dev or
               chrome://tracing); at rtl, --vcd also dumps the design's
               signals as a VCD waveform.
    mutate     Run the fault catalogue through the campaign engine and
               print the kill matrix: per-mutant verdicts at each level,
               per-level mutation scores and the cross-level detection
               differential. --json emits the schema-stable report
               (byte-identical for any --workers value); --trace writes
               per-mutant run spans plus the mutation kill-counter track.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e @ CliError::TooLarge(_)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("abstract") => run_abstract(&args[1..]),
        Some("campaign") => run_campaign(&args[1..]),
        Some("trace") => run_trace(&args[1..]),
        Some("mutate") => run_mutate(&args[1..]),
        Some("--help" | "-h") | None => Ok(USAGE.to_owned()),
        Some(other) => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

fn run_abstract(args: &[String]) -> Result<String, CliError> {
    let mut file = None;
    let mut clock_period = 10u64;
    let mut signals: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--clock-period" => {
                clock_period = next_value(&mut it, arg)?
                    .parse()
                    .map_err(|_| CliError::Usage("--clock-period expects ns".to_owned()))?;
            }
            "--abstract-signal" => signals.push(next_value(&mut it, arg)?),
            "--help" | "-h" => return Ok(USAGE.to_owned()),
            other if !other.starts_with('-') && file.is_none() => {
                file = Some(other.to_owned());
            }
            other => return Err(CliError::Usage(format!("unexpected argument `{other}`"))),
        }
    }
    let file = file.ok_or_else(|| CliError::Usage("abstract requires a property file".into()))?;
    let text = std::fs::read_to_string(&file)
        .map_err(|e| CliError::Usage(format!("cannot read `{file}`: {e}")))?;
    let properties = cli::parse_property_file(&text)?;
    cli::run_abstract(&properties, clock_period, &signals)
}

fn run_campaign(args: &[String]) -> Result<String, CliError> {
    let mut params = CampaignParams::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--design" => params.design = next_value(&mut it, arg)?,
            "--level" => params.level = next_value(&mut it, arg)?,
            "--runs" => params.runs = parse_num(&next_value(&mut it, arg)?, arg)?,
            "--workers" => params.workers = parse_num(&next_value(&mut it, arg)?, arg)?,
            "--size" => params.size = parse_num(&next_value(&mut it, arg)?, arg)?,
            "--seed" => params.seed = parse_num(&next_value(&mut it, arg)?, arg)?,
            "--checkers" => params.checkers = next_value(&mut it, arg)?,
            "--deterministic" => params.deterministic = true,
            "--trace" => params.trace = Some(next_value(&mut it, arg)?),
            "--help" | "-h" => return Ok(USAGE.to_owned()),
            other => return Err(CliError::Usage(format!("unexpected argument `{other}`"))),
        }
    }
    cli::run_campaign(&params)
}

fn run_trace(args: &[String]) -> Result<String, CliError> {
    let mut params = TraceParams::default();
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--design" => params.design = next_value(&mut it, arg)?,
            "--level" => params.level = next_value(&mut it, arg)?,
            "--requests" => params.requests = parse_num(&next_value(&mut it, arg)?, arg)?,
            "--seed" => params.seed = parse_num(&next_value(&mut it, arg)?, arg)?,
            "--out" => out = Some(next_value(&mut it, arg)?),
            "--vcd" => params.vcd = Some(next_value(&mut it, arg)?),
            "--help" | "-h" => return Ok(USAGE.to_owned()),
            other => return Err(CliError::Usage(format!("unexpected argument `{other}`"))),
        }
    }
    params.out = out.ok_or_else(|| CliError::Usage("trace requires --out PATH".into()))?;
    cli::run_trace(&params)
}

fn run_mutate(args: &[String]) -> Result<String, CliError> {
    let mut params = MutateParams::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--design" => params.design = Some(next_value(&mut it, arg)?),
            "--level" => params.level = Some(next_value(&mut it, arg)?),
            "--size" => params.size = parse_num(&next_value(&mut it, arg)?, arg)?,
            "--seed" => params.seed = parse_num(&next_value(&mut it, arg)?, arg)?,
            "--workers" => params.workers = parse_num(&next_value(&mut it, arg)?, arg)?,
            "--json" => params.json = true,
            "--trace" => params.trace = Some(next_value(&mut it, arg)?),
            "--help" | "-h" => return Ok(USAGE.to_owned()),
            other => return Err(CliError::Usage(format!("unexpected argument `{other}`"))),
        }
    }
    cli::run_mutate(&params)
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| CliError::Usage(format!("{flag} expects a number")))
}

fn next_value<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<String, CliError> {
    it.next()
        .cloned()
        .ok_or_else(|| CliError::Usage(format!("{flag} expects a value")))
}

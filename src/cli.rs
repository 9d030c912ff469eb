//! Implementation of the `rtl2tlm` command-line tool.
//!
//! Four commands:
//!
//! - `abstract`: read named RTL properties from a file and print their TLM
//!   abstractions (the batch version of the paper's Fig. 3);
//! - `campaign`: expand a design/level/checker grid into a seeded
//!   multi-run verification campaign, shard it across worker threads and
//!   print the merged report (optionally with a merged trace via
//!   `--trace`); `--runs 1` is a single verdict-only run;
//! - `trace`: run one traced simulation under the full checker suite,
//!   report the verdicts and export the checker-lifecycle spans, kernel
//!   counters and transaction instants as Chrome trace-event JSON for
//!   `ui.perfetto.dev` / `chrome://tracing`, optionally dumping an RTL
//!   VCD waveform;
//! - `mutate`: run the fault catalogue of one or all IPs through the
//!   campaign engine at every shared abstraction level and print the kill
//!   matrix — per-mutant verdicts, per-level mutation scores and the
//!   cross-level detection differential (`--json` for the schema-stable
//!   machine-readable report).
//!
//! The parsing/reporting logic lives here (unit-tested); the binary in
//! `src/bin/rtl2tlm.rs` is a thin wrapper.

use std::fmt::Write as _;

use abv_campaign::{CampaignPlan, CheckerMode, PlanError, TraceSettings};
use abv_checker::{CheckReport, Checker};
use abv_core::{abstract_property, AbstractionConfig};
use abv_obs::{chrome_trace_json, TraceEvent, Tracer};
use designs::{AbsLevel, BuildError, DesignKind};
use psl::{ClockEdge, ClockedProperty};
use rtlkit::WaveRecorder;

/// A parsed `name: property` line from a property file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedProperty {
    /// The name before the first `:`.
    pub name: String,
    /// The parsed property.
    pub property: ClockedProperty,
}

/// Errors surfaced to the CLI user.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// A property file line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// Invalid command-line usage.
    Usage(String),
    /// The command asks for a workload too large to build (the binary
    /// exits with status 2 rather than 1).
    TooLarge(String),
}

/// A builder error as a CLI error.
fn build_error(e: &BuildError) -> CliError {
    match e {
        BuildError::WorkloadTooLarge { .. } => CliError::TooLarge(e.to_string()),
        _ => CliError::Usage(e.to_string()),
    }
}

/// A campaign-engine error as a CLI error.
fn plan_error(e: &PlanError) -> CliError {
    match e {
        PlanError::BadCell {
            source: BuildError::WorkloadTooLarge { .. },
            ..
        } => CliError::TooLarge(e.to_string()),
        _ => CliError::Usage(e.to_string()),
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::BadLine { line, message } => write!(f, "line {line}: {message}"),
            CliError::Usage(m) | CliError::TooLarge(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parses a property file: one `name: property` per line, `#` comments and
/// blank lines ignored.
///
/// # Errors
///
/// Returns [`CliError::BadLine`] with the offending line number.
///
/// ```
/// let props = rtl2tlm_abv::cli::parse_property_file(
///     "# DES56\np4: always (!ds || next[17] rdy) @clk_pos\n",
/// )?;
/// assert_eq!(props.len(), 1);
/// assert_eq!(props[0].name, "p4");
/// # Ok::<(), rtl2tlm_abv::cli::CliError>(())
/// ```
pub fn parse_property_file(text: &str) -> Result<Vec<NamedProperty>, CliError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let Some((name, rest)) = trimmed.split_once(':') else {
            return Err(CliError::BadLine {
                line,
                message: "expected `name: property`".to_owned(),
            });
        };
        let property: ClockedProperty =
            rest.trim()
                .parse()
                .map_err(|e: psl::ParseError| CliError::BadLine {
                    line,
                    message: e.to_string(),
                })?;
        out.push(NamedProperty {
            name: name.trim().to_owned(),
            property,
        });
    }
    Ok(out)
}

/// Runs the `abstract` command over already-parsed inputs, returning the
/// rendered report.
///
/// # Errors
///
/// Returns [`CliError::Usage`] when the clock period is zero or a property
/// cannot be abstracted (already TLM, already contains `next_ε^τ`, …).
pub fn run_abstract(
    properties: &[NamedProperty],
    clock_period_ns: u64,
    abstracted_signals: &[String],
) -> Result<String, CliError> {
    let cfg = AbstractionConfig::new(clock_period_ns)
        .map_err(|e| CliError::Usage(format!("--clock-period: {e}")))?
        .abstract_signals(abstracted_signals.iter().cloned());
    let mut out = String::new();
    for np in properties {
        let a = abstract_property(&np.property, &cfg)
            .map_err(|e| CliError::Usage(format!("{}: {e}", np.name)))?;
        let _ = writeln!(out, "{} (RTL): {}", np.name, np.property);
        match a.result() {
            Some(q) => {
                let _ = writeln!(out, "{} (TLM): {}", np.name, q);
            }
            None => {
                let _ = writeln!(out, "{} (TLM): (deleted)", np.name);
            }
        }
        let _ = writeln!(out, "        [{}]", a.consequence());
        if !a.removed_atoms().is_empty() {
            let removed: Vec<String> = a.removed_atoms().iter().map(ToString::to_string).collect();
            let _ = writeln!(out, "        removed: {}", removed.join(", "));
        }
    }
    Ok(out)
}

/// Parameters of the `campaign` command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignParams {
    /// `des56`, `colorconv` or `fir`.
    pub design: String,
    /// `rtl`, `tlm-ca`, `tlm-at` or `tlm-at-bulk`.
    pub level: String,
    /// Repetitions per cell.
    pub runs: usize,
    /// Worker threads.
    pub workers: usize,
    /// Workload size per run.
    pub size: usize,
    /// Base seed the per-run seeds are forked from.
    pub seed: u64,
    /// `with`, `without`, `both` or a checker count.
    pub checkers: String,
    /// Print only the scheduling-independent summary (for diffing the
    /// merged result across `--workers` values).
    pub deterministic: bool,
    /// Optional Chrome trace-event JSON output path for the merged
    /// campaign trace (one trace process per run). With
    /// `deterministic`, wall-clock annotations are omitted so the file
    /// is byte-identical across `--workers` values.
    pub trace: Option<String>,
}

impl Default for CampaignParams {
    fn default() -> CampaignParams {
        CampaignParams {
            design: "colorconv".to_owned(),
            level: "tlm-at".to_owned(),
            runs: 20,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            size: 100,
            seed: 2015,
            checkers: "with".to_owned(),
            deterministic: false,
            trace: None,
        }
    }
}

/// Runs the `campaign` command: builds the plan, shards it across the
/// requested workers and renders the merged report.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown designs/levels/checker modes
/// and for plans the engine rejects (e.g. zero runs), and
/// [`CliError::TooLarge`] for a `size` too large to build.
pub fn run_campaign(params: &CampaignParams) -> Result<String, CliError> {
    let design = DesignKind::parse(&params.design).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown design `{}` (expected des56, colorconv or fir)",
            params.design
        ))
    })?;
    let level = AbsLevel::parse(&params.level).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown level `{}` (expected rtl, tlm-ca, tlm-at or tlm-at-bulk)",
            params.level
        ))
    })?;
    let modes: Vec<CheckerMode> = match params.checkers.as_str() {
        "both" => vec![CheckerMode::All, CheckerMode::None],
        other => vec![CheckerMode::parse(other).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown checker mode `{other}` (expected with, without, both or a count)"
            ))
        })?],
    };
    let mut plan = CampaignPlan::new(format!("{} @ {}", design.label(), level.label()))
        .runs(params.runs)
        .size(params.size)
        .seed(params.seed);
    for mode in modes {
        plan = plan.cell(design, level, mode);
    }
    let settings = match (&params.trace, params.deterministic) {
        (None, _) => TraceSettings::off(),
        (Some(_), true) => TraceSettings::deterministic(),
        (Some(_), false) => TraceSettings::on(),
    };
    let report = abv_campaign::run_campaign_with(&plan, params.workers, settings)
        .map_err(|e| plan_error(&e))?;
    if let Some(path) = &params.trace {
        std::fs::write(path, chrome_trace_json(&report.trace))
            .map_err(|e| CliError::Usage(format!("cannot write `{path}`: {e}")))?;
    }
    if params.deterministic {
        Ok(report.deterministic_summary())
    } else {
        Ok(report.to_string())
    }
}

/// Parameters of the `mutate` command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutateParams {
    /// Restrict to one design (`des56`, `colorconv`, `fir`); `None` runs
    /// all three.
    pub design: Option<String>,
    /// Restrict to one level (`rtl`, `tlm-ca`, `tlm-at`); `None` runs all
    /// shared levels.
    pub level: Option<String>,
    /// Workload size per run.
    pub size: usize,
    /// Base seed (workloads and seeded bit-flip positions).
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// Emit the schema-stable JSON report instead of the table.
    pub json: bool,
    /// Optional Chrome trace-event JSON output path (per-mutant run spans
    /// plus the `mutation:` kill-counter track; deterministic, so the
    /// file is byte-identical across `--workers` values).
    pub trace: Option<String>,
}

impl Default for MutateParams {
    fn default() -> MutateParams {
        MutateParams {
            design: None,
            level: None,
            size: 8,
            seed: 2015,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            json: false,
            trace: None,
        }
    }
}

/// Runs the `mutate` command: expands the mutation plan, executes the
/// kill-matrix campaign and renders the matrix (table or JSON).
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown designs/levels, plans the
/// engine rejects and trace files that cannot be written, and
/// [`CliError::TooLarge`] for a `size` too large to build.
pub fn run_mutate(params: &MutateParams) -> Result<String, CliError> {
    let mut plan = abv_mutate::MutationPlan::new()
        .size(params.size)
        .seed(params.seed);
    if let Some(design) = &params.design {
        let design = DesignKind::parse(design).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown design `{design}` (expected des56, colorconv or fir)"
            ))
        })?;
        plan = plan.design(design);
    }
    if let Some(level) = &params.level {
        let level = AbsLevel::parse(level)
            .filter(|l| AbsLevel::ALL.contains(l))
            .ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown level `{level}` (expected rtl, tlm-ca or tlm-at)"
                ))
            })?;
        plan = plan.level(level);
    }
    let settings = if params.trace.is_some() {
        TraceSettings::deterministic()
    } else {
        TraceSettings::off()
    };
    let outcome =
        abv_mutate::run_mutation(&plan, params.workers, settings).map_err(|e| plan_error(&e))?;
    if let Some(path) = &params.trace {
        std::fs::write(path, chrome_trace_json(&outcome.campaign.trace))
            .map_err(|e| CliError::Usage(format!("cannot write `{path}`: {e}")))?;
    }
    if params.json {
        let mut json = outcome.matrix.to_json();
        json.push('\n');
        Ok(json)
    } else {
        Ok(outcome.matrix.to_string())
    }
}

/// Parameters of the `trace` command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParams {
    /// `des56`, `colorconv` or `fir`.
    pub design: String,
    /// `rtl`, `tlm-ca`, `tlm-at` or `tlm-at-bulk`.
    pub level: String,
    /// Number of workload requests.
    pub requests: usize,
    /// Workload seed.
    pub seed: u64,
    /// Chrome trace-event JSON output path.
    pub out: String,
    /// Optional VCD waveform output path (RTL level only).
    pub vcd: Option<String>,
}

impl Default for TraceParams {
    fn default() -> TraceParams {
        TraceParams {
            design: "des56".to_owned(),
            level: "tlm-at".to_owned(),
            requests: 16,
            seed: 2015,
            out: "trace.json".to_owned(),
            vcd: None,
        }
    }
}

/// Runs the `trace` command: one fault-free simulation of the chosen
/// design/level with its full checker suite attached and a memory tracer
/// recording every span, instant and counter sample. The stream is
/// written as Chrome trace-event JSON and the checker report is returned
/// alongside a pointer to the file. At RTL, `vcd` also records the
/// design's signals at rising clock edges and writes them as a VCD
/// waveform.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown designs/levels, VCD requests
/// above RTL (before any file is written), suites that do not attach, and
/// output files that cannot be written, and [`CliError::TooLarge`] for a
/// request count too large to build.
pub fn run_trace(params: &TraceParams) -> Result<String, CliError> {
    let design = DesignKind::parse(&params.design).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown design `{}` (expected des56, colorconv or fir)",
            params.design
        ))
    })?;
    let level = AbsLevel::parse(&params.level).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown level `{}` (expected rtl, tlm-ca, tlm-at or tlm-at-bulk)",
            params.level
        ))
    })?;
    if params.vcd.is_some() && level != AbsLevel::Rtl {
        return Err(CliError::Usage(
            "--vcd is only available at the rtl level".to_owned(),
        ));
    }
    let props = designs::properties_at(design, level);
    let mut built = designs::build(
        design,
        level,
        params.requests,
        params.seed,
        designs::Fault::None,
    )
    .map_err(|e| build_error(&e))?;
    // Tracer first, so checker track metadata lands in the stream.
    let (tracer, sink) = Tracer::memory();
    built.set_tracer(tracer);
    let binding = built.binding();
    let checkers = Checker::attach_all(&mut built.sim, &props, binding)
        .map_err(|(i, e)| CliError::Usage(format!("property {i}: {e}")))?;
    // The checkers take the same components, and so the same trace
    // tracks, with or without the waveform recorder.
    let wave = match (&params.vcd, built.clk) {
        (Some(path), Some(clk)) => {
            let signals = design.rtl_signals();
            let rec = WaveRecorder::install(&mut built.sim, clk, ClockEdge::Pos, signals);
            Some((path, signals, rec))
        }
        _ => None,
    };
    built.run();
    let end = built.end_ns;
    let report = Checker::collect(&mut built.sim, &checkers, end);
    let label = format!("{} @ {}", design.label(), level.label());
    let mut events = vec![TraceEvent::process_name(0, label.clone())];
    events.extend(sink.borrow_mut().take_events());
    std::fs::write(&params.out, chrome_trace_json(&events))
        .map_err(|e| CliError::Usage(format!("cannot write `{}`: {e}", params.out)))?;
    let mut out = format!(
        "wrote {} trace events to {} (load in ui.perfetto.dev or chrome://tracing)\n",
        events.len(),
        params.out
    );
    if let Some((path, signals, rec)) = wave {
        let module = design.label().to_lowercase();
        dump_vcd(&built.sim, rec, path, &module, signals)?;
        let _ = writeln!(
            out,
            "wrote a VCD waveform of {} signals to {path}",
            signals.len()
        );
    }
    let _ = write!(out, "{}", render_report(&label, &report));
    Ok(out)
}

fn dump_vcd(
    sim: &desim::Simulation,
    rec: rtlkit::RecorderHandle,
    path: &str,
    module: &str,
    signals: &[&str],
) -> Result<(), CliError> {
    let trace = WaveRecorder::take_trace(sim, rec);
    let options = rtlkit::vcd::VcdOptions {
        module: module.to_owned(),
        comment: "rtl2tlm trace".to_owned(),
    };
    let text = rtlkit::vcd::to_vcd_string(&trace, signals, &options)
        .map_err(|e| CliError::Usage(format!("vcd export failed: {e}")))?;
    std::fs::write(path, text).map_err(|e| CliError::Usage(format!("cannot write `{path}`: {e}")))
}

fn render_report(header: &str, report: &CheckReport) -> String {
    let mut out = format!("== {header} ==\n");
    let _ = write!(out, "{report}");
    let nodes: usize = report.properties.iter().map(|p| p.arena_nodes).sum();
    let hits: u64 = report.properties.iter().map(|p| p.memo_hits).sum();
    let misses: u64 = report.properties.iter().map(|p| p.memo_misses).sum();
    let lookups = hits + misses;
    if nodes > 0 {
        let pct = (hits * 100).checked_div(lookups).unwrap_or(0);
        let _ = writeln!(
            out,
            "arena: {nodes} nodes, memo hit rate {pct}% ({hits}/{lookups} lookups)"
        );
    }
    let verdict = if report.all_pass() {
        "ALL PASS"
    } else {
        "FAILURES PRESENT"
    };
    let _ = writeln!(out, "=> {verdict}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_runs_and_reports() {
        let params = CampaignParams {
            design: "colorconv".to_owned(),
            level: "tlm-ca".to_owned(),
            runs: 3,
            workers: 2,
            size: 5,
            seed: 7,
            checkers: "with".to_owned(),
            deterministic: false,
            trace: None,
        };
        let out = run_campaign(&params).unwrap();
        assert!(out.contains("campaign ColorConv @ TLM-CA"), "{out}");
        assert!(out.contains("verdict: PASS"), "{out}");
        assert!(out.contains("timing:"), "{out}");
    }

    #[test]
    fn campaign_deterministic_summary_is_worker_independent() {
        let mut params = CampaignParams {
            design: "des56".to_owned(),
            level: "tlm-at".to_owned(),
            runs: 4,
            workers: 1,
            size: 5,
            seed: 11,
            checkers: "both".to_owned(),
            deterministic: true,
            trace: None,
        };
        let solo = run_campaign(&params).unwrap();
        params.workers = 4;
        let pooled = run_campaign(&params).unwrap();
        assert_eq!(solo, pooled);
        assert!(!solo.contains("timing:"), "{solo}");
    }

    #[test]
    fn campaign_rejects_unknown_inputs() {
        let bad = [
            CampaignParams {
                design: "z80".to_owned(),
                ..CampaignParams::default()
            },
            CampaignParams {
                level: "gate".to_owned(),
                ..CampaignParams::default()
            },
            CampaignParams {
                checkers: "maybe".to_owned(),
                ..CampaignParams::default()
            },
            CampaignParams {
                design: "des56".to_owned(),
                level: "tlm-at-bulk".to_owned(),
                ..CampaignParams::default()
            },
        ];
        for params in bad {
            assert!(
                matches!(run_campaign(&params).unwrap_err(), CliError::Usage(_)),
                "{params:?} should be rejected"
            );
        }
    }

    #[test]
    fn mutate_renders_the_kill_matrix_table() {
        let params = MutateParams {
            design: Some("fir".to_owned()),
            level: Some("rtl".to_owned()),
            size: 3,
            seed: 7,
            workers: 2,
            json: false,
            trace: None,
        };
        let out = run_mutate(&params).unwrap();
        assert!(out.contains("kill matrix"), "{out}");
        assert!(out.contains("mutation score"), "{out}");
        assert!(out.contains("5/5"), "{out}");
        assert!(out.contains("clean"), "{out}");
        assert!(out.contains("no detection regressions"), "{out}");
    }

    #[test]
    fn mutate_json_is_worker_independent() {
        let mut params = MutateParams {
            design: Some("fir".to_owned()),
            level: None,
            size: 3,
            seed: 7,
            workers: 1,
            json: true,
            trace: None,
        };
        let solo = run_mutate(&params).unwrap();
        params.workers = 8;
        let pooled = run_mutate(&params).unwrap();
        assert_eq!(solo, pooled);
        assert!(
            solo.starts_with("{\"schema\":\"rtl2tlm-kill-matrix-v1\""),
            "{solo}"
        );
        assert!(solo.ends_with("\n"), "trailing newline");
    }

    #[test]
    fn mutate_rejects_unknown_inputs() {
        let bad = [
            MutateParams {
                design: Some("z80".to_owned()),
                ..MutateParams::default()
            },
            MutateParams {
                level: Some("gate".to_owned()),
                ..MutateParams::default()
            },
            MutateParams {
                level: Some("tlm-at-bulk".to_owned()),
                ..MutateParams::default()
            },
        ];
        for params in bad {
            assert!(
                matches!(run_mutate(&params).unwrap_err(), CliError::Usage(_)),
                "{params:?} should be rejected"
            );
        }
    }

    #[test]
    fn mutate_trace_carries_the_kill_counter_track() {
        let dir = std::env::temp_dir().join("rtl2tlm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mutate_trace.json");
        let params = MutateParams {
            design: Some("fir".to_owned()),
            level: Some("rtl".to_owned()),
            size: 3,
            seed: 7,
            workers: 2,
            json: true,
            trace: Some(path.to_string_lossy().into_owned()),
        };
        run_mutate(&params).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"name\":\"run\""), "{json}");
        assert!(json.contains("mutation:FIR:RTL"), "{json}");
        assert!(!json.contains("wall_us"), "deterministic trace: {json}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn property_file_parsing() {
        let text = "# suite\n\n p4 : always (!ds || next[17] rdy) @clk_pos\nq: rdy @T_b\n";
        let props = parse_property_file(text).unwrap();
        assert_eq!(props.len(), 2);
        assert_eq!(props[0].name, "p4");
        assert!(props[1].property.context.is_transaction());
    }

    #[test]
    fn property_file_errors_carry_line_numbers() {
        let err = parse_property_file("ok: rdy @clk_pos\nbroken line\n").unwrap_err();
        assert_eq!(
            err,
            CliError::BadLine {
                line: 2,
                message: "expected `name: property`".to_owned()
            }
        );
        let err = parse_property_file("\n\nx: next[0] rdy\n").unwrap_err();
        assert!(matches!(err, CliError::BadLine { line: 3, .. }));
    }

    #[test]
    fn abstract_command_renders_fig3() {
        let props = parse_property_file(
            "p3: always (!ds || (next[15](rdy_next_next_cycle) && next[16](rdy_next_cycle) \
             && next[17](rdy))) @clk_pos\n",
        )
        .unwrap();
        let out = run_abstract(
            &props,
            10,
            &[
                "rdy_next_cycle".to_owned(),
                "rdy_next_next_cycle".to_owned(),
            ],
        )
        .unwrap();
        assert!(
            out.contains("p3 (TLM): always ((!ds) || (next_et[1, 170] rdy)) @T_b"),
            "{out}"
        );
        assert!(out.contains("weakened"), "{out}");
        assert!(
            out.contains("removed: rdy_next_next_cycle, rdy_next_cycle"),
            "{out}"
        );
    }

    #[test]
    fn abstract_command_rejects_zero_clock_period() {
        let props = parse_property_file("p: always (!ds || next[2] rdy) @clk_pos\n").unwrap();
        let err = run_abstract(&props, 0, &[]).unwrap_err();
        assert_eq!(
            err,
            CliError::Usage("--clock-period: clock period must be positive".to_owned())
        );
    }

    #[test]
    fn abstract_command_rejects_tlm_input() {
        let props = parse_property_file("q: rdy @T_b\n").unwrap();
        let err = run_abstract(&props, 10, &[]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    /// A [`TraceParams`] writing its trace JSON to a per-test file.
    fn trace_params(name: &str) -> TraceParams {
        let dir = std::env::temp_dir().join("rtl2tlm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        TraceParams {
            requests: 4,
            out: dir.join(name).to_string_lossy().into_owned(),
            ..TraceParams::default()
        }
    }

    #[test]
    fn trace_rtl_des56_passes() {
        let params = TraceParams {
            level: "rtl".to_owned(),
            ..trace_params("rtl_des56.json")
        };
        let out = run_trace(&params).unwrap();
        assert!(out.contains("DES56 @ RTL"), "{out}");
        assert!(out.contains("ALL PASS"), "{out}");
        std::fs::remove_file(&params.out).ok();
    }

    #[test]
    fn trace_tlm_at_colorconv_reports_expected_failures() {
        // c9 and c10 are expected to fail at loose TLM-AT (classification),
        // so the overall verdict mentions failures — still a correct run.
        let params = TraceParams {
            design: "colorconv".to_owned(),
            ..trace_params("at_colorconv.json")
        };
        let out = run_trace(&params).unwrap();
        assert!(out.contains("ColorConv @ TLM-AT"), "{out}");
        assert!(out.contains("c1: PASS"), "{out}");
        std::fs::remove_file(&params.out).ok();
    }

    #[test]
    fn trace_rejects_vcd_above_rtl() {
        let vcd = std::env::temp_dir()
            .join("rtl2tlm_cli_test")
            .join("rejected.vcd");
        for level in ["tlm-ca", "tlm-at", "tlm-at-bulk"] {
            let params = TraceParams {
                level: level.to_owned(),
                vcd: Some(vcd.to_string_lossy().into_owned()),
                ..trace_params("rejected.json")
            };
            assert_eq!(
                run_trace(&params),
                Err(CliError::Usage(
                    "--vcd is only available at the rtl level".to_owned()
                )),
                "{level}"
            );
            assert!(!std::path::Path::new(&params.out).exists(), "{level}");
            assert!(!vcd.exists(), "{level}");
        }
    }

    #[test]
    fn trace_writes_vcd_at_rtl() {
        for (design, module) in [
            ("des56", "des56"),
            ("colorconv", "colorconv"),
            ("fir", "fir"),
        ] {
            let vcd = std::env::temp_dir()
                .join("rtl2tlm_cli_test")
                .join(format!("{design}.vcd"));
            let params = TraceParams {
                design: design.to_owned(),
                level: "rtl".to_owned(),
                requests: 2,
                vcd: Some(vcd.to_string_lossy().into_owned()),
                ..trace_params(&format!("{design}_vcd.json"))
            };
            let out = run_trace(&params).unwrap();
            assert!(out.contains("ALL PASS"), "{out}");
            assert!(out.contains("VCD waveform"), "{out}");
            let text = std::fs::read_to_string(&vcd).unwrap();
            assert!(text.contains("$var wire 64"), "{text}");
            assert!(text.contains(&format!("$scope module {module}")), "{text}");
            assert!(text.contains("rtl2tlm trace"), "{text}");
            std::fs::remove_file(&vcd).ok();
            std::fs::remove_file(&params.out).ok();
        }
    }

    #[test]
    fn trace_command_writes_chrome_trace_json() {
        let dir = std::env::temp_dir().join("rtl2tlm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let params = TraceParams {
            requests: 4,
            out: path.to_string_lossy().into_owned(),
            ..TraceParams::default()
        };
        let out = run_trace(&params).unwrap();
        assert!(out.contains("trace events"), "{out}");
        assert!(out.contains("DES56 @ TLM-AT"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.starts_with("[\n") && json.ends_with("\n]\n"), "{json}");
        // Every checker-instance span that opened also closed.
        let begins = json.matches("\"ph\":\"B\"").count();
        assert!(begins > 0, "{json}");
        assert_eq!(begins, json.matches("\"ph\":\"E\"").count(), "{json}");
        // Kernel counter track and process/track labels are present.
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\"process_name\""), "{json}");
        assert!(json.contains("\"thread_name\""), "{json}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn campaign_trace_gets_one_process_per_run() {
        let dir = std::env::temp_dir().join("rtl2tlm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign_trace.json");
        let params = CampaignParams {
            design: "des56".to_owned(),
            level: "tlm-at".to_owned(),
            runs: 2,
            workers: 2,
            size: 4,
            seed: 3,
            checkers: "with".to_owned(),
            deterministic: true,
            trace: Some(path.to_string_lossy().into_owned()),
        };
        run_campaign(&params).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"name\":\"run\""), "{json}");
        assert!(json.contains("\"pid\":0"), "{json}");
        assert!(json.contains("\"pid\":1"), "{json}");
        assert!(!json.contains("wall_us"), "deterministic trace: {json}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_rejects_unknown_inputs() {
        let params = TraceParams {
            design: "nope".to_owned(),
            ..TraceParams::default()
        };
        assert!(matches!(run_trace(&params), Err(CliError::Usage(_))));
        let params = TraceParams {
            level: "gate".to_owned(),
            ..TraceParams::default()
        };
        assert!(matches!(run_trace(&params), Err(CliError::Usage(_))));
    }
}

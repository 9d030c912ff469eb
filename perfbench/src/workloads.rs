//! The three workloads. Each is a closed loop of passes: the next pass
//! starts when the previous one returns. A pass is all the work one
//! workload repeats; its operations are checked against reference
//! fingerprints (the pins, or the first pass for an unpinned seed).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;

use abv_campaign::{run_seed, CheckerMode, TraceSettings};
use abv_mutate::{run_mutation, KillMatrix, MutantCell, MutationPlan};
use designs::{AbsLevel, DesignKind, Fault};

use crate::host;
use crate::pipeline::{execute, Outcome, Spec};
use crate::spans::{Recorder, Span};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table I: 3 IPs × RTL/TLM-CA/TLM-AT × {0, 1, 5, all}
    /// checkers, 36 long all-pass-path runs on one thread.
    Table1Grid,
    /// The full mutation campaign on 2 workers, then its JSON: many short
    /// runs on the checkers' failure path.
    KillMatrix,
    /// DES56 at every level with an in-memory `abv-obs` tracer and Chrome
    /// trace export: the only workload with the program's tracing on.
    TracedDes56,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Table1Grid,
        Workload::KillMatrix,
        Workload::TracedDes56,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Grid => "table1-grid",
            Workload::KillMatrix => "kill-matrix",
            Workload::TracedDes56 => "traced-des56",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload sizes, in requests per simulation run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub grid: usize,
    pub mutation: usize,
    pub traced: usize,
}

impl Sizes {
    /// The benchmark's sizes: Table I at 500 requests per cell, the
    /// shipped mutation plan size (8), 50 traced requests per level.
    ///
    /// Times are minima over passes, and a short call finds a quiet moment
    /// on a contended host more often than a long one: at 2000 and 200
    /// requests the slowest cells' minima spread 7–12 % over ten runs, at
    /// 500 and 50 requests 3–7 %, for the same per-request cost.
    pub const FULL: Sizes = Sizes {
        grid: 500,
        mutation: 8,
        traced: 50,
    };
}

/// Worker threads of the kill-matrix campaign.
pub const MUTATION_WORKERS: usize = 2;

/// Table I's checker counts: without, 1, 5 and all.
const GRID_CHECKERS: [CheckerMode; 4] = [
    CheckerMode::None,
    CheckerMode::First(1),
    CheckerMode::First(5),
    CheckerMode::All,
];

/// The kill-matrix campaign's own results.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign runs (catalogue entries × levels).
    pub runs: usize,
    pub t_mutation: Duration,
    pub t_json: Duration,
    pub json: String,
}

/// One pass of a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// The measured operation: the whole pass, in CPU time, for
    /// table1-grid and traced-des56; `run_mutation` + `to_json`, in wall
    /// time (the campaign runs on two workers), for kill-matrix.
    pub time: Duration,
    /// Set-up before simulation, summed over the pass's runs (plus plan
    /// expansion for kill-matrix).
    pub setup: Duration,
    /// The benchmark-timed simulation runs (kill-matrix: the serial
    /// replay of the campaign's run specs).
    pub runs: Vec<Outcome>,
    /// `(key, fingerprint)` of every pinned operation.
    pub checks: Vec<(String, String)>,
    /// Operations attempted in the pass.
    pub attempted: u64,
    /// Operations that broke a rule holding for every seed.
    pub failed: u64,
    pub campaign: Option<Campaign>,
}

/// Properties expected to pass per `(design, level)` on the unmutated
/// design, whatever the seed.
pub struct Expectations(HashMap<(DesignKind, AbsLevel), Vec<String>>);

impl Expectations {
    pub fn new() -> Expectations {
        let mut map = HashMap::new();
        for design in DesignKind::ALL {
            for level in AbsLevel::ALL {
                let names = designs::passing_properties_at(design, level)
                    .into_iter()
                    .map(|(name, _)| name)
                    .collect();
                map.insert((design, level), names);
            }
        }
        Expectations(map)
    }

    /// True if no expected-passing property attached to the unmutated run
    /// failed.
    fn holds(&self, run: &Outcome) -> bool {
        if run.spec.fault != Fault::None {
            return true;
        }
        self.0[&(run.spec.design, run.spec.level)]
            .iter()
            .all(|name| {
                run.report
                    .property(name)
                    .is_none_or(|p| p.failure_count == 0)
            })
    }
}

/// The simulation runs of one table1-grid or traced-des56 pass.
fn specs(workload: Workload, seed: u64, sizes: Sizes) -> Vec<Spec> {
    let mut specs = Vec::new();
    match workload {
        Workload::Table1Grid => {
            for (d, design) in DesignKind::ALL.into_iter().enumerate() {
                for (l, level) in AbsLevel::ALL.into_iter().enumerate() {
                    // Equal seed across checker counts: each cell of a row
                    // simulates the same stimulus.
                    let seed = run_seed(seed, d * AbsLevel::ALL.len() + l, 0);
                    for checkers in GRID_CHECKERS {
                        specs.push(Spec {
                            design,
                            level,
                            checkers,
                            fault: Fault::None,
                            size: sizes.grid,
                            seed,
                            traced: false,
                        });
                    }
                }
            }
        }
        Workload::TracedDes56 => {
            for (l, level) in AbsLevel::ALL.into_iter().enumerate() {
                specs.push(Spec {
                    design: DesignKind::Des56,
                    level,
                    checkers: CheckerMode::All,
                    fault: Fault::None,
                    size: sizes.traced,
                    seed: run_seed(seed, l, 0),
                    traced: true,
                });
            }
        }
        Workload::KillMatrix => unreachable!("kill-matrix runs come from its plan"),
    }
    specs
}

/// The mutation plan of a kill-matrix pass.
pub fn mutation_plan(seed: u64, sizes: Sizes) -> MutationPlan {
    MutationPlan::new().seed(seed).size(sizes.mutation)
}

/// Runs one pass of `workload`.
pub fn pass(
    workload: Workload,
    seed: u64,
    sizes: Sizes,
    expect: &Expectations,
    rec: &mut Recorder,
) -> Pass {
    match workload {
        Workload::KillMatrix => kill_matrix_pass(seed, sizes, rec),
        _ => simulation_pass(&specs(workload, seed, sizes), expect, rec),
    }
}

fn simulation_pass(specs: &[Spec], expect: &Expectations, rec: &mut Recorder) -> Pass {
    let open = rec.begin("bench.pass");
    let runs: Vec<Outcome> = specs.iter().map(|&spec| execute(spec, rec)).collect();
    let time = rec.end(open);
    let failed = runs
        .iter()
        .filter(|run| !expect.holds(run) || run.export.as_ref().is_some_and(|e| !e.balanced()))
        .count() as u64;
    let mut runs = runs;
    for run in &mut runs {
        // The JSON was only kept for the balance check.
        if let Some(export) = &mut run.export {
            export.json = String::new();
        }
    }
    Pass {
        time,
        setup: runs.iter().map(Outcome::setup).sum(),
        checks: runs
            .iter()
            .map(|run| (run.spec.key(), run.fingerprint()))
            .collect(),
        attempted: runs.len() as u64,
        failed,
        runs,
        campaign: None,
    }
}

fn kill_matrix_pass(seed: u64, sizes: Sizes, rec: &mut Recorder) -> Pass {
    let plan = mutation_plan(seed, sizes);
    let open = rec.begin("bench.pass");
    let (run_specs, t_expand) = rec.time("abv-campaign.run_specs", || {
        plan.campaign_plan().run_specs()
    });
    let (outcome, t_mutation) = rec.time_wall("abv-mutate.run_mutation", || {
        run_mutation(&plan, MUTATION_WORKERS, TraceSettings::off())
    });
    let matrix = outcome.expect("the full-catalogue plan is valid").matrix;
    let (json, t_json) = rec.time_wall("abv-mutate.to_json", || matrix.to_json());
    let runs: Vec<Outcome> = run_specs
        .iter()
        .map(|run| {
            let spec = Spec {
                design: run.spec.design,
                level: run.spec.level,
                checkers: run.spec.checkers,
                fault: run.spec.fault,
                size: run.size,
                seed: run.seed,
                traced: false,
            };
            execute(spec, rec)
        })
        .collect();
    rec.end(open);

    // The replay walks the run specs in the plan's design → fault → level
    // order, which is the order of the matrix cells.
    let cells: Vec<(DesignKind, Fault, &MutantCell)> = matrix
        .designs
        .iter()
        .flat_map(|dm| {
            dm.mutants
                .iter()
                .flat_map(move |row| row.cells.iter().map(move |c| (dm.design, row.fault, c)))
        })
        .collect();
    let mut failed = runs
        .iter()
        .zip(&cells)
        .filter(|(run, (_, _, cell))| !replay_agrees(run, cell))
        .count() as u64;
    failed += u64::from(runs.len() != cells.len());
    failed += u64::from(!matrix_holds(&matrix));

    let mut checks: Vec<(String, String)> = cells
        .iter()
        .map(|(design, fault, cell)| {
            (
                format!("{}/{}/{fault}", design.label(), cell.level.label()),
                cell_fingerprint(cell),
            )
        })
        .collect();
    checks.push(("json".to_owned(), json_fingerprint(&json)));
    checks.extend(
        runs.iter()
            .map(|run| (format!("replay:{}", run.spec.key()), run.fingerprint())),
    );
    Pass {
        time: t_mutation + t_json,
        setup: t_expand + runs.iter().map(Outcome::setup).sum::<Duration>(),
        // One operation per campaign cell, per replayed run and for the
        // JSON: each is checked against the reference; the replayed runs
        // also against their cells, the JSON's matrix against the rules.
        attempted: checks.len() as u64,
        checks,
        failed,
        campaign: Some(Campaign {
            runs: cells.len(),
            t_mutation,
            t_json,
            json,
        }),
        runs,
    }
}

/// The rules every kill matrix of the shipped catalogue obeys: clean
/// baselines, every mutant killed at every level, no detection lost to
/// abstraction.
fn matrix_holds(matrix: &KillMatrix) -> bool {
    matrix.baseline_clean()
        && matrix.detection_regressions().is_empty()
        && matrix.designs.iter().all(|dm| {
            matrix.levels.iter().all(|&level| {
                let (killed, total) = dm.mutation_score(level);
                killed == total
            })
        })
}

/// True if a serially replayed run reached the campaign cell's verdicts.
fn replay_agrees(run: &Outcome, cell: &MutantCell) -> bool {
    run.report.properties.len() == cell.verdicts.len()
        && run
            .report
            .properties
            .iter()
            .zip(&cell.verdicts)
            .all(|(p, v)| {
                p.name == v.property
                    && (p.failure_count == 0) == v.pass
                    && p.failure_count == v.failures
                    && p.timeout_fails == v.timeout_fails
            })
}

fn cell_fingerprint(cell: &MutantCell) -> String {
    let mut out = format!(
        "killed={} failures={} timeout_fails={}",
        cell.killed, cell.failures, cell.timeout_fails
    );
    for v in &cell.verdicts {
        let verdict = if v.pass { "pass" } else { "FAIL" };
        let _ = write!(
            out,
            " {}={verdict}:{}:{}",
            v.property, v.failures, v.timeout_fails
        );
    }
    out
}

/// FNV-1a digest and length of the kill-matrix JSON.
pub fn json_fingerprint(json: &str) -> String {
    let hash = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("fnv1a64={hash:016x} bytes={}", json.len())
}

/// The kill-matrix JSON at `workers` workers, for the worker-count check.
pub fn kill_matrix_json(seed: u64, sizes: Sizes, workers: usize) -> String {
    run_mutation(&mutation_plan(seed, sizes), workers, TraceSettings::off())
        .expect("the full-catalogue plan is valid")
        .matrix
        .to_json()
}

/// Checker-off twins of the pass's full-suite runs, for the checker-cost
/// differences. Table I's own `0C` cells serve where present; other twins
/// are run here, untimed by the pass.
pub fn twins(pass: &Pass) -> Vec<Outcome> {
    let mut rec = Recorder::new(false);
    pass.runs
        .iter()
        .filter(|run| run.spec.full_suite())
        .map(|run| {
            let twin = run.spec.twin();
            pass.runs
                .iter()
                .find(|r| r.spec == twin)
                .cloned()
                .unwrap_or_else(|| execute(twin, &mut rec))
        })
        .collect()
}

/// Times of the frontend calls over the 27 suite properties.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    pub props: usize,
    pub parse: Duration,
    pub nnf: Duration,
    pub push_ahead: Duration,
    pub abstraction: Duration,
    /// Properties whose parse did not give back the suite's property, or
    /// that failed to push ahead or abstract.
    pub mismatches: u64,
}

/// The suite properties as source text, with their design.
pub fn probe_sources() -> Vec<(DesignKind, String, psl::ClockedProperty)> {
    DesignKind::ALL
        .into_iter()
        .flat_map(|design| {
            design
                .suite()
                .into_iter()
                .map(move |e| (design, e.rtl.to_string(), e.rtl))
        })
        .collect()
}

/// Parses, normalises, pushes ahead and abstracts every suite property,
/// timing each call.
pub fn frontend_probe(
    sources: &[(DesignKind, String, psl::ClockedProperty)],
    rec: &mut Recorder,
) -> Probe {
    let configs: HashMap<DesignKind, abv_core::AbstractionConfig> = DesignKind::ALL
        .into_iter()
        .map(|d| (d, d.config()))
        .collect();
    let mut probe = Probe {
        props: sources.len(),
        ..Probe::default()
    };
    let open = rec.begin("bench.probe");
    for (design, src, expected) in sources {
        let (parsed, t) = rec.time("psl.parse", || psl::parser::parse_clocked(src));
        probe.parse += t;
        let Ok(parsed) = parsed else {
            probe.mismatches += 1;
            continue;
        };
        let (nnf, t) = rec.time("psl.to_nnf", || psl::nnf::to_nnf(&parsed.property));
        probe.nnf += t;
        let (pushed, t) = rec.time("psl.push_ahead", || psl::push_ahead::push_ahead(&nnf));
        probe.push_ahead += t;
        let (abstraction, t) = rec.time("abv-core.abstract_property", || {
            abv_core::abstract_property(&parsed, &configs[design])
        });
        probe.abstraction += t;
        if parsed != *expected || pushed.is_err() || abstraction.is_err() {
            probe.mismatches += 1;
        }
    }
    rec.end(open);
    probe
}

/// The metric-name suffix of `level`.
pub fn level_key(level: AbsLevel) -> &'static str {
    match level {
        AbsLevel::Rtl => "rtl",
        AbsLevel::TlmCa => "tlmca",
        AbsLevel::TlmAt => "tlmat",
        AbsLevel::TlmAtBulk => "tlmatbulk",
    }
}

/// Seconds as f64.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Spans recorded by one traced pass (and its probe), with the time to
/// export them through `abv-obs`.
pub struct SpanLog {
    pub spans: Vec<Span>,
    pub events: usize,
    pub export: Duration,
}

/// Exports `spans` as Chrome trace JSON, timing the export in CPU time.
pub fn export_spans(spans: Vec<Span>) -> (SpanLog, String) {
    let start = host::thread_cpu();
    let events = crate::spans::to_trace_events(&spans);
    let json = abv_obs::chrome_trace_json(&events);
    let export = host::thread_cpu().saturating_sub(start);
    (
        SpanLog {
            spans,
            events: events.len(),
            export,
        },
        json,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small sizes: the tests check behaviour, not speed.
    const SMALL: Sizes = Sizes {
        grid: 12,
        mutation: 8,
        traced: 6,
    };

    fn run_pass(workload: Workload, seed: u64) -> Pass {
        pass(
            workload,
            seed,
            SMALL,
            &Expectations::new(),
            &mut Recorder::new(false),
        )
    }

    #[test]
    fn grid_has_36_cells_and_passes_its_rules() {
        let p = run_pass(Workload::Table1Grid, 3);
        assert_eq!(p.runs.len(), 36);
        assert_eq!(p.failed, 0);
        let twins = twins(&p);
        assert_eq!(twins.len(), 9, "the 0C cells are the twins");
    }

    #[test]
    fn kill_matrix_replay_agrees_and_json_is_worker_independent() {
        let p = run_pass(Workload::KillMatrix, 2015);
        assert_eq!(p.failed, 0);
        assert_eq!(p.runs.len(), 66);
        let json = &p.campaign.as_ref().expect("campaign").json;
        assert_eq!(*json, kill_matrix_json(2015, SMALL, 1));
        assert_eq!(*json, kill_matrix_json(2015, SMALL, 2));
    }

    #[test]
    fn traced_runs_export_balanced_traces() {
        let p = run_pass(Workload::TracedDes56, 5);
        assert_eq!(p.failed, 0);
        assert!(p
            .runs
            .iter()
            .all(|r| r.export.as_ref().is_some_and(|e| e.events > 0)));
    }

    #[test]
    fn frontend_probe_round_trips_all_27_properties() {
        let sources = probe_sources();
        assert_eq!(sources.len(), 27);
        let probe = frontend_probe(&sources, &mut Recorder::new(false));
        assert_eq!(probe.mismatches, 0);
    }
}

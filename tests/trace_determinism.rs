//! Trace determinism: with [`TraceSettings::deterministic`], the merged
//! campaign trace is a pure function of the plan. Every timestamp in the
//! stream is simulation time, per-run events are remapped onto per-run
//! trace processes and concatenated in work-list order, and wall-clock
//! annotations are omitted — so the exact event sequence (not just the
//! summary) is byte-identical at any worker count.

mod common;

use abv_campaign::{run_campaign_with, CampaignPlan, CellSpec, CheckerMode, TraceSettings};
use abv_obs::{chrome_trace_json, ArgValue, Phase, TraceEvent};
use common::pins;
use designs::{AbsLevel, DesignKind, Fault};

/// `(FNV-1a digest, bytes)` of the semantic and the cost side
/// ([`pins::split_trace`]) of [`traced_plan`]'s merged Chrome trace JSON.
/// A change that keeps every verdict keeps the first; only a change in
/// simulation work or in the component layout may move the second.
///
/// Recorded at 1, 2 and 4 workers. The two sides hold every line of the
/// JSON ([`trace_projections_reassemble_the_trace`]).
const TRACE_JSON_PINS: [(u64, usize); 2] = [
    (0xc2a2_df48_dd56_bc44, 120_558),
    (0x475b_f3de_ac7a_bcb4, 111_821),
];

/// A plan that exercises every event kind: spans and obligation instants
/// from passing checkers, timeout-fails from a faulty cell, transaction
/// instants from the TLM bus and kernel counter samples everywhere.
fn traced_plan() -> CampaignPlan {
    CampaignPlan::new("trace-determinism")
        .cell(DesignKind::Des56, AbsLevel::TlmAt, CheckerMode::All)
        .cell(
            DesignKind::ColorConv,
            AbsLevel::TlmCa,
            CheckerMode::First(2),
        )
        .cell_spec(
            CellSpec::new(DesignKind::Des56, AbsLevel::TlmAt, CheckerMode::All)
                .with_fault(Fault::LatencyShort),
        )
        .runs(3)
        .size(5)
        .seed(0x7ACE_2015)
}

#[test]
fn deterministic_trace_is_identical_at_1_and_4_workers() {
    let plan = traced_plan();
    let solo = run_campaign_with(&plan, 1, TraceSettings::deterministic()).expect("valid plan");
    let pooled = run_campaign_with(&plan, 4, TraceSettings::deterministic()).expect("valid plan");

    assert!(!solo.trace.is_empty(), "tracing was on");
    // Event-for-event equality of the merged streams, not just a summary.
    assert_eq!(solo.trace, pooled.trace);
    // And therefore of the exported JSON.
    assert_eq!(
        chrome_trace_json(&solo.trace),
        chrome_trace_json(&pooled.trace)
    );
}

#[test]
fn deterministic_trace_is_identical_under_both_schedulers() {
    // At every worker count the merged trace splits into the pinned
    // semantic and cost sides; kernel counter samples, whose timestamps
    // and values follow the exact delta-cycle walk, are on the cost side.
    let plan = traced_plan();
    for workers in [1, 2, 4] {
        let report =
            run_campaign_with(&plan, workers, TraceSettings::deterministic()).expect("valid plan");
        let json = chrome_trace_json(&report.trace);
        let [semantic, cost] = pins::split_trace(&json).digests();
        assert_eq!(
            semantic, TRACE_JSON_PINS[0],
            "at {workers} workers a checker or bus event moved: semantic side ({:#x}, {})",
            semantic.0, semantic.1
        );
        assert_eq!(
            cost, TRACE_JSON_PINS[1],
            "at {workers} workers the simulation work moved: cost side ({:#x}, {})",
            cost.0, cost.1
        );
    }
}

#[test]
fn trace_projections_reassemble_the_trace() {
    // Every event line lands on one side or the other, with its raw tid.
    let report =
        run_campaign_with(&traced_plan(), 2, TraceSettings::deterministic()).expect("valid plan");
    let json = chrome_trace_json(&report.trace);
    let split = pins::split_trace(&json);
    assert!(!split.semantic.is_empty() && !split.cost.is_empty());
    assert_eq!(pins::join_trace(&split), pins::trace_lines(&json));
}

#[test]
fn deterministic_trace_omits_wall_clock_fields() {
    let plan = traced_plan();
    let report = run_campaign_with(&plan, 2, TraceSettings::deterministic()).expect("valid plan");
    assert!(
        report
            .trace
            .iter()
            .all(|ev| ev.args.iter().all(|(key, _)| *key != "wall_us")),
        "deterministic traces must not carry wall-clock args"
    );
    // The non-deterministic mode does annotate run spans with wall time.
    let timed = run_campaign_with(&plan, 2, TraceSettings::on()).expect("valid plan");
    assert!(timed
        .trace
        .iter()
        .any(|ev| ev.args.iter().any(|(key, _)| *key == "wall_us")));
}

#[test]
fn merged_trace_structure_is_complete() {
    let plan = traced_plan();
    let report = run_campaign_with(&plan, 4, TraceSettings::deterministic()).expect("valid plan");
    let trace = &report.trace;

    // One labelled trace process per run, pids in work-list order.
    let run_labels: Vec<&TraceEvent> = trace
        .iter()
        .filter(|e| e.phase == Phase::Meta && e.name == "process_name")
        .collect();
    assert_eq!(run_labels.len(), plan.total_runs());
    let pids: Vec<u64> = run_labels.iter().map(|e| e.pid).collect();
    assert_eq!(pids, (0..plan.total_runs() as u64).collect::<Vec<_>>());
    assert!(matches!(
        &run_labels[0].args[0].1,
        ArgValue::Str(label) if label.contains("rep 0")
    ));

    // Every run contributes a closed `run` span plus kernel counters, and
    // span begins/ends balance per (pid, tid) track.
    for pid in 0..plan.total_runs() as u64 {
        let per_run: Vec<&TraceEvent> = trace.iter().filter(|e| e.pid == pid).collect();
        assert!(per_run
            .iter()
            .any(|e| e.phase == Phase::Begin && e.name == "run"));
        assert!(per_run.iter().any(|e| e.phase == Phase::Counter));
        let begins = per_run.iter().filter(|e| e.phase == Phase::Begin).count();
        let ends = per_run.iter().filter(|e| e.phase == Phase::End).count();
        assert_eq!(begins, ends, "unbalanced spans in run {pid}");
    }

    // The faulty cell produced timeout-fail instants somewhere.
    assert!(trace
        .iter()
        .any(|e| e.phase == Phase::Instant && e.name == "timeout-fail"));
}

//! Campaign-engine determinism: the merged report of a seeded campaign is
//! a pure function of the plan — the worker count only changes wall-clock
//! fields, never the aggregate. This is what makes sharded campaigns
//! trustworthy: a failure found at `--workers 8` reproduces exactly at
//! `--workers 1` from the recorded seed.

mod common;

use abv_campaign::{
    execute_run, run_campaign, CampaignPlan, CellSpec, CheckerMode, PlanError, RunSpec,
};
use common::pins;
use designs::{AbsLevel, BuildError, DesignKind, Fault};

/// `(FNV-1a digest, bytes)` of the semantic and the cost side
/// ([`pins::split_summary`]) of [`mixed_plan`]'s deterministic summary. A
/// change that keeps every verdict keeps the first; only a change in
/// simulation work may move the second.
///
/// Recorded at 1, 2 and 8 workers. The two sides hold every byte of the
/// summary ([`summary_projections_reassemble_the_summary`]).
const MIXED_SUMMARY_PINS: [(u64, usize); 2] =
    [(0x7f7f_060f_26be_69e1, 3367), (0x279f_8e05_d7c3_033f, 401)];

/// A mixed grid worth more than 32 runs: every design/level family, with
/// and without checkers, plus a faulty cell that fails mid-campaign.
fn mixed_plan() -> CampaignPlan {
    CampaignPlan::new("determinism")
        .cell(DesignKind::Des56, AbsLevel::Rtl, CheckerMode::First(3))
        .cell(DesignKind::Des56, AbsLevel::TlmAt, CheckerMode::All)
        .cell(DesignKind::ColorConv, AbsLevel::TlmCa, CheckerMode::All)
        .cell(DesignKind::ColorConv, AbsLevel::TlmAtBulk, CheckerMode::All)
        .cell(DesignKind::Fir, AbsLevel::TlmAt, CheckerMode::None)
        .cell_spec(
            CellSpec::new(DesignKind::Des56, AbsLevel::TlmAt, CheckerMode::All)
                .with_fault(Fault::LatencyShort),
        )
        .runs(6) // 6 cells x 6 reps = 36 runs
        .size(5)
        .seed(0x5EED_2015)
}

#[test]
fn merged_report_is_byte_identical_at_1_2_and_8_workers() {
    let plan = mixed_plan();
    assert!(
        plan.total_runs() >= 32,
        "plan must exercise a real shard count"
    );
    let baseline = run_campaign(&plan, 1)
        .expect("valid plan")
        .deterministic_summary();
    for workers in [2, 8] {
        let sharded = run_campaign(&plan, workers).expect("valid plan");
        assert_eq!(
            sharded.deterministic_summary(),
            baseline,
            "worker count {workers} changed the merged report"
        );
        assert_eq!(sharded.workers, workers.min(plan.total_runs()));
    }
}

#[test]
fn merged_report_is_byte_identical_under_both_schedulers() {
    // At every worker count the merged report splits into the pinned
    // semantic and cost sides.
    let plan = mixed_plan();
    for workers in [1, 2, 8] {
        let summary = run_campaign(&plan, workers)
            .expect("valid plan")
            .deterministic_summary();
        let [semantic, cost] = pins::split_summary(&summary).digests();
        assert_eq!(
            semantic, MIXED_SUMMARY_PINS[0],
            "at {workers} workers a verdict moved: semantic side ({:#x}, {}):\n{summary}",
            semantic.0, semantic.1
        );
        assert_eq!(
            cost, MIXED_SUMMARY_PINS[1],
            "at {workers} workers the simulation work moved: cost side ({:#x}, {}):\n{summary}",
            cost.0, cost.1
        );
    }
}

#[test]
fn summary_projections_reassemble_the_summary() {
    // Every byte of the summary lands on one side or the other.
    let summary = run_campaign(&mixed_plan(), 2)
        .expect("valid plan")
        .deterministic_summary();
    let split = pins::split_summary(&summary);
    assert!(!split.semantic.is_empty() && !split.cost.is_empty());
    assert_eq!(pins::join_summary(&split), summary);
}

#[test]
fn first_failure_seed_reproduces_the_failure_solo() {
    let plan = mixed_plan();
    let report = run_campaign(&plan, 8).expect("valid plan");
    let faulty = report
        .cells
        .iter()
        .find(|c| c.first_failure.is_some())
        .expect("the faulty cell must fail");
    let first = faulty.first_failure.as_ref().expect("checked above");

    // Re-run just that repetition from its recorded spec; the same
    // property must fail the same way.
    let spec = plan
        .run_specs()
        .into_iter()
        .find(|s| plan.cells[s.cell] == faulty.spec && s.rep == first.rep)
        .expect("the failing repetition is in the work list");
    assert_eq!(
        spec.seed, first.seed,
        "captured seed matches the spec's derived seed"
    );
    let solo = execute_run(&spec).expect("the spec comes from a validated plan");
    let property = solo
        .report
        .property(&first.property)
        .expect("property present");
    assert_eq!(property.failures.first(), Some(&first.failure));
}

#[test]
fn colorconv_at_campaign_merges_identically_across_worker_counts() {
    // The acceptance campaign: 100 ColorConv TLM-AT runs with the full
    // abstracted suite attached.
    let plan = CampaignPlan::new("colorconv-at")
        .cell(DesignKind::ColorConv, AbsLevel::TlmAt, CheckerMode::All)
        .runs(100)
        .size(6)
        .seed(2015);
    let solo = run_campaign(&plan, 1).expect("valid plan");
    let pooled = run_campaign(&plan, 4).expect("valid plan");
    assert_eq!(solo.deterministic_summary(), pooled.deterministic_summary());
    assert_eq!(pooled.cells[0].runs, 100);
    // The abstracted suite keeps checking at AT: activations accumulate
    // across all 100 runs and the review-expected-fail properties are
    // reported, with the earliest failing seed captured for replay.
    assert!(pooled.cells[0]
        .report
        .properties
        .iter()
        .any(|p| p.activations >= 100));
    assert!(pooled.cells[0].first_failure.is_some());
}

#[test]
fn an_unbuildable_run_spec_is_a_structured_error() {
    // FIR has no bulk-AT model. A validated plan never expands to this
    // spec, but its fields are public.
    let spec = RunSpec {
        cell: 3,
        rep: 0,
        spec: CellSpec::new(DesignKind::Fir, AbsLevel::TlmAtBulk, CheckerMode::All),
        size: 4,
        seed: 2015,
    };
    let err = execute_run(&spec).expect_err("FIR has no bulk-AT model");
    let expected = BuildError::UnsupportedLevel {
        design: DesignKind::Fir,
        level: AbsLevel::TlmAtBulk,
    };
    assert!(
        matches!(&err, PlanError::BadCell { index: 3, source } if *source == expected),
        "{err:?}"
    );
    assert_eq!(
        err.to_string(),
        "cell 3 is not executable: FIR has no TLM-AT-bulk model"
    );
    // An unsupported fault is reported the same way.
    let spec = RunSpec {
        spec: CellSpec::new(DesignKind::Fir, AbsLevel::Rtl, CheckerMode::All)
            .with_fault(Fault::LatencyLong),
        ..spec
    };
    assert!(matches!(
        execute_run(&spec),
        Err(PlanError::BadCell {
            index: 3,
            source: BuildError::UnsupportedFault { .. }
        })
    ));
}

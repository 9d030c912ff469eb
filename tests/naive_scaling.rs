//! The Section III-A ablation: why the paper rejects naive
//! `next[n] → next[m]` transaction-count rescaling in favour of
//! `next_ε^τ`.
//!
//! The naive abstraction of `p4` ("one transaction covers the 17 cycles,
//! so check `rdy` one transaction later") happens to pass on the loose
//! TLM-AT model with exactly two transactions per block — but the arrival
//! of an additional (overlapping/unexpected) transaction introduces an
//! extra evaluation point and makes it fail inopportunely, exactly as the
//! paper argues. The `next_ε^τ` abstraction is immune.

mod common;

use abv_core::{abstract_property, naive::naive_scale};
use common::{des_config, verify};
use designs::des56::{self, DesWorkload};
use designs::Fault;
use psl::{ClockedProperty, EvalContext, Property};

/// `p4` naively rescaled: 17 cycles ↦ 1 transaction.
fn naive_q4() -> ClockedProperty {
    let suite = des56::suite();
    let p4 = &suite.iter().find(|e| e.name == "p4").unwrap().rtl;
    let nnf = psl::nnf::to_nnf(&p4.property);
    let pushed = psl::push_ahead::push_ahead(&nnf).unwrap();
    let scaled = naive_scale(&pushed, 17).unwrap();
    assert_eq!(scaled.to_string(), "always ((!ds) || (next rdy))");
    ClockedProperty::new(scaled, EvalContext::tb())
}

/// The paper's `next_ε^τ` abstraction of `p4`.
fn q4() -> ClockedProperty {
    let suite = des56::suite();
    let p4 = &suite.iter().find(|e| e.name == "p4").unwrap().rtl;
    abstract_property(p4, &des_config())
        .unwrap()
        .into_property()
        .unwrap()
}

/// Checks `property` on the DES56 TLM-AT model, loose or `strict`.
fn run(property: ClockedProperty, strict: bool) -> abv_checker::PropertyReport {
    let w = DesWorkload::mixed(8, 0x7A);
    let built = des56::build_tlm_at(&w, Fault::None, strict);
    verify(built, &[("q".to_owned(), property)])
        .properties
        .remove(0)
}

#[test]
fn naive_scaling_passes_only_on_the_exact_expected_schedule() {
    // Two transactions per block: the event after the write IS the read.
    let report = run(naive_q4(), false);
    assert_eq!(report.failure_count, 0, "{:?}", report.failures.first());
    assert_eq!(report.completions, 8);
}

#[test]
fn overlapping_transaction_breaks_naive_scaling() {
    // The strict style adds the strobe-release transaction 10 ns after the
    // write: "the arrival of an overlapping (unexpected) transaction …
    // could introduce an extra evaluation point for that property causing
    // its inopportune failure" (Section III-A).
    let report = run(naive_q4(), true);
    assert!(
        report.failure_count > 0,
        "the extra transaction must break next[1]"
    );
}

#[test]
fn next_et_abstraction_is_robust_to_extra_transactions() {
    for strict in [false, true] {
        let report = run(q4(), strict);
        assert_eq!(
            report.failure_count,
            0,
            "strict {strict}: next_et anchors to absolute time, extra events are ignored: {:?}",
            report.failures.first()
        );
        assert_eq!(report.completions, 8);
    }
}

#[test]
fn naive_scaling_breaks_even_at_ca_granularity_without_exact_knowledge() {
    // Rescaling with the wrong cycles-per-transaction guess (e.g. assuming
    // 2 cycles per transaction on a 1-cycle-per-transaction CA model)
    // shifts the check to the wrong cycle.
    let suite = des56::suite();
    let p4 = &suite.iter().find(|e| e.name == "p4").unwrap().rtl;
    let pushed = psl::push_ahead::push_ahead(&psl::nnf::to_nnf(&p4.property)).unwrap();
    let wrong: Property = naive_scale(&pushed, 2).unwrap(); // next[9] on a 1:1 model
    let q = ClockedProperty::new(wrong, EvalContext::tb());

    let w = DesWorkload::mixed(4, 0x7B);
    let report = verify(
        des56::build_tlm_ca(&w, Fault::None),
        &[("wrong".to_owned(), q)],
    );
    assert!(report.properties[0].failure_count > 0);
}

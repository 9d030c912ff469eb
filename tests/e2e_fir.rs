//! End-to-end verification of the FIR extension IP: the abstraction flow
//! generalizes beyond the paper's two evaluation designs.

mod common;

use abv_core::abstract_property;
use common::{abstract_suite_for_tlm, rtl_properties, verify};
use designs::fir::{self, FirWorkload};
use designs::{DesignKind, Fault, PropertyClass};

#[test]
fn rtl_suite_passes() {
    let w = FirWorkload::random(10, 0xF1);
    let report = verify(
        fir::build_rtl(&w, Fault::None),
        &rtl_properties(&fir::suite()),
    );
    for p in &report.properties {
        assert_eq!(p.failure_count, 0, "{p}");
    }
    assert_eq!(report.property("f1").unwrap().completions, 10);
}

#[test]
fn abstraction_produces_expected_forms() {
    let suite = fir::suite();
    let f1 = abstract_property(&suite[0].rtl, &DesignKind::Fir.config()).unwrap();
    assert_eq!(
        f1.result().unwrap().to_string(),
        "always ((!in_valid) || (next_et[1, 50] out_valid)) @T_b"
    );
    // f3's prediction conjunct is dropped (weakened), τ renumbers to 1.
    let f3 = abstract_property(&suite[2].rtl, &DesignKind::Fir.config()).unwrap();
    assert_eq!(
        f3.result().unwrap().to_string(),
        "always ((!in_valid) || (next_et[1, 50] out_valid)) @T_b"
    );
    assert_eq!(f3.consequence(), abv_core::Consequence::Weakened);
}

#[test]
fn abstracted_suite_matches_classification_at_tlm_at() {
    let w = FirWorkload::random(10, 0xF2);
    let (props, classes) = abstract_suite_for_tlm(&fir::suite(), &DesignKind::Fir.config());
    let report = verify(fir::build_tlm_at(&w, Fault::None, false), &props);
    for (name, class) in &classes {
        let p = report.property(name).unwrap();
        match class {
            PropertyClass::AtCompatible => assert_eq!(p.failure_count, 0, "{p}"),
            PropertyClass::CaOnly | PropertyClass::ReviewExpectedFail => {
                assert!(p.failure_count > 0, "{p}");
            }
            PropertyClass::DeletedAtTlm => unreachable!(),
        }
    }
}

#[test]
fn latency_mutant_caught_by_abstracted_f1() {
    let w = FirWorkload::random(6, 0xF3);
    let suite = fir::suite();
    let q1 = abstract_property(&suite[0].rtl, &DesignKind::Fir.config())
        .unwrap()
        .into_property()
        .unwrap();
    let report = verify(
        fir::build_tlm_at(&w, Fault::LatencyShort, false),
        &[("f1".to_owned(), q1)],
    );
    assert!(report.properties[0].failure_count > 0);
}

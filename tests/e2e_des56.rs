//! End-to-end DES56 verification across abstraction levels:
//! RTL checkers pass on the correct design, unabstracted checkers reused
//! at TLM-CA pass, abstracted checkers behave per their classification at
//! TLM-CA and TLM-AT, and mutants are caught.

mod common;

use abv_checker::CheckReport;
use common::*;
use designs::des56::{self, DesWorkload};
use designs::{Fault, PropertyClass};

fn workload() -> DesWorkload {
    DesWorkload::mixed(12, 0xD5)
}

/// The full RTL suite on the RTL model.
fn verify_rtl(fault: Fault) -> CheckReport {
    verify(
        des56::build_rtl(&workload(), fault),
        &rtl_properties(&des56::suite()),
    )
}

/// The abstracted suite on the TLM-AT model (`strict` per DESIGN.md §5b),
/// with each property's classification.
fn verify_at(fault: Fault, strict: bool) -> (CheckReport, Classes) {
    let (props, classes) = abstract_suite_for_tlm(&des56::suite(), &des_config());
    let built = des56::build_tlm_at(&workload(), fault, strict);
    (verify(built, &props), classes)
}

#[test]
fn rtl_suite_passes_on_correct_design() {
    let report = verify_rtl(Fault::None);
    assert_eq!(report.properties.len(), 9);
    assert_all_pass(&report);
    // The timed properties actually fired (non-vacuous evidence).
    let p4 = report.property("p4").unwrap();
    assert_eq!(p4.completions, 12, "one completion per block");
    let p1 = report.property("p1").unwrap();
    assert!(p1.completions >= 1, "zero blocks exercise p1");
}

#[test]
fn rtl_until_property_p9_completes_once() {
    let report = verify_rtl(Fault::None);
    let p9 = report.property("p9").unwrap();
    assert_eq!(p9.activations, 1);
    assert_eq!(p9.completions, 1);
}

#[test]
fn unabstracted_suite_reused_at_tlm_ca_passes() {
    let report = verify(
        des56::build_tlm_ca(&workload(), Fault::None),
        &reused_properties(&des56::suite()),
    );
    assert_eq!(report.properties.len(), 9);
    assert_all_pass(&report);
}

#[test]
fn abstracted_suite_at_tlm_ca_passes_entirely() {
    // Theorem III.2 on a cycle-equivalent event stream: every surviving
    // abstracted property (including q2 and the review-flagged ones that
    // merely weakened) must hold, except disjunct-dropped rewrites which
    // changed intent — DES56 has none that survive.
    let (props, classes) = abstract_suite_for_tlm(&des56::suite(), &des_config());
    let report = verify(des56::build_tlm_ca(&workload(), Fault::None), &props);
    assert_eq!(classes.len(), 8, "p8 is deleted by signal abstraction");
    assert_all_pass(&report);
}

#[test]
fn abstracted_suite_at_tlm_at_loose_matches_classification() {
    let (report, classes) = verify_at(Fault::None, false);
    for (name, class) in &classes {
        let p = report.property(name).unwrap();
        match class {
            PropertyClass::AtCompatible => {
                assert_eq!(
                    p.failure_count,
                    0,
                    "{name} must pass at TLM-AT: {:?}",
                    p.failures.first()
                );
            }
            PropertyClass::CaOnly => {
                assert!(
                    p.failure_count > 0,
                    "{name} references intermediate instants and must fail at loose TLM-AT"
                );
            }
            PropertyClass::ReviewExpectedFail => {
                assert!(
                    p.failure_count > 0,
                    "{name} was review-flagged and must fail"
                );
            }
            PropertyClass::DeletedAtTlm => panic!("deleted properties are not installed"),
        }
    }
    // The timed AT-compatible properties completed for every block.
    assert_eq!(report.property("p4").unwrap().completions, 12);
    assert_eq!(report.property("p3").unwrap().completions, 12);
}

#[test]
fn abstracted_suite_at_tlm_at_strict_same_verdicts() {
    // The strict Def. III.1 transactions (strobe release, ready clear) do
    // not break the AT-compatible properties…
    let (report, classes) = verify_at(Fault::None, true);
    for (name, class) in &classes {
        let p = report.property(name).unwrap();
        if *class == PropertyClass::AtCompatible {
            assert_eq!(p.failure_count, 0, "{name}: {:?}", p.failures.first());
        }
    }
}

#[test]
fn latency_mutants_caught_at_rtl() {
    for fault in [Fault::LatencyShort, Fault::LatencyLong] {
        let report = verify_rtl(fault);
        let p4 = report.property("p4").unwrap();
        assert!(p4.failure_count > 0, "{fault} must violate p4 at RTL");
    }
}

#[test]
fn latency_mutants_caught_by_abstracted_checkers_at_tlm_at() {
    for fault in [Fault::LatencyShort, Fault::LatencyLong] {
        let (report, _) = verify_at(fault, false);
        let p4 = report.property("p4").unwrap();
        assert!(
            p4.failure_count > 0,
            "{fault} must violate the abstracted p4 at TLM-AT"
        );
    }
}

#[test]
fn drop_ready_mutant_caught_everywhere() {
    let report = verify_rtl(Fault::DropReady);
    assert!(report.property("p4").unwrap().failure_count > 0);

    let (report, _) = verify_at(Fault::DropReady, false);
    assert!(report.property("p4").unwrap().failure_count > 0);
    assert!(report.property("p3").unwrap().failure_count > 0);
}

#[test]
fn vacuity_is_tracked() {
    let report = verify_rtl(Fault::None);
    let p1 = report.property("p1").unwrap();
    // p1 only fires on zero-data blocks; everything else is vacuous.
    assert!(p1.vacuous > p1.completions);
}

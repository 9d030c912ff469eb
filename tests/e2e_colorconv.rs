//! End-to-end ColorConv verification across abstraction levels.

mod common;

use abv_checker::CheckReport;
use common::*;
use designs::colorconv::{self, ConvWorkload};
use designs::{BuildError, BuiltDesign, Fault, PropertyClass};

fn workload() -> ConvWorkload {
    ConvWorkload::mixed(18, 0xCC)
}

/// The full RTL suite on the RTL model.
fn verify_rtl(fault: Fault) -> CheckReport {
    verify(
        colorconv::build_rtl(&workload(), fault),
        &rtl_properties(&colorconv::suite()),
    )
}

/// The abstracted suite on a TLM model, with each property's
/// classification.
fn verify_abstracted(built: Result<BuiltDesign, BuildError>) -> (CheckReport, Classes) {
    let (props, classes) = abstract_suite_for_tlm(&colorconv::suite(), &conv_config());
    (verify(built, &props), classes)
}

/// The abstracted suite on the loose TLM-AT model.
fn verify_at(fault: Fault) -> (CheckReport, Classes) {
    verify_abstracted(colorconv::build_tlm_at(&workload(), fault, false))
}

#[test]
fn rtl_suite_passes_on_correct_design() {
    let report = verify_rtl(Fault::None);
    assert_eq!(report.properties.len(), 12);
    assert_all_pass(&report);
    assert_eq!(report.property("c1").unwrap().completions, 18);
    assert!(
        report.property("c2").unwrap().completions >= 1,
        "black pixels fire c2"
    );
    assert!(
        report.property("c3").unwrap().completions >= 1,
        "white pixels fire c3"
    );
    assert!(
        report.property("c12").unwrap().completions >= 1,
        "green pixels fire c12"
    );
}

#[test]
fn abstracted_suite_at_tlm_ca_matches_classification() {
    let (report, classes) = verify_abstracted(colorconv::build_tlm_ca(&workload(), Fault::None));
    assert_eq!(classes.len(), 12, "no ColorConv property is fully deleted");
    for (name, class) in &classes {
        let p = report.property(name).unwrap();
        match class {
            // On a cycle-equivalent event stream every intent-preserving
            // abstraction holds (Theorem III.2), including the CA-only c10.
            PropertyClass::AtCompatible | PropertyClass::CaOnly => {
                assert_eq!(p.failure_count, 0, "{name}: {:?}", p.failures.first());
            }
            // c9's disjunct drop changed its meaning: `always next_et[1,10]
            // out_valid` is false on the real design — the paper's
            // "human investigation required" case.
            PropertyClass::ReviewExpectedFail => {
                assert!(
                    p.failure_count > 0,
                    "{name} must fail after the disjunct drop"
                );
            }
            PropertyClass::DeletedAtTlm => panic!("no deleted properties in this suite"),
        }
    }
}

#[test]
fn abstracted_suite_at_tlm_at_loose_matches_classification() {
    let (report, classes) = verify_at(Fault::None);
    for (name, class) in &classes {
        let p = report.property(name).unwrap();
        match class {
            PropertyClass::AtCompatible => {
                assert_eq!(p.failure_count, 0, "{name}: {:?}", p.failures.first());
            }
            PropertyClass::CaOnly | PropertyClass::ReviewExpectedFail => {
                assert!(p.failure_count > 0, "{name} must fail at loose TLM-AT");
            }
            PropertyClass::DeletedAtTlm => unreachable!(),
        }
    }
    assert_eq!(report.property("c1").unwrap().completions, 18);
    // c8's surviving conjunct (out_valid after 80 ns) completes per pixel.
    assert_eq!(report.property("c8").unwrap().completions, 18);
}

#[test]
fn corrupt_luma_mutant_caught_by_range_and_anchor_properties() {
    let report = verify_rtl(Fault::CorruptData);
    assert!(
        report.property("c4").unwrap().failure_count > 0,
        "luma floor violated"
    );
    assert!(
        report.property("c2").unwrap().failure_count > 0,
        "black anchor violated"
    );

    let (report, _) = verify_at(Fault::CorruptData);
    assert!(report.property("c4").unwrap().failure_count > 0);
    assert!(report.property("c2").unwrap().failure_count > 0);
}

#[test]
fn latency_mutants_caught_at_tlm_at() {
    for fault in [Fault::LatencyShort, Fault::LatencyLong] {
        let (report, _) = verify_at(fault);
        assert!(
            report.property("c1").unwrap().failure_count > 0,
            "{fault} must violate the abstracted c1"
        );
    }
}

#[test]
fn drop_valid_mutant_caught() {
    let report = verify_rtl(Fault::DropReady);
    assert!(report.property("c1").unwrap().failure_count > 0);
    let (report, _) = verify_at(Fault::DropReady);
    assert!(report.property("c1").unwrap().failure_count > 0);
}

#[test]
fn weakened_c8_is_flagged_but_not_review() {
    use abv_core::{abstract_property, Consequence};
    let suite = designs::colorconv::suite();
    let c8 = suite.iter().find(|e| e.name == "c8").unwrap();
    let a = abstract_property(&c8.rtl, &conv_config()).unwrap();
    assert_eq!(a.consequence(), Consequence::Weakened);
    let c9 = suite.iter().find(|e| e.name == "c9").unwrap();
    let a9 = abstract_property(&c9.rtl, &conv_config()).unwrap();
    assert_eq!(a9.consequence(), Consequence::NeedsReview);
}

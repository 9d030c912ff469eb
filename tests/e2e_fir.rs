//! End-to-end verification of the FIR extension IP: the abstraction flow
//! generalizes beyond the paper's two evaluation designs.

use abv_checker::{Binding, Checker};
use abv_core::{abstract_property, AbstractionConfig};
use designs::fir::{self, FirMutation, FirWorkload};
use designs::{PropertyClass, SuiteEntry, CLOCK_PERIOD_NS};
use psl::ClockedProperty;
use tlmkit::CodingStyle;

fn cfg() -> AbstractionConfig {
    AbstractionConfig::new(CLOCK_PERIOD_NS)
        .unwrap()
        .abstract_signals(fir::ABSTRACTED_SIGNALS.iter().copied())
}

#[test]
fn rtl_suite_passes() {
    let w = FirWorkload::random(10, 0xF1);
    let mut built = fir::build_rtl(&w, FirMutation::None);
    let props: Vec<(String, ClockedProperty)> =
        fir::suite().iter().map(SuiteEntry::named).collect();
    let checkers = Checker::attach_all(&mut built.sim, &props, Binding::clock(built.clk.signal))
        .expect("installs");
    built.run();
    let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
    for p in &report.properties {
        assert_eq!(p.failure_count, 0, "{p}");
    }
    assert_eq!(report.property("f1").unwrap().completions, 10);
}

#[test]
fn abstraction_produces_expected_forms() {
    let suite = fir::suite();
    let f1 = abstract_property(&suite[0].rtl, &cfg()).unwrap();
    assert_eq!(
        f1.result().unwrap().to_string(),
        "always ((!in_valid) || (next_et[1, 50] out_valid)) @T_b"
    );
    // f3's prediction conjunct is dropped (weakened), τ renumbers to 1.
    let f3 = abstract_property(&suite[2].rtl, &cfg()).unwrap();
    assert_eq!(
        f3.result().unwrap().to_string(),
        "always ((!in_valid) || (next_et[1, 50] out_valid)) @T_b"
    );
    assert_eq!(f3.consequence(), abv_core::Consequence::Weakened);
}

#[test]
fn abstracted_suite_matches_classification_at_tlm_at() {
    let w = FirWorkload::random(10, 0xF2);
    let mut built = fir::build_tlm_at(&w, FirMutation::None, CodingStyle::ApproximatelyTimedLoose);
    let entries = fir::suite();
    let props: Vec<(String, ClockedProperty, PropertyClass)> = entries
        .iter()
        .filter_map(|e| {
            abstract_property(&e.rtl, &cfg())
                .unwrap()
                .into_property()
                .map(|q| (e.name.to_owned(), q, e.class))
        })
        .collect();
    let named: Vec<(String, ClockedProperty)> = props
        .iter()
        .map(|(n, q, _)| (n.clone(), q.clone()))
        .collect();
    let checkers =
        Checker::attach_all(&mut built.sim, &named, Binding::bus(&built.bus)).expect("installs");
    built.run();
    let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
    for (name, _, class) in &props {
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
    let mut built = fir::build_tlm_at(
        &w,
        FirMutation::LatencyShort,
        CodingStyle::ApproximatelyTimedLoose,
    );
    let suite = fir::suite();
    let q1 = abstract_property(&suite[0].rtl, &cfg())
        .unwrap()
        .into_property()
        .unwrap();
    let checkers = Checker::attach_all(
        &mut built.sim,
        &[("f1".to_owned(), q1)],
        Binding::bus(&built.bus),
    )
    .expect("installs");
    built.run();
    let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
    assert!(report.properties[0].failure_count > 0);
}

//! Validation of Theorems III.1 / III.2 through the independent
//! finite-trace oracle (no online checkers involved): if the RTL trace
//! satisfies a property, the corresponding TLM traces satisfy its
//! abstraction.

mod common;

use abv_core::abstract_property;
use common::{conv_config, des_config, record};
use designs::colorconv::{self, ConvWorkload};
use designs::des56::{self, DesWorkload};
use designs::{Fault, PropertyClass};
use psl::Trace;

struct DesTraces {
    rtl: Trace,
    ca: Trace,
    at: Trace,
}

fn des_traces(seed: u64) -> DesTraces {
    let w = DesWorkload::mixed(8, seed);
    DesTraces {
        rtl: record(des56::build_rtl(&w, Fault::None), des56::RTL_SIGNALS),
        ca: record(des56::build_tlm_ca(&w, Fault::None), des56::TLM_CA_SIGNALS),
        at: record(
            des56::build_tlm_at(&w, Fault::None, false),
            des56::TLM_AT_SIGNALS,
        ),
    }
}

#[test]
fn des56_rtl_traces_satisfy_the_rtl_suite() {
    for seed in [1u64, 2, 3] {
        let traces = des_traces(seed);
        for entry in des56::suite() {
            assert!(
                traces.rtl.satisfies(&entry.rtl).unwrap(),
                "seed {seed}: RTL trace must satisfy {}",
                entry.name
            );
        }
    }
}

#[test]
fn theorem_iii_2_holds_on_cycle_equivalent_streams() {
    // M_RTL |= p  =>  M_TLM-CA |= q, for every surviving abstraction that
    // did not change intent (everything except review-flagged drops).
    for seed in [4u64, 5] {
        let traces = des_traces(seed);
        for entry in des56::suite() {
            if entry.class == PropertyClass::ReviewExpectedFail {
                continue;
            }
            let a = abstract_property(&entry.rtl, &des_config()).unwrap();
            let Some(q) = a.into_property() else { continue };
            assert!(traces.rtl.satisfies(&entry.rtl).unwrap(), "{}", entry.name);
            assert!(
                traces.ca.satisfies(&q).unwrap(),
                "seed {seed}: TLM-CA trace must satisfy abstraction of {}",
                entry.name
            );
        }
    }
}

#[test]
fn at_compatible_abstractions_hold_on_at_traces() {
    for seed in [6u64, 7] {
        let traces = des_traces(seed);
        for entry in des56::suite() {
            if entry.class != PropertyClass::AtCompatible {
                continue;
            }
            let a = abstract_property(&entry.rtl, &des_config()).unwrap();
            let q = a.into_property().expect("AT-compatible properties survive");
            assert!(
                traces.at.satisfies(&q).unwrap(),
                "seed {seed}: TLM-AT trace must satisfy abstraction of {}",
                entry.name
            );
        }
    }
}

#[test]
fn ca_only_abstraction_fails_on_sparse_at_trace() {
    // The q2 phenomenon (DESIGN.md §5b), reproduced on the oracle path.
    let traces = des_traces(8);
    let suite = des56::suite();
    let p2 = suite.iter().find(|e| e.name == "p2").unwrap();
    let q2 = abstract_property(&p2.rtl, &des_config())
        .unwrap()
        .into_property()
        .unwrap();
    assert!(traces.ca.satisfies(&q2).unwrap(), "q2 holds at TLM-CA");
    assert!(
        !traces.at.satisfies(&q2).unwrap(),
        "q2 cannot hold at loose TLM-AT"
    );
}

#[test]
fn colorconv_theorems_on_the_oracle_path() {
    let w = ConvWorkload::mixed(10, 0xAB);
    let rtl = record(
        colorconv::build_rtl(&w, Fault::None),
        colorconv::RTL_SIGNALS,
    );
    let ca = record(
        colorconv::build_tlm_ca(&w, Fault::None),
        colorconv::TLM_CA_SIGNALS,
    );

    for entry in colorconv::suite() {
        assert!(
            rtl.satisfies(&entry.rtl).unwrap(),
            "RTL trace satisfies {}",
            entry.name
        );
        if entry.class == PropertyClass::ReviewExpectedFail {
            continue;
        }
        let a = abstract_property(&entry.rtl, &conv_config()).unwrap();
        if let Some(q) = a.into_property() {
            assert!(
                ca.satisfies(&q).unwrap(),
                "TLM-CA trace satisfies abstraction of {}",
                entry.name
            );
        }
    }
}

#[test]
fn mutated_tlm_model_fails_the_abstraction_as_theorem_iii_2_contrapositive() {
    // If q fails at TLM on a timing-equivalent stimulus, the abstraction of
    // the design was wrong — here, an injected latency bug.
    let w = DesWorkload::mixed(6, 0xAC);
    let at = record(
        des56::build_tlm_at(&w, Fault::LatencyLong, false),
        des56::TLM_AT_SIGNALS,
    );

    let suite = des56::suite();
    let p4 = suite.iter().find(|e| e.name == "p4").unwrap();
    let q4 = abstract_property(&p4.rtl, &des_config())
        .unwrap()
        .into_property()
        .unwrap();
    assert!(
        !at.satisfies(&q4).unwrap(),
        "latency bug must violate q4 on the trace oracle too"
    );
}

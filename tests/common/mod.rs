//! Shared helpers for the integration tests: configured abstractions and
//! fully-wired verification runs for both IPs at all abstraction levels.
//!
//! Each integration-test binary uses its own subset of these helpers.
#![allow(dead_code)]

use abv_checker::{Binding, CheckReport, Checker};
use abv_core::{abstract_property, reuse_at_cycle_accurate, AbstractionConfig};
use designs::{colorconv, des56, PropertyClass, SuiteEntry, CLOCK_PERIOD_NS};
use psl::ClockedProperty;
use tlmkit::CodingStyle;

/// The DES56 abstraction configuration (10 ns clock, prediction outputs
/// removed).
pub fn des_config() -> AbstractionConfig {
    AbstractionConfig::new(CLOCK_PERIOD_NS)
        .unwrap()
        .abstract_signals(des56::ABSTRACTED_SIGNALS.iter().copied())
}

/// The ColorConv abstraction configuration.
pub fn conv_config() -> AbstractionConfig {
    AbstractionConfig::new(CLOCK_PERIOD_NS)
        .unwrap()
        .abstract_signals(colorconv::ABSTRACTED_SIGNALS.iter().copied())
}

/// Abstracts a suite into named TLM properties, dropping deleted ones.
/// Panics on abstraction errors (suite properties are all abstractable).
pub fn abstract_suite_for_tlm(
    suite: &[SuiteEntry],
    cfg: &AbstractionConfig,
) -> Vec<(String, ClockedProperty, PropertyClass)> {
    suite
        .iter()
        .filter_map(|entry| {
            let a = abstract_property(&entry.rtl, cfg).expect("suite property abstracts");
            a.into_property()
                .map(|q| (entry.name.to_owned(), q, entry.class))
        })
        .collect()
}

/// Runs the full RTL verification of DES56 and returns the report.
pub fn verify_des_rtl(workload: &des56::DesWorkload, mutation: des56::DesMutation) -> CheckReport {
    let mut built = des56::build_rtl(workload, mutation);
    let props: Vec<(String, ClockedProperty)> =
        des56::suite().iter().map(SuiteEntry::named).collect();
    let checkers = Checker::attach_all(&mut built.sim, &props, Binding::clock(built.clk.signal))
        .expect("RTL properties install");
    built.run();
    Checker::collect(&mut built.sim, &checkers, built.end_ns)
}

/// Runs DES56 TLM-CA with the *unabstracted* RTL properties re-clocked to
/// the basic transaction context (the paper's TLM-CA experiment).
pub fn verify_des_tlm_ca_reused(
    workload: &des56::DesWorkload,
    mutation: des56::DesMutation,
) -> CheckReport {
    let mut built = des56::build_tlm_ca(workload, mutation);
    let props: Vec<(String, ClockedProperty)> = des56::suite()
        .iter()
        .map(|e| {
            (
                e.name.to_owned(),
                reuse_at_cycle_accurate(&e.rtl).expect("clock context"),
            )
        })
        .collect();
    let checkers = Checker::attach_all(&mut built.sim, &props, Binding::bus(&built.bus))
        .expect("CA properties install");
    built.run();
    Checker::collect(&mut built.sim, &checkers, built.end_ns)
}

/// Runs DES56 at a TLM level with the *abstracted* properties.
pub fn verify_des_tlm_abstracted(
    workload: &des56::DesWorkload,
    mutation: des56::DesMutation,
    style: CodingStyle,
) -> (CheckReport, Vec<(String, PropertyClass)>) {
    let mut built = match style {
        CodingStyle::CycleAccurate => des56::build_tlm_ca(workload, mutation),
        _ => des56::build_tlm_at(workload, mutation, style),
    };
    let abstracted = abstract_suite_for_tlm(&des56::suite(), &des_config());
    let classes: Vec<(String, PropertyClass)> =
        abstracted.iter().map(|(n, _, c)| (n.clone(), *c)).collect();
    let props: Vec<(String, ClockedProperty)> =
        abstracted.into_iter().map(|(n, q, _)| (n, q)).collect();
    let checkers = Checker::attach_all(&mut built.sim, &props, Binding::bus(&built.bus))
        .expect("TLM properties install");
    built.run();
    (
        Checker::collect(&mut built.sim, &checkers, built.end_ns),
        classes,
    )
}

/// Runs the full RTL verification of ColorConv.
pub fn verify_conv_rtl(
    workload: &colorconv::ConvWorkload,
    mutation: colorconv::ConvMutation,
) -> CheckReport {
    let mut built = colorconv::build_rtl(workload, mutation);
    let props: Vec<(String, ClockedProperty)> =
        colorconv::suite().iter().map(SuiteEntry::named).collect();
    let checkers = Checker::attach_all(&mut built.sim, &props, Binding::clock(built.clk.signal))
        .expect("RTL properties install");
    built.run();
    Checker::collect(&mut built.sim, &checkers, built.end_ns)
}

/// Runs ColorConv at a TLM level with the *abstracted* properties.
pub fn verify_conv_tlm_abstracted(
    workload: &colorconv::ConvWorkload,
    mutation: colorconv::ConvMutation,
    style: CodingStyle,
) -> (CheckReport, Vec<(String, PropertyClass)>) {
    let mut built = match style {
        CodingStyle::CycleAccurate => colorconv::build_tlm_ca(workload, mutation),
        _ => colorconv::build_tlm_at(workload, mutation, style),
    };
    let abstracted = abstract_suite_for_tlm(&colorconv::suite(), &conv_config());
    let classes: Vec<(String, PropertyClass)> =
        abstracted.iter().map(|(n, _, c)| (n.clone(), *c)).collect();
    let props: Vec<(String, ClockedProperty)> =
        abstracted.into_iter().map(|(n, q, _)| (n, q)).collect();
    let checkers = Checker::attach_all(&mut built.sim, &props, Binding::bus(&built.bus))
        .expect("TLM properties install");
    built.run();
    (
        Checker::collect(&mut built.sim, &checkers, built.end_ns),
        classes,
    )
}

/// Asserts that every property in `report` passes; includes the failing
/// property's diagnostics in the panic message.
#[track_caller]
pub fn assert_all_pass(report: &CheckReport) {
    for p in &report.properties {
        assert_eq!(
            p.failure_count,
            0,
            "property {} failed: {:?}",
            p.name,
            p.failures.first()
        );
    }
}

/// 64-bit FNV-1a digest, for pinning long outputs to a recorded value.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

//! Shared helpers for the integration tests: configured abstractions,
//! property lists per level, and fully-wired verification and recording
//! runs over any built design.
//!
//! Each integration-test binary uses its own subset of these helpers.
#![allow(dead_code)]

use abv_checker::{CheckReport, Checker};
use abv_core::{abstract_property, reuse_at_cycle_accurate, AbstractionConfig};
use designs::{
    colorconv, des56, BuildError, BuiltDesign, PropertyClass, SuiteEntry, CLOCK_PERIOD_NS,
};
use psl::{ClockEdge, ClockedProperty, Trace};
use rtlkit::WaveRecorder;
use tlmkit::TxTraceRecorder;

/// Named properties, ready for [`Checker::attach_all`].
pub type Named = Vec<(String, ClockedProperty)>;

/// Each property's name with its cross-level classification.
pub type Classes = Vec<(String, PropertyClass)>;

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

/// A suite's original clock-context properties, named.
pub fn rtl_properties(suite: &[SuiteEntry]) -> Named {
    suite.iter().map(SuiteEntry::named).collect()
}

/// A suite's *unabstracted* properties re-clocked to the basic transaction
/// context (the paper's TLM-CA experiment).
pub fn reused_properties(suite: &[SuiteEntry]) -> Named {
    suite
        .iter()
        .map(|e| {
            (
                e.name.to_owned(),
                reuse_at_cycle_accurate(&e.rtl).expect("clock context"),
            )
        })
        .collect()
}

/// Abstracts a suite into named TLM properties, dropping deleted ones, and
/// returns them with each survivor's classification. Panics on abstraction
/// errors (suite properties are all abstractable).
pub fn abstract_suite_for_tlm(suite: &[SuiteEntry], cfg: &AbstractionConfig) -> (Named, Classes) {
    suite
        .iter()
        .filter_map(|entry| {
            let a = abstract_property(&entry.rtl, cfg).expect("suite property abstracts");
            a.into_property().map(|q| {
                let name = entry.name.to_owned();
                ((name.clone(), q), (name, entry.class))
            })
        })
        .unzip()
}

/// Attaches `props` to the built design through its own binding (clock at
/// RTL, bus at TLM), runs it to its end and returns the report.
pub fn verify(
    built: Result<BuiltDesign, BuildError>,
    props: &[(String, ClockedProperty)],
) -> CheckReport {
    let mut built = built.expect("the design builds");
    let binding = built.binding();
    let checkers = Checker::attach_all(&mut built.sim, props, binding).expect("properties install");
    built.run();
    Checker::collect(&mut built.sim, &checkers, built.end_ns)
}

/// Runs the built design to its end and returns the trace of `signals`,
/// sampled at every rising clock edge (RTL) or transaction end (TLM).
pub fn record(built: Result<BuiltDesign, BuildError>, signals: &[&str]) -> Trace {
    let mut built = built.expect("the design builds");
    if let Some(clk) = built.clk {
        let rec = WaveRecorder::install(&mut built.sim, clk, ClockEdge::Pos, signals);
        built.run();
        return WaveRecorder::take_trace(&built.sim, rec);
    }
    let bus = built.bus.clone().expect("a TLM model has a bus");
    let rec = TxTraceRecorder::install(&mut built.sim, &bus, signals);
    built.run();
    TxTraceRecorder::take_trace(&built.sim, rec)
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

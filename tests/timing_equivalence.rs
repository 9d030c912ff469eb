//! Def. III.1 timing equivalence between the abstraction levels, checked
//! on recorded traces: the RTL clock-edge trace and the TLM-CA
//! transaction trace must agree exactly on the preserved I/O signals, and
//! every TLM-AT transaction instant must agree with the RTL trace at that
//! time.

mod common;

use common::record;
use designs::colorconv::{self, ConvWorkload};
use designs::des56::{self, DesWorkload};
use designs::{AbsLevel, DesignKind, Fault};
use psl::{SignalEnv, Trace};

/// `design`'s trace at RTL or TLM-CA on every pin, over the seeded
/// workload [`designs::build`] draws.
fn pin_trace(design: DesignKind, level: AbsLevel, size: usize, seed: u64) -> Trace {
    record(
        designs::build(design, level, size, seed, Fault::None),
        design.rtl_signals(),
    )
}

/// DES56's loose or `strict` TLM-AT trace.
fn des_at_trace(w: &DesWorkload, strict: bool) -> Trace {
    record(
        des56::build_tlm_at(w, Fault::None, strict),
        des56::TLM_AT_SIGNALS,
    )
}

/// Asserts both traces define `signals` identically at every instant of
/// `subset`, which must be a time-subset of `full`.
#[track_caller]
fn assert_subset_equal(subset: &Trace, full: &Trace, signals: &[&str]) {
    for step in subset.steps() {
        let pos = full
            .position_at_time(step.time_ns)
            .unwrap_or_else(|| panic!("no reference instant at {}ns", step.time_ns));
        let reference = &full.steps()[pos];
        for &sig in signals {
            assert_eq!(
                step.signal(sig),
                reference.signal(sig),
                "signal `{sig}` differs at {}ns",
                step.time_ns
            );
        }
    }
}

/// Asserts `design`'s RTL and TLM-CA traces share their instants, one per
/// clock cycle, and agree on every pin at each of them.
#[track_caller]
fn assert_rtl_and_tlm_ca_identical(design: DesignKind) {
    let rtl = pin_trace(design, AbsLevel::Rtl, 10, 0xE1);
    let ca = pin_trace(design, AbsLevel::TlmCa, 10, 0xE1);
    let rtl_times: Vec<u64> = rtl.steps().iter().map(|s| s.time_ns).collect();
    let ca_times: Vec<u64> = ca.steps().iter().map(|s| s.time_ns).collect();
    assert_eq!(rtl_times, ca_times, "{}", design.label());
    assert_subset_equal(&ca, &rtl, design.rtl_signals());
}

#[test]
fn des56_rtl_and_tlm_ca_traces_are_identical() {
    assert_rtl_and_tlm_ca_identical(DesignKind::Des56);
}

#[test]
fn colorconv_rtl_and_tlm_ca_traces_are_identical() {
    assert_rtl_and_tlm_ca_identical(DesignKind::ColorConv);
}

#[test]
fn fir_rtl_and_tlm_ca_traces_are_identical() {
    assert_rtl_and_tlm_ca_identical(DesignKind::Fir);
}

#[test]
fn des56_tlm_at_transactions_agree_with_rtl_at_their_instants() {
    let w = DesWorkload::mixed(6, 0xE2);
    let rtl = pin_trace(DesignKind::Des56, AbsLevel::Rtl, 6, 0xE2);
    for strict in [false, true] {
        let at = des_at_trace(&w, strict);
        assert_subset_equal(&at, &rtl, des56::TLM_AT_SIGNALS);
    }
}

#[test]
fn des56_strict_at_covers_every_preserved_io_change() {
    // Def. III.1 (as used in the proof of Thm. III.1): the TLM model must
    // have a transaction at every instant where a preserved I/O signal
    // changes on the RTL model.
    let w = DesWorkload::mixed(4, 0xE3);
    let rtl = pin_trace(DesignKind::Des56, AbsLevel::Rtl, 4, 0xE3);
    let at = des_at_trace(&w, true);
    let steps = rtl.steps();
    for k in 1..steps.len() {
        let changed = des56::TLM_AT_SIGNALS
            .iter()
            .any(|s| steps[k].signal(s) != steps[k - 1].signal(s));
        if changed {
            assert!(
                at.position_at_time(steps[k].time_ns).is_some(),
                "preserved I/O changed at {}ns but strict TLM-AT has no transaction there",
                steps[k].time_ns
            );
        }
    }
}

#[test]
fn des56_loose_at_misses_some_io_changes() {
    // The loose (paper Section V) style is *not* strictly Def. III.1
    // equivalent: the strobe release instant has no transaction.
    let w = DesWorkload::mixed(4, 0xE4);
    let rtl = pin_trace(DesignKind::Des56, AbsLevel::Rtl, 4, 0xE4);
    let at = des_at_trace(&w, false);
    let steps = rtl.steps();
    let mut missed = 0;
    for k in 1..steps.len() {
        let changed = des56::TLM_AT_SIGNALS
            .iter()
            .any(|s| steps[k].signal(s) != steps[k - 1].signal(s));
        if changed && at.position_at_time(steps[k].time_ns).is_none() {
            missed += 1;
        }
    }
    assert!(
        missed > 0,
        "loose TLM-AT deliberately skips the release instants"
    );
}

#[test]
fn colorconv_tlm_at_agrees_with_rtl_at_transaction_instants() {
    let w = ConvWorkload::mixed(8, 0xE6);
    let rtl = pin_trace(DesignKind::ColorConv, AbsLevel::Rtl, 8, 0xE6);
    let at = record(
        colorconv::build_tlm_at(&w, Fault::None, false),
        colorconv::TLM_AT_SIGNALS,
    );

    assert_subset_equal(&at, &rtl, colorconv::TLM_AT_SIGNALS);
}

//! Def. III.1 timing equivalence between the abstraction levels, checked
//! on recorded traces: the RTL clock-edge trace and the TLM-CA
//! transaction trace must agree exactly on the preserved I/O signals, and
//! every TLM-AT transaction instant must agree with the RTL trace at that
//! time.

mod common;

use common::record;
use designs::colorconv::{self, ConvWorkload};
use designs::des56::{self, DesWorkload};
use designs::fir::{self, FirWorkload};
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

/// `design`'s loose or `strict` TLM-AT trace on its preserved signals,
/// over the seeded workload [`designs::build`] draws.
fn at_trace(design: DesignKind, size: usize, seed: u64, strict: bool) -> Trace {
    let built = match design {
        DesignKind::Des56 => {
            des56::build_tlm_at(&DesWorkload::mixed(size, seed), Fault::None, strict)
        }
        DesignKind::ColorConv => {
            colorconv::build_tlm_at(&ConvWorkload::mixed(size, seed), Fault::None, strict)
        }
        DesignKind::Fir => fir::build_tlm_at(&FirWorkload::random(size, seed), Fault::None, strict),
    };
    record(built, &design.tlm_at_signals())
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

/// Asserts every transaction of `design`'s loose and strict TLM-AT models
/// agrees with the RTL trace at its instant on the preserved signals.
#[track_caller]
fn assert_at_agrees_with_rtl(design: DesignKind, size: usize, seed: u64) {
    let rtl = pin_trace(design, AbsLevel::Rtl, size, seed);
    for strict in [false, true] {
        let at = at_trace(design, size, seed, strict);
        assert_subset_equal(&at, &rtl, &design.tlm_at_signals());
    }
}

/// The RTL instants at which a signal preserved at TLM-AT changes, and
/// whether `design`'s loose or `strict` TLM-AT model has a transaction
/// there.
fn io_changes(design: DesignKind, size: usize, seed: u64, strict: bool) -> Vec<(u64, bool)> {
    let rtl = pin_trace(design, AbsLevel::Rtl, size, seed);
    let at = at_trace(design, size, seed, strict);
    let preserved = design.tlm_at_signals();
    rtl.steps()
        .windows(2)
        .filter(|w| preserved.iter().any(|s| w[1].signal(s) != w[0].signal(s)))
        .map(|w| (w[1].time_ns, at.position_at_time(w[1].time_ns).is_some()))
        .collect()
}

/// Def. III.1 (as used in the proof of Thm. III.1): the strict TLM model
/// must have a transaction at every instant where a preserved I/O signal
/// changes on the RTL model.
#[track_caller]
fn assert_strict_at_covers_every_io_change(design: DesignKind) {
    for (time_ns, covered) in io_changes(design, 4, 0xE3, true) {
        assert!(
            covered,
            "{}: preserved I/O changed at {time_ns}ns but strict TLM-AT has no transaction there",
            design.label()
        );
    }
}

/// The loose (paper Section V) style is *not* strictly Def. III.1
/// equivalent: the strobe release instant has no transaction.
#[track_caller]
fn assert_loose_at_misses_some_io_changes(design: DesignKind) {
    let missed = io_changes(design, 4, 0xE4, false)
        .iter()
        .filter(|(_, covered)| !covered)
        .count();
    assert!(
        missed > 0,
        "{}: loose TLM-AT deliberately skips the release instants",
        design.label()
    );
}

#[test]
fn tlm_at_transactions_agree_with_rtl_at_their_instants() {
    for design in DesignKind::ALL {
        assert_at_agrees_with_rtl(design, 6, 0xE2);
    }
}

#[test]
fn strict_at_covers_every_preserved_io_change() {
    for design in DesignKind::ALL {
        assert_strict_at_covers_every_io_change(design);
    }
}

#[test]
fn loose_at_misses_some_io_changes() {
    for design in DesignKind::ALL {
        assert_loose_at_misses_some_io_changes(design);
    }
}

#[test]
fn des56_tlm_at_transactions_agree_with_rtl_at_their_instants() {
    assert_at_agrees_with_rtl(DesignKind::Des56, 6, 0xE2);
}

#[test]
fn des56_strict_at_covers_every_preserved_io_change() {
    assert_strict_at_covers_every_io_change(DesignKind::Des56);
}

#[test]
fn des56_loose_at_misses_some_io_changes() {
    assert_loose_at_misses_some_io_changes(DesignKind::Des56);
}

#[test]
fn colorconv_tlm_at_agrees_with_rtl_at_transaction_instants() {
    assert_at_agrees_with_rtl(DesignKind::ColorConv, 8, 0xE6);
}

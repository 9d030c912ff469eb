//! The design factory: fresh, fully-wired simulation instances from a
//! declarative `(design, level, size, seed, fault)` spec.
//!
//! This is what lets a verification campaign construct isolated runs
//! without knowing each IP's builder signatures: [`check`] decides which
//! combinations exist, and every builder — [`build`] and the per-IP ones
//! it dispatches to — yields a [`BuiltDesign`] carrying the simulation,
//! the observable attachment points (clock signal and/or transaction bus
//! — exactly what a checker [`Binding`](abv_checker::Binding) needs), the
//! nominal end time, and a uniform `run()`.

use abv_core::{abstract_property, reuse_at_cycle_accurate, AbstractionConfig};
use desim::{SignalId, SimStats, Simulation};
use psl::ClockedProperty;
use tlmkit::TransactionBus;

use crate::{colorconv, des56, fir, SuiteEntry, CLOCK_PERIOD_NS};

/// Which IP to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// 64-bit DES core (latency 17, 9 properties).
    Des56,
    /// RGB→YCbCr pipeline (latency 8, 12 properties).
    ColorConv,
    /// 4-tap FIR filter (latency 5, 6 properties).
    Fir,
}

impl DesignKind {
    /// All designs, in the paper's order (the FIR extension last).
    pub const ALL: [DesignKind; 3] = [DesignKind::Des56, DesignKind::ColorConv, DesignKind::Fir];

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DesignKind::Des56 => "DES56",
            DesignKind::ColorConv => "ColorConv",
            DesignKind::Fir => "FIR",
        }
    }

    /// Parses a case-insensitive label (`des56`, `colorconv`, `fir`).
    #[must_use]
    pub fn parse(s: &str) -> Option<DesignKind> {
        match s.to_ascii_lowercase().as_str() {
            "des56" | "des" => Some(DesignKind::Des56),
            "colorconv" | "conv" => Some(DesignKind::ColorConv),
            "fir" => Some(DesignKind::Fir),
            _ => None,
        }
    }

    /// The IP's RTL property suite.
    #[must_use]
    pub fn suite(self) -> Vec<SuiteEntry> {
        match self {
            DesignKind::Des56 => des56::suite(),
            DesignKind::ColorConv => colorconv::suite(),
            DesignKind::Fir => fir::suite(),
        }
    }

    /// The IP's abstraction configuration (10 ns clock, the IP's
    /// unobservable signals removed).
    #[must_use]
    pub fn config(self) -> AbstractionConfig {
        let base = AbstractionConfig::new(CLOCK_PERIOD_NS)
            .expect("the reference clock period is positive");
        match self {
            DesignKind::Des56 => base.abstract_signals(des56::ABSTRACTED_SIGNALS.iter().copied()),
            DesignKind::ColorConv => {
                base.abstract_signals(colorconv::ABSTRACTED_SIGNALS.iter().copied())
            }
            DesignKind::Fir => base.abstract_signals(fir::ABSTRACTED_SIGNALS.iter().copied()),
        }
    }
}

/// Abstraction level of a built simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbsLevel {
    /// RTL simulation (clock + pin wiggling).
    Rtl,
    /// TLM cycle-accurate: one transaction per clock period.
    TlmCa,
    /// TLM approximately-timed, the paper's loose style: one write + one
    /// read transaction per elaboration.
    TlmAt,
    /// ColorConv-only bulk-AT style: one transaction per image row.
    TlmAtBulk,
}

impl AbsLevel {
    /// The levels every design supports, in Table I order.
    pub const ALL: [AbsLevel; 3] = [AbsLevel::Rtl, AbsLevel::TlmCa, AbsLevel::TlmAt];

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AbsLevel::Rtl => "RTL",
            AbsLevel::TlmCa => "TLM-CA",
            AbsLevel::TlmAt => "TLM-AT",
            AbsLevel::TlmAtBulk => "TLM-AT-bulk",
        }
    }

    /// Parses a case-insensitive label (`rtl`, `tlm-ca`, `tlm-at`,
    /// `tlm-at-bulk`).
    #[must_use]
    pub fn parse(s: &str) -> Option<AbsLevel> {
        match s.to_ascii_lowercase().as_str() {
            "rtl" => Some(AbsLevel::Rtl),
            "tlm-ca" | "tlmca" | "ca" => Some(AbsLevel::TlmCa),
            "tlm-at" | "tlmat" | "at" => Some(AbsLevel::TlmAt),
            "tlm-at-bulk" | "bulk" => Some(AbsLevel::TlmAtBulk),
            _ => None,
        }
    }
}

/// An optional injected fault, selected design-independently: every model
/// of every IP stores one and injects its own form of it.
///
/// Not every IP supports every fault — [`Fault::catalogue`] lists the
/// supported set per design, and [`check`] (hence every builder) returns
/// [`BuildError::UnsupportedFault`] for pairs outside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fault {
    /// Correct behaviour.
    #[default]
    None,
    /// The IP's output appears one cycle early — caught by the latency
    /// properties at every level.
    LatencyShort,
    /// The IP's output appears one cycle late.
    LatencyLong,
    /// The IP's payload is corrupted out of its legal range (DES56 emits a
    /// zero block, ColorConv zeroes the luma, FIR exceeds its 16-bit
    /// bound).
    CorruptData,
    /// The completion strobe never rises; at TLM-AT the DES56 model also
    /// loses the completion transaction entirely.
    DropReady,
    /// The completion strobe is stuck at 1 from the first cycle.
    StuckControl,
    /// The second request is silently swallowed and never elaborated.
    DropTransaction,
    /// Every accepted request is elaborated twice, keeping the IP busy for
    /// two latency windows and swallowing requests meanwhile.
    DuplicateTransaction,
    /// One payload bit flipped at a seeded position.
    BitFlip {
        /// Which bit to flip (interpreted mod the IP's payload width).
        bit: u8,
    },
}

impl Fault {
    /// Display label (the bit-flip position is carried separately).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::LatencyShort => "latency-short",
            Fault::LatencyLong => "latency-long",
            Fault::CorruptData => "corrupt-data",
            Fault::DropReady => "drop-ready",
            Fault::StuckControl => "stuck-control",
            Fault::DropTransaction => "drop-transaction",
            Fault::DuplicateTransaction => "duplicate-transaction",
            Fault::BitFlip { .. } => "bit-flip",
        }
    }

    /// The faults `design` supports (its mutation catalogue), baseline
    /// first. The [`Fault::BitFlip`] entry carries bit 0; campaign layers
    /// reseed the position.
    #[must_use]
    pub fn catalogue(design: DesignKind) -> Vec<Fault> {
        match design {
            DesignKind::Des56 => vec![
                Fault::None,
                Fault::LatencyShort,
                Fault::LatencyLong,
                Fault::CorruptData,
                Fault::DropReady,
                Fault::StuckControl,
                Fault::DropTransaction,
                Fault::DuplicateTransaction,
            ],
            DesignKind::ColorConv => vec![
                Fault::None,
                Fault::LatencyShort,
                Fault::LatencyLong,
                Fault::CorruptData,
                Fault::DropReady,
                Fault::StuckControl,
                Fault::DropTransaction,
                Fault::BitFlip { bit: 0 },
            ],
            DesignKind::Fir => vec![
                Fault::None,
                Fault::LatencyShort,
                Fault::CorruptData,
                Fault::DropReady,
                Fault::DropTransaction,
                Fault::BitFlip { bit: 0 },
            ],
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::BitFlip { bit } => write!(f, "bit-flip[{bit}]"),
            other => f.write_str(other.label()),
        }
    }
}

/// One fully-built, fresh simulation instance.
///
/// `clk` is populated for RTL builds, `bus` for TLM builds; a checker
/// binding is built from whichever is present.
pub struct BuiltDesign {
    /// The simulation, ready to run.
    pub sim: Simulation,
    /// The clock signal, when the level has one.
    pub clk: Option<SignalId>,
    /// The transaction bus, when the level has one.
    pub bus: Option<TransactionBus>,
    /// Nominal end time of the workload, in ns.
    pub end_ns: u64,
}

/// Errors from [`check`], and so from every builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The design does not support the requested level (only ColorConv has
    /// a bulk-AT model).
    UnsupportedLevel {
        /// The design asked for.
        design: DesignKind,
        /// The level it does not support.
        level: AbsLevel,
    },
    /// The design's mutation catalogue has no equivalent of the requested
    /// fault (see [`Fault::catalogue`]).
    UnsupportedFault {
        /// The design asked for.
        design: DesignKind,
        /// The fault it does not support.
        fault: Fault,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnsupportedLevel { design, level } => {
                write!(f, "{} has no {} model", design.label(), level.label())
            }
            BuildError::UnsupportedFault { design, fault } => {
                write!(f, "{} has no {fault} mutation", design.label())
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Checks that `design` has a model at `level` with `fault` injected — the
/// one rule deciding which `(design, level, fault)` triples exist.
///
/// A fault is supported when [`Fault::catalogue`] lists it for the design
/// ([`Fault::BitFlip`] at any bit); bulk-AT exists for ColorConv only. The
/// fault is checked first. Every builder calls this before wiring a
/// simulation, and campaign plans call it to validate their cells.
///
/// # Errors
///
/// [`BuildError::UnsupportedFault`] for a fault outside the design's
/// catalogue, else [`BuildError::UnsupportedLevel`] for
/// [`AbsLevel::TlmAtBulk`] on designs other than ColorConv.
pub fn check(design: DesignKind, level: AbsLevel, fault: Fault) -> Result<(), BuildError> {
    let kind = std::mem::discriminant(&fault);
    if !Fault::catalogue(design)
        .iter()
        .any(|f| std::mem::discriminant(f) == kind)
    {
        return Err(BuildError::UnsupportedFault { design, fault });
    }
    if level == AbsLevel::TlmAtBulk && design != DesignKind::ColorConv {
        return Err(BuildError::UnsupportedLevel { design, level });
    }
    Ok(())
}

/// Builds a fresh `design` instance at `level` over a seeded workload of
/// `size` requests, with `fault` injected.
///
/// Equal arguments produce behaviourally identical simulations — the
/// whole stimulus is derived from `seed` — which is the foundation of the
/// campaign engine's determinism guarantee. TLM-AT is the paper's loose
/// style; the strict variants are built through the per-IP builders.
///
/// # Errors
///
/// Whatever [`check`] rejects.
pub fn build(
    design: DesignKind,
    level: AbsLevel,
    size: usize,
    seed: u64,
    fault: Fault,
) -> Result<BuiltDesign, BuildError> {
    use AbsLevel as L;
    use DesignKind as D;
    let des = || des56::DesWorkload::mixed(size, seed);
    let conv = || colorconv::ConvWorkload::mixed(size, seed);
    let fir = || fir::FirWorkload::random(size, seed);
    match (design, level) {
        (D::Des56, L::Rtl) => des56::build_rtl(&des(), fault),
        (D::Des56, L::TlmCa) => des56::build_tlm_ca(&des(), fault),
        (D::Des56, L::TlmAt) => des56::build_tlm_at(&des(), fault, false),
        (D::ColorConv, L::Rtl) => colorconv::build_rtl(&conv(), fault),
        (D::ColorConv, L::TlmCa) => colorconv::build_tlm_ca(&conv(), fault),
        (D::ColorConv, L::TlmAt) => colorconv::build_tlm_at(&conv(), fault, false),
        (D::ColorConv, L::TlmAtBulk) => colorconv::build_tlm_at_bulk(&conv(), fault),
        (D::Fir, L::Rtl) => fir::build_rtl(&fir(), fault),
        (D::Fir, L::TlmCa) => fir::build_tlm_ca(&fir(), fault),
        (D::Fir, L::TlmAt) => fir::build_tlm_at(&fir(), fault),
        (D::Des56 | D::Fir, L::TlmAtBulk) => {
            check(design, level, fault)?;
            unreachable!("check admits bulk-AT for ColorConv only")
        }
    }
}

/// The properties to verify at `level`, in suite order:
///
/// - RTL: the original clock-context properties;
/// - TLM-CA: the originals re-clocked onto `T_b` (no abstraction);
/// - TLM-AT: the surviving results of Methodology III.1;
/// - bulk-AT: the subset of the abstracted suite whose deadline structure
///   survives row-level transaction batching.
///
/// Empty for every `(design, level)` pair [`check`] rejects (bulk-AT on
/// DES56 or FIR), since no model exists to verify.
///
/// # Panics
///
/// Panics if a suite property fails to abstract (the shipped suites always
/// abstract).
#[must_use]
pub fn properties_at(design: DesignKind, level: AbsLevel) -> Vec<(String, ClockedProperty)> {
    if check(design, level, Fault::None).is_err() {
        return Vec::new();
    }
    let suite = design.suite();
    match level {
        AbsLevel::Rtl => suite.iter().map(SuiteEntry::named).collect(),
        AbsLevel::TlmCa => suite
            .iter()
            .map(|e| {
                (
                    e.name.to_owned(),
                    reuse_at_cycle_accurate(&e.rtl).expect("clock context"),
                )
            })
            .collect(),
        AbsLevel::TlmAt => {
            let cfg = design.config();
            suite
                .iter()
                .filter_map(|e| {
                    abstract_property(&e.rtl, &cfg)
                        .expect("suite abstracts")
                        .into_property()
                        .map(|q| (e.name.to_owned(), q))
                })
                .collect()
        }
        AbsLevel::TlmAtBulk => colorconv::bulk_surviving_properties(),
    }
}

/// The subset of [`properties_at`] expected to **pass** on the unmutated
/// design at `level`: the full suite at RTL/TLM-CA, the AT-compatible
/// subset (abstracted) at TLM-AT, the surviving range checks at bulk-AT.
///
/// This is the baseline a mutation campaign measures against — a mutant is
/// killed exactly when one of these fails. Empty, like [`properties_at`],
/// for every pair [`check`] rejects.
///
/// # Panics
///
/// Panics if a suite property fails to abstract (the shipped suites always
/// abstract).
#[must_use]
pub fn passing_properties_at(
    design: DesignKind,
    level: AbsLevel,
) -> Vec<(String, ClockedProperty)> {
    match level {
        AbsLevel::Rtl | AbsLevel::TlmCa | AbsLevel::TlmAtBulk => properties_at(design, level),
        AbsLevel::TlmAt => {
            let cfg = design.config();
            design
                .suite()
                .iter()
                .filter(|e| e.class == crate::PropertyClass::AtCompatible)
                .filter_map(|e| {
                    abstract_property(&e.rtl, &cfg)
                        .expect("suite abstracts")
                        .into_property()
                        .map(|q| (e.name.to_owned(), q))
                })
                .collect()
        }
    }
}

impl BuiltDesign {
    /// Runs the simulation to the workload's end and returns the kernel's
    /// activity counters.
    pub fn run(&mut self) -> SimStats {
        self.sim.run_until(desim::SimTime::from_ns(self.end_ns))
    }

    /// The checker binding over this instance's attachment points.
    ///
    /// # Panics
    ///
    /// Panics if the instance offers neither a clock nor a bus (no level
    /// builds such an instance).
    #[must_use]
    pub fn binding(&self) -> abv_checker::Binding {
        match (self.clk, &self.bus) {
            (Some(clk), Some(bus)) => abv_checker::Binding::full(clk, bus),
            (Some(clk), None) => abv_checker::Binding::clock(clk),
            (None, Some(bus)) => abv_checker::Binding::bus(bus),
            (None, None) => unreachable!("every level offers a clock or a bus"),
        }
    }

    /// Attaches a tracer to the instance's simulation. Call *before*
    /// attaching checkers so their track-name metadata is recorded.
    pub fn set_tracer(&mut self, tracer: abv_obs::Tracer) {
        self.sim.set_tracer(tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abv_checker::Checker;

    #[test]
    fn labels_roundtrip_through_parse() {
        for d in DesignKind::ALL {
            assert_eq!(DesignKind::parse(d.label()), Some(d));
        }
        for l in [
            AbsLevel::Rtl,
            AbsLevel::TlmCa,
            AbsLevel::TlmAt,
            AbsLevel::TlmAtBulk,
        ] {
            assert_eq!(AbsLevel::parse(l.label()), Some(l));
        }
        assert_eq!(DesignKind::parse("bogus"), None);
        assert_eq!(AbsLevel::parse("bogus"), None);
    }

    #[test]
    fn bulk_is_colorconv_only() {
        for design in [DesignKind::Des56, DesignKind::Fir] {
            assert!(build(design, AbsLevel::TlmAtBulk, 2, 0, Fault::None).is_err());
            assert!(properties_at(design, AbsLevel::TlmAtBulk).is_empty());
            assert!(passing_properties_at(design, AbsLevel::TlmAtBulk).is_empty());
        }
        assert!(build(
            DesignKind::ColorConv,
            AbsLevel::TlmAtBulk,
            2,
            0,
            Fault::None
        )
        .is_ok());
        assert_eq!(
            properties_at(DesignKind::ColorConv, AbsLevel::TlmAtBulk).len(),
            4
        );
    }

    /// Every `Fault` variant, bit-flip at two positions.
    fn every_fault() -> [Fault; 10] {
        [
            Fault::None,
            Fault::LatencyShort,
            Fault::LatencyLong,
            Fault::CorruptData,
            Fault::DropReady,
            Fault::StuckControl,
            Fault::DropTransaction,
            Fault::DuplicateTransaction,
            Fault::BitFlip { bit: 0 },
            Fault::BitFlip { bit: 13 },
        ]
    }

    /// The IP's own builder for `(design, level)`, over a 1-request
    /// workload; `None` where the IP has no such builder.
    fn per_ip_build(
        design: DesignKind,
        level: AbsLevel,
        fault: Fault,
    ) -> Option<Result<BuiltDesign, BuildError>> {
        let des = || des56::DesWorkload::mixed(1, 0);
        let conv = || colorconv::ConvWorkload::mixed(1, 0);
        let fir = || fir::FirWorkload::random(1, 0);
        Some(match (design, level) {
            (DesignKind::Des56, AbsLevel::Rtl) => des56::build_rtl(&des(), fault),
            (DesignKind::Des56, AbsLevel::TlmCa) => des56::build_tlm_ca(&des(), fault),
            (DesignKind::Des56, AbsLevel::TlmAt) => des56::build_tlm_at(&des(), fault, true),
            (DesignKind::ColorConv, AbsLevel::Rtl) => colorconv::build_rtl(&conv(), fault),
            (DesignKind::ColorConv, AbsLevel::TlmCa) => colorconv::build_tlm_ca(&conv(), fault),
            (DesignKind::ColorConv, AbsLevel::TlmAt) => {
                colorconv::build_tlm_at(&conv(), fault, true)
            }
            (DesignKind::ColorConv, AbsLevel::TlmAtBulk) => {
                colorconv::build_tlm_at_bulk(&conv(), fault)
            }
            (DesignKind::Fir, AbsLevel::Rtl) => fir::build_rtl(&fir(), fault),
            (DesignKind::Fir, AbsLevel::TlmCa) => fir::build_tlm_ca(&fir(), fault),
            (DesignKind::Fir, AbsLevel::TlmAt) => fir::build_tlm_at(&fir(), fault),
            (DesignKind::Des56 | DesignKind::Fir, AbsLevel::TlmAtBulk) => return None,
        })
    }

    #[test]
    fn check_decides_exactly_what_builds() {
        let levels = [
            AbsLevel::Rtl,
            AbsLevel::TlmCa,
            AbsLevel::TlmAt,
            AbsLevel::TlmAtBulk,
        ];
        let mut accepted = 0;
        for design in DesignKind::ALL {
            for level in levels {
                for fault in every_fault() {
                    let what = format!("{} {} {fault}", design.label(), level.label());
                    let checked = check(design, level, fault);
                    let built = build(design, level, 1, 0, fault).map(|_| ());
                    assert_eq!(checked, built, "{what}");
                    match per_ip_build(design, level, fault) {
                        Some(direct) => assert_eq!(direct.map(|_| ()), checked, "{what}"),
                        None => assert!(checked.is_err(), "{what} has no builder"),
                    }
                    accepted += usize::from(checked.is_ok());
                }
            }
        }
        // Catalogue sizes 8 + 8 + 6, bit-flip counted at both positions,
        // at the three shared levels; ColorConv's 9 also at bulk-AT.
        assert_eq!(accepted, 3 * (8 + 9 + 7) + 9);
    }

    #[test]
    fn every_design_level_runs_with_its_suite() {
        for design in DesignKind::ALL {
            for level in AbsLevel::ALL {
                let mut built = build(design, level, 3, 7, Fault::None).expect("builds");
                let props = properties_at(design, level);
                assert!(!props.is_empty());
                let binding = built.binding();
                let checkers =
                    Checker::attach_all(&mut built.sim, &props, binding).expect("attaches");
                let stats = built.run();
                assert!(stats.events_processed > 0);
                let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
                // At RTL/TLM-CA the whole suite holds; at TLM-AT only the
                // AT-compatible subset is expected to pass on the loose
                // model (the rest fail by design — PropertyClass).
                for entry in design.suite() {
                    let Some(p) = report.property(entry.name) else {
                        continue;
                    };
                    let expect_pass = match level {
                        AbsLevel::Rtl | AbsLevel::TlmCa => true,
                        _ => entry.class == crate::PropertyClass::AtCompatible,
                    };
                    assert_eq!(
                        p.failure_count == 0,
                        expect_pass,
                        "{} {} {}: {p}",
                        design.label(),
                        level.label(),
                        entry.name
                    );
                }
            }
        }
    }

    #[test]
    fn latency_fault_is_caught_at_tlm_at() {
        for design in DesignKind::ALL {
            let mut built =
                build(design, AbsLevel::TlmAt, 4, 9, Fault::LatencyShort).expect("builds");
            let props = properties_at(design, AbsLevel::TlmAt);
            let binding = built.binding();
            let checkers = Checker::attach_all(&mut built.sim, &props, binding).expect("attaches");
            built.run();
            let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
            assert!(report.total_failures() > 0, "{}: {report}", design.label());
        }
    }

    #[test]
    fn unsupported_faults_are_structured_errors() {
        // DES56 has no payload bit-flip; ColorConv no duplicate; FIR
        // neither latency-long nor stuck-control nor duplicate. The fault
        // is checked before the level, so bulk-AT on DES56/FIR reports it
        // too.
        let cases = [
            (DesignKind::Des56, Fault::BitFlip { bit: 3 }),
            (DesignKind::ColorConv, Fault::DuplicateTransaction),
            (DesignKind::Fir, Fault::LatencyLong),
            (DesignKind::Fir, Fault::StuckControl),
            (DesignKind::Fir, Fault::DuplicateTransaction),
        ];
        for (design, fault) in cases {
            for level in AbsLevel::ALL.into_iter().chain([AbsLevel::TlmAtBulk]) {
                let err = match build(design, level, 2, 0, fault) {
                    Err(err) => err,
                    Ok(_) => panic!("{} {fault} must not fall back", design.label()),
                };
                assert_eq!(err, BuildError::UnsupportedFault { design, fault });
            }
        }
        let msg = BuildError::UnsupportedFault {
            design: DesignKind::Des56,
            fault: Fault::BitFlip { bit: 3 },
        }
        .to_string();
        assert_eq!(msg, "DES56 has no bit-flip[3] mutation");
    }

    #[test]
    fn catalogue_builds_everywhere_and_starts_with_the_baseline() {
        for design in DesignKind::ALL {
            let catalogue = Fault::catalogue(design);
            assert_eq!(catalogue[0], Fault::None);
            for fault in catalogue {
                for level in AbsLevel::ALL {
                    assert!(
                        build(design, level, 2, 1, fault).is_ok(),
                        "{} {} {fault}",
                        design.label(),
                        level.label()
                    );
                }
            }
        }
    }

    #[test]
    fn passing_properties_pass_on_the_unmutated_design() {
        for design in DesignKind::ALL {
            for level in AbsLevel::ALL {
                let mut built = build(design, level, 3, 7, Fault::None).expect("builds");
                let props = passing_properties_at(design, level);
                assert!(!props.is_empty());
                let binding = built.binding();
                let checkers =
                    Checker::attach_all(&mut built.sim, &props, binding).expect("attaches");
                built.run();
                let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
                assert!(
                    report.all_pass(),
                    "{} {}: {report}",
                    design.label(),
                    level.label()
                );
            }
        }
    }

    #[test]
    fn every_catalogued_mutant_is_killed_at_every_level() {
        for design in DesignKind::ALL {
            for fault in Fault::catalogue(design) {
                for level in AbsLevel::ALL {
                    let mut built = build(design, level, 8, 2015, fault).expect("builds");
                    let props = passing_properties_at(design, level);
                    let binding = built.binding();
                    let checkers =
                        Checker::attach_all(&mut built.sim, &props, binding).expect("attaches");
                    built.run();
                    let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
                    let expect_killed = fault != Fault::None;
                    assert_eq!(
                        report.total_failures() > 0,
                        expect_killed,
                        "{} {} {fault}: {report}",
                        design.label(),
                        level.label()
                    );
                }
            }
        }
    }

    #[test]
    fn same_spec_same_behaviour() {
        let run_once = || {
            let mut built =
                build(DesignKind::ColorConv, AbsLevel::TlmAt, 5, 42, Fault::None).expect("builds");
            let props = properties_at(DesignKind::ColorConv, AbsLevel::TlmAt);
            let binding = built.binding();
            let checkers = Checker::attach_all(&mut built.sim, &props, binding).expect("attaches");
            let stats = built.run();
            let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
            (
                stats.events_processed,
                stats.delta_cycles,
                format!("{report}"),
            )
        };
        assert_eq!(run_once(), run_once());
    }
}

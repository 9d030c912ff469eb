//! Property-suite metadata shared by every IP, and the per-process table
//! of each suite's properties at every level.

use std::sync::OnceLock;

use abv_core::{abstract_property, reuse_at_cycle_accurate};
use psl::ClockedProperty;

use crate::{colorconv, AbsLevel, DesignKind};

/// Expected behaviour of a property across abstraction levels — the
/// classification discussed in DESIGN.md §5b.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PropertyClass {
    /// The abstracted property only references instants where the TLM-AT
    /// model produces transactions (write submission / read completion):
    /// it must pass at RTL, TLM-CA and TLM-AT.
    AtCompatible,
    /// The abstracted property references intermediate instants that a
    /// loose TLM-AT model never produces: it must pass at RTL and TLM-CA,
    /// and — per the strict Def. III.3 semantics — fail at TLM-AT with a
    /// "no event at required instant" diagnostic.
    CaOnly,
    /// Signal abstraction dropped a disjunct (Section III-B): the result
    /// is *not* a logical consequence of the original, the abstraction
    /// flags it for review, and it is expected to fail at TLM until
    /// manually refined.
    ReviewExpectedFail,
    /// Signal abstraction deletes the whole property: nothing to check at
    /// TLM.
    DeletedAtTlm,
}

/// One property of an IP's verification suite.
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    /// Short identifier (`p1` … `p9`, `c1` … `c12`).
    pub name: &'static str,
    /// What the property asserts, in prose.
    pub intent: &'static str,
    /// The RTL property.
    pub rtl: ClockedProperty,
    /// Cross-level classification.
    pub class: PropertyClass,
}

impl SuiteEntry {
    /// `(name, property)` pair as the checker installers expect.
    #[must_use]
    pub fn named(&self) -> (String, ClockedProperty) {
        (self.name.to_owned(), self.rtl.clone())
    }
}

/// The number of [`AbsLevel`]s, which index the table's columns.
const LEVELS: usize = AbsLevel::TlmAtBulk as usize + 1;

/// An IP's suite at every level, in suite order.
#[derive(Debug)]
pub(crate) struct SuiteTable {
    /// Per level (`AbsLevel as usize`): every property that exists there.
    all: [Vec<(String, ClockedProperty)>; LEVELS],
    /// Per level: the subset of `all` expected to pass on the unmutated
    /// design.
    passing: [Vec<(String, ClockedProperty)>; LEVELS],
}

impl SuiteTable {
    /// `design`'s table, derived on the first call in the process.
    ///
    /// The suites are constants, so one derivation serves every run; the
    /// `OnceLock` lets concurrent campaign workers share it, and a worker
    /// racing the first derivation blocks until it is stored.
    pub(crate) fn of(design: DesignKind) -> &'static SuiteTable {
        const N: usize = DesignKind::ALL.len();
        static TABLES: [OnceLock<SuiteTable>; N] = [const { OnceLock::new() }; N];
        TABLES[design as usize].get_or_init(|| SuiteTable::derive(design))
    }

    /// Runs the abstraction flow over `design`'s RTL suite.
    ///
    /// # Panics
    ///
    /// Panics if a suite property fails to re-clock or abstract (the
    /// shipped suites always do).
    fn derive(design: DesignKind) -> SuiteTable {
        let cfg = design.config();
        let mut all: [Vec<(String, ClockedProperty)>; LEVELS] = Default::default();
        let mut passing: [Vec<(String, ClockedProperty)>; LEVELS] = Default::default();
        for e in design.suite() {
            let tlm_ca = reuse_at_cycle_accurate(&e.rtl).expect("clock context");
            // `None` when signal abstraction deletes the property.
            let tlm_at = abstract_property(&e.rtl, &cfg)
                .expect("suite abstracts")
                .into_property();
            let levels = [
                (AbsLevel::Rtl, Some(e.rtl)),
                (AbsLevel::TlmCa, Some(tlm_ca)),
                (AbsLevel::TlmAt, tlm_at),
            ];
            for (level, p) in levels {
                let Some(p) = p else { continue };
                let pair = (e.name.to_owned(), p);
                if level != AbsLevel::TlmAt || e.class == PropertyClass::AtCompatible {
                    passing[level as usize].push(pair.clone());
                }
                all[level as usize].push(pair);
            }
        }
        if design == DesignKind::ColorConv {
            // The bulk-AT survivors all pass.
            let bulk = colorconv::bulk_surviving_properties();
            passing[AbsLevel::TlmAtBulk as usize].clone_from(&bulk);
            all[AbsLevel::TlmAtBulk as usize] = bulk;
        }
        SuiteTable { all, passing }
    }

    /// The pairs at `level`: all of them, or with `passing_only` the ones
    /// expected to pass.
    pub(crate) fn at(&self, level: AbsLevel, passing_only: bool) -> &[(String, ClockedProperty)] {
        let column = if passing_only {
            &self.passing
        } else {
            &self.all
        };
        &column[level as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_pairs() {
        let e = SuiteEntry {
            name: "p1",
            intent: "demo",
            rtl: "always rdy @clk_pos".parse().unwrap(),
            class: PropertyClass::AtCompatible,
        };
        let (n, p) = e.named();
        assert_eq!(n, "p1");
        assert_eq!(p, e.rtl);
    }

    fn render(props: &[(String, ClockedProperty)]) -> Vec<String> {
        props.iter().map(|(n, p)| format!("{n}: {p}")).collect()
    }

    /// The flow run afresh from `suite()` for one call: the stored table
    /// must render exactly this.
    fn fresh(design: DesignKind, level: AbsLevel, passing_only: bool) -> Vec<String> {
        if crate::check(design, level, crate::Fault::None).is_err() {
            return Vec::new();
        }
        if level == AbsLevel::TlmAtBulk {
            return render(&colorconv::bulk_surviving_properties());
        }
        let cfg = design.config();
        let props: Vec<(String, ClockedProperty)> = design
            .suite()
            .into_iter()
            .filter(|e| {
                !passing_only || level != AbsLevel::TlmAt || e.class == PropertyClass::AtCompatible
            })
            .filter_map(|e| {
                let p = match level {
                    AbsLevel::Rtl => Some(e.rtl),
                    AbsLevel::TlmCa => Some(reuse_at_cycle_accurate(&e.rtl).unwrap()),
                    AbsLevel::TlmAt | AbsLevel::TlmAtBulk => {
                        abstract_property(&e.rtl, &cfg).unwrap().into_property()
                    }
                };
                p.map(|p| (e.name.to_owned(), p))
            })
            .collect();
        render(&props)
    }

    #[test]
    fn stored_suites_render_like_a_fresh_derivation() {
        let levels = [
            AbsLevel::Rtl,
            AbsLevel::TlmCa,
            AbsLevel::TlmAt,
            AbsLevel::TlmAtBulk,
        ];
        for design in DesignKind::ALL {
            for level in levels {
                let what = format!("{} {}", design.label(), level.label());
                // Twice: the first call may derive, the second reads.
                for _ in 0..2 {
                    assert_eq!(
                        render(&crate::properties_at(design, level)),
                        fresh(design, level, false),
                        "{what}"
                    );
                    assert_eq!(
                        render(&crate::passing_properties_at(design, level)),
                        fresh(design, level, true),
                        "{what} passing"
                    );
                }
            }
        }
    }
}

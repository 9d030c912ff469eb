//! Signal abstraction: the Fig. 4 transformation rules (Section III-B).
//!
//! When the RTL-to-TLM abstraction removes control signals (handshake
//! lines, ready-prediction outputs, …), subformulas observing those signals
//! can no longer be evaluated at TLM and must be deleted. Writing `∅` for a
//! deleted subformula, the paper's rules are:
//!
//! ```text
//! a_s        ⇝ ∅        next(a_s)    ⇝ ∅
//! p || ∅     ⇝ p        ∅ || p       ⇝ p
//! p && ∅     ⇝ p        ∅ && p       ⇝ p
//! p until ∅  ⇝ p        ∅ until p    ⇝ ∅
//! p release ∅ ⇝ ∅       ∅ release p  ⇝ p
//! ```
//!
//! `always`/`eventually` follow from their definitions
//! (`always p = false release p`, `eventually p = true until p`):
//! `always ∅ ⇝ ∅` and `eventually ∅ ⇝ true`.
//!
//! When `∅` propagates to the root the whole property is deleted — its
//! semantics depended entirely on the abstracted handshaking protocol.
//!
//! # Logical-consequence tracking
//!
//! In negation normal form every subformula occurs positively, so dropping
//! a *conjunct* (`p && ∅ ⇝ p`) yields a logical consequence of the original
//! property: if the original holds on the RTL model, the result must hold
//! on a timing-equivalent TLM model. Dropping a *disjunct* or an
//! `until`/`release` operand does **not** yield a consequence in general;
//! the paper prescribes human investigation of failures in that case. The
//! returned [`RuleOutcome`] counts both kinds so callers can classify the
//! result (see [`Consequence`](crate::methodology::Consequence)).

use psl::{Atom, Property};

use crate::config::AbstractionConfig;

/// Result of applying the Fig. 4 rules to a property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleOutcome {
    /// The rewritten property, or `None` if `∅` reached the root and the
    /// whole property was deleted.
    pub result: Option<Property>,
    /// Atoms over abstracted signals that were removed, in syntactic order.
    pub removed_atoms: Vec<Atom>,
    /// Number of consequence-preserving drops (`p && ∅ ⇝ p` and the
    /// `∅ until p ⇝ ∅` / `p release ∅ ⇝ ∅` deletions, which propagate
    /// rather than rewrite).
    pub conjunct_drops: usize,
    /// Number of drops that are *not* guaranteed logical consequences
    /// (`p || ∅ ⇝ p`, `p until ∅ ⇝ p`, `∅ release p ⇝ p`).
    pub review_drops: usize,
}

impl RuleOutcome {
    /// True if no rule fired (the property observes no abstracted signal).
    #[must_use]
    pub fn is_unchanged(&self) -> bool {
        self.removed_atoms.is_empty()
    }
}

/// Applies the Fig. 4 rules, deleting every subformula that observes a
/// signal in `cfg`'s abstracted set.
///
/// The property should be in negation normal form (implication is accepted
/// for totality and handled through its `!lhs || rhs` reading).
///
/// ```
/// use abv_core::{rules::apply, AbstractionConfig};
/// use psl::Property;
///
/// let cfg = AbstractionConfig::new(10)?.abstract_signal("hs");
/// let p: Property = "always (a && next hs)".parse()?;
/// let out = apply(&p, &cfg);
/// assert_eq!(out.result.expect("kept").to_string(), "always a");
/// assert_eq!(out.conjunct_drops, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn apply(p: &Property, cfg: &AbstractionConfig) -> RuleOutcome {
    let mut outcome = RuleOutcome {
        result: None,
        removed_atoms: Vec::new(),
        conjunct_drops: 0,
        review_drops: 0,
    };
    outcome.result = rewrite(p, cfg, &mut outcome);
    outcome
}

/// Returns the rewritten property or `None` for `∅`.
fn rewrite(p: &Property, cfg: &AbstractionConfig, out: &mut RuleOutcome) -> Option<Property> {
    match p {
        Property::Const(_) => Some(p.clone()),
        Property::Atom(a) => {
            if cfg.is_abstracted(a.signal()) {
                out.removed_atoms.push(a.clone());
                None
            } else {
                Some(p.clone())
            }
        }
        Property::Not(inner) => {
            // `!∅ ⇝ ∅`: a negated abstracted literal disappears with its atom.
            let i = rewrite(inner, cfg, out)?;
            Some(Property::not(i))
        }
        Property::And(a, b) => match (rewrite(a, cfg, out), rewrite(b, cfg, out)) {
            (Some(l), Some(r)) => Some(l.and(r)),
            (Some(x), None) | (None, Some(x)) => {
                out.conjunct_drops += 1;
                Some(x)
            }
            (None, None) => None,
        },
        Property::Or(a, b) => match (rewrite(a, cfg, out), rewrite(b, cfg, out)) {
            (Some(l), Some(r)) => Some(l.or(r)),
            (Some(x), None) | (None, Some(x)) => {
                out.review_drops += 1;
                Some(x)
            }
            (None, None) => None,
        },
        // a -> b reads as !a || b; the disjunct rules apply.
        Property::Implies(a, b) => match (rewrite(a, cfg, out), rewrite(b, cfg, out)) {
            (Some(l), Some(r)) => Some(l.implies(r)),
            (Some(l), None) => {
                out.review_drops += 1;
                Some(Property::not(l))
            }
            (None, Some(r)) => {
                out.review_drops += 1;
                Some(r)
            }
            (None, None) => None,
        },
        Property::Next { n, inner } => {
            let i = rewrite(inner, cfg, out)?;
            Some(Property::next_n(*n, i))
        }
        Property::NextEt { tau, eps_ns, inner } => {
            let i = rewrite(inner, cfg, out)?;
            Some(Property::next_et(*tau, *eps_ns, i))
        }
        Property::Until(a, b) => match (rewrite(a, cfg, out), rewrite(b, cfg, out)) {
            (Some(l), Some(r)) => Some(l.until(r)),
            // p until ∅ ⇝ p
            (Some(l), None) => {
                out.review_drops += 1;
                Some(l)
            }
            // ∅ until p ⇝ ∅
            (None, Some(_)) => {
                out.conjunct_drops += 1;
                None
            }
            (None, None) => None,
        },
        Property::Release(a, b) => match (rewrite(a, cfg, out), rewrite(b, cfg, out)) {
            (Some(l), Some(r)) => Some(l.release(r)),
            // p release ∅ ⇝ ∅
            (Some(_), None) => {
                out.conjunct_drops += 1;
                None
            }
            // ∅ release p ⇝ p
            (None, Some(r)) => {
                out.review_drops += 1;
                Some(r)
            }
            (None, None) => None,
        },
        // always p = false release p: `always ∅ ⇝ ∅`.
        Property::Always(inner) => {
            let i = rewrite(inner, cfg, out)?;
            Some(Property::always(i))
        }
        // eventually p = true until p: `eventually ∅ ⇝ true` by the
        // `p until ∅ ⇝ p` rule.
        Property::Eventually(inner) => match rewrite(inner, cfg, out) {
            Some(i) => Some(Property::eventually(i)),
            None => {
                out.review_drops += 1;
                Some(Property::t())
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AbstractionConfig {
        AbstractionConfig::new(10)
            .unwrap()
            .abstract_signal("hs")
            .abstract_signal("hs2")
    }

    fn run(src: &str) -> RuleOutcome {
        apply(&src.parse::<Property>().unwrap(), &cfg())
    }

    fn kept(src: &str) -> String {
        run(src)
            .result
            .expect("property should be kept")
            .to_string()
    }

    #[test]
    fn atom_and_next_atom_delete() {
        assert_eq!(run("hs").result, None);
        assert_eq!(run("next[3] hs").result, None);
        assert_eq!(run("!hs").result, None);
        assert_eq!(run("next_et[1, 30] hs").result, None);
    }

    #[test]
    fn disjunct_rules() {
        assert_eq!(kept("a || hs"), "a");
        assert_eq!(kept("hs || a"), "a");
        assert_eq!(run("a || hs").review_drops, 1);
        assert_eq!(run("hs || hs2").result, None);
    }

    #[test]
    fn conjunct_rules() {
        assert_eq!(kept("a && hs"), "a");
        assert_eq!(kept("hs && a"), "a");
        assert_eq!(run("a && hs").conjunct_drops, 1);
        assert_eq!(run("a && hs").review_drops, 0);
        assert_eq!(run("hs && hs2").result, None);
    }

    #[test]
    fn until_rules() {
        assert_eq!(kept("a until hs"), "a");
        assert_eq!(run("a until hs").review_drops, 1);
        assert_eq!(run("hs until a").result, None);
        assert_eq!(run("hs until a").conjunct_drops, 1);
    }

    #[test]
    fn release_rules() {
        assert_eq!(run("a release hs").result, None);
        assert_eq!(run("a release hs").conjunct_drops, 1);
        assert_eq!(kept("hs release a"), "a");
        assert_eq!(run("hs release a").review_drops, 1);
    }

    #[test]
    fn derived_operators() {
        assert_eq!(run("always hs").result, None);
        assert_eq!(kept("eventually hs"), "true");
        assert_eq!(kept("always (a || hs)"), "always a");
    }

    #[test]
    fn deletion_propagates_to_root() {
        assert_eq!(run("always (next[2] (hs && hs2))").result, None);
    }

    #[test]
    fn untouched_property_reports_unchanged() {
        let out = run("always (a || next b)");
        assert!(out.is_unchanged());
        assert_eq!(out.result.unwrap().to_string(), "always (a || (next b))");
    }

    #[test]
    fn removed_atoms_recorded_in_order() {
        let out = run("(hs && a) || next hs2");
        let names: Vec<_> = out.removed_atoms.iter().map(Atom::signal).collect();
        assert_eq!(names, vec!["hs", "hs2"]);
    }

    #[test]
    fn paper_p3_shape() {
        // p3 body after push-ahead, with the two prediction signals
        // abstracted: the surviving conjunct is next[17] rdy.
        let cfg = AbstractionConfig::new(10)
            .unwrap()
            .abstract_signal("rdy_next_cycle")
            .abstract_signal("rdy_next_next_cycle");
        let p: Property = "always (!ds || (next[15] rdy_next_next_cycle \
                           && next[16] rdy_next_cycle && next[17] rdy))"
            .parse()
            .unwrap();
        let out = apply(&p, &cfg);
        assert_eq!(
            out.result.unwrap().to_string(),
            "always ((!ds) || (next[17] rdy))"
        );
        // One drop-rule application: (∅ && ∅) && next[17] rdy collapses in
        // a single `∅ && p ⇝ p` step; both removed atoms are recorded.
        assert_eq!(out.conjunct_drops, 1);
        assert_eq!(out.review_drops, 0);
        assert_eq!(out.removed_atoms.len(), 2);
    }

    #[test]
    fn implication_fallback() {
        assert_eq!(kept("hs -> a"), "a");
        assert_eq!(kept("a -> hs"), "!a");
        assert_eq!(run("hs -> hs2").result, None);
    }
}

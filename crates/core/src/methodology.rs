//! Methodology III.1: the end-to-end RTL-to-TLM property abstraction.
//!
//! Pipeline (the order follows the paper's Fig. 3 examples — signal
//! abstraction runs before `next` substitution, so `τ` indices are assigned
//! to the *surviving* chains, matching `q3`'s `next_ε^1`):
//!
//! 1. negation normal form (Def. II.1);
//! 2. push-ahead of `next` operators (Section III-A rules);
//! 3. signal abstraction (Fig. 4 rules, Section III-B);
//! 4. `next[n]` → `next_ε^τ` (Algorithm III.1);
//! 5. clock context → transaction context (Def. III.2).

use std::fmt;

use psl::push_ahead::{push_ahead, PushAheadError};
use psl::{Atom, ClockedProperty};

use crate::algorithm::{next_substitution, NextSubstError};
use crate::config::AbstractionConfig;
use crate::context_map::{map_context, ContextMapError};
use crate::rules;

/// How the abstracted property relates to the original (Section III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Consequence {
    /// No subformula was deleted: by Theorem III.2, if the RTL model
    /// satisfies the original, a timing-equivalent TLM model satisfies the
    /// result.
    Equivalent,
    /// Only consequence-preserving deletions were applied (conjunct drops):
    /// the result is a logical consequence of the original, so it must
    /// still hold on a timing-equivalent TLM model.
    Weakened,
    /// A deletion that is not a guaranteed logical consequence was applied
    /// (disjunct or `until`/`release` operand drop): a TLM failure requires
    /// human investigation — it may indicate a wrong TLM model *or* a
    /// property whose intent was altered by the rules.
    NeedsReview,
    /// The whole property was deleted: its semantics depended entirely on
    /// the abstracted protocol and it is meaningless at TLM.
    Deleted,
}

impl fmt::Display for Consequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Consequence::Equivalent => "equivalent",
            Consequence::Weakened => "weakened (logical consequence)",
            Consequence::NeedsReview => "needs review",
            Consequence::Deleted => "deleted",
        };
        f.write_str(s)
    }
}

/// Report of one property abstraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Abstraction {
    original: ClockedProperty,
    result: Option<ClockedProperty>,
    consequence: Consequence,
    removed_atoms: Vec<Atom>,
}

impl Abstraction {
    /// The RTL property the abstraction started from.
    #[must_use]
    pub fn original(&self) -> &ClockedProperty {
        &self.original
    }

    /// The abstracted TLM property, or `None` if it was deleted.
    #[must_use]
    pub fn result(&self) -> Option<&ClockedProperty> {
        self.result.as_ref()
    }

    /// Consumes the report, returning the TLM property if kept.
    #[must_use]
    pub fn into_property(self) -> Option<ClockedProperty> {
        self.result
    }

    /// Relationship between original and result.
    #[must_use]
    pub fn consequence(&self) -> Consequence {
        self.consequence
    }

    /// Atoms over abstracted signals removed by the Fig. 4 rules, in
    /// syntactic order.
    #[must_use]
    pub fn removed_atoms(&self) -> &[Atom] {
        &self.removed_atoms
    }

    /// True if checking the result at TLM requires human investigation of
    /// failures (Section III-B).
    #[must_use]
    pub fn needs_review(&self) -> bool {
        self.consequence == Consequence::NeedsReview
    }
}

impl fmt::Display for Abstraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.result {
            Some(q) => write!(f, "{} => {} [{}]", self.original, q, self.consequence),
            None => write!(f, "{} => (deleted)", self.original),
        }
    }
}

/// Errors returned by [`abstract_property`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbstractError {
    /// The input property's context is already a transaction context.
    AlreadyTlm,
    /// The input property contains `next_ε^τ` operators.
    AlreadyAbstracted,
    /// Push-ahead failed (should not happen after NNF; indicates a property
    /// outside the supported grammar).
    PushAhead(PushAheadError),
    /// Algorithm III.1's `ε = n × c` for some `next[n]` chain does not fit
    /// in 64 bits of nanoseconds.
    EpsilonOverflow {
        /// The chain's `next` count.
        n: u32,
        /// The RTL clock period `c`, in nanoseconds.
        clock_period_ns: u64,
    },
}

impl fmt::Display for AbstractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbstractError::AlreadyTlm => f.write_str("property already has a transaction context"),
            AbstractError::AlreadyAbstracted => {
                f.write_str("property already contains next_et operators")
            }
            AbstractError::PushAhead(e) => write!(f, "push-ahead failed: {e}"),
            AbstractError::EpsilonOverflow { n, clock_period_ns } => {
                NextSubstError::EpsilonOverflow {
                    n: *n,
                    clock_period_ns: *clock_period_ns,
                }
                .fmt(f)
            }
        }
    }
}

impl std::error::Error for AbstractError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AbstractError::PushAhead(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PushAheadError> for AbstractError {
    fn from(e: PushAheadError) -> AbstractError {
        AbstractError::PushAhead(e)
    }
}

/// Abstracts an RTL property into a TLM property (Methodology III.1).
///
/// Returns an [`Abstraction`] report; the property itself is available via
/// [`Abstraction::result`] and may be `None` if the Fig. 4 rules deleted it
/// entirely.
///
/// # Errors
///
/// - [`AbstractError::AlreadyTlm`] if the property carries a transaction
///   context;
/// - [`AbstractError::AlreadyAbstracted`] if it contains `next_ε^τ`;
/// - [`AbstractError::PushAhead`] if the property is outside the supported
///   grammar;
/// - [`AbstractError::EpsilonOverflow`] if some `next[n]` chain's
///   `ε = n × clock period` does not fit in a `u64`.
///
/// ```
/// use abv_core::{abstract_property, AbstractionConfig};
/// use psl::ClockedProperty;
///
/// // Paper property p2 with a 10 ns clock:
/// let p2: ClockedProperty =
///     "always (!ds || (next ((!ds) until next rdy))) @clk_pos".parse()?;
/// let q2 = abstract_property(&p2, &AbstractionConfig::new(10)?)?;
/// assert_eq!(
///     q2.result().expect("kept").to_string(),
///     "always ((!ds) || ((next_et[1, 10] (!ds)) until (next_et[2, 20] rdy))) @T_b"
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn abstract_property(
    p: &ClockedProperty,
    cfg: &AbstractionConfig,
) -> Result<Abstraction, AbstractError> {
    if p.context.is_transaction() {
        return Err(AbstractError::AlreadyTlm);
    }
    let mut already = false;
    p.property.visit(&mut |node| {
        if matches!(node, psl::Property::NextEt { .. }) {
            already = true;
        }
    });
    if already {
        return Err(AbstractError::AlreadyAbstracted);
    }

    // Step 1: negation normal form.
    let nnf = psl::nnf::to_nnf(&p.property);
    // Step 2a: push-ahead.
    let pushed = push_ahead(&nnf)?;
    // Step 2b (Section III-B): signal abstraction.
    let outcome = rules::apply(&pushed, cfg);
    // Step 3 (Def. III.2): context mapping. Applied even when the body was
    // deleted, so guard review info is not lost.
    let mapped = match map_context(&p.context, cfg) {
        Ok(m) => m,
        Err(ContextMapError::AlreadyTransaction) => unreachable!("checked above"),
    };

    let consequence = |needs_review: bool, weakened: bool| {
        if needs_review {
            Consequence::NeedsReview
        } else if weakened {
            Consequence::Weakened
        } else {
            Consequence::Equivalent
        }
    };

    let Some(body) = outcome.result else {
        return Ok(Abstraction {
            original: p.clone(),
            result: None,
            consequence: Consequence::Deleted,
            removed_atoms: outcome.removed_atoms,
        });
    };

    // Step 2c (Algorithm III.1): next substitution on the surviving body.
    let body = match next_substitution(&body, cfg.clock_period_ns()) {
        Ok(b) => b,
        Err(NextSubstError::EpsilonOverflow { n, clock_period_ns }) => {
            return Err(AbstractError::EpsilonOverflow { n, clock_period_ns })
        }
        Err(NextSubstError::NotPushed | NextSubstError::AlreadyAbstracted) => {
            unreachable!("body is pushed and free of next_et by construction")
        }
    };

    let needs_review = outcome.review_drops > 0 || mapped.guard_needs_review;
    let weakened = outcome.conjunct_drops > 0;
    Ok(Abstraction {
        original: p.clone(),
        result: Some(ClockedProperty::new(body, mapped.context)),
        consequence: consequence(needs_review, weakened),
        removed_atoms: outcome.removed_atoms,
    })
}

/// Re-clocks an RTL property for reuse on a **cycle-accurate** TLM model
/// *without* abstraction: the clock context is mapped onto the basic
/// transaction context (Def. III.2) but the body — including `next[n]`
/// operators — is left unchanged, so `next` counts transactions.
///
/// This is sound only on TLM-CA models, where one transaction corresponds
/// to exactly one clock cycle; it is how the paper's Section V evaluates
/// "checkers synthesized from the RTL properties without abstraction" on
/// the TLM-CA implementations.
///
/// # Errors
///
/// Returns [`AbstractError::AlreadyTlm`] for a transaction-context input.
///
/// ```
/// use abv_core::reuse_at_cycle_accurate;
/// use psl::ClockedProperty;
///
/// let p: ClockedProperty = "always (!ds || next[17] rdy) @clk_pos".parse()?;
/// let q = reuse_at_cycle_accurate(&p)?;
/// assert_eq!(q.to_string(), "always ((!ds) || (next[17] rdy)) @T_b");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn reuse_at_cycle_accurate(p: &ClockedProperty) -> Result<ClockedProperty, AbstractError> {
    match &p.context {
        psl::EvalContext::Transaction { .. } => Err(AbstractError::AlreadyTlm),
        psl::EvalContext::Clock { guard, .. } => {
            let context = match guard {
                None => psl::EvalContext::tb(),
                Some(g) => psl::EvalContext::tb_guarded((**g).clone()),
            };
            Ok(ClockedProperty::new(p.property.clone(), context))
        }
    }
}

/// Abstracts a whole property suite, preserving order.
///
/// # Errors
///
/// Fails on the first property that cannot be abstracted, reporting its
/// index.
pub fn abstract_suite(
    suite: &[ClockedProperty],
    cfg: &AbstractionConfig,
) -> Result<Vec<Abstraction>, (usize, AbstractError)> {
    suite
        .iter()
        .enumerate()
        .map(|(i, p)| abstract_property(p, cfg).map_err(|e| (i, e)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg10() -> AbstractionConfig {
        AbstractionConfig::new(10).unwrap()
    }

    fn run(src: &str, cfg: &AbstractionConfig) -> Abstraction {
        abstract_property(&src.parse::<ClockedProperty>().unwrap(), cfg).unwrap()
    }

    #[test]
    fn paper_fig3_p1_to_q1() {
        let a = run(
            "always (!(ds && indata == 0) || next[17](out != 0)) @clk_pos",
            &cfg10(),
        );
        assert_eq!(
            a.result().unwrap().to_string(),
            "always (((!ds) || (indata != 0)) || (next_et[1, 170] (out != 0))) @T_b"
        );
        assert_eq!(a.consequence(), Consequence::Equivalent);
    }

    #[test]
    fn epsilon_overflow_is_a_structured_error() {
        let p: ClockedProperty = "always (a -> next[4294967295] b) @clk_pos".parse().unwrap();
        let err = abstract_property(&p, &AbstractionConfig::new(u64::MAX).unwrap()).unwrap_err();
        assert_eq!(
            err,
            AbstractError::EpsilonOverflow {
                n: u32::MAX,
                clock_period_ns: u64::MAX
            }
        );
        assert!(err.to_string().contains("next[4294967295]"), "{err}");
    }

    #[test]
    fn paper_fig3_p2_to_q2() {
        let a = run(
            "always (!ds || (next ((!ds) until next rdy))) @clk_pos",
            &cfg10(),
        );
        assert_eq!(
            a.result().unwrap().to_string(),
            "always ((!ds) || ((next_et[1, 10] (!ds)) until (next_et[2, 20] rdy))) @T_b"
        );
        assert_eq!(a.consequence(), Consequence::Equivalent);
    }

    #[test]
    fn paper_fig3_p3_to_q3() {
        let cfg = cfg10()
            .abstract_signal("rdy_next_cycle")
            .abstract_signal("rdy_next_next_cycle");
        let a = run(
            "always (!ds || (next[15](rdy_next_next_cycle) && next[16](rdy_next_cycle) \
             && next[17](rdy))) @clk_pos",
            &cfg,
        );
        assert_eq!(
            a.result().unwrap().to_string(),
            "always ((!ds) || (next_et[1, 170] rdy)) @T_b"
        );
        // Only conjunct drops: the result is a logical consequence.
        assert_eq!(a.consequence(), Consequence::Weakened);
        assert_eq!(a.removed_atoms().len(), 2);
    }

    #[test]
    fn until_release_properties_pass_through_theorem_iii_1() {
        let a = run("always ((!ds) until rdy) @clk_pos", &cfg10());
        assert_eq!(
            a.result().unwrap().to_string(),
            "always ((!ds) until rdy) @T_b"
        );
        assert_eq!(a.consequence(), Consequence::Equivalent);
    }

    #[test]
    fn disjunct_drop_flags_review() {
        let cfg = cfg10().abstract_signal("hs");
        let a = run("always (rdy || hs) @clk_pos", &cfg);
        assert_eq!(a.result().unwrap().to_string(), "always rdy @T_b");
        assert!(a.needs_review());
    }

    #[test]
    fn fully_protocol_dependent_property_is_deleted() {
        let cfg = cfg10().abstract_signal("req").abstract_signal("ack");
        let a = run("always (!req || next ack) @clk_pos", &cfg);
        assert!(a.result().is_none());
        assert_eq!(a.consequence(), Consequence::Deleted);
        assert_eq!(a.removed_atoms().len(), 2);
    }

    #[test]
    fn rejects_tlm_context() {
        let p: ClockedProperty = "always rdy @T_b".parse().unwrap();
        assert_eq!(
            abstract_property(&p, &cfg10()),
            Err(AbstractError::AlreadyTlm)
        );
    }

    #[test]
    fn rejects_already_abstracted_body() {
        let p: ClockedProperty = "always (next_et[1, 10] rdy) @clk_pos".parse().unwrap();
        assert_eq!(
            abstract_property(&p, &cfg10()),
            Err(AbstractError::AlreadyAbstracted)
        );
    }

    #[test]
    fn implication_sugar_is_normalized_first() {
        let a = run(
            "always ((ds && indata == 0) -> next[17](out != 0)) @clk_pos",
            &cfg10(),
        );
        assert_eq!(
            a.result().unwrap().to_string(),
            "always (((!ds) || (indata != 0)) || (next_et[1, 170] (out != 0))) @T_b"
        );
    }

    #[test]
    fn clock_period_scales_epsilon() {
        let a = run(
            "always (next[8] done) @clk_pos",
            &AbstractionConfig::new(25).unwrap(),
        );
        assert_eq!(
            a.result().unwrap().to_string(),
            "always (next_et[1, 200] done) @T_b"
        );
    }

    #[test]
    fn abstract_suite_reports_failing_index() {
        let good: ClockedProperty = "always rdy @clk_pos".parse().unwrap();
        let bad: ClockedProperty = "always rdy @T_b".parse().unwrap();
        let err = abstract_suite(&[good, bad], &cfg10()).unwrap_err();
        assert_eq!(err, (1, AbstractError::AlreadyTlm));
    }

    #[test]
    fn guarded_context_maps_with_guard() {
        let a = run("always rdy @(clk_pos && mode == 1)", &cfg10());
        assert_eq!(
            a.result().unwrap().to_string(),
            "always rdy @(T_b && (mode == 1))"
        );
    }

    #[test]
    fn report_display() {
        let a = run("always rdy @clk_pos", &cfg10());
        let s = a.to_string();
        assert!(s.contains("=>"), "{s}");
        assert!(s.contains("equivalent"), "{s}");
    }
}

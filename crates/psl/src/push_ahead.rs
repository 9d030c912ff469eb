//! The *push-ahead* procedure (first phase of step 2 of Methodology III.1).
//!
//! Pushes `next` operators towards the leaves so that each `next` operand is
//! exclusively an atomic proposition, a negated atomic proposition, or
//! another `next`, using the paper's transformation rules (Section III-A):
//!
//! ```text
//! next(a || b)      == next(a) || next(b)
//! next(a && b)      == next(a) && next(b)
//! next(a until b)   == next(a) until next(b)
//! next(a release b) == next(a) release next(b)
//! ```
//!
//! plus the derived rules for the operators defined from `until`/`release`
//! (`always p == false release p`, `eventually p == true until p`):
//!
//! ```text
//! next(always p)     == always(next p)
//! next(eventually p) == eventually(next p)
//! ```
//!
//! Adjacent `next`s merge: `next(next[n] p) == next[n+1] p`. Constants are
//! treated as literals and stay under `next` (folding `next(const)` to
//! `const` would only be exact on infinite traces).

use crate::ast::Property;

/// Error returned when push-ahead encounters an operator it cannot
/// distribute `next` over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushAheadError {
    /// The property must be in negation normal form first (step 1 of
    /// Methodology III.1); implication is not supported.
    NotInNnf,
    /// A `next` was applied to a `next_ε^τ` operator; `next_ε^τ` is the
    /// *output* of the abstraction and must not occur in RTL input
    /// properties.
    NextOverNextEt,
    /// Merging adjacent `next`s would count more than `u32::MAX` events,
    /// the largest `next[n]` the grammar holds.
    NextCountOverflow,
}

impl std::fmt::Display for PushAheadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushAheadError::NotInNnf => {
                f.write_str("property must be in negation normal form before push-ahead")
            }
            PushAheadError::NextOverNextEt => {
                f.write_str("`next` cannot be distributed over `next_et`; RTL input properties must not contain next_et")
            }
            PushAheadError::NextCountOverflow => {
                f.write_str("merged `next` chain counts more than 4294967295 events")
            }
        }
    }
}

impl std::error::Error for PushAheadError {}

/// Pushes every `next` towards the leaves.
///
/// On success, [`is_pushed`] holds for the result: each `next` chain is
/// merged into a single `next[n]` applied to a literal.
///
/// # Errors
///
/// - [`PushAheadError::NotInNnf`] if the property contains `->` or a
///   non-literal negation (run [`crate::nnf::to_nnf`] first);
/// - [`PushAheadError::NextOverNextEt`] if a `next` is applied over a
///   `next_ε^τ` operator;
/// - [`PushAheadError::NextCountOverflow`] if a merged `next` chain
///   counts more than `u32::MAX` events.
///
/// ```
/// use psl::{push_ahead::push_ahead, Property};
///
/// // Paper Section III-A example, from property p2:
/// let p: Property = "next ((!ds) until next rdy)".parse()?;
/// assert_eq!(push_ahead(&p)?.to_string(), "(next (!ds)) until (next[2] rdy)");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn push_ahead(p: &Property) -> Result<Property, PushAheadError> {
    match p {
        Property::Const(_) | Property::Atom(_) => Ok(p.clone()),
        Property::Not(inner) => {
            if matches!(**inner, Property::Atom(_)) {
                Ok(p.clone())
            } else {
                Err(PushAheadError::NotInNnf)
            }
        }
        Property::Implies(..) => Err(PushAheadError::NotInNnf),
        Property::And(a, b) => Ok(push_ahead(a)?.and(push_ahead(b)?)),
        Property::Or(a, b) => Ok(push_ahead(a)?.or(push_ahead(b)?)),
        Property::Until(a, b) => Ok(push_ahead(a)?.until(push_ahead(b)?)),
        Property::Release(a, b) => Ok(push_ahead(a)?.release(push_ahead(b)?)),
        Property::Always(inner) => Ok(Property::always(push_ahead(inner)?)),
        Property::Eventually(inner) => Ok(Property::eventually(push_ahead(inner)?)),
        Property::NextEt { tau, eps_ns, inner } => {
            Ok(Property::next_et(*tau, *eps_ns, push_ahead(inner)?))
        }
        Property::Next { n, inner } => {
            let pushed = push_ahead(inner)?;
            Ok(distribute(*n, pushed)?)
        }
    }
}

/// Applies `next[n]` to an already-pushed property, distributing it down.
fn distribute(n: u32, p: Property) -> Result<Property, PushAheadError> {
    match p {
        // Constants are literals: keep them under `next`. Folding
        // `next(const)` to `const` would be exact only on infinite traces.
        Property::Const(_) | Property::Atom(_) | Property::Not(_) => Ok(Property::next_n(n, p)),
        Property::Next { n: m, inner } => {
            let n = n.checked_add(m).ok_or(PushAheadError::NextCountOverflow)?;
            Ok(Property::next_n(n, *inner))
        }
        Property::And(a, b) => Ok(distribute(n, *a)?.and(distribute(n, *b)?)),
        Property::Or(a, b) => Ok(distribute(n, *a)?.or(distribute(n, *b)?)),
        Property::Until(a, b) => Ok(distribute(n, *a)?.until(distribute(n, *b)?)),
        Property::Release(a, b) => Ok(distribute(n, *a)?.release(distribute(n, *b)?)),
        Property::Always(inner) => Ok(Property::always(distribute(n, *inner)?)),
        Property::Eventually(inner) => Ok(Property::eventually(distribute(n, *inner)?)),
        Property::NextEt { .. } => Err(PushAheadError::NextOverNextEt),
        Property::Implies(..) => Err(PushAheadError::NotInNnf),
    }
}

/// True if every `next` operand in `p` is a literal (atom, negated atom or
/// constant), i.e. push-ahead has been applied.
#[must_use]
pub fn is_pushed(p: &Property) -> bool {
    match p {
        Property::Const(_) | Property::Atom(_) | Property::Not(_) => true,
        Property::Implies(a, b)
        | Property::And(a, b)
        | Property::Or(a, b)
        | Property::Until(a, b)
        | Property::Release(a, b) => is_pushed(a) && is_pushed(b),
        Property::Always(inner) | Property::Eventually(inner) => is_pushed(inner),
        Property::NextEt { inner, .. } => is_pushed(inner),
        Property::Next { inner, .. } => inner.is_literal(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pushed(src: &str) -> String {
        push_ahead(&src.parse::<Property>().unwrap())
            .unwrap()
            .to_string()
    }

    #[test]
    fn distributes_over_boolean_connectives() {
        assert_eq!(pushed("next (a || b)"), "(next a) || (next b)");
        assert_eq!(pushed("next (a && b)"), "(next a) && (next b)");
    }

    #[test]
    fn distributes_over_until_and_release() {
        assert_eq!(pushed("next (a until b)"), "(next a) until (next b)");
        assert_eq!(pushed("next (a release b)"), "(next a) release (next b)");
    }

    #[test]
    fn distributes_over_derived_operators() {
        assert_eq!(pushed("next (always a)"), "always (next a)");
        assert_eq!(pushed("next (eventually a)"), "eventually (next a)");
    }

    #[test]
    fn merges_adjacent_nexts() {
        assert_eq!(pushed("next next next a"), "next[3] a");
        assert_eq!(pushed("next[5] next[2] a"), "next[7] a");
        assert_eq!(
            pushed("next (next a || next[2] b)"),
            "(next[2] a) || (next[3] b)"
        );
    }

    #[test]
    fn merged_counts_past_u32_max_are_an_error() {
        let max = u32::MAX;
        let at_limit: Property = format!("next[{}] next a", max - 1).parse().unwrap();
        assert_eq!(
            push_ahead(&at_limit).unwrap().to_string(),
            format!("next[{max}] a")
        );
        let past: Property = format!("next[{max}] (b || next a)").parse().unwrap();
        assert_eq!(push_ahead(&past), Err(PushAheadError::NextCountOverflow));
    }

    #[test]
    fn paper_p2_push_ahead() {
        // p2 body: !ds || next(!ds until next rdy)
        // becomes: !ds || (next !ds until next[2] rdy)
        assert_eq!(
            pushed("!ds || next ((!ds) until next rdy)"),
            "(!ds) || ((next (!ds)) until (next[2] rdy))"
        );
    }

    #[test]
    fn next_of_constant_stays() {
        assert_eq!(pushed("next true"), "next true");
        assert_eq!(pushed("next (a || false)"), "(next a) || (next false)");
    }

    #[test]
    fn negated_literals_stay_under_next() {
        assert_eq!(pushed("next !a"), "next (!a)");
    }

    #[test]
    fn result_is_pushed() {
        for src in [
            "next (a || (b until next (c && next d)))",
            "always next (a release next[3] (b || !c))",
            "next next (eventually (a && next b))",
        ] {
            let p: Property = src.parse().unwrap();
            let out = push_ahead(&p).unwrap();
            assert!(is_pushed(&out), "{src} -> {out}");
        }
    }

    #[test]
    fn rejects_implication() {
        let p: Property = "next (a -> b)".parse().unwrap();
        assert_eq!(push_ahead(&p), Err(PushAheadError::NotInNnf));
    }

    #[test]
    fn rejects_non_literal_negation() {
        let p: Property = "!(next a)".parse().unwrap();
        assert_eq!(push_ahead(&p), Err(PushAheadError::NotInNnf));
    }

    #[test]
    fn rejects_next_over_next_et() {
        let p: Property = "next (next_et[1, 10] a)".parse().unwrap();
        assert_eq!(push_ahead(&p), Err(PushAheadError::NextOverNextEt));
    }

    #[test]
    fn is_pushed_detects_unpushed() {
        let p: Property = "next (a || b)".parse().unwrap();
        assert!(!is_pushed(&p));
        let q: Property = "(next a) || (next b)".parse().unwrap();
        assert!(is_pushed(&q));
    }
}

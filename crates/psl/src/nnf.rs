//! Negation normal form (step 1 of Methodology III.1).
//!
//! Def. II.1 of the paper defines the LTL grammar in negation normal form:
//! negation may only be applied to atomic propositions. [`to_nnf`] rewrites
//! an arbitrary property into that form using the classical dualities:
//!
//! ```text
//! !(p && q)      = !p || !q            !(p || q)      = !p && !q
//! !(next[n] p)   = next[n] !p          !(p until q)   = !p release !q
//! !(p release q) = !p until !q         !(always p)    = eventually !p
//! !(eventually p)= always !p           p -> q         = !p || q
//! ```
//!
//! Negated comparison atoms are folded into the complementary comparison
//! (`!(a < b)` becomes `a >= b`), so the only surviving negations wrap
//! boolean-signal atoms.
//!
//! The rewrite is one [`fold`] over an [`NnfBuilder`]: [`to_nnf`] is the
//! fold that builds a [`Property`], and checker synthesis drives the same
//! fold straight into its monitor arena, so both see the same normal
//! form. [`TopLevel`] splits off a top-level `always` exactly as the
//! normal form leaves it.

use std::convert::Infallible;

use crate::ast::Property;
use crate::atom::Atom;

/// The constructors an NNF rewrite builds its result with.
///
/// [`fold`] walks a property once and hands every node of its negation
/// normal form to the builder, children before parents and left before
/// right, so the rules of the rewrite live in one place whatever the
/// result is: [`to_nnf`] builds a [`Property`] tree with it, and checker
/// synthesis lowers a property straight into its monitor representation
/// without an intermediate tree. There is no `not` and no `implies`: NNF
/// leaves negation on boolean-signal literals only and removes
/// implication.
pub trait NnfBuilder {
    /// What a folded subformula becomes.
    type Out;
    /// Why a literal could not be built.
    type Error;

    /// The constant `value`.
    fn constant(&mut self, value: bool) -> Self::Out;
    /// A literal: `atom`, negated when `negated` is set. Only boolean
    /// signals arrive negated; a negated comparison arrives as the
    /// complementary comparison (`!(a < b)` as `a >= b`).
    ///
    /// # Errors
    ///
    /// Whatever the builder cannot build a literal from (for checker
    /// synthesis, a signal absent from the simulation); the fold stops at
    /// the first error.
    fn literal(&mut self, atom: &Atom, negated: bool) -> Result<Self::Out, Self::Error>;
    /// `a && b`.
    fn and(&mut self, a: Self::Out, b: Self::Out) -> Self::Out;
    /// `a || b`.
    fn or(&mut self, a: Self::Out, b: Self::Out) -> Self::Out;
    /// `next[n] inner`.
    fn next(&mut self, n: u32, inner: Self::Out) -> Self::Out;
    /// `next_ε^τ inner` with position `tau` and offset `eps_ns`.
    fn next_et(&mut self, tau: u32, eps_ns: u64, inner: Self::Out) -> Self::Out;
    /// `a until b`.
    fn until(&mut self, a: Self::Out, b: Self::Out) -> Self::Out;
    /// `a release b`.
    fn release(&mut self, a: Self::Out, b: Self::Out) -> Self::Out;
    /// `always inner`.
    fn always(&mut self, inner: Self::Out) -> Self::Out;
    /// `eventually inner`.
    fn eventually(&mut self, inner: Self::Out) -> Self::Out;
}

/// Builds NNF as a [`Property`] tree: the builder behind [`to_nnf`].
struct Tree;

impl NnfBuilder for Tree {
    type Out = Property;
    type Error = Infallible;

    fn constant(&mut self, value: bool) -> Property {
        Property::Const(value)
    }

    fn literal(&mut self, atom: &Atom, negated: bool) -> Result<Property, Infallible> {
        let atom = Property::Atom(atom.clone());
        Ok(if negated { Property::not(atom) } else { atom })
    }

    fn and(&mut self, a: Property, b: Property) -> Property {
        a.and(b)
    }

    fn or(&mut self, a: Property, b: Property) -> Property {
        a.or(b)
    }

    fn next(&mut self, n: u32, inner: Property) -> Property {
        Property::next_n(n, inner)
    }

    fn next_et(&mut self, tau: u32, eps_ns: u64, inner: Property) -> Property {
        Property::next_et(tau, eps_ns, inner)
    }

    fn until(&mut self, a: Property, b: Property) -> Property {
        a.until(b)
    }

    fn release(&mut self, a: Property, b: Property) -> Property {
        a.release(b)
    }

    fn always(&mut self, inner: Property) -> Property {
        Property::always(inner)
    }

    fn eventually(&mut self, inner: Property) -> Property {
        Property::eventually(inner)
    }
}

/// Rewrites `p` into negation normal form.
///
/// The result contains no [`Property::Implies`] node and every
/// [`Property::Not`] wraps a boolean-signal atom. The transformation
/// preserves trace semantics (validated by property tests against
/// [`crate::trace`]).
///
/// ```
/// use psl::{nnf::to_nnf, Property};
///
/// let p: Property = "!(a && next b)".parse()?;
/// assert_eq!(to_nnf(&p).to_string(), "(!a) || (next (!b))");
/// # Ok::<(), psl::ParseError>(())
/// ```
#[must_use]
pub fn to_nnf(p: &Property) -> Property {
    match fold(p, &mut Tree) {
        Ok(nnf) => nnf,
        Err(never) => match never {},
    }
}

/// Folds the negation normal form of `p` through `builder`: the result is
/// what `builder` makes of [`to_nnf`]`(p)`, node by node, without building
/// that tree.
///
/// # Errors
///
/// The first error of [`NnfBuilder::literal`].
pub fn fold<B: NnfBuilder>(p: &Property, builder: &mut B) -> Result<B::Out, B::Error> {
    rewrite(p, false, builder)
}

/// A property split at its top-level `always` the way [`to_nnf`] leaves
/// it, for consumers that treat that `always` as a repeating activation
/// (checker synthesis, Section IV point 4).
///
/// `repeating` is set when the NNF of the property is `always φ`: a
/// top-level `always p` under an even number of negations, or an
/// `eventually p` under an odd number (`!eventually p` is `always !p`).
/// The body is then `φ`, else the whole NNF.
#[derive(Debug, Clone, Copy)]
pub struct TopLevel<'a> {
    /// The body's source: the operand of the peeled `always`/`eventually`
    /// (or the whole property), before normalization. Normalization keeps
    /// every `next_ε^τ` offset and every unbounded operator, so
    /// quantities such as [`Property::completion_bound_ns`] read the same
    /// here as on the NNF body.
    pub source: &'a Property,
    /// True when a top-level `always` was peeled.
    pub repeating: bool,
    /// Whether the body sits under a pending negation.
    negate: bool,
}

impl<'a> TopLevel<'a> {
    /// Splits `p` at its top-level `always`, as [`to_nnf`] would leave it.
    ///
    /// ```
    /// use psl::{nnf::TopLevel, Property};
    ///
    /// let p: Property = "!(eventually (a && b))".parse()?;
    /// let top = TopLevel::split(&p);
    /// assert!(top.repeating);
    /// assert_eq!(top.source.to_string(), "a && b");
    /// # Ok::<(), psl::ParseError>(())
    /// ```
    #[must_use]
    pub fn split(p: &'a Property) -> TopLevel<'a> {
        let mut negate = false;
        let mut node = p;
        while let Property::Not(inner) = node {
            negate = !negate;
            node = inner;
        }
        match (node, negate) {
            (Property::Always(inner), false) | (Property::Eventually(inner), true) => TopLevel {
                source: inner,
                repeating: true,
                negate,
            },
            _ => TopLevel {
                source: p,
                repeating: false,
                negate: false,
            },
        }
    }

    /// Folds the body's negation normal form through `builder` (see
    /// [`fold`]).
    ///
    /// # Errors
    ///
    /// The first error of [`NnfBuilder::literal`].
    pub fn fold<B: NnfBuilder>(&self, builder: &mut B) -> Result<B::Out, B::Error> {
        rewrite(self.source, self.negate, builder)
    }
}

/// True if `p` is in negation normal form: no implication and negation only
/// on atoms.
#[must_use]
pub fn is_nnf(p: &Property) -> bool {
    match p {
        Property::Const(_) | Property::Atom(_) => true,
        Property::Not(inner) => matches!(**inner, Property::Atom(_)),
        Property::Implies(..) => false,
        Property::Next { inner, .. }
        | Property::NextEt { inner, .. }
        | Property::Always(inner)
        | Property::Eventually(inner) => is_nnf(inner),
        Property::And(a, b)
        | Property::Or(a, b)
        | Property::Until(a, b)
        | Property::Release(a, b) => is_nnf(a) && is_nnf(b),
    }
}

/// Folds `p` under `negate` pending negations, children left to right
/// before their parent.
fn rewrite<B: NnfBuilder>(p: &Property, negate: bool, b: &mut B) -> Result<B::Out, B::Error> {
    Ok(match p {
        Property::Const(v) => b.constant(*v != negate),
        Property::Atom(Atom::Cmp { signal, op, value }) if negate => {
            // A negated comparison is the complementary comparison.
            b.literal(&Atom::cmp(signal.clone(), op.negated(), *value), false)?
        }
        Property::Atom(a) => b.literal(a, negate)?,
        Property::Not(inner) => return rewrite(inner, !negate, b),
        Property::And(x, y) => {
            let (l, r) = (rewrite(x, negate, b)?, rewrite(y, negate, b)?);
            if negate {
                b.or(l, r)
            } else {
                b.and(l, r)
            }
        }
        Property::Or(x, y) => {
            let (l, r) = (rewrite(x, negate, b)?, rewrite(y, negate, b)?);
            if negate {
                b.and(l, r)
            } else {
                b.or(l, r)
            }
        }
        Property::Implies(x, y) => {
            // p -> q == !p || q; under negation: p && !q.
            let (l, r) = (rewrite(x, !negate, b)?, rewrite(y, negate, b)?);
            if negate {
                b.and(l, r)
            } else {
                b.or(l, r)
            }
        }
        Property::Next { n, inner } => {
            let i = rewrite(inner, negate, b)?;
            b.next(*n, i)
        }
        Property::NextEt { tau, eps_ns, inner } => {
            let i = rewrite(inner, negate, b)?;
            b.next_et(*tau, *eps_ns, i)
        }
        Property::Until(x, y) => {
            let (l, r) = (rewrite(x, negate, b)?, rewrite(y, negate, b)?);
            if negate {
                b.release(l, r)
            } else {
                b.until(l, r)
            }
        }
        Property::Release(x, y) => {
            let (l, r) = (rewrite(x, negate, b)?, rewrite(y, negate, b)?);
            if negate {
                b.until(l, r)
            } else {
                b.release(l, r)
            }
        }
        Property::Always(inner) => {
            let i = rewrite(inner, negate, b)?;
            if negate {
                b.eventually(i)
            } else {
                b.always(i)
            }
        }
        Property::Eventually(inner) => {
            let i = rewrite(inner, negate, b)?;
            if negate {
                b.always(i)
            } else {
                b.eventually(i)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nnf(src: &str) -> String {
        to_nnf(&src.parse::<Property>().unwrap()).to_string()
    }

    #[test]
    fn pushes_negation_through_booleans() {
        assert_eq!(nnf("!(a && b)"), "(!a) || (!b)");
        assert_eq!(nnf("!(a || b)"), "(!a) && (!b)");
        assert_eq!(nnf("!!a"), "a");
    }

    #[test]
    fn eliminates_implication() {
        assert_eq!(nnf("a -> b"), "(!a) || b");
        assert_eq!(nnf("!(a -> b)"), "a && (!b)");
    }

    #[test]
    fn dualizes_temporal_operators() {
        assert_eq!(nnf("!(next[3] a)"), "next[3] (!a)");
        assert_eq!(nnf("!(a until b)"), "(!a) release (!b)");
        assert_eq!(nnf("!(a release b)"), "(!a) until (!b)");
        assert_eq!(nnf("!(always a)"), "eventually (!a)");
        assert_eq!(nnf("!(eventually a)"), "always (!a)");
    }

    #[test]
    fn folds_negated_comparisons() {
        assert_eq!(nnf("!(out == 0)"), "(out != 0)");
        assert_eq!(nnf("!(out < 4)"), "(out >= 4)");
    }

    #[test]
    fn negates_constants() {
        assert_eq!(nnf("!true"), "false");
        assert_eq!(nnf("!false"), "true");
    }

    #[test]
    fn nnf_output_is_nnf() {
        for src in [
            "!(a && (b -> next c))",
            "!(always (a until !(b release c)))",
            "!!!(a -> (b -> c))",
            "!(next_et[1, 10] a)",
        ] {
            let p: Property = src.parse().unwrap();
            let n = to_nnf(&p);
            assert!(is_nnf(&n), "{src} -> {n}");
        }
    }

    #[test]
    fn nnf_is_idempotent() {
        let p: Property = "!(a && (b -> next c)) until !(always d)".parse().unwrap();
        let once = to_nnf(&p);
        assert_eq!(to_nnf(&once), once);
    }

    /// `TopLevel` peels exactly the `always` that `to_nnf` leaves at the
    /// top, and its body is the rest of the normal form.
    #[test]
    fn top_level_split_matches_the_normal_form() {
        for src in [
            "always (a || next b)",
            "!(eventually (a && b))",
            "!!always a",
            "!!!eventually !a",
            "!(always a)",
            "eventually a",
            "always a until b",
            "!(a -> always b)",
            "!!!(out == 3)",
            "true",
        ] {
            let p: Property = src.parse().unwrap();
            let top = TopLevel::split(&p);
            let (body, repeating) = match to_nnf(&p) {
                Property::Always(inner) => (*inner, true),
                other => (other, false),
            };
            assert_eq!(top.repeating, repeating, "{src}");
            assert_eq!(top.fold(&mut Tree), Ok(body.clone()), "{src}");
            assert_eq!(
                top.source.completion_bound_ns(),
                body.completion_bound_ns(),
                "{src}"
            );
        }
    }

    #[test]
    fn already_nnf_is_unchanged() {
        let p: Property = "always ((!ds) || (next[17] (out != 0)))".parse().unwrap();
        assert!(is_nnf(&p));
        assert_eq!(to_nnf(&p), p);
    }
}

//! The LTL property tree (Def. II.1 of the paper) extended with `next_ε^τ`.

use crate::atom::Atom;
use crate::context::EvalContext;

/// An LTL property in the PSL-flavoured syntax used by the paper.
///
/// The grammar follows Def. II.1 (atoms, `!`, `&&`, `||`, `next`, `until`,
/// `release`) plus the standard derived operators `always`, `eventually`
/// and `->`, and the paper's TLM-oriented operator
/// [`NextEt`](Property::NextEt) (`next_ε^τ`, Def. III.3).
///
/// `Property` values are ordinary trees; transformation passes
/// ([`nnf`](crate::nnf), [`push_ahead`](crate::push_ahead), the abstraction
/// methodology in the `abv-core` crate) consume and produce them.
///
/// # Example
///
/// ```
/// use psl::Property;
///
/// let p = Property::always(
///     Property::not(Property::bool_signal("ds"))
///         .or(Property::next_n(17, Property::bool_signal("rdy"))),
/// );
/// assert_eq!(p.to_string(), "always ((!ds) || (next[17] rdy))");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Property {
    /// Constant truth value (`true` / `false`).
    Const(bool),
    /// An atomic proposition.
    Atom(Atom),
    /// Logical negation. In negation normal form it only wraps atoms.
    Not(Box<Property>),
    /// Conjunction.
    And(Box<Property>, Box<Property>),
    /// Disjunction.
    Or(Box<Property>, Box<Property>),
    /// Implication (sugar for `!lhs || rhs`, removed by NNF).
    Implies(Box<Property>, Box<Property>),
    /// `next[n] p`: `p` holds `n` evaluation events from now (`n >= 1`).
    /// `next p` is `next[1] p`.
    Next {
        /// Number of evaluation events to skip.
        n: u32,
        /// Operand.
        inner: Box<Property>,
    },
    /// The paper's `next_ε^τ` operator (Def. III.3): the operand must hold
    /// exactly `eps_ns` nanoseconds after the instant where this operator is
    /// reached; if the verification environment observes no event at that
    /// time, the property is false.
    NextEt {
        /// Positional index `τ` among `next_ε^τ` occurrences in the property
        /// (used by checker generation, Section IV).
        tau: u32,
        /// Required evaluation offset `ε` in nanoseconds.
        eps_ns: u64,
        /// Operand.
        inner: Box<Property>,
    },
    /// `lhs until rhs` (strong until).
    Until(Box<Property>, Box<Property>),
    /// `lhs release rhs`.
    Release(Box<Property>, Box<Property>),
    /// `always p` (≡ `false release p`).
    Always(Box<Property>),
    /// `eventually p` (≡ `true until p`).
    Eventually(Box<Property>),
}

impl Property {
    /// The constant `true`.
    #[must_use]
    pub fn t() -> Property {
        Property::Const(true)
    }

    /// The constant `false`.
    #[must_use]
    pub fn f() -> Property {
        Property::Const(false)
    }

    /// An atom wrapped as a property.
    #[must_use]
    pub fn atom(atom: Atom) -> Property {
        Property::Atom(atom)
    }

    /// A boolean-signal atom.
    #[must_use]
    pub fn bool_signal(name: impl Into<std::sync::Arc<str>>) -> Property {
        Property::Atom(Atom::bool(name))
    }

    /// A comparison atom `signal op value`.
    #[must_use]
    pub fn cmp(
        signal: impl Into<std::sync::Arc<str>>,
        op: crate::atom::CmpOp,
        value: u64,
    ) -> Property {
        Property::Atom(Atom::cmp(signal, op, value))
    }

    /// Logical negation. A static constructor like the other builders —
    /// not an `std::ops::Not` impl, which would suggest (wrongly) that
    /// `!p` computes a normal form.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(p: Property) -> Property {
        Property::Not(Box::new(p))
    }

    /// `self && rhs`.
    #[must_use]
    pub fn and(self, rhs: Property) -> Property {
        Property::And(Box::new(self), Box::new(rhs))
    }

    /// `self || rhs`.
    #[must_use]
    pub fn or(self, rhs: Property) -> Property {
        Property::Or(Box::new(self), Box::new(rhs))
    }

    /// `self -> rhs`.
    #[must_use]
    pub fn implies(self, rhs: Property) -> Property {
        Property::Implies(Box::new(self), Box::new(rhs))
    }

    /// `next p` (one evaluation event ahead).
    #[must_use]
    pub fn next(p: Property) -> Property {
        Property::next_n(1, p)
    }

    /// `next[n] p`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`; `next[0]` is not part of the grammar (use the
    /// operand directly instead).
    #[must_use]
    pub fn next_n(n: u32, p: Property) -> Property {
        assert!(n >= 1, "next[n] requires n >= 1");
        Property::Next {
            n,
            inner: Box::new(p),
        }
    }

    /// The paper's `next_ε^τ` operator with position `tau` and offset
    /// `eps_ns` nanoseconds.
    #[must_use]
    pub fn next_et(tau: u32, eps_ns: u64, p: Property) -> Property {
        Property::NextEt {
            tau,
            eps_ns,
            inner: Box::new(p),
        }
    }

    /// `self until rhs`.
    #[must_use]
    pub fn until(self, rhs: Property) -> Property {
        Property::Until(Box::new(self), Box::new(rhs))
    }

    /// `self release rhs`.
    #[must_use]
    pub fn release(self, rhs: Property) -> Property {
        Property::Release(Box::new(self), Box::new(rhs))
    }

    /// `always p`.
    #[must_use]
    pub fn always(p: Property) -> Property {
        Property::Always(Box::new(p))
    }

    /// `eventually p`.
    #[must_use]
    pub fn eventually(p: Property) -> Property {
        Property::Eventually(Box::new(p))
    }

    /// True if the property is purely boolean (no temporal operators), i.e.
    /// it can serve as a context guard (Def. III.2's `var_expr`).
    #[must_use]
    pub fn is_boolean(&self) -> bool {
        match self {
            Property::Const(_) | Property::Atom(_) => true,
            Property::Not(p) => p.is_boolean(),
            Property::And(a, b) | Property::Or(a, b) | Property::Implies(a, b) => {
                a.is_boolean() && b.is_boolean()
            }
            Property::Next { .. }
            | Property::NextEt { .. }
            | Property::Until(..)
            | Property::Release(..)
            | Property::Always(_)
            | Property::Eventually(_) => false,
        }
    }

    /// True if the property is a *literal*: an atom, a negated atom, or a
    /// constant. Push-ahead (Section III-A) guarantees every `next` operand
    /// is a literal or another `next`.
    #[must_use]
    pub fn is_literal(&self) -> bool {
        match self {
            Property::Const(_) | Property::Atom(_) => true,
            Property::Not(p) => matches!(**p, Property::Atom(_)),
            _ => false,
        }
    }

    /// Signal names observed anywhere in the property, in syntactic order
    /// (duplicates preserved).
    #[must_use]
    pub fn signals(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit(&mut |p| {
            if let Property::Atom(a) = p {
                out.push(a.signal());
            }
        });
        out
    }

    /// Number of nodes in the property tree.
    #[must_use]
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Maximum count of stacked temporal events needed to fully evaluate the
    /// property when every `next[n]` counts events and `until`/`release`
    /// contribute one event per step: `None` when unbounded (contains
    /// `until`, `release`, `always` or `eventually`), otherwise the maximum
    /// over root-to-leaf paths of the summed `next` depths, saturating at
    /// `u32::MAX`.
    ///
    /// Used by the TLM wrapper to size the checker-instance pool
    /// (Section IV, point 1).
    #[must_use]
    pub fn bounded_event_depth(&self) -> Option<u32> {
        match self {
            Property::Const(_) | Property::Atom(_) => Some(0),
            Property::Not(p) => p.bounded_event_depth(),
            Property::And(a, b) | Property::Or(a, b) | Property::Implies(a, b) => {
                Some(a.bounded_event_depth()?.max(b.bounded_event_depth()?))
            }
            Property::Next { n, inner } => Some(n.saturating_add(inner.bounded_event_depth()?)),
            // next_ε^τ is synthesized as next[τ] from the checker generator's
            // point of view (Section IV), so it contributes one event level.
            Property::NextEt { inner, .. } => Some(inner.bounded_event_depth()?.saturating_add(1)),
            Property::Until(..)
            | Property::Release(..)
            | Property::Always(_)
            | Property::Eventually(_) => None,
        }
    }

    /// Maximum completion offset in nanoseconds: the largest sum of
    /// `next_ε^τ` offsets along any root-to-leaf path, i.e. the property's
    /// completion time `t_end - t_fire` (Section IV, point 1), saturating
    /// at `u64::MAX` like the deadlines the checker anchors. `None` when
    /// the property contains unbounded operators.
    #[must_use]
    pub fn completion_bound_ns(&self) -> Option<u64> {
        match self {
            Property::Const(_) | Property::Atom(_) => Some(0),
            Property::Not(p) => p.completion_bound_ns(),
            Property::And(a, b) | Property::Or(a, b) | Property::Implies(a, b) => {
                Some(a.completion_bound_ns()?.max(b.completion_bound_ns()?))
            }
            // Plain `next` has no time meaning at TLM; bound unknown.
            Property::Next { .. } => None,
            Property::NextEt { eps_ns, inner, .. } => {
                Some(eps_ns.saturating_add(inner.completion_bound_ns()?))
            }
            Property::Until(..)
            | Property::Release(..)
            | Property::Always(_)
            | Property::Eventually(_) => None,
        }
    }

    /// Calls `f` on every node of the tree in pre-order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Property)) {
        f(self);
        match self {
            Property::Const(_) | Property::Atom(_) => {}
            Property::Not(p)
            | Property::Next { inner: p, .. }
            | Property::NextEt { inner: p, .. }
            | Property::Always(p)
            | Property::Eventually(p) => p.visit(f),
            Property::And(a, b)
            | Property::Or(a, b)
            | Property::Implies(a, b)
            | Property::Until(a, b)
            | Property::Release(a, b) => {
                a.visit(f);
                b.visit(f);
            }
        }
    }
}

impl From<Atom> for Property {
    fn from(atom: Atom) -> Property {
        Property::Atom(atom)
    }
}

/// A property together with the context stating *when* it is evaluated:
/// a clock context at RTL, a transaction context at TLM (Section III-A).
///
/// # Example
///
/// ```
/// use psl::{ClockedProperty, EvalContext};
///
/// let p: ClockedProperty = "always (!ds || next rdy) @clk_pos".parse()?;
/// assert!(matches!(p.context, EvalContext::Clock { .. }));
/// # Ok::<(), psl::ParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClockedProperty {
    /// The temporal formula.
    pub property: Property,
    /// When the formula is sampled.
    pub context: EvalContext,
}

impl ClockedProperty {
    /// Pairs a property with its evaluation context.
    #[must_use]
    pub fn new(property: Property, context: EvalContext) -> ClockedProperty {
        ClockedProperty { property, context }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::CmpOp;

    fn p1_body() -> Property {
        Property::not(Property::bool_signal("ds").and(Property::cmp("indata", CmpOp::Eq, 0)))
            .or(Property::next_n(17, Property::cmp("out", CmpOp::Ne, 0)))
    }

    #[test]
    fn builders_compose() {
        let p = Property::always(p1_body());
        assert_eq!(p.size(), 8);
        assert_eq!(p.signals(), vec!["ds", "indata", "out"]);
    }

    #[test]
    fn is_boolean_accepts_guards_and_rejects_temporal() {
        assert!(Property::bool_signal("a")
            .and(Property::cmp("b", CmpOp::Lt, 3))
            .is_boolean());
        assert!(Property::not(Property::t()).is_boolean());
        assert!(!Property::next(Property::t()).is_boolean());
        assert!(!Property::always(Property::t()).is_boolean());
        assert!(!Property::t().until(Property::t()).is_boolean());
    }

    #[test]
    fn is_literal_classification() {
        assert!(Property::bool_signal("a").is_literal());
        assert!(Property::not(Property::bool_signal("a")).is_literal());
        assert!(Property::t().is_literal());
        assert!(!Property::not(Property::not(Property::bool_signal("a"))).is_literal());
        assert!(!Property::bool_signal("a").or(Property::f()).is_literal());
    }

    #[test]
    fn bounded_event_depth_sums_next_chains() {
        let p = Property::next_n(3, Property::next(Property::bool_signal("a")));
        assert_eq!(p.bounded_event_depth(), Some(4));
        let q = Property::next_n(2, Property::bool_signal("a"))
            .and(Property::next_n(5, Property::bool_signal("b")));
        assert_eq!(q.bounded_event_depth(), Some(5));
        assert_eq!(Property::always(Property::t()).bounded_event_depth(), None);
        assert_eq!(
            Property::bool_signal("a")
                .until(Property::bool_signal("b"))
                .bounded_event_depth(),
            None
        );
    }

    #[test]
    fn completion_bound_sums_next_et_offsets() {
        let q = Property::next_et(1, 170, Property::cmp("out", CmpOp::Ne, 0));
        assert_eq!(q.completion_bound_ns(), Some(170));
        let nested = Property::next_et(1, 100, Property::next_et(2, 50, Property::t()));
        assert_eq!(nested.completion_bound_ns(), Some(150));
        assert_eq!(Property::next(Property::t()).completion_bound_ns(), None);
        let huge = Property::next_et(1, u64::MAX, Property::next_et(2, 1, Property::t()));
        assert_eq!(huge.completion_bound_ns(), Some(u64::MAX), "saturates");
        let deep = Property::next_n(u32::MAX, Property::next(Property::t()));
        assert_eq!(deep.bounded_event_depth(), Some(u32::MAX), "saturates");
    }

    #[test]
    #[should_panic(expected = "next[n] requires n >= 1")]
    fn next_zero_is_rejected() {
        let _ = Property::next_n(0, Property::t());
    }
}

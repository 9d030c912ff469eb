//! Evaluation contexts: RTL clock contexts and TLM transaction contexts.
//!
//! At RTL a property's `@` expression selects the clock events where the
//! property is sampled. At TLM the clock is abstracted away and the property
//! is sampled at transaction boundaries instead; Def. III.2 of the paper
//! maps the former onto the latter (implemented in the `abv-core` crate).

use crate::ast::Property;

/// Which clock events sample the property at RTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ClockEdge {
    /// Base clock context `true`: the verification tool picks the
    /// granularity (we sample at every clock event, either edge).
    True,
    /// `@clk`: any clock event (both edges).
    Any,
    /// `@clk_pos`: rising edges.
    Pos,
    /// `@clk_neg`: falling edges.
    Neg,
}

impl ClockEdge {
    /// The context's surface syntax (empty for the base context).
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            ClockEdge::True => "true",
            ClockEdge::Any => "clk",
            ClockEdge::Pos => "clk_pos",
            ClockEdge::Neg => "clk_neg",
        }
    }

    /// True if the clock changing from `prev` to `now` is an instant this
    /// context samples at: a 0→1 change for `Pos`, a 1→0 change for `Neg`,
    /// any change for `Any` and the base context `True`.
    #[must_use]
    #[inline]
    pub fn is_edge(self, prev: u64, now: u64) -> bool {
        match self {
            ClockEdge::Pos => prev == 0 && now != 0,
            ClockEdge::Neg => prev != 0 && now == 0,
            ClockEdge::Any | ClockEdge::True => prev != now,
        }
    }
}

/// The context stating when a property is evaluated.
///
/// Guards (`var_expr` in Def. III.2) are boolean-only properties; evaluation
/// instants where the guard is false are skipped entirely.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EvalContext {
    /// An RTL clock context `@clock_expr` or `@(clock_expr && var_expr)`.
    Clock {
        /// Which clock events are observed.
        edge: ClockEdge,
        /// Optional boolean guard restricting the observed events.
        guard: Option<Box<Property>>,
    },
    /// A TLM transaction context: the basic context `T_b` evaluates the
    /// property at the end of every transaction (`@T_b`), optionally
    /// restricted by a boolean guard (`@(T_b && var_expr)`).
    Transaction {
        /// Optional boolean guard restricting the observed transactions.
        guard: Option<Box<Property>>,
    },
}

impl EvalContext {
    /// The RTL clock context `@clk_pos`.
    #[must_use]
    pub fn clk_pos() -> EvalContext {
        EvalContext::Clock {
            edge: ClockEdge::Pos,
            guard: None,
        }
    }

    /// The RTL clock context `@clk_neg`.
    #[must_use]
    pub fn clk_neg() -> EvalContext {
        EvalContext::Clock {
            edge: ClockEdge::Neg,
            guard: None,
        }
    }

    /// The RTL clock context `@clk` (any edge).
    #[must_use]
    pub fn clk_any() -> EvalContext {
        EvalContext::Clock {
            edge: ClockEdge::Any,
            guard: None,
        }
    }

    /// The base clock context (`true`).
    #[must_use]
    pub fn clk_true() -> EvalContext {
        EvalContext::Clock {
            edge: ClockEdge::True,
            guard: None,
        }
    }

    /// A guarded clock context `@(edge && guard)`.
    ///
    /// # Panics
    ///
    /// Panics if `guard` is not boolean-only (Def. III.2 requires
    /// `var_expr` to be a boolean expression over non-clock variables).
    #[must_use]
    pub fn clock_guarded(edge: ClockEdge, guard: Property) -> EvalContext {
        assert!(
            guard.is_boolean(),
            "context guard must be a boolean expression"
        );
        EvalContext::Clock {
            edge,
            guard: Some(Box::new(guard)),
        }
    }

    /// The basic transaction context `T_b` (Def. III.2).
    #[must_use]
    pub fn tb() -> EvalContext {
        EvalContext::Transaction { guard: None }
    }

    /// A guarded transaction context `@(T_b && guard)`.
    ///
    /// # Panics
    ///
    /// Panics if `guard` is not boolean-only.
    #[must_use]
    pub fn tb_guarded(guard: Property) -> EvalContext {
        assert!(
            guard.is_boolean(),
            "context guard must be a boolean expression"
        );
        EvalContext::Transaction {
            guard: Some(Box::new(guard)),
        }
    }

    /// The context's guard, if any.
    #[must_use]
    pub fn guard(&self) -> Option<&Property> {
        match self {
            EvalContext::Clock { guard, .. } | EvalContext::Transaction { guard } => {
                guard.as_deref()
            }
        }
    }

    /// True for RTL clock contexts.
    #[must_use]
    pub fn is_clock(&self) -> bool {
        matches!(self, EvalContext::Clock { .. })
    }

    /// True for TLM transaction contexts.
    #[must_use]
    pub fn is_transaction(&self) -> bool {
        matches!(self, EvalContext::Transaction { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::CmpOp;

    #[test]
    fn constructors_classify() {
        assert!(EvalContext::clk_pos().is_clock());
        assert!(!EvalContext::clk_pos().is_transaction());
        assert!(EvalContext::tb().is_transaction());
        assert!(EvalContext::tb().guard().is_none());
    }

    #[test]
    fn guarded_contexts_store_guard() {
        let g = Property::cmp("mode", CmpOp::Eq, 1);
        let c = EvalContext::clock_guarded(ClockEdge::Pos, g.clone());
        assert_eq!(c.guard(), Some(&g));
        let t = EvalContext::tb_guarded(g.clone());
        assert_eq!(t.guard(), Some(&g));
    }

    #[test]
    #[should_panic(expected = "boolean expression")]
    fn temporal_guard_is_rejected() {
        let _ = EvalContext::tb_guarded(Property::next(Property::t()));
    }

    #[test]
    fn edge_symbols() {
        assert_eq!(ClockEdge::Pos.symbol(), "clk_pos");
        assert_eq!(ClockEdge::Neg.symbol(), "clk_neg");
        assert_eq!(ClockEdge::Any.symbol(), "clk");
        assert_eq!(ClockEdge::True.symbol(), "true");
    }

    #[test]
    fn edges_by_clock_change() {
        // (prev, now) for rising, falling, held low, held high.
        let changes = [(0, 1), (1, 0), (0, 0), (1, 1)];
        let table = [
            (ClockEdge::Pos, [true, false, false, false]),
            (ClockEdge::Neg, [false, true, false, false]),
            (ClockEdge::Any, [true, true, false, false]),
            (ClockEdge::True, [true, true, false, false]),
        ];
        for (edge, expected) in table {
            for (&(prev, now), want) in changes.iter().zip(expected) {
                assert_eq!(edge.is_edge(prev, now), want, "{edge:?} {prev}->{now}");
            }
        }
    }
}

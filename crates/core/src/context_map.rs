//! Def. III.2: mapping RTL clock contexts onto TLM transaction contexts.
//!
//! - The base clock context (`@true`) and the pure clock contexts (`@clk`,
//!   `@clk_pos`, `@clk_neg`) map onto the basic transaction context `T_b`,
//!   which evaluates the property at the end of every TLM transaction.
//! - A guarded context `@(clock_expr && var_expr)` maps onto
//!   `@(T_b && var_expr)`.
//!
//! A guard observing signals removed by the protocol abstraction is itself
//! rewritten with the Fig. 4 rules; if the whole guard is deleted the basic
//! context `T_b` results.

use psl::EvalContext;

use crate::config::AbstractionConfig;
use crate::rules;

/// Errors returned by [`map_context`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContextMapError {
    /// The context is already a transaction context: the property was
    /// already abstracted.
    AlreadyTransaction,
}

impl std::fmt::Display for ContextMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContextMapError::AlreadyTransaction => {
                f.write_str("context is already a transaction context")
            }
        }
    }
}

impl std::error::Error for ContextMapError {}

/// Result of a context mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappedContext {
    /// The TLM transaction context.
    pub context: EvalContext,
    /// True if the guard was modified (or deleted) by signal abstraction,
    /// which calls for the same human review as in Section III-B.
    pub guard_needs_review: bool,
}

/// Maps an RTL clock context onto a TLM transaction context (Def. III.2).
///
/// # Errors
///
/// Returns [`ContextMapError::AlreadyTransaction`] when given a transaction
/// context.
///
/// ```
/// use abv_core::{context_map::map_context, AbstractionConfig};
/// use psl::EvalContext;
///
/// let cfg = AbstractionConfig::new(10)?;
/// let mapped = map_context(&EvalContext::clk_pos(), &cfg)?;
/// assert_eq!(mapped.context, EvalContext::tb());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn map_context(
    context: &EvalContext,
    cfg: &AbstractionConfig,
) -> Result<MappedContext, ContextMapError> {
    match context {
        EvalContext::Transaction { .. } => Err(ContextMapError::AlreadyTransaction),
        EvalContext::Clock { guard: None, .. } => Ok(MappedContext {
            context: EvalContext::tb(),
            guard_needs_review: false,
        }),
        EvalContext::Clock {
            guard: Some(guard), ..
        } => {
            let outcome = rules::apply(guard, cfg);
            let guard_needs_review = !outcome.is_unchanged();
            let context = match outcome.result {
                Some(g) => EvalContext::tb_guarded(g),
                None => EvalContext::tb(),
            };
            Ok(MappedContext {
                context,
                guard_needs_review,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl::{ClockEdge, Property};

    #[test]
    fn pure_clock_contexts_map_to_tb() {
        let cfg = AbstractionConfig::new(10).unwrap();
        for ctx in [
            EvalContext::clk_true(),
            EvalContext::clk_any(),
            EvalContext::clk_pos(),
            EvalContext::clk_neg(),
        ] {
            let m = map_context(&ctx, &cfg).unwrap();
            assert_eq!(m.context, EvalContext::tb());
            assert!(!m.guard_needs_review);
        }
    }

    #[test]
    fn guard_is_preserved() {
        let cfg = AbstractionConfig::new(10).unwrap();
        let guard: Property = "mode == 1".parse().unwrap();
        let ctx = EvalContext::clock_guarded(ClockEdge::Pos, guard.clone());
        let m = map_context(&ctx, &cfg).unwrap();
        assert_eq!(m.context, EvalContext::tb_guarded(guard));
        assert!(!m.guard_needs_review);
    }

    #[test]
    fn guard_over_abstracted_signal_is_rewritten() {
        let cfg = AbstractionConfig::new(10).unwrap().abstract_signal("hs");
        let guard: Property = "mode == 1 && hs".parse().unwrap();
        let ctx = EvalContext::clock_guarded(ClockEdge::Pos, guard);
        let m = map_context(&ctx, &cfg).unwrap();
        assert_eq!(
            m.context,
            EvalContext::tb_guarded("mode == 1".parse().unwrap())
        );
        assert!(m.guard_needs_review);
    }

    #[test]
    fn fully_abstracted_guard_becomes_basic_tb() {
        let cfg = AbstractionConfig::new(10).unwrap().abstract_signal("hs");
        let ctx = EvalContext::clock_guarded(ClockEdge::Pos, "hs".parse().unwrap());
        let m = map_context(&ctx, &cfg).unwrap();
        assert_eq!(m.context, EvalContext::tb());
        assert!(m.guard_needs_review);
    }

    #[test]
    fn transaction_context_rejected() {
        let cfg = AbstractionConfig::new(10).unwrap();
        assert_eq!(
            map_context(&EvalContext::tb(), &cfg),
            Err(ContextMapError::AlreadyTransaction)
        );
    }
}

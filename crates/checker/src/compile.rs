//! Checker synthesis: from [`psl::ClockedProperty`] to [`PropertyChecker`].
//!
//! The paper's approach is generator-independent (Section IV); this module
//! plays the role of IBM FoCs in the original flow. Synthesis:
//!
//! 1. normalize to negation normal form (so negations sit on atoms),
//! 2. resolve every atom and guard signal against the simulation's signal
//!    registry,
//! 3. unwrap a top-level `always` into the *repeating activation* policy
//!    (a fresh instance per evaluation point, Section IV point 4),
//! 4. translate the body into the monitor formula language.

use desim::Simulation;
use psl::nnf::to_nnf;
use psl::{Atom, ClockEdge, ClockedProperty, EvalContext, Property};

use crate::arena::{FormulaArena, NodeId};
use crate::monitor::{Lit, LitTest, PropertyChecker};

/// Errors produced by checker synthesis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// An atom or guard observes a signal absent from the simulation —
    /// typically a property over signals removed by protocol abstraction
    /// that was not run through `abv_core::abstract_property` first.
    MissingSignal {
        /// The unresolved signal name.
        signal: String,
    },
    /// The property contains a negation over a non-atom even after NNF
    /// (cannot happen for parseable properties; kept for totality).
    UnsupportedNegation,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::MissingSignal { signal } => {
                write!(
                    f,
                    "signal `{signal}` does not exist in the simulation (was it abstracted away?)"
                )
            }
            CompileError::UnsupportedNegation => f.write_str("negation over non-atomic property"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Synthesizes a checker for `property`, resolving signals against `sim`.
///
/// The returned tuple carries the clock edge for clock contexts, which
/// the host samples at, and `None` for transaction contexts, whose host
/// observes a transaction bus.
///
/// # Errors
///
/// Returns [`CompileError::MissingSignal`] if a referenced signal does not
/// exist in `sim`.
pub fn compile(
    name: &str,
    property: &ClockedProperty,
    sim: &Simulation,
) -> Result<(PropertyChecker, Option<ClockEdge>), CompileError> {
    let nnf = to_nnf(&property.property);
    let (body, repeating) = match nnf {
        Property::Always(inner) => (*inner, true),
        other => (other, false),
    };
    let completion_bound_ns = body.completion_bound_ns();
    let (guard, edge) = match &property.context {
        EvalContext::Clock { edge, guard } => (guard.as_deref().map(to_nnf), Some(*edge)),
        EvalContext::Transaction { guard } => (guard.as_deref().map(to_nnf), None),
    };
    let mut arena =
        FormulaArena::with_capacity(body.size() + guard.as_ref().map_or(0, Property::size));
    let body = translate(&body, sim, &mut arena)?;
    let guard = match &guard {
        Some(g) => Some(translate(g, sim, &mut arena)?),
        None => None,
    };
    let mut checker = PropertyChecker::new(name, arena, body, repeating, guard);
    checker.set_completion_bound_ns(completion_bound_ns);
    Ok((checker, edge))
}

/// Lowers an NNF property into the arena. Smart constructors intern each
/// distinct subformula once, so the compiled body is already maximally
/// shared.
fn translate(
    p: &Property,
    sim: &Simulation,
    arena: &mut FormulaArena,
) -> Result<NodeId, CompileError> {
    Ok(match p {
        Property::Const(true) => NodeId::TRUE,
        Property::Const(false) => NodeId::FALSE,
        Property::Atom(a) => {
            let lit = resolve(a, false, sim)?;
            arena.lit(&lit)
        }
        Property::Not(inner) => match &**inner {
            Property::Atom(a) => {
                let lit = resolve(a, true, sim)?;
                arena.lit(&lit)
            }
            _ => return Err(CompileError::UnsupportedNegation),
        },
        Property::And(a, b) => {
            let (a, b) = (translate(a, sim, arena)?, translate(b, sim, arena)?);
            arena.and(a, b)
        }
        Property::Or(a, b) => {
            let (a, b) = (translate(a, sim, arena)?, translate(b, sim, arena)?);
            arena.or(a, b)
        }
        Property::Implies(..) => unreachable!("implication is eliminated by NNF"),
        Property::Next { n, inner } => {
            let inner = translate(inner, sim, arena)?;
            arena.next_n(*n, inner)
        }
        Property::NextEt { eps_ns, inner, .. } => {
            let inner = translate(inner, sim, arena)?;
            arena.next_et(*eps_ns, inner)
        }
        Property::Until(a, b) => {
            let (a, b) = (translate(a, sim, arena)?, translate(b, sim, arena)?);
            arena.until(a, b)
        }
        Property::Release(a, b) => {
            let (a, b) = (translate(a, sim, arena)?, translate(b, sim, arena)?);
            arena.release(a, b)
        }
        Property::Always(inner) => {
            let inner = translate(inner, sim, arena)?;
            arena.always(inner)
        }
        Property::Eventually(inner) => {
            let inner = translate(inner, sim, arena)?;
            arena.eventually(inner)
        }
    })
}

pub(crate) fn resolve(atom: &Atom, negated: bool, sim: &Simulation) -> Result<Lit, CompileError> {
    let name = atom.signal_name();
    let sig = sim
        .signal_id(name)
        .ok_or_else(|| CompileError::MissingSignal {
            signal: name.to_string(),
        })?;
    let test = match atom {
        Atom::Bool(_) => LitTest::Bool,
        Atom::Cmp { op, value, .. } => LitTest::Cmp(*op, *value),
    };
    Ok(Lit {
        sig,
        name: name.clone(),
        test,
        negated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_with(names: &[&str]) -> Simulation {
        let mut sim = Simulation::new();
        for n in names {
            sim.add_signal(n, 0);
        }
        sim
    }

    #[test]
    fn compiles_paper_q3() {
        let sim = sim_with(&["ds", "rdy"]);
        let q3: ClockedProperty = "always (!ds || next_et[1, 170] rdy) @T_b".parse().unwrap();
        let (checker, edge) = compile("q3", &q3, &sim).unwrap();
        assert_eq!(checker.name(), "q3");
        assert_eq!(edge, None);
    }

    #[test]
    fn compiles_clock_context_with_edge() {
        let sim = sim_with(&["rdy"]);
        let p: ClockedProperty = "always rdy @clk_neg".parse().unwrap();
        let (_, edge) = compile("p", &p, &sim).unwrap();
        assert_eq!(edge, Some(ClockEdge::Neg));
    }

    #[test]
    fn missing_signal_reports_name() {
        let sim = sim_with(&["rdy"]);
        let p: ClockedProperty = "always (!ds || rdy) @clk_pos".parse().unwrap();
        let err = compile("p", &p, &sim).unwrap_err();
        assert_eq!(
            err,
            CompileError::MissingSignal {
                signal: "ds".into()
            }
        );
        assert!(err.to_string().contains("abstracted"));
    }

    #[test]
    fn guard_signals_are_resolved_too() {
        let sim = sim_with(&["rdy"]);
        let p: ClockedProperty = "always rdy @(clk_pos && mode == 1)".parse().unwrap();
        let err = compile("p", &p, &sim).unwrap_err();
        assert_eq!(
            err,
            CompileError::MissingSignal {
                signal: "mode".into()
            }
        );
    }

    #[test]
    fn lifetime_bound_matches_paper_array_size() {
        let sim = sim_with(&["ds", "rdy"]);
        let q3: ClockedProperty = "always (!ds || next_et[1, 170] rdy) @T_b".parse().unwrap();
        let (checker, _) = compile("q3", &q3, &sim).unwrap();
        // "the size of the array for q3 is 17" (Section IV, point 1).
        assert_eq!(checker.lifetime_bound(10), Some(17));
        assert_eq!(checker.lifetime_bound(5), Some(34));
        assert_eq!(checker.lifetime_bound(0), None, "no period, no bound");
        let q2: ClockedProperty =
            "always (!ds || (next_et[1,10](!ds) until next_et[2,20](rdy))) @T_b"
                .parse()
                .unwrap();
        let (checker, _) = compile("q2", &q2, &sim).unwrap();
        assert_eq!(
            checker.lifetime_bound(10),
            None,
            "until makes the lifetime unbounded"
        );
    }

    #[test]
    fn the_deepest_parseable_property_compiles_and_monitors_on_a_small_stack() {
        use psl::parser::MAX_DEPTH;
        // `next (` / `!(` levels around a conjunction chain, at the
        // parser's recursion limit.
        let pairs = (MAX_DEPTH - 2) / 2;
        let levels: String = (0..pairs)
            .map(|i| if i % 2 == 0 { "next (" } else { "!(" })
            .collect();
        let chain = vec!["rdy"; MAX_DEPTH - 2 - pairs].join(" && ");
        let src = format!("always {levels}({chain}){} @clk_pos", ")".repeat(pairs));
        let live = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let sim = sim_with(&["rdy"]);
                let rdy = sim.signal_id("rdy").expect("added");
                let p: ClockedProperty = src.parse().expect("at the limit");
                let (mut checker, _) = compile("deep", &p, &sim).expect("compiles");
                for now in 0..(2 * MAX_DEPTH as u64) {
                    checker.on_event(&|sig| u64::from(sig == rdy && now % 3 != 0), now);
                }
                checker.live_instances()
            })
            .expect("spawns")
            .join()
            .expect("no stack overflow");
        assert!(live > 0);
    }

    #[test]
    fn nnf_applied_before_translation() {
        // Implication and negated conjunction compile fine thanks to NNF.
        let sim = sim_with(&["ds", "indata", "out"]);
        let p: ClockedProperty = "always ((ds && indata == 0) -> next[17](out != 0)) @clk_pos"
            .parse()
            .unwrap();
        let (checker, edge) = compile("p1", &p, &sim).unwrap();
        assert_eq!(edge, Some(ClockEdge::Pos));
        assert_eq!(checker.live_instances(), 0);
    }
}

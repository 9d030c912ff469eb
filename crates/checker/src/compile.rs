//! Checker synthesis: from [`psl::ClockedProperty`] to [`PropertyChecker`].
//!
//! The paper's approach is generator-independent (Section IV); this module
//! plays the role of IBM FoCs in the original flow. Synthesis:
//!
//! 1. unwrap a top-level `always` into the *repeating activation* policy
//!    (a fresh instance per evaluation point, Section IV point 4),
//! 2. normalize the body to negation normal form (so negations sit on
//!    atoms), resolving every atom and guard signal against the
//!    simulation's signal registry,
//! 3. lower it into the monitor formula arena.
//!
//! Steps 2 and 3 are one pass: [`psl::nnf`]'s rewrite is a fold, and
//! [`compile`] drives it straight into the arena, so no normalized copy
//! of the property is built.

use desim::Simulation;
use psl::nnf::{fold, NnfBuilder, TopLevel};
use psl::{Atom, ClockEdge, ClockedProperty, EvalContext};

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
    let top = TopLevel::split(&property.property);
    let (guard, edge) = match &property.context {
        EvalContext::Clock { edge, guard } => (guard.as_deref(), Some(*edge)),
        EvalContext::Transaction { guard } => (guard.as_deref(), None),
    };
    // A source tree has at least one node per arena node and literal its
    // normal form interns, so the tables never regrow while lowering.
    let size = top.source.size() + guard.map_or(0, psl::Property::size);
    let mut lower = Lower {
        sim,
        arena: FormulaArena::with_capacity(size),
    };
    let body = top.fold(&mut lower)?;
    let guard = match guard {
        Some(g) => Some(fold(g, &mut lower)?),
        None => None,
    };
    let mut checker = PropertyChecker::new(name, lower.arena, body, top.repeating, guard);
    checker.set_completion_bound_ns(top.source.completion_bound_ns());
    Ok((checker, edge))
}

/// Lowers a property's normal form into an arena as [`fold`] produces it.
/// Smart constructors intern each distinct subformula once, so the
/// compiled body is already maximally shared.
struct Lower<'a> {
    sim: &'a Simulation,
    arena: FormulaArena,
}

impl NnfBuilder for Lower<'_> {
    type Out = NodeId;
    type Error = CompileError;

    fn constant(&mut self, value: bool) -> NodeId {
        if value {
            NodeId::TRUE
        } else {
            NodeId::FALSE
        }
    }

    fn literal(&mut self, atom: &Atom, negated: bool) -> Result<NodeId, CompileError> {
        Ok(self.arena.lit(resolve(atom, negated, self.sim)?))
    }

    fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.arena.and(a, b)
    }

    fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.arena.or(a, b)
    }

    fn next(&mut self, n: u32, inner: NodeId) -> NodeId {
        self.arena.next_n(n, inner)
    }

    fn next_et(&mut self, _tau: u32, eps_ns: u64, inner: NodeId) -> NodeId {
        self.arena.next_et(eps_ns, inner)
    }

    fn until(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.arena.until(a, b)
    }

    fn release(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.arena.release(a, b)
    }

    fn always(&mut self, inner: NodeId) -> NodeId {
        self.arena.always(inner)
    }

    fn eventually(&mut self, inner: NodeId) -> NodeId {
        self.arena.eventually(inner)
    }
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
    use psl::Property;

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

    /// `property` lowered through the fold: its arena, body and
    /// activation policy.
    fn lowered(property: &Property, sim: &Simulation) -> (FormulaArena, NodeId, bool) {
        let top = TopLevel::split(property);
        let mut lower = Lower {
            sim,
            arena: FormulaArena::with_capacity(0),
        };
        let body = top.fold(&mut lower).expect("signals exist");
        (lower.arena, body, top.repeating)
    }

    /// Lowering a property through the fold interns exactly what lowering
    /// its `to_nnf` tree does — the same nodes and literals under the same
    /// ids, the same body and the same activation policy — for every
    /// shipped suite property and for generated properties outside NNF.
    #[test]
    fn the_fold_interns_what_the_nnf_tree_interns() {
        use crate::differential::{gen_non_nnf, SIGNALS};
        use designs::{AbsLevel, DesignKind};
        use psl::nnf::to_nnf;

        let mut cases: Vec<Property> = Vec::new();
        for design in DesignKind::ALL {
            for level in [AbsLevel::Rtl, AbsLevel::TlmCa, AbsLevel::TlmAt] {
                let suite = designs::properties_at(design, level);
                cases.extend(suite.iter().map(|(_, p)| p.property.clone()));
                cases.extend(suite.iter().filter_map(|(_, p)| p.context.guard().cloned()));
            }
        }
        let shipped = cases.len();
        let mut rng = tinyrng::TinyRng::new(0xF01D);
        for _ in 0..200 {
            let body = gen_non_nnf(&mut rng, 3);
            cases.push(match rng.range_u32(0, 3) {
                0 => Property::not(Property::eventually(body)),
                1 => Property::always(body),
                _ => body,
            });
        }
        let mut sim = Simulation::new();
        for p in &cases {
            for name in p.signals().into_iter().chain(SIGNALS.iter().copied()) {
                if sim.signal_id(name).is_none() {
                    sim.add_signal(name, 0);
                }
            }
        }
        let mut outside_nnf = 0;
        for p in &cases {
            let nnf = to_nnf(p);
            outside_nnf += usize::from(nnf != *p);
            let (folded, body, repeating) = lowered(p, &sim);
            let (tree, tree_body, tree_repeating) = lowered(&nnf, &sim);
            assert!(folded.same_tables(&tree), "{p}");
            assert_eq!((body, repeating), (tree_body, tree_repeating), "{p}");
        }
        assert!(shipped >= 80, "{shipped} shipped properties and guards");
        assert!(outside_nnf > 150, "only {outside_nnf} cases outside NNF");
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

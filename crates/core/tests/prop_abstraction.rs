//! Randomized tests of the abstraction pipeline:
//!
//! - Algorithm III.1 arithmetic (`ε = n × c`, `τ` consecutive);
//! - Fig. 4 soundness for consequence-preserving drops: on any trace where
//!   the original (signal-complete) property holds, the conjunct-dropped
//!   rewrite holds too;
//! - whole-pipeline structural invariants: the abstracted body never
//!   mentions abstracted signals, never contains `next`, and carries a
//!   transaction context.
//!
//! Cases come from a seeded [`TinyRng`] loop (the offline substitute for
//! `proptest`); failure messages carry the case index for reproduction.

use abv_core::{abstract_property, AbstractionConfig, Consequence};
use psl::trace::{Step, Trace};
use psl::{Atom, ClockedProperty, CmpOp, EvalContext, Property};
use tinyrng::TinyRng;

const CASES: u64 = 400;

/// Preserved signals and the abstracted one.
const KEPT: &[&str] = &["a", "b", "c"];
const GONE: &str = "hs";

fn gen_atom(rng: &mut TinyRng, include_gone: bool) -> Atom {
    let mut names = KEPT.to_vec();
    if include_gone {
        names.push(GONE);
    }
    if rng.flip() {
        Atom::bool(*rng.pick(&names))
    } else {
        Atom::cmp(*rng.pick(&names), CmpOp::Eq, rng.range_u64(0, 3))
    }
}

fn gen_literal(rng: &mut TinyRng, include_gone: bool) -> Property {
    let atom = Property::Atom(gen_atom(rng, include_gone));
    if rng.flip() {
        Property::not(atom)
    } else {
        atom
    }
}

/// Simple-subset-style RTL properties (negations on atoms only).
fn gen_rtl_property(rng: &mut TinyRng, include_gone: bool, depth: u32) -> Property {
    if depth == 0 {
        return gen_literal(rng, include_gone);
    }
    match rng.range_u32(0, 8) {
        0 => gen_rtl_property(rng, include_gone, depth - 1).and(gen_rtl_property(
            rng,
            include_gone,
            depth - 1,
        )),
        1 => gen_rtl_property(rng, include_gone, depth - 1).or(gen_rtl_property(
            rng,
            include_gone,
            depth - 1,
        )),
        2 => Property::next_n(
            rng.range_u32(1, 4),
            gen_rtl_property(rng, include_gone, depth - 1),
        ),
        3 => gen_rtl_property(rng, include_gone, depth - 1).until(gen_rtl_property(
            rng,
            include_gone,
            depth - 1,
        )),
        4 => gen_rtl_property(rng, include_gone, depth - 1).release(gen_rtl_property(
            rng,
            include_gone,
            depth - 1,
        )),
        5 => Property::always(gen_rtl_property(rng, include_gone, depth - 1)),
        6 => Property::eventually(gen_rtl_property(rng, include_gone, depth - 1)),
        _ => gen_literal(rng, include_gone),
    }
}

/// A 10 ns-tick trace over all signals (including the abstracted one).
fn gen_trace(rng: &mut TinyRng) -> Trace {
    (0..rng.range_usize(3, 16))
        .map(|i| {
            let mut s = Step::new(10 + 10 * i as u64, std::iter::empty::<(String, u64)>());
            for name in KEPT {
                s.set(*name, rng.range_u64(0, 3));
            }
            s.set(GONE, rng.range_u64(0, 3));
            s
        })
        .collect()
}

fn cfg() -> AbstractionConfig {
    AbstractionConfig::new(10).unwrap().abstract_signal(GONE)
}

/// Structural invariants of the whole pipeline.
#[test]
fn abstraction_structural_invariants() {
    for case in 0..CASES {
        let mut rng = TinyRng::fork(0xC03E_0001, case);
        let p = gen_rtl_property(&mut rng, true, 3);
        let clocked = ClockedProperty::new(p, EvalContext::clk_pos());
        let a = abstract_property(&clocked, &cfg()).expect("abstractable");
        if let Some(q) = a.result() {
            assert!(q.context.is_transaction(), "case {case}: {q}");
            assert!(
                !q.property.signals().contains(&GONE),
                "case {case}: abstracted signal must not survive: {q}"
            );
            let mut has_plain_next = false;
            q.property.visit(&mut |node| {
                if matches!(node, Property::Next { .. }) {
                    has_plain_next = true;
                }
            });
            assert!(
                !has_plain_next,
                "case {case}: no un-timed next may survive: {q}"
            );
        } else {
            assert_eq!(a.consequence(), Consequence::Deleted, "case {case}");
        }
    }
}

/// `τ` indices are 1..k consecutive in syntactic order and every `ε` is a
/// positive multiple of the clock period.
#[test]
fn tau_epsilon_wellformed() {
    for case in 0..CASES {
        let mut rng = TinyRng::fork(0xC03E_0002, case);
        let p = gen_rtl_property(&mut rng, false, 3);
        let period = rng.range_u64(1, 40);
        let clocked = ClockedProperty::new(p, EvalContext::clk_pos());
        let cfg = AbstractionConfig::new(period).unwrap();
        let a = abstract_property(&clocked, &cfg).expect("abstractable");
        let q = a.result().expect("nothing abstracted away");
        let mut taus = Vec::new();
        q.property.visit(&mut |node| {
            if let Property::NextEt { tau, eps_ns, .. } = node {
                taus.push(*tau);
                assert!(*eps_ns >= period, "case {case}: eps at least one period");
                assert_eq!(
                    eps_ns % period,
                    0,
                    "case {case}: eps multiple of the period"
                );
            }
        });
        let expected: Vec<u32> = (1..=taus.len() as u32).collect();
        assert_eq!(taus, expected, "case {case}: {q}");
    }
}

/// Consequence-preserving abstraction (Equivalent or Weakened): if the
/// original holds on a trace, the rewritten *pre-timing* body holds on the
/// same trace. (Timing substitution is validated separately via the eps
/// arithmetic and the checker tests; here we compare with the
/// `next`-preserving rules output by re-running only the Fig. 4 pass.)
#[test]
fn weakened_results_are_implied() {
    for case in 0..CASES {
        let mut rng = TinyRng::fork(0xC03E_0003, case);
        let p = gen_rtl_property(&mut rng, true, 3);
        let t = gen_trace(&mut rng);
        let nnf = psl::nnf::to_nnf(&p);
        let Ok(pushed) = psl::push_ahead::push_ahead(&nnf) else {
            continue;
        };
        let outcome = abv_core::rules::apply(&pushed, &cfg());
        // Only consequence-preserving runs make a claim.
        if outcome.review_drops > 0 {
            continue;
        }
        let Some(rewritten) = outcome.result else {
            continue;
        };
        for pos in 0..t.len() {
            let original = t.eval(&pushed, pos).expect("signals defined");
            if original {
                assert!(
                    t.eval(&rewritten, pos).expect("signals defined"),
                    "case {case}: conjunct-dropped rewrite must be implied at {pos}: \
                     {pushed} vs {rewritten}"
                );
            }
        }
    }
}

/// Deleted properties only ever contain abstracted signals on every
/// root-to-deletion path: conversely, a property with no abstracted signal
/// is always Equivalent and textually unchanged except timing.
#[test]
fn untouched_properties_are_equivalent() {
    for case in 0..CASES {
        let mut rng = TinyRng::fork(0xC03E_0004, case);
        let p = gen_rtl_property(&mut rng, false, 3);
        let clocked = ClockedProperty::new(p, EvalContext::clk_pos());
        let a = abstract_property(&clocked, &cfg()).expect("abstractable");
        assert_eq!(a.consequence(), Consequence::Equivalent, "case {case}");
        assert!(a.removed_atoms().is_empty(), "case {case}");
        assert!(a.result().is_some(), "case {case}");
    }
}

/// Abstracting twice is rejected (the result is already TLM).
#[test]
fn abstraction_is_not_reapplicable() {
    for case in 0..CASES {
        let mut rng = TinyRng::fork(0xC03E_0005, case);
        let p = gen_rtl_property(&mut rng, false, 3);
        let clocked = ClockedProperty::new(p, EvalContext::clk_pos());
        let a = abstract_property(&clocked, &cfg()).expect("abstractable");
        if let Some(q) = a.result() {
            assert!(abstract_property(q, &cfg()).is_err(), "case {case}: {q}");
        }
    }
}

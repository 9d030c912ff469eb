//! Differential test: the interned-arena
//! [`PropertyChecker`](crate::PropertyChecker) against the retained
//! `Rc`-tree [`ReferenceChecker`](crate::reference::ReferenceChecker) (the
//! pre-arena progression core, kept verbatim in `reference.rs`).
//!
//! Both checkers are synthesized from the same [`ClockedProperty`] via the
//! same pipeline (NNF, repeating unwrap, signal resolution) and driven over
//! identical event streams. Their [`PropertyReport`]s must agree exactly —
//! verdicts, activation/completion counters, failure times and reasons —
//! after blanking the fields only the arena produces (interning/memo stats
//! and rendered residuals, which the reference deliberately leaves empty).
//!
//! Cases come from a seeded [`TinyRng`] loop; failure messages carry the
//! case index for reproduction. A second input is every shipped IP's
//! TLM-CA suite over one seeded dense stream.

use std::collections::HashMap;

use designs::{AbsLevel, DesignKind};
use desim::{SignalId, Simulation};
use psl::{Atom, ClockedProperty, EvalContext, Property};
use tinyrng::TinyRng;

use crate::reference::compile_reference;
use crate::{compile, PropertyReport};

const CASES: u64 = 600;

const SIGNALS: &[&str] = &["a", "b", "c"];

fn gen_atom(rng: &mut TinyRng) -> Property {
    match rng.range_u32(0, 3) {
        0 => Property::Atom(Atom::bool(*rng.pick(SIGNALS))),
        1 => Property::not(Property::Atom(Atom::bool(*rng.pick(SIGNALS)))),
        _ => Property::cmp(*rng.pick(SIGNALS), psl::CmpOp::Eq, rng.range_u64(0, 3)),
    }
}

/// Simple-subset temporal properties over the shared signals — the same
/// grammar the oracle test uses, so coverage includes `next[n]`,
/// `next_ε^τ` (aligned and unaligned offsets), `until` and `release`.
fn gen_property(rng: &mut TinyRng, depth: u32) -> Property {
    if depth == 0 {
        return gen_atom(rng);
    }
    match rng.range_u32(0, 7) {
        0 => gen_property(rng, depth - 1).and(gen_property(rng, depth - 1)),
        1 => gen_atom(rng).or(gen_property(rng, depth - 1)),
        2 => Property::next_n(rng.range_u32(1, 4), gen_property(rng, depth - 1)),
        3 => {
            let tau = rng.range_u32(1, 4);
            let eps = *rng.pick(&[10u64, 20, 30, 15]);
            Property::next_et(tau, eps, gen_property(rng, depth - 1))
        }
        4 => gen_atom(rng).until(gen_property(rng, depth - 1)),
        5 => gen_atom(rng).release(gen_property(rng, depth - 1)),
        _ => gen_atom(rng),
    }
}

/// An event stream: strictly increasing times (multiples of 10 ns, with
/// occasional gaps), random signal values.
fn gen_stream(rng: &mut TinyRng) -> Vec<(u64, Vec<u64>)> {
    let mut t = 0;
    (0..rng.range_usize(2, 14))
        .map(|_| {
            t += rng.range_u64(1, 4) * 10;
            (t, (0..SIGNALS.len()).map(|_| rng.range_u64(0, 3)).collect())
        })
        .collect()
}

/// Blanks the fields only the arena implementation fills in: interning and
/// memoization statistics, and the rendered residual obligations attached
/// to failures. Everything else must match the reference exactly.
fn normalize(mut report: PropertyReport) -> PropertyReport {
    report.arena_nodes = 0;
    report.memo_hits = 0;
    report.memo_misses = 0;
    for failure in &mut report.failures {
        failure.residual = String::new();
    }
    report
}

fn check_case(clocked: &ClockedProperty, rows: &[(u64, Vec<u64>)], label: &str) {
    let mut sim = Simulation::new();
    let sigs: Vec<SignalId> = SIGNALS.iter().map(|s| sim.add_signal(s, 0)).collect();
    let (mut arena_checker, edge_a) = compile("p", clocked, &sim).expect("compiles");
    let (mut reference, edge_r) = compile_reference("p", clocked, &sim).expect("compiles");
    assert_eq!(edge_a, edge_r, "{label}: clock-edge dispatch must agree");

    for (t, values) in rows {
        let frame: HashMap<SignalId, u64> =
            sigs.iter().copied().zip(values.iter().copied()).collect();
        let read = |sig: SignalId| frame[&sig];
        arena_checker.on_event(&read, *t);
        reference.on_event(&read, *t);
        assert_eq!(
            arena_checker.live_instances(),
            reference.live_instances(),
            "{label}: live instance pools diverge at {t}ns for {clocked}"
        );
    }
    let end = rows.last().expect("nonempty stream").0 + 10;
    arena_checker.finish(end);
    reference.finish(end);

    let arena_report = arena_checker.report();
    let reference_report = reference.report();
    assert_eq!(
        reference_report.arena_nodes, 0,
        "{label}: the reference must not report arena stats"
    );
    if arena_report.activations > 0 {
        assert!(
            arena_report.arena_nodes >= 2,
            "{label}: an active arena checker interns at least true/false"
        );
    }
    assert_eq!(
        normalize(arena_report),
        normalize(reference_report),
        "{label}: reports diverge for {clocked} on rows {rows:?}"
    );
}

/// Random properties (plain, `always`-wrapped, and guarded) over random
/// streams: the arena checker and the reference checker must produce
/// identical verdicts, counters, failure times and reasons.
#[test]
fn arena_checker_matches_reference_checker() {
    for case in 0..CASES {
        let mut rng = TinyRng::fork(0xD1FF_E001, case);
        let mut p = gen_property(&mut rng, 3);
        if rng.range_u32(0, 4) == 0 {
            p = Property::always(p);
        }
        let context = if rng.range_u32(0, 4) == 0 {
            EvalContext::tb_guarded(gen_atom(&mut rng))
        } else {
            EvalContext::tb()
        };
        let clocked = ClockedProperty::new(p, context);
        let rows = gen_stream(&mut rng);
        check_case(&clocked, &rows, &format!("case {case}"));
    }
}

/// The Fig. 5 `q3` scenario end to end: a missed deadline must be reported
/// identically (same fire/fail instants, same reason) by both cores, and
/// the arena side must additionally carry a rendered obligation.
#[test]
fn q3_missed_deadline_matches_reference() {
    let q3: ClockedProperty = "always (!ds || next_et[1, 170] rdy) @T_b".parse().unwrap();
    let mut sim = Simulation::new();
    let ds = sim.add_signal("ds", 0);
    let _rdy = sim.add_signal("rdy", 0);
    let (mut arena_checker, _) = compile("q3", &q3, &sim).unwrap();
    let (mut reference, _) = compile_reference("q3", &q3, &sim).unwrap();

    let mut rows: Vec<(u64, u64, u64)> = (170..=330)
        .step_by(10)
        .map(|t| (t, u64::from(t == 170), 0))
        .collect();
    rows.push((350, 0, 1));
    for &(t, ds_v, rdy_v) in &rows {
        let read = move |sig: SignalId| if sig == ds { ds_v } else { rdy_v };
        arena_checker.on_event(&read, t);
        reference.on_event(&read, t);
    }
    arena_checker.finish(360);
    reference.finish(360);

    let arena_report = arena_checker.report();
    assert_eq!(arena_report.failures[0].residual, "at[340ns](rdy)");
    assert!(arena_report.memo_hits + arena_report.memo_misses > 0);
    assert_eq!(normalize(arena_report), normalize(reference.report()));
}

/// A dense event stream over `sigs`: one frame every 10 ns with seeded
/// values in `0..4`, indexed by [`SignalId::index`] like the kernel's own
/// signal store.
fn dense_frames(sigs: &[SignalId], events: usize, seed: u64) -> Vec<(u64, Vec<u64>)> {
    let mut rng = TinyRng::new(seed);
    let width = sigs.iter().map(|s| s.index() + 1).max().unwrap_or(0);
    (1..=events)
        .map(|k| {
            let mut frame = vec![0; width];
            for s in sigs {
                frame[s.index()] = rng.range_u64(0, 4);
            }
            (k as u64 * 10, frame)
        })
        .collect()
}

/// Each shipped IP's TLM-CA suite, every property fed every frame of one
/// seeded dense stream: both cores must produce the same full report.
#[test]
fn shipped_tlm_ca_suites_match_reference_on_a_dense_stream() {
    for design in DesignKind::ALL {
        let suite = designs::properties_at(design, AbsLevel::TlmCa);
        let mut sim = Simulation::new();
        let mut sigs = Vec::new();
        for (_, clocked) in &suite {
            let mut names = clocked.property.signals();
            if let Some(guard) = clocked.context.guard() {
                names.extend(guard.signals());
            }
            for name in names {
                if sim.signal_id(name).is_none() {
                    sigs.push(sim.add_signal(name, 0));
                }
            }
        }
        let stream = dense_frames(&sigs, 2400, 0xA0B1);
        let end = stream.last().expect("nonempty stream").0 + 10;
        for (name, clocked) in &suite {
            let label = format!("{} {name}", design.label());
            let (mut arena_checker, _) = compile(name, clocked, &sim).expect("compiles");
            let (mut reference, _) = compile_reference(name, clocked, &sim).expect("compiles");
            for (t, frame) in &stream {
                let read = |sig: SignalId| frame[sig.index()];
                arena_checker.on_event(&read, *t);
                reference.on_event(&read, *t);
            }
            arena_checker.finish(end);
            reference.finish(end);
            let arena_report = arena_checker.report();
            assert!(arena_report.activations > 0, "{label}: the stream fires it");
            assert_eq!(
                normalize(arena_report),
                normalize(reference.report()),
                "{label}: reports diverge on the dense stream"
            );
        }
    }
}

//! Randomized equivalence between the online checker (progression
//! monitors + wrapper) and the finite-trace oracle in [`psl::trace`].
//!
//! For random simple-subset properties and random transaction streams, a
//! non-repeating checker's verdict must agree with evaluating the property
//! on the recorded trace at position 0, whenever the checker reached a
//! verdict (completed or failed) before the stream ended.
//!
//! Cases come from a seeded [`TinyRng`] loop (the offline substitute for
//! `proptest`); failure messages carry the case index for reproduction.

use abv_checker::{Binding, Checker, Verdict};
use desim::{Component, Event, SignalId, SimCtx, SimTime, Simulation};
use psl::trace::{Step, Trace};
use psl::{Atom, ClockedProperty, EvalContext, Property};
use tinyrng::TinyRng;
use tlmkit::{Transaction, TransactionBus};

const CASES: u64 = 600;

const SIGNALS: &[&str] = &["a", "b", "c"];

/// Replays `(time, values…)` rows as transactions.
struct Replay {
    bus: TransactionBus,
    sigs: Vec<SignalId>,
    rows: Vec<(u64, Vec<u64>)>,
    next: usize,
}

impl Component for Replay {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        let (_, values) = &self.rows[self.next];
        for (sig, v) in self.sigs.iter().zip(values) {
            ctx.write(*sig, *v);
        }
        self.bus.publish(ctx, Transaction::write(0, 0, ev.time));
        self.next += 1;
        if let Some(&(t, _)) = self.rows.get(self.next) {
            ctx.schedule_self(t - ev.time.as_ns(), 0);
        }
    }
}

fn gen_atom(rng: &mut TinyRng) -> Property {
    match rng.range_u32(0, 3) {
        0 => Property::Atom(Atom::bool(*rng.pick(SIGNALS))),
        1 => Property::not(Property::Atom(Atom::bool(*rng.pick(SIGNALS)))),
        _ => Property::cmp(*rng.pick(SIGNALS), psl::CmpOp::Eq, rng.range_u64(0, 3)),
    }
}

/// Simple-subset temporal properties over the shared signals, including
/// `next[n]` and `next_ε^τ` (with offsets that are multiples of the 10 ns
/// stream spacing, plus deliberately unaligned ones).
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

/// A transaction stream: strictly increasing times (multiples of 10 ns,
/// with occasional gaps), random signal values.
fn gen_stream(rng: &mut TinyRng) -> Vec<(u64, Vec<u64>)> {
    let mut t = 0;
    (0..rng.range_usize(2, 14))
        .map(|_| {
            t += rng.range_u64(1, 4) * 10;
            (t, (0..SIGNALS.len()).map(|_| rng.range_u64(0, 3)).collect())
        })
        .collect()
}

/// Runs the online checker (non-repeating property) over the stream.
fn online_verdict(property: &Property, rows: &[(u64, Vec<u64>)]) -> (Verdict, u64, u64) {
    let mut sim = Simulation::new();
    let bus = TransactionBus::new();
    let sigs: Vec<SignalId> = SIGNALS.iter().map(|s| sim.add_signal(s, 0)).collect();
    let first = rows[0].0;
    let model = sim.add_component(Replay {
        bus: bus.clone(),
        sigs,
        rows: rows.to_vec(),
        next: 0,
    });
    sim.schedule(SimTime::from_ns(first), model, 0);
    let clocked = ClockedProperty::new(property.clone(), EvalContext::tb());
    let checker = Checker::attach(&mut sim, "p", &clocked, Binding::bus(&bus)).expect("attaches");
    sim.run_to_completion();
    let end = sim.now().as_ns();
    let report = checker.finalize(&mut sim, end);
    (
        report.verdict(),
        report.completions + report.vacuous,
        report.pending,
    )
}

/// Builds the trace the oracle sees (one step per transaction).
fn trace_of(rows: &[(u64, Vec<u64>)]) -> Trace {
    rows.iter()
        .map(|(t, values)| {
            Step::new(
                *t,
                SIGNALS
                    .iter()
                    .zip(values)
                    .map(|(n, v)| ((*n).to_owned(), *v)),
            )
        })
        .collect()
}

fn check_case(p: &Property, rows: &[(u64, Vec<u64>)], label: &str) {
    let (verdict, resolved_ok, pending) = online_verdict(p, rows);
    let trace = trace_of(rows);
    let expected = trace.eval(p, 0).expect("signals all defined");
    if pending == 0 {
        // Fully resolved: verdicts must agree exactly.
        let online_pass = verdict == Verdict::Pass;
        assert_eq!(
            online_pass, expected,
            "{label}: property {p} on rows {rows:?}: online {verdict:?} vs oracle {expected}"
        );
        assert!(resolved_ok >= 1 || verdict == Verdict::Fail, "{label}");
    } else if verdict == Verdict::Fail {
        // Undetermined online ⇒ the oracle may go either way (its
        // end-of-trace conventions decide); a FAIL verdict recorded before
        // the end must still be a real failure though.
        assert!(
            !expected,
            "{label}: online failure must imply oracle failure for {p} on {rows:?}"
        );
    }
}

/// When the online checker reaches a definite verdict before the stream
/// ends, it matches the oracle's evaluation at position 0.
#[test]
fn online_checker_matches_trace_oracle() {
    for case in 0..CASES {
        let mut rng = TinyRng::fork(0x0AC1_E001, case);
        let p = gen_property(&mut rng, 3);
        let rows = gen_stream(&mut rng);
        check_case(&p, &rows, &format!("case {case}"));
    }
}

/// Regression (ex-proptest shrink): a deadline chain whose middle `next`
/// lands between stream events.
#[test]
fn regression_nested_deadline_chain() {
    let p = Property::next_et(
        1,
        10,
        Property::next_n(
            2,
            Property::next_et(1, 30, Property::not(Property::Atom(Atom::bool("b")))),
        ),
    );
    let rows: Vec<(u64, Vec<u64>)> = [10u64, 20, 30, 50, 60]
        .iter()
        .map(|&t| (t, vec![0, 0, 0]))
        .collect();
    check_case(&p, &rows, "regression");
}

/// `ε = u64::MAX` anchors past the last representable instant. Online, the
/// fired instances stay pending (the deadline saturates instead of
/// wrapping to an early one); the oracle is undetermined on the same
/// trace: weakly true, strongly false at every firing position.
#[test]
fn a_deadline_past_the_last_instant_is_pending_in_both_semantics() {
    let body: Property = "!a || next_et[1, 18446744073709551615] b".parse().unwrap();
    let rows: Vec<(u64, Vec<u64>)> = vec![
        (10, vec![1, 0, 0]),
        (20, vec![1, 1, 0]),
        (30, vec![0, 1, 0]),
    ];
    check_case(&body, &rows, "saturated deadline");

    let (verdict, resolved_ok, pending) = online_verdict(&Property::always(body.clone()), &rows);
    assert_eq!((verdict, resolved_ok, pending), (Verdict::Pass, 1, 2));
    let trace = trace_of(&rows);
    for (pos, (_, values)) in rows.iter().enumerate() {
        assert!(trace.eval_weak(&body, pos).unwrap(), "weak at {pos}");
        assert_eq!(
            trace.eval(&body, pos).unwrap(),
            values[0] == 0,
            "strong at {pos}"
        );
    }
}

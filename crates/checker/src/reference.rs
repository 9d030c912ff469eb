//! The retained pointer-tree monitor: the pre-arena `Rc<Mx>` progression
//! core, compiled only into this crate's tests as the differential oracle
//! for [`PropertyChecker`](crate::PropertyChecker).
//!
//! [`ReferenceChecker`] mirrors the arena checker exactly — same
//! activation policy, instance pool, evaluation table and report
//! bookkeeping — but every residual is a freshly allocated
//! reference-counted tree, nothing is interned or memoized, and literal
//! evaluation goes through `&dyn Fn` as the old hot path did. The two
//! implementations must produce identical verdicts, failure times and
//! [`PropertyReport`]s (modulo the arena-only fields, which stay zero
//! here, and rendered residual strings, which stay empty); see the
//! `differential` test module.

use std::collections::BTreeMap;
use std::rc::Rc;

use desim::{SignalId, Simulation};
use psl::nnf::to_nnf;
use psl::{ClockEdge, ClockedProperty, EvalContext, Property};

use crate::compile::{resolve, CompileError};
use crate::monitor::Lit;
use crate::report::{FailReason, Failure, PropertyReport};

/// Shared monitor-formula node.
type M = Rc<Mx>;

/// Monitor formulas as heap trees (the pre-arena representation).
#[derive(Debug, PartialEq)]
enum Mx {
    True,
    False,
    Lit(Lit),
    And(M, M),
    Or(M, M),
    NextN(u32, M),
    NextEt { eps_ns: u64, inner: M },
    At { deadline_ns: u64, inner: M },
    Until(M, M),
    Release(M, M),
    Always(M),
    Eventually(M),
}

thread_local! {
    static M_TRUE: M = Rc::new(Mx::True);
    static M_FALSE: M = Rc::new(Mx::False);
}

fn m_true() -> M {
    M_TRUE.with(Rc::clone)
}

fn m_false() -> M {
    M_FALSE.with(Rc::clone)
}

fn m_bool(b: bool) -> M {
    if b {
        m_true()
    } else {
        m_false()
    }
}

/// `a && b` with constant absorption.
fn m_and(a: M, b: M) -> M {
    match (&*a, &*b) {
        (Mx::False, _) | (_, Mx::False) => m_false(),
        (Mx::True, _) => b,
        (_, Mx::True) => a,
        _ => Rc::new(Mx::And(a, b)),
    }
}

/// `a || b` with constant absorption.
fn m_or(a: M, b: M) -> M {
    match (&*a, &*b) {
        (Mx::True, _) | (_, Mx::True) => m_true(),
        (Mx::False, _) => b,
        (_, Mx::False) => a,
        _ => Rc::new(Mx::Or(a, b)),
    }
}

/// Tree progression: allocates the rewritten residual afresh at every
/// step, with dynamically dispatched literal reads — the cost model the
/// arena replaces.
fn progress(m: &M, read: &dyn Fn(SignalId) -> u64, now: u64) -> M {
    match &**m {
        Mx::True | Mx::False => Rc::clone(m),
        Mx::Lit(lit) => m_bool(lit.eval(read)),
        Mx::And(a, b) => {
            let pa = progress(a, read, now);
            if matches!(*pa, Mx::False) {
                return m_false();
            }
            m_and(pa, progress(b, read, now))
        }
        Mx::Or(a, b) => {
            let pa = progress(a, read, now);
            if matches!(*pa, Mx::True) {
                return m_true();
            }
            m_or(pa, progress(b, read, now))
        }
        Mx::NextN(1, inner) => Rc::clone(inner),
        Mx::NextN(n, inner) => Rc::new(Mx::NextN(n - 1, Rc::clone(inner))),
        Mx::NextEt { eps_ns, inner } => Rc::new(Mx::At {
            deadline_ns: now.saturating_add(*eps_ns),
            inner: Rc::clone(inner),
        }),
        Mx::At { deadline_ns, inner } => {
            if now < *deadline_ns {
                Rc::clone(m)
            } else if now == *deadline_ns {
                progress(inner, read, now)
            } else {
                m_false()
            }
        }
        Mx::Until(a, b) => {
            let pb = progress(b, read, now);
            if matches!(*pb, Mx::True) {
                return m_true();
            }
            let pa = progress(a, read, now);
            m_or(pb, m_and(pa, Rc::clone(m)))
        }
        Mx::Release(a, b) => {
            let pb = progress(b, read, now);
            if matches!(*pb, Mx::False) {
                return m_false();
            }
            let pa = progress(a, read, now);
            m_and(pb, m_or(pa, Rc::clone(m)))
        }
        Mx::Always(a) => m_and(progress(a, read, now), Rc::clone(m)),
        Mx::Eventually(a) => m_or(progress(a, read, now), Rc::clone(m)),
    }
}

fn earliest_deadline(m: &M) -> Option<u64> {
    match &**m {
        Mx::At { deadline_ns, .. } => Some(*deadline_ns),
        Mx::And(a, b) | Mx::Or(a, b) => {
            let (ea, eb) = (earliest_deadline(a)?, earliest_deadline(b)?);
            Some(ea.min(eb))
        }
        _ => None,
    }
}

fn finish_eval(m: &M, end: u64) -> Option<bool> {
    match &**m {
        Mx::True => Some(true),
        Mx::False => Some(false),
        Mx::At { deadline_ns, .. } if *deadline_ns <= end => Some(false),
        Mx::And(a, b) => match (finish_eval(a, end), finish_eval(b, end)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Mx::Or(a, b) => match (finish_eval(a, end), finish_eval(b, end)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        _ => None,
    }
}

fn earliest_missed(m: &M, end: u64) -> Option<u64> {
    let mut earliest: Option<u64> = None;
    fn walk(m: &M, end: u64, earliest: &mut Option<u64>) {
        match &**m {
            Mx::At { deadline_ns, .. } if *deadline_ns <= end => {
                *earliest = Some(earliest.map_or(*deadline_ns, |e| e.min(*deadline_ns)));
            }
            Mx::And(a, b) | Mx::Or(a, b) => {
                walk(a, end, earliest);
                walk(b, end, earliest);
            }
            _ => {}
        }
    }
    walk(m, end, &mut earliest);
    earliest
}

#[derive(Debug)]
struct Instance {
    residual: M,
    fire_ns: u64,
}

/// The pre-arena property checker, preserved as an executable oracle.
#[derive(Debug)]
pub struct ReferenceChecker {
    body: M,
    repeating: bool,
    guard: Option<M>,
    fired_once: bool,
    pool: Vec<Option<Instance>>,
    free: Vec<usize>,
    table: BTreeMap<u64, Vec<usize>>,
    every: Vec<usize>,
    report: PropertyReport,
}

impl ReferenceChecker {
    /// Number of currently live instances.
    #[must_use]
    pub fn live_instances(&self) -> usize {
        self.pool.len() - self.free.len()
    }

    /// Processes one evaluation event at `now` nanoseconds, with the same
    /// phase order as the arena checker.
    pub fn on_event(&mut self, read: &dyn Fn(SignalId) -> u64, now: u64) {
        if let Some(guard) = &self.guard {
            let g = progress(guard, read, now);
            if !matches!(*g, Mx::True) {
                return;
            }
        }

        let every = std::mem::take(&mut self.every);

        while let Some((&deadline, _)) = self.table.first_key_value() {
            if deadline > now {
                break;
            }
            let slots = self.table.remove(&deadline).expect("key just observed");
            let missed = (deadline < now).then_some(deadline);
            for slot in slots {
                self.step(slot, read, now, missed);
            }
        }

        for slot in every {
            self.step(slot, read, now, None);
        }

        if self.repeating || !self.fired_once {
            self.fired_once = true;
            self.report.activations += 1;
            let residual = progress(&self.body, read, now);
            self.report.evaluations += 1;
            match &*residual {
                Mx::True => self.report.vacuous += 1,
                Mx::False => self.report.record_failure(Failure {
                    fire_ns: now,
                    fail_ns: now,
                    reason: FailReason::Violated,
                    residual: String::new(),
                }),
                _ => {
                    let slot = self.alloc(Instance {
                        residual: Rc::clone(&residual),
                        fire_ns: now,
                    });
                    self.register(slot, &residual);
                }
            }
        }
    }

    /// Finalizes at simulation end `end_ns` (see
    /// [`PropertyChecker::finish`](crate::PropertyChecker::finish)).
    pub fn finish(&mut self, end_ns: u64) {
        let table = std::mem::take(&mut self.table);
        let every = std::mem::take(&mut self.every);
        for slot in table.into_values().flatten().chain(every) {
            let instance = self.pool[slot].as_ref().expect("live slot");
            let fire_ns = instance.fire_ns;
            let residual = Rc::clone(&instance.residual);
            match finish_eval(&residual, end_ns) {
                Some(false) => {
                    let reason = match earliest_missed(&residual, end_ns) {
                        Some(deadline_ns) => FailReason::MissedDeadline { deadline_ns },
                        None => FailReason::Violated,
                    };
                    self.fail(slot, end_ns, reason);
                }
                Some(true) => {
                    self.report.completions += 1;
                    self.report.record_completion_latency(end_ns - fire_ns);
                    self.release(slot);
                }
                None => {
                    self.report.pending += 1;
                    self.release(slot);
                }
            }
        }
    }

    /// A snapshot of the accumulated results. The arena-only fields
    /// (`arena_nodes`, `memo_hits`, `memo_misses`) stay zero.
    #[must_use]
    pub fn report(&self) -> PropertyReport {
        let mut r = self.report.clone();
        r.max_live_instances = r.max_live_instances.max(self.live_instances());
        r
    }

    fn step(&mut self, slot: usize, read: &dyn Fn(SignalId) -> u64, now: u64, missed: Option<u64>) {
        let instance = self.pool[slot].as_mut().expect("live slot");
        let fire_ns = instance.fire_ns;
        let residual = progress(&instance.residual, read, now);
        self.report.evaluations += 1;
        match &*residual {
            Mx::True => {
                self.report.completions += 1;
                self.report.record_completion_latency(now - fire_ns);
                self.release(slot);
            }
            Mx::False => {
                let reason = match missed {
                    Some(deadline_ns) => FailReason::MissedDeadline { deadline_ns },
                    None => FailReason::Violated,
                };
                self.fail(slot, now, reason);
            }
            _ => {
                instance.residual = Rc::clone(&residual);
                self.register(slot, &residual);
            }
        }
    }

    fn register(&mut self, slot: usize, residual: &M) {
        match earliest_deadline(residual) {
            Some(deadline) => self.table.entry(deadline).or_default().push(slot),
            None => self.every.push(slot),
        }
    }

    fn alloc(&mut self, instance: Instance) -> usize {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.pool[slot] = Some(instance);
                slot
            }
            None => {
                self.pool.push(Some(instance));
                self.pool.len() - 1
            }
        };
        self.report.max_live_instances = self.report.max_live_instances.max(self.live_instances());
        slot
    }

    fn release(&mut self, slot: usize) {
        self.pool[slot] = None;
        self.free.push(slot);
    }

    fn fail(&mut self, slot: usize, now: u64, reason: FailReason) {
        let fire_ns = self.pool[slot].as_ref().expect("live slot").fire_ns;
        self.report.record_failure(Failure {
            fire_ns,
            fail_ns: now,
            reason,
            residual: String::new(),
        });
        self.release(slot);
    }
}

/// Synthesizes a [`ReferenceChecker`] with the same pipeline as
/// [`compile`](crate::compile): NNF, repeating-activation unwrap, signal
/// resolution — only the target representation differs.
///
/// # Errors
///
/// Returns [`CompileError::MissingSignal`] if a referenced signal does not
/// exist in `sim`.
pub fn compile_reference(
    name: &str,
    property: &ClockedProperty,
    sim: &Simulation,
) -> Result<(ReferenceChecker, Option<ClockEdge>), CompileError> {
    let nnf = to_nnf(&property.property);
    let (body, repeating) = match nnf {
        Property::Always(inner) => (*inner, true),
        other => (other, false),
    };
    let body = translate(&body, sim)?;
    let (guard, edge) = match &property.context {
        EvalContext::Clock { edge, guard } => (guard.as_deref(), Some(*edge)),
        EvalContext::Transaction { guard } => (guard.as_deref(), None),
    };
    let guard = match guard {
        Some(g) => Some(translate(&to_nnf(g), sim)?),
        None => None,
    };
    Ok((
        ReferenceChecker {
            report: PropertyReport::new(name.to_owned()),
            body,
            repeating,
            guard,
            fired_once: false,
            pool: Vec::new(),
            free: Vec::new(),
            table: BTreeMap::new(),
            every: Vec::new(),
        },
        edge,
    ))
}

fn translate(p: &Property, sim: &Simulation) -> Result<M, CompileError> {
    Ok(match p {
        Property::Const(true) => Rc::new(Mx::True),
        Property::Const(false) => Rc::new(Mx::False),
        Property::Atom(a) => Rc::new(Mx::Lit(resolve(a, false, sim)?)),
        Property::Not(inner) => match &**inner {
            Property::Atom(a) => Rc::new(Mx::Lit(resolve(a, true, sim)?)),
            _ => return Err(CompileError::UnsupportedNegation),
        },
        Property::And(a, b) => Rc::new(Mx::And(translate(a, sim)?, translate(b, sim)?)),
        Property::Or(a, b) => Rc::new(Mx::Or(translate(a, sim)?, translate(b, sim)?)),
        Property::Implies(..) => unreachable!("implication is eliminated by NNF"),
        Property::Next { n, inner } => Rc::new(Mx::NextN(*n, translate(inner, sim)?)),
        Property::NextEt { eps_ns, inner, .. } => Rc::new(Mx::NextEt {
            eps_ns: *eps_ns,
            inner: translate(inner, sim)?,
        }),
        Property::Until(a, b) => Rc::new(Mx::Until(translate(a, sim)?, translate(b, sim)?)),
        Property::Release(a, b) => Rc::new(Mx::Release(translate(a, sim)?, translate(b, sim)?)),
        Property::Always(inner) => Rc::new(Mx::Always(translate(inner, sim)?)),
        Property::Eventually(inner) => Rc::new(Mx::Eventually(translate(inner, sim)?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_q3_matches_known_wrapper_behaviour() {
        let mut sim = Simulation::new();
        let ds = sim.add_signal("ds", 0);
        let rdy = sim.add_signal("rdy", 0);
        let q3: ClockedProperty = "always (!ds || next_et[1, 170] rdy) @T_b".parse().unwrap();
        let (mut c, edge) = compile_reference("q3", &q3, &sim).unwrap();
        assert_eq!(edge, None);
        let fire = move |s: SignalId| u64::from(s == ds);
        let ready = move |s: SignalId| u64::from(s == rdy);
        c.on_event(&fire, 10);
        c.on_event(&ready, 350); // past the 180ns deadline
        let r = c.report();
        assert_eq!(r.failure_count, 1);
        assert_eq!(
            r.failures[0].reason,
            FailReason::MissedDeadline { deadline_ns: 180 }
        );
        assert_eq!(r.failures[0].fire_ns, 10);
        assert_eq!(r.failures[0].fail_ns, 350);
        assert_eq!(r.arena_nodes, 0, "reference leaves arena fields zero");
    }
}

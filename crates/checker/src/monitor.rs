//! The monitor core: compiled formulas, progression, instance pool and
//! evaluation table.
//!
//! A compiled property is evaluated per *instance*. Each instance holds a
//! residual obligation — a [`NodeId`] into the property's hash-consed
//! [`FormulaArena`]; every evaluation event progresses the residual into
//! the obligation that must hold from the next event on. Residuals that
//! reduce to `true` complete, `false` fail.
//!
//! Because residuals are interned, instances that reached the same
//! obligation hold the *same id*, and the arena's per-event progression
//! memo rewrites each distinct residual once per event no matter how many
//! instances share it (see the [`arena`](crate::arena) module docs).
//!
//! Instances whose residual consists solely of absolute-deadline
//! obligations (`At` nodes, produced by `next_ε^τ`) are parked in an
//! **evaluation table** keyed by deadline and are only touched when an
//! event reaches (or overshoots) a deadline — the paper's wrapper
//! optimization (Section IV, point 2). All other residuals must observe
//! every event.
//!
//! The table is a flat deadline-sorted queue of `(deadline, slot)` pairs:
//! ascending deadline, first-in first-out within one deadline. Deadlines
//! are `now + ε` at registration, so inserts land at or near the back and
//! the due prefix drains from the front. Together with the double-buffered
//! every-event list and the arena's compaction, the per-event path
//! allocates nothing in steady state.

use std::collections::VecDeque;
use std::sync::Arc;

use abv_obs::{trace, TraceEvent, Tracer, ARENA_COUNTER_TRACK};
use desim::SignalId;
use psl::CmpOp;

use crate::arena::{FormulaArena, NodeId};
use crate::report::{FailReason, Failure, PropertyReport};

/// Signal-value access during monitor evaluation.
///
/// The blanket impl makes any `Fn(SignalId) -> u64` closure a
/// [`SignalRead`], so hosts keep passing plain closures — but the whole
/// progression path is generic over the reader, so per-literal evaluation
/// is statically dispatched instead of going through `&dyn Fn`.
pub trait SignalRead {
    /// The current value of `sig`.
    fn value(&self, sig: SignalId) -> u64;
}

impl<F: Fn(SignalId) -> u64 + ?Sized> SignalRead for F {
    #[inline]
    fn value(&self, sig: SignalId) -> u64 {
        self(sig)
    }
}

/// A resolved literal: a signal test, possibly negated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Lit {
    pub sig: SignalId,
    pub name: Arc<str>,
    pub test: LitTest,
    pub negated: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LitTest {
    /// Boolean signal: true iff non-zero.
    Bool,
    /// Comparison against a constant.
    Cmp(CmpOp, u64),
}

impl Lit {
    #[inline]
    pub(crate) fn eval<R: SignalRead + ?Sized>(&self, read: &R) -> bool {
        let raw = read.value(self.sig);
        let v = match self.test {
            LitTest::Bool => raw != 0,
            LitTest::Cmp(op, rhs) => op.apply(raw, rhs),
        };
        v != self.negated
    }
}

/// When an instance's residual next needs to observe an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakePlan {
    /// The residual must be progressed at every evaluation event.
    EveryEvent,
    /// The residual consists solely of anchored deadlines; the earliest is
    /// at this absolute time (nanoseconds).
    AtTime(u64),
}

/// Computes the wake plan of a (non-constant) residual.
pub(crate) fn wake_plan(arena: &FormulaArena, id: NodeId) -> WakePlan {
    match arena.earliest_deadline(id) {
        Some(d) => WakePlan::AtTime(d),
        None => WakePlan::EveryEvent,
    }
}

/// One running verification session of a property.
#[derive(Debug)]
struct Instance {
    residual: NodeId,
    fire_ns: u64,
}

/// A synthesized checker for one property: monitor body, activation
/// policy, guard, instance pool and evaluation table, plus the property's
/// own formula arena holding every formula the monitor can reach.
///
/// Built by [`compile`](crate::compile); driven by the host component
/// that [`Checker::attach`](crate::Checker::attach) installs, which calls
/// [`on_event`](PropertyChecker::on_event) at each evaluation point.
#[derive(Debug)]
pub struct PropertyChecker {
    arena: FormulaArena,
    body: NodeId,
    /// The boolean first disjunct `b` of a body `b || t` — the negated
    /// antecedent of an implication — which settles most activations as
    /// vacuous (see [`FormulaArena::progresses_to_true`]).
    vacuity: Option<NodeId>,
    /// True for `always φ`: a new instance activates at every evaluation
    /// point (Section IV, point 4). False: a single activation at the first
    /// evaluation point.
    repeating: bool,
    guard: Option<NodeId>,
    fired_once: bool,
    pool: Vec<Option<Instance>>,
    free: Vec<usize>,
    /// The evaluation table: `(deadline, slot)` sorted by deadline, FIFO
    /// within a deadline.
    table: VecDeque<(u64, usize)>,
    every: Vec<usize>,
    /// The other half of the double-buffered `every` list: holds the
    /// snapshot being progressed while `every` collects re-registrations.
    every_snapshot: Vec<usize>,
    use_table: bool,
    completion_bound_ns: Option<u64>,
    report: PropertyReport,
    /// Base trace-track id: property-level events land here, instance
    /// `slot` events on `trace_tid + 1 + slot`. Assigned at install time
    /// from the host's component id so tracks are stable per build order.
    trace_tid: u64,
}

impl PropertyChecker {
    pub(crate) fn new(
        name: &str,
        arena: FormulaArena,
        body: NodeId,
        repeating: bool,
        guard: Option<NodeId>,
    ) -> PropertyChecker {
        PropertyChecker {
            report: PropertyReport::new(name.to_owned()),
            vacuity: arena.boolean_first_disjunct(body),
            arena,
            body,
            repeating,
            guard,
            fired_once: false,
            pool: Vec::new(),
            free: Vec::new(),
            table: VecDeque::new(),
            every: Vec::new(),
            every_snapshot: Vec::new(),
            use_table: true,
            completion_bound_ns: None,
            trace_tid: 0,
        }
    }

    /// Sets the base trace-track id (see the `trace_tid` field).
    pub(crate) fn set_trace_tid(&mut self, tid: u64) {
        self.trace_tid = tid;
    }

    /// The trace track of property-level events (vacuous/immediate-fail
    /// instants); instance `slot` lives on `trace_tid() + 1 + slot`.
    #[must_use]
    pub fn trace_tid(&self) -> u64 {
        self.trace_tid
    }

    fn instance_tid(&self, slot: usize) -> u64 {
        self.trace_tid + 1 + slot as u64
    }

    /// Records the property's completion bound (`t_end - t_fire`), when it
    /// is statically bounded. Set by checker synthesis.
    pub(crate) fn set_completion_bound_ns(&mut self, bound: Option<u64>) {
        self.completion_bound_ns = bound;
    }

    /// The paper's static size bound for the checker-instance array
    /// (Section IV, point 1): the maximum number of instants where
    /// transactions can occur within `(t_fire, t_end]`, assuming instants
    /// are aligned to `clock_period_ns` — e.g. 17 for `q3` with a 10 ns
    /// reference clock. `None` when the property is unbounded (`until`,
    /// `release`, un-timed `next`), and for a zero `clock_period_ns`, which
    /// aligns no instants.
    ///
    /// The live implementation grows its pool dynamically;
    /// [`PropertyReport::max_live_instances`] can be compared against this
    /// bound (see the Fig. 5 tests).
    #[must_use]
    pub fn lifetime_bound(&self, clock_period_ns: u64) -> Option<usize> {
        self.completion_bound_ns
            .and_then(|b| b.checked_div(clock_period_ns))
            .map(|n| n as usize)
    }

    /// Disables the evaluation-table optimization: every instance is
    /// progressed at every evaluation event, even when its residual only
    /// waits for an absolute deadline. Semantics are unchanged (anchored
    /// obligations ignore pre-deadline events); only the amount of work
    /// differs. Used by the ablation benchmarks.
    pub fn disable_evaluation_table(&mut self) {
        self.use_table = false;
    }

    /// The property's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.report.name
    }

    /// Number of currently live instances.
    #[must_use]
    pub fn live_instances(&self) -> usize {
        self.pool.len() - self.free.len()
    }

    /// Processes one evaluation event at `now` nanoseconds.
    ///
    /// Performs, in order: guard filtering, failure of instances whose
    /// deadline passed, progression of due and every-event instances, and
    /// activation of a new instance.
    pub fn on_event<R: SignalRead + ?Sized>(&mut self, read: &R, now: u64) {
        self.on_event_traced(read, now, &Tracer::disabled());
    }

    /// [`on_event`](PropertyChecker::on_event) with trace emission: the
    /// wrapper's lifecycle becomes spans and instants on this property's
    /// tracks — a `B…E` span per checker instance from activation to
    /// resolution, `obligation` instants when an instance parks in the
    /// evaluation table, `eval` instants per progression, and a
    /// `pass`/`fail`/`timeout-fail` instant at resolution — plus one
    /// arena-counter sample per processed event (arena size, memo
    /// hits/misses).
    pub fn on_event_traced<R: SignalRead + ?Sized>(&mut self, read: &R, now: u64, tracer: &Tracer) {
        // Between events nothing is memoized, so this is where the arena
        // may drop the anchored obligations no live instance holds any more.
        if self.arena.wants_compaction() {
            self.compact_arena();
        }
        // One memo epoch per evaluation event: within it, progression is a
        // pure function of the residual id.
        self.arena.begin_event();

        // Events not matching the context guard are invisible to this
        // property (Def. III.2).
        if let Some(guard) = self.guard {
            if self.arena.progress(guard, read, now) != NodeId::TRUE {
                return;
            }
        }

        // A quiet event — no every-event instance and nothing due in the
        // table — has no live instance to progress.
        let due = self
            .table
            .front()
            .is_some_and(|&(deadline, _)| deadline <= now);
        if due || !self.every.is_empty() {
            self.progress_live(read, now, tracer);
        }

        // 4. Activation of a new verification session.
        if self.repeating || !self.fired_once {
            self.fired_once = true;
            self.report.activations += 1;
            let vacuous = self
                .vacuity
                .is_some_and(|first| self.arena.progresses_to_true(self.body, first, read));
            let residual = if vacuous {
                NodeId::TRUE
            } else {
                self.arena.progress(self.body, read, now)
            };
            self.report.evaluations += 1;
            match residual {
                NodeId::TRUE => {
                    self.report.vacuous += 1;
                    trace!(
                        tracer,
                        TraceEvent::instant("vacuous", 0, self.trace_tid, now)
                    );
                }
                NodeId::FALSE => {
                    let residual = if self.report.wants_failure_detail() {
                        self.arena.display(self.body).to_string()
                    } else {
                        String::new()
                    };
                    self.report.record_failure(Failure {
                        fire_ns: now,
                        fail_ns: now,
                        reason: FailReason::Violated,
                        residual,
                    });
                    trace!(
                        tracer,
                        TraceEvent::instant("fail", 0, self.trace_tid, now)
                            .with_arg("reason", "violated")
                            .with_arg("fire_ns", now)
                    );
                }
                _ => {
                    let (slot, reused) = self.alloc(
                        Instance {
                            residual,
                            fire_ns: now,
                        },
                        tracer,
                    );
                    trace!(
                        tracer,
                        TraceEvent::span_begin(
                            self.report.name.clone(),
                            0,
                            self.instance_tid(slot),
                            now
                        )
                        .with_arg("slot", slot as u64)
                        .with_arg("reused", u64::from(reused))
                    );
                    self.register(slot, residual, now, tracer);
                }
            }
        }

        trace!(tracer, {
            let stats = self.arena.stats();
            TraceEvent::counter(ARENA_COUNTER_TRACK, 0, self.trace_tid, now)
                .with_arg("nodes", stats.nodes as u64)
                .with_arg("memo_hits", stats.hits)
                .with_arg("memo_misses", stats.misses)
        });
    }

    /// Steps 1–3 of [`on_event_traced`](PropertyChecker::on_event_traced):
    /// progresses every live instance the event at `now` concerns.
    fn progress_live<R: SignalRead + ?Sized>(&mut self, read: &R, now: u64, tracer: &Tracer) {
        // Snapshot the every-event list first: an instance progressed from
        // the table below may re-register into it, and no instance may be
        // progressed twice within one event. The two buffers swap roles,
        // so neither is reallocated.
        let mut every = std::mem::take(&mut self.every_snapshot);
        std::mem::swap(&mut self.every, &mut every);

        // 1+2. Instances whose earliest expected evaluation time is due or
        //    overdue are progressed at this event. An overdue `At`
        //    obligation resolves to false inside the progression, so a
        //    residual that only waited for the missed instant fails
        //    (Section IV, point 2), while a disjunction with a later
        //    obligation survives and is re-registered (at or after `now`,
        //    behind the entries already queued for that deadline).
        while let Some(&(deadline, slot)) = self.table.front() {
            if deadline > now {
                break;
            }
            self.table.pop_front();
            let missed = (deadline < now).then_some(deadline);
            self.step(slot, read, now, missed, tracer);
        }

        // 3. Instances that observe every event.
        for &slot in &every {
            self.step(slot, read, now, None, tracer);
        }
        every.clear();
        self.every_snapshot = every;
    }

    /// Finalizes at simulation end `end_ns`: anchored obligations whose
    /// deadline lies at or before the end never saw an event (otherwise the
    /// instance would have been progressed there) and resolve to false;
    /// instances whose residual thereby becomes false are failures, ones
    /// that become true complete, and everything still undetermined is
    /// counted as pending.
    pub fn finish(&mut self, end_ns: u64) {
        self.finish_traced(end_ns, &Tracer::disabled());
    }

    /// [`finish`](PropertyChecker::finish) with trace emission: every
    /// still-open instance span is closed at `end_ns` with a
    /// `pass`/`fail`/`timeout-fail`/`pending` instant.
    pub fn finish_traced(&mut self, end_ns: u64, tracer: &Tracer) {
        let table = std::mem::take(&mut self.table);
        let every = std::mem::take(&mut self.every);
        for slot in table.into_iter().map(|(_, slot)| slot).chain(every) {
            let instance = self.pool[slot].as_ref().expect("live slot");
            let fire_ns = instance.fire_ns;
            let residual = instance.residual;
            let tid = self.instance_tid(slot);
            match self.arena.finish_eval(residual, end_ns) {
                Some(false) => {
                    let reason = match self.arena.earliest_missed(residual, end_ns) {
                        Some(deadline_ns) => FailReason::MissedDeadline { deadline_ns },
                        None => FailReason::Violated,
                    };
                    let rendered = if self.report.wants_failure_detail() {
                        self.arena.display(residual).to_string()
                    } else {
                        String::new()
                    };
                    self.fail(slot, end_ns, reason, rendered, tracer);
                }
                Some(true) => {
                    self.report.completions += 1;
                    self.report.record_completion_latency(end_ns - fire_ns);
                    trace!(tracer, TraceEvent::instant("pass", 0, tid, end_ns));
                    trace!(tracer, TraceEvent::span_end(0, tid, end_ns));
                    self.release(slot);
                }
                None => {
                    self.report.pending += 1;
                    trace!(tracer, TraceEvent::instant("pending", 0, tid, end_ns));
                    trace!(tracer, TraceEvent::span_end(0, tid, end_ns));
                    self.release(slot);
                }
            }
        }
    }

    /// A snapshot of the accumulated results, including the arena's size
    /// and progression-memo counters.
    #[must_use]
    pub fn report(&self) -> PropertyReport {
        let mut r = self.report.clone();
        r.max_live_instances = r.max_live_instances.max(self.live_instances());
        let stats = self.arena.stats();
        r.arena_nodes = stats.nodes;
        r.memo_hits = stats.hits;
        r.memo_misses = stats.misses;
        r
    }

    fn step<R: SignalRead + ?Sized>(
        &mut self,
        slot: usize,
        read: &R,
        now: u64,
        missed: Option<u64>,
        tracer: &Tracer,
    ) {
        let tid = self.instance_tid(slot);
        let (prev, fire_ns) = {
            let instance = self.pool[slot].as_ref().expect("live slot");
            (instance.residual, instance.fire_ns)
        };
        let residual = self.arena.progress(prev, read, now);
        self.report.evaluations += 1;
        trace!(tracer, TraceEvent::instant("eval", 0, tid, now));
        match residual {
            NodeId::TRUE => {
                self.report.completions += 1;
                self.report.record_completion_latency(now - fire_ns);
                trace!(tracer, TraceEvent::instant("pass", 0, tid, now));
                trace!(tracer, TraceEvent::span_end(0, tid, now));
                self.release(slot);
            }
            NodeId::FALSE => {
                let reason = match missed {
                    Some(deadline_ns) => FailReason::MissedDeadline { deadline_ns },
                    None => FailReason::Violated,
                };
                // Render the obligation that failed, not its `false` result.
                let rendered = if self.report.wants_failure_detail() {
                    self.arena.display(prev).to_string()
                } else {
                    String::new()
                };
                self.fail(slot, now, reason, rendered, tracer);
            }
            _ => {
                self.pool[slot].as_mut().expect("live slot").residual = residual;
                self.register(slot, residual, now, tracer);
            }
        }
    }

    fn register(&mut self, slot: usize, residual: NodeId, now: u64, tracer: &Tracer) {
        match wake_plan(&self.arena, residual) {
            WakePlan::AtTime(deadline) if self.use_table => {
                trace!(
                    tracer,
                    TraceEvent::instant("obligation", 0, self.instance_tid(slot), now)
                        .with_arg("deadline_ns", deadline)
                );
                // Behind every entry with an equal deadline (FIFO). The
                // common case appends: deadlines are `now + ε`.
                let at = self.table.partition_point(|&(d, _)| d <= deadline);
                self.table.insert(at, (deadline, slot));
            }
            _ => self.every.push(slot),
        }
    }

    /// Compacts the arena, keeping what the monitor can still reach: the
    /// body, the guard and every live instance's residual.
    fn compact_arena(&mut self) {
        let residuals = self.pool.iter().flatten().map(|i| i.residual);
        let roots = [self.body].into_iter().chain(self.guard).chain(residuals);
        self.arena.compact(roots);
        self.body = self.arena.relocated(self.body);
        self.vacuity = self.vacuity.map(|b| self.arena.relocated(b));
        self.guard = self.guard.map(|g| self.arena.relocated(g));
        for instance in self.pool.iter_mut().flatten() {
            instance.residual = self.arena.relocated(instance.residual);
        }
    }

    fn alloc(&mut self, instance: Instance, tracer: &Tracer) -> (usize, bool) {
        let (slot, reused) = match self.free.pop() {
            Some(slot) => {
                self.pool[slot] = Some(instance);
                (slot, true)
            }
            None => {
                self.pool.push(Some(instance));
                let slot = self.pool.len() - 1;
                // Name the new instance track the first time the pool grows
                // into it; reuses keep the label.
                trace!(
                    tracer,
                    TraceEvent::thread_name(
                        0,
                        self.instance_tid(slot),
                        format!("{}#{slot}", self.report.name)
                    )
                );
                (slot, false)
            }
        };
        self.report.max_live_instances = self.report.max_live_instances.max(self.live_instances());
        (slot, reused)
    }

    fn release(&mut self, slot: usize) {
        self.pool[slot] = None;
        self.free.push(slot);
    }

    fn fail(
        &mut self,
        slot: usize,
        now: u64,
        reason: FailReason,
        residual: String,
        tracer: &Tracer,
    ) {
        let tid = self.instance_tid(slot);
        let fire_ns = self.pool[slot].as_ref().expect("live slot").fire_ns;
        self.report.record_failure(Failure {
            fire_ns,
            fail_ns: now,
            reason,
            residual,
        });
        trace!(tracer, {
            let (label, deadline) = match reason {
                FailReason::MissedDeadline { deadline_ns } => ("timeout-fail", Some(deadline_ns)),
                FailReason::Violated => ("fail", None),
            };
            let ev = TraceEvent::instant(label, 0, tid, now).with_arg("fire_ns", fire_ns);
            match deadline {
                Some(d) => ev.with_arg("deadline_ns", d),
                None => ev,
            }
        });
        trace!(tracer, TraceEvent::span_end(0, tid, now));
        self.release(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::HashMap;

    fn mk_lit(sig: usize, name: &str, negated: bool) -> Lit {
        Lit {
            sig: test_sig(sig),
            name: name.into(),
            test: LitTest::Bool,
            negated,
        }
    }

    fn test_sig(n: usize) -> SignalId {
        // SignalId construction for tests: round-trip through a Simulation.
        thread_local! {
            static IDS: RefCell<Vec<SignalId>> = const { RefCell::new(Vec::new()) };
            static SIM: RefCell<desim::Simulation> = RefCell::new(desim::Simulation::new());
        }
        IDS.with(|ids| {
            let mut ids = ids.borrow_mut();
            while ids.len() <= n {
                let next = ids.len();
                let id = SIM.with(|sim| sim.borrow_mut().add_signal(&format!("s{next}"), 0));
                ids.push(id);
            }
            ids[n]
        })
    }

    fn env(pairs: &[(usize, u64)]) -> impl Fn(SignalId) -> u64 + '_ {
        let map: HashMap<SignalId, u64> = pairs.iter().map(|&(s, v)| (test_sig(s), v)).collect();
        move |s| map.get(&s).copied().unwrap_or(0)
    }

    #[test]
    fn wake_plan_classifies() {
        let mut arena = FormulaArena::new();
        let a = arena.lit(mk_lit(0, "a", false));
        let b = arena.lit(mk_lit(1, "b", false));
        let at = arena.at(170, a);
        assert_eq!(wake_plan(&arena, at), WakePlan::AtTime(170));
        let at200 = arena.at(200, a);
        let at150 = arena.at(150, b);
        let two = arena.or(at200, at150);
        assert_eq!(wake_plan(&arena, two), WakePlan::AtTime(150));
        let until = arena.until(a, b);
        assert_eq!(wake_plan(&arena, until), WakePlan::EveryEvent);
        let mixed = arena.and(at, until);
        assert_eq!(wake_plan(&arena, mixed), WakePlan::EveryEvent);
    }

    /// Paper q3-style checker at TLM granularity: `always (!ds || next_et
    /// [1,170] rdy)`.
    fn q3_checker() -> PropertyChecker {
        ds_rdy_checker(170)
    }

    /// `always (!ds || next_et[1, eps] rdy)`.
    fn ds_rdy_checker(eps: u64) -> PropertyChecker {
        let mut arena = FormulaArena::new();
        let nds = arena.lit(mk_lit(0, "ds", true));
        let rdy = arena.lit(mk_lit(1, "rdy", false));
        let et = arena.next_et(eps, rdy);
        let body = arena.or(nds, et);
        PropertyChecker::new("q3", arena, body, true, None)
    }

    #[test]
    fn q3_completes_on_timely_ready() {
        let mut c = q3_checker();
        c.on_event(&env(&[(0, 1)]), 10); // ds fires
        assert_eq!(c.live_instances(), 1);
        c.on_event(&env(&[]), 60); // unrelated transaction: ignored by table
        c.on_event(&env(&[(1, 1)]), 180); // rdy exactly at 10+170
        let r = c.report();
        assert_eq!(r.failure_count, 0);
        assert_eq!(r.completions, 1);
        // Activations at every event; the two ds=0 ones are vacuous.
        assert_eq!(r.activations, 3);
        assert_eq!(r.vacuous, 2);
        assert_eq!(c.live_instances(), 0, "completed instance reused");
    }

    #[test]
    fn q3_fails_when_deadline_missed() {
        let mut c = q3_checker();
        c.on_event(&env(&[(0, 1)]), 10);
        // Next transaction arrives past the 180ns deadline.
        c.on_event(&env(&[(1, 1)]), 350);
        let r = c.report();
        assert_eq!(r.failure_count, 1);
        assert_eq!(
            r.failures[0].reason,
            FailReason::MissedDeadline { deadline_ns: 180 }
        );
        assert_eq!(r.failures[0].fire_ns, 10);
        assert_eq!(r.failures[0].fail_ns, 350);
        assert_eq!(
            r.failures[0].residual, "at[180ns](rdy)",
            "failure carries the rendered obligation"
        );
    }

    #[test]
    fn q3_fails_on_wrong_value_at_deadline() {
        let mut c = q3_checker();
        c.on_event(&env(&[(0, 1)]), 10);
        c.on_event(&env(&[]), 180); // event at deadline but rdy low
        let r = c.report();
        assert_eq!(r.failure_count, 1);
        assert_eq!(r.failures[0].reason, FailReason::Violated);
    }

    #[test]
    fn finish_classifies_due_vs_pending() {
        let mut c = q3_checker();
        c.on_event(&env(&[(0, 1)]), 10); // deadline 180
        c.finish(100); // simulation ended before the deadline
        assert_eq!(c.report().pending, 1);
        assert_eq!(c.report().failure_count, 0);

        let mut c = q3_checker();
        c.on_event(&env(&[(0, 1)]), 10);
        c.finish(500); // deadline 180 passed without event
        assert_eq!(c.report().pending, 0);
        assert_eq!(c.report().failure_count, 1);

        // ε = u64::MAX: the deadline saturates at the last representable
        // instant instead of wrapping to an early one, so it stays pending.
        let mut c = ds_rdy_checker(u64::MAX);
        c.on_event(&env(&[(0, 1)]), 10);
        c.on_event(&env(&[(0, 1), (1, 1)]), 20);
        c.finish(30);
        assert_eq!(c.report().pending, 2);
        assert_eq!(c.report().failure_count, 0);
    }

    /// `always ((!a || next_et[ea] x) && (!b || next_et[eb] y))`: two
    /// triggers with their own deadline offsets, so instances fired at
    /// different times can share a deadline.
    fn two_trigger_checker(ea: u64, eb: u64) -> PropertyChecker {
        let mut arena = FormulaArena::new();
        let na = arena.lit(mk_lit(0, "a", true));
        let nb = arena.lit(mk_lit(1, "b", true));
        let x = arena.lit(mk_lit(2, "x", false));
        let y = arena.lit(mk_lit(3, "y", false));
        let ex = arena.next_et(ea, x);
        let ey = arena.next_et(eb, y);
        let left = arena.or(na, ex);
        let right = arena.or(nb, ey);
        let body = arena.and(left, right);
        PropertyChecker::new("two", arena, body, true, None)
    }

    fn fire_times(c: &PropertyChecker) -> Vec<u64> {
        c.report().failures.iter().map(|f| f.fire_ns).collect()
    }

    #[test]
    fn evaluation_table_is_fifo_within_a_deadline() {
        let mut c = two_trigger_checker(30, 10);
        c.on_event(&env(&[(1, 1)]), 10); // slot 0 waits for y at 20
        c.on_event(&env(&[(0, 1)]), 15); // slot 1 waits for x at 45
        c.on_event(&env(&[(3, 1)]), 20); // slot 0 completes and is freed
        c.on_event(&env(&[(1, 1)]), 35); // slot 0 reused: y at 45, queued second
        assert_eq!(c.live_instances(), 2);
        c.on_event(&env(&[]), 45); // both obligations fail, in queue order
        assert_eq!(
            fire_times(&c),
            [15, 35],
            "slot 1 registered first at deadline 45"
        );
    }

    #[test]
    fn re_registration_during_a_drain_queues_behind_its_deadline() {
        // a: `next_et[10] x || next_et[30] y` once the left disjunct fails.
        let mut arena = FormulaArena::new();
        let na = arena.lit(mk_lit(0, "a", true));
        let nb = arena.lit(mk_lit(1, "b", true));
        let x = arena.lit(mk_lit(2, "x", false));
        let y = arena.lit(mk_lit(3, "y", false));
        let z = arena.lit(mk_lit(4, "z", false));
        let ex = arena.next_et(10, x);
        let ey = arena.next_et(30, y);
        let either = arena.or(ex, ey);
        let left = arena.or(na, either);
        let ez = arena.next_et(25, z);
        let right = arena.or(nb, ez);
        let body = arena.and(left, right);
        let mut c = PropertyChecker::new("drain", arena, body, true, None);

        c.on_event(&env(&[(0, 1)]), 10); // slot 0: x at 20 or y at 40
        c.on_event(&env(&[(1, 1)]), 15); // slot 1: z at 40
        c.on_event(&env(&[]), 20); // slot 0 drained, x low: re-registers at 40
        assert_eq!(c.live_instances(), 2);
        assert_eq!(c.report().failure_count, 0, "the y disjunct survives");
        c.on_event(&env(&[]), 40);
        assert_eq!(
            fire_times(&c),
            [15, 10],
            "the re-registered slot 0 queues behind slot 1"
        );
    }

    #[test]
    fn finish_walks_the_table_in_deadline_order() {
        let mut c = two_trigger_checker(50, 10);
        c.on_event(&env(&[(0, 1)]), 10); // x at 60
        c.on_event(&env(&[(1, 1)]), 20); // y at 30
        c.on_event(&env(&[(1, 1)]), 25); // y at 35
        c.finish(100);
        assert_eq!(fire_times(&c), [20, 25, 10]);
        assert!(c
            .report()
            .failures
            .iter()
            .all(|f| matches!(f.reason, FailReason::MissedDeadline { .. })));
    }

    #[test]
    fn guard_filters_events() {
        let mut arena = FormulaArena::new();
        let body = arena.lit(mk_lit(0, "ds", true));
        let guard = arena.lit(mk_lit(1, "en", false));
        let mut c = PropertyChecker::new("g", arena, body, true, Some(guard));
        c.on_event(&env(&[(0, 1)]), 10); // en low: invisible, no activation
        assert_eq!(c.report().activations, 0);
        c.on_event(&env(&[(0, 1), (1, 1)]), 20); // visible, !ds violated
        assert_eq!(c.report().activations, 1);
        assert_eq!(c.report().failure_count, 1);
    }

    #[test]
    fn non_repeating_property_fires_once() {
        // (!rdy) until ds
        let mut arena = FormulaArena::new();
        let nrdy = arena.lit(mk_lit(1, "rdy", true));
        let ds = arena.lit(mk_lit(0, "ds", false));
        let body = arena.until(nrdy, ds);
        let mut c = PropertyChecker::new("p9", arena, body, false, None);
        c.on_event(&env(&[]), 10);
        c.on_event(&env(&[]), 20);
        assert_eq!(c.report().activations, 1);
        assert_eq!(c.live_instances(), 1);
        c.on_event(&env(&[(0, 1)]), 30); // ds arrives: resolves
        assert_eq!(c.report().completions, 1);
        assert_eq!(c.live_instances(), 0);
    }

    /// Runs `events` through a checker from `build` and through a twin
    /// that always takes the general activation path (no vacuity
    /// shortcut), asserts the two reports — verdicts, activation, vacuity,
    /// evaluation and completion counts, memo hits and misses, arena size —
    /// are identical, and returns the report.
    fn assert_matches_general_path(
        build: impl Fn() -> PropertyChecker,
        events: &[(&[(usize, u64)], u64)],
    ) -> PropertyReport {
        let (mut fast, mut general) = (build(), build());
        general.vacuity = None;
        for &(values, now) in events {
            fast.on_event(&env(values), now);
            general.on_event(&env(values), now);
        }
        fast.finish(1000);
        general.finish(1000);
        assert_eq!(fast.report(), general.report());
        fast.report()
    }

    const DS_EVENTS: &[(&[(usize, u64)], u64)] = &[
        (&[], 10),
        (&[(0, 1)], 20),
        (&[], 30),
        (&[(1, 1)], 190),
        (&[(0, 1), (1, 1)], 200),
        (&[], 210),
        (&[(1, 1)], 370),
    ];

    #[test]
    fn vacuity_shortcut_settles_the_negated_antecedent() {
        assert!(q3_checker().vacuity.is_some());
        let r = assert_matches_general_path(q3_checker, DS_EVENTS);
        assert_eq!((r.activations, r.vacuous, r.completions), (7, 5, 2));
    }

    /// `always (next_et[1, 170] rdy || !ds)`: the boolean disjunct comes
    /// second, so every activation anchors the `next_et` first — a miss
    /// for the body, one for `next_et` and a fresh `at` node each.
    #[test]
    fn vacuity_shortcut_is_not_taken_for_a_boolean_second_disjunct() {
        let build = || {
            let mut arena = FormulaArena::new();
            let nds = arena.lit(mk_lit(0, "ds", true));
            let rdy = arena.lit(mk_lit(1, "rdy", false));
            let et = arena.next_et(170, rdy);
            let body = arena.or(et, nds);
            PropertyChecker::new("q3r", arena, body, true, None)
        };
        assert!(build().vacuity.is_none());
        let idle: Vec<(&[(usize, u64)], u64)> = (1..=5).map(|k| (&[][..], 10 * k)).collect();
        let r = assert_matches_general_path(build, &idle);
        assert_eq!((r.activations, r.vacuous), (5, 5));
        assert_eq!((r.memo_hits, r.memo_misses), (0, 10));
        assert_eq!(r.arena_nodes, 6 + 5, "one `at` node per activation");
    }

    #[test]
    fn guard_filtered_events_skip_the_vacuity_shortcut_too() {
        // `always (!ds || next_et[1, 170] rdy) @(T_b && en)`.
        let build = || {
            let mut arena = FormulaArena::new();
            let nds = arena.lit(mk_lit(0, "ds", true));
            let rdy = arena.lit(mk_lit(1, "rdy", false));
            let et = arena.next_et(170, rdy);
            let body = arena.or(nds, et);
            let guard = arena.lit(mk_lit(2, "en", false));
            PropertyChecker::new("g", arena, body, true, Some(guard))
        };
        let events: &[(&[(usize, u64)], u64)] = &[
            (&[], 10),               // invisible
            (&[(2, 1)], 20),         // vacuous
            (&[(0, 1)], 30),         // invisible although ds fires
            (&[(0, 1), (2, 1)], 40), // fires: rdy due at 210
            (&[(1, 1)], 210),        // invisible: the deadline passes unseen
            (&[(1, 1), (2, 1)], 220),
        ];
        let r = assert_matches_general_path(build, events);
        assert_eq!((r.activations, r.vacuous), (3, 2));
        assert_eq!(r.timeout_fails, 1);
    }

    #[test]
    fn non_repeating_property_takes_the_vacuity_shortcut_once() {
        // `!ds || next_et[1, 170] rdy`, checked at the first event only.
        let build = || {
            let mut c = q3_checker();
            c.repeating = false;
            c
        };
        let r = assert_matches_general_path(build, DS_EVENTS);
        assert_eq!((r.activations, r.vacuous, r.evaluations), (1, 1, 1));
        let mut fired = DS_EVENTS.to_vec();
        fired.remove(0);
        let r = assert_matches_general_path(build, &fired);
        assert_eq!((r.activations, r.vacuous, r.completions), (1, 0, 1));
    }

    #[test]
    fn pool_reuses_slots() {
        let mut c = q3_checker();
        for k in 0..5u64 {
            let t = 10 + 400 * k;
            c.on_event(&env(&[(0, 1)]), t);
            c.on_event(&env(&[(1, 1)]), t + 170);
        }
        let r = c.report();
        assert_eq!(r.completions, 5);
        assert_eq!(
            r.max_live_instances, 1,
            "slots are reset and reused (Section IV, point 3)"
        );
    }

    #[test]
    fn max_live_matches_paper_lifetime_bound() {
        // q3 at cycle-accurate granularity: a transaction every 10ns and a
        // firing (ds=1) at each: at most ceil(170/10) = 17 live instances
        // plus the one activated at the current event.
        let mut c = q3_checker();
        for k in 0..100u64 {
            c.on_event(&env(&[(0, 1), (1, 1)]), 10 + 10 * k);
        }
        let r = c.report();
        assert!(
            r.max_live_instances <= 18,
            "max live = {}",
            r.max_live_instances
        );
        assert!(
            r.max_live_instances >= 17,
            "max live = {}",
            r.max_live_instances
        );
    }

    #[test]
    fn report_carries_arena_stats() {
        let mut c = q3_checker();
        c.on_event(&env(&[(0, 1)]), 10);
        c.on_event(&env(&[(1, 1)]), 180);
        let r = c.report();
        assert!(r.arena_nodes >= 4, "body formulas interned: {r:?}");
        assert!(r.memo_misses > 0, "progressions computed: {r:?}");
    }

    #[test]
    fn shared_residuals_progress_once_per_event() {
        // An unbounded every-event property: all live instances of
        // `(!rdy) until ds` share the *same* residual id, so one event with
        // N live instances computes one progression and answers the other
        // N-1 from the memo.
        let mut arena = FormulaArena::new();
        let nrdy = arena.lit(mk_lit(1, "rdy", true));
        let ds = arena.lit(mk_lit(0, "ds", false));
        let body = arena.until(nrdy, ds);
        let mut c = PropertyChecker::new("u", arena, body, true, None);
        for k in 0..10u64 {
            c.on_event(&env(&[]), 10 + 10 * k);
        }
        let r = c.report();
        assert_eq!(c.live_instances(), 10);
        assert!(
            r.memo_hits >= 36,
            "9 events re-progress shared residuals from the memo: {r:?}"
        );
    }
}

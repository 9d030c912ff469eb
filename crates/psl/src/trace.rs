//! Finite-trace semantics: the reference oracle for checkers and for the
//! abstraction theorems.
//!
//! A [`Trace`] is the sequence of *evaluation instants* seen by a
//! verification environment: clock events at RTL, transaction boundaries at
//! TLM. Each [`Step`] records the simulation time (nanoseconds) and the
//! values of all observable signals at that instant.
//!
//! Semantics on finite traces follow the standard strong/weak convention
//! used by dynamic ABV:
//!
//! - `next[n] p` is **strong**: false if the trace ends before `n` more
//!   instants;
//! - `p until q` is **strong**: `q` must occur within the trace;
//! - `p release q`, `always p` are **weak**: vacuously satisfied at the end
//!   of the trace;
//! - `next_ε^τ p` (Def. III.3) is true iff some instant exists exactly
//!   `ε` nanoseconds after the current one *and* `p` holds there; if no
//!   instant is observable at that time the operator is false.

use std::collections::HashMap;
use std::fmt;

use crate::ast::{ClockedProperty, Property};
use crate::atom::{MissingSignal, SignalEnv};
use crate::context::EvalContext;

/// One evaluation instant of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Simulation time of the instant, in nanoseconds.
    pub time_ns: u64,
    values: HashMap<String, u64>,
}

impl Step {
    /// Creates a step at `time_ns` with the given signal values.
    ///
    /// ```
    /// let s = psl::Step::new(10, [("ds", 1), ("rdy", 0)]);
    /// assert_eq!(s.time_ns, 10);
    /// ```
    #[must_use]
    pub fn new<N: Into<String>>(time_ns: u64, values: impl IntoIterator<Item = (N, u64)>) -> Step {
        Step {
            time_ns,
            values: values.into_iter().map(|(n, v)| (n.into(), v)).collect(),
        }
    }

    /// Sets (or overwrites) a signal value.
    pub fn set(&mut self, name: impl Into<String>, value: u64) {
        self.values.insert(name.into(), value);
    }

    /// Signal names defined at this step.
    pub fn signal_names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }
}

impl SignalEnv for Step {
    fn signal(&self, name: &str) -> Option<u64> {
        self.values.get(name).copied()
    }
}

/// A finite sequence of evaluation instants with strictly increasing times.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    steps: Vec<Step>,
}

impl Trace {
    /// The empty trace.
    #[must_use]
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Builds a trace from steps.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::NonMonotonicTime`] if times are not strictly
    /// increasing.
    pub fn from_steps(steps: impl IntoIterator<Item = Step>) -> Result<Trace, EvalError> {
        let mut t = Trace::new();
        for s in steps {
            t.push(s)?;
        }
        Ok(t)
    }

    /// Appends a step.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::NonMonotonicTime`] if the step's time is not
    /// strictly after the last step's time.
    pub fn push(&mut self, step: Step) -> Result<(), EvalError> {
        if let Some(last) = self.steps.last() {
            if step.time_ns <= last.time_ns {
                return Err(EvalError::NonMonotonicTime {
                    last: last.time_ns,
                    next: step.time_ns,
                });
            }
        }
        self.steps.push(step);
        Ok(())
    }

    /// Number of evaluation instants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if the trace has no instants.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The steps, in order.
    #[must_use]
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Index of the instant at exactly `time_ns`, if one exists.
    #[must_use]
    pub fn position_at_time(&self, time_ns: u64) -> Option<usize> {
        self.steps
            .binary_search_by_key(&time_ns, |s| s.time_ns)
            .ok()
    }

    /// Evaluates `p` at instant `pos`.
    ///
    /// # Errors
    ///
    /// - [`EvalError::PositionOutOfRange`] if `pos >= len()`;
    /// - [`EvalError::MissingSignal`] if an atom observes an undefined
    ///   signal.
    pub fn eval(&self, p: &Property, pos: usize) -> Result<bool, EvalError> {
        if pos >= self.steps.len() {
            return Err(EvalError::PositionOutOfRange {
                pos,
                len: self.steps.len(),
            });
        }
        self.eval_inner(p, pos)
    }

    fn eval_inner(&self, p: &Property, pos: usize) -> Result<bool, EvalError> {
        debug_assert!(pos < self.steps.len());
        match p {
            Property::Const(b) => Ok(*b),
            Property::Atom(a) => Ok(a.eval(&self.steps[pos])?),
            Property::Not(inner) => Ok(!self.eval_inner(inner, pos)?),
            Property::And(a, b) => Ok(self.eval_inner(a, pos)? && self.eval_inner(b, pos)?),
            Property::Or(a, b) => Ok(self.eval_inner(a, pos)? || self.eval_inner(b, pos)?),
            Property::Implies(a, b) => Ok(!self.eval_inner(a, pos)? || self.eval_inner(b, pos)?),
            Property::Next { n, inner } => {
                let target = pos + *n as usize;
                if target < self.steps.len() {
                    self.eval_inner(inner, target)
                } else {
                    Ok(false) // strong next
                }
            }
            Property::NextEt { eps_ns, inner, .. } => {
                let deadline = self.steps[pos].time_ns.saturating_add(*eps_ns);
                match self.position_at_time(deadline) {
                    Some(target) if target > pos => self.eval_inner(inner, target),
                    // No observable event at exactly t+eps: false (Def. III.3).
                    _ => Ok(false),
                }
            }
            Property::Until(a, b) => {
                for k in pos..self.steps.len() {
                    if self.eval_inner(b, k)? {
                        return Ok(true);
                    }
                    if !self.eval_inner(a, k)? {
                        return Ok(false);
                    }
                }
                Ok(false) // strong until: b never occurred
            }
            Property::Release(a, b) => {
                for k in pos..self.steps.len() {
                    if !self.eval_inner(b, k)? {
                        return Ok(false);
                    }
                    if self.eval_inner(a, k)? {
                        return Ok(true);
                    }
                }
                Ok(true) // weak at trace end
            }
            Property::Always(inner) => {
                for k in pos..self.steps.len() {
                    if !self.eval_inner(inner, k)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Property::Eventually(inner) => {
                for k in pos..self.steps.len() {
                    if self.eval_inner(inner, k)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }

    /// Evaluates `p` at instant `pos` under the *weak view* of truncated
    /// LTL semantics: every temporal operator is weakened at the trace
    /// boundary (`next` past the end is true, `until` is satisfied when its
    /// left operand holds through the end, `eventually` is trivially
    /// satisfied on a truncated trace).
    ///
    /// The weak view is the semantics under which the paper's push-ahead
    /// distribution rules (Section III-A) are exact equivalences even on
    /// finite traces; [`eval`](Trace::eval) (the neutral view) agrees with
    /// it on any evaluation that completes before the trace ends.
    ///
    /// Negation is interpreted as plain complement, which coincides with
    /// the truncated-semantics weak view only when negations wrap boolean
    /// subformulas — the shape guaranteed by negation normal form.
    ///
    /// # Errors
    ///
    /// Same conditions as [`eval`](Trace::eval).
    pub fn eval_weak(&self, p: &Property, pos: usize) -> Result<bool, EvalError> {
        if pos >= self.steps.len() {
            return Err(EvalError::PositionOutOfRange {
                pos,
                len: self.steps.len(),
            });
        }
        self.eval_weak_inner(p, pos)
    }

    fn eval_weak_inner(&self, p: &Property, pos: usize) -> Result<bool, EvalError> {
        debug_assert!(pos < self.steps.len());
        match p {
            Property::Const(b) => Ok(*b),
            Property::Atom(a) => Ok(a.eval(&self.steps[pos])?),
            Property::Not(inner) => Ok(!self.eval_weak_inner(inner, pos)?),
            Property::And(a, b) => {
                Ok(self.eval_weak_inner(a, pos)? && self.eval_weak_inner(b, pos)?)
            }
            Property::Or(a, b) => {
                Ok(self.eval_weak_inner(a, pos)? || self.eval_weak_inner(b, pos)?)
            }
            Property::Implies(a, b) => {
                Ok(!self.eval_weak_inner(a, pos)? || self.eval_weak_inner(b, pos)?)
            }
            Property::Next { n, inner } => {
                let target = pos + *n as usize;
                if target < self.steps.len() {
                    self.eval_weak_inner(inner, target)
                } else {
                    Ok(true) // weak next
                }
            }
            Property::NextEt { eps_ns, inner, .. } => {
                let deadline = self.steps[pos].time_ns.saturating_add(*eps_ns);
                let last = self.steps.last().expect("non-empty by pos check").time_ns;
                if deadline > last {
                    return Ok(true); // truncated before the deadline
                }
                match self.position_at_time(deadline) {
                    Some(target) if target > pos => self.eval_weak_inner(inner, target),
                    _ => Ok(false),
                }
            }
            Property::Until(a, b) => {
                for k in pos..self.steps.len() {
                    if self.eval_weak_inner(b, k)? {
                        return Ok(true);
                    }
                    if !self.eval_weak_inner(a, k)? {
                        return Ok(false);
                    }
                }
                Ok(true) // weak until: lhs held through the truncation point
            }
            Property::Release(a, b) => {
                for k in pos..self.steps.len() {
                    if !self.eval_weak_inner(b, k)? {
                        return Ok(false);
                    }
                    if self.eval_weak_inner(a, k)? {
                        return Ok(true);
                    }
                }
                Ok(true)
            }
            Property::Always(inner) => {
                for k in pos..self.steps.len() {
                    if !self.eval_weak_inner(inner, k)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Property::Eventually(inner) => {
                for k in pos..self.steps.len() {
                    if self.eval_weak_inner(inner, k)? {
                        return Ok(true);
                    }
                }
                Ok(true) // weak eventually: trivially satisfied on truncation
            }
        }
    }

    /// Restricts the trace to the instants where the context guard holds.
    ///
    /// Edge selection (pos/neg/any) is the responsibility of the trace
    /// producer: an RTL environment samples at the requested clock events
    /// and produces one step per event, so only the boolean guard remains to
    /// be applied here.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::MissingSignal`] if the guard observes an
    /// undefined signal.
    pub fn filter_by_context(&self, context: &EvalContext) -> Result<Trace, EvalError> {
        let Some(guard) = context.guard() else {
            return Ok(self.clone());
        };
        let mut out = Trace::new();
        for step in &self.steps {
            let keep = eval_boolean(guard, step)?;
            if keep {
                out.steps.push(step.clone());
            }
        }
        Ok(out)
    }

    /// Evaluates a clocked property on the trace: filters by the context
    /// guard, then evaluates at the first remaining instant.
    ///
    /// An empty (post-filter) trace satisfies every property vacuously.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::MissingSignal`] if an atom or guard observes an
    /// undefined signal.
    pub fn satisfies(&self, p: &ClockedProperty) -> Result<bool, EvalError> {
        let filtered = self.filter_by_context(&p.context)?;
        if filtered.is_empty() {
            return Ok(true);
        }
        filtered.eval(&p.property, 0)
    }
}

impl FromIterator<Step> for Trace {
    /// Builds a trace from steps.
    ///
    /// # Panics
    ///
    /// Panics if step times are not strictly increasing; use
    /// [`Trace::from_steps`] for a fallible variant.
    fn from_iter<I: IntoIterator<Item = Step>>(iter: I) -> Trace {
        Trace::from_steps(iter).expect("step times must be strictly increasing")
    }
}

impl Extend<Step> for Trace {
    /// Appends steps.
    ///
    /// # Panics
    ///
    /// Panics if step times are not strictly increasing.
    fn extend<I: IntoIterator<Item = Step>>(&mut self, iter: I) {
        for s in iter {
            self.push(s)
                .expect("step times must be strictly increasing");
        }
    }
}

/// Evaluates a boolean-only property against a single signal environment.
///
/// # Errors
///
/// Returns [`EvalError::MissingSignal`] for undefined signals, or
/// [`EvalError::NotBoolean`] if the property contains temporal operators.
pub fn eval_boolean(p: &Property, env: &dyn SignalEnv) -> Result<bool, EvalError> {
    match p {
        Property::Const(b) => Ok(*b),
        Property::Atom(a) => Ok(a.eval(env)?),
        Property::Not(inner) => Ok(!eval_boolean(inner, env)?),
        Property::And(a, b) => Ok(eval_boolean(a, env)? && eval_boolean(b, env)?),
        Property::Or(a, b) => Ok(eval_boolean(a, env)? || eval_boolean(b, env)?),
        Property::Implies(a, b) => Ok(!eval_boolean(a, env)? || eval_boolean(b, env)?),
        _ => Err(EvalError::NotBoolean {
            property: p.to_string(),
        }),
    }
}

/// Errors produced by trace construction and evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A step's time was not strictly after its predecessor's.
    NonMonotonicTime {
        /// Time of the previous step.
        last: u64,
        /// Offending time.
        next: u64,
    },
    /// Evaluation was requested at an instant beyond the trace.
    PositionOutOfRange {
        /// Requested instant index.
        pos: usize,
        /// Trace length.
        len: usize,
    },
    /// An atom observed a signal not defined at the instant.
    MissingSignal(MissingSignal),
    /// A temporal property was used where a boolean expression is required.
    NotBoolean {
        /// Printed form of the offending property.
        property: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::NonMonotonicTime { last, next } => {
                write!(
                    f,
                    "step time {next}ns is not after previous step time {last}ns"
                )
            }
            EvalError::PositionOutOfRange { pos, len } => {
                write!(
                    f,
                    "evaluation position {pos} out of range for trace of length {len}"
                )
            }
            EvalError::MissingSignal(e) => write!(f, "{e}"),
            EvalError::NotBoolean { property } => {
                write!(
                    f,
                    "expected a boolean expression, found temporal property `{property}`"
                )
            }
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::MissingSignal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MissingSignal> for EvalError {
    fn from(e: MissingSignal) -> EvalError {
        EvalError::MissingSignal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clock-tick trace (10ns period) from per-signal vectors.
    fn tick_trace(signals: &[(&str, &[u64])]) -> Trace {
        let len = signals[0].1.len();
        (0..len)
            .map(|i| {
                Step::new(
                    10 + 10 * i as u64,
                    signals.iter().map(|(n, vs)| (n.to_string(), vs[i])),
                )
            })
            .collect()
    }

    fn prop(src: &str) -> Property {
        src.parse().unwrap()
    }

    #[test]
    fn atoms_and_booleans() {
        let t = tick_trace(&[("a", &[1, 0]), ("x", &[5, 7])]);
        assert!(t.eval(&prop("a"), 0).unwrap());
        assert!(!t.eval(&prop("a"), 1).unwrap());
        assert!(t.eval(&prop("x == 5"), 0).unwrap());
        assert!(t.eval(&prop("a && x == 5"), 0).unwrap());
        assert!(t.eval(&prop("!a || x == 7"), 1).unwrap());
        assert!(t.eval(&prop("a -> x == 5"), 0).unwrap());
    }

    #[test]
    fn strong_next_fails_past_trace_end() {
        let t = tick_trace(&[("a", &[1, 1])]);
        assert!(t.eval(&prop("next a"), 0).unwrap());
        assert!(!t.eval(&prop("next a"), 1).unwrap());
        assert!(!t.eval(&prop("next[2] a"), 0).unwrap());
    }

    #[test]
    fn until_is_strong() {
        let t = tick_trace(&[("a", &[1, 1, 0]), ("b", &[0, 0, 1])]);
        assert!(t.eval(&prop("a until b"), 0).unwrap());
        let t2 = tick_trace(&[("a", &[1, 1, 1]), ("b", &[0, 0, 0])]);
        assert!(!t2.eval(&prop("a until b"), 0).unwrap());
        // a fails before b occurs
        let t3 = tick_trace(&[("a", &[1, 0, 0]), ("b", &[0, 0, 1])]);
        assert!(!t3.eval(&prop("a until b"), 0).unwrap());
        // b true immediately: a irrelevant
        let t4 = tick_trace(&[("a", &[0]), ("b", &[1])]);
        assert!(t4.eval(&prop("a until b"), 0).unwrap());
    }

    #[test]
    fn release_is_weak() {
        // b holds to the end, a never: satisfied.
        let t = tick_trace(&[("a", &[0, 0, 0]), ("b", &[1, 1, 1])]);
        assert!(t.eval(&prop("a release b"), 0).unwrap());
        // a releases at step 1; b may fail later.
        let t2 = tick_trace(&[("a", &[0, 1, 0]), ("b", &[1, 1, 0])]);
        assert!(t2.eval(&prop("a release b"), 0).unwrap());
        // b fails before a releases.
        let t3 = tick_trace(&[("a", &[0, 0, 1]), ("b", &[1, 0, 1])]);
        assert!(!t3.eval(&prop("a release b"), 0).unwrap());
    }

    #[test]
    fn always_and_eventually() {
        let t = tick_trace(&[("a", &[1, 1, 1]), ("b", &[0, 0, 1])]);
        assert!(t.eval(&prop("always a"), 0).unwrap());
        assert!(!t.eval(&prop("always b"), 0).unwrap());
        assert!(t.eval(&prop("eventually b"), 0).unwrap());
        assert!(t.eval(&prop("eventually x == 1"), 0).is_err());
    }

    #[test]
    fn next_et_requires_event_at_exact_time() {
        // Instants at 10, 20, 40 ns.
        let t: Trace = [
            Step::new(10, [("a", 0u64), ("b", 1)]),
            Step::new(20, [("a", 1), ("b", 0)]),
            Step::new(40, [("a", 1), ("b", 0)]),
        ]
        .into_iter()
        .collect();
        // From pos 0 (t=10): event at 10+10=20 exists and a holds there.
        assert!(t.eval(&prop("next_et[1, 10] a"), 0).unwrap());
        // From pos 0: 10+20=30 has no event -> false even though a holds later.
        assert!(!t.eval(&prop("next_et[1, 20] a"), 0).unwrap());
        // From pos 1 (t=20): 20+20=40 exists.
        assert!(t.eval(&prop("next_et[1, 20] a"), 1).unwrap());
        // eps pointing at the current instant itself (eps=0) is not a future
        // event: false.
        assert!(!t.eval(&prop("next_et[1, 0] b"), 0).unwrap());
    }

    #[test]
    fn nested_next_et_chains_absolute_times() {
        let t: Trace = [
            Step::new(10, [("a", 0u64)]),
            Step::new(20, [("a", 0)]),
            Step::new(30, [("a", 1)]),
        ]
        .into_iter()
        .collect();
        // 10 -> (+10) 20 -> (+10) 30 where a holds.
        assert!(t.eval(&prop("next_et[1, 10] next_et[2, 10] a"), 0).unwrap());
        // 10 -> (+20) 30 -> (+10) 40: no event at 40.
        assert!(!t.eval(&prop("next_et[1, 20] next_et[2, 10] a"), 0).unwrap());
    }

    #[test]
    fn monotonic_time_enforced() {
        let mut t = Trace::new();
        t.push(Step::new(10, [("a", 1u64)])).unwrap();
        let err = t.push(Step::new(10, [("a", 1u64)])).unwrap_err();
        assert_eq!(err, EvalError::NonMonotonicTime { last: 10, next: 10 });
    }

    #[test]
    fn position_out_of_range() {
        let t = tick_trace(&[("a", &[1])]);
        assert!(matches!(
            t.eval(&prop("a"), 1),
            Err(EvalError::PositionOutOfRange { pos: 1, len: 1 })
        ));
    }

    #[test]
    fn context_guard_filters_instants() {
        let t = tick_trace(&[("a", &[1, 0, 1, 0]), ("en", &[1, 0, 1, 1])]);
        let cp: ClockedProperty = "always a @(clk_pos && en)".parse().unwrap();
        // Guard keeps instants 0, 2, 3; a is 1, 1, 0 there -> violated.
        assert!(!t.satisfies(&cp).unwrap());
        let cp2: ClockedProperty = "always a @(clk_pos && en == 1)".parse().unwrap();
        assert!(!t.satisfies(&cp2).unwrap());
        // Guard keeping only instants where a holds.
        let cp3: ClockedProperty = "always a @(clk_pos && a)".parse().unwrap();
        assert!(t.satisfies(&cp3).unwrap());
    }

    #[test]
    fn empty_filtered_trace_is_vacuously_true() {
        let t = tick_trace(&[("a", &[0, 0]), ("en", &[0, 0])]);
        let cp: ClockedProperty = "always a @(clk_pos && en)".parse().unwrap();
        assert!(t.satisfies(&cp).unwrap());
    }

    #[test]
    fn eval_boolean_rejects_temporal() {
        let env: &[(&str, u64)] = &[("a", 1)];
        assert!(matches!(
            eval_boolean(&prop("next a"), &env),
            Err(EvalError::NotBoolean { .. })
        ));
        assert!(eval_boolean(&prop("a && true"), &env).unwrap());
    }

    #[test]
    fn paper_p1_holds_on_a_correct_des_trace() {
        // ds && indata == 0 at instant 0; out != 0 at instant 17.
        let mut steps = Vec::new();
        for i in 0..20u64 {
            let mut s = Step::new(10 + 10 * i, [("ds", 0u64), ("indata", 0), ("out", 0)]);
            if i == 0 {
                s.set("ds", 1);
            }
            if i == 17 {
                s.set("out", 0xDEAD);
            }
            steps.push(s);
        }
        let t: Trace = steps.into_iter().collect();
        let p1: ClockedProperty = "always (!(ds && indata == 0) || next[17](out != 0)) @clk_pos"
            .parse()
            .unwrap();
        assert!(t.satisfies(&p1).unwrap());
    }
}

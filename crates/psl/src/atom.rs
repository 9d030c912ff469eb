//! Atomic propositions: the boolean layer of the property language.
//!
//! An [`Atom`] is either a boolean signal referenced directly (`rdy`) or a
//! comparison between a signal and an integer literal (`indata == 0`).
//! Atoms are evaluated against a [`SignalEnv`], the read-only view of the
//! design-under-verification state at an evaluation instant.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Comparison operator of an [`Atom::Cmp`] atomic proposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the comparison to two values.
    ///
    /// ```
    /// use psl::CmpOp;
    /// assert!(CmpOp::Le.apply(3, 3));
    /// assert!(!CmpOp::Gt.apply(3, 3));
    /// ```
    #[must_use]
    pub fn apply(self, lhs: u64, rhs: u64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// The comparison holding exactly when `self` does not.
    ///
    /// Used by negation normal form to push `!` through comparisons:
    /// `!(a < b)` becomes `a >= b`.
    #[must_use]
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The textual operator, as accepted by the parser.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An atomic proposition over design-under-verification signals.
///
/// Signal names are shared, so cloning an atom (and so a property) copies
/// no name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Atom {
    /// A boolean signal used directly as a proposition (true iff non-zero).
    Bool(Arc<str>),
    /// A comparison between a signal and an integer literal.
    Cmp {
        /// Signal name on the left-hand side.
        signal: Arc<str>,
        /// Comparison operator.
        op: CmpOp,
        /// Literal on the right-hand side.
        value: u64,
    },
}

impl Atom {
    /// A boolean-signal atom.
    #[must_use]
    pub fn bool(signal: impl Into<Arc<str>>) -> Atom {
        Atom::Bool(signal.into())
    }

    /// A comparison atom `signal op value`.
    #[must_use]
    pub fn cmp(signal: impl Into<Arc<str>>, op: CmpOp, value: u64) -> Atom {
        Atom::Cmp {
            signal: signal.into(),
            op,
            value,
        }
    }

    /// Name of the signal the atom observes.
    #[must_use]
    pub fn signal(&self) -> &str {
        self.signal_name()
    }

    /// The shared name of the signal the atom observes.
    #[must_use]
    pub fn signal_name(&self) -> &Arc<str> {
        match self {
            Atom::Bool(s) => s,
            Atom::Cmp { signal, .. } => signal,
        }
    }

    /// Evaluates the atom in `env`.
    ///
    /// # Errors
    ///
    /// Returns [`MissingSignal`] if the observed signal is not present in the
    /// environment. This typically indicates a property referencing a signal
    /// that was removed by protocol abstraction without applying the signal
    /// abstraction rules first.
    pub fn eval(&self, env: &dyn SignalEnv) -> Result<bool, MissingSignal> {
        let name = self.signal();
        let raw = env.signal(name).ok_or_else(|| MissingSignal {
            signal: name.to_owned(),
        })?;
        Ok(match self {
            Atom::Bool(_) => raw != 0,
            Atom::Cmp { op, value, .. } => op.apply(raw, *value),
        })
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Bool(s) => f.write_str(s),
            Atom::Cmp { signal, op, value } => write!(f, "({signal} {op} {value})"),
        }
    }
}

/// Error returned when an atom observes a signal absent from the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingSignal {
    /// The absent signal's name.
    pub signal: String,
}

impl fmt::Display for MissingSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "signal `{}` is not defined in the evaluation environment",
            self.signal
        )
    }
}

impl std::error::Error for MissingSignal {}

/// Read-only view of the design state at a property evaluation instant.
///
/// Implemented by simulation traces, RTL signal stores and TLM transaction
/// snapshots. Boolean signals are encoded as `0` / non-zero.
pub trait SignalEnv {
    /// Current value of `name`, or `None` if the signal does not exist.
    fn signal(&self, name: &str) -> Option<u64>;
}

impl SignalEnv for HashMap<String, u64> {
    fn signal(&self, name: &str) -> Option<u64> {
        self.get(name).copied()
    }
}

impl SignalEnv for &[(&str, u64)] {
    fn signal(&self, name: &str) -> Option<u64> {
        self.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_apply_covers_all_operators() {
        assert!(CmpOp::Eq.apply(4, 4));
        assert!(!CmpOp::Eq.apply(4, 5));
        assert!(CmpOp::Ne.apply(4, 5));
        assert!(CmpOp::Lt.apply(4, 5));
        assert!(!CmpOp::Lt.apply(5, 5));
        assert!(CmpOp::Le.apply(5, 5));
        assert!(CmpOp::Gt.apply(6, 5));
        assert!(CmpOp::Ge.apply(5, 5));
    }

    #[test]
    fn negated_is_involutive_and_complementary() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negated().negated(), op);
            for (a, b) in [(0u64, 0u64), (1, 2), (2, 1), (7, 7)] {
                assert_eq!(op.apply(a, b), !op.negated().apply(a, b), "{op} on {a},{b}");
            }
        }
    }

    #[test]
    fn bool_atom_reads_nonzero_as_true() {
        let env: &[(&str, u64)] = &[("rdy", 1), ("ds", 0)];
        assert!(Atom::bool("rdy").eval(&env).unwrap());
        assert!(!Atom::bool("ds").eval(&env).unwrap());
    }

    #[test]
    fn cmp_atom_evaluates_comparison() {
        let env: &[(&str, u64)] = &[("indata", 0), ("out", 42)];
        assert!(Atom::cmp("indata", CmpOp::Eq, 0).eval(&env).unwrap());
        assert!(Atom::cmp("out", CmpOp::Ne, 0).eval(&env).unwrap());
        assert!(!Atom::cmp("out", CmpOp::Lt, 42).eval(&env).unwrap());
    }

    #[test]
    fn missing_signal_is_an_error() {
        let env: &[(&str, u64)] = &[];
        let err = Atom::bool("ds").eval(&env).unwrap_err();
        assert_eq!(err.signal, "ds");
        assert!(err.to_string().contains("ds"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Atom::bool("rdy").to_string(), "rdy");
        assert_eq!(Atom::cmp("out", CmpOp::Ne, 0).to_string(), "(out != 0)");
    }
}

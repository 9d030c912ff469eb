//! Algorithm III.1: substitution of `next[n]` chains with `next_ε^τ`.
//!
//! After the push-ahead procedure, every `next` chain in the property is a
//! single `next[n]` applied to a literal. Algorithm III.1 walks those
//! chains in left-to-right order and replaces the `i`-th chain
//! `next[n_i](a_i)` with `next_ε^τ(a_i)` where
//!
//! - `ε = n_i × c` (the RTL clock period `c`, in nanoseconds): the exact
//!   simulation time offset at which `a_i` must be evaluated, and
//! - `τ = i`: the chain's positional index, used by checker generation
//!   (Section IV) to synthesize the operator as if it were `next[τ]`.

use psl::push_ahead::is_pushed;
use psl::Property;

/// Errors returned by [`next_substitution`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NextSubstError {
    /// The property still has `next` operators over non-literals; run
    /// [`psl::push_ahead::push_ahead`] first.
    NotPushed,
    /// The property already contains `next_ε^τ` operators: it has already
    /// been abstracted.
    AlreadyAbstracted,
    /// `ε = n × c` of some `next[n]` chain does not fit in 64 bits of
    /// nanoseconds.
    EpsilonOverflow {
        /// The chain's `next` count.
        n: u32,
        /// The RTL clock period `c`, in nanoseconds.
        clock_period_ns: u64,
    },
}

impl std::fmt::Display for NextSubstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NextSubstError::NotPushed => {
                f.write_str("property must be push-ahead normalized before next substitution")
            }
            NextSubstError::AlreadyAbstracted => {
                f.write_str("property already contains next_et operators")
            }
            NextSubstError::EpsilonOverflow { n, clock_period_ns } => write!(
                f,
                "epsilon of next[{n}] at a {clock_period_ns} ns clock period overflows 64-bit nanoseconds"
            ),
        }
    }
}

impl std::error::Error for NextSubstError {}

/// Replaces each `next[n](literal)` with `next_ε^τ(literal)` per
/// Algorithm III.1, for an RTL clock period of `clock_period_ns`.
///
/// `next[n]` over a *constant* carries no observation obligation and is
/// folded to the constant itself (exact under the paper's ongoing-simulation
/// assumption); real properties never contain such chains.
///
/// # Errors
///
/// - [`NextSubstError::NotPushed`] if some `next` operand is not a literal;
/// - [`NextSubstError::AlreadyAbstracted`] if the property already contains
///   `next_ε^τ`;
/// - [`NextSubstError::EpsilonOverflow`] if some `n × clock_period_ns`
///   does not fit in a `u64`.
///
/// ```
/// use abv_core::algorithm::next_substitution;
/// use psl::Property;
///
/// // From the paper's p2 walk-through (clock period 10 ns):
/// let p: Property = "always (!ds || ((next (!ds)) until (next[2] rdy)))".parse()?;
/// let q = next_substitution(&p, 10)?;
/// assert_eq!(
///     q.to_string(),
///     "always ((!ds) || ((next_et[1, 10] (!ds)) until (next_et[2, 20] rdy)))"
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn next_substitution(p: &Property, clock_period_ns: u64) -> Result<Property, NextSubstError> {
    if !is_pushed(p) {
        return Err(NextSubstError::NotPushed);
    }
    let mut has_next_et = false;
    p.visit(&mut |node| {
        if matches!(node, Property::NextEt { .. }) {
            has_next_et = true;
        }
    });
    if has_next_et {
        return Err(NextSubstError::AlreadyAbstracted);
    }
    let mut tau = 0u32;
    substitute(p, clock_period_ns, &mut tau)
}

fn substitute(p: &Property, c: u64, tau: &mut u32) -> Result<Property, NextSubstError> {
    Ok(match p {
        Property::Const(_) | Property::Atom(_) | Property::Not(_) => p.clone(),
        Property::And(a, b) => substitute(a, c, tau)?.and(substitute(b, c, tau)?),
        Property::Or(a, b) => substitute(a, c, tau)?.or(substitute(b, c, tau)?),
        Property::Implies(a, b) => substitute(a, c, tau)?.implies(substitute(b, c, tau)?),
        Property::Until(a, b) => substitute(a, c, tau)?.until(substitute(b, c, tau)?),
        Property::Release(a, b) => substitute(a, c, tau)?.release(substitute(b, c, tau)?),
        Property::Always(inner) => Property::always(substitute(inner, c, tau)?),
        Property::Eventually(inner) => Property::eventually(substitute(inner, c, tau)?),
        Property::Next { n, inner } => {
            // Push-ahead guarantees `inner` is a literal.
            if matches!(**inner, Property::Const(_)) {
                (**inner).clone()
            } else {
                let eps = u64::from(*n)
                    .checked_mul(c)
                    .ok_or(NextSubstError::EpsilonOverflow {
                        n: *n,
                        clock_period_ns: c,
                    })?;
                *tau += 1;
                Property::next_et(*tau, eps, (**inner).clone())
            }
        }
        Property::NextEt { .. } => unreachable!("checked by next_substitution"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subst(src: &str, c: u64) -> String {
        next_substitution(&src.parse::<Property>().unwrap(), c)
            .unwrap()
            .to_string()
    }

    #[test]
    fn epsilon_is_n_times_clock_period() {
        assert_eq!(
            subst("next[17] (out != 0)", 10),
            "next_et[1, 170] (out != 0)"
        );
        assert_eq!(
            subst("next[17] (out != 0)", 7),
            "next_et[1, 119] (out != 0)"
        );
    }

    #[test]
    fn tau_counts_chains_left_to_right() {
        assert_eq!(
            subst("(next a) && ((next[2] b) || (next[3] (!c)))", 10),
            "(next_et[1, 10] a) && ((next_et[2, 20] b) || (next_et[3, 30] (!c)))"
        );
    }

    #[test]
    fn paper_p2_example() {
        assert_eq!(
            subst("always (!ds || ((next (!ds)) until (next[2] rdy)))", 10),
            "always ((!ds) || ((next_et[1, 10] (!ds)) until (next_et[2, 20] rdy)))"
        );
    }

    #[test]
    fn until_release_left_untouched() {
        assert_eq!(subst("a until (b release c)", 10), "a until (b release c)");
    }

    #[test]
    fn constant_chains_fold_without_consuming_tau() {
        assert_eq!(
            subst("(next true) && (next[2] a)", 10),
            "true && (next_et[1, 20] a)"
        );
    }

    #[test]
    fn rejects_unpushed() {
        let p: Property = "next (a || b)".parse().unwrap();
        assert_eq!(next_substitution(&p, 10), Err(NextSubstError::NotPushed));
    }

    #[test]
    fn rejects_already_abstracted() {
        let p: Property = "next_et[1, 10] a".parse().unwrap();
        assert_eq!(
            next_substitution(&p, 10),
            Err(NextSubstError::AlreadyAbstracted)
        );
    }
}

//! RTL-to-TLM property abstraction — the contribution of the DATE 2015
//! paper *"RTL property abstraction for TLM assertion-based verification"*.
//!
//! Given a cycle-accurate RTL property (PSL simple subset) and a
//! timing-equivalent TLM model of the same IP, this crate rewrites the
//! property into a form checkable on an event-based TLM simulation:
//!
//! 1. **Negation normal form** (step 1 of Methodology III.1, via
//!    [`psl::nnf`]);
//! 2. **Push-ahead** of `next` operators (first phase of step 2, via
//!    [`psl::push_ahead`]);
//! 3. **Signal abstraction** (Section III-B, Fig. 4): subformulas over
//!    control signals removed by protocol abstraction are deleted, see
//!    [`rules`];
//! 4. **`next[n]` → `next_ε^τ` substitution** (Algorithm III.1, second
//!    phase of step 2): `ε = n × clock_period`, `τ` = positional index, see
//!    [`algorithm`];
//! 5. **Clock-context → transaction-context mapping** (Def. III.2, step 3),
//!    see [`context_map`].
//!
//! The entry point is [`abstract_property`], which returns an
//! [`Abstraction`] report describing the resulting TLM property (or its
//! deletion) and whether the result is guaranteed to be a logical
//! consequence of the original (Section III-B's discussion).
//!
//! The deliberately broken *naive scaling* alternative discussed in
//! Section III-A (rescaling `next[n]` to transaction counts) is provided in
//! [`naive`] for the ablation experiments.
//!
//! # Example — property `p3` of the paper's Fig. 3
//!
//! ```
//! use abv_core::{abstract_property, AbstractionConfig};
//! use psl::ClockedProperty;
//!
//! let p3: ClockedProperty = "always (!ds || (next[15](rdy_next_next_cycle) \
//!     && next[16](rdy_next_cycle) && next[17](rdy))) @clk_pos".parse()?;
//! let cfg = AbstractionConfig::new(10)?
//!     .abstract_signal("rdy_next_cycle")
//!     .abstract_signal("rdy_next_next_cycle");
//! let q3 = abstract_property(&p3, &cfg)?;
//! assert_eq!(
//!     q3.result().expect("q3 is kept").to_string(),
//!     "always ((!ds) || (next_et[1, 170] rdy)) @T_b"
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod algorithm;
pub mod config;
pub mod context_map;
pub mod methodology;
pub mod naive;
pub mod rules;

pub use config::{AbstractionConfig, ConfigError};
pub use methodology::{
    abstract_property, abstract_suite, reuse_at_cycle_accurate, AbstractError, Abstraction,
    Consequence,
};

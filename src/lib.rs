//! # rtl2tlm-abv
//!
//! Reproduction of *"RTL property abstraction for TLM assertion-based
//! verification"* (Bombieri, Filippozzi, Pravadelli, Stefanni — DATE 2015).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`psl`] — the PSL/LTL property language (AST, parser, normal forms,
//!   finite-trace semantics);
//! - [`abv_core`] — the paper's contribution: RTL-to-TLM property
//!   abstraction (Methodology III.1, Algorithm III.1, Def. III.2 context
//!   mapping, Fig. 4 signal-abstraction rules);
//! - [`abv_checker`] — checker synthesis and the Section IV TLM wrapper;
//! - [`desim`] — the discrete-event simulation kernel (SystemC substitute);
//! - [`rtlkit`] / [`tlmkit`] — RTL and TLM modelling layers;
//! - [`designs`] — the paper's two test cases (DES56, ColorConv) at RTL,
//!   TLM-CA and TLM-AT, with their PSL property suites.
//!
//! # Quickstart
//!
//! Abstract an RTL property into a TLM property (Fig. 3 of the paper):
//!
//! ```
//! use rtl2tlm_abv::abv_core::{abstract_property, AbstractionConfig};
//! use rtl2tlm_abv::psl::ClockedProperty;
//!
//! let p1: ClockedProperty =
//!     "always (!(ds && indata == 0) || next[17](out != 0)) @clk_pos".parse()?;
//! let cfg = AbstractionConfig::new(10)?; // RTL clock period: 10 ns
//! let q1 = abstract_property(&p1, &cfg)?.into_property().expect("kept");
//! assert_eq!(
//!     q1.to_string(),
//!     "always (((!ds) || (indata != 0)) || (next_et[1, 170] (out != 0))) @T_b"
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cli;

pub use abv_campaign;
pub use abv_checker;
pub use abv_core;
pub use designs;
pub use desim;
pub use psl;
pub use rtlkit;
pub use tlmkit;

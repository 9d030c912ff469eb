//! `abv-checker` — checker synthesis and hosting for dynamic
//! assertion-based verification (Section IV of the paper).
//!
//! A [`PropertyChecker`] is synthesized from a [`psl::ClockedProperty`]:
//! the property is normalized (NNF), its atoms are resolved against the
//! simulation's signals, and the resulting monitor is evaluated by
//! *formula progression* — each evaluation event rewrites the outstanding
//! obligation into the obligation that must hold from the next event on.
//! `next_ε^τ` obligations anchor to an **absolute deadline** when reached:
//! events before the deadline are ignored, an event at the deadline
//! evaluates the operand, and an event past an unconsumed deadline raises a
//! failure — exactly the wrapper behaviour of Section IV.
//!
//! Checkers are attached through the [`Checker::attach`] facade: the
//! caller builds a [`Binding`] describing what the simulation offers (a
//! clock signal, a transaction bus, or both), and each property gets one
//! host component fed from what its evaluation context needs:
//!
//! - a clock context samples at the clock's edges (RTL verification, and
//!   the unabstracted-property case);
//! - a transaction context makes the host the paper's TLM **wrapper**: it
//!   observes a [`tlmkit::TransactionBus`], maintains the checker-instance
//!   pool and the evaluation table, fails instances whose expected
//!   evaluation time passed without a transaction, resets/reuses
//!   completed instances, and activates a new instance at every
//!   transaction matching the transaction context (Section IV, points
//!   1–4).
//!
//! When the simulation carries an enabled [`abv_obs::Tracer`], the whole
//! wrapper lifecycle is emitted as structured trace events: one `B…E` span
//! per checker instance (activation to pass/fail/timeout-fail), an
//! `obligation` instant when an instance parks in the evaluation table,
//! and named tracks per property and pool slot. See the `abv-obs` crate.
//!
//! On `ε` anchoring: Def. III.3 phrases `ε` relative to "the firing of the
//! property"; for the nested occurrences produced by Algorithm III.1 inside
//! `until`/`release` iterations, the only coherent generalization (and the
//! one the finite-trace oracle in [`psl::trace`] uses) anchors `ε` at the
//! instant the operator is *reached* during evaluation — the two coincide
//! for top-level occurrences such as the paper's `q1`/`q3`.

mod arena;
mod attach;
mod compile;
mod host;
mod monitor;
mod reference;
mod report;

pub use arena::ArenaStats;
pub use attach::{Binding, Checker};
pub use compile::{compile, CompileError};
pub use host::InstallError;
pub use monitor::{PropertyChecker, SignalRead, WakePlan};
pub use reference::{compile_reference, ReferenceChecker};
pub use report::{
    CheckReport, FailReason, Failure, PropertyReport, Verdict, MAX_RECORDED_FAILURES,
};

//! `tlmkit` — transaction-level modelling layer on top of [`desim`].
//!
//! Mirrors the subset of TLM the paper relies on:
//!
//! - [`Transaction`] records (`read`/`write`, address, data, completion
//!   time) — the TLM generic-payload stand-in;
//! - [`TransactionBus`]: the observation channel between a model and its
//!   verification environment. A model publishes a record when a
//!   transaction *ends*; every subscribed observer (checker wrapper, trace
//!   recorder) is woken in the next delta cycle with the record available.
//!   This realizes the paper's basic transaction context `T_b`, which
//!   "evaluates q at the end of every TLM transaction" (Def. III.2);
//! - [`TxTraceRecorder`]: builds a [`psl::Trace`] with one step per
//!   transaction end, sampling the model's mirror signals — the TLM
//!   counterpart of `rtlkit`'s waveform recorder.
//!
//! Which coding style a model follows (cycle-accurate, or
//! approximately-timed in the loose or strict variant — DESIGN.md §5b) is
//! up to the model; this layer only carries its transactions.
//!
//! Models keep a set of kernel signals mirroring their I/O interface
//! ("preserved signals" in the paper's terms); observers evaluate property
//! atoms against those mirrors at transaction boundaries.

mod bus;
mod recorder;
mod transaction;

pub use bus::{TransactionBus, TX_TRACE_TRACK};
pub use recorder::TxTraceRecorder;
pub use transaction::{Transaction, TxKind};

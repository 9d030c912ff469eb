//! Structured simulation tracing for the RTL-to-TLM verification flow.
//!
//! The paper's checker wrapper (Section IV) is a temporal mechanism — a
//! bounded pool of checker instances, an evaluation table of
//! `(time → instance)` obligations, and failures raised when an expected
//! evaluation time passes without a transaction. This crate makes that
//! behaviour observable as structured events without perturbing it:
//!
//! * [`TraceEvent`] — one span boundary, instant, or counter sample, in the
//!   vocabulary of the Chrome trace-event format (`ph: B/E/i/C/M`).
//! * [`Tracer`] — the cheap, clonable handle instrumented code holds. A
//!   disabled tracer is a `None`; the [`trace!`] macro does not even
//!   construct the event then, so the default path costs one branch. An
//!   enabled tracer, from [`Tracer::memory`], shares one [`MemorySink`].
//! * [`MemorySink`] — where events go: one in-memory buffer, drained with
//!   [`MemorySink::take_events`] after the run.
//! * [`Histogram`] — log₂-bucketed metric histogram with an associative
//!   [`merge`](Histogram::merge), matching the campaign engine's
//!   fold-in-work-list-order discipline.
//! * [`chrome_trace_json`] — render recorded events as a JSON array that
//!   `ui.perfetto.dev` and `chrome://tracing` load directly.
//!
//! Recording and export stay off the heap where they can. Event names and
//! string arguments are `Cow<'static, str>` and argument keys are
//! `&'static str`: the fixed vocabulary (`eval`, `obligation`, `pass`,
//! `tx`, counter tracks, every key) is borrowed, so recording such an
//! event allocates at most its one argument buffer, sized once for three
//! arguments. Only dynamic text is owned: a property's name on its
//! instance spans, track labels (the property name, `name#slot`), process
//! labels, the mutation counter series and the campaign `seed` argument.
//! [`chrome_trace_json`] sizes one `String` from an upper bound on every
//! event's rendering and appends each event straight into it (hand-written
//! integer and `ts` formatting, strings without escapes copied in one
//! piece); [`TraceEvent::to_json`] renders one event with the same writer.
//!
//! All timestamps on trace events are **simulation time in nanoseconds**,
//! never wall clock, so traces are deterministic: the same seeded run
//! produces byte-identical JSON regardless of host speed or worker count.
//!
//! # Example
//!
//! ```
//! use abv_obs::{chrome_trace_json, TraceEvent, Tracer};
//!
//! let (tracer, sink) = Tracer::memory();
//! abv_obs::trace!(tracer, TraceEvent::span_begin("req", 0, 1, 10));
//! abv_obs::trace!(tracer, TraceEvent::span_end(0, 1, 25));
//! let events = sink.borrow_mut().take_events();
//! assert_eq!(events.len(), 2);
//! let json = chrome_trace_json(&events);
//! assert!(json.starts_with('['));
//! ```

mod event;
mod histogram;
mod sink;
mod tracer;

pub use event::{chrome_trace_json, push_json_str, ArgValue, Phase, TraceEvent};
pub use histogram::Histogram;
pub use sink::MemorySink;
pub use tracer::Tracer;

/// The checker-arena counter track: one sample per processed evaluation
/// event on the property's base track, carrying the `nodes` (arena size),
/// `memo_hits` and `memo_misses` series — the observability face of the
/// hash-consed monitor representation (interned formula count and
/// progression-cache effectiveness).
pub const ARENA_COUNTER_TRACK: &str = "checker-arena";

/// Records an event iff the tracer is enabled. The event expression is not
/// evaluated otherwise, so instrumentation sites cost a single branch when
/// tracing is off; the expression is built in a closure passed to the
/// out-of-line [`Tracer::record_with`], so its code stays out of the
/// caller.
///
/// ```
/// # use abv_obs::{TraceEvent, Tracer};
/// let tracer = Tracer::disabled();
/// abv_obs::trace!(tracer, unreachable!("not evaluated when disabled"));
/// ```
#[macro_export]
macro_rules! trace {
    ($tracer:expr, $event:expr) => {
        if $tracer.is_enabled() {
            $tracer.record_with(|| $event);
        }
    };
}

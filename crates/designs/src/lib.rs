//! `designs` — the paper's two test-case IPs plus an extension IP, each at
//! every abstraction level.
//!
//! - [`des56`]: a reconfigurable (encrypt/decrypt) 64-bit DES
//!   cryptographic core with a latency of 17 clock cycles and its 9 PSL
//!   properties;
//! - [`colorconv`]: an 8-stage pipelined RGB→YCbCr converter with a
//!   latency of 8 clock cycles and its 12 PSL properties;
//! - [`fir`]: a 4-tap FIR filter (latency 5, 6 properties) — an extension
//!   IP beyond the paper's evaluation, demonstrating the flow's
//!   generality.
//!
//! Each IP provides:
//!
//! - a pure algorithmic core (`algo`) shared by every abstraction level,
//! - a cycle core (`core`) with its pin list (`RTL_SIGNALS`): the **RTL**
//!   model (clocked design plus stimulus) and the **TLM-CA** model (one
//!   transaction per clock period) are both derived from its cycle step by
//!   one shared shell each, which is what makes them timing-equivalent by
//!   construction (Def. III.1), as HIFSuite's mechanical abstraction does
//!   in the paper; the **TLM-AT** model (one write + one read per
//!   elaboration, at the RTL strobe and completion instants) is derived
//!   from its untimed elaboration by one shared shell, which with `strict`
//!   also places the transactions of the strict Def. III.1 AT model at
//!   every preserved-I/O change (DESIGN.md §5b); ColorConv alone adds a
//!   bulk-AT model,
//! - a request type and seeded constructors for the shared request
//!   schedule [`Workload`] that drives every level,
//! - a PSL property suite with each property classified by its expected
//!   behaviour across abstraction levels ([`PropertyClass`]).
//!
//! Every builder returns a [`BuiltDesign`].
//!
//! Every model injects the design-independent [`Fault`] it is built with,
//! so the abstracted checkers can be shown to catch real TLM bugs.
//! [`check`] is the one rule saying which `(design, level, fault)` triples
//! exist ([`Fault::catalogue`] per design); [`build`] dispatches a triple to
//! the IP's builder.
//!
//! All models use a 10 ns clock ([`CLOCK_PERIOD_NS`]), matching the
//! paper's running example (`ε = 17 × 10ns = 170ns`).

pub mod colorconv;
mod cycle;
pub mod des56;
mod factory;
pub mod fir;
mod suite;
mod workload;

pub use factory::{
    build, check, passing_properties_at, properties_at, suite_view, AbsLevel, BuildError,
    BuiltDesign, DesignKind, Fault,
};
pub use suite::{PropertyClass, SuiteEntry};
pub use workload::Workload;

/// The RTL clock period shared by every IP, in nanoseconds.
pub const CLOCK_PERIOD_NS: u64 = 10;

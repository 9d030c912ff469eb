//! FIR: a 4-tap finite-impulse-response filter with a latency of 5 clock
//! cycles — an **extension IP** beyond the paper's two test cases,
//! demonstrating that the abstraction flow generalizes to designs it was
//! not written against.
//!
//! Interface (RTL):
//!
//! | signal | dir | meaning |
//! |---|---|---|
//! | `in_valid` | in | one-cycle sample strobe |
//! | `sample` | in | 16-bit input sample |
//! | `result` | out | filtered output (fixed point, `>> 8`) |
//! | `out_valid` | out | one-cycle result strobe, 5 cycles after `in_valid` |
//! | `res_next_cycle` | out | prediction: `out_valid` rises next cycle |
//!
//! `res_next_cycle` is removed by the protocol abstraction
//! ([`ABSTRACTED_SIGNALS`]).

mod core;
mod properties;
mod rtl;
#[cfg(test)]
mod tlm;
mod workload;

pub use crate::cycle::{build_rtl, build_tlm_at, build_tlm_ca};
pub use core::{reference, FirCore, FirOutputs, TAPS};
pub use properties::{suite, ABSTRACTED_SIGNALS};
pub use rtl::RTL_SIGNALS;
pub(crate) use workload::random_sample;
pub use workload::FirWorkload;

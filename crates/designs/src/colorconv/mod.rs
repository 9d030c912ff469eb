//! ColorConv: an 8-stage pipelined RGB → YCbCr converter with a latency of
//! 8 clock cycles — the paper's second test case.
//!
//! Interface (RTL):
//!
//! | signal | dir | meaning |
//! |---|---|---|
//! | `px_valid` | in | one-cycle pixel strobe |
//! | `r`, `g`, `b` | in | 8-bit colour channels |
//! | `y`, `cb`, `cr` | out | converted channels (studio range) |
//! | `out_valid` | out | one-cycle result strobe, 8 cycles after `px_valid` |
//! | `ov_next_cycle` | out | prediction: `out_valid` rises next cycle |
//!
//! `ov_next_cycle` is removed by the RTL-to-TLM protocol abstraction
//! ([`ABSTRACTED_SIGNALS`]), exercising the Fig. 4 rules on this design.

pub mod algo;
mod core;
mod properties;
mod rtl;
mod tlm;
mod workload;

pub use core::{ColorConvCore, ConvOutputs};
pub use properties::{suite, ABSTRACTED_SIGNALS};
pub use rtl::{build_rtl, RTL_SIGNALS};
pub use tlm::{
    build_tlm_at, build_tlm_at_bulk, build_tlm_ca, bulk_surviving_properties, TLM_AT_BULK_SIGNALS,
    TLM_AT_SIGNALS, TLM_CA_SIGNALS,
};
pub use workload::{ConvWorkload, Pixel};

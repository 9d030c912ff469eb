//! DES56: a reconfigurable (encrypt/decrypt) 64-bit cryptographic IP with
//! a latency of 17 clock cycles — the paper's first test case.
//!
//! Interface (RTL):
//!
//! | signal | dir | meaning |
//! |---|---|---|
//! | `ds` | in | one-cycle data strobe |
//! | `indata` | in | 64-bit input block |
//! | `mode` | in | 0 = encrypt, 1 = decrypt |
//! | `out` | out | 64-bit result block |
//! | `rdy` | out | one-cycle result strobe, 17 cycles after `ds` |
//! | `rdy_next_cycle` | out | prediction: `rdy` rises next cycle |
//! | `rdy_next_next_cycle` | out | prediction: `rdy` rises in two cycles |
//!
//! The two prediction outputs are removed by the RTL-to-TLM protocol
//! abstraction ([`properties::ABSTRACTED_SIGNALS`]), which is what
//! exercises the paper's Fig. 4 signal-abstraction rules on this design.

pub mod algo;
mod core;
mod properties;
mod rtl;
mod tlm;
mod workload;

pub use core::{Des56Core, DesOutputs};
pub use properties::{suite, ABSTRACTED_SIGNALS};
pub use rtl::{build_rtl, DES_KEY, RTL_SIGNALS};
pub use tlm::{build_tlm_at, build_tlm_ca, TLM_AT_SIGNALS, TLM_CA_SIGNALS};
pub use workload::{DesBlock, DesWorkload};

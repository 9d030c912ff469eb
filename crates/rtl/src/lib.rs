//! `rtlkit` — RTL modelling layer on top of the [`desim`] kernel.
//!
//! Provides the pieces an RTL (cycle-accurate) model needs beyond the raw
//! kernel:
//!
//! - [`Clock`]: a free-running clock component with rising edges at
//!   `period, 2·period, …`;
//! - [`EdgeDetector`]: classifies a clock-change wake-up as rising/falling;
//! - [`WaveRecorder`]: samples a set of signals at clock edges into a
//!   [`psl::Trace`], the oracle format for property evaluation;
//! - [`vcd`]: Value Change Dump export of recorded traces for waveform
//!   viewers.
//!
//! # Sampling discipline
//!
//! Values are sampled *postponed*: a recorder woken by a clock edge
//! re-schedules itself one delta later, so it observes the values committed
//! by the design's clocked processes at that same edge. Under this
//! discipline "the output is valid `n` cycles after the strobe" means the
//! output is visible at the `n`-th edge sample after the one sampling the
//! strobe, which is the convention all property suites in `designs` use.

mod clock;
mod recorder;
pub mod vcd;

pub use clock::{Clock, ClockHandle, EdgeDetector};
pub use recorder::{RecorderHandle, WaveRecorder};

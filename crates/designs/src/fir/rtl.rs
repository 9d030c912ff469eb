//! The FIR pin interface: the pin list and the cycle core behind it,
//! which the shared shells build the RTL and TLM-CA models from.

use super::core::FirCore;
use crate::cycle::CycleCore;
use crate::{DesignKind, Fault};

/// Names of the FIR I/O signals at RTL, in declaration order.
pub const RTL_SIGNALS: &[&str] = &[
    "in_valid",
    "sample",
    "result",
    "out_valid",
    "res_next_cycle",
];

impl CycleCore for FirCore {
    type Request = u64;
    const DESIGN: DesignKind = DesignKind::Fir;
    const PINS: &'static [&'static str] = RTL_SIGNALS;
    const DATA_INPUTS: usize = 1;
    const LATENCY: u64 = 5;
    const DEFAULT_GAP: u64 = 8;

    fn with_fault(fault: Fault) -> FirCore {
        FirCore::new(fault)
    }

    fn drive(sample: u64, data: &mut [u64]) {
        data[0] = sample;
    }

    fn payload(sample: u64) -> u64 {
        sample
    }

    fn step_pins(&mut self, in_valid: bool, data: &[u64], outputs: &mut [u64]) {
        let o = self.step(in_valid, data[0]);
        outputs[0] = o.result;
        outputs[1] = u64::from(o.out_valid);
        outputs[2] = u64::from(o.res_next_cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::super::core::reference;
    use super::super::workload::FirWorkload;
    use super::*;
    use crate::cycle::build_rtl;
    use psl::{ClockEdge, SignalEnv};
    use rtlkit::WaveRecorder;

    #[test]
    fn single_sample_filters_5_cycles_after_strobe() {
        let w = FirWorkload::new(vec![512]);
        let mut built = build_rtl(&w, Fault::None).unwrap();
        let rec = WaveRecorder::install(
            &mut built.sim,
            built.clk.unwrap(),
            ClockEdge::Pos,
            RTL_SIGNALS,
        );
        built.run();
        let trace = WaveRecorder::take_trace(&built.sim, rec);
        let steps = trace.steps();
        assert_eq!(steps[1].signal("in_valid"), Some(1));
        assert_eq!(steps[1 + 5].signal("out_valid"), Some(1));
        assert_eq!(steps[1 + 4].signal("res_next_cycle"), Some(1));
        assert_eq!(
            steps[1 + 5].signal("result"),
            Some(reference(&[512, 0, 0, 0]))
        );
    }

    #[test]
    fn stream_retires_every_sample() {
        let w = FirWorkload::random(6, 9);
        let mut built = build_rtl(&w, Fault::None).unwrap();
        let rec = WaveRecorder::install(
            &mut built.sim,
            built.clk.unwrap(),
            ClockEdge::Pos,
            RTL_SIGNALS,
        );
        built.run();
        let trace = WaveRecorder::take_trace(&built.sim, rec);
        let count = trace
            .steps()
            .iter()
            .filter(|s| s.signal("out_valid") == Some(1))
            .count();
        assert_eq!(count, 6);
    }
}

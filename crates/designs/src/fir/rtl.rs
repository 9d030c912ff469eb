//! The FIR pin interface: the pin list of the cycle core the shared
//! shells build every model from.

/// Names of the FIR I/O signals at RTL, in declaration order.
pub const RTL_SIGNALS: &[&str] = &[
    "in_valid",
    "sample",
    "result",
    "out_valid",
    "res_next_cycle",
];

#[cfg(test)]
mod tests {
    use super::super::core::reference;
    use super::super::workload::FirWorkload;
    use super::*;
    use crate::cycle::build_rtl;
    use crate::Fault;
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

//! The ColorConv pin interface: the pin list of the cycle core the shared
//! shells build every model from.

/// Names of the ColorConv I/O signals at RTL, in declaration order.
pub const RTL_SIGNALS: &[&str] = &[
    "px_valid",
    "r",
    "g",
    "b",
    "y",
    "cb",
    "cr",
    "out_valid",
    "ov_next_cycle",
];

#[cfg(test)]
mod tests {
    use super::super::algo;
    use super::super::workload::{ConvWorkload, Pixel};
    use super::*;
    use crate::cycle::build_rtl;
    use crate::Fault;
    use psl::{ClockEdge, SignalEnv};
    use rtlkit::WaveRecorder;

    #[test]
    fn pixel_converts_8_cycles_after_strobe() {
        let w = ConvWorkload::new(vec![Pixel {
            r: 10,
            g: 200,
            b: 99,
        }]);
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
        let e0 = 1; // request at edge 2 = steps[1]
        assert_eq!(steps[e0].signal("px_valid"), Some(1));
        assert_eq!(steps[e0 + 8].signal("out_valid"), Some(1));
        assert_eq!(steps[e0 + 7].signal("ov_next_cycle"), Some(1));
        let expect = algo::convert(10, 200, 99);
        assert_eq!(steps[e0 + 8].signal("y"), Some(u64::from(expect.y)));
        assert_eq!(steps[e0 + 8].signal("cb"), Some(u64::from(expect.cb)));
        assert_eq!(steps[e0 + 8].signal("cr"), Some(u64::from(expect.cr)));
        assert_eq!(steps[e0 + 9].signal("out_valid"), Some(0));
    }

    #[test]
    fn stream_of_pixels_all_convert() {
        let w = ConvWorkload::mixed(7, 5);
        let mut built = build_rtl(&w, Fault::None).unwrap();
        let rec = WaveRecorder::install(
            &mut built.sim,
            built.clk.unwrap(),
            ClockEdge::Pos,
            RTL_SIGNALS,
        );
        built.run();
        let trace = WaveRecorder::take_trace(&built.sim, rec);
        let valid_count = trace
            .steps()
            .iter()
            .filter(|s| s.signal("out_valid") == Some(1))
            .count();
        assert_eq!(valid_count, 7);
    }
}

//! The DES56 pin interface: the pin list and the key of the cycle core
//! the shared shells build every model from.

/// Builds the DES56 RTL simulation for a workload, with `fault` injected.
///
/// ```
/// use designs::des56::{build_rtl, DesWorkload};
/// use designs::Fault;
///
/// let w = DesWorkload::random(2, 1);
/// let mut built = build_rtl(&w, Fault::None).expect("DES56 has an RTL model");
/// assert!(built.run().events_processed > 0);
/// ```
pub use crate::cycle::build_rtl;

/// The design key used by all DES56 models (the classic worked-example
/// key; any non-weak key works).
pub const DES_KEY: u64 = 0x133457799BBCDFF1;

/// Names of the DES56 I/O signals at RTL, in declaration order.
pub const RTL_SIGNALS: &[&str] = &[
    "ds",
    "indata",
    "mode",
    "out",
    "rdy",
    "rdy_next_cycle",
    "rdy_next_next_cycle",
];

#[cfg(test)]
mod tests {
    use super::super::algo::{self, KeySchedule};
    use super::super::workload::{DesBlock, DesWorkload};
    use super::*;
    use crate::Fault;
    use psl::{ClockEdge, SignalEnv};
    use rtlkit::WaveRecorder;

    fn single_block_trace(data: u64, decrypt: bool) -> psl::Trace {
        let w = DesWorkload::new(vec![DesBlock { data, decrypt }]);
        let mut built = build_rtl(&w, Fault::None).unwrap();
        let rec = WaveRecorder::install(
            &mut built.sim,
            built.clk.unwrap(),
            ClockEdge::Pos,
            RTL_SIGNALS,
        );
        built.run();
        WaveRecorder::take_trace(&built.sim, rec)
    }

    #[test]
    fn strobe_visible_at_request_edge_and_result_17_later() {
        let plain = 0x0123456789ABCDEF;
        let trace = single_block_trace(plain, false);
        let steps = trace.steps();
        // Edge indices are 1-based; steps[k] is edge k+1 (time (k+1)*10).
        let e0 = 1; // first request at edge 2
        assert_eq!(steps[e0].signal("ds"), Some(1));
        assert_eq!(steps[e0].signal("indata"), Some(plain));
        assert_eq!(steps[e0 + 1].signal("ds"), Some(0), "one-cycle strobe");
        assert_eq!(steps[e0 + 17].signal("rdy"), Some(1));
        let ks = KeySchedule::new(DES_KEY);
        assert_eq!(
            steps[e0 + 17].signal("out"),
            Some(algo::encrypt(plain, &ks))
        );
        assert_eq!(steps[e0 + 18].signal("rdy"), Some(0));
        assert_eq!(steps[e0 + 16].signal("rdy_next_cycle"), Some(1));
        assert_eq!(steps[e0 + 15].signal("rdy_next_next_cycle"), Some(1));
    }

    #[test]
    fn decrypt_block_roundtrips() {
        let ks = KeySchedule::new(DES_KEY);
        let cipher = algo::encrypt(0x1122334455667788, &ks);
        let trace = single_block_trace(cipher, true);
        let steps = trace.steps();
        assert_eq!(steps[1 + 17].signal("out"), Some(0x1122334455667788));
    }

    #[test]
    fn back_to_back_requests_all_complete() {
        let w = DesWorkload::random(5, 3);
        let mut built = build_rtl(&w, Fault::None).unwrap();
        let rec = WaveRecorder::install(
            &mut built.sim,
            built.clk.unwrap(),
            ClockEdge::Pos,
            RTL_SIGNALS,
        );
        built.run();
        let trace = WaveRecorder::take_trace(&built.sim, rec);
        let rdy_count = trace
            .steps()
            .iter()
            .filter(|s| s.signal("rdy") == Some(1))
            .count();
        assert_eq!(rdy_count, 5);
    }

    #[test]
    fn mutated_model_shifts_ready() {
        let w = DesWorkload::random(1, 3);
        let mut built = build_rtl(&w, Fault::LatencyShort).unwrap();
        let rec = WaveRecorder::install(
            &mut built.sim,
            built.clk.unwrap(),
            ClockEdge::Pos,
            RTL_SIGNALS,
        );
        built.run();
        let trace = WaveRecorder::take_trace(&built.sim, rec);
        assert_eq!(trace.steps()[1 + 16].signal("rdy"), Some(1));
        assert_eq!(trace.steps()[1 + 17].signal("rdy"), Some(0));
    }
}

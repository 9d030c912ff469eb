//! The DES56 RTL model: clocked design plus stimulus generator.

use desim::{Component, Event, SignalId, SimCtx, Simulation};
use rtlkit::{Clock, EdgeDetector};

use super::core::Des56Core;
use super::workload::DesWorkload;
use crate::{check, AbsLevel, BuildError, BuiltDesign, DesignKind, Fault, CLOCK_PERIOD_NS};

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

/// The clocked DES56 design: one [`Des56Core`] step per rising edge.
struct Des56Rtl {
    clk: SignalId,
    det: EdgeDetector,
    core: Des56Core,
    ds: SignalId,
    indata: SignalId,
    mode: SignalId,
    out: SignalId,
    rdy: SignalId,
    rdy_nc: SignalId,
    rdy_nnc: SignalId,
}

impl Component for Des56Rtl {
    fn handle(&mut self, _ev: Event, ctx: &mut SimCtx<'_>) {
        let v = ctx.read(self.clk);
        if !self.det.is_rising(v) {
            return;
        }
        let ds = ctx.read(self.ds) != 0;
        let indata = ctx.read(self.indata);
        let decrypt = ctx.read(self.mode) != 0;
        let o = self.core.step(ds, indata, decrypt);
        ctx.write(self.out, o.out);
        ctx.write(self.rdy, u64::from(o.rdy));
        ctx.write(self.rdy_nc, u64::from(o.rdy_next_cycle));
        ctx.write(self.rdy_nnc, u64::from(o.rdy_next_next_cycle));
    }
}

/// Drives the workload onto the design inputs at falling edges, so values
/// are stable before the rising edge that samples them.
struct DesStimulus {
    clk: SignalId,
    det: EdgeDetector,
    workload: DesWorkload,
    ds: SignalId,
    indata: SignalId,
    mode: SignalId,
}

impl Component for DesStimulus {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        let v = ctx.read(self.clk);
        if !self.det.is_falling(v) {
            return;
        }
        // Falling edge at k·period + period/2 prepares rising edge k+1.
        let target_edge = ev.time.as_ns() / CLOCK_PERIOD_NS + 1;
        match self.workload.block_at_edge(target_edge) {
            Some(block) => {
                ctx.write(self.ds, 1);
                ctx.write(self.indata, block.data);
                ctx.write(self.mode, u64::from(block.decrypt));
            }
            None => {
                ctx.write(self.ds, 0);
            }
        }
    }
}

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
///
/// # Errors
///
/// Whatever [`check`] rejects for DES56 at RTL.
pub fn build_rtl(workload: &DesWorkload, fault: Fault) -> Result<BuiltDesign, BuildError> {
    check(DesignKind::Des56, AbsLevel::Rtl, fault)?;
    let mut sim = Simulation::new();
    sim.reserve_signals(10); // pin list + clock, registered in one burst
    let clk = Clock::install(&mut sim, "clk", CLOCK_PERIOD_NS);
    let ds = sim.add_signal("ds", 0);
    let indata = sim.add_signal("indata", 0);
    let mode = sim.add_signal("mode", 0);
    let out = sim.add_signal("out", 0);
    let rdy = sim.add_signal("rdy", 0);
    let rdy_nc = sim.add_signal("rdy_next_cycle", 0);
    let rdy_nnc = sim.add_signal("rdy_next_next_cycle", 0);

    let dut = sim.add_component(Des56Rtl {
        clk: clk.signal,
        det: EdgeDetector::new(),
        core: Des56Core::new(DES_KEY, fault),
        ds,
        indata,
        mode,
        out,
        rdy,
        rdy_nc,
        rdy_nnc,
    });
    sim.subscribe(clk.signal, dut, 0);

    let stim = sim.add_component(DesStimulus {
        clk: clk.signal,
        det: EdgeDetector::new(),
        workload: workload.clone(),
        ds,
        indata,
        mode,
    });
    sim.subscribe(clk.signal, stim, 0);

    Ok(BuiltDesign {
        sim,
        clk: Some(clk.signal),
        bus: None,
        end_ns: workload.end_time_ns(),
    })
}

#[cfg(test)]
mod tests {
    use super::super::algo::{self, KeySchedule};
    use super::super::workload::DesBlock;
    use super::*;
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

//! The FIR RTL model: clocked pipeline plus stimulus generator.

use desim::{Component, Event, SignalId, SimCtx, Simulation};
use rtlkit::{Clock, EdgeDetector};

use super::core::FirCore;
use super::workload::FirWorkload;
use crate::{check, AbsLevel, BuildError, BuiltDesign, DesignKind, Fault, CLOCK_PERIOD_NS};

/// Names of the FIR I/O signals at RTL, in declaration order.
pub const RTL_SIGNALS: &[&str] = &[
    "in_valid",
    "sample",
    "result",
    "out_valid",
    "res_next_cycle",
];

struct FirRtl {
    clk: SignalId,
    det: EdgeDetector,
    core: FirCore,
    in_valid: SignalId,
    sample: SignalId,
    result: SignalId,
    out_valid: SignalId,
    res_nc: SignalId,
}

impl Component for FirRtl {
    fn handle(&mut self, _ev: Event, ctx: &mut SimCtx<'_>) {
        if !self.det.is_rising(ctx.read(self.clk)) {
            return;
        }
        let valid = ctx.read(self.in_valid) != 0;
        let sample = ctx.read(self.sample);
        let o = self.core.step(valid, sample);
        ctx.write(self.result, o.result);
        ctx.write(self.out_valid, u64::from(o.out_valid));
        ctx.write(self.res_nc, u64::from(o.res_next_cycle));
    }
}

struct FirStimulus {
    clk: SignalId,
    det: EdgeDetector,
    workload: FirWorkload,
    in_valid: SignalId,
    sample: SignalId,
}

impl Component for FirStimulus {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        if !self.det.is_falling(ctx.read(self.clk)) {
            return;
        }
        let target_edge = ev.time.as_ns() / CLOCK_PERIOD_NS + 1;
        match self.workload.sample_at_edge(target_edge) {
            Some(s) => {
                ctx.write(self.in_valid, 1);
                ctx.write(self.sample, s);
            }
            None => ctx.write(self.in_valid, 0),
        }
    }
}

/// Builds the FIR RTL simulation for a workload, with `fault` injected.
///
/// # Errors
///
/// Whatever [`check`] rejects for FIR at RTL.
pub fn build_rtl(workload: &FirWorkload, fault: Fault) -> Result<BuiltDesign, BuildError> {
    check(DesignKind::Fir, AbsLevel::Rtl, fault)?;
    let mut sim = Simulation::new();
    sim.reserve_signals(10); // pin list + clock, registered in one burst
    let clk = Clock::install(&mut sim, "clk", CLOCK_PERIOD_NS);
    let in_valid = sim.add_signal("in_valid", 0);
    let sample = sim.add_signal("sample", 0);
    let result = sim.add_signal("result", 0);
    let out_valid = sim.add_signal("out_valid", 0);
    let res_nc = sim.add_signal("res_next_cycle", 0);

    let dut = sim.add_component(FirRtl {
        clk: clk.signal,
        det: EdgeDetector::new(),
        core: FirCore::new(fault),
        in_valid,
        sample,
        result,
        out_valid,
        res_nc,
    });
    sim.subscribe(clk.signal, dut, 0);

    let stim = sim.add_component(FirStimulus {
        clk: clk.signal,
        det: EdgeDetector::new(),
        workload: workload.clone(),
        in_valid,
        sample,
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
    use super::super::core::reference;
    use super::*;
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

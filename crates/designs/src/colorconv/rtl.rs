//! The ColorConv RTL model: clocked pipeline plus stimulus generator.

use desim::{Component, Event, SignalId, SimCtx, Simulation};
use rtlkit::{Clock, EdgeDetector};

use super::core::ColorConvCore;
use super::workload::ConvWorkload;
use crate::{check, AbsLevel, BuildError, BuiltDesign, DesignKind, Fault, CLOCK_PERIOD_NS};

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

/// The clocked ColorConv design: one [`ColorConvCore`] step per rising
/// edge.
struct ColorConvRtl {
    clk: SignalId,
    det: EdgeDetector,
    core: ColorConvCore,
    px_valid: SignalId,
    r: SignalId,
    g: SignalId,
    b: SignalId,
    y: SignalId,
    cb: SignalId,
    cr: SignalId,
    out_valid: SignalId,
    ov_nc: SignalId,
}

impl Component for ColorConvRtl {
    fn handle(&mut self, _ev: Event, ctx: &mut SimCtx<'_>) {
        let v = ctx.read(self.clk);
        if !self.det.is_rising(v) {
            return;
        }
        let px_valid = ctx.read(self.px_valid) != 0;
        let r = ctx.read(self.r) as u8;
        let g = ctx.read(self.g) as u8;
        let b = ctx.read(self.b) as u8;
        let o = self.core.step(px_valid, r, g, b);
        ctx.write(self.y, o.y);
        ctx.write(self.cb, o.cb);
        ctx.write(self.cr, o.cr);
        ctx.write(self.out_valid, u64::from(o.out_valid));
        ctx.write(self.ov_nc, u64::from(o.ov_next_cycle));
    }
}

/// Drives the pixel stream onto the design inputs at falling edges.
struct ConvStimulus {
    clk: SignalId,
    det: EdgeDetector,
    workload: ConvWorkload,
    px_valid: SignalId,
    r: SignalId,
    g: SignalId,
    b: SignalId,
}

impl Component for ConvStimulus {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        let v = ctx.read(self.clk);
        if !self.det.is_falling(v) {
            return;
        }
        let target_edge = ev.time.as_ns() / CLOCK_PERIOD_NS + 1;
        match self.workload.pixel_at_edge(target_edge) {
            Some(px) => {
                ctx.write(self.px_valid, 1);
                ctx.write(self.r, u64::from(px.r));
                ctx.write(self.g, u64::from(px.g));
                ctx.write(self.b, u64::from(px.b));
            }
            None => ctx.write(self.px_valid, 0),
        }
    }
}

/// Builds the ColorConv RTL simulation for a workload, with `fault`
/// injected.
///
/// # Errors
///
/// Whatever [`check`] rejects for ColorConv at RTL.
pub fn build_rtl(workload: &ConvWorkload, fault: Fault) -> Result<BuiltDesign, BuildError> {
    check(DesignKind::ColorConv, AbsLevel::Rtl, fault)?;
    let mut sim = Simulation::new();
    sim.reserve_signals(10); // pin list + clock, registered in one burst
    let clk = Clock::install(&mut sim, "clk", CLOCK_PERIOD_NS);
    let px_valid = sim.add_signal("px_valid", 0);
    let r = sim.add_signal("r", 0);
    let g = sim.add_signal("g", 0);
    let b = sim.add_signal("b", 0);
    let y = sim.add_signal("y", 0);
    let cb = sim.add_signal("cb", 0);
    let cr = sim.add_signal("cr", 0);
    let out_valid = sim.add_signal("out_valid", 0);
    let ov_nc = sim.add_signal("ov_next_cycle", 0);

    let dut = sim.add_component(ColorConvRtl {
        clk: clk.signal,
        det: EdgeDetector::new(),
        core: ColorConvCore::new(fault),
        px_valid,
        r,
        g,
        b,
        y,
        cb,
        cr,
        out_valid,
        ov_nc,
    });
    sim.subscribe(clk.signal, dut, 0);

    let stim = sim.add_component(ConvStimulus {
        clk: clk.signal,
        det: EdgeDetector::new(),
        workload: workload.clone(),
        px_valid,
        r,
        g,
        b,
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
    use super::super::algo;
    use super::super::workload::Pixel;
    use super::*;
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

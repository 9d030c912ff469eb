//! The ColorConv TLM models: cycle-accurate and approximately-timed.

use desim::{Component, Event, SignalId, SimCtx, SimTime, Simulation};
use tlmkit::{Transaction, TransactionBus};

use super::core::ColorConvCore;
use super::workload::ConvWorkload;
use crate::{check, AbsLevel, BuildError, BuiltDesign, DesignKind, Fault, CLOCK_PERIOD_NS};

/// Mirror signals preserved at TLM-CA (full protocol).
pub const TLM_CA_SIGNALS: &[&str] = &[
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

/// Mirror signals preserved at TLM-AT (the pipeline prediction output is
/// abstracted away).
pub const TLM_AT_SIGNALS: &[&str] = &["px_valid", "r", "g", "b", "y", "cb", "cr", "out_valid"];

/// The TLM-CA model: one transaction per clock period, stepping the same
/// cycle core as RTL.
struct ConvTlmCa {
    bus: TransactionBus,
    core: ColorConvCore,
    workload: ConvWorkload,
    edge: u64,
    last_edge: u64,
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

impl Component for ConvTlmCa {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        self.edge += 1;
        let pixel = self.workload.pixel_at_edge(self.edge);
        let valid = pixel.is_some();
        let (r, g, b) = pixel.map_or((0, 0, 0), |p| (p.r, p.g, p.b));
        let o = self.core.step(valid, r, g, b);

        ctx.write(self.px_valid, u64::from(valid));
        if let Some(p) = pixel {
            ctx.write(self.r, u64::from(p.r));
            ctx.write(self.g, u64::from(p.g));
            ctx.write(self.b, u64::from(p.b));
        }
        ctx.write(self.y, o.y);
        ctx.write(self.cb, o.cb);
        ctx.write(self.cr, o.cr);
        ctx.write(self.out_valid, u64::from(o.out_valid));
        ctx.write(self.ov_nc, u64::from(o.ov_next_cycle));

        let tx = if valid {
            Transaction::write(
                0,
                u64::from(r) << 16 | u64::from(g) << 8 | u64::from(b),
                ev.time,
            )
        } else {
            Transaction::read(0, o.y, ev.time)
        };
        self.bus.publish(ctx, tx);

        if self.edge < self.last_edge {
            ctx.schedule_self(CLOCK_PERIOD_NS, 0);
        }
    }
}

/// Builds the ColorConv TLM-CA simulation for a workload, with `fault`
/// injected.
///
/// # Errors
///
/// Whatever [`check`] rejects for ColorConv at TLM-CA.
pub fn build_tlm_ca(workload: &ConvWorkload, fault: Fault) -> Result<BuiltDesign, BuildError> {
    check(DesignKind::ColorConv, AbsLevel::TlmCa, fault)?;
    let mut sim = Simulation::new();
    let bus = TransactionBus::new();
    let px_valid = sim.add_signal("px_valid", 0);
    let r = sim.add_signal("r", 0);
    let g = sim.add_signal("g", 0);
    let b = sim.add_signal("b", 0);
    let y = sim.add_signal("y", 0);
    let cb = sim.add_signal("cb", 0);
    let cr = sim.add_signal("cr", 0);
    let out_valid = sim.add_signal("out_valid", 0);
    let ov_nc = sim.add_signal("ov_next_cycle", 0);

    let model = sim.add_component(ConvTlmCa {
        bus: bus.clone(),
        core: ColorConvCore::new(fault),
        workload: workload.clone(),
        edge: 0,
        last_edge: workload.total_edges(),
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
    sim.schedule(SimTime::from_ns(CLOCK_PERIOD_NS), model, 0);

    Ok(BuiltDesign {
        sim,
        clk: None,
        bus: Some(bus),
        end_ns: workload.end_time_ns(),
    })
}

const OP_WRITE: u64 = 0;
const OP_READ: u64 = 1;
const OP_STROBE_RELEASE: u64 = 2;
const OP_VALID_CLEAR: u64 = 3;

/// The TLM-AT model: per pixel, one write transaction and one read
/// transaction at the RTL completion time (`t + 8 × period`); the strict
/// style adds the Def. III.1 transactions.
struct ConvTlmAt {
    bus: TransactionBus,
    fault: Fault,
    workload: ConvWorkload,
    strict: bool,
    px_valid: SignalId,
    r: SignalId,
    g: SignalId,
    b: SignalId,
    y: SignalId,
    cb: SignalId,
    cr: SignalId,
    out_valid: SignalId,
}

impl ConvTlmAt {
    fn read_delay_ns(&self) -> u64 {
        let cycles = match self.fault {
            Fault::LatencyShort => 7,
            Fault::LatencyLong => 9,
            _ => 8,
        };
        cycles * CLOCK_PERIOD_NS
    }
}

impl Component for ConvTlmAt {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        let op = ev.kind & 0b11;
        let index = (ev.kind >> 2) as usize;
        match op {
            OP_WRITE => {
                let px = self.workload.pixels[index];
                ctx.write(self.px_valid, 1);
                ctx.write(self.r, u64::from(px.r));
                ctx.write(self.g, u64::from(px.g));
                ctx.write(self.b, u64::from(px.b));
                ctx.write(
                    self.out_valid,
                    u64::from(matches!(self.fault, Fault::StuckControl)),
                );
                self.bus.publish(
                    ctx,
                    Transaction::write(
                        0,
                        u64::from(px.r) << 16 | u64::from(px.g) << 8 | u64::from(px.b),
                        ev.time,
                    ),
                );
                let swallowed = matches!(self.fault, Fault::DropTransaction) && index == 1;
                if !swallowed {
                    ctx.schedule_self(self.read_delay_ns(), (ev.kind & !0b11) | OP_READ);
                }
                if self.strict {
                    ctx.schedule_self(CLOCK_PERIOD_NS, (ev.kind & !0b11) | OP_STROBE_RELEASE);
                }
            }
            OP_STROBE_RELEASE => {
                ctx.write(self.px_valid, 0);
                self.bus.publish(ctx, Transaction::write(0, 0, ev.time));
            }
            OP_READ => {
                let px = self.workload.pixels[index];
                let res = ColorConvCore::convert(self.fault, px.r, px.g, px.b);
                ctx.write(self.px_valid, 0);
                ctx.write(self.y, u64::from(res.y));
                ctx.write(self.cb, u64::from(res.cb));
                ctx.write(self.cr, u64::from(res.cr));
                if !matches!(self.fault, Fault::DropReady) {
                    ctx.write(self.out_valid, 1);
                }
                self.bus
                    .publish(ctx, Transaction::read(0, u64::from(res.y), ev.time));
                if self.strict {
                    ctx.schedule_self(CLOCK_PERIOD_NS, (ev.kind & !0b11) | OP_VALID_CLEAR);
                }
            }
            OP_VALID_CLEAR => {
                ctx.write(self.out_valid, 0);
                self.bus.publish(ctx, Transaction::read(0, 0, ev.time));
            }
            _ => unreachable!("2-bit op"),
        }
    }
}

/// Builds the ColorConv TLM-AT simulation for a workload, with `fault`
/// injected: the paper's loose model, or with `strict` the strict Def.
/// III.1 model (DESIGN.md §5b).
///
/// # Errors
///
/// Whatever [`check`] rejects for ColorConv at TLM-AT.
pub fn build_tlm_at(
    workload: &ConvWorkload,
    fault: Fault,
    strict: bool,
) -> Result<BuiltDesign, BuildError> {
    check(DesignKind::ColorConv, AbsLevel::TlmAt, fault)?;
    let mut sim = Simulation::new();
    let bus = TransactionBus::new();
    let px_valid = sim.add_signal("px_valid", 0);
    let r = sim.add_signal("r", 0);
    let g = sim.add_signal("g", 0);
    let b = sim.add_signal("b", 0);
    let y = sim.add_signal("y", 0);
    let cb = sim.add_signal("cb", 0);
    let cr = sim.add_signal("cr", 0);
    let out_valid = sim.add_signal("out_valid", 0);

    let model = sim.add_component(ConvTlmAt {
        bus: bus.clone(),
        fault,
        workload: workload.clone(),
        strict,
        px_valid,
        r,
        g,
        b,
        y,
        cb,
        cr,
        out_valid,
    });
    for i in 0..workload.pixels.len() {
        let kind = ((i as u64) << 2) | OP_WRITE;
        sim.schedule(SimTime::from_ns(workload.request_time_ns(i)), model, kind);
    }

    Ok(BuiltDesign {
        sim,
        clk: None,
        bus: Some(bus),
        end_ns: workload.end_time_ns(),
    })
}

/// Mirror signals of the **bulk** TLM-AT model: per-pixel handshake is
/// fully abstracted; only frame-level signals and the last converted
/// pixel remain observable.
pub const TLM_AT_BULK_SIGNALS: &[&str] = &[
    "frame_start",
    "frame_done",
    "npixels",
    "y",
    "cb",
    "cr",
    "out_valid",
    "checksum",
];

/// The bulk-granularity TLM-AT model: **one write transaction for the
/// whole pixel stream and one read transaction for all results**, exactly
/// as Section V of the paper describes its approximately-timed models.
///
/// The entire conversion runs functionally inside the read transaction;
/// the base simulation cost is therefore dominated by data processing
/// while the event count is constant — which is what pushes checker
/// overhead towards the paper's single-digit percentages (EXPERIMENTS.md,
/// deviation D1). The price is observability: per-pixel properties have
/// nothing left to watch, only frame-level and last-pixel range checks
/// remain meaningful.
struct ConvTlmAtBulk {
    bus: TransactionBus,
    fault: Fault,
    workload: ConvWorkload,
    frame_start: SignalId,
    frame_done: SignalId,
    npixels: SignalId,
    y: SignalId,
    cb: SignalId,
    cr: SignalId,
    out_valid: SignalId,
    checksum: SignalId,
}

impl Component for ConvTlmAtBulk {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        match ev.kind {
            OP_WRITE => {
                ctx.write(self.frame_start, 1);
                ctx.write(self.npixels, self.workload.pixels.len() as u64);
                self.bus.publish(
                    ctx,
                    Transaction::write(0, self.workload.pixels.len() as u64, ev.time),
                );
                // Read completes when the RTL model would emit the last pixel.
                let last = self.workload.pixels.len() - 1;
                let done_ns = self.workload.request_time_ns(last) + 8 * CLOCK_PERIOD_NS;
                ctx.schedule_self(done_ns - ev.time.as_ns(), OP_READ);
            }
            OP_READ => {
                // Convert the whole frame functionally; a running checksum
                // over every converted pixel is mirrored alongside the last
                // pixel's channels, so the full result buffer is computed
                // and observable.
                let mut last = None;
                let mut checksum: u64 = 0;
                for px in &self.workload.pixels {
                    let res = ColorConvCore::convert(self.fault, px.r, px.g, px.b);
                    checksum = checksum.rotate_left(7).wrapping_add(
                        u64::from(res.y) << 16 | u64::from(res.cb) << 8 | u64::from(res.cr),
                    );
                    last = Some(res);
                }
                let res = last.expect("non-empty workload");
                ctx.write(self.checksum, checksum);
                ctx.write(self.frame_start, 0);
                ctx.write(self.frame_done, 1);
                ctx.write(self.y, u64::from(res.y));
                ctx.write(self.cb, u64::from(res.cb));
                ctx.write(self.cr, u64::from(res.cr));
                if !matches!(self.fault, Fault::DropReady) {
                    ctx.write(self.out_valid, 1);
                }
                self.bus
                    .publish(ctx, Transaction::read(0, u64::from(res.y), ev.time));
            }
            _ => unreachable!("bulk model only schedules write/read"),
        }
    }
}

/// Builds the bulk-granularity ColorConv TLM-AT simulation: exactly two
/// transactions for the whole workload — one write submitting the frame,
/// one read returning all results (with checksum) at the instant the RTL
/// model would emit the last pixel.
///
/// # Errors
///
/// Whatever [`check`] rejects for ColorConv at bulk-AT.
///
/// # Panics
///
/// Panics if the workload is empty.
pub fn build_tlm_at_bulk(workload: &ConvWorkload, fault: Fault) -> Result<BuiltDesign, BuildError> {
    check(DesignKind::ColorConv, AbsLevel::TlmAtBulk, fault)?;
    assert!(
        !workload.pixels.is_empty(),
        "bulk model needs at least one pixel"
    );
    let mut sim = Simulation::new();
    let bus = TransactionBus::new();
    let frame_start = sim.add_signal("frame_start", 0);
    let frame_done = sim.add_signal("frame_done", 0);
    let npixels = sim.add_signal("npixels", 0);
    let y = sim.add_signal("y", 0);
    let cb = sim.add_signal("cb", 0);
    let cr = sim.add_signal("cr", 0);
    let out_valid = sim.add_signal("out_valid", 0);
    let checksum = sim.add_signal("checksum", 0);

    let model = sim.add_component(ConvTlmAtBulk {
        bus: bus.clone(),
        fault,
        workload: workload.clone(),
        frame_start,
        frame_done,
        npixels,
        y,
        cb,
        cr,
        out_valid,
        checksum,
    });
    sim.schedule(
        SimTime::from_ns(workload.request_time_ns(0)),
        model,
        OP_WRITE,
    );

    Ok(BuiltDesign {
        sim,
        clk: None,
        bus: Some(bus),
        end_ns: workload.end_time_ns(),
    })
}

/// The ColorConv properties that survive at the bulk granularity: range
/// checks over the (last) converted pixel, evaluated at `T_b`.
#[must_use]
pub fn bulk_surviving_properties() -> Vec<(String, psl::ClockedProperty)> {
    ["c4", "c5", "c6", "c7"]
        .iter()
        .zip([
            "always (!out_valid || y >= 16) @T_b",
            "always (!out_valid || y <= 235) @T_b",
            "always (!out_valid || (cb >= 16 && cb <= 240)) @T_b",
            "always (!out_valid || (cr >= 16 && cr <= 240)) @T_b",
        ])
        .map(|(n, src)| ((*n).to_owned(), src.parse().expect("parses")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::algo;
    use super::super::workload::Pixel;
    use super::*;
    use psl::SignalEnv;
    use tlmkit::TxTraceRecorder;

    fn one_pixel() -> ConvWorkload {
        ConvWorkload::new(vec![Pixel {
            r: 10,
            g: 200,
            b: 99,
        }])
    }

    #[test]
    fn tlm_ca_one_transaction_per_cycle() {
        let w = one_pixel();
        let mut built = build_tlm_ca(&w, Fault::None).unwrap();
        built.run();
        assert_eq!(built.bus.as_ref().unwrap().published(), w.total_edges());
    }

    #[test]
    fn tlm_ca_matches_rtl_completion_time() {
        let w = one_pixel();
        let mut built = build_tlm_ca(&w, Fault::None).unwrap();
        let rec =
            TxTraceRecorder::install(&mut built.sim, built.bus.as_ref().unwrap(), TLM_CA_SIGNALS);
        built.run();
        let trace = TxTraceRecorder::take_trace(&built.sim, rec);
        // Pixel at edge 2 (t=20); out_valid at t = (2+8)*10 = 100.
        let pos = trace.position_at_time(100).expect("transaction at 100ns");
        assert_eq!(trace.steps()[pos].signal("out_valid"), Some(1));
        let e = algo::convert(10, 200, 99);
        assert_eq!(trace.steps()[pos].signal("y"), Some(u64::from(e.y)));
    }

    #[test]
    fn tlm_at_loose_two_transactions_per_pixel() {
        let w = one_pixel();
        let mut built = build_tlm_at(&w, Fault::None, false).unwrap();
        let rec =
            TxTraceRecorder::install(&mut built.sim, built.bus.as_ref().unwrap(), TLM_AT_SIGNALS);
        built.run();
        assert_eq!(built.bus.as_ref().unwrap().published(), 2);
        let trace = TxTraceRecorder::take_trace(&built.sim, rec);
        assert_eq!(trace.steps()[0].time_ns, 20);
        assert_eq!(trace.steps()[1].time_ns, 100);
        assert_eq!(trace.steps()[1].signal("out_valid"), Some(1));
        let e = algo::convert(10, 200, 99);
        assert_eq!(trace.steps()[1].signal("cb"), Some(u64::from(e.cb)));
    }

    #[test]
    fn tlm_at_strict_four_transactions_per_pixel() {
        let w = one_pixel();
        let mut built = build_tlm_at(&w, Fault::None, true).unwrap();
        built.run();
        assert_eq!(built.bus.as_ref().unwrap().published(), 4);
    }

    #[test]
    fn bulk_model_two_transactions_total() {
        let w = ConvWorkload::mixed(25, 6);
        let mut built = build_tlm_at_bulk(&w, Fault::None).unwrap();
        let rec = TxTraceRecorder::install(
            &mut built.sim,
            built.bus.as_ref().unwrap(),
            TLM_AT_BULK_SIGNALS,
        );
        built.run();
        assert_eq!(
            built.bus.as_ref().unwrap().published(),
            2,
            "one write + one read for the whole frame"
        );
        let trace = TxTraceRecorder::take_trace(&built.sim, rec);
        assert_eq!(trace.steps()[0].signal("frame_start"), Some(1));
        assert_eq!(trace.steps()[0].signal("npixels"), Some(25));
        assert_eq!(trace.steps()[1].signal("frame_done"), Some(1));
        // Read lands when the RTL model would emit the last pixel.
        assert_eq!(trace.steps()[1].time_ns, w.request_time_ns(24) + 80);
        let last = w.pixels[24];
        let expect = algo::convert(last.r, last.g, last.b);
        assert_eq!(trace.steps()[1].signal("y"), Some(u64::from(expect.y)));
    }

    #[test]
    fn bulk_surviving_properties_pass() {
        use abv_checker::Checker;
        let w = ConvWorkload::mixed(10, 8);
        let mut built = build_tlm_at_bulk(&w, Fault::None).unwrap();
        let binding = built.binding();
        let checkers = Checker::attach_all(&mut built.sim, &bulk_surviving_properties(), binding)
            .expect("installs");
        built.run();
        let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
        assert!(report.all_pass(), "{report}");
    }

    #[test]
    fn bulk_catches_corrupt_luma() {
        use abv_checker::Checker;
        let w = ConvWorkload::mixed(10, 8);
        let mut built = build_tlm_at_bulk(&w, Fault::CorruptData).unwrap();
        let binding = built.binding();
        let checkers = Checker::attach_all(&mut built.sim, &bulk_surviving_properties(), binding)
            .expect("installs");
        built.run();
        let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
        assert!(report.property("c4").expect("c4").failure_count > 0);
    }

    #[test]
    fn at_drop_pixel_swallows_the_second_request() {
        let w = ConvWorkload::new(vec![
            Pixel { r: 1, g: 2, b: 3 },
            Pixel { r: 4, g: 5, b: 6 },
            Pixel { r: 7, g: 8, b: 9 },
        ]);
        let mut built = build_tlm_at(&w, Fault::DropTransaction, false).unwrap();
        built.run();
        // Three writes, two completions: pixel 1 never converts.
        assert_eq!(built.bus.as_ref().unwrap().published(), 5);
    }

    #[test]
    fn at_stuck_valid_raises_out_valid_at_the_request() {
        let w = one_pixel();
        let mut built = build_tlm_at(&w, Fault::StuckControl, false).unwrap();
        let rec =
            TxTraceRecorder::install(&mut built.sim, built.bus.as_ref().unwrap(), TLM_AT_SIGNALS);
        built.run();
        let trace = TxTraceRecorder::take_trace(&built.sim, rec);
        assert_eq!(trace.steps()[0].signal("px_valid"), Some(1));
        assert_eq!(trace.steps()[0].signal("out_valid"), Some(1));
        assert_eq!(trace.steps()[0].signal("y"), Some(0), "no result yet");
    }

    #[test]
    fn corrupt_luma_visible_at_read() {
        let w = one_pixel();
        let mut built = build_tlm_at(&w, Fault::CorruptData, false).unwrap();
        let rec =
            TxTraceRecorder::install(&mut built.sim, built.bus.as_ref().unwrap(), TLM_AT_SIGNALS);
        built.run();
        let trace = TxTraceRecorder::take_trace(&built.sim, rec);
        assert_eq!(trace.steps()[1].signal("y"), Some(0));
    }
}

//! The ColorConv core behind every ColorConv model: the RTL and TLM-CA
//! shells step it once per clock cycle, the TLM-AT shell asks it for
//! untimed results.
//!
//! An 8-stage pipeline with a throughput of one pixel per cycle and a
//! latency of 8 cycles: a pixel whose `px_valid` is sampled at edge `e0`
//! appears on `y`/`cb`/`cr` with `out_valid` at edge `e8`; the
//! `ov_next_cycle` prediction output rises at `e7`.
//!
//! The conversion arithmetic is split across the pipeline stages the way
//! the RTL implementation would be (products, blue terms, rounding, shift,
//! offset, clamp, output register), so every stage does real per-cycle
//! work and the final result equals [`algo::convert`] exactly.

use super::algo::{self, Ycbcr};
use super::rtl::RTL_SIGNALS;
use super::workload::Pixel;
use crate::cycle::CycleCore;
use crate::{DesignKind, Fault};

/// Work item travelling down the pipeline.
#[derive(Debug, Clone, Copy)]
struct Work {
    r: i32,
    g: i32,
    b: i32,
    y: i32,
    cb: i32,
    cr: i32,
}

/// Applies the work of pipeline stage `stage` (1-based move into that
/// stage).
fn stage_fn(stage: usize, mut w: Work) -> Work {
    match stage {
        // Stage 2: red/green products.
        1 => {
            w.y = 66 * w.r + 129 * w.g;
            w.cb = -38 * w.r - 74 * w.g;
            w.cr = 112 * w.r - 94 * w.g;
        }
        // Stage 3: blue terms.
        2 => {
            w.y += 25 * w.b;
            w.cb += 112 * w.b;
            w.cr += -18 * w.b;
        }
        // Stage 4: rounding.
        3 => {
            w.y += 128;
            w.cb += 128;
            w.cr += 128;
        }
        // Stage 5: shift.
        4 => {
            w.y >>= 8;
            w.cb >>= 8;
            w.cr >>= 8;
        }
        // Stage 6: offsets.
        5 => {
            w.y += 16;
            w.cb += 128;
            w.cr += 128;
        }
        // Stage 7: clamp.
        6 => {
            w.y = w.y.clamp(16, 235);
            w.cb = w.cb.clamp(16, 240);
            w.cr = w.cr.clamp(16, 240);
        }
        // Stages 1 (capture) and 8 (output register): pass-through.
        _ => {}
    }
    w
}

/// Output interface of the core, one sample per cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvOutputs {
    /// Converted luma (holds its value once produced).
    pub y: u64,
    /// Converted blue-difference chroma.
    pub cb: u64,
    /// Converted red-difference chroma.
    pub cr: u64,
    /// One-cycle output strobe.
    pub out_valid: bool,
    /// Prediction: `out_valid` will rise at the next cycle.
    pub ov_next_cycle: bool,
}

/// Cycle-accurate 8-stage ColorConv pipeline.
#[derive(Debug, Clone)]
pub struct ColorConvCore {
    fault: Fault,
    pipe: [Option<Work>; 9],
    /// Pixels accepted so far (drives [`Fault::DropTransaction`]).
    seen: u32,
    outputs: ConvOutputs,
}

impl ColorConvCore {
    /// A core with `fault` injected ([`Fault::None`] for the correct
    /// design):
    ///
    /// - latency faults shorten or lengthen the pipe to 7 or 9 stages;
    /// - [`Fault::CorruptData`] zeroes the luma, out of studio range;
    /// - [`Fault::BitFlip`] flips luma bit `bit % 8` after the clamp;
    /// - [`Fault::DropReady`] never asserts `out_valid`,
    ///   [`Fault::StuckControl`] holds it at 1 every cycle;
    /// - [`Fault::DropTransaction`] keeps the second accepted pixel out of
    ///   the pipeline.
    ///
    /// [`Fault::DuplicateTransaction`] is outside the ColorConv catalogue
    /// and has no effect here; the builders reject it.
    #[must_use]
    pub fn new(fault: Fault) -> ColorConvCore {
        ColorConvCore {
            fault,
            pipe: [None; 9],
            seen: 0,
            outputs: ConvOutputs::default(),
        }
    }

    /// True while any pixel is in flight.
    #[must_use]
    pub fn busy(&self) -> bool {
        self.pipe.iter().any(Option::is_some)
    }

    /// Executes one clock cycle with the given input pins; returns the
    /// output pins as visible at this cycle's (postponed) sample.
    pub fn step(&mut self, px_valid: bool, r: u8, g: u8, b: u8) -> ConvOutputs {
        let depth = match self.fault {
            Fault::LatencyShort => 7,
            Fault::LatencyLong => 9,
            _ => 8,
        };

        // Shift the pipeline: the item leaving the last used stage exits.
        let exiting = self.pipe[depth - 1].take();
        for stage in (1..depth).rev() {
            self.pipe[stage] = self.pipe[stage - 1].take().map(|w| stage_fn(stage, w));
        }
        self.pipe[0] = if px_valid {
            let drop = matches!(self.fault, Fault::DropTransaction) && self.seen == 1;
            self.seen += 1;
            (!drop).then(|| Work {
                r: i32::from(r),
                g: i32::from(g),
                b: i32::from(b),
                y: 0,
                cb: 0,
                cr: 0,
            })
        } else {
            None
        };

        self.outputs.out_valid = false;
        if let Some(mut w) = exiting {
            // Late/early pipelines still finish the arithmetic.
            for stage in depth..=7 {
                w = stage_fn(stage, w);
            }
            match self.fault {
                Fault::CorruptData => w.y = 0,
                Fault::BitFlip { bit } => w.y ^= 1 << (bit % 8),
                _ => {}
            }
            self.outputs.y = w.y as u64;
            self.outputs.cb = w.cb as u64;
            self.outputs.cr = w.cr as u64;
            self.outputs.out_valid = !matches!(self.fault, Fault::DropReady);
        }
        if matches!(self.fault, Fault::StuckControl) {
            self.outputs.out_valid = true;
        }
        self.outputs.ov_next_cycle = self.pipe[depth - 1].is_some();
        self.outputs
    }

    /// Converts one pixel functionally (the untimed path of the TLM-AT and
    /// bulk-AT models), applying the data faults.
    #[must_use]
    pub fn convert(fault: Fault, r: u8, g: u8, b: u8) -> Ycbcr {
        let mut px = algo::convert(r, g, b);
        match fault {
            Fault::CorruptData => px.y = 0,
            Fault::BitFlip { bit } => px.y ^= 1 << (bit % 8),
            _ => {}
        }
        px
    }
}

impl CycleCore for ColorConvCore {
    type Request = Pixel;
    const DESIGN: DesignKind = DesignKind::ColorConv;
    const PINS: &'static [&'static str] = RTL_SIGNALS;
    const DATA_INPUTS: usize = 3;
    const LATENCY: u64 = 8;
    const DEFAULT_GAP: u64 = 10;

    fn with_fault(fault: Fault) -> ColorConvCore {
        ColorConvCore::new(fault)
    }

    fn drive(px: Pixel, data: &mut [u64]) {
        data[0] = u64::from(px.r);
        data[1] = u64::from(px.g);
        data[2] = u64::from(px.b);
    }

    fn payload(px: Pixel) -> u64 {
        u64::from(px.r) << 16 | u64::from(px.g) << 8 | u64::from(px.b)
    }

    fn step_pins(&mut self, px_valid: bool, data: &[u64], outputs: &mut [u64]) {
        let o = self.step(px_valid, data[0] as u8, data[1] as u8, data[2] as u8);
        outputs[0] = o.y;
        outputs[1] = o.cb;
        outputs[2] = o.cr;
        outputs[3] = u64::from(o.out_valid);
        outputs[4] = u64::from(o.ov_next_cycle);
    }

    fn elaborate(&mut self, px: Pixel, outputs: &mut [u64]) {
        let res = ColorConvCore::convert(self.fault, px.r, px.g, px.b);
        outputs[0] = u64::from(res.y);
        outputs[1] = u64::from(res.cb);
        outputs[2] = u64::from(res.cr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_single(core: &mut ColorConvCore, r: u8, g: u8, b: u8, cycles: u32) -> Vec<ConvOutputs> {
        (0..cycles).map(|c| core.step(c == 0, r, g, b)).collect()
    }

    #[test]
    fn latency_is_8_cycles() {
        let mut core = ColorConvCore::new(Fault::None);
        let outs = run_single(&mut core, 10, 20, 30, 12);
        for (cycle, o) in outs.iter().enumerate() {
            assert_eq!(o.out_valid, cycle == 8, "out_valid wrong at cycle {cycle}");
            assert_eq!(o.ov_next_cycle, cycle == 7, "ov_nc wrong at cycle {cycle}");
        }
    }

    #[test]
    fn pipeline_result_matches_reference() {
        for (r, g, b) in [(0, 0, 0), (255, 255, 255), (0, 255, 0), (12, 200, 99)] {
            let mut core = ColorConvCore::new(Fault::None);
            let outs = run_single(&mut core, r, g, b, 10);
            let expect = algo::convert(r, g, b);
            assert_eq!(outs[8].y, u64::from(expect.y), "({r},{g},{b})");
            assert_eq!(outs[8].cb, u64::from(expect.cb));
            assert_eq!(outs[8].cr, u64::from(expect.cr));
        }
    }

    #[test]
    fn full_throughput_back_to_back() {
        let mut core = ColorConvCore::new(Fault::None);
        let pixels: Vec<(u8, u8, u8)> = (0..20)
            .map(|i| (i as u8, 2 * i as u8, 255 - i as u8))
            .collect();
        let mut outputs = Vec::new();
        for c in 0..30 {
            let (valid, (r, g, b)) = match pixels.get(c) {
                Some(&p) => (true, p),
                None => (false, (0, 0, 0)),
            };
            let o = core.step(valid, r, g, b);
            if o.out_valid {
                outputs.push((o.y, o.cb, o.cr));
            }
        }
        assert_eq!(
            outputs.len(),
            20,
            "one result per cycle once the pipe fills"
        );
        for (i, &(y, cb, cr)) in outputs.iter().enumerate() {
            let e = algo::convert(pixels[i].0, pixels[i].1, pixels[i].2);
            assert_eq!(
                (y, cb, cr),
                (u64::from(e.y), u64::from(e.cb), u64::from(e.cr))
            );
        }
    }

    #[test]
    fn latency_mutations_shift_output() {
        let mut short = ColorConvCore::new(Fault::LatencyShort);
        let outs = run_single(&mut short, 1, 2, 3, 12);
        assert!(outs[7].out_valid && !outs[8].out_valid);
        let expect = algo::convert(1, 2, 3);
        assert_eq!(
            outs[7].y,
            u64::from(expect.y),
            "short pipe still computes correctly"
        );

        let mut long = ColorConvCore::new(Fault::LatencyLong);
        let outs = run_single(&mut long, 1, 2, 3, 12);
        assert!(!outs[8].out_valid && outs[9].out_valid);
        assert_eq!(outs[9].y, u64::from(expect.y));
    }

    #[test]
    fn corrupt_luma_violates_range() {
        let mut core = ColorConvCore::new(Fault::CorruptData);
        let outs = run_single(&mut core, 100, 100, 100, 10);
        assert!(outs[8].out_valid);
        assert_eq!(outs[8].y, 0);
    }

    #[test]
    fn drop_valid_never_strobes() {
        let mut core = ColorConvCore::new(Fault::DropReady);
        let outs = run_single(&mut core, 100, 100, 100, 12);
        assert!(outs.iter().all(|o| !o.out_valid));
    }

    #[test]
    fn stuck_valid_strobes_every_cycle() {
        let mut core = ColorConvCore::new(Fault::StuckControl);
        let outs = run_single(&mut core, 100, 100, 100, 12);
        assert!(outs.iter().all(|o| o.out_valid));
        let expect = algo::convert(100, 100, 100);
        assert_eq!(outs[8].y, u64::from(expect.y), "data path is untouched");
    }

    #[test]
    fn drop_pixel_swallows_the_second_pixel() {
        let mut core = ColorConvCore::new(Fault::DropTransaction);
        let mut strobes = Vec::new();
        for c in 0..30 {
            let o = core.step(c < 3, 10, 20, 30);
            if o.out_valid {
                strobes.push(c);
            }
        }
        assert_eq!(strobes, vec![8, 10], "pixel 1 never exits");
    }

    #[test]
    fn flip_luma_perturbs_every_black_pixel() {
        for bit in 0..8 {
            let mut core = ColorConvCore::new(Fault::BitFlip { bit });
            let outs = run_single(&mut core, 0, 0, 0, 10);
            assert!(outs[8].out_valid);
            assert_ne!(outs[8].y, 16, "bit {bit} leaves black luma intact");
            let px = ColorConvCore::convert(Fault::BitFlip { bit }, 0, 0, 0);
            assert_eq!(u64::from(px.y), outs[8].y, "functional path agrees");
        }
    }

    #[test]
    fn busy_tracks_pipeline_occupancy() {
        let mut core = ColorConvCore::new(Fault::None);
        assert!(!core.busy());
        core.step(true, 1, 1, 1);
        assert!(core.busy());
        for _ in 0..9 {
            core.step(false, 0, 0, 0);
        }
        assert!(!core.busy());
    }
}

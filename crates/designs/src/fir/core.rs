//! The cycle-stepping FIR core shared by the RTL and TLM-CA models.
//!
//! A 4-tap transposed-form FIR: a sample strobed at edge `e0` produces its
//! filtered output at edge `e5` (capture, four multiply-accumulate stages,
//! output register). Samples may arrive back-to-back (throughput 1).

use crate::Fault;

/// The fixed filter taps (Q8 fixed point: a gentle low-pass).
pub const TAPS: [u32; 4] = [32, 96, 96, 32];

/// Output interface of the core, one sample per cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FirOutputs {
    /// Filtered output (`Σ tap_i · x[n-i] >> 8`), valid with `out_valid`.
    pub result: u64,
    /// One-cycle result strobe.
    pub out_valid: bool,
    /// Prediction: `out_valid` rises at the next cycle.
    pub res_next_cycle: bool,
}

/// The reference (functional) filter over a sample history, newest first.
#[must_use]
pub fn reference(history: &[u64; 4]) -> u64 {
    let acc: u64 = TAPS
        .iter()
        .zip(history)
        .map(|(t, x)| u64::from(*t) * x)
        .sum();
    acc >> 8
}

/// Work item travelling down the MAC pipeline.
#[derive(Debug, Clone, Copy)]
struct Work {
    history: [u64; 4],
    acc: u64,
    stage: usize,
}

/// Cycle-accurate 4-tap FIR pipeline (latency 5).
#[derive(Debug, Clone)]
pub struct FirCore {
    fault: Fault,
    delay_line: [u64; 4],
    pipe: [Option<Work>; 5],
    /// Samples accepted so far (drives [`Fault::DropTransaction`]).
    seen: u32,
    outputs: FirOutputs,
}

impl FirCore {
    /// The design latency in clock cycles (strobe sample → result sample).
    pub const LATENCY: u32 = 5;

    /// A core with `fault` injected ([`Fault::None`] for the correct
    /// design):
    ///
    /// - [`Fault::LatencyShort`] shortens the pipe to 4 stages;
    /// - [`Fault::CorruptData`] sets result bit 16, above the 16-bit
    ///   output bound;
    /// - [`Fault::BitFlip`] flips result bit `16 + bit % 8`;
    /// - [`Fault::DropReady`] never asserts `out_valid`;
    /// - [`Fault::DropTransaction`] keeps the second accepted sample out of
    ///   the filter.
    ///
    /// The other faults are outside the FIR catalogue and have no effect
    /// here; the builders reject them.
    #[must_use]
    pub fn new(fault: Fault) -> FirCore {
        FirCore {
            fault,
            delay_line: [0; 4],
            pipe: [None; 5],
            seen: 0,
            outputs: FirOutputs::default(),
        }
    }

    /// Executes one clock cycle with the given input pins.
    pub fn step(&mut self, in_valid: bool, sample: u64) -> FirOutputs {
        let depth = match self.fault {
            Fault::LatencyShort => 4,
            _ => 5,
        };

        let exiting = self.pipe[depth - 1].take();
        for stage in (1..depth).rev() {
            self.pipe[stage] = self.pipe[stage - 1].take().map(|mut w| {
                // Stages 1..=4 each accumulate one tap.
                if (1..=4).contains(&w.stage) {
                    w.acc += u64::from(TAPS[w.stage - 1]) * w.history[w.stage - 1];
                }
                w.stage += 1;
                w
            });
        }
        if in_valid {
            let drop = matches!(self.fault, Fault::DropTransaction) && self.seen == 1;
            self.seen += 1;
            if !drop {
                self.delay_line.rotate_right(1);
                self.delay_line[0] = sample;
                self.pipe[0] = Some(Work {
                    history: self.delay_line,
                    acc: 0,
                    stage: 1,
                });
            }
        }

        self.outputs.out_valid = false;
        if let Some(mut w) = exiting {
            // A shortened pipe finishes the remaining taps combinationally.
            while w.stage <= 4 {
                w.acc += u64::from(TAPS[w.stage - 1]) * w.history[w.stage - 1];
                w.stage += 1;
            }
            let mut result = w.acc >> 8;
            match self.fault {
                Fault::CorruptData => result |= 1 << 16,
                Fault::BitFlip { bit } => result ^= 1 << (16 + bit % 8),
                _ => {}
            }
            self.outputs.result = result;
            self.outputs.out_valid = !matches!(self.fault, Fault::DropReady);
        }
        self.outputs.res_next_cycle = self.pipe[depth - 1].is_some();
        self.outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_single(core: &mut FirCore, sample: u64, cycles: u32) -> Vec<FirOutputs> {
        (0..cycles).map(|c| core.step(c == 0, sample)).collect()
    }

    #[test]
    fn latency_is_5_cycles() {
        let mut core = FirCore::new(Fault::None);
        let outs = run_single(&mut core, 256, 8);
        for (cycle, o) in outs.iter().enumerate() {
            assert_eq!(o.out_valid, cycle == 5, "cycle {cycle}");
            assert_eq!(o.res_next_cycle, cycle == 4, "cycle {cycle}");
        }
        // First sample: history = [256, 0, 0, 0].
        assert_eq!(outs[5].result, reference(&[256, 0, 0, 0]));
    }

    #[test]
    fn streaming_matches_reference() {
        let samples: Vec<u64> = (1..=20).map(|k| k * 37).collect();
        let mut core = FirCore::new(Fault::None);
        let mut results = Vec::new();
        for c in 0..30 {
            let (valid, sample) = match samples.get(c) {
                Some(&s) => (true, s),
                None => (false, 0),
            };
            let o = core.step(valid, sample);
            if o.out_valid {
                results.push(o.result);
            }
        }
        assert_eq!(results.len(), samples.len());
        let mut history = [0u64; 4];
        for (i, &s) in samples.iter().enumerate() {
            history.rotate_right(1);
            history[0] = s;
            assert_eq!(results[i], reference(&history), "sample {i}");
        }
    }

    #[test]
    fn latency_short_mutation() {
        let mut core = FirCore::new(Fault::LatencyShort);
        let outs = run_single(&mut core, 256, 8);
        assert!(outs[4].out_valid && !outs[5].out_valid);
        assert_eq!(
            outs[4].result,
            reference(&[256, 0, 0, 0]),
            "value still correct"
        );
    }

    #[test]
    fn corrupt_result_exceeds_output_bound() {
        let mut core = FirCore::new(Fault::CorruptData);
        let outs = run_single(&mut core, 256, 8);
        assert!(outs[5].out_valid);
        assert!(outs[5].result > 65535);
    }

    #[test]
    fn drop_valid_never_strobes() {
        let mut core = FirCore::new(Fault::DropReady);
        let outs = run_single(&mut core, 256, 8);
        assert!(outs.iter().all(|o| !o.out_valid));
    }

    #[test]
    fn drop_sample_swallows_the_second_sample() {
        let mut core = FirCore::new(Fault::DropTransaction);
        let mut strobes = Vec::new();
        for c in 0..20 {
            let o = core.step(c < 3, 512);
            if o.out_valid {
                strobes.push(c);
            }
        }
        assert_eq!(strobes, vec![5, 7], "sample 1 never filters");
    }

    #[test]
    fn flip_result_sets_a_high_bit() {
        for bit in 0..8 {
            let mut core = FirCore::new(Fault::BitFlip { bit });
            let outs = run_single(&mut core, 512, 8);
            assert!(outs[5].out_valid);
            assert!(outs[5].result > 65535, "bit {bit} stays in range");
            assert_eq!(outs[5].result & 0xFFFF, reference(&[512, 0, 0, 0]));
        }
    }

    #[test]
    fn dc_gain_is_unity() {
        // Taps sum to 256 (Q8), so a constant input passes through.
        assert_eq!(TAPS.iter().sum::<u32>(), 256);
        assert_eq!(reference(&[1000, 1000, 1000, 1000]), 1000);
    }
}

//! The DES core behind every DES56 model: the RTL and TLM-CA shells step
//! it once per clock cycle, the TLM-AT shell asks it for untimed results.
//!
//! One call to [`Des56Core::step`] is one clock cycle. Timing (for the
//! postponed sampling discipline of `rtlkit`, edge `e0` = the edge whose
//! sample shows `ds = 1`):
//!
//! - `e0`: input capture (block registered, state loaded through IP);
//! - `e1` … `e16`: one Feistel round per cycle;
//! - `e15`: `rdy_next_next_cycle` asserted;
//! - `e16`: `rdy_next_cycle` asserted;
//! - `e17`: `out` and `rdy` asserted (latency 17);
//! - `e18`: `rdy` deasserted.
//!
//! A strobe arriving while the core is busy is ignored (the workloads
//! space requests accordingly; overlap behaviour is exercised separately
//! in the naive-scaling ablation).

use super::algo::{self, KeySchedule, RoundState};
use super::rtl::{DES_KEY, RTL_SIGNALS};
use super::workload::DesBlock;
use crate::cycle::CycleCore;
use crate::{DesignKind, Fault};

/// Output interface of the core, one sample per cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DesOutputs {
    /// Result block (holds its value once produced).
    pub out: u64,
    /// One-cycle result strobe.
    pub rdy: bool,
    /// Prediction: `rdy` will rise at the next cycle.
    pub rdy_next_cycle: bool,
    /// Prediction: `rdy` will rise in two cycles.
    pub rdy_next_next_cycle: bool,
}

/// Cycle-accurate DES-56 core state machine.
#[derive(Debug, Clone)]
pub struct Des56Core {
    ks: KeySchedule,
    fault: Fault,
    state: RoundState,
    decrypt: bool,
    /// Cycles since capture; `0` = idle.
    phase: u32,
    /// Strobes accepted while idle (drives [`Fault::DropTransaction`]).
    seen: u32,
    /// The captured block, kept for [`Fault::DuplicateTransaction`].
    block: (u64, bool),
    /// True while re-running the captured block a second time.
    dup_pending: bool,
    outputs: DesOutputs,
}

impl Des56Core {
    /// A core keyed with `key`, with `fault` injected ([`Fault::None`] for
    /// the correct design):
    ///
    /// - latency faults move the result to cycle 16 or 18;
    /// - [`Fault::CorruptData`] forces the result block to zero;
    /// - [`Fault::DropReady`] never asserts `rdy`, [`Fault::StuckControl`]
    ///   holds it at 1 every cycle;
    /// - [`Fault::DropTransaction`] swallows the second accepted strobe;
    /// - [`Fault::DuplicateTransaction`] elaborates every block twice
    ///   back-to-back (34 busy cycles, strobes swallowed meanwhile).
    ///
    /// [`Fault::BitFlip`] is outside the DES56 catalogue and has no effect
    /// here; the builders reject it.
    #[must_use]
    pub fn new(key: u64, fault: Fault) -> Des56Core {
        Des56Core {
            ks: KeySchedule::new(key),
            fault,
            state: RoundState { l: 0, r: 0 },
            decrypt: false,
            phase: 0,
            seen: 0,
            block: (0, false),
            dup_pending: false,
            outputs: DesOutputs::default(),
        }
    }

    /// Accepts (or, under [`Fault::DropTransaction`], swallows) a
    /// strobed block while the core is idle.
    fn capture(&mut self, indata: u64, decrypt: bool) {
        let drop = matches!(self.fault, Fault::DropTransaction) && self.seen == 1;
        self.seen += 1;
        if drop {
            return;
        }
        self.block = (indata, decrypt);
        self.state = RoundState::load(indata);
        self.decrypt = decrypt;
        self.phase = 1;
    }

    /// True while an elaboration is in flight.
    #[must_use]
    pub fn busy(&self) -> bool {
        self.phase > 0
    }

    /// Executes one clock cycle with the given input pins; returns the
    /// output pins as visible at this cycle's (postponed) sample.
    pub fn step(&mut self, ds: bool, indata: u64, decrypt: bool) -> DesOutputs {
        let (emit_at, predict_base) = match self.fault {
            Fault::LatencyShort => (16, 15),
            Fault::LatencyLong => (18, 17),
            _ => (17, 16),
        };

        self.outputs.rdy = matches!(self.fault, Fault::StuckControl);
        self.outputs.rdy_next_cycle = false;
        self.outputs.rdy_next_next_cycle = false;

        if self.phase == 0 {
            if ds {
                // e0: capture.
                self.capture(indata, decrypt);
            }
            return self.outputs;
        }

        // e1..e16: one round per cycle.
        if self.phase <= 16 {
            let round_idx = (self.phase - 1) as usize;
            let subkey_idx = if self.decrypt {
                15 - round_idx
            } else {
                round_idx
            };
            self.state = self.state.round(self.ks.subkey(subkey_idx));
        }

        if self.phase == emit_at {
            if !matches!(self.fault, Fault::DropReady) {
                self.outputs.rdy = true;
            }
            let mut out = self.state.output();
            if matches!(self.fault, Fault::CorruptData) {
                out = 0;
            }
            self.outputs.out = out;
            if matches!(self.fault, Fault::DuplicateTransaction) && !self.dup_pending {
                // Re-elaborate the same block; strobes stay swallowed.
                self.dup_pending = true;
                self.state = RoundState::load(self.block.0);
                self.decrypt = self.block.1;
                self.phase = 1;
            } else {
                self.dup_pending = false;
                self.phase = 0;
                // Back-to-back capture on the completion cycle.
                if ds {
                    self.capture(indata, decrypt);
                }
            }
        } else {
            self.outputs.rdy_next_cycle = self.phase == predict_base;
            self.outputs.rdy_next_next_cycle = self.phase == predict_base - 1;
            self.phase += 1;
        }
        self.outputs
    }
}

impl CycleCore for Des56Core {
    type Request = DesBlock;
    const DESIGN: DesignKind = DesignKind::Des56;
    const PINS: &'static [&'static str] = RTL_SIGNALS;
    const DATA_INPUTS: usize = 2;
    const LATENCY: u64 = 17;
    const DEFAULT_GAP: u64 = 20;
    /// The faulty DES56 never raises `rdy`, so no completion transaction
    /// is observable at TLM-AT at all.
    const DROP_READY_HIDES_COMPLETION: bool = true;

    fn with_fault(fault: Fault) -> Des56Core {
        Des56Core::new(DES_KEY, fault)
    }

    fn drive(block: DesBlock, data: &mut [u64]) {
        data[0] = block.data;
        data[1] = u64::from(block.decrypt);
    }

    fn payload(block: DesBlock) -> u64 {
        block.data
    }

    fn step_pins(&mut self, ds: bool, data: &[u64], outputs: &mut [u64]) {
        let o = self.step(ds, data[0], data[1] != 0);
        outputs[0] = o.out;
        outputs[1] = u64::from(o.rdy);
        outputs[2] = u64::from(o.rdy_next_cycle);
        outputs[3] = u64::from(o.rdy_next_next_cycle);
    }

    fn elaborate(&mut self, block: DesBlock, outputs: &mut [u64]) {
        outputs[0] = match self.fault {
            Fault::CorruptData => 0,
            _ => algo::apply(block.data, &self.ks, block.decrypt),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::super::algo;
    use super::*;

    const KEY: u64 = 0x133457799BBCDFF1;
    const PLAIN: u64 = 0x0123456789ABCDEF;
    const CIPHER: u64 = 0x85E813540F0AB405;

    /// Runs the core with a single strobe and returns, per cycle, the
    /// outputs (cycle 0 = strobe cycle).
    fn run(core: &mut Des56Core, data: u64, decrypt: bool, cycles: u32) -> Vec<DesOutputs> {
        (0..cycles)
            .map(|c| core.step(c == 0, data, decrypt))
            .collect()
    }

    #[test]
    fn latency_is_17_cycles() {
        let mut core = Des56Core::new(KEY, Fault::None);
        let outs = run(&mut core, PLAIN, false, 20);
        for (cycle, o) in outs.iter().enumerate() {
            assert_eq!(o.rdy, cycle == 17, "rdy wrong at cycle {cycle}");
        }
        assert_eq!(outs[17].out, CIPHER);
    }

    #[test]
    fn prediction_signals_lead_ready() {
        let mut core = Des56Core::new(KEY, Fault::None);
        let outs = run(&mut core, PLAIN, false, 20);
        for (cycle, o) in outs.iter().enumerate() {
            assert_eq!(
                o.rdy_next_next_cycle,
                cycle == 15,
                "rdy_nnc wrong at {cycle}"
            );
            assert_eq!(o.rdy_next_cycle, cycle == 16, "rdy_nc wrong at {cycle}");
        }
    }

    #[test]
    fn decrypt_mode() {
        let mut core = Des56Core::new(KEY, Fault::None);
        let outs = run(&mut core, CIPHER, true, 20);
        assert_eq!(outs[17].out, PLAIN);
    }

    #[test]
    fn strobe_while_busy_is_ignored() {
        let mut core = Des56Core::new(KEY, Fault::None);
        core.step(true, PLAIN, false);
        for _ in 0..5 {
            core.step(true, 0xFFFF, true); // ignored
        }
        for _ in 6..17 {
            core.step(false, 0, false);
        }
        let o = core.step(false, 0, false);
        assert!(o.rdy);
        assert_eq!(o.out, CIPHER);
    }

    #[test]
    fn second_block_after_completion() {
        let mut core = Des56Core::new(KEY, Fault::None);
        let _ = run(&mut core, PLAIN, false, 20);
        let outs = run(&mut core, CIPHER, true, 20);
        assert_eq!(outs[17].out, PLAIN);
        assert!(outs[17].rdy);
    }

    #[test]
    fn matches_block_algorithm_for_random_inputs() {
        let mut seed = 0x243F6A8885A308D3u64; // deterministic xorshift
        let ks = algo::KeySchedule::new(KEY);
        for _ in 0..32 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let mut core = Des56Core::new(KEY, Fault::None);
            let outs = run(&mut core, seed, false, 18);
            assert_eq!(outs[17].out, algo::encrypt(seed, &ks));
        }
    }

    #[test]
    fn latency_short_mutation_emits_at_16() {
        let mut core = Des56Core::new(KEY, Fault::LatencyShort);
        let outs = run(&mut core, PLAIN, false, 20);
        assert!(outs[16].rdy);
        assert!(!outs[17].rdy);
    }

    #[test]
    fn latency_long_mutation_emits_at_18() {
        let mut core = Des56Core::new(KEY, Fault::LatencyLong);
        let outs = run(&mut core, PLAIN, false, 20);
        assert!(!outs[17].rdy);
        assert!(outs[18].rdy);
    }

    #[test]
    fn corrupt_data_mutation_zeroes_the_block() {
        let mut core = Des56Core::new(KEY, Fault::CorruptData);
        let outs = run(&mut core, PLAIN, false, 20);
        assert!(outs[17].rdy);
        assert_eq!(outs[17].out, 0);
    }

    #[test]
    fn drop_ready_mutation_never_asserts_rdy() {
        let mut core = Des56Core::new(KEY, Fault::DropReady);
        let outs = run(&mut core, PLAIN, false, 25);
        assert!(outs.iter().all(|o| !o.rdy));
    }

    #[test]
    fn stuck_control_mutation_forces_rdy_every_cycle() {
        let mut core = Des56Core::new(KEY, Fault::StuckControl);
        let outs = run(&mut core, PLAIN, false, 20);
        assert!(outs.iter().all(|o| o.rdy));
        assert_eq!(outs[17].out, CIPHER, "data path is untouched");
    }

    #[test]
    fn drop_transaction_mutation_swallows_the_second_block() {
        let mut core = Des56Core::new(KEY, Fault::DropTransaction);
        let first = run(&mut core, PLAIN, false, 20);
        assert!(first[17].rdy, "first block completes normally");
        let second = run(&mut core, CIPHER, true, 20);
        assert!(
            second.iter().all(|o| !o.rdy),
            "second block never elaborated"
        );
        let third = run(&mut core, CIPHER, true, 20);
        assert!(third[17].rdy, "third block completes normally");
        assert_eq!(third[17].out, PLAIN);
    }

    #[test]
    fn duplicate_transaction_mutation_emits_twice_and_stays_busy() {
        let mut core = Des56Core::new(KEY, Fault::DuplicateTransaction);
        let outs = run(&mut core, PLAIN, false, 40);
        for (cycle, o) in outs.iter().enumerate() {
            assert_eq!(
                o.rdy,
                cycle == 17 || cycle == 34,
                "rdy wrong at cycle {cycle}"
            );
        }
        assert_eq!(outs[17].out, CIPHER);
        assert_eq!(outs[34].out, CIPHER, "same block re-elaborated");
        // A strobe inside the duplicate window is swallowed.
        let mut core = Des56Core::new(KEY, Fault::DuplicateTransaction);
        core.step(true, PLAIN, false);
        for c in 1..=20 {
            let o = core.step(c == 20, CIPHER, true); // strobe at cycle 20: busy
            assert_eq!(o.rdy, c == 17);
        }
        for c in 21..40 {
            let o = core.step(false, 0, false);
            assert_eq!(o.rdy, c == 34, "only the duplicate completes");
        }
    }
}

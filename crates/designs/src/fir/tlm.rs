//! The FIR approximately-timed TLM model (the cycle-accurate one is the
//! shared [`build_tlm_ca`](crate::fir::build_tlm_ca) shell).

use desim::{Component, Event, SignalId, SimCtx, SimTime, Simulation};
use tlmkit::{Transaction, TransactionBus};

use super::core::reference;
use super::workload::FirWorkload;
use crate::{check, AbsLevel, BuildError, BuiltDesign, DesignKind, Fault, CLOCK_PERIOD_NS};

/// Mirror signals preserved at TLM-AT (prediction output abstracted).
pub const TLM_AT_SIGNALS: &[&str] = &["in_valid", "sample", "result", "out_valid"];

const OP_WRITE: u64 = 0;
const OP_READ: u64 = 1;

/// The FIR TLM-AT model: one write per sample and one read at the RTL
/// completion time (`t + 5 × period`); the filter state is a functional
/// delay line.
struct FirTlmAt {
    bus: TransactionBus,
    fault: Fault,
    workload: FirWorkload,
    history: [u64; 4],
    in_valid: SignalId,
    sample: SignalId,
    result: SignalId,
    out_valid: SignalId,
}

impl Component for FirTlmAt {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        let op = ev.kind & 1;
        let index = (ev.kind >> 1) as usize;
        match op {
            OP_WRITE => {
                let s = self.workload.requests[index];
                ctx.write(self.in_valid, 1);
                ctx.write(self.sample, s);
                ctx.write(self.out_valid, 0);
                self.bus.publish(ctx, Transaction::write(0, s, ev.time));
                // A swallowed sample neither completes nor enters the
                // functional delay line (the read op does both).
                let swallowed = matches!(self.fault, Fault::DropTransaction) && index == 1;
                if !swallowed {
                    let delay = match self.fault {
                        Fault::LatencyShort => 4,
                        _ => 5,
                    } * CLOCK_PERIOD_NS;
                    ctx.schedule_self(delay, (ev.kind & !1) | OP_READ);
                }
            }
            _ => {
                let s = self.workload.requests[index];
                self.history.rotate_right(1);
                self.history[0] = s;
                let mut r = reference(&self.history);
                match self.fault {
                    Fault::CorruptData => r |= 1 << 16,
                    Fault::BitFlip { bit } => r ^= 1 << (16 + bit % 8),
                    _ => {}
                }
                ctx.write(self.in_valid, 0);
                ctx.write(self.result, r);
                if !matches!(self.fault, Fault::DropReady) {
                    ctx.write(self.out_valid, 1);
                }
                self.bus.publish(ctx, Transaction::read(0, r, ev.time));
            }
        }
    }
}

/// Builds the FIR TLM-AT simulation for a workload, with `fault` injected.
/// FIR has the loose model only (no strict Def. III.1 variant).
///
/// # Errors
///
/// Whatever [`check`] rejects for FIR at TLM-AT.
pub fn build_tlm_at(workload: &FirWorkload, fault: Fault) -> Result<BuiltDesign, BuildError> {
    check(DesignKind::Fir, AbsLevel::TlmAt, fault)?;
    let mut sim = Simulation::new();
    let bus = TransactionBus::new();
    let in_valid = sim.add_signal("in_valid", 0);
    let sample = sim.add_signal("sample", 0);
    let result = sim.add_signal("result", 0);
    let out_valid = sim.add_signal("out_valid", 0);
    let model = sim.add_component(FirTlmAt {
        bus: bus.clone(),
        fault,
        workload: workload.clone(),
        history: [0; 4],
        in_valid,
        sample,
        result,
        out_valid,
    });
    for i in 0..workload.requests.len() {
        sim.schedule(
            SimTime::from_ns(workload.request_time_ns(i)),
            model,
            ((i as u64) << 1) | OP_WRITE,
        );
    }
    Ok(BuiltDesign {
        sim,
        clk: None,
        bus: Some(bus),
        end_ns: workload.end_time_ns(),
    })
}

#[cfg(test)]
mod tests {
    use super::super::rtl::RTL_SIGNALS;
    use super::*;
    use crate::cycle::build_tlm_ca;
    use psl::SignalEnv;
    use tlmkit::TxTraceRecorder;

    #[test]
    fn ca_matches_rtl_completion_instants() {
        let w = FirWorkload::new(vec![512, 64]);
        let mut built = build_tlm_ca(&w, Fault::None).unwrap();
        let rec =
            TxTraceRecorder::install(&mut built.sim, built.bus.as_ref().unwrap(), RTL_SIGNALS);
        built.run();
        let trace = TxTraceRecorder::take_trace(&built.sim, rec);
        // First sample at edge 2 → result at edge 7 (t = 70).
        let pos = trace.position_at_time(70).expect("transaction at 70ns");
        assert_eq!(trace.steps()[pos].signal("out_valid"), Some(1));
        assert_eq!(
            trace.steps()[pos].signal("result"),
            Some(reference(&[512, 0, 0, 0]))
        );
    }

    #[test]
    fn at_two_transactions_per_sample_with_matching_values() {
        let w = FirWorkload::new(vec![512, 64]);
        let mut built = build_tlm_at(&w, Fault::None).unwrap();
        let rec =
            TxTraceRecorder::install(&mut built.sim, built.bus.as_ref().unwrap(), TLM_AT_SIGNALS);
        built.run();
        assert_eq!(built.bus.as_ref().unwrap().published(), 4);
        let trace = TxTraceRecorder::take_trace(&built.sim, rec);
        assert_eq!(trace.steps()[1].time_ns, 70);
        assert_eq!(
            trace.steps()[1].signal("result"),
            Some(reference(&[512, 0, 0, 0]))
        );
        assert_eq!(
            trace.steps()[3].signal("result"),
            Some(reference(&[64, 512, 0, 0]))
        );
    }

    #[test]
    fn at_drop_sample_skips_completion_and_history() {
        let w = FirWorkload::new(vec![512, 64, 128]);
        let mut built = build_tlm_at(&w, Fault::DropTransaction).unwrap();
        let rec =
            TxTraceRecorder::install(&mut built.sim, built.bus.as_ref().unwrap(), TLM_AT_SIGNALS);
        built.run();
        // Three writes, two completions.
        assert_eq!(built.bus.as_ref().unwrap().published(), 5);
        let trace = TxTraceRecorder::take_trace(&built.sim, rec);
        let reads: Vec<u64> = trace
            .steps()
            .iter()
            .filter(|s| s.signal("in_valid") == Some(0))
            .filter_map(|s| s.signal("result"))
            .collect();
        // Sample 1 is missing from the delay line, matching the RTL core.
        assert_eq!(
            reads,
            vec![reference(&[512, 0, 0, 0]), reference(&[128, 512, 0, 0])]
        );
    }

    #[test]
    fn at_drop_valid_completes_without_the_strobe() {
        let w = FirWorkload::new(vec![512]);
        let mut built = build_tlm_at(&w, Fault::DropReady).unwrap();
        let rec =
            TxTraceRecorder::install(&mut built.sim, built.bus.as_ref().unwrap(), TLM_AT_SIGNALS);
        built.run();
        let trace = TxTraceRecorder::take_trace(&built.sim, rec);
        assert_eq!(trace.steps()[1].time_ns, 70);
        assert_eq!(trace.steps()[1].signal("out_valid"), Some(0));
    }
}

//! The DES56 TLM models: cycle-accurate and approximately-timed.

use desim::{Component, Event, SignalId, SimCtx, SimTime, Simulation};
use tlmkit::{Transaction, TransactionBus};

use super::algo::{self, KeySchedule};
use super::core::Des56Core;
use super::rtl::DES_KEY;
use super::workload::DesWorkload;
use crate::{check, AbsLevel, BuildError, BuiltDesign, DesignKind, Fault, CLOCK_PERIOD_NS};

/// Mirror signals preserved at TLM-CA (full protocol).
pub const TLM_CA_SIGNALS: &[&str] = &[
    "ds",
    "indata",
    "mode",
    "out",
    "rdy",
    "rdy_next_cycle",
    "rdy_next_next_cycle",
];

/// Mirror signals preserved at TLM-AT (protocol abstracted: the ready
/// prediction signals are gone).
pub const TLM_AT_SIGNALS: &[&str] = &["ds", "indata", "mode", "out", "rdy"];

/// The TLM-CA initiator+target: one transaction per clock period, stepping
/// the same cycle core as the RTL model (timing equivalence by
/// construction).
struct Des56TlmCa {
    bus: TransactionBus,
    core: Des56Core,
    workload: DesWorkload,
    edge: u64,
    last_edge: u64,
    ds: SignalId,
    indata: SignalId,
    mode: SignalId,
    out: SignalId,
    rdy: SignalId,
    rdy_nc: SignalId,
    rdy_nnc: SignalId,
}

impl Component for Des56TlmCa {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        self.edge += 1;
        let block = self.workload.block_at_edge(self.edge);
        let ds = block.is_some();
        let (data, decrypt) = block.map_or((0, false), |b| (b.data, b.decrypt));
        let o = self.core.step(ds, data, decrypt);

        ctx.write(self.ds, u64::from(ds));
        if let Some(b) = block {
            ctx.write(self.indata, b.data);
            ctx.write(self.mode, u64::from(b.decrypt));
        }
        ctx.write(self.out, o.out);
        ctx.write(self.rdy, u64::from(o.rdy));
        ctx.write(self.rdy_nc, u64::from(o.rdy_next_cycle));
        ctx.write(self.rdy_nnc, u64::from(o.rdy_next_next_cycle));

        let tx = if ds {
            Transaction::write(0, data, ev.time)
        } else {
            Transaction::read(0, o.out, ev.time)
        };
        self.bus.publish(ctx, tx);

        if self.edge < self.last_edge {
            ctx.schedule_self(CLOCK_PERIOD_NS, 0);
        }
    }
}

/// Builds the DES56 TLM-CA simulation for a workload, with `fault`
/// injected.
///
/// # Errors
///
/// Whatever [`check`] rejects for DES56 at TLM-CA.
pub fn build_tlm_ca(workload: &DesWorkload, fault: Fault) -> Result<BuiltDesign, BuildError> {
    check(DesignKind::Des56, AbsLevel::TlmCa, fault)?;
    let mut sim = Simulation::new();
    let bus = TransactionBus::new();
    let ds = sim.add_signal("ds", 0);
    let indata = sim.add_signal("indata", 0);
    let mode = sim.add_signal("mode", 0);
    let out = sim.add_signal("out", 0);
    let rdy = sim.add_signal("rdy", 0);
    let rdy_nc = sim.add_signal("rdy_next_cycle", 0);
    let rdy_nnc = sim.add_signal("rdy_next_next_cycle", 0);

    let model = sim.add_component(Des56TlmCa {
        bus: bus.clone(),
        core: Des56Core::new(DES_KEY, fault),
        workload: workload.clone(),
        edge: 0,
        last_edge: workload.total_edges(),
        ds,
        indata,
        mode,
        out,
        rdy,
        rdy_nc,
        rdy_nnc,
    });
    // First cycle transaction at the first rising-edge time.
    sim.schedule(SimTime::from_ns(CLOCK_PERIOD_NS), model, 0);

    Ok(BuiltDesign {
        sim,
        clk: None,
        bus: Some(bus),
        end_ns: workload.end_time_ns(),
    })
}

/// Event kinds of the TLM-AT initiator (low 2 bits; block index above).
const OP_WRITE: u64 = 0;
const OP_READ: u64 = 1;
const OP_STROBE_RELEASE: u64 = 2;
const OP_RDY_CLEAR: u64 = 3;

/// The TLM-AT initiator+target: per request, one write transaction
/// submitting the block and one read transaction fetching the result at
/// the RTL completion time (`t + 17 × period`). The strict model
/// additionally produces the transactions required by strict Def. III.1
/// timing equivalence (strobe release at `t + period`, ready deassert at
/// `t_end + period`).
struct Des56TlmAt {
    bus: TransactionBus,
    ks: KeySchedule,
    fault: Fault,
    workload: DesWorkload,
    strict: bool,
    /// First edge at which the core is idle again
    /// ([`Fault::DuplicateTransaction`] busy window).
    busy_until_edge: u64,
    ds: SignalId,
    indata: SignalId,
    mode: SignalId,
    out: SignalId,
    rdy: SignalId,
}

impl Des56TlmAt {
    fn read_delay_ns(&self) -> u64 {
        let cycles = match self.fault {
            Fault::LatencyShort => 16,
            Fault::LatencyLong => 18,
            _ => 17,
        };
        cycles * CLOCK_PERIOD_NS
    }
}

impl Component for Des56TlmAt {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        let op = ev.kind & 0b11;
        let index = (ev.kind >> 2) as usize;
        match op {
            OP_WRITE => {
                let block = self.workload.blocks[index];
                ctx.write(self.ds, 1);
                ctx.write(self.indata, block.data);
                ctx.write(self.mode, u64::from(block.decrypt));
                ctx.write(
                    self.rdy,
                    u64::from(matches!(self.fault, Fault::StuckControl)),
                );
                self.bus
                    .publish(ctx, Transaction::write(0, block.data, ev.time));
                let edge = ev.time.as_ns() / CLOCK_PERIOD_NS;
                let swallowed = match self.fault {
                    Fault::DropTransaction => index == 1,
                    Fault::DuplicateTransaction => edge < self.busy_until_edge,
                    _ => false,
                };
                if !swallowed {
                    ctx.schedule_self(self.read_delay_ns(), (ev.kind & !0b11) | OP_READ);
                    if matches!(self.fault, Fault::DuplicateTransaction) {
                        // The faulty core re-elaborates the block once more.
                        self.busy_until_edge = edge + 2 * u64::from(Des56Core::LATENCY);
                        ctx.schedule_self(2 * self.read_delay_ns(), (ev.kind & !0b11) | OP_READ);
                    }
                }
                if self.strict {
                    ctx.schedule_self(CLOCK_PERIOD_NS, (ev.kind & !0b11) | OP_STROBE_RELEASE);
                }
            }
            OP_STROBE_RELEASE => {
                ctx.write(self.ds, 0);
                self.bus.publish(ctx, Transaction::write(0, 0, ev.time));
            }
            OP_READ => {
                let block = self.workload.blocks[index];
                let mut result = algo::apply(block.data, &self.ks, block.decrypt);
                if matches!(self.fault, Fault::CorruptData) {
                    result = 0;
                }
                ctx.write(self.ds, 0);
                ctx.write(self.out, result);
                if matches!(self.fault, Fault::DropReady) {
                    // The faulty IP never raises `rdy`: no completion
                    // transaction is observable at all.
                    return;
                }
                ctx.write(self.rdy, 1);
                self.bus.publish(ctx, Transaction::read(0, result, ev.time));
                if self.strict {
                    ctx.schedule_self(CLOCK_PERIOD_NS, (ev.kind & !0b11) | OP_RDY_CLEAR);
                }
            }
            OP_RDY_CLEAR => {
                ctx.write(self.rdy, 0);
                self.bus.publish(ctx, Transaction::read(0, 0, ev.time));
            }
            _ => unreachable!("2-bit op"),
        }
    }
}

/// Builds the DES56 TLM-AT simulation for a workload, with `fault`
/// injected: the paper's loose model, or with `strict` the strict Def.
/// III.1 model (DESIGN.md §5b).
///
/// Write transactions are scheduled at the same instants where the RTL
/// model samples the strobes, read transactions at the RTL completion
/// instants.
///
/// # Errors
///
/// Whatever [`check`] rejects for DES56 at TLM-AT.
pub fn build_tlm_at(
    workload: &DesWorkload,
    fault: Fault,
    strict: bool,
) -> Result<BuiltDesign, BuildError> {
    check(DesignKind::Des56, AbsLevel::TlmAt, fault)?;
    let mut sim = Simulation::new();
    let bus = TransactionBus::new();
    let ds = sim.add_signal("ds", 0);
    let indata = sim.add_signal("indata", 0);
    let mode = sim.add_signal("mode", 0);
    let out = sim.add_signal("out", 0);
    let rdy = sim.add_signal("rdy", 0);

    let model = sim.add_component(Des56TlmAt {
        bus: bus.clone(),
        ks: KeySchedule::new(DES_KEY),
        fault,
        workload: workload.clone(),
        strict,
        busy_until_edge: 0,
        ds,
        indata,
        mode,
        out,
        rdy,
    });
    for i in 0..workload.blocks.len() {
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

#[cfg(test)]
mod tests {
    use super::super::workload::DesBlock;
    use super::*;
    use psl::SignalEnv;
    use tlmkit::TxTraceRecorder;

    fn one_block() -> DesWorkload {
        DesWorkload::new(vec![DesBlock {
            data: 0x0123456789ABCDEF,
            decrypt: false,
        }])
    }

    #[test]
    fn tlm_ca_produces_one_transaction_per_cycle() {
        let w = one_block();
        let mut built = build_tlm_ca(&w, Fault::None).unwrap();
        built.run();
        assert_eq!(built.bus.as_ref().unwrap().published(), w.total_edges());
    }

    #[test]
    fn tlm_ca_result_at_completion_edge() {
        let w = one_block();
        let mut built = build_tlm_ca(&w, Fault::None).unwrap();
        let rec =
            TxTraceRecorder::install(&mut built.sim, built.bus.as_ref().unwrap(), TLM_CA_SIGNALS);
        built.run();
        let trace = TxTraceRecorder::take_trace(&built.sim, rec);
        // Request at edge 2 (t=20); rdy at t = (2+17)*10 = 190.
        let pos = trace.position_at_time(190).expect("transaction at 190ns");
        assert_eq!(trace.steps()[pos].signal("rdy"), Some(1));
        let ks = KeySchedule::new(DES_KEY);
        assert_eq!(
            trace.steps()[pos].signal("out"),
            Some(algo::encrypt(0x0123456789ABCDEF, &ks))
        );
    }

    #[test]
    fn tlm_at_loose_two_transactions_per_block() {
        let w = one_block();
        let mut built = build_tlm_at(&w, Fault::None, false).unwrap();
        built.run();
        assert_eq!(built.bus.as_ref().unwrap().published(), 2);
    }

    #[test]
    fn tlm_at_strict_four_transactions_per_block() {
        let w = one_block();
        let mut built = build_tlm_at(&w, Fault::None, true).unwrap();
        built.run();
        assert_eq!(built.bus.as_ref().unwrap().published(), 4);
    }

    #[test]
    fn tlm_at_read_lands_at_rtl_completion_time() {
        let w = one_block();
        let mut built = build_tlm_at(&w, Fault::None, false).unwrap();
        let rec =
            TxTraceRecorder::install(&mut built.sim, built.bus.as_ref().unwrap(), TLM_AT_SIGNALS);
        built.run();
        let trace = TxTraceRecorder::take_trace(&built.sim, rec);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.steps()[0].time_ns, 20);
        assert_eq!(trace.steps()[0].signal("ds"), Some(1));
        assert_eq!(trace.steps()[1].time_ns, 190);
        assert_eq!(trace.steps()[1].signal("rdy"), Some(1));
        assert_eq!(trace.steps()[1].signal("ds"), Some(0));
        let ks = KeySchedule::new(DES_KEY);
        assert_eq!(
            trace.steps()[1].signal("out"),
            Some(algo::encrypt(0x0123456789ABCDEF, &ks))
        );
    }

    #[test]
    fn tlm_at_latency_mutations_shift_read() {
        let w = one_block();
        for (fault, expected) in [(Fault::LatencyShort, 180), (Fault::LatencyLong, 200)] {
            let mut built = build_tlm_at(&w, fault, false).unwrap();
            let rec = TxTraceRecorder::install(
                &mut built.sim,
                built.bus.as_ref().unwrap(),
                TLM_AT_SIGNALS,
            );
            built.sim.run_until(SimTime::from_ns(1000));
            let trace = TxTraceRecorder::take_trace(&built.sim, rec);
            assert_eq!(trace.steps()[1].time_ns, expected);
        }
    }

    fn two_blocks() -> DesWorkload {
        DesWorkload::new(vec![
            DesBlock {
                data: 0x0123456789ABCDEF,
                decrypt: false,
            },
            DesBlock {
                data: 0xFEDCBA9876543210,
                decrypt: false,
            },
        ])
    }

    #[test]
    fn tlm_at_drop_ready_publishes_no_completion() {
        let w = one_block();
        let mut built = build_tlm_at(&w, Fault::DropReady, false).unwrap();
        built.run();
        assert_eq!(
            built.bus.as_ref().unwrap().published(),
            1,
            "only the request is observable"
        );
    }

    #[test]
    fn tlm_at_drop_transaction_swallows_second_request() {
        let w = two_blocks();
        let mut built = build_tlm_at(&w, Fault::DropTransaction, false).unwrap();
        built.run();
        // Two writes, but only the first request completes.
        assert_eq!(built.bus.as_ref().unwrap().published(), 3);
    }

    #[test]
    fn tlm_at_duplicate_transaction_completes_twice_and_swallows_busy_strobes() {
        let w = two_blocks();
        let mut built = build_tlm_at(&w, Fault::DuplicateTransaction, false).unwrap();
        let rec =
            TxTraceRecorder::install(&mut built.sim, built.bus.as_ref().unwrap(), TLM_AT_SIGNALS);
        built.sim.run_until(SimTime::from_ns(1000));
        let trace = TxTraceRecorder::take_trace(&built.sim, rec);
        // Request 0 at 20 ns completes at 190 and again at 360; the request
        // at 220 ns lands in the busy window and never completes.
        let times: Vec<u64> = trace.steps().iter().map(|s| s.time_ns).collect();
        assert_eq!(times, vec![20, 190, 220, 360]);
    }

    #[test]
    fn tlm_at_stuck_control_raises_rdy_at_the_request() {
        let w = one_block();
        let mut built = build_tlm_at(&w, Fault::StuckControl, false).unwrap();
        let rec =
            TxTraceRecorder::install(&mut built.sim, built.bus.as_ref().unwrap(), TLM_AT_SIGNALS);
        built.run();
        let trace = TxTraceRecorder::take_trace(&built.sim, rec);
        assert_eq!(trace.steps()[0].signal("ds"), Some(1));
        assert_eq!(trace.steps()[0].signal("rdy"), Some(1));
    }
}

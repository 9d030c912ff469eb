//! The model shells shared by every IP: each IP's cycle core implements
//! [`CycleCore`], and one RTL builder, one TLM-CA builder and one TLM-AT
//! builder wrap any such core.
//!
//! The RTL and TLM-CA shells step the same core once per clock period,
//! which is what makes them timing-equivalent by construction (Def. III.1)
//! — the role HIFSuite's mechanical RTL-to-TLM abstraction plays in the
//! paper. The TLM-AT shell places one write at each RTL strobe instant and
//! one read of the core's untimed result at the RTL completion instant.

use desim::{Component, Event, SignalId, SimCtx, SimTime, Simulation};
use rtlkit::{Clock, EdgeDetector};
use tlmkit::{Transaction, TransactionBus};

use crate::{
    check, AbsLevel, BuildError, BuiltDesign, DesignKind, Fault, Workload, CLOCK_PERIOD_NS,
};

/// Most data inputs or outputs any IP has; sizes the shells' pin buffers.
const MAX_PINS: usize = 8;

/// An IP's cycle-stepping core, as the shells see it.
///
/// Public only inside the crate's private `cycle` module, so it bounds the
/// generic builders without being nameable (or implementable) outside.
pub trait CycleCore: 'static {
    /// One elaboration request.
    type Request: Request<Core = Self>;
    /// The IP this core belongs to.
    const DESIGN: DesignKind;
    /// The I/O pins in declaration order: the request strobe, then the
    /// [`DATA_INPUTS`](Self::DATA_INPUTS) data inputs, then the outputs.
    const PINS: &'static [&'static str];
    /// How many data input pins follow the strobe.
    const DATA_INPUTS: usize;
    /// Clock cycles from a strobe sample to its result sample.
    const LATENCY: u64;
    /// Default clock cycles between consecutive requests.
    const DEFAULT_GAP: u64;

    /// The core with `fault` injected ([`Fault::None`] for the correct
    /// design).
    fn with_fault(fault: Fault) -> Self;

    /// Writes `request`'s value for each data input pin into `data`, in
    /// pin order.
    fn drive(request: Self::Request, data: &mut [u64]);

    /// The payload of the write transaction carrying `request`.
    fn payload(request: Self::Request) -> u64;

    /// Executes one clock cycle on the strobe and data input pins and
    /// writes the output pins, in pin order, into `outputs`.
    fn step_pins(&mut self, strobe: bool, data: &[u64], outputs: &mut [u64]);

    /// Elaborates `request` untimed, with the core's fault applied, and
    /// writes the data outputs preserved at TLM-AT (every output before the
    /// ready strobe), in pin order, into `outputs`. The TLM-AT shell calls
    /// it once per completion, in completion order, on a core it never
    /// steps.
    fn elaborate(&mut self, request: Self::Request, outputs: &mut [u64]);

    /// True when, at TLM-AT under [`Fault::DropReady`], the faulty IP
    /// publishes no completion transaction (and the strict model schedules
    /// no ready clear); otherwise the read completes without raising the
    /// ready strobe.
    const DROP_READY_HIDES_COMPLETION: bool = false;
}

/// A request type, tied to the core that elaborates it.
pub trait Request: Copy + 'static {
    /// The core elaborating this request.
    type Core: CycleCore<Request = Self>;
}

/// Registers `names`, in order, all initially 0.
fn add_pins(sim: &mut Simulation, names: &[&str]) -> Box<[SignalId]> {
    names.iter().map(|name| sim.add_signal(name, 0)).collect()
}

/// The clocked design: one core step per rising edge.
struct RtlDut<C> {
    clk: SignalId,
    det: EdgeDetector,
    core: C,
    pins: Box<[SignalId]>,
}

impl<C: CycleCore> Component for RtlDut<C> {
    fn handle(&mut self, _ev: Event, ctx: &mut SimCtx<'_>) {
        if !self.det.is_rising(ctx.read(self.clk)) {
            return;
        }
        let (inputs, outputs) = self.pins.split_at(1 + C::DATA_INPUTS);
        let mut data = [0; MAX_PINS];
        for (value, &pin) in data.iter_mut().zip(&inputs[1..]) {
            *value = ctx.read(pin);
        }
        let mut out = [0; MAX_PINS];
        let strobe = ctx.read(inputs[0]) != 0;
        self.core
            .step_pins(strobe, &data[..C::DATA_INPUTS], &mut out[..outputs.len()]);
        for (&pin, &value) in outputs.iter().zip(&out) {
            ctx.write(pin, value);
        }
    }
}

/// Drives the workload onto the design inputs at falling edges, so values
/// are stable before the rising edge that samples them.
struct RtlStimulus<R> {
    clk: SignalId,
    det: EdgeDetector,
    workload: Workload<R>,
    /// The strobe, then the data inputs.
    inputs: Box<[SignalId]>,
}

impl<R: Request> Component for RtlStimulus<R> {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        if !self.det.is_falling(ctx.read(self.clk)) {
            return;
        }
        // Falling edge at k·period + period/2 prepares rising edge k+1.
        let target_edge = ev.time.as_ns() / CLOCK_PERIOD_NS + 1;
        match self.workload.request_at_edge(target_edge) {
            Some(request) => {
                ctx.write(self.inputs[0], 1);
                let mut data = [0; MAX_PINS];
                R::Core::drive(request, &mut data[..R::Core::DATA_INPUTS]);
                for (&pin, &value) in self.inputs[1..].iter().zip(&data) {
                    ctx.write(pin, value);
                }
            }
            None => ctx.write(self.inputs[0], 0),
        }
    }
}

/// Builds the RTL simulation of the workload's IP, with `fault` injected:
/// the clock, the IP's pins, the clocked design, then the stimulus.
///
/// # Errors
///
/// Whatever [`check`] rejects for the IP at RTL.
pub fn build_rtl<R: Request>(
    workload: &Workload<R>,
    fault: Fault,
) -> Result<BuiltDesign, BuildError> {
    check(R::Core::DESIGN, AbsLevel::Rtl, fault)?;
    let mut sim = Simulation::new();
    sim.reserve_signals(10); // pin list + clock, registered in one burst
    let clk = Clock::install(&mut sim, "clk", CLOCK_PERIOD_NS);
    let pins = add_pins(&mut sim, R::Core::PINS);
    let inputs = pins[..=R::Core::DATA_INPUTS].into();

    let dut = sim.add_component(RtlDut {
        clk: clk.signal,
        det: EdgeDetector::new(),
        core: R::Core::with_fault(fault),
        pins,
    });
    sim.subscribe(clk.signal, dut, 0);

    let stim = sim.add_component(RtlStimulus {
        clk: clk.signal,
        det: EdgeDetector::new(),
        workload: workload.clone(),
        inputs,
    });
    sim.subscribe(clk.signal, stim, 0);

    Ok(BuiltDesign {
        sim,
        clk: Some(clk.signal),
        bus: None,
        end_ns: workload.end_time_ns(),
    })
}

/// The TLM-CA initiator+target: one transaction per clock period, stepping
/// the same core as the RTL model and mirroring the same pins.
struct TlmCa<R: Request> {
    bus: TransactionBus,
    core: R::Core,
    workload: Workload<R>,
    edge: u64,
    last_edge: u64,
    pins: Box<[SignalId]>,
}

impl<R: Request> Component for TlmCa<R> {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        self.edge += 1;
        let request = self.workload.request_at_edge(self.edge);
        let strobe = request.is_some();
        let (inputs, outputs) = self.pins.split_at(1 + R::Core::DATA_INPUTS);
        let mut data = [0; MAX_PINS];
        if let Some(r) = request {
            R::Core::drive(r, &mut data[..R::Core::DATA_INPUTS]);
        }
        let mut out = [0; MAX_PINS];
        self.core.step_pins(
            strobe,
            &data[..R::Core::DATA_INPUTS],
            &mut out[..outputs.len()],
        );

        ctx.write(inputs[0], u64::from(strobe));
        if strobe {
            for (&pin, &value) in inputs[1..].iter().zip(&data) {
                ctx.write(pin, value);
            }
        }
        for (&pin, &value) in outputs.iter().zip(&out) {
            ctx.write(pin, value);
        }

        let tx = match request {
            Some(r) => Transaction::write(0, R::Core::payload(r), ev.time),
            None => Transaction::read(0, out[0], ev.time),
        };
        self.bus.publish(ctx, tx);

        if self.edge < self.last_edge {
            ctx.schedule_self(CLOCK_PERIOD_NS, 0);
        }
    }
}

/// Builds the TLM-CA simulation of the workload's IP, with `fault`
/// injected: one transaction per clock period, a write carrying the request
/// on a strobe cycle and otherwise a read of the first output.
///
/// # Errors
///
/// Whatever [`check`] rejects for the IP at TLM-CA.
pub fn build_tlm_ca<R: Request>(
    workload: &Workload<R>,
    fault: Fault,
) -> Result<BuiltDesign, BuildError> {
    check(R::Core::DESIGN, AbsLevel::TlmCa, fault)?;
    let mut sim = Simulation::new();
    let bus = TransactionBus::new();
    let pins = add_pins(&mut sim, R::Core::PINS);
    let model = sim.add_component(TlmCa {
        bus: bus.clone(),
        core: R::Core::with_fault(fault),
        workload: workload.clone(),
        edge: 0,
        last_edge: workload.total_edges(),
        pins,
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

/// Event kinds of the TLM-AT model: the op in the low 2 bits, the request
/// index above them.
const AT_WRITE: u64 = 0;
const AT_READ: u64 = 1;
const AT_STROBE_RELEASE: u64 = 2;
const AT_READY_CLEAR: u64 = 3;

/// The TLM-AT initiator+target: per request, one write transaction at the
/// RTL strobe instant and one read transaction of the core's untimed
/// result at the RTL completion instant (`t + LATENCY × period`). The
/// strict model adds the transactions strict Def. III.1 timing equivalence
/// needs: the strobe release at `t + period` and the ready clear at
/// `t_end + period`.
struct TlmAt<R: Request> {
    bus: TransactionBus,
    core: R::Core,
    fault: Fault,
    workload: Workload<R>,
    strict: bool,
    /// First edge at which the core is idle again
    /// ([`Fault::DuplicateTransaction`] busy window).
    busy_until_edge: u64,
    /// The preserved pins: the strobe, the data inputs, the data outputs,
    /// then the ready strobe.
    pins: Box<[SignalId]>,
}

impl<R: Request> TlmAt<R> {
    /// Strobe-to-result time, one cycle off under the latency faults.
    fn read_delay_ns(&self) -> u64 {
        let cycles = match self.fault {
            Fault::LatencyShort => R::Core::LATENCY - 1,
            Fault::LatencyLong => R::Core::LATENCY + 1,
            _ => R::Core::LATENCY,
        };
        cycles * CLOCK_PERIOD_NS
    }
}

impl<R: Request> Component for TlmAt<R> {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        let index = ev.kind >> 2;
        let request = self.workload.requests[index as usize];
        let inputs = 1 + R::Core::DATA_INPUTS;
        let (strobe, ready) = (self.pins[0], self.pins[self.pins.len() - 1]);
        match ev.kind & 0b11 {
            AT_WRITE => {
                ctx.write(strobe, 1);
                let mut data = [0; MAX_PINS];
                R::Core::drive(request, &mut data[..R::Core::DATA_INPUTS]);
                for (&pin, &value) in self.pins[1..inputs].iter().zip(&data) {
                    ctx.write(pin, value);
                }
                ctx.write(ready, u64::from(self.fault == Fault::StuckControl));
                self.bus.publish(
                    ctx,
                    Transaction::write(0, R::Core::payload(request), ev.time),
                );
                let edge = ev.time.as_ns() / CLOCK_PERIOD_NS;
                let swallowed = match self.fault {
                    Fault::DropTransaction => index == 1,
                    Fault::DuplicateTransaction => edge < self.busy_until_edge,
                    _ => false,
                };
                if !swallowed {
                    ctx.schedule_self(self.read_delay_ns(), (index << 2) | AT_READ);
                    if self.fault == Fault::DuplicateTransaction {
                        // The faulty core elaborates the request once more.
                        self.busy_until_edge = edge + 2 * R::Core::LATENCY;
                        ctx.schedule_self(2 * self.read_delay_ns(), (index << 2) | AT_READ);
                    }
                }
                if self.strict {
                    ctx.schedule_self(CLOCK_PERIOD_NS, (index << 2) | AT_STROBE_RELEASE);
                }
            }
            AT_STROBE_RELEASE => {
                ctx.write(strobe, 0);
                self.bus.publish(ctx, Transaction::write(0, 0, ev.time));
            }
            AT_READ => {
                let outputs = &self.pins[inputs..self.pins.len() - 1];
                let mut out = [0; MAX_PINS];
                self.core.elaborate(request, &mut out[..outputs.len()]);
                ctx.write(strobe, 0);
                for (&pin, &value) in outputs.iter().zip(&out) {
                    ctx.write(pin, value);
                }
                if self.fault != Fault::DropReady {
                    ctx.write(ready, 1);
                } else if R::Core::DROP_READY_HIDES_COMPLETION {
                    return;
                }
                self.bus.publish(ctx, Transaction::read(0, out[0], ev.time));
                if self.strict {
                    ctx.schedule_self(CLOCK_PERIOD_NS, (index << 2) | AT_READY_CLEAR);
                }
            }
            _ => {
                ctx.write(ready, 0);
                self.bus.publish(ctx, Transaction::read(0, 0, ev.time));
            }
        }
    }
}

/// Builds the TLM-AT simulation of the workload's IP, with `fault`
/// injected: the paper's loose model, or with `strict` the strict Def.
/// III.1 model (DESIGN.md §5b). It mirrors the IP's pins minus the ones
/// the protocol abstraction removes ([`DesignKind::tlm_at_signals`]).
///
/// Write transactions are scheduled at the instants where the RTL model
/// samples the strobes, read transactions at the RTL completion instants.
///
/// # Errors
///
/// Whatever [`check`] rejects for the IP at TLM-AT.
pub fn build_tlm_at<R: Request>(
    workload: &Workload<R>,
    fault: Fault,
    strict: bool,
) -> Result<BuiltDesign, BuildError> {
    check(R::Core::DESIGN, AbsLevel::TlmAt, fault)?;
    let mut sim = Simulation::new();
    let bus = TransactionBus::new();
    let pins = add_pins(&mut sim, &R::Core::DESIGN.tlm_at_signals());
    let model = sim.add_component(TlmAt {
        bus: bus.clone(),
        core: R::Core::with_fault(fault),
        fault,
        workload: workload.clone(),
        strict,
        busy_until_edge: 0,
        pins,
    });
    for i in 0..workload.requests.len() {
        let kind = ((i as u64) << 2) | AT_WRITE;
        sim.schedule(SimTime::from_ns(workload.request_time_ns(i)), model, kind);
    }

    Ok(BuiltDesign {
        sim,
        clk: None,
        bus: Some(bus),
        end_ns: workload.end_time_ns(),
    })
}

/// The TLM-AT shell's checks, one table row per IP. Each `assert_*`
/// function checks one behaviour on one IP; the tests below run it on
/// every IP, and each IP's `tlm` test module calls it under its own test
/// names.
#[cfg(test)]
pub(crate) mod tests {
    use psl::{SignalEnv, Trace};
    use tlmkit::TxTraceRecorder;

    use super::*;
    use crate::colorconv::{self, ColorConvCore, Pixel};
    use crate::des56::{self, Des56Core, DesBlock, DES_KEY};
    use crate::fir::{self, FirCore};

    /// The requests the IPs' TLM-AT tests drive, in issue order.
    const BLOCKS: [DesBlock; 3] = [
        DesBlock {
            data: 0x0123456789ABCDEF,
            decrypt: false,
        },
        DesBlock {
            data: 0xFEDCBA9876543210,
            decrypt: false,
        },
        DesBlock {
            data: 0x1122334455667788,
            decrypt: true,
        },
    ];
    const PIXELS: [Pixel; 3] = [
        Pixel {
            r: 10,
            g: 200,
            b: 99,
        },
        Pixel { r: 4, g: 5, b: 6 },
        Pixel { r: 7, g: 8, b: 9 },
    ];
    const SAMPLES: [u64; 3] = [512, 64, 128];

    /// What the checks need to know of one IP.
    struct Row {
        /// Data input pins after the strobe.
        data_inputs: usize,
        /// The RTL completion instant of the first request (issued at
        /// 20 ns).
        read_ns: u64,
        /// The strobe instant of the second request.
        second_write_ns: u64,
        /// Whether [`Fault::DropReady`] still publishes the completion.
        drop_ready_completes: bool,
    }

    fn row(design: DesignKind) -> Row {
        match design {
            DesignKind::Des56 => Row {
                data_inputs: Des56Core::DATA_INPUTS,
                read_ns: 190,
                second_write_ns: 220,
                drop_ready_completes: false,
            },
            DesignKind::ColorConv => Row {
                data_inputs: ColorConvCore::DATA_INPUTS,
                read_ns: 100,
                second_write_ns: 120,
                drop_ready_completes: true,
            },
            DesignKind::Fir => Row {
                data_inputs: FirCore::DATA_INPUTS,
                read_ns: 70,
                second_write_ns: 100,
                drop_ready_completes: true,
            },
        }
    }

    /// `design`'s TLM-AT model over its first `n` test requests.
    fn build(design: DesignKind, n: usize, fault: Fault, strict: bool) -> BuiltDesign {
        match design {
            DesignKind::Des56 => build_tlm_at(&Workload::new(BLOCKS[..n].to_vec()), fault, strict),
            DesignKind::ColorConv => {
                build_tlm_at(&Workload::new(PIXELS[..n].to_vec()), fault, strict)
            }
            DesignKind::Fir => build_tlm_at(&Workload::new(SAMPLES[..n].to_vec()), fault, strict),
        }
        .expect("catalogued fault")
    }

    /// The fault-free data outputs of each request in `completed`, in pin
    /// order, when exactly those requests complete in that order.
    fn results(design: DesignKind, completed: &[usize]) -> Vec<Vec<u64>> {
        let ks = des56::algo::KeySchedule::new(DES_KEY);
        let mut history = [0; 4];
        completed
            .iter()
            .map(|&i| match design {
                DesignKind::Des56 => {
                    let block = BLOCKS[i];
                    vec![des56::algo::apply(block.data, &ks, block.decrypt)]
                }
                DesignKind::ColorConv => {
                    let px = PIXELS[i];
                    let res = colorconv::algo::convert(px.r, px.g, px.b);
                    vec![u64::from(res.y), u64::from(res.cb), u64::from(res.cr)]
                }
                DesignKind::Fir => {
                    history.rotate_right(1);
                    history[0] = SAMPLES[i];
                    vec![fir::reference(&history)]
                }
            })
            .collect()
    }

    /// Runs `built` to `until_ns` (its end when `None`), recording the
    /// TLM-AT signals at every transaction.
    fn trace(design: DesignKind, mut built: BuiltDesign, until_ns: Option<u64>) -> Trace {
        let bus = built.bus.clone().expect("TLM-AT has a bus");
        let rec = TxTraceRecorder::install(&mut built.sim, &bus, design.tlm_at_signals());
        built
            .sim
            .run_until(SimTime::from_ns(until_ns.unwrap_or(built.end_ns)));
        TxTraceRecorder::take_trace(&built.sim, rec)
    }

    /// The strobe, the data outputs and the ready strobe of `design`.
    fn pins(design: DesignKind) -> (&'static str, Vec<&'static str>, &'static str) {
        let signals = design.tlm_at_signals();
        let (strobe, ready) = (signals[0], signals[signals.len() - 1]);
        let outputs = signals[1 + row(design).data_inputs..signals.len() - 1].to_vec();
        (strobe, outputs, ready)
    }

    /// The transactions one run publishes.
    fn published(built: &mut BuiltDesign) -> u64 {
        built.run();
        built.bus.as_ref().expect("TLM-AT has a bus").published()
    }

    fn catalogued(design: DesignKind, fault: Fault) -> bool {
        check(design, AbsLevel::TlmAt, fault).is_ok()
    }

    /// Two transactions per request in the loose model, four in the
    /// strict one.
    pub(crate) fn assert_transactions_per_request(design: DesignKind, strict: bool) {
        let per_request = if strict { 4 } else { 2 };
        for n in 1..=2 {
            let mut built = build(design, n, Fault::None, strict);
            assert_eq!(
                published(&mut built),
                per_request * n as u64,
                "{} strict={strict}",
                design.label()
            );
        }
    }

    /// The write lands at the strobe instant, the read at the RTL
    /// completion instant with the request's result.
    pub(crate) fn assert_read_at_rtl_completion(design: DesignKind) {
        let (strobe, outputs, ready) = pins(design);
        let row = row(design);
        let trace = trace(design, build(design, 2, Fault::None, false), None);
        let steps = trace.steps();
        assert_eq!(trace.len(), 4, "{}", design.label());
        assert_eq!(steps[0].time_ns, 20);
        assert_eq!(steps[0].signal(strobe), Some(1));
        assert_eq!(steps[1].time_ns, row.read_ns, "{}", design.label());
        assert_eq!(steps[1].signal(strobe), Some(0));
        assert_eq!(steps[1].signal(ready), Some(1));
        for (step, expected) in [&steps[1], &steps[3]]
            .into_iter()
            .zip(results(design, &[0, 1]))
        {
            for (&pin, value) in outputs.iter().zip(expected) {
                assert_eq!(step.signal(pin), Some(value), "{} {pin}", design.label());
            }
        }
    }

    /// The latency faults move the read one cycle early or late.
    pub(crate) fn assert_latency_faults_shift_read(design: DesignKind) {
        let read_ns = row(design).read_ns;
        for (fault, expected) in [
            (Fault::LatencyShort, read_ns - CLOCK_PERIOD_NS),
            (Fault::LatencyLong, read_ns + CLOCK_PERIOD_NS),
        ] {
            if catalogued(design, fault) {
                let trace = trace(design, build(design, 1, fault, false), Some(1000));
                assert_eq!(
                    trace.steps()[1].time_ns,
                    expected,
                    "{} {fault}",
                    design.label()
                );
            }
        }
    }

    /// [`Fault::DropTransaction`] swallows the second request: it neither
    /// completes nor reaches the core (FIR's delay line skips it).
    pub(crate) fn assert_drop_transaction(design: DesignKind) {
        let (strobe, outputs, _) = pins(design);
        let mut built = build(design, 3, Fault::DropTransaction, false);
        // Three writes, two completions.
        assert_eq!(published(&mut built), 5, "{}", design.label());
        let trace = trace(
            design,
            build(design, 3, Fault::DropTransaction, false),
            None,
        );
        let reads: Vec<Vec<u64>> = trace
            .steps()
            .iter()
            .filter(|s| s.signal(strobe) == Some(0))
            .map(|s| outputs.iter().filter_map(|&pin| s.signal(pin)).collect())
            .collect();
        assert_eq!(reads, results(design, &[0, 2]), "{}", design.label());
    }

    /// [`Fault::StuckControl`] raises the ready strobe with the request,
    /// before any result exists.
    pub(crate) fn assert_stuck_control(design: DesignKind) {
        if !catalogued(design, Fault::StuckControl) {
            return;
        }
        let (strobe, outputs, ready) = pins(design);
        let trace = trace(design, build(design, 1, Fault::StuckControl, false), None);
        let write = &trace.steps()[0];
        assert_eq!(write.signal(strobe), Some(1));
        assert_eq!(write.signal(ready), Some(1), "{}", design.label());
        assert_eq!(write.signal(outputs[0]), Some(0), "no result yet");
    }

    /// [`Fault::DropReady`]: DES56 loses the completion transaction (and
    /// the strict ready clear); the others complete without the ready
    /// strobe.
    pub(crate) fn assert_drop_ready(design: DesignKind) {
        let completes = row(design).drop_ready_completes;
        let mut built = build(design, 1, Fault::DropReady, false);
        let expected = if completes { 2 } else { 1 };
        assert_eq!(published(&mut built), expected, "{}", design.label());
        let mut built = build(design, 1, Fault::DropReady, true);
        let expected = if completes { 4 } else { 2 };
        assert_eq!(published(&mut built), expected, "{} strict", design.label());
        if completes {
            let (_, _, ready) = pins(design);
            let trace = trace(design, build(design, 1, Fault::DropReady, false), None);
            assert_eq!(trace.steps()[1].time_ns, row(design).read_ns);
            assert_eq!(
                trace.steps()[1].signal(ready),
                Some(0),
                "{}",
                design.label()
            );
        }
    }

    /// [`Fault::DuplicateTransaction`]: the first request completes twice,
    /// and the second, strobed in the busy window, never completes.
    pub(crate) fn assert_duplicate_transaction(design: DesignKind) {
        if !catalogued(design, Fault::DuplicateTransaction) {
            return;
        }
        let Row {
            read_ns,
            second_write_ns,
            ..
        } = row(design);
        let built = build(design, 2, Fault::DuplicateTransaction, false);
        let trace = trace(design, built, Some(1000));
        let times: Vec<u64> = trace.steps().iter().map(|s| s.time_ns).collect();
        assert_eq!(times, vec![20, read_ns, second_write_ns, 2 * read_ns - 20]);
    }

    #[test]
    fn at_has_two_transactions_per_request_loose_and_four_strict() {
        for design in DesignKind::ALL {
            assert_transactions_per_request(design, false);
            assert_transactions_per_request(design, true);
        }
    }

    #[test]
    fn at_read_lands_at_the_rtl_completion_time() {
        for design in DesignKind::ALL {
            assert_read_at_rtl_completion(design);
        }
    }

    #[test]
    fn at_latency_faults_shift_the_read() {
        for design in DesignKind::ALL {
            assert_latency_faults_shift_read(design);
        }
    }

    #[test]
    fn at_drop_transaction_swallows_the_second_request() {
        for design in DesignKind::ALL {
            assert_drop_transaction(design);
        }
    }

    #[test]
    fn at_stuck_control_raises_ready_at_the_request() {
        for design in DesignKind::ALL {
            assert_stuck_control(design);
        }
    }

    #[test]
    fn at_drop_ready_and_duplicate_transaction() {
        for design in DesignKind::ALL {
            assert_drop_ready(design);
            assert_duplicate_transaction(design);
        }
    }
}

//! The cycle-level shells shared by every IP: each IP's cycle core
//! implements [`CycleCore`], and one RTL builder and one TLM-CA builder
//! wrap any such core.
//!
//! Both shells step the same core once per clock period, which is what
//! makes the RTL and TLM-CA models timing-equivalent by construction
//! (Def. III.1) — the role HIFSuite's mechanical RTL-to-TLM abstraction
//! plays in the paper.

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
}

/// A request type, tied to the core that elaborates it.
pub trait Request: Copy + 'static {
    /// The core elaborating this request.
    type Core: CycleCore<Request = Self>;
}

/// Registers `C`'s pins, in declaration order, all initially 0.
fn add_pins<C: CycleCore>(sim: &mut Simulation) -> Box<[SignalId]> {
    C::PINS.iter().map(|name| sim.add_signal(name, 0)).collect()
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
    let pins = add_pins::<R::Core>(&mut sim);
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
    let pins = add_pins::<R::Core>(&mut sim);
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

//! Bring-your-own-IP walkthrough: wire a custom design into the
//! verification flow from scratch.
//!
//! The IP is a tiny accumulator: a `load` strobe latches `value`; two
//! cycles later `sum` (a running total) is updated and `ack` pulses. We
//! model it at RTL, write two PSL properties, check them at RTL, abstract
//! them, and check the abstraction on a hand-written TLM model of the same
//! IP — the complete paper flow on a design this repository has never seen.
//!
//! ```text
//! cargo run --example custom_ip
//! ```

use abv_checker::{Binding, Checker};
use abv_core::{abstract_property, AbstractionConfig};
use desim::{Component, Event, SignalId, SimCtx, SimTime, Simulation};
use psl::ClockedProperty;
use rtlkit::{Clock, EdgeDetector};
use tlmkit::{Transaction, TransactionBus};

/// The accumulator at RTL: latency 2, `ack` is a one-cycle pulse.
struct AccumulatorRtl {
    clk: SignalId,
    det: EdgeDetector,
    load: SignalId,
    value: SignalId,
    sum: SignalId,
    ack: SignalId,
    total: u64,
    countdown: u32,
    staged: u64,
}

impl Component for AccumulatorRtl {
    fn handle(&mut self, _ev: Event, ctx: &mut SimCtx<'_>) {
        if !self.det.is_rising(ctx.read(self.clk)) {
            return;
        }
        ctx.write(self.ack, 0);
        if self.countdown > 0 {
            self.countdown -= 1;
            if self.countdown == 0 {
                self.total = self.total.wrapping_add(self.staged);
                ctx.write(self.sum, self.total);
                ctx.write(self.ack, 1);
            }
        }
        if self.countdown == 0 && ctx.read(self.load) != 0 {
            self.staged = ctx.read(self.value);
            self.countdown = 2;
        }
    }
}

/// Drives `load` pulses every 5 cycles.
struct Stimulus {
    clk: SignalId,
    det: EdgeDetector,
    load: SignalId,
    value: SignalId,
    inputs: Vec<u64>,
    cycle: u64,
}

impl Component for Stimulus {
    fn handle(&mut self, _ev: Event, ctx: &mut SimCtx<'_>) {
        if !self.det.is_falling(ctx.read(self.clk)) {
            return;
        }
        self.cycle += 1;
        if self.cycle % 5 == 1 {
            if let Some(v) = self.inputs.pop() {
                ctx.write(self.load, 1);
                ctx.write(self.value, v);
                return;
            }
        }
        ctx.write(self.load, 0);
    }
}

/// The same IP at TLM-AT: one write per load, one read at `t + 2 cycles`.
struct AccumulatorTlm {
    bus: TransactionBus,
    load: SignalId,
    value: SignalId,
    sum: SignalId,
    ack: SignalId,
    total: u64,
    pending: u64,
}

impl Component for AccumulatorTlm {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        if ev.kind & 1 == 0 {
            // Write: submit the addend.
            self.pending = ev.kind >> 1;
            ctx.write(self.load, 1);
            ctx.write(self.value, self.pending);
            ctx.write(self.ack, 0);
            self.bus
                .publish(ctx, Transaction::write(0, self.pending, ev.time));
            ctx.schedule_self(20, 1); // read 2 cycles (20 ns) later
        } else {
            // Read: fetch the updated sum.
            self.total = self.total.wrapping_add(self.pending);
            ctx.write(self.load, 0);
            ctx.write(self.sum, self.total);
            ctx.write(self.ack, 1);
            self.bus
                .publish(ctx, Transaction::read(0, self.total, ev.time));
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The RTL properties: completion in 2 cycles, ack never sticks.
    let properties: Vec<(String, ClockedProperty)> = vec![
        (
            "a1".to_owned(),
            "always (!load || next[2] ack) @clk_pos".parse()?,
        ),
        (
            "a2".to_owned(),
            "always (!load || next[2] (sum != 0)) @clk_pos".parse()?,
        ),
    ];

    // 2. RTL verification.
    let mut sim = Simulation::new();
    let clk = Clock::install(&mut sim, "clk", 10);
    let load = sim.add_signal("load", 0);
    let value = sim.add_signal("value", 0);
    let sum = sim.add_signal("sum", 0);
    let ack = sim.add_signal("ack", 0);
    let dut = sim.add_component(AccumulatorRtl {
        clk: clk.signal,
        det: EdgeDetector::new(),
        load,
        value,
        sum,
        ack,
        total: 0,
        countdown: 0,
        staged: 0,
    });
    sim.subscribe(clk.signal, dut, 0);
    let stim = sim.add_component(Stimulus {
        clk: clk.signal,
        det: EdgeDetector::new(),
        load,
        value,
        inputs: vec![7, 11, 13, 42],
        cycle: 0,
    });
    sim.subscribe(clk.signal, stim, 0);
    let checkers = Checker::attach_all(&mut sim, &properties, Binding::clock(clk.signal))
        .map_err(|(i, e)| format!("property {i}: {e}"))?;
    sim.run_until(SimTime::from_ns(400));
    let report = Checker::collect(&mut sim, &checkers, 400);
    println!("== accumulator @ RTL ==");
    print!("{report}");
    assert!(report.all_pass());

    // 3. Abstraction (10 ns clock, nothing to delete for this IP).
    let cfg = AbstractionConfig::new(10)?;
    let tlm_properties: Vec<(String, ClockedProperty)> = properties
        .iter()
        .map(|(n, p)| {
            let q = abstract_property(p, &cfg)?.into_property().expect("kept");
            Ok::<_, abv_core::AbstractError>((n.clone(), q))
        })
        .collect::<Result<_, _>>()?;
    println!("\n== abstracted properties ==");
    for (n, q) in &tlm_properties {
        println!("{n}: {q}");
    }

    // 4. TLM-AT verification of the same stimulus.
    let mut sim = Simulation::new();
    let bus = TransactionBus::new();
    let load = sim.add_signal("load", 0);
    let value = sim.add_signal("value", 0);
    let sum = sim.add_signal("sum", 0);
    let ack = sim.add_signal("ack", 0);
    let model = sim.add_component(AccumulatorTlm {
        bus: bus.clone(),
        load,
        value,
        sum,
        ack,
        total: 0,
        pending: 0,
    });
    for (i, v) in [42u64, 13, 11, 7].iter().enumerate() {
        // Loads at the same instants the RTL model samples them.
        sim.schedule(SimTime::from_ns(20 + 50 * i as u64), model, v << 1);
    }
    let checkers = Checker::attach_all(&mut sim, &tlm_properties, Binding::bus(&bus))
        .map_err(|(i, e)| format!("property {i}: {e}"))?;
    sim.run_to_completion();
    let end = sim.now().as_ns();
    let report = Checker::collect(&mut sim, &checkers, end);
    println!("\n== accumulator @ TLM-AT ==");
    print!("{report}");
    assert!(report.all_pass());
    println!("\nThe same two properties verified both models without rewriting them by hand.");
    Ok(())
}

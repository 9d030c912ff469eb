//! Delivery-order pin for the kernel's fan-out paths: signal-commit wakes
//! to several subscribers, a [`TransactionBus`] publish to three observers
//! with plain `notify`s around it, and zero-delay self-schedules that land
//! in the same delta round as commit wakes.
//!
//! Every component appends each delivery — time, receiver, kind and the
//! committed value of every signal — to one shared log. The log's FNV-1a
//! digest and length pin the exact order of deliveries within each delta
//! round and the round each one lands in (a delivery moved to another
//! round sees other signal values). With the signal-change count they are
//! this network's semantics ([`SEMANTIC`]); the event, delta and timestamp
//! counts are its cost ([`COST`]), split by `tests/common/pins.rs`. A
//! change to how the kernel stages a wake list must leave both unchanged.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use common::pins::{self, StatsCost, StatsSemantic};
use desim::{Component, ComponentId, Event, SignalId, SimCtx, SimStats, SimTime, Simulation};
use tinyrng::TinyRng;
use tlmkit::{Transaction, TransactionBus};

/// Driver ticks per run.
const TICKS: u32 = 200;

/// Kind of the driver's periodic tick.
const TICK: u64 = 0;
/// Kind of the driver's zero-delay follow-up.
const FOLLOW_UP: u64 = 1;
/// Added to a wake's kind by a reactor's zero-delay self-schedule.
const ECHO: u64 = 1000;

/// `(seed, log digest, log bytes, [signal changes])`.
const SEMANTIC: [(u64, u64, usize, StatsSemantic); 3] = [
    (2015, 0x3f6e_ec2e_2d57_fb3e, 276_928, [788]),
    (7, 0x2983_5334_8416_8bdd, 295_872, [829]),
    (0xFA_0007, 0x6dd0_0714_2beb_ac69, 270_976, [742]),
];

/// `(seed, [events, deltas, timestamps])`.
const COST: [(u64, StatsCost); 3] = [
    (2015, [4327, 1007, 200]),
    (7, [4623, 1036, 200]),
    (0xFA_0007, [4234, 974, 200]),
];

type Log = Rc<RefCell<Vec<u8>>>;

/// Appends one delivery: time, receiver, kind and every signal's value.
fn record(log: &Log, ctx: &SimCtx<'_>, ev: Event, signals: &[SignalId]) {
    let mut log = log.borrow_mut();
    log.extend_from_slice(&ev.time.as_ns().to_le_bytes());
    log.extend_from_slice(&(ctx.self_id().index() as u64).to_le_bytes());
    log.extend_from_slice(&ev.kind.to_le_bytes());
    for &s in signals {
        log.extend_from_slice(&ctx.read(s).to_le_bytes());
    }
}

/// Writes random values to the input signals at random intervals,
/// publishes on the bus with `notify`s before and after, and follows up
/// in the next delta.
struct Driver {
    signals: Vec<SignalId>,
    bus: TransactionBus,
    targets: [ComponentId; 2],
    rng: TinyRng,
    ticks: u32,
    log: Log,
}

impl Component for Driver {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        record(&self.log, ctx, ev, &self.signals);
        if ev.kind == FOLLOW_UP {
            if self.rng.flip() {
                let v = self.rng.range_u64(0, 3);
                ctx.write(self.signals[2], v);
            }
            return;
        }
        // Values in 0..3 leave some writes unchanged, which wake nobody.
        for _ in 0..self.rng.range_usize(1, 4) {
            let s = self.signals[self.rng.range_usize(0, 3)];
            let v = self.rng.range_u64(0, 3);
            ctx.write(s, v);
        }
        if self.rng.chance(0.6) {
            let before = *self.rng.pick(&self.targets);
            ctx.notify(before, 100 + u64::from(self.ticks));
            let tx = Transaction::write(u64::from(self.ticks), self.rng.range_u64(0, 256), ev.time);
            self.bus.publish(ctx, tx);
            let after = *self.rng.pick(&self.targets);
            ctx.notify(after, 200 + u64::from(self.ticks));
        }
        if self.rng.flip() {
            ctx.schedule_self(0, FOLLOW_UP);
        }
        self.ticks += 1;
        if self.ticks < TICKS {
            let delay = self.rng.range_u64(1, 4);
            ctx.schedule_self(delay, TICK);
        }
    }
}

/// Logs every wake; optionally drives an output signal from its inputs
/// and echoes some wakes to itself in the next delta. Outputs only feed
/// higher-numbered signals, so every cascade ends.
struct Reactor {
    signals: Vec<SignalId>,
    inputs: Vec<SignalId>,
    output: Option<SignalId>,
    rng: TinyRng,
    log: Log,
}

impl Component for Reactor {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        record(&self.log, ctx, ev, &self.signals);
        if let Some(out) = self.output {
            let sum: u64 = self.inputs.iter().map(|&s| ctx.read(s)).sum();
            ctx.write(out, (sum + ev.kind) % 3);
        }
        if ev.kind < ECHO && self.rng.chance(0.3) {
            ctx.schedule_self(0, ev.kind + ECHO);
        }
    }
}

/// Builds the network for `seed`, runs it and returns the log and stats.
fn run(seed: u64) -> (Vec<u8>, SimStats) {
    let log: Log = Rc::default();
    let mut sim = Simulation::new();
    let s: Vec<SignalId> = (0..5)
        .map(|i| sim.add_signal(&format!("s{i}"), 0))
        .collect();
    let bus = TransactionBus::new();
    let reactor = |inputs: &[usize], output: Option<usize>, index: u64| Reactor {
        signals: s.clone(),
        inputs: inputs.iter().map(|&i| s[i]).collect(),
        output: output.map(|o| s[o]),
        rng: TinyRng::fork(seed, index),
        log: log.clone(),
    };
    let r = [
        sim.add_component(reactor(&[0, 1], Some(3), 1)),
        sim.add_component(reactor(&[2], Some(3), 2)),
        sim.add_component(reactor(&[1, 3], Some(4), 3)),
        sim.add_component(reactor(&[], None, 4)),
        sim.add_component(reactor(&[], None, 5)),
        sim.add_component(reactor(&[], None, 6)),
    ];
    let driver = sim.add_component(Driver {
        signals: s.clone(),
        bus: bus.clone(),
        targets: [r[1], r[3]],
        rng: TinyRng::fork(seed, 0),
        ticks: 0,
        log: log.clone(),
    });
    // Subscriptions interleave signals and components, so no sensitivity
    // list is in component order; r3 listens to s0 twice.
    for (sig, comp, kind) in [
        (0, 5, 60),
        (0, 0, 10),
        (3, 3, 43),
        (0, 3, 40),
        (1, 2, 31),
        (0, 1, 20),
        (2, 5, 62),
        (1, 0, 11),
        (3, 2, 33),
        (0, 3, 41),
        (4, 4, 54),
        (1, 5, 61),
        (2, 1, 22),
        (3, 5, 63),
        (2, 4, 52),
        (4, 3, 44),
        (4, 5, 64),
    ] {
        sim.subscribe(s[sig], r[comp], kind);
    }
    bus.subscribe(r[4], 500);
    bus.subscribe(r[5], 501);
    bus.subscribe(r[0], 502);
    sim.schedule(SimTime::from_ns(1), driver, TICK);
    let stats = sim.run_to_completion();
    let bytes = log.borrow().clone();
    (bytes, stats)
}

#[test]
fn fan_out_delivery_order_is_pinned() {
    let measured: Vec<_> = SEMANTIC
        .iter()
        .map(|&(seed, ..)| {
            let (log, st) = run(seed);
            (
                seed,
                common::fnv1a64(&log),
                log.len(),
                pins::split_stats(&st).0,
            )
        })
        .collect();
    assert_eq!(
        measured, SEMANTIC,
        "fan-out delivery moved; measured:\n{measured:#x?}"
    );
}

#[test]
fn fan_out_kernel_cost_is_pinned() {
    let measured: Vec<_> = COST
        .iter()
        .map(|&(seed, _)| (seed, pins::split_stats(&run(seed).1).1))
        .collect();
    assert_eq!(
        measured, COST,
        "fan-out kernel work moved; measured:\n{measured:?}"
    );
}

#[test]
fn the_network_exercises_every_fan_out_path() {
    let (log, st) = run(SEMANTIC[0].0);
    let kinds: Vec<u64> = log
        .chunks_exact(8 * 8)
        .map(|e| u64::from_le_bytes(e[16..24].try_into().expect("8 bytes")))
        .collect();
    let has = |k: u64| kinds.contains(&k);
    assert!(has(500) && has(501) && has(502), "every bus observer woke");
    assert!(
        has(40) && has(41),
        "both subscriptions of one component fired"
    );
    assert!(
        kinds.iter().any(|&k| (100..200).contains(&k)),
        "notify before publish"
    );
    assert!(
        kinds.iter().any(|&k| (200..300).contains(&k)),
        "notify after publish"
    );
    assert!(kinds.iter().any(|&k| k > ECHO), "zero-delay echoes");
    assert!(has(44) && has(64), "second-level cascades reached s4");
    assert!(
        st.delta_cycles > st.timestamps * 2,
        "multi-round timestamps"
    );
}

//! The checker host: the kernel component that feeds evaluation events to
//! a [`PropertyChecker`], at clock edges or at transaction ends.

use abv_obs::{trace, TraceEvent};
use desim::{Component, ComponentId, Event, SignalId, SimCtx, Simulation};
use psl::{ClockEdge, ClockedProperty};
use tlmkit::TransactionBus;

use crate::compile::{compile, CompileError};
use crate::monitor::PropertyChecker;

/// A clock change (clocked hosts) or a transaction end (bus hosts).
const KIND_WAKE: u64 = 0;
const KIND_SAMPLE: u64 = 1;

/// Spacing between per-checker trace-track blocks: each checker host owns
/// tracks `[base, base + TRACE_TRACK_STRIDE)` for its property-level track
/// plus one track per pool slot.
const TRACE_TRACK_STRIDE: u64 = 1000;

/// The clock a clocked host samples on.
struct ClockState {
    clk: SignalId,
    edge: ClockEdge,
    last_clk: u64,
}

impl ClockState {
    /// Records the clock's new value `v` and reports whether the change is
    /// an edge the property samples at.
    fn edge_seen(&mut self, v: u64) -> bool {
        let matched = self.edge.is_edge(self.last_clk, v);
        self.last_clk = v;
        matched
    }
}

/// Drives one checker. With a clock it samples at the property's clock
/// edges (RTL verification, and unabstracted properties on cycle-accurate
/// models); without one it is the paper's TLM **wrapper** (Section IV),
/// sampling at every transaction end on a [`TransactionBus`].
///
/// Either way the wake re-schedules a sampling delta, so the checker
/// observes the values the design committed at that edge or transaction
/// (the postponed sampling of the clocked checker processes the generator
/// produces). Instance pooling, the evaluation table, deadline failures
/// and reset/reuse live in [`PropertyChecker`].
pub(crate) struct Host {
    pub(crate) checker: PropertyChecker,
    clock: Option<ClockState>,
}

/// Compiles `property` and installs its host: a clock context samples at
/// the edges of `clk`, a transaction context observes `bus`.
pub(crate) fn install(
    sim: &mut Simulation,
    name: &str,
    property: &ClockedProperty,
    clk: Option<SignalId>,
    bus: Option<&TransactionBus>,
) -> Result<ComponentId, InstallError> {
    let (checker, edge) = compile(name, property, sim)?;
    let id = match edge {
        Some(edge) => {
            let clk = clk.ok_or(InstallError::MissingClock)?;
            let clock = Some(ClockState {
                clk,
                edge,
                last_clk: 0,
            });
            let id = sim.add_component(Host { checker, clock });
            sim.subscribe(clk, id, KIND_WAKE);
            id
        }
        None => {
            let bus = bus.ok_or(InstallError::MissingBus)?;
            let id = sim.add_component(Host {
                checker,
                clock: None,
            });
            bus.subscribe(id, KIND_WAKE);
            id
        }
    };
    // Give the checker its trace-track block and label the property-level
    // track, so traces show one named row per property.
    let tid = (id.index() as u64 + 1) * TRACE_TRACK_STRIDE;
    sim.component_mut::<Host>(id)
        .expect("just installed")
        .checker
        .set_trace_tid(tid);
    let tracer = sim.tracer().clone();
    trace!(tracer, TraceEvent::thread_name(0, tid, name.to_owned()));
    Ok(id)
}

impl Component for Host {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        match ev.kind {
            KIND_WAKE => {
                let due = match &mut self.clock {
                    Some(clock) => clock.edge_seen(ctx.read(clock.clk)),
                    None => true,
                };
                if due {
                    ctx.schedule_self(0, KIND_SAMPLE);
                }
            }
            KIND_SAMPLE => {
                let now = ev.time.as_ns();
                let checker = &mut self.checker;
                checker.on_event_traced(&|sig| ctx.read(sig), now, ctx.tracer());
            }
            other => unreachable!("unknown host event kind {other}"),
        }
    }
}

/// Errors from host installation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// Checker synthesis failed.
    Compile(CompileError),
    /// The property samples at clock edges but the
    /// [`Binding`](crate::Binding) carries no clock signal.
    MissingClock,
    /// The property samples at transaction boundaries but the
    /// [`Binding`](crate::Binding) carries no transaction bus.
    MissingBus,
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::Compile(e) => write!(f, "{e}"),
            InstallError::MissingClock => {
                f.write_str("clock-context property, but the binding has no clock signal")
            }
            InstallError::MissingBus => {
                f.write_str("transaction-context property, but the binding has no bus")
            }
        }
    }
}

impl std::error::Error for InstallError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InstallError::Compile(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CompileError> for InstallError {
    fn from(e: CompileError) -> InstallError {
        InstallError::Compile(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attach::{Binding, Checker};
    use desim::SimTime;
    use rtlkit::{Clock, EdgeDetector};
    use tlmkit::Transaction;

    /// Pulses `ds` at a chosen edge index and `rdy` 17 edges later.
    struct PulseDut {
        clk: SignalId,
        ds: SignalId,
        rdy: SignalId,
        det: EdgeDetector,
        edge_count: u64,
        fire_edge: u64,
        latency: u64,
    }

    impl Component for PulseDut {
        fn handle(&mut self, _ev: Event, ctx: &mut SimCtx<'_>) {
            let v = ctx.read(self.clk);
            if !self.det.is_rising(v) {
                return;
            }
            self.edge_count += 1;
            ctx.write(self.ds, u64::from(self.edge_count == self.fire_edge));
            ctx.write(
                self.rdy,
                u64::from(self.edge_count == self.fire_edge + self.latency),
            );
        }
    }

    fn pulse_sim(fire_edge: u64, latency: u64) -> (Simulation, SignalId) {
        let mut sim = Simulation::new();
        let clk = Clock::install(&mut sim, "clk", 10);
        let ds = sim.add_signal("ds", 0);
        let rdy = sim.add_signal("rdy", 0);
        let dut = sim.add_component(PulseDut {
            clk: clk.signal,
            ds,
            rdy,
            det: EdgeDetector::new(),
            edge_count: 0,
            fire_edge,
            latency,
        });
        sim.subscribe(clk.signal, dut, 0);
        (sim, clk.signal)
    }

    #[test]
    fn rtl_checker_passes_correct_latency() {
        let (mut sim, clk) = pulse_sim(3, 17);
        let p: ClockedProperty = "always (!ds || next[17] rdy) @clk_pos".parse().unwrap();
        let checker = Checker::attach(&mut sim, "p4", &p, Binding::clock(clk)).unwrap();
        sim.run_until(SimTime::from_ns(400));
        let report = checker.finalize(&mut sim, 400);
        assert_eq!(report.failure_count, 0, "{report}");
        assert_eq!(report.completions, 1);
        assert!(report.activations >= 30);
    }

    #[test]
    fn rtl_checker_catches_wrong_latency() {
        let (mut sim, clk) = pulse_sim(3, 16); // one cycle early
        let p: ClockedProperty = "always (!ds || next[17] rdy) @clk_pos".parse().unwrap();
        let checker = Checker::attach(&mut sim, "p4", &p, Binding::clock(clk)).unwrap();
        sim.run_until(SimTime::from_ns(400));
        let report = checker.finalize(&mut sim, 400);
        assert_eq!(report.failure_count, 1, "{report}");
    }

    #[test]
    fn clock_only_binding_rejects_transaction_context() {
        let (mut sim, clk) = pulse_sim(3, 17);
        let p: ClockedProperty = "always rdy @T_b".parse().unwrap();
        let err = Checker::attach(&mut sim, "p", &p, Binding::clock(clk)).unwrap_err();
        assert_eq!(err, InstallError::MissingBus);
    }

    /// Publishes a write at 10ns (ds=1) and a read at 180ns (rdy=1).
    struct AtModel {
        bus: TransactionBus,
        ds: SignalId,
        rdy: SignalId,
    }

    impl Component for AtModel {
        fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
            match ev.kind {
                0 => {
                    ctx.write(self.ds, 1);
                    ctx.write(self.rdy, 0);
                    self.bus.publish(ctx, Transaction::write(0, 0, ev.time));
                    ctx.schedule_self(170, 1);
                }
                _ => {
                    ctx.write(self.ds, 0);
                    ctx.write(self.rdy, 1);
                    self.bus.publish(ctx, Transaction::read(0, 0, ev.time));
                }
            }
        }
    }

    fn at_sim() -> (Simulation, TransactionBus) {
        let mut sim = Simulation::new();
        let bus = TransactionBus::new();
        let ds = sim.add_signal("ds", 0);
        let rdy = sim.add_signal("rdy", 0);
        let model = sim.add_component(AtModel {
            bus: bus.clone(),
            ds,
            rdy,
        });
        sim.schedule(SimTime::from_ns(10), model, 0);
        (sim, bus)
    }

    #[test]
    fn tlm_wrapper_passes_q3_on_at_model() {
        let (mut sim, bus) = at_sim();
        let q3: ClockedProperty = "always (!ds || next_et[1, 170] rdy) @T_b".parse().unwrap();
        let checker = Checker::attach(&mut sim, "q3", &q3, Binding::bus(&bus)).unwrap();
        sim.run_to_completion();
        let report = checker.finalize(&mut sim, 200);
        assert_eq!(report.failure_count, 0, "{report}");
        assert_eq!(report.completions, 1);
        assert_eq!(report.activations, 2);
        assert_eq!(report.vacuous, 1, "the read transaction has ds=0");
    }

    #[test]
    fn tlm_wrapper_fails_q2_on_sparse_at_model() {
        // q2 references t_fire+10, where the loose AT model has no event
        // (DESIGN.md §5b): strict Def. III.3 semantics must fail it.
        let (mut sim, bus) = at_sim();
        let q2: ClockedProperty =
            "always (!ds || (next_et[1,10](!ds) until next_et[2,20](rdy))) @T_b"
                .parse()
                .unwrap();
        let checker = Checker::attach(&mut sim, "q2", &q2, Binding::bus(&bus)).unwrap();
        sim.run_to_completion();
        let report = checker.finalize(&mut sim, 200);
        assert!(report.failure_count >= 1, "{report}");
    }

    #[test]
    fn bus_only_binding_rejects_clock_context() {
        let (mut sim, bus) = at_sim();
        let p: ClockedProperty = "always rdy @clk_pos".parse().unwrap();
        let err = Checker::attach(&mut sim, "p", &p, Binding::bus(&bus)).unwrap_err();
        assert_eq!(err, InstallError::MissingClock);
    }

    #[test]
    fn wrapper_lifecycle_is_traced_as_spans() {
        use abv_obs::{Phase, Tracer};

        let (mut sim, bus) = at_sim();
        let (tracer, sink) = Tracer::memory();
        sim.set_tracer(tracer);
        let q3: ClockedProperty = "always (!ds || next_et[1, 170] rdy) @T_b".parse().unwrap();
        let checker = Checker::attach(&mut sim, "q3", &q3, Binding::bus(&bus)).unwrap();
        sim.run_to_completion();
        let _ = checker.finalize(&mut sim, 200);

        let events = sink.borrow_mut().take_events();
        let begins: Vec<_> = events.iter().filter(|e| e.phase == Phase::Begin).collect();
        let ends = events.iter().filter(|e| e.phase == Phase::End).count();
        assert_eq!(begins.len(), 1, "one checker-instance activation span");
        assert_eq!(ends, 1, "the span is closed at resolution");
        assert_eq!(begins[0].name, "q3");
        assert_eq!(begins[0].ts_ns, 10, "activated at the write transaction");
        let obligation = events
            .iter()
            .find(|e| e.name == "obligation")
            .expect("table registration traced");
        assert!(obligation
            .args
            .iter()
            .any(|(k, v)| *k == "deadline_ns" && *v == abv_obs::ArgValue::U64(180)));
        assert!(events.iter().any(|e| e.name == "pass"));
        assert!(
            events.iter().any(|e| e.name == "vacuous"),
            "the ds=0 read activation is vacuous"
        );
        assert!(
            events
                .iter()
                .any(|e| e.phase == Phase::Counter && e.name == desim::KERNEL_COUNTER_TRACK),
            "kernel counter track present"
        );
        assert!(
            events
                .iter()
                .any(|e| e.phase == Phase::Meta && e.name == "thread_name"),
            "property track is labelled"
        );
    }

    #[test]
    fn batch_attach_reports_index() {
        let (mut sim, bus) = at_sim();
        let good: ClockedProperty = "always rdy @T_b".parse().unwrap();
        let bad: ClockedProperty = "always ghost @T_b".parse().unwrap();
        let err = Checker::attach_all(
            &mut sim,
            &[("good".into(), good), ("bad".into(), bad)],
            Binding::bus(&bus),
        )
        .unwrap_err();
        assert_eq!(err.0, 1);
    }

    #[test]
    fn full_binding_dispatches_on_context() {
        // A mixed simulation: a clock plus a transaction bus; one property
        // of each context attaches through the same binding.
        let mut sim = Simulation::new();
        let clk = Clock::install(&mut sim, "clk", 10);
        let bus = TransactionBus::new();
        let _rdy = sim.add_signal("rdy", 1);
        let binding = Binding::full(clk.signal, &bus);
        let clocked: ClockedProperty = "always rdy @clk_pos".parse().unwrap();
        let tx: ClockedProperty = "always rdy @T_b".parse().unwrap();
        let checkers = Checker::attach_all(
            &mut sim,
            &[("clk".into(), clocked), ("tx".into(), tx)],
            binding,
        )
        .unwrap();
        sim.run_until(SimTime::from_ns(100));
        let report = Checker::collect(&mut sim, &checkers, 100);
        assert_eq!(report.properties.len(), 2);
        assert!(report.all_pass(), "{report}");
    }
}

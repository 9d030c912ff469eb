//! Transaction-driven trace capture into [`psl::Trace`].

use desim::{Component, ComponentId, Event, SignalId, SimCtx, Simulation};
use psl::trace::{Step, Trace};

use crate::bus::TransactionBus;

/// Builds a [`psl::Trace`] with one evaluation instant per transaction end,
/// sampling the model's mirror signals — the transaction-context
/// counterpart of `rtlkit`'s clock-edge waveform recorder.
///
/// When several transactions complete at the same instant their samples
/// merge into a single trace step (a [`Trace`] has strictly increasing
/// times); the live checker wrapper, by contrast, treats each transaction
/// as its own evaluation point.
pub struct TxTraceRecorder {
    watch: Vec<(String, SignalId)>,
    trace: Trace,
}

impl TxTraceRecorder {
    /// Registers a recorder observing `bus` and sampling `signals` at each
    /// transaction end.
    ///
    /// # Panics
    ///
    /// Panics if a watched signal name does not exist.
    pub fn install<S: AsRef<str>>(
        sim: &mut Simulation,
        bus: &TransactionBus,
        signals: impl IntoIterator<Item = S>,
    ) -> ComponentId {
        let watch: Vec<(String, SignalId)> = signals
            .into_iter()
            .map(|n| {
                let n = n.as_ref();
                let id = sim
                    .signal_id(n)
                    .unwrap_or_else(|| panic!("watched signal `{n}` does not exist"));
                (n.to_owned(), id)
            })
            .collect();
        let component = sim.add_component(TxTraceRecorder {
            watch,
            trace: Trace::new(),
        });
        bus.subscribe(component, 0);
        component
    }

    /// The trace captured so far.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Extracts a clone of the captured trace from a finished simulation.
    ///
    /// # Panics
    ///
    /// Panics if `component` is not a `TxTraceRecorder` of `sim`.
    #[must_use]
    pub fn take_trace(sim: &Simulation, component: ComponentId) -> Trace {
        sim.component::<TxTraceRecorder>(component)
            .expect("component must be a TxTraceRecorder")
            .trace()
            .clone()
    }
}

impl Component for TxTraceRecorder {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        let t = ev.time.as_ns();
        let mut step = Step::new(t, std::iter::empty::<(String, u64)>());
        for (name, id) in &self.watch {
            step.set(name.clone(), ctx.read(*id));
        }
        if self.trace.steps().last().map(|last| last.time_ns) == Some(t) {
            // Same-instant transaction: replace the previous sample.
            self.trace.pop();
        }
        self.trace
            .push(step)
            .expect("transaction times are monotone");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Transaction;
    use desim::SimTime;
    use psl::SignalEnv;

    /// Writes a mirror signal then publishes, mimicking a TLM model.
    struct Model {
        bus: TransactionBus,
        mirror: SignalId,
        value: u64,
    }

    impl Component for Model {
        fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
            self.value += 10;
            ctx.write(self.mirror, self.value);
            self.bus
                .publish(ctx, Transaction::write(0, self.value, ev.time));
        }
    }

    #[test]
    fn one_step_per_transaction_with_committed_mirrors() {
        let mut sim = Simulation::new();
        let bus = TransactionBus::new();
        let mirror = sim.add_signal("out", 0);
        let model = sim.add_component(Model {
            bus: bus.clone(),
            mirror,
            value: 0,
        });
        let rec = TxTraceRecorder::install(&mut sim, &bus, ["out"]);
        sim.schedule(SimTime::from_ns(10), model, 0);
        sim.schedule(SimTime::from_ns(170), model, 0);
        sim.run_to_completion();
        let trace = TxTraceRecorder::take_trace(&sim, rec);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.steps()[0].time_ns, 10);
        assert_eq!(trace.steps()[0].signal("out"), Some(10));
        assert_eq!(trace.steps()[1].time_ns, 170);
        assert_eq!(trace.steps()[1].signal("out"), Some(20));
    }

    #[test]
    fn same_instant_transactions_merge() {
        let mut sim = Simulation::new();
        let bus = TransactionBus::new();
        let mirror = sim.add_signal("out", 0);
        let model = sim.add_component(Model {
            bus: bus.clone(),
            mirror,
            value: 0,
        });
        let rec = TxTraceRecorder::install(&mut sim, &bus, ["out"]);
        for _ in 0..3 {
            sim.schedule(SimTime::from_ns(10), model, 0);
        }
        sim.run_to_completion();
        let trace = TxTraceRecorder::take_trace(&sim, rec);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.steps()[0].time_ns, 10);
        assert_eq!(trace.steps()[0].signal("out"), Some(30), "last value wins");

        sim.schedule(SimTime::from_ns(50), model, 0);
        sim.run_to_completion();
        let trace = TxTraceRecorder::take_trace(&sim, rec);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.steps()[0].signal("out"), Some(30));
        assert_eq!(trace.steps()[1].time_ns, 50);
        assert_eq!(trace.steps()[1].signal("out"), Some(40));
    }
}

//! Waveform capture into [`psl::Trace`].

use desim::{Component, ComponentId, Event, SignalId, SimCtx, Simulation};
use psl::trace::{Step, Trace};
use psl::ClockEdge;

const KIND_CLK: u64 = 0;
const KIND_SAMPLE: u64 = 1;

/// Samples a set of signals at clock edges, building a [`psl::Trace`].
///
/// The recorder implements the *postponed* sampling discipline (see the
/// [crate docs](crate)): woken by a clock change, it re-schedules itself one
/// delta later so the sampled values include everything the design's
/// clocked processes committed at that edge.
///
/// Install with [`WaveRecorder::install`]; after the run, extract the trace
/// through the returned [`RecorderHandle`].
pub struct WaveRecorder {
    clk: SignalId,
    edge: ClockEdge,
    last_clk: u64,
    watch: Vec<(String, SignalId)>,
    trace: Trace,
}

/// Handle to a [`WaveRecorder`] component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderHandle {
    /// The recorder component.
    pub component: ComponentId,
}

impl WaveRecorder {
    /// Registers a recorder sampling `signals` (by name) at the given edges
    /// of `clk`.
    ///
    /// # Panics
    ///
    /// Panics if a watched signal name does not exist.
    pub fn install<S: AsRef<str>>(
        sim: &mut Simulation,
        clk: SignalId,
        edge: ClockEdge,
        signals: impl IntoIterator<Item = S>,
    ) -> RecorderHandle {
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
        let rec = WaveRecorder {
            clk,
            edge,
            last_clk: 0,
            watch,
            trace: Trace::new(),
        };
        let component = sim.add_component(rec);
        sim.subscribe(clk, component, KIND_CLK);
        RecorderHandle { component }
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
    /// Panics if `handle` does not refer to a `WaveRecorder` of `sim`.
    #[must_use]
    pub fn take_trace(sim: &Simulation, handle: RecorderHandle) -> Trace {
        sim.component::<WaveRecorder>(handle.component)
            .expect("handle must refer to a WaveRecorder")
            .trace()
            .clone()
    }
}

impl Component for WaveRecorder {
    fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
        match ev.kind {
            KIND_CLK => {
                let v = ctx.read(self.clk);
                let matched = self.edge.is_edge(self.last_clk, v);
                self.last_clk = v;
                if matched {
                    ctx.schedule_self(0, KIND_SAMPLE);
                }
            }
            KIND_SAMPLE => {
                let mut step = Step::new(ev.time.as_ns(), std::iter::empty::<(String, u64)>());
                for (name, id) in &self.watch {
                    step.set(name.clone(), ctx.read(*id));
                }
                self.trace
                    .push(step)
                    .expect("clock edges have strictly increasing times");
            }
            other => unreachable!("unknown recorder event kind {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, EdgeDetector};
    use desim::SimTime;

    /// A counter incrementing a signal at each rising edge.
    struct Counter {
        clk: SignalId,
        out: SignalId,
        det: EdgeDetector,
        value: u64,
    }

    impl Component for Counter {
        fn handle(&mut self, _ev: Event, ctx: &mut SimCtx<'_>) {
            let v = ctx.read(self.clk);
            if self.det.is_rising(v) {
                self.value += 1;
                ctx.write(self.out, self.value);
            }
        }
    }

    fn counted_sim() -> (Simulation, RecorderHandle) {
        let mut sim = Simulation::new();
        let clk = Clock::install(&mut sim, "clk", 10);
        let out = sim.add_signal("count", 0);
        let counter = sim.add_component(Counter {
            clk: clk.signal,
            out,
            det: EdgeDetector::new(),
            value: 0,
        });
        sim.subscribe(clk.signal, counter, 0);
        let rec = WaveRecorder::install(&mut sim, clk.signal, ClockEdge::Pos, ["count"]);
        (sim, rec)
    }

    #[test]
    fn postponed_sampling_sees_same_edge_updates() {
        let (mut sim, rec) = counted_sim();
        sim.run_until(SimTime::from_ns(40));
        let trace = WaveRecorder::take_trace(&sim, rec);
        assert_eq!(trace.len(), 4);
        // At edge k (time 10k) the counter writes k; postponed sampling
        // observes the freshly committed value.
        let values: Vec<u64> = trace
            .steps()
            .iter()
            .map(|s| psl::SignalEnv::signal(s, "count").unwrap())
            .collect();
        assert_eq!(values, vec![1, 2, 3, 4]);
        let times: Vec<u64> = trace.steps().iter().map(|s| s.time_ns).collect();
        assert_eq!(times, vec![10, 20, 30, 40]);
    }

    #[test]
    fn neg_edge_sampling() {
        let mut sim = Simulation::new();
        let clk = Clock::install(&mut sim, "clk", 10);
        let rec = WaveRecorder::install(&mut sim, clk.signal, ClockEdge::Neg, ["clk"]);
        sim.run_until(SimTime::from_ns(40));
        let trace = WaveRecorder::take_trace(&sim, rec);
        let times: Vec<u64> = trace.steps().iter().map(|s| s.time_ns).collect();
        assert_eq!(times, vec![15, 25, 35]);
    }

    #[test]
    fn any_edge_sampling_takes_both() {
        let mut sim = Simulation::new();
        let clk = Clock::install(&mut sim, "clk", 10);
        let rec = WaveRecorder::install(&mut sim, clk.signal, ClockEdge::Any, ["clk"]);
        sim.run_until(SimTime::from_ns(30));
        let trace = WaveRecorder::take_trace(&sim, rec);
        let times: Vec<u64> = trace.steps().iter().map(|s| s.time_ns).collect();
        assert_eq!(times, vec![10, 15, 20, 25, 30]);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn unknown_watch_signal_panics() {
        let mut sim = Simulation::new();
        let clk = Clock::install(&mut sim, "clk", 10);
        let _ = WaveRecorder::install(&mut sim, clk.signal, ClockEdge::Pos, ["ghost"]);
    }
}

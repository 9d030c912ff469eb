//! The simulation kernel: component registry, scheduler and run loop.

use std::any::Any;

use abv_obs::{TraceEvent, Tracer};

use crate::queue::TwoTierQueue;
use crate::signal::{SignalId, SignalStore};
use crate::staging::Staged;
use crate::stats::SimStats;
use crate::time::SimTime;

/// Handle of a component within a [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub(crate) usize);

impl ComponentId {
    /// The registration index of this component — stable for a given
    /// simulation build order, which makes it usable as a deterministic
    /// trace-track id.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// An event delivered to a [`Component`].
///
/// `kind` is a component-defined tag (signal-change subscriptions and
/// explicit schedules both carry one), letting a component distinguish its
/// wake-up reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Component-defined tag.
    pub kind: u64,
    /// Simulation time of delivery.
    pub time: SimTime,
}

/// A simulation process: anything that reacts to events.
///
/// Components are registered with [`Simulation::add_component`] and woken
/// either by explicit schedules or by subscribed signal changes. The
/// supertrait [`Any`] enables post-run downcasting via
/// [`Simulation::component`] to extract results.
pub trait Component: Any {
    /// Reacts to an event. May read/write signals and schedule further
    /// events through `ctx`.
    fn handle(&mut self, event: Event, ctx: &mut SimCtx<'_>);
}

/// The mutable view of the simulation a component receives while handling
/// an event.
pub struct SimCtx<'a> {
    now: SimTime,
    delta: u32,
    self_id: ComponentId,
    signals: &'a mut SignalStore,
    queue: &'a mut TwoTierQueue,
    tracer: &'a Tracer,
}

impl SimCtx<'_> {
    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The handling component's own id.
    #[must_use]
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// The simulation's tracer — disabled by default; components use it
    /// (via [`abv_obs::trace!`]) to emit structured events on the shared
    /// timeline.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        self.tracer
    }

    /// Current value of a signal.
    #[must_use]
    pub fn read(&self, signal: SignalId) -> u64 {
        self.signals.read(signal)
    }

    /// Requests a signal write; the value commits at the end of the current
    /// delta cycle (SystemC `sc_signal` semantics). The last write in a
    /// delta wins.
    pub fn write(&mut self, signal: SignalId, value: u64) {
        self.signals.write(signal, value);
    }

    /// Schedules delivery of `kind` to `component` after `delay_ns`
    /// nanoseconds. A zero delay delivers in the next delta cycle of the
    /// current timestamp. The delivery time saturates at [`SimTime::MAX`];
    /// a delay from `SimTime::MAX` itself delivers in the next delta.
    pub fn schedule_in(&mut self, delay_ns: u64, component: ComponentId, kind: u64) {
        let at = self.now + delay_ns;
        if at == self.now {
            // The handling timestamp is always open on the scheduler.
            self.queue.push_staged(at, self.delta + 1, component, kind);
        } else {
            self.queue.push(at, 0, component, kind);
        }
    }

    /// Schedules delivery of `kind` to the handling component itself after
    /// `delay_ns` nanoseconds (zero = next delta).
    pub fn schedule_self(&mut self, delay_ns: u64, kind: u64) {
        self.schedule_in(delay_ns, self.self_id, kind);
    }

    /// Wakes `component` with `kind` in the next delta cycle — the kernel's
    /// zero-time notification primitive (used e.g. to tell checkers that a
    /// transaction completed).
    pub fn notify(&mut self, component: ComponentId, kind: u64) {
        self.schedule_in(0, component, kind);
    }

    /// Wakes every `(component, kind)` of `wakes` in the next delta cycle,
    /// in slice order — the same deliveries as one [`notify`](Self::notify)
    /// per entry, staged by one slice copy. Each entry is one event, placed
    /// after everything this handler already scheduled for the next delta
    /// and before anything it schedules later, exactly where the
    /// per-entry calls would have placed it.
    pub fn notify_all(&mut self, wakes: &[(ComponentId, u64)]) {
        self.queue.push_all_staged(self.now, self.delta + 1, wakes);
    }
}

/// A discrete-event simulation: signals, components, scheduler and clock.
///
/// See the [crate-level example](crate) for typical usage.
pub struct Simulation {
    components: Vec<Box<dyn Component>>,
    signals: SignalStore,
    queue: TwoTierQueue,
    now: SimTime,
    last_timestamp: Option<SimTime>,
    stats: SimStats,
    tracer: Tracer,
    /// Recycled evaluate-round buffer (swapped with the scheduler's round
    /// buffers each delta, so the steady-state run loop allocates nothing).
    round_scratch: Vec<Staged>,
    /// Stats as of the last emitted kernel-counter sample, so the trailing
    /// sample is only emitted when something changed since.
    last_counter_sample: Option<SimStats>,
}

impl Default for Simulation {
    fn default() -> Simulation {
        Simulation::new()
    }
}

/// The kernel counter track: cumulative [`SimStats`] sampled at every
/// timestamp boundary, on `(pid 0, tid 0)`.
pub const KERNEL_COUNTER_TRACK: &str = "kernel";

impl Simulation {
    /// Creates an empty simulation at time zero.
    #[must_use]
    pub fn new() -> Simulation {
        Simulation {
            components: Vec::new(),
            signals: SignalStore::default(),
            queue: TwoTierQueue::default(),
            now: SimTime::ZERO,
            last_timestamp: None,
            stats: SimStats::new(),
            tracer: Tracer::disabled(),
            round_scratch: Vec::new(),
            last_counter_sample: None,
        }
    }

    /// Pre-allocates room for `additional` more signals — worth calling
    /// once before the signal burst of a design build.
    pub fn reserve_signals(&mut self, additional: usize) {
        self.signals.reserve(additional);
    }

    /// Registers a named signal with an initial value and returns its
    /// handle.
    ///
    /// # Panics
    ///
    /// Panics if a signal named `name` already exists.
    pub fn add_signal(&mut self, name: &str, init: u64) -> SignalId {
        assert!(
            !self.signals.contains_name(name),
            "duplicate signal name `{name}`"
        );
        self.signals.add(name, init)
    }

    /// Registers a component and returns its handle.
    pub fn add_component(&mut self, component: impl Component) -> ComponentId {
        let id = ComponentId(self.components.len());
        self.components.push(Box::new(component));
        id
    }

    /// Subscribes `component` to changes of `signal`: each committed change
    /// delivers an event with the given `kind` in the following delta.
    pub fn subscribe(&mut self, signal: SignalId, component: ComponentId, kind: u64) {
        self.signals.subscribe(signal, component, kind);
    }

    /// Schedules delivery of `kind` to `component` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, component: ComponentId, kind: u64) {
        self.queue.push(at, 0, component, kind);
    }

    /// Looks up a signal by name.
    #[must_use]
    pub fn signal_id(&self, name: &str) -> Option<SignalId> {
        self.signals.lookup(name)
    }

    /// Current value of a signal.
    #[must_use]
    pub fn signal(&self, id: SignalId) -> u64 {
        self.signals.read(id)
    }

    /// The registered name of `id`.
    #[must_use]
    pub fn signal_name(&self, id: SignalId) -> &str {
        self.signals.name(id)
    }

    /// Immediately forces a signal value without waking subscribers.
    /// Intended for pre-run initialization.
    pub fn force_signal(&mut self, id: SignalId, value: u64) {
        self.signals.force(id, value);
    }

    /// Iterates `(name, value)` over all signals.
    pub fn signals(&self) -> impl Iterator<Item = (&str, u64)> {
        self.signals.iter()
    }

    /// Borrows a component back as its concrete type (e.g. to read results
    /// after a run). Returns `None` for a wrong type or a stale id.
    #[must_use]
    pub fn component<T: Component>(&self, id: ComponentId) -> Option<&T> {
        let boxed: &dyn Component = self.components.get(id.0)?.as_ref();
        (boxed as &dyn Any).downcast_ref::<T>()
    }

    /// Mutably borrows a component back as its concrete type.
    #[must_use]
    pub fn component_mut<T: Component>(&mut self, id: ComponentId) -> Option<&mut T> {
        let boxed: &mut dyn Component = self.components.get_mut(id.0)?.as_mut();
        (boxed as &mut dyn Any).downcast_mut::<T>()
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Attaches a tracer; the kernel then emits its counter track and
    /// components see the tracer through [`SimCtx::tracer`]. The default is
    /// [`Tracer::disabled`], which costs one branch per timestamp.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The simulation's tracer (disabled by default).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Emits one cumulative kernel-counter sample at `at`. Only traced
    /// runs call it, so it stays out of the scheduling loop.
    #[cold]
    fn trace_counters(&mut self, at: SimTime) {
        self.tracer.record(
            TraceEvent::counter(KERNEL_COUNTER_TRACK, 0, 0, at.as_ns())
                .with_arg("events", self.stats.events_processed)
                .with_arg("deltas", self.stats.delta_cycles)
                .with_arg("signal_changes", self.stats.signal_changes),
        );
        self.last_counter_sample = Some(self.stats);
    }

    /// Runs until the event queue drains or the next event lies beyond
    /// `end`, whichever comes first. Events exactly at `end` are processed.
    /// Returns the accumulated statistics.
    ///
    /// Each loop iteration opens one timestamp on the scheduler and drains
    /// it round by round: the evaluate phase delivers one staged delta
    /// round (whose zero-delay schedules stage into the next round), the
    /// update phase commits signal writes and stages each changed signal's
    /// sensitivity list — SystemC's delta-cycle discipline, with every
    /// same-timestamp hop a staging push and every wake list one slice
    /// copy.
    ///
    /// A handler borrows its component and, through [`SimCtx`], the
    /// signals, the scheduler and the tracer — never the component list —
    /// so no component can be re-entered while it handles an event.
    pub fn run_until(&mut self, end: SimTime) -> SimStats {
        let mut round = std::mem::take(&mut self.round_scratch);
        while let Some(t) = self.queue.next_time() {
            if t > end {
                break;
            }
            if self.last_timestamp != Some(t) {
                self.last_timestamp = Some(t);
                self.stats.timestamps += 1;
                if self.tracer.is_enabled() {
                    self.trace_counters(t);
                }
            }
            if t > self.now {
                self.now = t;
            }

            self.queue.begin_timestamp(t);
            while let Some(delta) = self.queue.next_round(&mut round) {
                // Evaluate phase: deliver every event at (t, delta).
                for (target, kind) in round.drain(..) {
                    let mut ctx = SimCtx {
                        now: t,
                        delta,
                        self_id: target,
                        signals: &mut self.signals,
                        queue: &mut self.queue,
                        tracer: &self.tracer,
                    };
                    self.components[target.0].handle(Event { kind, time: t }, &mut ctx);
                    self.stats.events_processed += 1;
                }

                // Update phase: commit writes, stage each changed signal's
                // sensitivity list in the next delta with one slice copy.
                if self.signals.has_pending() {
                    let queue = &mut self.queue;
                    let changes = self.signals.commit(|wakes| {
                        queue.push_all_staged(t, delta + 1, wakes);
                    });
                    self.stats.signal_changes += changes as u64;
                }
                self.stats.delta_cycles += 1;
            }
        }
        self.round_scratch = round;
        // Final sample so the counter track covers the whole run — skipped
        // when nothing changed since the last emission (otherwise a
        // run_until call that processes no events would append a duplicate
        // trailing counter row).
        if self.tracer.is_enabled() {
            if let Some(last) = self.last_timestamp {
                if self.last_counter_sample != Some(self.stats) {
                    self.trace_counters(last);
                }
            }
        }
        self.stats
    }

    /// Runs until the event queue is completely drained.
    pub fn run_to_completion(&mut self) -> SimStats {
        self.run_until(SimTime::MAX)
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(u64, u64)>, // (time, kind)
    }

    impl Component for Recorder {
        fn handle(&mut self, ev: Event, _ctx: &mut SimCtx<'_>) {
            self.seen.push((ev.time.as_ns(), ev.kind));
        }
    }

    struct Writer {
        sig: SignalId,
        value: u64,
    }

    impl Component for Writer {
        fn handle(&mut self, _ev: Event, ctx: &mut SimCtx<'_>) {
            ctx.write(self.sig, self.value);
        }
    }

    #[test]
    fn events_delivered_in_time_order() {
        let mut sim = Simulation::new();
        let r = sim.add_component(Recorder { seen: Vec::new() });
        sim.schedule(SimTime::from_ns(30), r, 3);
        sim.schedule(SimTime::from_ns(10), r, 1);
        sim.schedule(SimTime::from_ns(20), r, 2);
        sim.run_to_completion();
        let rec: &Recorder = sim.component(r).unwrap();
        assert_eq!(rec.seen, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn run_until_stops_at_boundary_inclusive() {
        let mut sim = Simulation::new();
        let r = sim.add_component(Recorder { seen: Vec::new() });
        sim.schedule(SimTime::from_ns(10), r, 1);
        sim.schedule(SimTime::from_ns(20), r, 2);
        sim.schedule(SimTime::from_ns(21), r, 3);
        sim.run_until(SimTime::from_ns(20));
        let rec: &Recorder = sim.component(r).unwrap();
        assert_eq!(rec.seen, vec![(10, 1), (20, 2)]);
        assert_eq!(sim.pending_events(), 1);
    }

    #[test]
    fn signal_change_wakes_subscriber_next_delta() {
        let mut sim = Simulation::new();
        let s = sim.add_signal("s", 0);
        let w = sim.add_component(Writer { sig: s, value: 7 });
        let r = sim.add_component(Recorder { seen: Vec::new() });
        sim.subscribe(s, r, 42);
        sim.schedule(SimTime::from_ns(5), w, 0);
        sim.run_to_completion();
        let rec: &Recorder = sim.component(r).unwrap();
        assert_eq!(rec.seen, vec![(5, 42)], "woken at same time, later delta");
        assert_eq!(sim.signal(s), 7);
    }

    #[test]
    fn no_wake_when_value_unchanged() {
        let mut sim = Simulation::new();
        let s = sim.add_signal("s", 7);
        let w = sim.add_component(Writer { sig: s, value: 7 });
        let r = sim.add_component(Recorder { seen: Vec::new() });
        sim.subscribe(s, r, 42);
        sim.schedule(SimTime::from_ns(5), w, 0);
        sim.run_to_completion();
        let rec: &Recorder = sim.component(r).unwrap();
        assert!(rec.seen.is_empty());
    }

    /// A component that cascades: on kind 0 it writes s1; a subscriber of
    /// s1 writes s2; a subscriber of s2 records. Verifies multi-delta
    /// propagation within one timestamp.
    #[test]
    fn delta_cycles_cascade_at_one_timestamp() {
        let mut sim = Simulation::new();
        let s1 = sim.add_signal("s1", 0);
        let s2 = sim.add_signal("s2", 0);
        let w1 = sim.add_component(Writer { sig: s1, value: 1 });
        let w2 = sim.add_component(Writer { sig: s2, value: 1 });
        let r = sim.add_component(Recorder { seen: Vec::new() });
        sim.subscribe(s1, w2, 0);
        sim.subscribe(s2, r, 99);
        sim.schedule(SimTime::from_ns(10), w1, 0);
        let stats = sim.run_to_completion();
        let rec: &Recorder = sim.component(r).unwrap();
        assert_eq!(rec.seen, vec![(10, 99)]);
        assert!(stats.delta_cycles >= 3, "three evaluate/update rounds");
        assert_eq!(stats.signal_changes, 2);
    }

    #[test]
    fn schedule_self_and_zero_delay() {
        struct SelfScheduler {
            hops: u32,
        }
        impl Component for SelfScheduler {
            fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
                if ev.kind < 3 {
                    self.hops += 1;
                    ctx.schedule_self(0, ev.kind + 1);
                }
            }
        }
        let mut sim = Simulation::new();
        let c = sim.add_component(SelfScheduler { hops: 0 });
        sim.schedule(SimTime::from_ns(1), c, 0);
        sim.run_to_completion();
        assert_eq!(sim.component::<SelfScheduler>(c).unwrap().hops, 3);
        assert_eq!(
            sim.now(),
            SimTime::from_ns(1),
            "zero delays stay at one timestamp"
        );
    }

    /// A delay past the end of time lands on [`SimTime::MAX`]: a finite
    /// `run_until` never reaches it, and it never wraps into the past.
    #[test]
    fn over_long_delay_saturates_at_the_end_of_time() {
        struct Sleeper {
            seen: Vec<(u64, u64)>,
        }
        impl Component for Sleeper {
            fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
                self.seen.push((ev.time.as_ns(), ev.kind));
                if ev.kind < 2 {
                    ctx.schedule_self(u64::MAX, ev.kind + 1);
                }
            }
        }
        let mut sim = Simulation::new();
        let c = sim.add_component(Sleeper { seen: Vec::new() });
        sim.schedule(SimTime::from_ns(5), c, 0);
        sim.run_until(SimTime::from_ns(1_000));
        assert_eq!(sim.component::<Sleeper>(c).unwrap().seen, vec![(5, 0)]);
        assert_eq!(sim.pending_events(), 1);

        let stats = sim.run_to_completion();
        assert_eq!(
            sim.component::<Sleeper>(c).unwrap().seen,
            vec![(5, 0), (u64::MAX, 1), (u64::MAX, 2)],
            "a delay from the last instant delivers in its next delta"
        );
        assert_eq!(stats.timestamps, 2, "5 ns and the last instant");
        assert_eq!(sim.now(), SimTime::MAX);
    }

    #[test]
    fn component_downcast_wrong_type_is_none() {
        let mut sim = Simulation::new();
        let s = sim.add_signal("s", 0);
        let w = sim.add_component(Writer { sig: s, value: 1 });
        assert!(sim.component::<Recorder>(w).is_none());
        assert!(sim.component::<Writer>(w).is_some());
    }

    #[test]
    #[should_panic(expected = "duplicate signal name")]
    fn duplicate_signal_names_rejected() {
        let mut sim = Simulation::new();
        sim.add_signal("s", 0);
        sim.add_signal("s", 1);
    }

    /// The trailing kernel-counter sample is emitted once per change: a
    /// `run_until` that processes nothing must not append a duplicate row
    /// for the last timestamp.
    #[test]
    fn trailing_counter_sample_is_not_duplicated() {
        use abv_obs::Phase;

        let mut sim = Simulation::new();
        let (tracer, sink) = Tracer::memory();
        sim.set_tracer(tracer);
        let r = sim.add_component(Recorder { seen: Vec::new() });
        sim.schedule(SimTime::from_ns(10), r, 1);
        sim.run_until(SimTime::from_ns(20));
        let after_first = sink
            .borrow()
            .events()
            .filter(|e| e.phase == Phase::Counter)
            .count();
        assert_eq!(after_first, 2, "entry sample + changed trailing sample");

        // Idle re-runs emit nothing new.
        sim.run_until(SimTime::from_ns(30));
        sim.run_until(SimTime::from_ns(40));
        let after_idle = sink
            .borrow()
            .events()
            .filter(|e| e.phase == Phase::Counter)
            .count();
        assert_eq!(after_idle, after_first, "idle runs duplicated the sample");

        // New activity resumes sampling.
        sim.schedule(SimTime::from_ns(50), r, 2);
        sim.run_until(SimTime::from_ns(60));
        let after_more = sink
            .borrow()
            .events()
            .filter(|e| e.phase == Phase::Counter)
            .count();
        assert_eq!(after_more, after_first + 2);
    }

    #[test]
    fn force_signal_initializes_without_wake() {
        let mut sim = Simulation::new();
        let s = sim.add_signal("s", 0);
        let r = sim.add_component(Recorder { seen: Vec::new() });
        sim.subscribe(s, r, 1);
        sim.force_signal(s, 5);
        sim.run_to_completion();
        assert_eq!(sim.signal(s), 5);
        assert!(sim.component::<Recorder>(r).unwrap().seen.is_empty());
    }
}

//! `desim` — a discrete-event simulation kernel.
//!
//! This crate is the SystemC substitute of the reproduction: a
//! single-threaded event-driven kernel with
//!
//! - integer-nanosecond simulation time ([`SimTime`]),
//! - an evaluate/update/notify **delta-cycle** discipline matching SystemC's
//!   `sc_signal` semantics: writes performed during an evaluate phase commit
//!   between delta cycles, and components sensitive to a changed signal wake
//!   in the next delta,
//! - components as trait objects ([`Component`]) receiving [`Event`]s,
//! - named signals with sensitivity lists,
//! - kernel statistics ([`SimStats`]) counting processed events and delta
//!   cycles — the activity measure behind the paper's Table I overhead
//!   discussion.
//!
//! RTL models (`rtlkit`) and TLM models (`tlmkit`) are built on top of this
//! kernel, which is what makes the paper's cross-abstraction
//! simulation-time comparison meaningful: all three abstraction levels run
//! on the same scheduler.
//!
//! # Example
//!
//! ```
//! use desim::{Component, Event, SimCtx, SimTime, Simulation};
//!
//! /// Toggles a signal every 5 ns.
//! struct Toggler {
//!     out: desim::SignalId,
//! }
//!
//! impl Component for Toggler {
//!     fn handle(&mut self, _ev: Event, ctx: &mut SimCtx<'_>) {
//!         let v = ctx.read(self.out);
//!         ctx.write(self.out, 1 - v);
//!         ctx.schedule_self(5, 0);
//!     }
//! }
//!
//! let mut sim = Simulation::new();
//! let clk = sim.add_signal("clk", 0);
//! let toggler = sim.add_component(Toggler { out: clk });
//! sim.schedule(SimTime::ZERO, toggler, 0);
//! sim.run_until(SimTime::from_ns(50));
//! assert_eq!(sim.stats().events_processed, 11); // t = 0, 5, ..., 50
//! ```

mod fxhash;
mod kernel;
mod queue;
mod signal;
mod staging;
mod stats;
mod time;

pub use fxhash::{FxBuildHasher, FxHasher, FX_SEED};
pub use kernel::{Component, ComponentId, Event, SimCtx, Simulation, KERNEL_COUNTER_TRACK};
pub use signal::SignalId;
pub use stats::SimStats;
pub use time::SimTime;

/// Test-only scheduler access for differential testing.
///
/// Hidden from docs: this exists so the randomized equivalence suite
/// (`tests/sched_differential.rs`) can drive the production queue
/// event-for-event against its reference heap without going through a
/// full simulation.
#[doc(hidden)]
pub mod testing {
    use crate::kernel::ComponentId;
    use crate::queue::TwoTierQueue;
    use crate::staging::Staged;
    use crate::time::SimTime;

    /// Drives the kernel's queue push-by-push / pop-by-pop.
    ///
    /// Pushes must describe a kernel-realizable trace: while a timestamp
    /// is mid-drain, same-timestamp pushes must land at a delta strictly
    /// greater than the round currently being popped (exactly what
    /// `SimCtx` enforces by construction).
    #[derive(Default)]
    pub struct SchedulerHarness {
        queue: TwoTierQueue,
        round: Vec<Staged>,
        cursor: usize,
        key: (SimTime, u32),
        active: Option<SimTime>,
    }

    impl SchedulerHarness {
        #[must_use]
        pub fn new() -> SchedulerHarness {
            SchedulerHarness::default()
        }

        /// Schedules `(target, kind)` at `(time_ns, delta)`.
        pub fn push(&mut self, time_ns: u64, delta: u32, target: usize, kind: u64) {
            self.queue
                .push(SimTime::from_ns(time_ns), delta, ComponentId(target), kind);
        }

        /// Pops the globally earliest event as
        /// `(time_ns, delta, target, kind)`.
        pub fn pop(&mut self) -> Option<(u64, u32, usize, u64)> {
            loop {
                if self.cursor < self.round.len() {
                    let (target, kind) = self.round[self.cursor];
                    self.cursor += 1;
                    return Some((self.key.0.as_ns(), self.key.1, target.0, kind));
                }
                self.round.clear();
                self.cursor = 0;
                // Exhaust the open timestamp's rounds before moving time
                // forward — the kernel's discipline.
                if let Some(t) = self.active {
                    match self.queue.next_round(&mut self.round) {
                        Some(delta) => {
                            self.key = (t, delta);
                            continue;
                        }
                        None => self.active = None,
                    }
                }
                let t = self.queue.next_time()?;
                self.queue.begin_timestamp(t);
                self.active = Some(t);
            }
        }

        /// Pending events (undelivered round remainder included).
        #[must_use]
        pub fn len(&self) -> usize {
            self.queue.len() + (self.round.len() - self.cursor)
        }

        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }
}

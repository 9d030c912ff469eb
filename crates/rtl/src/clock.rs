//! Free-running clock generation and edge classification.

use desim::{Component, ComponentId, Event, SignalId, SimCtx, SimTime, Simulation};

/// A free-running clock driving a boolean signal.
///
/// The signal starts low; rising edges occur at `period, 2·period, …` and
/// falling edges at the half-period midpoints, so a simulation of
/// `n · period` nanoseconds contains exactly `n` rising edges.
///
/// Install with [`Clock::install`], which registers the signal, the
/// component and the first toggle:
///
/// ```
/// use desim::{SimTime, Simulation};
/// use rtlkit::Clock;
///
/// let mut sim = Simulation::new();
/// let clk = Clock::install(&mut sim, "clk", 10);
/// sim.run_until(SimTime::from_ns(25));
/// assert_eq!(sim.signal(clk.signal), 0, "t=25 is past the falling edge at 15");
/// assert_eq!(clk.period_ns, 10);
/// ```
pub struct Clock {
    signal: SignalId,
    half_period_ns: u64,
    /// The level the next toggle writes — tracked internally so the
    /// generator's hot path is a single signal write plus a half-period
    /// self-schedule (one pending event on the kernel's timed heap)
    /// without re-reading the committed clock value every edge.
    next_level: u64,
}

/// Handle returned by [`Clock::install`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockHandle {
    /// The clock signal.
    pub signal: SignalId,
    /// The generator component.
    pub component: ComponentId,
    /// The full clock period in nanoseconds.
    pub period_ns: u64,
}

impl Clock {
    /// Creates the clock signal named `name`, registers the generator and
    /// schedules the first rising edge at `period_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `period_ns` is zero or odd (the half-period must be an
    /// integer number of nanoseconds), or if the signal name is taken.
    pub fn install(sim: &mut Simulation, name: &str, period_ns: u64) -> ClockHandle {
        assert!(
            period_ns >= 2 && period_ns.is_multiple_of(2),
            "clock period must be even and positive"
        );
        let signal = sim.add_signal(name, 0);
        let component = sim.add_component(Clock {
            signal,
            half_period_ns: period_ns / 2,
            next_level: 1,
        });
        // First rising edge at one full period.
        sim.schedule(SimTime::from_ns(period_ns), component, 0);
        ClockHandle {
            signal,
            component,
            period_ns,
        }
    }
}

impl Component for Clock {
    fn handle(&mut self, _ev: Event, ctx: &mut SimCtx<'_>) {
        ctx.write(self.signal, self.next_level);
        self.next_level ^= 1;
        ctx.schedule_self(self.half_period_ns, 0);
    }
}

/// Classifies clock-change wake-ups into rising/falling edges.
///
/// Components sensitive to a clock signal wake on *both* edges; an
/// `EdgeDetector` reads the post-commit clock value to tell them apart.
///
/// ```
/// use rtlkit::EdgeDetector;
///
/// let mut det = EdgeDetector::new();
/// assert!(det.is_rising(1));
/// assert!(!det.is_rising(1)); // no change
/// assert!(!det.is_rising(0)); // falling
/// assert!(det.is_rising(1));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeDetector {
    last: u64,
}

impl EdgeDetector {
    /// A detector assuming the clock starts low.
    #[must_use]
    pub fn new() -> EdgeDetector {
        EdgeDetector::default()
    }

    /// Feeds the current clock value; true exactly on a 0→1 transition.
    pub fn is_rising(&mut self, clk_value: u64) -> bool {
        let rising = self.last == 0 && clk_value != 0;
        self.last = clk_value;
        rising
    }

    /// Feeds the current clock value; true exactly on a 1→0 transition.
    pub fn is_falling(&mut self, clk_value: u64) -> bool {
        let falling = self.last != 0 && clk_value == 0;
        self.last = clk_value;
        falling
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{Component, Event, SimCtx, Simulation};

    /// Records times of rising edges it observes via sensitivity.
    struct EdgeLogger {
        clk: SignalId,
        rise_det: EdgeDetector,
        fall_det: EdgeDetector,
        rising_at: Vec<u64>,
        falling_at: Vec<u64>,
    }

    impl Component for EdgeLogger {
        fn handle(&mut self, ev: Event, ctx: &mut SimCtx<'_>) {
            let v = ctx.read(self.clk);
            if self.rise_det.is_rising(v) {
                self.rising_at.push(ev.time.as_ns());
            }
            if self.fall_det.is_falling(v) {
                self.falling_at.push(ev.time.as_ns());
            }
        }
    }

    #[test]
    fn edges_at_expected_times() {
        let mut sim = Simulation::new();
        let clk = Clock::install(&mut sim, "clk", 10);
        let logger = sim.add_component(EdgeLogger {
            clk: clk.signal,
            rise_det: EdgeDetector::new(),
            fall_det: EdgeDetector::new(),
            rising_at: Vec::new(),
            falling_at: Vec::new(),
        });
        sim.subscribe(clk.signal, logger, 0);
        sim.run_until(SimTime::from_ns(45));
        let l: &EdgeLogger = sim.component(logger).unwrap();
        assert_eq!(l.rising_at, vec![10, 20, 30, 40]);
        assert_eq!(l.falling_at, vec![15, 25, 35, 45]);
    }

    #[test]
    #[should_panic(expected = "even and positive")]
    fn odd_period_rejected() {
        let mut sim = Simulation::new();
        let _ = Clock::install(&mut sim, "clk", 7);
    }

    #[test]
    fn detector_sequences() {
        let mut d = EdgeDetector::new();
        assert!(!d.is_rising(0));
        assert!(d.is_rising(1));
        assert!(!d.is_falling(1));
        assert!(d.is_falling(0));
    }
}

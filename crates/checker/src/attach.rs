//! The checker-attach facade.
//!
//! The caller describes *what the simulation offers* (a [`Binding`] with a
//! clock signal, a transaction bus, or both) and [`Checker::attach`] hooks
//! the property's host to whichever its evaluation context needs —
//! clock-context properties sample at clock edges, transaction-context
//! (`T_b`) properties get the paper's TLM wrapper. The returned
//! [`Checker`] handle yields the [`PropertyReport`] through
//! [`Checker::finalize`].

use desim::{ComponentId, SignalId, Simulation};
use psl::ClockedProperty;
use tlmkit::TransactionBus;

use crate::host::{install, Host, InstallError};
use crate::monitor::PropertyChecker;
use crate::report::{CheckReport, PropertyReport};

/// What the simulation offers a checker to observe: a clock signal, a
/// transaction bus, or both. Which one a given property actually uses is
/// decided by [`Checker::attach`] from the property's context.
///
/// The binding owns a handle to the bus (buses are cheap shared handles),
/// so one binding is typically built per simulation and cloned for every
/// property of the suite.
#[derive(Debug, Clone)]
pub struct Binding {
    clk: Option<SignalId>,
    bus: Option<TransactionBus>,
}

impl Binding {
    /// A binding offering only a clock signal (pure-RTL simulations).
    #[must_use]
    pub fn clock(clk: SignalId) -> Binding {
        Binding {
            clk: Some(clk),
            bus: None,
        }
    }

    /// A binding offering only a transaction bus (pure-TLM simulations).
    #[must_use]
    pub fn bus(bus: &TransactionBus) -> Binding {
        Binding {
            clk: None,
            bus: Some(bus.clone()),
        }
    }

    /// A binding offering both, for mixed-level simulations where the
    /// property set contains clocked and transaction properties.
    #[must_use]
    pub fn full(clk: SignalId, bus: &TransactionBus) -> Binding {
        Binding {
            clk: Some(clk),
            bus: Some(bus.clone()),
        }
    }
}

/// A uniform handle to one attached property checker.
///
/// ```
/// use abv_checker::{Binding, Checker};
/// use desim::Simulation;
/// use rtlkit::Clock;
///
/// let mut sim = Simulation::new();
/// let clk = Clock::install(&mut sim, "clk", 10);
/// let rdy = sim.add_signal("rdy", 1);
/// let p = "always rdy @clk_pos".parse().unwrap();
/// let checker = Checker::attach(&mut sim, "p", &p, Binding::clock(clk.signal)).unwrap();
/// sim.run_until(desim::SimTime::from_ns(100));
/// let report = checker.finalize(&mut sim, 100);
/// assert_eq!(report.failure_count, 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Checker {
    id: ComponentId,
}

impl Checker {
    /// Compiles `property` and attaches a checker to `sim`: clock contexts
    /// sample at the edges of the binding's clock, transaction contexts
    /// observe the binding's bus.
    ///
    /// # Errors
    ///
    /// - [`InstallError::Compile`] if checker synthesis fails (unknown
    ///   signals, unsupported operators);
    /// - [`InstallError::MissingClock`] / [`InstallError::MissingBus`] if
    ///   the binding does not offer what the context needs.
    pub fn attach(
        sim: &mut Simulation,
        name: &str,
        property: &ClockedProperty,
        binding: Binding,
    ) -> Result<Checker, InstallError> {
        let id = install(sim, name, property, binding.clk, binding.bus.as_ref())?;
        Ok(Checker { id })
    }

    /// Attaches one checker per `(name, property)` pair against the same
    /// binding, in order.
    ///
    /// # Errors
    ///
    /// Fails on the first property that cannot be attached, reporting its
    /// index alongside the error.
    pub fn attach_all(
        sim: &mut Simulation,
        properties: &[(String, ClockedProperty)],
        binding: Binding,
    ) -> Result<Vec<Checker>, (usize, InstallError)> {
        properties
            .iter()
            .enumerate()
            .map(|(i, (name, p))| {
                Checker::attach(sim, name, p, binding.clone()).map_err(|e| (i, e))
            })
            .collect()
    }

    /// Finalizes the checker at simulation end `end_ns` and returns the
    /// definitive report (undetermined instances become `pending`). Uses
    /// the simulation's tracer, so still-open checker-instance spans are
    /// closed in the trace.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to `sim`.
    #[must_use]
    pub fn finalize(&self, sim: &mut Simulation, end_ns: u64) -> PropertyReport {
        let tracer = sim.tracer().clone();
        let checker = self.checker_mut(sim);
        checker.finish_traced(end_ns, &tracer);
        checker.report()
    }

    /// Finalizes a whole suite of checkers into one [`CheckReport`], in
    /// attach order.
    ///
    /// # Panics
    ///
    /// Panics if a handle does not belong to `sim`.
    #[must_use]
    pub fn collect(sim: &mut Simulation, checkers: &[Checker], end_ns: u64) -> CheckReport {
        checkers.iter().map(|c| c.finalize(sim, end_ns)).collect()
    }

    /// Mutable access to the wrapped [`PropertyChecker`] (e.g. to disable
    /// the evaluation-table optimization for ablation runs).
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to `sim`.
    #[must_use]
    pub fn checker_mut<'s>(&self, sim: &'s mut Simulation) -> &'s mut PropertyChecker {
        &mut sim
            .component_mut::<Host>(self.id)
            .expect("checker handle must belong to this simulation")
            .checker
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_suite_attaches_nothing_and_collects_an_empty_report() {
        let mut sim = Simulation::new();
        let clk = sim.add_signal("clk", 1);
        let checkers =
            Checker::attach_all(&mut sim, &[], Binding::clock(clk)).expect("nothing can fail");
        assert!(checkers.is_empty());
        let stats = sim.run_until(desim::SimTime::from_ns(100));
        assert_eq!(stats.events_processed, 0, "no checker woke");
        let report = Checker::collect(&mut sim, &checkers, 100);
        assert!(report.properties.is_empty());
        assert!(report.all_pass());
        assert_eq!(report.total_failures(), 0);
    }
}

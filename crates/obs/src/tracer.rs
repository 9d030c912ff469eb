//! The [`Tracer`] handle instrumented code holds.

use std::cell::RefCell;
use std::rc::Rc;

use crate::event::TraceEvent;
use crate::sink::MemorySink;

/// The cheap handle through which instrumented code records events.
///
/// A tracer is either disabled (the default — one `Option` branch per
/// instrumentation site, no allocation) or shares one in-memory
/// [`MemorySink`]. The kernel is single-threaded (`Rc`-based), so the
/// buffer is shared the same way: each campaign worker owns its tracer and
/// buffers never cross threads. Use the [`trace!`](crate::trace!) macro so
/// the event expression is only evaluated when enabled.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Rc<RefCell<MemorySink>>>,
}

impl Tracer {
    /// The disabled tracer: records nothing, costs one branch.
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer backed by a fresh [`MemorySink`]; returns both so the
    /// caller can drain the events after the run.
    #[must_use]
    pub fn memory() -> (Tracer, Rc<RefCell<MemorySink>>) {
        let sink = Rc::new(RefCell::new(MemorySink::new()));
        let tracer = Tracer {
            sink: Some(sink.clone()),
        };
        (tracer, sink)
    }

    /// True if events will be recorded.
    #[must_use]
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records `event` if enabled. Prefer [`trace!`](crate::trace!), which
    /// also skips constructing the event when disabled.
    #[inline]
    pub fn record(&self, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().record(event);
        }
    }

    /// Builds the event with `event` and records it, if enabled. This is
    /// what [`trace!`](crate::trace!) expands to behind its branch: kept
    /// out of line, it holds each site's event-building code outside the
    /// instrumented function, so hot loops do not grow with it.
    #[inline(never)]
    pub fn record_with(&self, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            let event = event();
            sink.borrow_mut().record(event);
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        tracer.record(TraceEvent::instant("x", 0, 0, 0));
    }

    #[test]
    fn macro_skips_event_construction_when_disabled() {
        let tracer = Tracer::disabled();
        let mut built = false;
        crate::trace!(tracer, {
            built = true;
            TraceEvent::instant("x", 0, 0, 0)
        });
        assert!(!built);
    }

    #[test]
    fn memory_tracer_shares_one_sink_across_clones() {
        let (tracer, sink) = Tracer::memory();
        let clone = tracer.clone();
        crate::trace!(tracer, TraceEvent::instant("a", 0, 0, 1));
        crate::trace!(clone, TraceEvent::instant("b", 0, 0, 2));
        assert_eq!(sink.borrow_mut().take_events().len(), 2);
    }
}

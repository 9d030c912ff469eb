//! The in-memory trace buffer: where recorded [`TraceEvent`]s go.

use crate::event::TraceEvent;

/// Collects events in memory, in recording order.
///
/// Built by [`Tracer::memory`](crate::Tracer::memory), which hands back a
/// shared handle so the caller can drain the events after the run.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Vec<TraceEvent>,
}

impl MemorySink {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Appends one event.
    pub(crate) fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Number of events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Takes the recorded events out, oldest first, leaving the buffer
    /// empty.
    #[must_use]
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Borrows the recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> TraceEvent {
        TraceEvent::instant("e", 0, 0, ts)
    }

    #[test]
    fn memory_sink_keeps_order() {
        let mut sink = MemorySink::new();
        for t in 0..4 {
            sink.record(ev(t));
        }
        let events = sink.take_events();
        assert_eq!(events.len(), 4);
        assert!(events.windows(2).all(|w| w[0].ts_ns < w[1].ts_ns));
        assert!(sink.is_empty());
    }
}

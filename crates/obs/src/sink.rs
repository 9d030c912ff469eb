//! Trace sinks: where recorded [`TraceEvent`]s go.

use std::io::Write;

use crate::event::TraceEvent;

/// A destination for trace events.
///
/// Sinks are driven through a [`Tracer`](crate::Tracer); instrumented code
/// never names a concrete sink type.
pub trait TraceSink {
    /// Accepts one event.
    fn record(&mut self, event: TraceEvent);

    /// Flushes buffered output (no-op for in-memory sinks).
    fn flush(&mut self) {}
}

/// Drops every event. Useful to measure the cost of an *enabled* tracer in
/// isolation; a disabled [`Tracer`](crate::Tracer) is cheaper still and is
/// the production default.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: TraceEvent) {}
}

/// Collects events in memory, optionally as a bounded ring buffer.
///
/// With a capacity, the sink keeps the **latest** `capacity` events and
/// counts the rest in [`dropped`](MemorySink::dropped) — the tail of a
/// simulation is where failures surface, so it is the part worth keeping
/// when memory is bounded.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: std::collections::VecDeque<TraceEvent>,
    capacity: Option<usize>,
    dropped: u64,
}

impl MemorySink {
    /// An unbounded in-memory sink.
    #[must_use]
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A ring buffer keeping the latest `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> MemorySink {
        MemorySink {
            events: std::collections::VecDeque::with_capacity(capacity.min(4096)),
            capacity: Some(capacity),
            dropped: 0,
        }
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

    /// Number of events evicted by the ring bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Takes the recorded events out, oldest first, leaving the sink empty.
    #[must_use]
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events).into()
    }

    /// Borrows the recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: TraceEvent) {
        if let Some(cap) = self.capacity {
            if cap == 0 {
                self.dropped += 1;
                return;
            }
            if self.events.len() == cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(event);
    }
}

/// Streams events to a writer as they arrive, as a Chrome trace-event JSON
/// array. Call [`finish`](JsonStreamSink::finish) to emit the closing
/// bracket; dropping the sink finishes implicitly (ignoring write errors —
/// viewers tolerate an unterminated array, so a panic-path trace still
/// loads). Each event is rendered into one reused buffer and written with
/// a single `write_all`.
pub struct JsonStreamSink<W: Write> {
    writer: W,
    buf: String,
    written: u64,
    finished: bool,
}

impl<W: Write> JsonStreamSink<W> {
    /// Starts the array on `writer`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the opening bracket cannot be written.
    pub fn new(mut writer: W) -> std::io::Result<JsonStreamSink<W>> {
        writer.write_all(b"[\n")?;
        Ok(JsonStreamSink {
            writer,
            buf: String::new(),
            written: 0,
            finished: false,
        })
    }

    /// Number of events written so far.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Closes the JSON array and flushes.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the closing bracket cannot be written.
    pub fn finish(&mut self) -> std::io::Result<()> {
        if !self.finished {
            self.finished = true;
            self.writer.write_all(b"\n]\n")?;
            self.writer.flush()?;
        }
        Ok(())
    }
}

impl<W: Write> TraceSink for JsonStreamSink<W> {
    fn record(&mut self, event: TraceEvent) {
        if self.finished {
            return;
        }
        self.buf.clear();
        if self.written > 0 {
            self.buf.push_str(",\n");
        }
        event.write_json(&mut self.buf);
        let _ = self.writer.write_all(self.buf.as_bytes());
        self.written += 1;
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

impl<W: Write> Drop for JsonStreamSink<W> {
    fn drop(&mut self) {
        let _ = self.finish();
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

    #[test]
    fn ring_buffer_keeps_latest_and_counts_drops() {
        let mut sink = MemorySink::with_capacity(3);
        for t in 0..10 {
            sink.record(ev(t));
        }
        assert_eq!(sink.dropped(), 7);
        let kept: Vec<u64> = sink.take_events().iter().map(|e| e.ts_ns).collect();
        assert_eq!(kept, vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut sink = MemorySink::with_capacity(0);
        sink.record(ev(1));
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn json_stream_emits_valid_array() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonStreamSink::new(&mut buf).unwrap();
            sink.record(ev(1));
            sink.record(ev(2));
            sink.finish().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("[\n"));
        assert!(text.ends_with("\n]\n"));
        assert_eq!(text.matches("{\"ph\"").count(), 2);
    }

    #[test]
    fn json_stream_finishes_on_drop() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonStreamSink::new(&mut buf).unwrap();
            sink.record(ev(1));
        }
        assert!(String::from_utf8(buf).unwrap().ends_with("\n]\n"));
    }
}

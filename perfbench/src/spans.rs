//! The benchmark's own span recorder: one span around each call it makes
//! into a crate, kept in memory, folded into per-layer self times, and
//! written out as Chrome trace-event JSON through `abv-obs`.
//!
//! Every call is timed whether or not spans are kept, so the traced and the
//! untraced pass run the same code apart from the recording itself; their
//! difference is the tracing overhead.
//!
//! A call's duration is the CPU time of the calling thread
//! ([`host::thread_cpu`]), except where [`Recorder::time_wall`] asks for
//! the wall clock (calls that wait for other threads). Span positions are
//! wall-clock, so the exported trace shows the real timeline.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use abv_obs::TraceEvent;

use crate::host;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, the layer being the crate called (`bench` for the
    /// benchmark's own glue).
    pub name: &'static str,
    /// Simulation run the call belongs to (0 outside any run).
    pub run: u32,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The crate (or `bench`) the span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An open span: its start on both clocks, and its slot when spans are
/// kept.
pub struct Open {
    start: Instant,
    cpu: Duration,
    slot: Option<usize>,
}

/// Times calls and, when enabled, records them as spans.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    /// Runs started so far.
    runs: u32,
    /// The current run (0 outside any run).
    run: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps spans iff `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            runs: 0,
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Gives the spans that follow a new simulation run id.
    pub fn start_run(&mut self) {
        self.runs += 1;
        self.run = self.runs;
    }

    /// Spans that follow belong to no run.
    pub fn end_run(&mut self) {
        self.run = 0;
    }

    /// Opens a span named `name`.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            let slot = self.spans.len();
            self.spans.push(Span {
                name,
                run: self.run,
                parent: self.stack.last().copied(),
                start_ns: nanos(start - self.origin),
                end_ns: 0,
            });
            self.stack.push(slot);
            slot
        });
        Open {
            start,
            cpu: host::thread_cpu(),
            slot,
        }
    }

    /// Closes `open` and returns the call's CPU time on this thread.
    pub fn end(&mut self, open: Open) -> Duration {
        let cpu = host::thread_cpu().saturating_sub(open.cpu);
        self.close(open.slot);
        cpu
    }

    fn close(&mut self, slot: Option<usize>) -> Instant {
        let end = Instant::now();
        if let Some(slot) = slot {
            self.spans[slot].end_ns = nanos(end - self.origin);
            self.stack.pop();
        }
        end
    }

    /// Times `f` as a span named `name`, in CPU time on this thread.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.begin(name);
        let value = f();
        (value, self.end(open))
    }

    /// Times `f` as a span named `name`, in wall-clock time: for calls that
    /// hand their work to other threads.
    pub fn time_wall<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.begin(name);
        let value = f();
        (value, self.close(open.slot) - open.start)
    }

    /// Removes and returns the spans recorded so far.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Self time per layer, in ns: each span's duration minus the part its
/// child spans cover. The self times of one recording add up to the
/// duration of its root spans, so every nanosecond is charged to exactly
/// one layer.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut by_layer = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let own = (span.end_ns - span.start_ns).saturating_sub(children);
        *by_layer.entry(span.layer()).or_insert(0) += own;
    }
    by_layer
}

/// The spans as `abv-obs` trace events: one process, one track per run,
/// span arguments carrying the run id and the parent span.
pub fn to_trace_events(spans: &[Span]) -> Vec<TraceEvent> {
    let mut events = vec![TraceEvent::process_name(0, "perfbench")];
    let mut edges: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, span) in spans.iter().enumerate() {
        edges.push((span.start_ns, true, i));
        edges.push((span.end_ns, false, i));
    }
    // Ends sort before begins at equal timestamps, and a parent's begin
    // precedes its children's (lower index), which keeps spans nested.
    edges.sort_by_key(|&(ts, begin, i)| (ts, begin, if begin { i } else { usize::MAX - i }));
    for (ts, begin, i) in edges {
        let span = &spans[i];
        let tid = u64::from(span.run);
        events.push(if begin {
            let event = TraceEvent::span_begin(span.name, 0, tid, ts).with_arg("run", tid);
            match span.parent {
                Some(parent) => event.with_arg("parent", parent as u64),
                None => event,
            }
        } else {
            TraceEvent::span_end(0, tid, ts)
        });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            run: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = [
            span("bench.run", None, 0, 100),
            span("designs.build", Some(0), 10, 40),
            span("designs.run", Some(0), 40, 90),
            span("abv-checker.collect", Some(2), 80, 90),
        ];
        let layers = self_ns_by_layer(&spans);
        assert_eq!(layers["bench"], 20);
        assert_eq!(layers["designs"], 70);
        assert_eq!(layers["abv-checker"], 10);
        assert_eq!(layers.values().sum::<u64>(), 100);
    }

    #[test]
    fn exported_spans_are_balanced() {
        let mut rec = Recorder::new(true);
        rec.start_run();
        let outer = rec.begin("bench.run");
        let ((), _) = rec.time("designs.build", || ());
        rec.end(outer);
        let events = to_trace_events(&rec.take());
        let json = abv_obs::chrome_trace_json(&events);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
    }

    #[test]
    fn disabled_recorder_times_without_keeping_spans() {
        let mut rec = Recorder::new(false);
        let (value, _) = rec.time("designs.build", || 7);
        assert_eq!(value, 7);
        assert!(rec.take().is_empty());
    }
}

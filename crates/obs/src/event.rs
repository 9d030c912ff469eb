//! Trace events in the Chrome trace-event vocabulary and their JSON
//! rendering.
//!
//! The subset emitted here (`B`/`E` duration spans, `i` instants, `C`
//! counters, `M` metadata) is the stable core that both `chrome://tracing`
//! and `ui.perfetto.dev` load. Timestamps are carried in nanoseconds of
//! simulation time and rendered as fractional microseconds (`ts` is a
//! microsecond field in the format).
//!
//! Recording is cheap: event names and string arguments are
//! `Cow<'static, str>` and argument keys are `&'static str`, so an event
//! with a literal name costs no allocation beyond its one argument buffer.
//! Only names that really are dynamic (a property's instance spans, track
//! and process labels) are owned. Rendering appends every event straight
//! into one output `String`, with hand-written integer and `ts` formatting
//! and a copy-through path for strings that need no escaping.

use std::borrow::Cow;

/// The Chrome trace-event phase of a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `B` — begin of a duration span on a `(pid, tid)` track.
    Begin,
    /// `E` — end of the innermost open span on a `(pid, tid)` track.
    End,
    /// `i` — a point event (rendered with thread scope).
    Instant,
    /// `C` — a counter sample; each arg is one series of the track.
    Counter,
    /// `M` — metadata (`process_name` / `thread_name` labels).
    Meta,
}

impl Phase {
    fn code(self) -> char {
        match self {
            Phase::Begin => 'B',
            Phase::End => 'E',
            Phase::Instant => 'i',
            Phase::Counter => 'C',
            Phase::Meta => 'M',
        }
    }
}

/// A typed argument value attached to a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// An unsigned integer (counter series, slot indices, deadlines…).
    U64(u64),
    /// A string (names, verdicts, reasons…): borrowed when static.
    Str(Cow<'static, str>),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}

impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> ArgValue {
        ArgValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(Cow::Owned(v))
    }
}

/// Arguments the first [`TraceEvent::with_arg`] makes room for: every
/// event of the workspace carries at most three. With the system
/// allocator, a buffer of exactly three (120 bytes) recorded a traced
/// DES56 run about twice as fast as `Vec`'s default first capacity of
/// four (160 bytes); EXPERIMENTS.md has the measurement.
const ARG_SLOTS: usize = 3;

/// One structured trace event.
///
/// `pid` groups tracks into a process row (one per design/run), `tid` is
/// the track within it (one per property, plus one per live checker
/// instance), and `ts_ns` is simulation time in nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Chrome trace-event phase.
    pub phase: Phase,
    /// Event or span name (empty for `E` events); borrowed when static.
    pub name: Cow<'static, str>,
    /// Process row: design / campaign run.
    pub pid: u64,
    /// Track within the process: property or checker instance.
    pub tid: u64,
    /// Simulation time in nanoseconds.
    pub ts_ns: u64,
    /// Typed key/value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    fn new(phase: Phase, name: Cow<'static, str>, pid: u64, tid: u64, ts_ns: u64) -> TraceEvent {
        TraceEvent {
            phase,
            name,
            pid,
            tid,
            ts_ns,
            args: Vec::new(),
        }
    }

    /// Opens a duration span on `(pid, tid)`.
    #[must_use]
    pub fn span_begin(
        name: impl Into<Cow<'static, str>>,
        pid: u64,
        tid: u64,
        ts_ns: u64,
    ) -> TraceEvent {
        TraceEvent::new(Phase::Begin, name.into(), pid, tid, ts_ns)
    }

    /// Closes the innermost open span on `(pid, tid)`.
    #[must_use]
    pub fn span_end(pid: u64, tid: u64, ts_ns: u64) -> TraceEvent {
        TraceEvent::new(Phase::End, Cow::Borrowed(""), pid, tid, ts_ns)
    }

    /// A point event on `(pid, tid)`.
    #[must_use]
    pub fn instant(
        name: impl Into<Cow<'static, str>>,
        pid: u64,
        tid: u64,
        ts_ns: u64,
    ) -> TraceEvent {
        TraceEvent::new(Phase::Instant, name.into(), pid, tid, ts_ns)
    }

    /// A counter sample; attach one arg per series.
    #[must_use]
    pub fn counter(
        name: impl Into<Cow<'static, str>>,
        pid: u64,
        tid: u64,
        ts_ns: u64,
    ) -> TraceEvent {
        TraceEvent::new(Phase::Counter, name.into(), pid, tid, ts_ns)
    }

    /// Labels process `pid` (`process_name` metadata).
    #[must_use]
    pub fn process_name(pid: u64, name: impl Into<Cow<'static, str>>) -> TraceEvent {
        TraceEvent::new(Phase::Meta, Cow::Borrowed("process_name"), pid, 0, 0)
            .with_arg("name", ArgValue::Str(name.into()))
    }

    /// Labels track `(pid, tid)` (`thread_name` metadata).
    #[must_use]
    pub fn thread_name(pid: u64, tid: u64, name: impl Into<Cow<'static, str>>) -> TraceEvent {
        TraceEvent::new(Phase::Meta, Cow::Borrowed("thread_name"), pid, tid, 0)
            .with_arg("name", ArgValue::Str(name.into()))
    }

    /// Attaches a typed argument (builder style).
    ///
    /// The first argument allocates room for three at once.
    #[must_use]
    pub fn with_arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> TraceEvent {
        if self.args.capacity() == 0 {
            self.args.reserve_exact(ARG_SLOTS);
        }
        self.args.push((key, value.into()));
        self
    }

    /// Renders this event as one Chrome trace-event JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.json_len_bound());
        self.write_json(&mut out);
        out
    }

    /// Appends this event's JSON object to `out`.
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"ph\":\"");
        out.push(self.phase.code());
        out.push_str("\",\"name\":");
        push_json_str(out, &self.name);
        out.push_str(",\"pid\":");
        push_u64(out, self.pid);
        out.push_str(",\"tid\":");
        push_u64(out, self.tid);
        out.push_str(",\"ts\":");
        push_micro_ts(out, self.ts_ns);
        if self.phase == Phase::Instant {
            out.push_str(",\"s\":\"t\"");
        }
        if !self.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (key, value)) in self.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(out, key);
                out.push(':');
                match value {
                    ArgValue::U64(v) => push_u64(out, *v),
                    ArgValue::Str(s) => push_json_str(out, s),
                }
            }
            out.push('}');
        }
        out.push('}');
    }

    /// An upper bound on the length of [`to_json`](Self::to_json) when no
    /// string needs escaping (an escaped character can exceed it, and the
    /// buffer then grows).
    fn json_len_bound(&self) -> usize {
        // `{"ph":"B","name":""` + `,"pid":` u64 + `,"tid":` u64 + `,"ts":`
        // u64 `.` 3 digits + `,"s":"t"` + `,"args":{` + `}` + `}`.
        const FIXED: usize = 19 + (7 + U64_DIGITS) * 2 + 6 + U64_DIGITS + 4 + 8 + 9 + 2;
        let args: usize = self
            .args
            .iter()
            .map(|(key, value)| {
                // `"key":` value `,`
                key.len()
                    + 4
                    + match value {
                        ArgValue::U64(_) => U64_DIGITS,
                        ArgValue::Str(s) => s.len() + 2,
                    }
            })
            .sum();
        FIXED + self.name.len() + args
    }
}

/// Decimal digits of `u64::MAX`.
const U64_DIGITS: usize = 20;

/// `00`, `01`, …, `99`: the two decimal digits of every value below 100.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends `v` in decimal, two digits per division.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; U64_DIGITS];
    let mut start = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        buf[start] = b'0' + v as u8;
    }
    // Pushed one by one: ASCII digits need no UTF-8 check of `buf`.
    for &digit in &buf[start..] {
        out.push(char::from(digit));
    }
}

/// Appends nanoseconds as the format's microsecond `ts` field, with
/// sub-microsecond precision kept as decimals (`1234` ns → `1.234`).
fn push_micro_ts(out: &mut String, ns: u64) {
    push_u64(out, ns / 1000);
    let frac = ns % 1000;
    if frac != 0 {
        out.push('.');
        for digit in [frac / 100, frac / 10 % 10, frac % 10] {
            out.push(char::from(b'0' + digit as u8));
        }
    }
}

/// Appends `s` as a JSON string literal (with quotes), escaping `"`, `\`
/// and control characters. A string with nothing to escape, the usual
/// case, is copied in one piece. The one JSON string writer of the
/// workspace: trace export and the kill-matrix report both use it.
///
/// ```
/// let mut out = String::from("[");
/// abv_obs::push_json_str(&mut out, "say \"hi\"\n");
/// out.push(']');
/// assert_eq!(out, r#"["say \"hi\"\n"]"#);
/// ```
#[inline]
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        push_escaped(out, s);
    } else {
        out.push_str(s);
    }
    out.push('"');
}

/// Appends `s` with JSON escapes for `"`, `\` and control characters.
/// Kept out of line: few strings need it, and [`push_json_str`] stays
/// small enough to inline into the writer.
#[inline(never)]
fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let b = c as u8;
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
            c => out.push(c),
        }
    }
}

/// Renders `events` as a complete Chrome trace-event JSON array, loadable
/// in `ui.perfetto.dev` or `chrome://tracing`.
///
/// The array is written into one `String`, sized up front from an upper
/// bound on each event's rendering, so an export without escaped
/// characters allocates once.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    // `[\n`, `,\n` per event, `\n]\n`.
    let bound: usize = events.iter().map(|e| e.json_len_bound() + 2).sum();
    let mut out = String::with_capacity(bound + 6);
    out.push_str("[\n");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        event.write_json(&mut out);
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_json_has_phase_ids_and_micro_ts() {
        let ev = TraceEvent::span_begin("p0", 2, 7, 1_234_567);
        assert_eq!(
            ev.to_json(),
            "{\"ph\":\"B\",\"name\":\"p0\",\"pid\":2,\"tid\":7,\"ts\":1234.567}"
        );
        let end = TraceEvent::span_end(2, 7, 2_000_000);
        assert_eq!(
            end.to_json(),
            "{\"ph\":\"E\",\"name\":\"\",\"pid\":2,\"tid\":7,\"ts\":2000}"
        );
    }

    #[test]
    fn instant_carries_thread_scope_and_args() {
        let ev = TraceEvent::instant("fail", 0, 1, 340)
            .with_arg("reason", "missed-deadline")
            .with_arg("deadline_ns", 340u64);
        assert_eq!(
            ev.to_json(),
            "{\"ph\":\"i\",\"name\":\"fail\",\"pid\":0,\"tid\":1,\"ts\":0.340,\
             \"s\":\"t\",\"args\":{\"reason\":\"missed-deadline\",\"deadline_ns\":340}}"
        );
    }

    #[test]
    fn counter_and_metadata_render() {
        let c = TraceEvent::counter("kernel", 0, 0, 10_000).with_arg("events", 42u64);
        assert!(c.to_json().contains("\"ph\":\"C\""));
        assert!(c.to_json().contains("\"events\":42"));
        let m = TraceEvent::process_name(3, "des56 tlm-at");
        assert_eq!(
            m.to_json(),
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":3,\"tid\":0,\"ts\":0,\
             \"args\":{\"name\":\"des56 tlm-at\"}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let ev = TraceEvent::instant("a\"b\\c\n", 0, 0, 0);
        assert!(ev.to_json().contains("a\\\"b\\\\c\\n"));
    }

    /// The rendered `name` field of an instant named `name`.
    fn rendered_name(name: &'static str) -> String {
        let json = TraceEvent::instant(name, 0, 0, 0).to_json();
        let start = json.find("\"name\":").expect("name field") + "\"name\":".len();
        let end = json.find(",\"pid\"").expect("pid field");
        json[start..end].to_owned()
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(rendered_name("q\"b\\"), r#""q\"b\\""#);
        assert_eq!(rendered_name("n\nr\rt\t"), r#""n\nr\rt\t""#);
        assert_eq!(
            rendered_name("\u{0}\u{1}\u{8}\u{b}\u{c}\u{1f}"),
            r#""\u0000\u0001\u0008\u000b\u000c\u001f""#
        );
        assert_eq!(rendered_name("\"\""), r#""\"\"""#);
        assert_eq!(rendered_name(""), r#""""#);
    }

    #[test]
    fn non_ascii_and_del_pass_through() {
        assert_eq!(rendered_name("µs → ✓ 𝄞"), "\"µs → ✓ 𝄞\"");
        assert_eq!(rendered_name("a\u{7f}b"), "\"a\u{7f}b\"");
        assert_eq!(rendered_name("é\n\u{7f}"), "\"é\\n\u{7f}\"");
    }

    #[test]
    fn ts_renders_microseconds_with_sub_microsecond_decimals() {
        let ts = |ns| {
            let json = TraceEvent::span_end(0, 0, ns).to_json();
            let start = json.find("\"ts\":").expect("ts field") + "\"ts\":".len();
            json[start..json.len() - 1].to_owned()
        };
        assert_eq!(ts(0), "0");
        assert_eq!(ts(1), "0.001");
        assert_eq!(ts(999), "0.999");
        assert_eq!(ts(1000), "1");
        assert_eq!(ts(1001), "1.001");
        assert_eq!(ts(1010), "1.010");
        assert_eq!(ts(u64::MAX), "18446744073709551.615");
    }

    #[test]
    fn extreme_values_and_bare_events_render() {
        let ev = TraceEvent::counter("c", u64::MAX, u64::MAX, u64::MAX).with_arg("v", u64::MAX);
        assert_eq!(
            ev.to_json(),
            "{\"ph\":\"C\",\"name\":\"c\",\"pid\":18446744073709551615,\
             \"tid\":18446744073709551615,\"ts\":18446744073709551.615,\
             \"args\":{\"v\":18446744073709551615}}"
        );
        assert_eq!(
            TraceEvent::span_end(0, 0, 0).to_json(),
            "{\"ph\":\"E\",\"name\":\"\",\"pid\":0,\"tid\":0,\"ts\":0}"
        );
        assert_eq!(
            TraceEvent::instant("tick", 1, 2, 3).to_json(),
            "{\"ph\":\"i\",\"name\":\"tick\",\"pid\":1,\"tid\":2,\"ts\":0.003,\"s\":\"t\"}"
        );
        let owned = TraceEvent::thread_name(0, 9, format!("p{}#{}", 4, 0));
        assert_eq!(
            owned.to_json(),
            "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":9,\"ts\":0,\
             \"args\":{\"name\":\"p4#0\"}}"
        );
    }

    #[test]
    fn arguments_past_the_reserved_slots_keep_their_order() {
        let keys = ["a", "b", "c", "d", "e"];
        let ev = keys
            .iter()
            .zip(0u64..)
            .fold(TraceEvent::instant("many", 0, 0, 0), |ev, (key, v)| {
                ev.with_arg(key, v)
            });
        let rendered: Vec<&str> = ev.args.iter().map(|(key, _)| *key).collect();
        assert_eq!(rendered, keys);
        assert!(ev
            .to_json()
            .ends_with(",\"args\":{\"a\":0,\"b\":1,\"c\":2,\"d\":3,\"e\":4}}"));
        assert_eq!(ev.clone(), ev);
        assert_ne!(ev.clone().with_arg("f", 5u64), ev);
    }

    #[test]
    fn length_bound_covers_every_unescaped_rendering() {
        let events = [
            TraceEvent::counter("c", u64::MAX, u64::MAX, u64::MAX)
                .with_arg("a", u64::MAX)
                .with_arg("b", "text"),
            TraceEvent::instant("i", 0, 0, 1),
            TraceEvent::span_end(0, 0, 0),
            TraceEvent::process_name(0, String::from("owned label")),
        ];
        for ev in &events {
            assert!(ev.to_json().len() <= ev.json_len_bound(), "{ev:?}");
        }
    }

    #[test]
    fn array_is_well_formed() {
        let events = vec![
            TraceEvent::span_begin("x", 0, 0, 0),
            TraceEvent::span_end(0, 0, 5),
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("\n]\n"));
        assert_eq!(json.matches("{\"ph\"").count(), 2);
        assert_eq!(chrome_trace_json(&[]), "[\n\n]\n");
    }
}

//! End-to-end tour of the structured tracing layer on DES56 @ TLM-AT:
//! attach the abstracted suite, record every span/instant/counter into a
//! memory sink, and replay the checker-instance lifecycle — activation,
//! `next_ε^τ` obligation registration, evaluation, pass — from the
//! recorded events. A second run injects a latency fault so the same
//! tracks show the wrapper's timeout-fail (missed evaluation instant)
//! case. This is the dynamic version of the paper's Fig. 5 wrapper
//! walk-through; `rtl2tlm trace` exports the same stream as Chrome
//! trace-event JSON for ui.perfetto.dev.
//!
//! ```text
//! cargo run --example wrapper_trace
//! ```

use std::collections::HashMap;

use abv_checker::{CheckReport, Checker};
use abv_obs::{chrome_trace_json, ArgValue, Phase, TraceEvent, Tracer};
use designs::{AbsLevel, DesignKind, Fault};

/// Builds DES56 at TLM-AT, runs it traced under the full abstracted
/// suite, and returns the recorded events plus the checker report.
fn traced_run(fault: Fault) -> (Vec<TraceEvent>, CheckReport) {
    let props = designs::properties_at(DesignKind::Des56, AbsLevel::TlmAt);
    let mut built =
        designs::build(DesignKind::Des56, AbsLevel::TlmAt, 6, 2015, fault).expect("builds");
    // Tracer first, so checker track metadata lands in the stream.
    let (tracer, sink) = Tracer::memory();
    built.set_tracer(tracer);
    let binding = built.binding();
    let checkers = Checker::attach_all(&mut built.sim, &props, binding).expect("attaches");
    built.run();
    let end = built.end_ns;
    let report = Checker::collect(&mut built.sim, &checkers, end);
    let events = sink.borrow_mut().take_events();
    (events, report)
}

/// Track labels recorded as `thread_name` metadata, keyed by tid.
fn track_names(events: &[TraceEvent]) -> HashMap<u64, String> {
    events
        .iter()
        .filter(|e| e.phase == Phase::Meta && e.name == "thread_name")
        .filter_map(|e| match e.args.first() {
            Some((_, ArgValue::Str(name))) => Some((e.tid, name.to_string())),
            _ => None,
        })
        .collect()
}

/// Prints the lifecycle events of every track whose label starts with
/// `property` (the base track plus its per-instance tracks).
fn render_property(events: &[TraceEvent], names: &HashMap<u64, String>, property: &str) {
    let mut open: HashMap<u64, u64> = HashMap::new();
    for ev in events {
        let Some(track) = names.get(&ev.tid) else {
            continue;
        };
        if !track.starts_with(property) {
            continue;
        }
        let args: Vec<String> = ev
            .args
            .iter()
            .map(|(k, v)| match v {
                ArgValue::U64(n) => format!("{k}={n}"),
                ArgValue::Str(s) => format!("{k}={s}"),
            })
            .collect();
        match ev.phase {
            Phase::Begin => {
                open.insert(ev.tid, ev.ts_ns);
                println!(
                    "  @{:>5}ns  {track:<6} activate [{}]",
                    ev.ts_ns,
                    args.join(", ")
                );
            }
            Phase::End => {
                let lived = open
                    .remove(&ev.tid)
                    .map_or_else(String::new, |t0| format!(" (lived {}ns)", ev.ts_ns - t0));
                println!("  @{:>5}ns  {track:<6} retire{lived}", ev.ts_ns);
            }
            Phase::Instant => {
                println!(
                    "  @{:>5}ns  {track:<6} {} [{}]",
                    ev.ts_ns,
                    ev.name,
                    args.join(", ")
                );
            }
            Phase::Counter | Phase::Meta => {}
        }
    }
}

fn print_metrics(report: &CheckReport) {
    for p in &report.properties {
        println!(
            "  {:<4} activations={:<3} peak-live={:<2} timeout-fails={:<2} latency[{}]",
            p.name, p.activations, p.max_live_instances, p.timeout_fails, p.latency
        );
    }
}

fn main() {
    println!("Checker-lifecycle tracing on DES56 @ TLM-AT (cf. paper Fig. 5)");
    println!("==============================================================\n");

    let (events, report) = traced_run(Fault::None);
    let names = track_names(&events);

    println!("fault-free run, property p4 = always (!ds || next_et[1,170] rdy) @T_b:");
    println!("(span begin = instance allocated from the pool, span end = slot freed)\n");
    render_property(&events, &names, "p4");

    println!("\nper-property metrics (fault-free):");
    print_metrics(&report);

    let (fault_events, fault_report) = traced_run(Fault::LatencyShort);
    let fault_names = track_names(&fault_events);
    println!("\nsame run with Fault::LatencyShort injected — p4's obligations now");
    println!("miss their registered evaluation instants (Fig. 5's C[3] case):\n");
    render_property(&fault_events, &fault_names, "p4");

    println!("\nper-property metrics (faulty):");
    print_metrics(&fault_report);

    let json = chrome_trace_json(&fault_events);
    let preview: Vec<&str> = json.lines().take(4).collect();
    println!(
        "\nThe same stream exports as Chrome trace-event JSON ({} events;\n\
         see `rtl2tlm trace --design des56 --level tlm-at --out trace.json`):\n",
        fault_events.len()
    );
    for line in preview {
        println!("  {line}");
    }
    println!("  ...");
}

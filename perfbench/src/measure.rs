//! The measuring loop: passes until the time is up, correctness checks on
//! every pass, and the metrics over the passes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use designs::{AbsLevel, DesignKind};

use crate::host;
use crate::pins;
use crate::pipeline::Outcome;
use crate::spans::{self_ns_by_layer, Recorder};
use crate::workloads::{
    export_spans, frontend_probe, kill_matrix_json, level_key, pass, probe_sources, secs, twins,
    Expectations, Pass, Probe, Sizes, SpanLog, Workload, MUTATION_WORKERS,
};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What one benchmark run prints.
#[derive(Debug, Clone)]
pub struct Outcomes {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable report, printed before the JSON line.
    pub text: String,
}

/// Layers of the layer table, in call order (`bench` is the benchmark's
/// glue between calls).
const LAYERS: [&str; 8] = [
    "psl",
    "abv-core",
    "designs",
    "abv-checker",
    "abv-campaign",
    "abv-mutate",
    "abv-obs",
    "bench",
];

/// Least time between two calibration walks.
const CALIBRATION_EVERY: Duration = Duration::from_millis(250);

/// Operation counts of a run, checked against the reference fingerprints.
struct Tally {
    attempted: u64,
    failed: u64,
    reference: Option<BTreeMap<String, String>>,
}

impl Tally {
    fn add(&mut self, p: &Pass) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        match &self.reference {
            Some(reference) => {
                self.failed += p
                    .checks
                    .iter()
                    .filter(|(key, value)| reference.get(key) != Some(value))
                    .count() as u64;
            }
            None => self.reference = Some(p.checks.iter().cloned().collect()),
        }
    }
}

fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// The timed calls of one run, in call order: properties, build, tracer,
/// attach, run, collect, export.
fn call_times(r: &Outcome) -> [f64; 7] {
    let export = r.export.as_ref().map_or(Duration::ZERO, |e| e.time);
    [
        r.t_props,
        r.t_build,
        r.t_tracer,
        r.t_attach,
        r.t_run,
        r.t_collect,
        export,
    ]
    .map(secs)
}

/// One run of the pass, at its fastest so far.
struct Fastest {
    level: AbsLevel,
    requests: usize,
    full_suite: bool,
    /// Each timed call's least time over the passes (see [`call_times`]).
    calls: [f64; 7],
}

/// What the end-to-end metrics keep from the untraced passes: per-pass
/// times, and each call's fastest time so far, so the benchmark's own
/// memory stays flat however many passes a run makes.
#[derive(Default)]
struct Summaries {
    times: Vec<f64>,
    setups: Vec<f64>,
    /// The pass's runs, in its fixed run order (kill-matrix: the replay).
    fastest: Vec<Fastest>,
    /// kill-matrix: the least `run_mutation` and `to_json` times.
    campaign: Option<[f64; 2]>,
}

impl Summaries {
    fn add(&mut self, p: &Pass) {
        self.times.push(secs(p.time));
        self.setups.push(secs(p.setup));
        if self.fastest.is_empty() {
            self.fastest = p
                .runs
                .iter()
                .map(|r| Fastest {
                    level: r.spec.level,
                    requests: r.spec.size,
                    full_suite: r.spec.full_suite(),
                    calls: call_times(r),
                })
                .collect();
        } else {
            for (slot, r) in self.fastest.iter_mut().zip(&p.runs) {
                for (least, t) in slot.calls.iter_mut().zip(call_times(r)) {
                    *least = least.min(t);
                }
            }
        }
        if let Some(c) = &p.campaign {
            let t = [secs(c.t_mutation), secs(c.t_json)];
            self.campaign = Some(match self.campaign {
                Some([m, j]) => [m.min(t[0]), j.min(t[1])],
                None => t,
            });
        }
    }

    /// One pass at its uncontended cost: the sum of every timed call's
    /// least time over the passes (kill-matrix: of `run_mutation` and
    /// `to_json`).
    fn pass_s(&self) -> f64 {
        match self.campaign {
            Some(calls) => calls.iter().sum(),
            None => self.fastest.iter().flat_map(|f| f.calls).sum(),
        }
    }
}

/// What the per-layer metrics need from the traced passes.
#[derive(Default)]
struct Traced {
    samples: Vec<Vec<(String, &'static str, f64)>>,
    times: Vec<f64>,
    self_ns: BTreeMap<&'static str, u64>,
    spans_per_pass: usize,
    last: Option<(Pass, Vec<Outcome>)>,
}

/// Runs `workload` for `seconds`; with `trace`, alternates untraced and
/// traced passes and reports the per-layer metrics instead of the
/// end-to-end ones.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcomes {
    let sizes = Sizes::FULL;
    let expect = Expectations::new();
    let sources = probe_sources();
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        reference: pins::lookup(workload.name(), seed),
    };
    let pinned = tally.reference.is_some();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut untraced = Recorder::new(false);
    let mut summaries = Summaries::default();
    let mut traced = Traced::default();
    let mut calibration: Vec<f64> = Vec::new();
    let mut calibrator = host::Calibration::new();
    let mut last_calibration: Option<Instant> = None;
    let mut last_json: Option<String> = None;
    let mut first_span_json: Option<String> = None;
    let mut panicked = false;

    // The first pass warms caches and lazy set-up; it is checked but not
    // measured.
    match guarded(|| pass(workload, seed, sizes, &expect, &mut untraced)) {
        Some(p) => tally.add(&p),
        None => panicked = true,
    }
    while !panicked && (start.elapsed() < budget || summaries.times.is_empty()) {
        let Some(p) = guarded(|| pass(workload, seed, sizes, &expect, &mut untraced)) else {
            panicked = true;
            break;
        };
        tally.add(&p);
        // Next to each pass, but at most every 250 ms so short passes are
        // not crowded out.
        if last_calibration.is_none_or(|t| t.elapsed() >= CALIBRATION_EVERY) {
            calibration.push(secs(calibrator.run()) * 1e3);
            last_calibration = Some(Instant::now());
        }
        summaries.add(&p);
        last_json = p.campaign.map(|c| c.json);
        if !trace {
            continue;
        }
        let mut rec = Recorder::new(true);
        let Some(tp) = guarded(|| pass(workload, seed, sizes, &expect, &mut rec)) else {
            panicked = true;
            break;
        };
        tally.add(&tp);
        let Some(tw) = guarded(|| twins(&tp)) else {
            panicked = true;
            break;
        };
        let probe = frontend_probe(&sources, &mut rec);
        tally.attempted += probe.props as u64;
        tally.failed += probe.mismatches;
        let (log, json) = export_spans(rec.take());
        first_span_json.get_or_insert(json);
        traced.samples.push(layer_sample(&tp, &tw, &probe, &log));
        traced.times.push(secs(tp.time));
        for (layer, ns) in self_ns_by_layer(&log.spans) {
            *traced.self_ns.entry(layer).or_insert(0) += ns;
        }
        traced.spans_per_pass = log.spans.len();
        traced.last = Some((tp, tw));
    }
    if panicked {
        tally.attempted += 1;
        tally.failed += 1;
    }

    let mut text = String::new();
    let _ = writeln!(
        text,
        "workload {} seed {seed} ({}) trace {} | {} measured passes in {:.1} s | nproc {}",
        workload.name(),
        if pinned {
            "pinned"
        } else {
            "checked against its first pass"
        },
        u8::from(trace),
        summaries.times.len(),
        secs(start.elapsed()),
        host::nproc(),
    );
    if let Some(json) = last_json {
        let one = guarded(|| kill_matrix_json(seed, sizes, 1));
        let same = one.as_deref() == Some(json.as_str());
        tally.attempted += 1;
        tally.failed += u64::from(!same);
        let _ = writeln!(
            text,
            "kill-matrix JSON at 1 and {MUTATION_WORKERS} workers: {}",
            if same { "identical" } else { "DIFFERENT" }
        );
    }
    let _ = writeln!(
        text,
        "host calibration walk (4 MiB): median {:.3} ms, min {:.3}, max {:.3} (n={})",
        median(&calibration),
        calibration.iter().copied().fold(f64::INFINITY, f64::min),
        calibration.iter().copied().fold(0.0, f64::max),
        calibration.len()
    );
    let _ = writeln!(
        text,
        "operations: {} attempted, {} failed",
        tally.attempted, tally.failed
    );

    let metrics = if trace {
        let metrics = layer_metrics(&summaries.times, &traced, &mut text);
        if let Some(json) = first_span_json {
            write_span_log(workload, seed, &json, &mut text);
        }
        metrics
    } else {
        end_to_end(&summaries, &mut text)
    };
    Outcomes {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        text,
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest whole percentile with at least ten samples beyond it, and
/// its value.
fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    if n <= 10 {
        return None;
    }
    let p = (100 * (n - 10) / n) as u32;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p as usize * n).div_ceil(100).clamp(1, n);
    Some((p, v[rank - 1]))
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The end-to-end metrics. Times are sums of each call's minimum over
/// passes, the uncontended cost: the host has phases of shared-cache
/// contention that slow every pass inside them, which a median within one
/// run cannot remove, and a call of milliseconds finds a quiet moment far
/// more often than a whole pass does. Each call is timed in the thread's
/// CPU time, which leaves out the time the vCPU spent running something
/// else (kill-matrix's campaign, on two workers, in wall time). Set-up is
/// the median, as the benchmark contract asks.
fn end_to_end(summaries: &Summaries, text: &mut String) -> Vec<Metric> {
    let mut metrics = Vec::new();
    let times = &summaries.times;
    let setups = &summaries.setups;
    let _ = writeln!(
        text,
        "end-to-end metrics over {} passes (times: sums of per-call minima, in thread CPU \
         time but the campaign's wall time; setup_s: median)",
        times.len()
    );
    // Each full-suite run's fastest simulation over the passes; a level's
    // throughput is its runs' requests over the sum of those times.
    for level in AbsLevel::ALL {
        let (req, time) = summaries
            .fastest
            .iter()
            .filter(|f| f.full_suite && f.level == level)
            .fold((0usize, 0.0), |(req, time), f| {
                (req + f.requests, time + f.calls[4])
            });
        metrics.push(Metric {
            name: format!("{}_allc_req_per_s", level_key(level)),
            unit: "req/s",
            value: ratio(req as f64, time),
        });
    }
    metrics.push(Metric {
        name: "pass_s".to_owned(),
        unit: "s",
        value: summaries.pass_s(),
    });
    metrics.push(Metric {
        name: "setup_s".to_owned(),
        unit: "s",
        value: median(setups),
    });
    metrics.push(Metric {
        name: "peak_rss_mb".to_owned(),
        unit: "MB",
        value: host::peak_rss_mb(),
    });
    for m in &metrics {
        let _ = writeln!(text, "  {:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let _ = write!(
        text,
        "  whole pass: min {:.6} s, median {:.6} s; setup_s min {:.6} s",
        min(times),
        median(times),
        min(setups)
    );
    if let Some((p, value)) = tail(times) {
        let _ = write!(text, ", p{p} {value:.6} s");
    }
    let _ = writeln!(text, " (n={})", times.len());
    metrics
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean_us<'a>(runs: impl Iterator<Item = &'a Outcome>, field: fn(&Outcome) -> Duration) -> f64 {
    let (n, total) = runs.fold((0usize, 0.0), |(n, total), r| (n + 1, total + ns(field(r))));
    ratio(total, n as f64) / 1e3
}

/// The per-layer metrics of one traced pass, its twins and probe.
fn layer_sample(
    tp: &Pass,
    twins: &[Outcome],
    probe: &Probe,
    log: &SpanLog,
) -> Vec<(String, &'static str, f64)> {
    let mut m: Vec<(String, &'static str, f64)> = Vec::new();
    let per_prop = |d: Duration| ratio(ns(d), probe.props as f64);
    m.push(("psl.parse_ns_per_prop".into(), "ns", per_prop(probe.parse)));
    m.push(("psl.nnf_ns_per_prop".into(), "ns", per_prop(probe.nnf)));
    m.push((
        "psl.push_ahead_ns_per_prop".into(),
        "ns",
        per_prop(probe.push_ahead),
    ));
    m.push((
        "abv-core.abstract_ns_per_prop".into(),
        "ns",
        per_prop(probe.abstraction),
    ));

    let pairs: Vec<(&Outcome, &Outcome)> = tp
        .runs
        .iter()
        .filter(|r| r.spec.full_suite())
        .zip(twins)
        .collect();
    for level in AbsLevel::ALL {
        let k = level_key(level);
        let at = || tp.runs.iter().filter(move |r| r.spec.level == level);
        m.push((
            format!("designs.props_us.{k}"),
            "us",
            mean_us(at(), |r| r.t_props),
        ));
        m.push((
            format!("designs.build_us.{k}"),
            "us",
            mean_us(at(), |r| r.t_build),
        ));
        let pairs: Vec<&(&Outcome, &Outcome)> = pairs
            .iter()
            .filter(|(f, _)| f.spec.level == level)
            .collect();
        let req: f64 = pairs.iter().map(|(f, _)| f.spec.size as f64).sum();
        let sum = |f: &dyn Fn(&Outcome, &Outcome) -> f64| -> f64 {
            pairs.iter().map(|(full, zero)| f(full, zero)).sum()
        };
        let zero_ns = sum(&|_, z| ns(z.t_run));
        let full_ns = sum(&|f, _| ns(f.t_run));
        let zero_events = sum(&|_, z| z.stats.events_processed as f64);
        let full_events = sum(&|f, _| f.stats.events_processed as f64);
        let props = || pairs.iter().flat_map(|(f, _)| f.report.properties.iter());
        let vacuous: u64 = props().map(|p| p.vacuous).sum();
        let activations: u64 = props().map(|p| p.activations).sum();
        let hits: u64 = props().map(|p| p.memo_hits).sum();
        let misses: u64 = props().map(|p| p.memo_misses).sum();
        let nodes: usize = props().map(|p| p.arena_nodes).sum();
        m.push((
            format!("designs.sim_ns_per_req.{k}"),
            "ns",
            ratio(zero_ns, req),
        ));
        m.push((
            format!("desim.events_per_req.{k}"),
            "count",
            ratio(zero_events, req),
        ));
        m.push((
            format!("desim.deltas_per_req.{k}"),
            "count",
            ratio(sum(&|_, z| z.stats.delta_cycles as f64), req),
        ));
        m.push((
            format!("abv-checker.host_ns_per_req.{k}"),
            "ns",
            ratio(full_ns - zero_ns, req),
        ));
        m.push((
            format!("abv-checker.events_per_req.{k}"),
            "count",
            ratio(full_events - zero_events, req),
        ));
        m.push((
            format!("abv-checker.vacuous_frac.{k}"),
            "ratio",
            ratio(vacuous as f64, activations as f64),
        ));
        m.push((
            format!("abv-checker.memo_hit_ratio.{k}"),
            "ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ));
        m.push((
            format!("abv-checker.arena_nodes.{k}"),
            "count",
            ratio(nodes as f64, pairs.len() as f64),
        ));
    }

    let runs = &tp.runs;
    let events: f64 = runs.iter().map(|r| r.stats.events_processed as f64).sum();
    let run_s: f64 = runs.iter().map(|r| secs(r.t_run)).sum();
    m.push(("desim.events_per_s".into(), "1/s", ratio(events, run_s)));
    let checked = || runs.iter().filter(|r| r.props > 0);
    let attach_ns: f64 = checked().map(|r| ns(r.t_attach)).sum();
    let props: usize = checked().map(|r| r.props).sum();
    m.push((
        "abv-checker.attach_us_per_prop".into(),
        "us",
        ratio(attach_ns, props as f64) / 1e3,
    ));
    m.push((
        "abv-checker.collect_us".into(),
        "us",
        mean_us(checked(), |r| r.t_collect),
    ));
    m.push((
        "abv-checker.fail_collect_us".into(),
        "us",
        mean_us(runs.iter().filter(|r| r.report.total_failures() > 0), |r| {
            r.t_collect
        }),
    ));
    let recorded: usize = runs
        .iter()
        .flat_map(|r| r.report.properties.iter())
        .map(|p| p.failures.len())
        .sum();
    m.push((
        "abv-checker.failures_recorded".into(),
        "count",
        recorded as f64,
    ));

    let (campaign_runs, efficiency) = tp.campaign.as_ref().map_or((0.0, 0.0), |c| {
        let serial: f64 = runs.iter().map(|r| secs(r.t_total)).sum();
        (
            c.runs as f64,
            ratio(serial, MUTATION_WORKERS as f64 * secs(c.t_mutation)),
        )
    });
    m.push(("abv-campaign.runs".into(), "count", campaign_runs));
    m.push((
        "abv-campaign.parallel_efficiency".into(),
        "ratio",
        efficiency,
    ));

    let exports = || {
        runs.iter()
            .filter_map(|r| r.export.as_ref().map(|e| (r, e)))
    };
    let traced_req: f64 = exports().map(|(r, _)| r.spec.size as f64).sum();
    let trace_events: f64 = exports().map(|(_, e)| e.events as f64).sum();
    let trace_bytes: f64 = exports().map(|(_, e)| e.bytes as f64).sum();
    let export_ns: f64 = exports().map(|(_, e)| ns(e.time)).sum();
    m.push((
        "abv-obs.events_per_req".into(),
        "count",
        ratio(trace_events, traced_req),
    ));
    m.push((
        "abv-obs.bytes_per_req".into(),
        "B",
        ratio(trace_bytes, traced_req),
    ));
    m.push((
        "abv-obs.export_ns_per_event".into(),
        "ns",
        ratio(export_ns + ns(log.export), trace_events + log.events as f64),
    ));
    m
}

fn layer_metrics(untraced_times: &[f64], traced: &Traced, text: &mut String) -> Vec<Metric> {
    let samples = &traced.samples;
    let mut metrics: Vec<Metric> = match samples.first() {
        Some(first) => first
            .iter()
            .enumerate()
            .map(|(i, (name, unit, _))| Metric {
                name: name.clone(),
                unit,
                value: median(&samples.iter().map(|s| s[i].2).collect::<Vec<_>>()),
            })
            .collect(),
        None => Vec::new(),
    };

    let traced_pass = median(&traced.times);
    let untraced_pass = median(untraced_times);
    metrics.push(Metric {
        name: "bench.trace_overhead_pct".to_owned(),
        unit: "%",
        value: ratio(traced_pass - untraced_pass, untraced_pass) * 100.0,
    });

    let total: u64 = traced.self_ns.values().sum();
    let n = samples.len().max(1) as f64;
    let _ = writeln!(
        text,
        "layer table: self time per traced pass, mean over {} passes ({} spans each)",
        samples.len(),
        traced.spans_per_pass
    );
    for layer in LAYERS {
        let own = traced.self_ns.get(layer).copied().unwrap_or(0);
        let share = ratio(own as f64, total as f64);
        let _ = writeln!(
            text,
            "  {layer:<14} {:>12.3} ms {:>7.2} %",
            own as f64 / n / 1e6,
            share * 100.0
        );
        metrics.push(Metric {
            name: format!("share.{layer}"),
            unit: "ratio",
            value: share,
        });
    }
    let _ = writeln!(
        text,
        "  tracing overhead: traced pass {traced_pass:.6} s vs untraced {untraced_pass:.6} s"
    );
    if let Some((tp, tw)) = &traced.last {
        checker_cost(tp, tw, text);
        if let Some(c) = &tp.campaign {
            let _ = writeln!(
                text,
                "abv-mutate (last traced pass): run_mutation {:.3} ms, to_json {:.1} us ({} bytes)",
                secs(c.t_mutation) * 1e3,
                secs(c.t_json) * 1e6,
                c.json.len()
            );
        }
    }
    let _ = writeln!(text, "per-layer metrics");
    for m in &metrics {
        let _ = writeln!(text, "  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    metrics
}

/// Where the all-checker run time goes, per design and level: the share
/// spent in checkers (all-checker run against its checker-off twin) and the
/// kernel events the checkers add per request.
fn checker_cost(tp: &Pass, twins: &[Outcome], text: &mut String) {
    let _ = writeln!(text, "checker cost in all-checker runs (last traced pass)");
    // Per (design, level): all-checker ns, checker-off ns, added events,
    // requests.
    let mut rows: Vec<((DesignKind, AbsLevel), [f64; 4])> = Vec::new();
    for (full, zero) in tp.runs.iter().filter(|r| r.spec.full_suite()).zip(twins) {
        let key = (full.spec.design, full.spec.level);
        let add = [
            ns(full.t_run),
            ns(zero.t_run),
            full.stats.events_processed as f64 - zero.stats.events_processed as f64,
            full.spec.size as f64,
        ];
        match rows.iter_mut().find(|(k, _)| *k == key) {
            Some((_, acc)) => acc.iter_mut().zip(add).for_each(|(a, b)| *a += b),
            None => rows.push((key, add)),
        }
    }
    for ((design, level), [full, zero, events, req]) in rows {
        let _ = writeln!(
            text,
            "  {:<9} {:<6} checkers {:>5.1} % of run time, {:>8.1} host ns/req, +{:.1} events/req",
            design.label(),
            level.label(),
            ratio(full - zero, full) * 100.0,
            ratio(full - zero, req),
            ratio(events, req)
        );
    }
}

/// Writes the first traced pass's spans as Chrome trace JSON next to the
/// benchmark's sources.
fn write_span_log(workload: Workload, seed: u64, json: &str, text: &mut String) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-{seed}.json", workload.name());
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json));
    let _ = match written {
        Ok(()) => writeln!(
            text,
            "span log: perfbench/out/spans-{}-{seed}.json",
            workload.name()
        ),
        Err(e) => writeln!(text, "span log not written: {e}"),
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small sizes: the tests check behaviour, not speed.
    const SMALL: Sizes = Sizes {
        grid: 12,
        mutation: 8,
        traced: 6,
    };

    /// The per-layer metrics that count the program's work rather than
    /// time it.
    const COUNTS: [&str; 8] = [
        "events_per_req",
        "deltas_per_req",
        "vacuous_frac",
        "memo_hit_ratio",
        "arena_nodes",
        "failures_recorded",
        "abv-campaign.runs",
        "abv-obs.bytes_per_req",
    ];

    fn counts(workload: Workload, seed: u64, record_spans: bool) -> Vec<(String, f64)> {
        let mut rec = Recorder::new(record_spans);
        let tp = pass(workload, seed, SMALL, &Expectations::new(), &mut rec);
        assert_eq!(tp.failed, 0, "{}", workload.name());
        let tw = twins(&tp);
        let probe = frontend_probe(&probe_sources(), &mut rec);
        let (log, _) = export_spans(rec.take());
        layer_sample(&tp, &tw, &probe, &log)
            .into_iter()
            .filter(|(name, _, _)| COUNTS.iter().any(|c| name.contains(c)))
            .map(|(name, _, value)| (name, value))
            .collect()
    }

    #[test]
    fn deterministic_counts_repeat_exactly() {
        for workload in Workload::ALL {
            let first = counts(workload, 11, true);
            assert_eq!(first.len(), 22, "{}: {first:?}", workload.name());
            assert_eq!(first, counts(workload, 11, true), "{}", workload.name());
            // Recording spans does not change what the program does.
            assert_eq!(first, counts(workload, 11, false), "{}", workload.name());
        }
    }

    #[test]
    fn every_workload_is_pinned_at_both_seeds() {
        for workload in Workload::ALL {
            for seed in pins::PINNED_SEEDS {
                assert!(
                    pins::lookup(workload.name(), seed).is_some(),
                    "{} {seed}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn medians_and_tails() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&values), Some((50, 10.0)));
        assert_eq!(tail(&values[..10]), None);
    }
}

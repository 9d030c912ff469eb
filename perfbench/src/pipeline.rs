//! One simulation run through the crates' public calls, each timed from
//! here: properties → build → (tracer) → attach → run → collect →
//! (export). This is the path `abv-campaign` takes inside a worker, made
//! visible call by call.

use std::fmt::Write as _;
use std::time::Duration;

use abv_campaign::CheckerMode;
use abv_checker::{CheckReport, Checker};
use abv_obs::Tracer;
use designs::{AbsLevel, DesignKind, Fault};
use desim::SimStats;

use crate::spans::Recorder;

/// What one simulation run builds and attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub design: DesignKind,
    pub level: AbsLevel,
    pub checkers: CheckerMode,
    pub fault: Fault,
    /// Requests (DES56 blocks, ColorConv pixels, FIR samples).
    pub size: usize,
    pub seed: u64,
    /// Attach an in-memory `abv-obs` tracer and export its events as Chrome
    /// trace JSON to a string.
    pub traced: bool,
}

impl Spec {
    /// Stable name of the run, used as its key in the pins.
    pub fn key(&self) -> String {
        let checkers = match self.checkers {
            CheckerMode::None => "0C".to_owned(),
            CheckerMode::First(n) => format!("{n}C"),
            CheckerMode::All => "allC".to_owned(),
            CheckerMode::ExpectedPassing => "passingC".to_owned(),
        };
        format!(
            "{}/{}/{checkers}/{}",
            self.design.label(),
            self.level.label(),
            self.fault
        )
    }

    /// True when the run attaches the whole suite its workload selects
    /// (all properties, or all expected-passing ones).
    pub fn full_suite(&self) -> bool {
        matches!(
            self.checkers,
            CheckerMode::All | CheckerMode::ExpectedPassing
        )
    }

    /// The same run without checkers, for checker-cost differences.
    pub fn twin(&self) -> Spec {
        Spec {
            checkers: CheckerMode::None,
            ..*self
        }
    }
}

/// The exported `abv-obs` trace of a traced run.
#[derive(Debug, Clone)]
pub struct Export {
    pub events: usize,
    pub bytes: usize,
    /// The Chrome trace JSON, kept so the caller can check it after the
    /// timed pass and then drop it.
    pub json: String,
    /// `take_events` plus `chrome_trace_json`.
    pub time: Duration,
}

impl Export {
    /// Every span that opened in the export also closed.
    pub fn balanced(&self) -> bool {
        self.json.matches("\"ph\":\"B\"").count() == self.json.matches("\"ph\":\"E\"").count()
    }
}

/// Everything one run returned, with the time of each call.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub spec: Spec,
    pub props: usize,
    pub stats: SimStats,
    pub report: CheckReport,
    pub t_props: Duration,
    pub t_build: Duration,
    pub t_tracer: Duration,
    pub t_attach: Duration,
    pub t_run: Duration,
    pub t_collect: Duration,
    /// The whole run, set-up, simulation and export included.
    pub t_total: Duration,
    pub export: Option<Export>,
}

impl Outcome {
    /// Set-up before simulation: properties, build, tracer, attach.
    pub fn setup(&self) -> Duration {
        self.t_props + self.t_build + self.t_tracer + self.t_attach
    }

    /// The run's observable behaviour: kernel counters, per-property
    /// verdicts and the number of exported trace events. Identical inputs
    /// give an identical fingerprint.
    pub fn fingerprint(&self) -> String {
        let s = &self.stats;
        let mut out = format!(
            "events={} deltas={} changes={} timestamps={}",
            s.events_processed, s.delta_cycles, s.signal_changes, s.timestamps
        );
        for p in &self.report.properties {
            let verdict = if p.failure_count == 0 { "pass" } else { "FAIL" };
            let _ = write!(
                out,
                " {}={verdict}:{}:{}:{}:{}:{}:{}",
                p.name,
                p.failure_count,
                p.timeout_fails,
                p.activations,
                p.vacuous,
                p.completions,
                p.pending
            );
        }
        if let Some(export) = &self.export {
            let _ = write!(out, " trace_events={}", export.events);
        }
        out
    }
}

/// Executes `spec` through the public calls, timing each one.
///
/// # Panics
///
/// Panics if the spec names a design/level/fault the factory cannot build
/// or a suite that does not attach: the workloads only name supported ones.
pub fn execute(spec: Spec, rec: &mut Recorder) -> Outcome {
    rec.start_run();
    let whole = rec.begin("bench.run");
    let (props, t_props) = if spec.checkers == CheckerMode::ExpectedPassing {
        rec.time("designs.passing_properties_at", || {
            spec.checkers
                .select(designs::passing_properties_at(spec.design, spec.level))
        })
    } else {
        rec.time("designs.properties_at", || {
            spec.checkers
                .select(designs::properties_at(spec.design, spec.level))
        })
    };
    let (built, t_build) = rec.time("designs.build", || {
        designs::build(spec.design, spec.level, spec.size, spec.seed, spec.fault)
    });
    let mut built = built.expect("workload names a buildable design");
    let (sink, t_tracer) = if spec.traced {
        let (sink, t) = rec.time("abv-obs.tracer", || {
            let (tracer, sink) = Tracer::memory();
            built.set_tracer(tracer);
            sink
        });
        (Some(sink), t)
    } else {
        (None, Duration::ZERO)
    };
    let (checkers, t_attach) = rec.time("abv-checker.attach_all", || {
        let binding = built.binding();
        Checker::attach_all(&mut built.sim, &props, binding)
    });
    let checkers = checkers.expect("suite attaches at its level");
    let (stats, t_run) = rec.time("designs.run", || built.run());
    let (report, t_collect) = rec.time("abv-checker.collect", || {
        Checker::collect(&mut built.sim, &checkers, built.end_ns)
    });
    let export = sink.map(|sink| {
        let ((events, json), time) = rec.time("abv-obs.export", || {
            let events = sink.borrow_mut().take_events();
            let json = abv_obs::chrome_trace_json(&events);
            (events.len(), json)
        });
        Export {
            events,
            bytes: json.len(),
            json,
            time,
        }
    });
    let t_total = rec.end(whole);
    rec.end_run();
    Outcome {
        spec,
        props: props.len(),
        stats,
        report,
        t_props,
        t_build,
        t_tracer,
        t_attach,
        t_run,
        t_collect,
        t_total,
        export,
    }
}

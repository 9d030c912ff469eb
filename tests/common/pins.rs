//! The pin contract: every pinned value is either *semantic* — what a run
//! decided — or *cost* — how much work deciding took. This module is the
//! one place that draws the line; every pin test projects what it measures
//! through it and pins each side in its own table or digest.
//!
//! - Semantic: verdicts (a property fails iff its `failure_count` is
//!   non-zero), `failure_count`, `timeout_fails`, activations, vacuous,
//!   completions, pending, `max_live_instances` (the paper's Section IV
//!   instance-array bound), signal changes, delivery-order logs, campaign
//!   report lines and every trace event that is not a counter sample.
//! - Cost: kernel events, delta cycles and timestamps, progression
//!   evaluations, `memo_hits`, `memo_misses`, `arena_nodes`, the counter
//!   tracks of a trace (`kernel`, `checker-arena`) and the numbering of
//!   its trace threads.
//!
//! A change that only makes runs cheaper or dearer moves cost pins and
//! must leave every semantic pin as it is. `scripts/golden.sh` applies the
//! same rules to the CLI outputs, with `sed` and `awk`.

use abv_checker::PropertyReport;
use desim::SimStats;

use super::fnv1a64;

/// Semantic kernel counters: `[signal changes]`.
pub type StatsSemantic = [u64; 1];
/// Kernel cost: `[events, deltas, timestamps]`.
pub type StatsCost = [u64; 3];

/// Splits kernel counters. Destructured field by field, so a field added
/// to [`SimStats`] fails to compile here until it is given a side.
pub fn split_stats(s: &SimStats) -> (StatsSemantic, StatsCost) {
    let SimStats {
        events_processed,
        delta_cycles,
        signal_changes,
        timestamps,
    } = *s;
    (
        [signal_changes],
        [events_processed, delta_cycles, timestamps],
    )
}

/// A property's semantics: `[activations, vacuous, completions,
/// failure_count, timeout_fails, pending, max_live_instances]`.
pub type PropertySemantic = [u64; 7];
/// A property's progression cost: `[evaluations, memo_hits, memo_misses,
/// arena_nodes]`.
pub type PropertyCost = [u64; 4];

/// Splits one property's counters, field by field like [`split_stats`].
/// The name keys the row; the recorded `failures` and the completion
/// `latency` histogram are not pinned per property (a campaign summary
/// pins each cell's first failure).
pub fn split_property(r: &PropertyReport) -> (PropertySemantic, PropertyCost) {
    let PropertyReport {
        name: _,
        activations,
        vacuous,
        completions,
        failure_count,
        failures: _,
        pending,
        max_live_instances,
        evaluations,
        timeout_fails,
        latency: _,
        arena_nodes,
        memo_hits,
        memo_misses,
    } = r;
    (
        [
            *activations,
            *vacuous,
            *completions,
            *failure_count,
            *timeout_fails,
            *pending,
            *max_live_instances as u64,
        ],
        [*evaluations, *memo_hits, *memo_misses, *arena_nodes as u64],
    )
}

/// A text artifact cut in two; each side is pinned by its own digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    pub semantic: String,
    pub cost: String,
}

impl Split {
    /// `(FNV-1a digest, bytes)` of the semantic and the cost side.
    pub fn digests(&self) -> [(u64, usize); 2] {
        [&self.semantic, &self.cost].map(|s| (fnv1a64(s.as_bytes()), s.len()))
    }
}

/// Separates a cell header from its kernel counters in a campaign summary.
const STATS_SEP: &str = " -- ";

/// Splits a campaign's deterministic summary. A cell header `cell N: SPEC
/// -- STATS` keeps `cell N: SPEC` on the semantic side and leaves `cell N:
/// STATS` on the cost side; every other line is semantic. The kernel
/// counters go whole, signal changes included: those are pinned as
/// semantics by the Table I pins, per cell and run.
pub fn split_summary(summary: &str) -> Split {
    let mut semantic = String::new();
    let mut cost = String::new();
    for line in summary.lines() {
        match line
            .rsplit_once(STATS_SEP)
            .filter(|_| line.starts_with("cell "))
        {
            Some((head, stats)) => {
                semantic += &format!("{head}\n");
                cost += &format!("{} {stats}\n", cell_key(head));
            }
            None => semantic += &format!("{line}\n"),
        }
    }
    Split { semantic, cost }
}

/// `cell N:` of a cell header.
fn cell_key(head: &str) -> &str {
    &head[..=head.find(':').expect("a cell header holds a colon")]
}

/// Puts a [`split_summary`] back together, byte for byte.
pub fn join_summary(split: &Split) -> String {
    let mut costs = split.cost.lines();
    let mut out = String::new();
    for line in split.semantic.lines() {
        if line.starts_with("cell ") {
            let cost = costs.next().expect("one cost line per cell header");
            let stats = cost
                .strip_prefix(cell_key(line))
                .and_then(|c| c.strip_prefix(' '))
                .expect("cost lines follow cell order");
            out += &format!("{line}{STATS_SEP}{stats}\n");
        } else {
            out += &format!("{line}\n");
        }
    }
    assert!(
        costs.next().is_none(),
        "a cost line without its cell header"
    );
    out
}

/// Splits a Chrome trace-event JSON array, one event per line. Counter
/// samples (`"ph":"C"`) go to the cost side as they are. Every other line
/// goes to the semantic side with its `tid` renumbered by order of first
/// appearance within its `pid`: a checker's raw tid is its component index
/// plus one, times 1000, plus its slot, so adding or removing a component
/// would shift every tid without any verdict moving. The cost side ends
/// with one `tids PID: RAW...` line per pid, listing raw tids by their new
/// number. The array's separators are dropped: a line's trailing comma
/// depends on which event comes last.
pub fn split_trace(json: &str) -> Split {
    let mut tids: Vec<(u64, Vec<u64>)> = Vec::new();
    let mut semantic = String::new();
    let mut cost = String::new();
    for line in json.lines() {
        let line = line.strip_suffix(',').unwrap_or(line);
        if line.contains("\"ph\":\"C\"") {
            cost += &format!("{line}\n");
            continue;
        }
        match pid_tid(line) {
            Some((pid, tid, at)) => {
                let index = tids.iter().position(|(p, _)| *p == pid).unwrap_or_else(|| {
                    tids.push((pid, Vec::new()));
                    tids.len() - 1
                });
                let seen = &mut tids[index].1;
                let new = seen.iter().position(|&t| t == tid).unwrap_or_else(|| {
                    seen.push(tid);
                    seen.len() - 1
                });
                semantic += &format!("{}{new}{}\n", &line[..at.start], &line[at.end..]);
            }
            None => semantic += &format!("{line}\n"),
        }
    }
    for (pid, raw) in &tids {
        let raw: Vec<String> = raw.iter().map(u64::to_string).collect();
        cost += &format!("tids {pid}: {}\n", raw.join(" "));
    }
    Split { semantic, cost }
}

/// The `pid` and `tid` of an event line, and the byte range of the tid's
/// digits. Strings in the JSON escape their quotes, so the first
/// `"pid":` is the field itself.
fn pid_tid(line: &str) -> Option<(u64, u64, std::ops::Range<usize>)> {
    let number = |key: &str| {
        let start = line.find(key)? + key.len();
        let len = line[start..].find(|c: char| !c.is_ascii_digit())?;
        Some((line[start..start + len].parse().ok()?, start..start + len))
    };
    let (pid, _) = number("\"pid\":")?;
    let (tid, at) = number("\"tid\":")?;
    Some((pid, tid, at))
}

/// Puts a [`split_trace`] back together as the multiset of the original's
/// event lines (trailing commas dropped), returned sorted.
pub fn join_trace(split: &Split) -> Vec<String> {
    let (counters, tid_lines): (Vec<&str>, Vec<&str>) =
        split.cost.lines().partition(|l| !l.starts_with("tids "));
    let tids: Vec<(u64, Vec<u64>)> = tid_lines
        .iter()
        .map(|l| {
            let (pid, raw) = l["tids ".len()..]
                .split_once(": ")
                .expect("tids PID: RAW...");
            let raw = raw
                .split(' ')
                .map(|t| t.parse().expect("a raw tid"))
                .collect();
            (pid.parse().expect("a pid"), raw)
        })
        .collect();
    let mut lines: Vec<String> = counters.iter().map(|l| l.to_string()).collect();
    for line in split.semantic.lines() {
        lines.push(match pid_tid(line) {
            Some((pid, new, at)) => {
                let (_, raw) = tids.iter().find(|(p, _)| *p == pid).expect("pid in tids");
                format!(
                    "{}{}{}",
                    &line[..at.start],
                    raw[new as usize],
                    &line[at.end..]
                )
            }
            None => line.to_string(),
        });
    }
    lines.sort();
    lines
}

/// The lines of a trace-event JSON array as [`join_trace`] returns them.
pub fn trace_lines(json: &str) -> Vec<String> {
    let mut lines: Vec<String> = json
        .lines()
        .map(|l| l.strip_suffix(',').unwrap_or(l).to_string())
        .collect();
    lines.sort();
    lines
}

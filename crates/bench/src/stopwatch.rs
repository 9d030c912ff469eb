//! Shared plumbing of the `harness = false` benches (criterion cannot be
//! resolved in offline builds): one environment reader, one sampling
//! loop, one statistic — the median, with the interquartile range as its
//! spread — and one JSON ledger writer, so a `value` and its `spread` mean
//! the same thing in every `BENCH_*.json`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// `key` parsed as a `usize`, or `default` when unset or unparsable.
#[must_use]
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).map_or(default, |s| s.parse().unwrap_or(default))
}

/// Per-benchmark wall-clock budget, overridable via `ABV_BENCH_BUDGET_MS`.
#[must_use]
pub fn budget() -> Duration {
    Duration::from_millis(env_usize("ABV_BENCH_BUDGET_MS", 1000) as u64)
}

/// Samples of one measured quantity (seconds, or a rate), sorted
/// ascending. Never empty.
#[derive(Debug, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sorts `values` into a sample set. Panics if `values` is empty.
    #[must_use]
    pub fn new(mut values: Vec<f64>) -> Samples {
        assert!(!values.is_empty(), "at least one sample");
        values.sort_by(f64::total_cmp);
        Samples(values)
    }

    /// Number of samples.
    #[must_use]
    pub fn n(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile: the sample at `round((n - 1) × q)`.
    fn quantile(&self, q: f64) -> f64 {
        self.0[((self.0.len() - 1) as f64 * q).round() as usize]
    }

    /// The median.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The interquartile range.
    #[must_use]
    pub fn iqr(&self) -> f64 {
        self.quantile(0.75) - self.quantile(0.25)
    }
}

/// Runs `f` once to warm up, then samples it at least 3 and at most 50
/// times within [`budget`].
pub fn sample(mut f: impl FnMut() -> f64) -> Samples {
    let _ = f();
    let (budget, started) = (budget(), Instant::now());
    let mut values = Vec::new();
    while values.len() < 3 || (started.elapsed() < budget && values.len() < 50) {
        values.push(f());
    }
    Samples::new(values)
}

/// Times `f` with [`sample`] and prints a `label: median (IQR, n)` line.
pub fn bench<R>(label: &str, mut f: impl FnMut() -> R) {
    let s = sample(|| {
        let t0 = Instant::now();
        std::hint::black_box(f());
        t0.elapsed().as_secs_f64()
    });
    let (median, iqr) = (s.median() * 1e3, s.iqr() * 1e3);
    println!(
        "  {label:<28} median {median:>10.3} ms  (IQR {iqr:.3} ms, n {})",
        s.n()
    );
}

/// Writes a bench ledger to `path`, or panics: `{bench, host: {cores},
/// <params>…, cells: [{label, metric, unit, value, spread, n}]}`, one cell
/// per line. `params` are the bench's integer settings; each of `cells` is
/// `(label, metric, unit, samples)`, with `value` the samples' median and
/// `spread` their IQR.
pub fn write_ledger(
    path: &str,
    bench: &str,
    params: &[(&str, usize)],
    cells: &[(String, &str, &str, Samples)],
) {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = format!("{{\n  \"bench\": \"{bench}\",\n  \"host\": {{\"cores\": {cores}}},\n");
    for (key, value) in params {
        let _ = writeln!(out, "  \"{key}\": {value},");
    }
    out.push_str("  \"cells\": [\n");
    for (i, (label, metric, unit, s)) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"label\": \"{label}\", \"metric\": \"{metric}\", \"unit\": \"{unit}\", \
             \"value\": {:.1}, \"spread\": {:.1}, \"n\": {}}}{sep}",
            s.median(),
            s.iqr(),
            s.n()
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).expect("write bench ledger");
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered() {
        let s = Samples::new(vec![9.0, 1.0, 2.0]);
        assert_eq!(s.n(), 3);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.median(), 2.0);
        assert_eq!(s.quantile(1.0), 9.0);
    }

    /// Nearest-rank quantiles at `round((n - 1) × q)`, half away from
    /// zero: the indexing behind `BENCH_mutation.json`'s `value` and
    /// `spread`.
    #[test]
    fn median_and_iqr_on_odd_and_even_lengths() {
        // n = 5: (n - 1) × q = 1, 2, 3.
        let odd = Samples::new(vec![50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!(odd.median(), 30.0);
        assert_eq!(odd.iqr(), 40.0 - 20.0);
        // n = 4: 0.75, 1.5, 2.25 round to ranks 1, 2, 2.
        let even = Samples::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.median(), 3.0);
        assert_eq!(even.iqr(), 3.0 - 2.0);
        // n = 6: 1.25, 2.5, 3.75 round to ranks 1, 3, 4.
        let six = Samples::new(vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
        assert_eq!(six.median(), 40.0);
        assert_eq!(six.iqr(), 50.0 - 20.0);
        let one = Samples::new(vec![7.0]);
        assert_eq!((one.median(), one.iqr()), (7.0, 0.0));
    }

    #[test]
    fn write_ledger_writes_the_shared_schema() {
        let cells = [
            (
                "workers=1".to_owned(),
                "mutants_per_sec",
                "1/s",
                Samples::new(vec![2219.46, 2100.0, 2250.0, 2400.0, 2369.3]),
            ),
            (
                "workers=2".to_owned(),
                "mutants_per_sec",
                "1/s",
                Samples::new(vec![3963.66]),
            ),
        ];
        let path = std::env::temp_dir().join(format!("abv-ledger-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        write_ledger(
            path,
            "mutation_throughput",
            &[("mutants", 22), ("runs", 66)],
            &cells,
        );
        let text = std::fs::read_to_string(path).expect("ledger written");
        let _ = std::fs::remove_file(path);
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(
            text,
            format!(
                "{{\n  \"bench\": \"mutation_throughput\",\n  \"host\": {{\"cores\": {cores}}},\n  \
                 \"mutants\": 22,\n  \"runs\": 66,\n  \"cells\": [\n    \
                 {{\"label\": \"workers=1\", \"metric\": \"mutants_per_sec\", \"unit\": \"1/s\", \
                 \"value\": 2250.0, \"spread\": 149.8, \"n\": 5}},\n    \
                 {{\"label\": \"workers=2\", \"metric\": \"mutants_per_sec\", \"unit\": \"1/s\", \
                 \"value\": 3963.7, \"spread\": 0.0, \"n\": 1}}\n  ]\n}}\n"
            )
        );
    }
}

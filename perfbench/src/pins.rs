//! Expected outputs recorded from a run of the program, for the default
//! seed and one held-out seed.
//!
//! `pins.txt` holds one line per pinned operation:
//! `<workload> TAB <seed> TAB <key> TAB <fingerprint>`. A run whose seed
//! is pinned is checked against these lines; any other seed is checked
//! against its own first pass. Regenerate with `--record-pins`.

use std::collections::BTreeMap;

/// The default seed (the mutation plan's shipped seed) and the held-out
/// seed.
pub const PINNED_SEEDS: [u64; 2] = [2015, 7];

const PINS: &str = include_str!("../pins.txt");

/// Where `--record-pins` writes.
pub const PINS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/pins.txt");

/// Pinned `key → fingerprint` of `workload` at `seed`, if pinned.
pub fn lookup(workload: &str, seed: u64) -> Option<BTreeMap<String, String>> {
    let seed = seed.to_string();
    let pins: BTreeMap<String, String> = PINS
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let mut fields = line.splitn(4, '\t');
            let (w, s, key, value) = (
                fields.next()?,
                fields.next()?,
                fields.next()?,
                fields.next()?,
            );
            (w == workload && s == seed).then(|| (key.to_owned(), value.to_owned()))
        })
        .collect();
    (!pins.is_empty()).then_some(pins)
}

/// Renders pinned lines for `workload` at `seed`.
pub fn render(workload: &str, seed: u64, checks: &[(String, String)]) -> String {
    checks
        .iter()
        .map(|(key, value)| format!("{workload}\t{seed}\t{key}\t{value}\n"))
        .collect()
}

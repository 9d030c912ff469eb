//! Table I pins: every cell of the grid (3 IPs × RTL / TLM-CA / TLM-AT ×
//! 0 / 1 / 5 / all checkers) on one small seeded workload, simulated once,
//! with what each cell decided pinned apart from what deciding cost
//! (`tests/common/pins.rs` draws the line).
//!
//! [`SEMANTIC`] holds each cell's signal changes and each property's
//! verdict counters: a change that moves one of them changed what a model
//! or a checker decides. [`COST`] holds each cell's kernel events, deltas
//! and timestamps and each property's progression work, the deterministic
//! proxy for simulation work: a change to the kernel, the checker hosts,
//! the monitor or the arena that adds or skips one event, progression
//! step, memo lookup or interned node moves it, whatever the wall clock
//! says.
//!
//! On a mismatch the failing test prints old → new for each moved cell and
//! then the whole measured table, ready to paste over the pinned one. So
//! re-recording cost on purpose is `cargo test -q --test table1_pins`,
//! pasting the printed `COST` (then `cargo fmt`), and saying why in the
//! change.

mod common;

use std::fmt::{Debug, Write as _};
use std::sync::OnceLock;

use abv_campaign::CheckerMode;
use abv_checker::{Checker, PropertyReport};
use common::pins::{self, PropertyCost, PropertySemantic, StatsCost, StatsSemantic};
use designs::{AbsLevel, DesignKind, Fault};
use desim::SimStats;

/// Requests per cell: small enough for a debug-build test.
const SIZE: usize = 24;
const SEED: u64 = 2015;

/// Table I's checker counts: without, 1, 5 and all.
const CHECKERS: [(CheckerMode, &str); 4] = [
    (CheckerMode::None, "0C"),
    (CheckerMode::First(1), "1C"),
    (CheckerMode::First(5), "5C"),
    (CheckerMode::All, "allC"),
];

/// Per cell: its label, its kernel counters and, in an all-checker cell,
/// each property's counters. A checker never changes what the design
/// does, so the properties of a 1- or 5-checker cell would repeat the
/// first rows of its all-checker cell.
type Table<S, P> = [(&'static str, S, &'static [(&'static str, P)])];

/// Per cell: `[signal changes]`; per property: `[activations, vacuous,
/// completions, failure_count, timeout_fails, pending,
/// max_live_instances]`. A property's verdict is FAIL iff its
/// `failure_count` is non-zero.
const SEMANTIC: &Table<StatsSemantic, PropertySemantic> = &[
    ("DES56/RTL/0C", [1213], &[]),
    ("DES56/RTL/1C", [1213], &[]),
    ("DES56/RTL/5C", [1213], &[]),
    (
        "DES56/RTL/allC",
        [1213],
        &[
            ("p1", [483, 480, 3, 0, 0, 0, 1]),
            ("p2", [483, 459, 24, 0, 0, 0, 1]),
            ("p3", [483, 459, 24, 0, 0, 0, 1]),
            ("p4", [483, 459, 24, 0, 0, 0, 1]),
            ("p5", [483, 475, 8, 0, 0, 0, 1]),
            ("p6", [61, 58, 3, 0, 0, 0, 1]),
            ("p7", [483, 483, 0, 0, 0, 0, 0]),
            ("p8", [483, 459, 24, 0, 0, 0, 1]),
            ("p9", [1, 0, 1, 0, 0, 0, 1]),
        ],
    ),
    ("DES56/TLM-CA/0C", [248], &[]),
    ("DES56/TLM-CA/1C", [248], &[]),
    ("DES56/TLM-CA/5C", [248], &[]),
    (
        "DES56/TLM-CA/allC",
        [248],
        &[
            ("p1", [483, 480, 3, 0, 0, 0, 1]),
            ("p2", [483, 459, 24, 0, 0, 0, 1]),
            ("p3", [483, 459, 24, 0, 0, 0, 1]),
            ("p4", [483, 459, 24, 0, 0, 0, 1]),
            ("p5", [483, 475, 8, 0, 0, 0, 1]),
            ("p6", [61, 58, 3, 0, 0, 0, 1]),
            ("p7", [483, 483, 0, 0, 0, 0, 0]),
            ("p8", [483, 459, 24, 0, 0, 0, 1]),
            ("p9", [1, 0, 1, 0, 0, 0, 1]),
        ],
    ),
    ("DES56/TLM-AT/0C", [151], &[]),
    ("DES56/TLM-AT/1C", [151], &[]),
    ("DES56/TLM-AT/5C", [151], &[]),
    (
        "DES56/TLM-AT/allC",
        [151],
        &[
            ("p1", [48, 45, 3, 0, 0, 0, 1]),
            ("p2", [48, 24, 0, 24, 0, 0, 1]),
            ("p3", [48, 24, 24, 0, 0, 0, 1]),
            ("p4", [48, 24, 24, 0, 0, 0, 1]),
            ("p5", [48, 40, 8, 0, 0, 0, 1]),
            ("p6", [6, 3, 3, 0, 0, 0, 1]),
            ("p7", [48, 48, 0, 0, 0, 0, 0]),
            ("p9", [1, 1, 0, 0, 0, 0, 0]),
        ],
    ),
    ("ColorConv/RTL/0C", [772], &[]),
    ("ColorConv/RTL/1C", [772], &[]),
    ("ColorConv/RTL/5C", [772], &[]),
    (
        "ColorConv/RTL/allC",
        [772],
        &[
            ("c1", [244, 220, 24, 0, 0, 0, 1]),
            ("c2", [244, 242, 2, 0, 0, 0, 1]),
            ("c3", [244, 243, 1, 0, 0, 0, 1]),
            ("c4", [244, 244, 0, 0, 0, 0, 0]),
            ("c5", [244, 244, 0, 0, 0, 0, 0]),
            ("c6", [244, 244, 0, 0, 0, 0, 0]),
            ("c7", [244, 244, 0, 0, 0, 0, 0]),
            ("c8", [244, 220, 24, 0, 0, 0, 1]),
            ("c9", [244, 220, 24, 0, 0, 0, 1]),
            ("c10", [244, 220, 24, 0, 0, 0, 1]),
            ("c11", [1, 0, 1, 0, 0, 0, 1]),
            ("c12", [244, 243, 1, 0, 0, 0, 1]),
        ],
    ),
    ("ColorConv/TLM-CA/0C", [285], &[]),
    ("ColorConv/TLM-CA/1C", [285], &[]),
    ("ColorConv/TLM-CA/5C", [285], &[]),
    (
        "ColorConv/TLM-CA/allC",
        [285],
        &[
            ("c1", [244, 220, 24, 0, 0, 0, 1]),
            ("c2", [244, 242, 2, 0, 0, 0, 1]),
            ("c3", [244, 243, 1, 0, 0, 0, 1]),
            ("c4", [244, 244, 0, 0, 0, 0, 0]),
            ("c5", [244, 244, 0, 0, 0, 0, 0]),
            ("c6", [244, 244, 0, 0, 0, 0, 0]),
            ("c7", [244, 244, 0, 0, 0, 0, 0]),
            ("c8", [244, 220, 24, 0, 0, 0, 1]),
            ("c9", [244, 220, 24, 0, 0, 0, 1]),
            ("c10", [244, 220, 24, 0, 0, 0, 1]),
            ("c11", [1, 0, 1, 0, 0, 0, 1]),
            ("c12", [244, 243, 1, 0, 0, 0, 1]),
        ],
    ),
    ("ColorConv/TLM-AT/0C", [236], &[]),
    ("ColorConv/TLM-AT/1C", [236], &[]),
    ("ColorConv/TLM-AT/5C", [236], &[]),
    (
        "ColorConv/TLM-AT/allC",
        [236],
        &[
            ("c1", [48, 24, 24, 0, 0, 0, 1]),
            ("c2", [48, 46, 2, 0, 0, 0, 1]),
            ("c3", [48, 47, 1, 0, 0, 0, 1]),
            ("c4", [48, 48, 0, 0, 0, 0, 0]),
            ("c5", [48, 48, 0, 0, 0, 0, 0]),
            ("c6", [48, 48, 0, 0, 0, 0, 0]),
            ("c7", [48, 48, 0, 0, 0, 0, 0]),
            ("c8", [48, 24, 24, 0, 0, 0, 1]),
            ("c9", [48, 0, 0, 48, 48, 0, 1]),
            ("c10", [48, 24, 0, 24, 24, 0, 1]),
            ("c11", [1, 1, 0, 0, 0, 0, 0]),
            ("c12", [48, 47, 1, 0, 0, 0, 1]),
        ],
    ),
    ("FIR/RTL/0C", [581], &[]),
    ("FIR/RTL/1C", [581], &[]),
    ("FIR/RTL/5C", [581], &[]),
    (
        "FIR/RTL/allC",
        [581],
        &[
            ("f1", [195, 171, 24, 0, 0, 0, 1]),
            ("f2", [195, 195, 0, 0, 0, 0, 0]),
            ("f3", [195, 171, 24, 0, 0, 0, 1]),
            ("f4", [195, 171, 24, 0, 0, 0, 1]),
            ("f5", [1, 0, 1, 0, 0, 0, 1]),
            ("f6", [195, 171, 24, 0, 0, 0, 1]),
        ],
    ),
    ("FIR/TLM-CA/0C", [192], &[]),
    ("FIR/TLM-CA/1C", [192], &[]),
    ("FIR/TLM-CA/5C", [192], &[]),
    (
        "FIR/TLM-CA/allC",
        [192],
        &[
            ("f1", [195, 171, 24, 0, 0, 0, 1]),
            ("f2", [195, 195, 0, 0, 0, 0, 0]),
            ("f3", [195, 171, 24, 0, 0, 0, 1]),
            ("f4", [195, 171, 24, 0, 0, 0, 1]),
            ("f5", [1, 0, 1, 0, 0, 0, 1]),
            ("f6", [195, 171, 24, 0, 0, 0, 1]),
        ],
    ),
    ("FIR/TLM-AT/0C", [143], &[]),
    ("FIR/TLM-AT/1C", [143], &[]),
    ("FIR/TLM-AT/5C", [143], &[]),
    (
        "FIR/TLM-AT/allC",
        [143],
        &[
            ("f1", [48, 24, 24, 0, 0, 0, 1]),
            ("f2", [48, 48, 0, 0, 0, 0, 0]),
            ("f3", [48, 24, 24, 0, 0, 0, 1]),
            ("f4", [48, 24, 0, 24, 24, 0, 1]),
            ("f5", [1, 1, 0, 0, 0, 0, 0]),
            ("f6", [48, 0, 0, 48, 48, 0, 1]),
        ],
    ),
];

/// Per cell: `[events, deltas, timestamps]`; per property: `[evaluations,
/// memo_hits, memo_misses, arena_nodes]`.
const COST: &Table<StatsCost, PropertyCost> = &[
    ("DES56/RTL/0C", [2895, 1930, 965], &[]),
    ("DES56/RTL/1C", [4343, 2413, 965], &[]),
    ("DES56/RTL/5C", [10135, 2413, 965], &[]),
    (
        "DES56/RTL/allC",
        [15927, 2413, 965],
        &[
            ("p1", [534, 34, 500, 24]),
            ("p2", [891, 406, 1253, 9]),
            ("p3", [891, 1104, 1323, 88]),
            ("p4", [891, 391, 500, 22]),
            ("p5", [619, 119, 500, 24]),
            ("p6", [112, 34, 78, 23]),
            ("p7", [483, 0, 0, 5]),
            ("p8", [507, 23, 484, 6]),
            ("p9", [2, 0, 2, 5]),
        ],
    ),
    ("DES56/TLM-CA/0C", [483, 483, 483], &[]),
    ("DES56/TLM-CA/1C", [1449, 1449, 483], &[]),
    ("DES56/TLM-CA/5C", [5313, 1449, 483], &[]),
    (
        "DES56/TLM-CA/allC",
        [9177, 1449, 483],
        &[
            ("p1", [534, 34, 500, 24]),
            ("p2", [891, 406, 1253, 9]),
            ("p3", [891, 1104, 1323, 88]),
            ("p4", [891, 391, 500, 22]),
            ("p5", [619, 119, 500, 24]),
            ("p6", [112, 34, 78, 23]),
            ("p7", [483, 0, 0, 5]),
            ("p8", [507, 23, 484, 6]),
            ("p9", [2, 0, 2, 5]),
        ],
    ),
    ("DES56/TLM-AT/0C", [48, 48, 48], &[]),
    ("DES56/TLM-AT/1C", [144, 144, 48], &[]),
    ("DES56/TLM-AT/5C", [528, 144, 48], &[]),
    (
        "DES56/TLM-AT/allC",
        [816, 144, 48],
        &[
            ("p1", [51, 0, 54, 11]),
            ("p2", [72, 0, 216, 64]),
            ("p3", [72, 0, 96, 30]),
            ("p4", [72, 0, 96, 30]),
            ("p5", [56, 0, 64, 16]),
            ("p6", [9, 0, 12, 10]),
            ("p7", [48, 0, 0, 5]),
            ("p9", [1, 0, 1, 5]),
        ],
    ),
    ("ColorConv/RTL/0C", [1461, 974, 487], &[]),
    ("ColorConv/RTL/1C", [2192, 1218, 487], &[]),
    ("ColorConv/RTL/5C", [5116, 1218, 487], &[]),
    (
        "ColorConv/RTL/allC",
        [10233, 1218, 487],
        &[
            ("c1", [436, 184, 252, 13]),
            ("c2", [260, 8, 252, 19]),
            ("c3", [252, 0, 252, 19]),
            ("c4", [244, 0, 0, 5]),
            ("c5", [244, 0, 0, 5]),
            ("c6", [244, 0, 0, 7]),
            ("c7", [244, 0, 0, 7]),
            ("c8", [436, 345, 451, 29]),
            ("c9", [268, 23, 245, 6]),
            ("c10", [268, 23, 245, 5]),
            ("c11", [2, 0, 2, 5]),
            ("c12", [252, 0, 252, 19]),
        ],
    ),
    ("ColorConv/TLM-CA/0C", [244, 244, 244], &[]),
    ("ColorConv/TLM-CA/1C", [732, 732, 244], &[]),
    ("ColorConv/TLM-CA/5C", [2684, 732, 244], &[]),
    (
        "ColorConv/TLM-CA/allC",
        [6100, 732, 244],
        &[
            ("c1", [436, 184, 252, 13]),
            ("c2", [260, 8, 252, 19]),
            ("c3", [252, 0, 252, 19]),
            ("c4", [244, 0, 0, 5]),
            ("c5", [244, 0, 0, 5]),
            ("c6", [244, 0, 0, 7]),
            ("c7", [244, 0, 0, 7]),
            ("c8", [436, 345, 451, 29]),
            ("c9", [268, 23, 245, 6]),
            ("c10", [268, 23, 245, 5]),
            ("c11", [2, 0, 2, 5]),
            ("c12", [252, 0, 252, 19]),
        ],
    ),
    ("ColorConv/TLM-AT/0C", [48, 48, 48], &[]),
    ("ColorConv/TLM-AT/1C", [144, 144, 48], &[]),
    ("ColorConv/TLM-AT/5C", [528, 144, 48], &[]),
    (
        "ColorConv/TLM-AT/allC",
        [1200, 144, 48],
        &[
            ("c1", [72, 0, 96, 30]),
            ("c2", [50, 0, 52, 14]),
            ("c3", [49, 0, 50, 13]),
            ("c4", [48, 0, 0, 5]),
            ("c5", [48, 0, 0, 5]),
            ("c6", [48, 0, 0, 7]),
            ("c7", [48, 0, 0, 7]),
            ("c8", [72, 0, 96, 30]),
            ("c9", [95, 0, 95, 52]),
            ("c10", [72, 0, 96, 29]),
            ("c11", [1, 0, 1, 5]),
            ("c12", [49, 0, 50, 13]),
        ],
    ),
    ("FIR/RTL/0C", [1167, 778, 389], &[]),
    ("FIR/RTL/1C", [1751, 973, 389], &[]),
    ("FIR/RTL/5C", [4087, 973, 389], &[]),
    (
        "FIR/RTL/allC",
        [4671, 973, 389],
        &[
            ("f1", [315, 115, 200, 10]),
            ("f2", [195, 0, 0, 5]),
            ("f3", [315, 207, 324, 20]),
            ("f4", [219, 23, 196, 5]),
            ("f5", [2, 0, 2, 5]),
            ("f6", [219, 23, 196, 6]),
        ],
    ),
    ("FIR/TLM-CA/0C", [195, 195, 195], &[]),
    ("FIR/TLM-CA/1C", [585, 585, 195], &[]),
    ("FIR/TLM-CA/5C", [2145, 585, 195], &[]),
    (
        "FIR/TLM-CA/allC",
        [2535, 585, 195],
        &[
            ("f1", [315, 115, 200, 10]),
            ("f2", [195, 0, 0, 5]),
            ("f3", [315, 207, 324, 20]),
            ("f4", [219, 23, 196, 5]),
            ("f5", [2, 0, 2, 5]),
            ("f6", [219, 23, 196, 6]),
        ],
    ),
    ("FIR/TLM-AT/0C", [48, 48, 48], &[]),
    ("FIR/TLM-AT/1C", [144, 144, 48], &[]),
    ("FIR/TLM-AT/5C", [528, 144, 48], &[]),
    (
        "FIR/TLM-AT/allC",
        [624, 144, 48],
        &[
            ("f1", [72, 0, 96, 30]),
            ("f2", [48, 0, 0, 5]),
            ("f3", [72, 0, 96, 30]),
            ("f4", [72, 0, 96, 29]),
            ("f5", [1, 0, 1, 5]),
            ("f6", [95, 0, 95, 52]),
        ],
    ),
];

/// One simulated cell.
struct Cell {
    label: String,
    stats: SimStats,
    properties: Vec<PropertyReport>,
}

/// The grid in Table I order, simulated once per test binary.
fn grid() -> &'static [Cell] {
    static GRID: OnceLock<Vec<Cell>> = OnceLock::new();
    GRID.get_or_init(|| {
        let mut cells = Vec::new();
        for design in DesignKind::ALL {
            for level in AbsLevel::ALL {
                for (mode, label) in CHECKERS {
                    cells.push(run_cell(design, level, mode, label));
                }
            }
        }
        cells
    })
}

fn run_cell(design: DesignKind, level: AbsLevel, checkers: CheckerMode, label: &str) -> Cell {
    let props = checkers.select(designs::properties_at(design, level));
    let mut built =
        designs::build(design, level, SIZE, SEED, Fault::None).expect("Table I cells build");
    let binding = built.binding();
    let attached =
        Checker::attach_all(&mut built.sim, &props, binding).expect("suite attaches at its level");
    let stats = built.run();
    let properties = if checkers == CheckerMode::All {
        Checker::collect(&mut built.sim, &attached, built.end_ns).properties
    } else {
        Vec::new()
    };
    Cell {
        label: format!("{}/{}/{label}", design.label(), level.label()),
        stats,
        properties,
    }
}

/// One row of a table, owned.
type Row<S, P> = (String, S, Vec<(String, P)>);

/// Projects every cell of the grid through `stats` and `property`.
fn measure<S, P>(
    stats: impl Fn(&SimStats) -> S,
    property: impl Fn(&PropertyReport) -> P,
) -> Vec<Row<S, P>> {
    grid()
        .iter()
        .map(|c| {
            let props = c.properties.iter().map(|r| (r.name.clone(), property(r)));
            (c.label.clone(), stats(&c.stats), props.collect())
        })
        .collect()
}

/// Asserts `measured` equals `pinned`; otherwise fails with old → new per
/// moved cell and the measured table, ready to paste as `name`.
fn assert_pinned<S, P>(name: &str, pinned: &Table<S, P>, measured: &[Row<S, P>])
where
    S: Copy + Debug + PartialEq,
    P: Copy + Debug + PartialEq,
{
    let pinned: Vec<Row<S, P>> = pinned
        .iter()
        .map(|&(cell, s, props)| {
            let props = props.iter().map(|&(n, p)| (n.to_owned(), p));
            (cell.to_owned(), s, props.collect())
        })
        .collect();
    let mut moved = String::new();
    for i in 0..pinned.len().max(measured.len()) {
        let (old, new) = (pinned.get(i), measured.get(i));
        if old != new {
            moved += &moves(old, new);
        }
    }
    let table: String = measured.iter().map(render).collect();
    assert!(
        moved.is_empty(),
        "{name} moved (old → new):\n{moved}\nmeasured, to paste as `{name}`:\n&[\n{table}]"
    );
}

/// `cell: old → new`, then `  property: old → new` for each moved
/// property; `-` stands for a missing row.
fn moves<S: Debug + PartialEq, P: Debug + PartialEq>(
    old: Option<&Row<S, P>>,
    new: Option<&Row<S, P>>,
) -> String {
    let cell = |r: Option<&Row<S, P>>| r.map_or("-".to_owned(), |r| format!("{}: {:?}", r.0, r.1));
    let mut out = format!("{} → {}\n", cell(old), cell(new));
    let (old_props, new_props) = (old.map_or(&[][..], |r| &r.2), new.map_or(&[][..], |r| &r.2));
    for j in 0..old_props.len().max(new_props.len()) {
        let (o, n) = (old_props.get(j), new_props.get(j));
        if o != n {
            let show =
                |p: Option<&(String, P)>| p.map_or("-".to_owned(), |(n, p)| format!("{n} {p:?}"));
            let _ = writeln!(out, "  {} → {}", show(o), show(n));
        }
    }
    out
}

/// One row in the tables' layout.
fn render<S: Debug, P: Debug>((cell, stats, props): &Row<S, P>) -> String {
    if props.is_empty() {
        return format!("    (\"{cell}\", {stats:?}, &[]),\n");
    }
    let rows: String = props
        .iter()
        .map(|(name, p)| format!("            (\"{name}\", {p:?}),\n"))
        .collect();
    format!(
        "    (\n        \"{cell}\",\n        {stats:?},\n        &[\n{rows}        ],\n    ),\n"
    )
}

#[test]
fn table1_semantics_are_pinned() {
    let measured = measure(|s| pins::split_stats(s).0, |r| pins::split_property(r).0);
    assert_pinned("SEMANTIC", SEMANTIC, &measured);
}

#[test]
fn table1_cost_is_pinned() {
    let measured = measure(|s| pins::split_stats(s).1, |r| pins::split_property(r).1);
    assert_pinned("COST", COST, &measured);
}

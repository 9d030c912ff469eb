//! Progression-work pins for the Table I grid: the exact per-property
//! checker counters of every all-checker cell (3 IPs × RTL / TLM-CA /
//! TLM-AT) on one small seeded workload.
//!
//! These counters are the deterministic proxy for formula progression
//! work, as `tests/kernel_activity_pins.rs` is for kernel dispatch: a
//! change to the monitor, the arena or the checker hosts that adds or
//! skips one activation, progression step, memo lookup or interned node
//! fails here, whatever the wall clock says. Fast paths in the monitor
//! must leave every number below unchanged. A change that moves them on
//! purpose re-records the table and says why.

use abv_checker::{Checker, PropertyReport};
use designs::{AbsLevel, DesignKind, Fault};

/// Requests per cell: the same workload as the kernel-activity pins.
const SIZE: usize = 24;
const SEED: u64 = 2015;

/// Per property: `[activations, vacuous, evaluations, completions,
/// memo_hits, memo_misses, arena_nodes, max_live_instances]`.
type Counters = [u64; 8];

const PINS: &[(&str, &[(&str, Counters)])] = &[
    (
        "DES56/RTL/allC",
        &[
            ("p1", [483, 480, 534, 3, 34, 500, 24, 1]),
            ("p2", [483, 459, 891, 24, 406, 1253, 9, 1]),
            ("p3", [483, 459, 891, 24, 1104, 1323, 88, 1]),
            ("p4", [483, 459, 891, 24, 391, 500, 22, 1]),
            ("p5", [483, 475, 619, 8, 119, 500, 24, 1]),
            ("p6", [61, 58, 112, 3, 34, 78, 23, 1]),
            ("p7", [483, 483, 483, 0, 0, 0, 5, 0]),
            ("p8", [483, 459, 507, 24, 23, 484, 6, 1]),
            ("p9", [1, 0, 2, 1, 0, 2, 5, 1]),
        ],
    ),
    (
        "DES56/TLM-CA/allC",
        &[
            ("p1", [483, 480, 534, 3, 34, 500, 24, 1]),
            ("p2", [483, 459, 891, 24, 406, 1253, 9, 1]),
            ("p3", [483, 459, 891, 24, 1104, 1323, 88, 1]),
            ("p4", [483, 459, 891, 24, 391, 500, 22, 1]),
            ("p5", [483, 475, 619, 8, 119, 500, 24, 1]),
            ("p6", [61, 58, 112, 3, 34, 78, 23, 1]),
            ("p7", [483, 483, 483, 0, 0, 0, 5, 0]),
            ("p8", [483, 459, 507, 24, 23, 484, 6, 1]),
            ("p9", [1, 0, 2, 1, 0, 2, 5, 1]),
        ],
    ),
    (
        "DES56/TLM-AT/allC",
        &[
            ("p1", [48, 45, 51, 3, 0, 54, 11, 1]),
            ("p2", [48, 24, 72, 0, 0, 216, 64, 1]),
            ("p3", [48, 24, 72, 24, 0, 96, 30, 1]),
            ("p4", [48, 24, 72, 24, 0, 96, 30, 1]),
            ("p5", [48, 40, 56, 8, 0, 64, 16, 1]),
            ("p6", [6, 3, 9, 3, 0, 12, 10, 1]),
            ("p7", [48, 48, 48, 0, 0, 0, 5, 0]),
            ("p9", [1, 1, 1, 0, 0, 1, 5, 0]),
        ],
    ),
    (
        "ColorConv/RTL/allC",
        &[
            ("c1", [244, 220, 436, 24, 184, 252, 13, 1]),
            ("c2", [244, 242, 260, 2, 8, 252, 19, 1]),
            ("c3", [244, 243, 252, 1, 0, 252, 19, 1]),
            ("c4", [244, 244, 244, 0, 0, 0, 5, 0]),
            ("c5", [244, 244, 244, 0, 0, 0, 5, 0]),
            ("c6", [244, 244, 244, 0, 0, 0, 7, 0]),
            ("c7", [244, 244, 244, 0, 0, 0, 7, 0]),
            ("c8", [244, 220, 436, 24, 345, 451, 29, 1]),
            ("c9", [244, 220, 268, 24, 23, 245, 6, 1]),
            ("c10", [244, 220, 268, 24, 23, 245, 5, 1]),
            ("c11", [1, 0, 2, 1, 0, 2, 5, 1]),
            ("c12", [244, 243, 252, 1, 0, 252, 19, 1]),
        ],
    ),
    (
        "ColorConv/TLM-CA/allC",
        &[
            ("c1", [244, 220, 436, 24, 184, 252, 13, 1]),
            ("c2", [244, 242, 260, 2, 8, 252, 19, 1]),
            ("c3", [244, 243, 252, 1, 0, 252, 19, 1]),
            ("c4", [244, 244, 244, 0, 0, 0, 5, 0]),
            ("c5", [244, 244, 244, 0, 0, 0, 5, 0]),
            ("c6", [244, 244, 244, 0, 0, 0, 7, 0]),
            ("c7", [244, 244, 244, 0, 0, 0, 7, 0]),
            ("c8", [244, 220, 436, 24, 345, 451, 29, 1]),
            ("c9", [244, 220, 268, 24, 23, 245, 6, 1]),
            ("c10", [244, 220, 268, 24, 23, 245, 5, 1]),
            ("c11", [1, 0, 2, 1, 0, 2, 5, 1]),
            ("c12", [244, 243, 252, 1, 0, 252, 19, 1]),
        ],
    ),
    (
        "ColorConv/TLM-AT/allC",
        &[
            ("c1", [48, 24, 72, 24, 0, 96, 30, 1]),
            ("c2", [48, 46, 50, 2, 0, 52, 14, 1]),
            ("c3", [48, 47, 49, 1, 0, 50, 13, 1]),
            ("c4", [48, 48, 48, 0, 0, 0, 5, 0]),
            ("c5", [48, 48, 48, 0, 0, 0, 5, 0]),
            ("c6", [48, 48, 48, 0, 0, 0, 7, 0]),
            ("c7", [48, 48, 48, 0, 0, 0, 7, 0]),
            ("c8", [48, 24, 72, 24, 0, 96, 30, 1]),
            ("c9", [48, 0, 95, 0, 0, 95, 52, 1]),
            ("c10", [48, 24, 72, 0, 0, 96, 29, 1]),
            ("c11", [1, 1, 1, 0, 0, 1, 5, 0]),
            ("c12", [48, 47, 49, 1, 0, 50, 13, 1]),
        ],
    ),
    (
        "FIR/RTL/allC",
        &[
            ("f1", [195, 171, 315, 24, 115, 200, 10, 1]),
            ("f2", [195, 195, 195, 0, 0, 0, 5, 0]),
            ("f3", [195, 171, 315, 24, 207, 324, 20, 1]),
            ("f4", [195, 171, 219, 24, 23, 196, 5, 1]),
            ("f5", [1, 0, 2, 1, 0, 2, 5, 1]),
            ("f6", [195, 171, 219, 24, 23, 196, 6, 1]),
        ],
    ),
    (
        "FIR/TLM-CA/allC",
        &[
            ("f1", [195, 171, 315, 24, 115, 200, 10, 1]),
            ("f2", [195, 195, 195, 0, 0, 0, 5, 0]),
            ("f3", [195, 171, 315, 24, 207, 324, 20, 1]),
            ("f4", [195, 171, 219, 24, 23, 196, 5, 1]),
            ("f5", [1, 0, 2, 1, 0, 2, 5, 1]),
            ("f6", [195, 171, 219, 24, 23, 196, 6, 1]),
        ],
    ),
    (
        "FIR/TLM-AT/allC",
        &[
            ("f1", [48, 24, 72, 24, 0, 96, 30, 1]),
            ("f2", [48, 48, 48, 0, 0, 0, 5, 0]),
            ("f3", [48, 24, 72, 24, 0, 96, 30, 1]),
            ("f4", [48, 24, 72, 0, 0, 96, 29, 1]),
            ("f5", [1, 1, 1, 0, 0, 1, 5, 0]),
            ("f6", [48, 0, 95, 0, 0, 95, 52, 1]),
        ],
    ),
];

fn counters(r: &PropertyReport) -> Counters {
    [
        r.activations,
        r.vacuous,
        r.evaluations,
        r.completions,
        r.memo_hits,
        r.memo_misses,
        r.arena_nodes as u64,
        r.max_live_instances as u64,
    ]
}

fn run_cell(design: DesignKind, level: AbsLevel) -> Vec<(String, Counters)> {
    let props = designs::properties_at(design, level);
    let mut built =
        designs::build(design, level, SIZE, SEED, Fault::None).expect("Table I cells build");
    let binding = built.binding();
    let checkers =
        Checker::attach_all(&mut built.sim, &props, binding).expect("suite attaches at its level");
    built.run();
    let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
    report
        .properties
        .iter()
        .map(|r| (r.name.clone(), counters(r)))
        .collect()
}

#[test]
fn table1_progression_work_is_pinned() {
    let mut measured = Vec::new();
    for design in DesignKind::ALL {
        for level in AbsLevel::ALL {
            let cell = format!("{}/{}/allC", design.label(), level.label());
            measured.push((cell, run_cell(design, level)));
        }
    }
    let rendered: String = measured
        .iter()
        .map(|(cell, props)| {
            let rows: String = props
                .iter()
                .map(|(name, c)| format!("        (\"{name}\", {c:?}),\n"))
                .collect();
            format!("    (\n        \"{cell}\",\n        &[\n{rows}        ],\n    ),\n")
        })
        .collect();
    assert_eq!(
        measured.len(),
        PINS.len(),
        "grid size changed; measured:\n{rendered}"
    );
    for ((cell, got), (pinned_cell, pinned)) in measured.iter().zip(PINS) {
        assert_eq!(cell, pinned_cell, "grid order changed");
        assert_eq!(got.len(), pinned.len(), "{cell}: suite size changed");
        for ((name, c), (pinned_name, pinned_c)) in got.iter().zip(pinned.iter()) {
            assert_eq!(name, pinned_name, "{cell}: suite order changed");
            assert_eq!(c, pinned_c, "{cell}/{name}: progression work moved");
        }
    }
}

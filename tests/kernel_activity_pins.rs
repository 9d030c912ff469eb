//! Kernel activity pins for the Table I grid: the exact [`SimStats`] of
//! every cell (3 IPs × RTL / TLM-CA / TLM-AT × 0 / 1 / 5 / all checkers) on
//! one small seeded workload.
//!
//! Kernel counters are a deterministic proxy for simulation work: a change
//! to the scheduler, the checker hosts or a model that moves a single
//! event, delta cycle, signal commit or timestamp fails here, whatever the
//! wall clock says. A change that moves them on purpose re-records the
//! table below and says why.

use abv_campaign::CheckerMode;
use abv_checker::Checker;
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

/// `(cell, [events, deltas, signal changes, timestamps])`.
const PINS: [(&str, [u64; 4]); 36] = [
    ("DES56/RTL/0C", [2895, 1930, 1213, 965]),
    ("DES56/RTL/1C", [4343, 2413, 1213, 965]),
    ("DES56/RTL/5C", [10135, 2413, 1213, 965]),
    ("DES56/RTL/allC", [15927, 2413, 1213, 965]),
    ("DES56/TLM-CA/0C", [483, 483, 248, 483]),
    ("DES56/TLM-CA/1C", [1449, 1449, 248, 483]),
    ("DES56/TLM-CA/5C", [5313, 1449, 248, 483]),
    ("DES56/TLM-CA/allC", [9177, 1449, 248, 483]),
    ("DES56/TLM-AT/0C", [48, 48, 151, 48]),
    ("DES56/TLM-AT/1C", [144, 144, 151, 48]),
    ("DES56/TLM-AT/5C", [528, 144, 151, 48]),
    ("DES56/TLM-AT/allC", [816, 144, 151, 48]),
    ("ColorConv/RTL/0C", [1461, 974, 772, 487]),
    ("ColorConv/RTL/1C", [2192, 1218, 772, 487]),
    ("ColorConv/RTL/5C", [5116, 1218, 772, 487]),
    ("ColorConv/RTL/allC", [10233, 1218, 772, 487]),
    ("ColorConv/TLM-CA/0C", [244, 244, 285, 244]),
    ("ColorConv/TLM-CA/1C", [732, 732, 285, 244]),
    ("ColorConv/TLM-CA/5C", [2684, 732, 285, 244]),
    ("ColorConv/TLM-CA/allC", [6100, 732, 285, 244]),
    ("ColorConv/TLM-AT/0C", [48, 48, 236, 48]),
    ("ColorConv/TLM-AT/1C", [144, 144, 236, 48]),
    ("ColorConv/TLM-AT/5C", [528, 144, 236, 48]),
    ("ColorConv/TLM-AT/allC", [1200, 144, 236, 48]),
    ("FIR/RTL/0C", [1167, 778, 581, 389]),
    ("FIR/RTL/1C", [1751, 973, 581, 389]),
    ("FIR/RTL/5C", [4087, 973, 581, 389]),
    ("FIR/RTL/allC", [4671, 973, 581, 389]),
    ("FIR/TLM-CA/0C", [195, 195, 192, 195]),
    ("FIR/TLM-CA/1C", [585, 585, 192, 195]),
    ("FIR/TLM-CA/5C", [2145, 585, 192, 195]),
    ("FIR/TLM-CA/allC", [2535, 585, 192, 195]),
    ("FIR/TLM-AT/0C", [48, 48, 143, 48]),
    ("FIR/TLM-AT/1C", [144, 144, 143, 48]),
    ("FIR/TLM-AT/5C", [528, 144, 143, 48]),
    ("FIR/TLM-AT/allC", [624, 144, 143, 48]),
];

fn run_cell(design: DesignKind, level: AbsLevel, checkers: CheckerMode) -> SimStats {
    let props = checkers.select(designs::properties_at(design, level));
    let mut built =
        designs::build(design, level, SIZE, SEED, Fault::None).expect("Table I cells build");
    let binding = built.binding();
    Checker::attach_all(&mut built.sim, &props, binding).expect("suite attaches at its level");
    built.run()
}

#[test]
fn table1_kernel_activity_is_pinned() {
    let mut measured = Vec::new();
    for design in DesignKind::ALL {
        for level in AbsLevel::ALL {
            for (mode, label) in CHECKERS {
                let s = run_cell(design, level, mode);
                let cell = format!("{}/{}/{label}", design.label(), level.label());
                measured.push((
                    cell,
                    [
                        s.events_processed,
                        s.delta_cycles,
                        s.signal_changes,
                        s.timestamps,
                    ],
                ));
            }
        }
    }
    assert_eq!(measured.len(), PINS.len());
    for ((cell, got), (pinned_cell, pinned)) in measured.iter().zip(PINS) {
        assert_eq!(cell, pinned_cell, "grid order changed");
        assert_eq!(got, &pinned, "{cell}: kernel activity moved");
    }
}

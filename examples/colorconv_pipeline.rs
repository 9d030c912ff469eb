//! ColorConv flow: stream pixels through the 8-stage RTL pipeline and the
//! TLM-AT model, checking the studio-range and latency properties at both
//! levels, and show the signal-abstraction classifications.
//!
//! ```text
//! cargo run --example colorconv_pipeline
//! ```

use abv_checker::{CheckReport, Checker};
use abv_core::{abstract_property, AbstractionConfig};
use designs::colorconv::{self, ConvWorkload};
use designs::{BuiltDesign, Fault, PropertyClass, CLOCK_PERIOD_NS};
use psl::ClockedProperty;

/// Attaches `props` through the design's own binding (clock at RTL, bus
/// at TLM), runs it to its end and returns the report.
fn verify(
    mut built: BuiltDesign,
    props: &[(String, ClockedProperty)],
) -> Result<CheckReport, Box<dyn std::error::Error>> {
    let binding = built.binding();
    let checkers = Checker::attach_all(&mut built.sim, props, binding)
        .map_err(|(i, e)| format!("property {i}: {e}"))?;
    built.run();
    Ok(Checker::collect(&mut built.sim, &checkers, built.end_ns))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = ConvWorkload::mixed(24, 601);
    let suite = colorconv::suite();

    println!("== RTL verification (12 properties) ==");
    let named: Vec<(String, ClockedProperty)> =
        suite.iter().map(designs::SuiteEntry::named).collect();
    let report = verify(colorconv::build_rtl(&workload, Fault::None)?, &named)?;
    print!("{report}");
    assert!(report.all_pass());

    println!("\n== Abstraction classifications ==");
    let cfg = AbstractionConfig::new(CLOCK_PERIOD_NS)?
        .abstract_signals(colorconv::ABSTRACTED_SIGNALS.iter().copied());
    let mut at_props: Vec<(String, ClockedProperty)> = Vec::new();
    for entry in &suite {
        let a = abstract_property(&entry.rtl, &cfg)?;
        println!(
            "{:>3}: {:<28} {}",
            entry.name,
            format!("[{:?}]", entry.class),
            a.result()
                .map_or("(deleted)".to_owned(), ToString::to_string)
        );
        if let (Some(q), PropertyClass::AtCompatible) = (a.result(), entry.class) {
            at_props.push((entry.name.to_owned(), q.clone()));
        }
    }

    println!(
        "\n== TLM-AT verification ({} AT-compatible properties) ==",
        at_props.len()
    );
    let tlm = colorconv::build_tlm_at(&workload, Fault::None, false)?;
    let report = verify(tlm, &at_props)?;
    print!("{report}");
    assert!(report.all_pass());

    println!("\n== TLM-AT with corrupted luma (injected bug) ==");
    let buggy = colorconv::build_tlm_at(&workload, Fault::CorruptData, false)?;
    let report = verify(buggy, &at_props)?;
    let failing: Vec<&str> = report
        .properties
        .iter()
        .filter(|p| p.failure_count > 0)
        .map(|p| p.name.as_str())
        .collect();
    println!("caught by: {}", failing.join(", "));
    assert!(!failing.is_empty());
    Ok(())
}

//! ColorConv flow: stream pixels through the 8-stage RTL pipeline and the
//! TLM-AT model, checking the studio-range and latency properties at both
//! levels, and show the signal-abstraction classifications.
//!
//! ```text
//! cargo run --example colorconv_pipeline
//! ```

use abv_checker::{Binding, Checker};
use abv_core::{abstract_property, AbstractionConfig};
use designs::colorconv::{self, ConvMutation, ConvWorkload};
use designs::{PropertyClass, CLOCK_PERIOD_NS};
use psl::ClockedProperty;
use tlmkit::CodingStyle;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = ConvWorkload::mixed(24, 601);
    let suite = colorconv::suite();

    println!("== RTL verification (12 properties) ==");
    let mut rtl = colorconv::build_rtl(&workload, ConvMutation::None);
    let named: Vec<(String, ClockedProperty)> =
        suite.iter().map(designs::SuiteEntry::named).collect();
    let checkers = Checker::attach_all(&mut rtl.sim, &named, Binding::clock(rtl.clk.signal))
        .map_err(|(i, e)| format!("property {i}: {e}"))?;
    rtl.run();
    let report = Checker::collect(&mut rtl.sim, &checkers, rtl.end_ns);
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
    let mut tlm = colorconv::build_tlm_at(
        &workload,
        ConvMutation::None,
        CodingStyle::ApproximatelyTimedLoose,
    );
    let checkers = Checker::attach_all(&mut tlm.sim, &at_props, Binding::bus(&tlm.bus))
        .map_err(|(i, e)| format!("property {i}: {e}"))?;
    tlm.run();
    let report = Checker::collect(&mut tlm.sim, &checkers, tlm.end_ns);
    print!("{report}");
    assert!(report.all_pass());

    println!("\n== TLM-AT with corrupted luma (injected bug) ==");
    let mut buggy = colorconv::build_tlm_at(
        &workload,
        ConvMutation::CorruptLuma,
        CodingStyle::ApproximatelyTimedLoose,
    );
    let checkers = Checker::attach_all(&mut buggy.sim, &at_props, Binding::bus(&buggy.bus))
        .map_err(|(i, e)| format!("property {i}: {e}"))?;
    buggy.run();
    let report = Checker::collect(&mut buggy.sim, &checkers, buggy.end_ns);
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

//! Full DES56 flow: verify the RTL model with the RTL suite, abstract the
//! suite, verify the TLM-AT model with the abstracted suite, then inject a
//! latency bug into the TLM model and watch the abstracted checkers catch
//! it.
//!
//! ```text
//! cargo run --example des56_verification
//! ```

use abv_checker::{Binding, Checker};
use abv_core::{abstract_suite, AbstractionConfig};
use designs::des56::{self, DesMutation, DesWorkload};
use designs::CLOCK_PERIOD_NS;
use psl::ClockedProperty;
use tlmkit::CodingStyle;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = DesWorkload::mixed(16, 2026);
    let suite = des56::suite();

    // 1. Dynamic ABV of the RTL model with the original properties.
    println!("== RTL verification (9 properties) ==");
    let mut rtl = des56::build_rtl(&workload, DesMutation::None);
    let named: Vec<(String, ClockedProperty)> =
        suite.iter().map(designs::SuiteEntry::named).collect();
    let checkers = Checker::attach_all(&mut rtl.sim, &named, Binding::clock(rtl.clk.signal))
        .map_err(|(i, e)| format!("property {i}: {e}"))?;
    rtl.run();
    let report = Checker::collect(&mut rtl.sim, &checkers, rtl.end_ns);
    print!("{report}");

    // 2. Abstract the suite for the TLM-AT model.
    println!("\n== Property abstraction ==");
    let cfg = AbstractionConfig::new(CLOCK_PERIOD_NS)?
        .abstract_signals(des56::ABSTRACTED_SIGNALS.iter().copied());
    let rtl_props: Vec<ClockedProperty> = suite.iter().map(|e| e.rtl.clone()).collect();
    let abstractions =
        abstract_suite(&rtl_props, &cfg).map_err(|(i, e)| format!("property {i}: {e}"))?;
    let mut tlm_props: Vec<(String, ClockedProperty)> = Vec::new();
    for (entry, abstraction) in suite.iter().zip(&abstractions) {
        println!("{}: {abstraction}", entry.name);
        if let Some(q) = abstraction.result() {
            // Skip properties whose abstraction references instants the
            // loose AT model never produces (see DESIGN.md §5b).
            if entry.class != designs::PropertyClass::CaOnly {
                tlm_props.push((entry.name.to_owned(), q.clone()));
            }
        }
    }

    // 3. Dynamic ABV of the correct TLM-AT model.
    println!("\n== TLM-AT verification (abstracted properties) ==");
    let mut tlm = des56::build_tlm_at(
        &workload,
        DesMutation::None,
        CodingStyle::ApproximatelyTimedLoose,
    );
    let checkers = Checker::attach_all(&mut tlm.sim, &tlm_props, Binding::bus(&tlm.bus))
        .map_err(|(i, e)| format!("property {i}: {e}"))?;
    tlm.run();
    let report = Checker::collect(&mut tlm.sim, &checkers, tlm.end_ns);
    print!("{report}");
    assert!(report.all_pass(), "the correct TLM model must pass");

    // 4. Inject a bug: the TLM model completes one cycle late.
    println!("\n== TLM-AT verification of a buggy abstraction (latency 18) ==");
    let mut buggy = des56::build_tlm_at(
        &workload,
        DesMutation::LatencyLong,
        CodingStyle::ApproximatelyTimedLoose,
    );
    let checkers = Checker::attach_all(&mut buggy.sim, &tlm_props, Binding::bus(&buggy.bus))
        .map_err(|(i, e)| format!("property {i}: {e}"))?;
    buggy.run();
    let report = Checker::collect(&mut buggy.sim, &checkers, buggy.end_ns);
    print!("{report}");
    let failing: Vec<&str> = report
        .properties
        .iter()
        .filter(|p| p.failure_count > 0)
        .map(|p| p.name.as_str())
        .collect();
    println!("\ncaught by: {}", failing.join(", "));
    assert!(!failing.is_empty(), "the latency bug must be caught");
    Ok(())
}

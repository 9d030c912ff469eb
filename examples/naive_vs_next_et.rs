//! Section III-A ablation as a runnable demo: naive `next[n] → next[m]`
//! transaction-count rescaling versus the paper's `next_ε^τ` operator,
//! side by side on the loose and strict TLM-AT models.
//!
//! ```text
//! cargo run --example naive_vs_next_et
//! ```

use abv_checker::{Binding, Checker};
use abv_core::{abstract_property, naive::naive_scale, AbstractionConfig};
use designs::des56::{self, DesMutation, DesWorkload};
use designs::CLOCK_PERIOD_NS;
use psl::{ClockedProperty, EvalContext};
use tlmkit::CodingStyle;

fn check(name: &str, property: &ClockedProperty, style: CodingStyle) -> String {
    let workload = DesWorkload::mixed(10, 77);
    let mut built = des56::build_tlm_at(&workload, DesMutation::None, style);
    let checkers = Checker::attach_all(
        &mut built.sim,
        &[(name.to_owned(), property.clone())],
        Binding::bus(&built.bus),
    )
    .expect("installs");
    built.run();
    let report = Checker::collect(&mut built.sim, &checkers, built.end_ns);
    let p = &report.properties[0];
    if p.failure_count == 0 {
        format!("PASS ({} completions)", p.completions)
    } else {
        format!(
            "FAIL ({} failures, first: {})",
            p.failure_count, p.failures[0]
        )
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let suite = des56::suite();
    let p4 = &suite.iter().find(|e| e.name == "p4").expect("p4").rtl;
    println!("RTL property p4: {p4}\n");

    // Naive: "one transaction covers the 17 cycles".
    let pushed = psl::push_ahead::push_ahead(&psl::nnf::to_nnf(&p4.property))?;
    let naive = ClockedProperty::new(naive_scale(&pushed, 17)?, EvalContext::tb());
    println!("naive rescaling : {naive}");

    // The methodology's abstraction.
    let cfg = AbstractionConfig::new(CLOCK_PERIOD_NS)?;
    let q4 = abstract_property(p4, &cfg)?.into_property().expect("kept");
    println!("next_et         : {q4}\n");

    for style in [
        CodingStyle::ApproximatelyTimedLoose,
        CodingStyle::ApproximatelyTimedStrict,
    ] {
        println!(
            "{style} (transactions per block: {}):",
            if style == CodingStyle::ApproximatelyTimedLoose {
                2
            } else {
                4
            }
        );
        println!("  naive   : {}", check("naive", &naive, style));
        println!("  next_et : {}", check("q4", &q4, style));
        println!();
    }
    println!(
        "The extra strobe-release transaction of the strict model becomes an\n\
         unexpected evaluation point: `next[1]` now lands 10ns after the\n\
         write instead of at the read — the inopportune failure the paper\n\
         uses to motivate next_e^t (Section III-A)."
    );
    Ok(())
}

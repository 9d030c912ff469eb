//! The formula arena stays bounded at TLM-AT: every `next_ε^τ`
//! activation anchors a fresh `at[deadline]` obligation, and compaction
//! must drop the resolved ones so the all-checker arena size does not
//! grow with the run length.

use abv_checker::{CheckReport, Checker};
use designs::{AbsLevel, DesignKind, Fault};

/// The TLM-AT all-checker report of `design` after `requests` requests.
fn tlm_at_report(design: DesignKind, requests: usize) -> CheckReport {
    let props = designs::properties_at(design, AbsLevel::TlmAt);
    let mut built = designs::build(design, AbsLevel::TlmAt, requests, 2015, Fault::None)
        .expect("TLM-AT builds");
    let binding = built.binding();
    let checkers = Checker::attach_all(&mut built.sim, &props, binding).expect("suite attaches");
    built.run();
    Checker::collect(&mut built.sim, &checkers, built.end_ns)
}

/// Sum of the per-property arena high-water marks.
fn arena_nodes(report: &CheckReport) -> usize {
    report.properties.iter().map(|p| p.arena_nodes).sum()
}

#[test]
fn tlm_at_arena_is_bounded_independent_of_run_length() {
    for design in DesignKind::ALL {
        let short = tlm_at_report(design, 500);
        let long = tlm_at_report(design, 2000);
        let (short_nodes, long_nodes) = (arena_nodes(&short), arena_nodes(&long));
        assert!(
            short_nodes <= 1024,
            "{design:?} at 500 requests: {short_nodes} arena nodes"
        );
        assert!(
            long_nodes <= 1024,
            "{design:?} at 2000 requests: {long_nodes} arena nodes"
        );
    }
}

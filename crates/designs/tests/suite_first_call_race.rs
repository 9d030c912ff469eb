//! Two threads racing on the first suite call of the process get equal
//! suites. The binary holds this one test, so nothing else in the process
//! has derived a suite before the race starts.

use std::sync::Barrier;
use std::thread;

use designs::{passing_properties_at, properties_at, AbsLevel, DesignKind};

/// Every suite the factory serves, rendered, in a fixed order.
fn every_suite() -> Vec<String> {
    let mut out = Vec::new();
    for design in DesignKind::ALL {
        for level in AbsLevel::ALL.into_iter().chain([AbsLevel::TlmAtBulk]) {
            for (name, p) in properties_at(design, level) {
                out.push(format!("{} {} {name}: {p}", design.label(), level.label()));
            }
            for (name, p) in passing_properties_at(design, level) {
                out.push(format!(
                    "{} {} passing {name}: {p}",
                    design.label(),
                    level.label()
                ));
            }
        }
    }
    out
}

#[test]
fn threads_racing_on_the_first_call_get_equal_suites() {
    let start = Barrier::new(2);
    let (a, b) = thread::scope(|scope| {
        let racer = || {
            start.wait();
            every_suite()
        };
        let a = scope.spawn(racer);
        let b = scope.spawn(racer);
        (a.join().expect("no panic"), b.join().expect("no panic"))
    });
    assert!(!a.is_empty());
    assert_eq!(a, b);
    assert_eq!(a, every_suite(), "a warm call serves the same suites");
}

//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! 1. **Evaluation table vs step-everything** — the paper's wrapper only
//!    touches instances whose expected evaluation point is due
//!    (Section IV, point 2); disabling the table progresses every live
//!    instance at every transaction.
//! 2. **`next_ε^τ` vs naive transaction-count rescaling** — checker cost
//!    of the two abstractions of `p4` on the same TLM-AT model (the naive
//!    one is also *wrong* on strict models; see the `naive_scaling`
//!    integration tests).
//! 3. **Online monitors vs post-hoc trace oracle** — dynamic checking
//!    during simulation versus recording a trace and evaluating the
//!    property afterwards.
//!
//! Plain timing harness (`harness = false`); run with
//! `cargo bench --bench ablation`.

use abv_bench::stopwatch::bench;
use abv_checker::Checker;
use abv_core::{abstract_property, naive::naive_scale, AbstractionConfig};
use designs::des56::{self, DesWorkload};
use designs::{BuiltDesign, Fault, CLOCK_PERIOD_NS};
use psl::{ClockedProperty, EvalContext};
use std::hint::black_box;
use tlmkit::TxTraceRecorder;

const SIZE: usize = 200;

/// The loose DES56 TLM-AT model over a mixed workload.
fn des_at(seed: u64) -> BuiltDesign {
    des56::build_tlm_at(&DesWorkload::mixed(SIZE, seed), Fault::None, false).expect("builds")
}

fn q3() -> ClockedProperty {
    let suite = des56::suite();
    let p3 = &suite.iter().find(|e| e.name == "p3").expect("p3").rtl;
    let cfg = AbstractionConfig::new(CLOCK_PERIOD_NS)
        .unwrap()
        .abstract_signals(des56::ABSTRACTED_SIGNALS.iter().copied());
    abstract_property(p3, &cfg)
        .expect("abstracts")
        .into_property()
        .expect("kept")
}

/// Runs q3 on the TLM-CA model (dense event stream — where the table
/// optimization matters), optionally with the table disabled.
fn run_q3_ca(use_table: bool) -> u64 {
    let w = DesWorkload::mixed(SIZE, 3);
    let mut built = des56::build_tlm_ca(&w, Fault::None).expect("builds");
    let binding = built.binding();
    let checker = Checker::attach(&mut built.sim, "q3", &q3(), binding).expect("attaches");
    if !use_table {
        checker
            .checker_mut(&mut built.sim)
            .disable_evaluation_table();
    }
    built.run();
    built.sim.stats().events_processed
}

fn bench_evaluation_table() {
    println!("ablation/evaluation-table");
    bench("table", || black_box(run_q3_ca(true)));
    bench("step-everything", || black_box(run_q3_ca(false)));
}

fn bench_naive_vs_next_et() {
    let suite = des56::suite();
    let p4 = &suite.iter().find(|e| e.name == "p4").expect("p4").rtl;
    let pushed = psl::push_ahead::push_ahead(&psl::nnf::to_nnf(&p4.property)).expect("pushes");
    let naive = ClockedProperty::new(naive_scale(&pushed, 17).expect("scales"), EvalContext::tb());
    let cfg = AbstractionConfig::new(CLOCK_PERIOD_NS).unwrap();
    let next_et = abstract_property(p4, &cfg)
        .expect("abstracts")
        .into_property()
        .expect("kept");

    println!("ablation/abstraction-operator");
    for (name, property) in [("naive-next-m", naive), ("next-et", next_et)] {
        bench(name, || {
            let mut built = des_at(5);
            let binding = built.binding();
            let _checker =
                Checker::attach(&mut built.sim, "p", &property, binding).expect("attaches");
            black_box(built.run())
        });
    }
}

fn bench_online_vs_trace_oracle() {
    println!("ablation/checking-style");
    bench("online-monitor", || {
        let mut built = des_at(9);
        let binding = built.binding();
        let _checker = Checker::attach(&mut built.sim, "q3", &q3(), binding).expect("attaches");
        black_box(built.run())
    });
    bench("record-then-evaluate", || {
        let mut built = des_at(9);
        let bus = built.bus.clone().expect("TLM bus");
        let rec = TxTraceRecorder::install(&mut built.sim, &bus, des56::TLM_AT_SIGNALS);
        built.run();
        let trace = TxTraceRecorder::take_trace(&built.sim, rec);
        black_box(trace.satisfies(&q3()).expect("evaluates"))
    });
}

fn main() {
    bench_evaluation_table();
    bench_naive_vs_next_et();
    bench_online_vs_trace_oracle();
}

//! Exact reproduction of the paper's Fig. 3: the three DES56 RTL
//! properties and the TLM properties the methodology generates from them.

use abv_core::{abstract_property, Consequence};
use designs::{des56, DesignKind};

fn abstracted(name: &str) -> (String, Consequence) {
    let suite = des56::suite();
    let entry = suite.iter().find(|e| e.name == name).expect("suite entry");
    let a = abstract_property(&entry.rtl, &DesignKind::Des56.config()).expect("abstracts");
    let consequence = a.consequence();
    let q = a
        .into_property()
        .map(|q| q.to_string())
        .unwrap_or_else(|| "(deleted)".to_owned());
    (q, consequence)
}

#[test]
fn p1_to_q1() {
    // Paper: q1 = always (!(ds && indata = 0) || (next^1_170(out != 0))) @T_b.
    // NNF distributes the negated conjunction; the timing is identical.
    let (q1, consequence) = abstracted("p1");
    assert_eq!(
        q1,
        "always (((!ds) || (indata != 0)) || (next_et[1, 170] (out != 0))) @T_b"
    );
    assert_eq!(consequence, Consequence::Equivalent);
}

#[test]
fn p2_to_q2() {
    // Paper: q2 = always (!ds || (next^1_10(!ds) until next^2_20(rdy))) @T_b.
    let (q2, consequence) = abstracted("p2");
    assert_eq!(
        q2,
        "always ((!ds) || ((next_et[1, 10] (!ds)) until (next_et[2, 20] rdy))) @T_b"
    );
    assert_eq!(consequence, Consequence::Equivalent);
}

#[test]
fn p3_to_q3() {
    // Paper: q3 = always (!ds || next^1_170(rdy)) @T_b — note τ = 1: the
    // deleted prediction conjuncts do not consume τ indices.
    let (q3, consequence) = abstracted("p3");
    assert_eq!(q3, "always ((!ds) || (next_et[1, 170] rdy)) @T_b");
    assert_eq!(consequence, Consequence::Weakened);
}

#[test]
fn intermediate_forms_of_p2_match_the_paper_walkthrough() {
    // Section III-A walks p2 through push-ahead and Algorithm III.1.
    let p2_body: psl::Property = "!ds || (next ((!ds) until next rdy))".parse().unwrap();
    let nnf = psl::nnf::to_nnf(&p2_body);
    let pushed = psl::push_ahead::push_ahead(&nnf).unwrap();
    assert_eq!(
        pushed.to_string(),
        "(!ds) || ((next (!ds)) until (next[2] rdy))"
    );
    let substituted = abv_core::algorithm::next_substitution(&pushed, 10).unwrap();
    assert_eq!(
        substituted.to_string(),
        "(!ds) || ((next_et[1, 10] (!ds)) until (next_et[2, 20] rdy))"
    );
}

#[test]
fn tau_epsilon_pairs_match_fig3() {
    let (q2, _) = abstracted("p2");
    // τ/ε exactly as printed in Fig. 3: next^1_10 and next^2_20.
    assert!(q2.contains("next_et[1, 10]"));
    assert!(q2.contains("next_et[2, 20]"));
    let (q1, _) = abstracted("p1");
    assert!(q1.contains("next_et[1, 170]"));
}

//! Seeded malformed-input suite: property text from the public boundary
//! goes through parse → `abstract_property` → `compile` → a few monitor
//! events, and every step must return a value or a structured error,
//! never panic.
//!
//! Inputs:
//! - every shipped suite property's text with tokens truncated, dropped
//!   or repeated;
//! - nesting exactly at `psl::parser::MAX_DEPTH`, and one level past it;
//! - `next[4294967295]`, the largest event count, alone and nested;
//! - `next_ε^τ` offsets near `u64::MAX`, alone and nested.

use std::panic::{catch_unwind, AssertUnwindSafe};

use abv_checker::compile;
use abv_core::{abstract_property, AbstractionConfig};
use designs::DesignKind;
use desim::{SignalId, Simulation};
use psl::parser::MAX_DEPTH;
use psl::ClockedProperty;
use tinyrng::TinyRng;

/// Mutated variants generated per shipped property text.
const MUTANTS_PER_TEXT: u64 = 24;

/// The source text of each token of `text`, in order (empty when the
/// text does not lex).
fn tokens(text: &str) -> Vec<&str> {
    let Ok(spanned) = psl::lexer::lex(text) else {
        return Vec::new();
    };
    let starts: Vec<usize> = spanned.iter().map(|s| s.pos).collect();
    starts
        .iter()
        .enumerate()
        .map(|(i, &start)| {
            let end = starts.get(i + 1).copied().unwrap_or(text.len());
            text[start..end].trim()
        })
        .collect()
}

/// `text` with one to three token-level faults: a token dropped or
/// repeated, or the text cut short (possibly inside a token).
fn mutate(text: &str, rng: &mut TinyRng) -> String {
    let mut toks: Vec<String> = tokens(text).into_iter().map(str::to_owned).collect();
    for _ in 0..rng.range_u32(1, 4) {
        if toks.is_empty() {
            break;
        }
        let k = rng.range_usize(0, toks.len());
        match rng.range_u32(0, 3) {
            0 => {
                toks.remove(k);
            }
            1 => {
                let t = toks[k].clone();
                for _ in 0..rng.range_u32(1, 4) {
                    toks.insert(k, t.clone());
                }
            }
            _ => {
                toks.truncate(k + 1);
                let last = toks.last_mut().expect("k < len");
                let cut = rng.range_usize(0, last.len() + 1);
                if last.is_char_boundary(cut) {
                    last.truncate(cut);
                }
            }
        }
    }
    toks.join(" ")
}

/// A simulation holding every signal `p` observes, except (when `drop`)
/// the last one, so that signal resolution fails too.
fn sim_for(p: &ClockedProperty, drop: bool) -> (Simulation, Vec<SignalId>) {
    let mut names: Vec<&str> = p.property.signals();
    if let Some(guard) = p.context.guard() {
        names.extend(guard.signals());
    }
    if drop {
        names.pop();
    }
    let mut sim = Simulation::new();
    let mut sigs = Vec::new();
    for name in names {
        if sim.signal_id(name).is_none() {
            sigs.push(sim.add_signal(name, 0));
        }
    }
    (sim, sigs)
}

/// Compiles `p` and, when that succeeds, feeds it a few seeded events —
/// the last ones at the end of time — and finishes it. True when it got
/// that far.
fn compile_and_monitor(p: &ClockedProperty, rng: &mut TinyRng) -> bool {
    let (sim, sigs) = sim_for(p, rng.range_u32(0, 8) == 0);
    let Ok((mut checker, _)) = compile("p", p, &sim) else {
        return false;
    };
    let _ = checker.lifetime_bound(10);
    let mut values = vec![0u64; sigs.len()];
    let times = [10, 20, 30, 50, u64::MAX - 10, u64::MAX - 1, u64::MAX];
    for now in times {
        for v in &mut values {
            *v = *rng.pick(&[0, 1, 2, u64::MAX]);
        }
        let read = |sig: SignalId| sigs.iter().position(|&s| s == sig).map_or(0, |i| values[i]);
        checker.on_event(&read, now);
    }
    checker.finish(u64::MAX);
    let _ = checker.report().to_string();
    true
}

/// The whole pipeline on `text`: every step may fail, none may panic.
/// Returns how many checkers (of the property and of its abstraction)
/// were monitored.
fn pipeline(text: &str, cfg: &AbstractionConfig, rng: &mut TinyRng) -> usize {
    let Ok(p) = text.parse::<ClockedProperty>() else {
        return 0;
    };
    let _ = p.to_string();
    let mut monitored = usize::from(compile_and_monitor(&p, rng));
    if let Ok(abstraction) = abstract_property(&p, cfg) {
        let _ = abstraction.to_string();
        if let Some(q) = abstraction.result() {
            monitored += usize::from(compile_and_monitor(q, rng));
        }
    }
    monitored
}

/// Runs the pipeline on `text`, failing with the input when it panics;
/// returns what [`pipeline`] does.
fn assert_no_panic(text: &str, cfg: &AbstractionConfig, seed: u64) -> usize {
    let run = catch_unwind(AssertUnwindSafe(|| {
        pipeline(text, cfg, &mut TinyRng::new(seed))
    }));
    match run {
        Ok(monitored) => monitored,
        Err(_) => panic!("the pipeline panicked on `{text}` (seed {seed})"),
    }
}

#[test]
fn mutated_shipped_properties_never_panic() {
    let (mut cases, mut monitored) = (0, 0);
    for design in DesignKind::ALL {
        let cfg = design.config();
        for (i, entry) in design.suite().iter().enumerate() {
            let text = entry.rtl.to_string();
            assert!(assert_no_panic(&text, &cfg, 0) > 0, "{text}");
            for m in 0..MUTANTS_PER_TEXT {
                let seed = (i as u64) << 32 | m;
                let mut rng = TinyRng::fork(0xBAD_1A7E, seed);
                monitored += assert_no_panic(&mutate(&text, &mut rng), &cfg, seed);
                cases += 1;
            }
        }
    }
    assert!(cases > 500, "{cases} mutated texts");
    // Many faults still parse (a repeated `!`, a dropped `always`), so
    // the later stages see mutated input too.
    assert!(
        monitored > cases / 10,
        "{monitored} of {cases} reached the monitor"
    );
}

/// Prefix operators and parentheses stacked `levels` deep around `leaf`,
/// picked by `rng`.
fn nested(levels: usize, leaf: &str, rng: &mut TinyRng) -> String {
    let mut open = String::new();
    let mut close = String::new();
    for _ in 0..levels {
        match rng.range_u32(0, 7) {
            0 => open.push('!'),
            1 => open.push_str("next "),
            2 => open.push_str("always "),
            3 => open.push_str("eventually "),
            4 => open.push_str("next_et[1, 18446744073709551615] "),
            5 => open.push_str("next[4294967295] "),
            _ => {
                open.push('(');
                close.push(')');
            }
        }
    }
    format!("{open}{leaf}{close}")
}

#[test]
fn nesting_at_and_past_the_parser_limit_never_panics() {
    let cfg = DesignKind::Des56.config();
    let chain = |op: &str| vec!["rdy"; MAX_DEPTH + 1].join(op);
    for levels in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
        for seed in 0..24u64 {
            let mut rng = TinyRng::fork(0xDEE9, seed);
            let body = nested(levels, "(ds && indata == 0)", &mut rng);
            for ctx in ["@clk_pos", "@T_b", "@(clk_pos && ds)"] {
                assert_no_panic(&format!("{body} {ctx}"), &cfg, seed);
            }
        }
        let parens = format!("{}rdy{}", "(".repeat(levels), ")".repeat(levels));
        let implies = format!("{}rdy", "ds -> ".repeat(levels));
        for body in [parens, implies] {
            assert_no_panic(&format!("always {body} @clk_pos"), &cfg, 0);
        }
    }
    for op in [" && ", " || ", " until ", " release "] {
        assert_no_panic(&format!("always ({}) @clk_pos", chain(op)), &cfg, 0);
    }
    assert!(
        format!("{}rdy @clk_pos", "!".repeat(MAX_DEPTH + 1))
            .parse::<ClockedProperty>()
            .is_err(),
        "past the limit is a parse error"
    );
}

#[test]
fn extreme_counts_and_offsets_never_panic() {
    let cfg = DesignKind::Des56.config();
    let max_n = u32::MAX;
    let max_eps = u64::MAX;
    let texts = [
        format!("always (!ds || next[{max_n}] rdy) @clk_pos"),
        format!("always (!ds || next[{max_n}] next[{max_n}] rdy) @clk_pos"),
        format!("always (!ds || next[{max_n}] (rdy until next[{max_n}] ds)) @clk_pos"),
        format!("next[{max_n}] (next[{max_n}] rdy && next[{max_n}] ds) @clk_pos"),
        format!(
            "always (!ds || next[{}] rdy) @clk_pos",
            u64::from(max_n) + 1
        ),
        format!("always (!ds || next_et[1, {max_eps}] rdy) @T_b"),
        format!("always (!ds || next_et[1, {}] rdy) @T_b", max_eps - 1),
        format!("always (!ds || next_et[1, {max_eps}] next_et[2, {max_eps}] rdy) @T_b"),
        format!("always (!ds || next_et[1, {max_eps}] (rdy && next_et[2, 1] ds)) @T_b"),
        format!("always (!ds || (next_et[1, {max_eps}] ds until next_et[2, {max_eps}] rdy)) @T_b"),
        format!("next_et[{max_n}, {max_eps}] next_et[{max_n}, {max_eps}] rdy @T_b"),
        format!("always (!ds || next_et[1, {}] rdy) @T_b", "9".repeat(40)),
    ];
    let monitored: usize = texts
        .iter()
        .enumerate()
        .map(|(seed, text)| assert_no_panic(text, &cfg, seed as u64))
        .sum();
    assert!(monitored >= 8, "only {monitored} checkers monitored");
    // Abstraction scales `next[n]` by the clock period: the largest count
    // on the largest period must not overflow either.
    let wide = AbstractionConfig::new(u64::MAX).expect("positive");
    for (seed, text) in texts.iter().enumerate() {
        assert_no_panic(text, &wide, seed as u64);
    }
}

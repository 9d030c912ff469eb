//! Quickstart: abstract the paper's Fig. 3 properties from RTL to TLM.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use abv_core::{abstract_property, AbstractionConfig};
use psl::ClockedProperty;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The RTL DES56 properties of Fig. 3 (clock period: 10 ns).
    let rtl_properties = [
        (
            "p1",
            "always (!(ds && indata == 0) || next[17](out != 0)) @clk_pos",
        ),
        (
            "p2",
            "always (!ds || (next ((!ds) until next rdy))) @clk_pos",
        ),
        (
            "p3",
            "always (!ds || (next[15](rdy_next_next_cycle) && next[16](rdy_next_cycle) \
             && next[17](rdy))) @clk_pos",
        ),
    ];

    // The TLM model abstracted the ready-prediction outputs away.
    let cfg = AbstractionConfig::new(10)?
        .abstract_signal("rdy_next_cycle")
        .abstract_signal("rdy_next_next_cycle");

    println!("RTL-to-TLM property abstraction (paper Fig. 3)\n");
    for (name, src) in rtl_properties {
        let p: ClockedProperty = src.parse()?;
        let abstraction = abstract_property(&p, &cfg)?;
        println!("{name} (RTL): {p}");
        match abstraction.result() {
            Some(q) => println!("{name} (TLM): {q}"),
            None => println!("{name} (TLM): deleted — meaningless after protocol abstraction"),
        }
        println!("  relationship: {}", abstraction.consequence());
        if !abstraction.removed_atoms().is_empty() {
            let removed: Vec<String> = abstraction
                .removed_atoms()
                .iter()
                .map(ToString::to_string)
                .collect();
            println!("  removed subformulas over: {}", removed.join(", "));
        }
        println!();
    }
    Ok(())
}

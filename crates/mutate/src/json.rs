//! Schema-stable JSON rendering of a [`KillMatrix`].
//!
//! Hand-rolled (the workspace is dependency-free) and deliberately built
//! only from scheduling-independent fields — no wall-clock, no worker
//! count — so the same plan renders **byte-identical** JSON at any worker
//! count. Consumers can rely on the `schema` tag for compatibility.

use std::fmt::Write as _;

use abv_obs::push_json_str;
use designs::Fault;

use crate::matrix::KillMatrix;

/// The schema tag emitted in every document.
pub const SCHEMA: &str = "rtl2tlm-kill-matrix-v1";

impl KillMatrix {
    /// Renders the matrix as a stable JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let o = &mut out;
        let _ = write!(o, "{{\"schema\":\"{SCHEMA}\"");
        let _ = write!(o, ",\"size\":{},\"seed\":{}", self.size, self.seed);
        let _ = write!(o, ",\"levels\":[");
        for (i, level) in self.levels.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(o, "{comma}\"{}\"", level.label());
        }
        let _ = write!(o, "],\"designs\":[");
        for (di, dm) in self.designs.iter().enumerate() {
            let comma = if di > 0 { "," } else { "" };
            let _ = write!(o, "{comma}{{\"design\":\"{}\"", dm.design.label());
            let _ = write!(o, ",\"mutation_score\":{{");
            for (li, &level) in self.levels.iter().enumerate() {
                let comma = if li > 0 { "," } else { "" };
                let (killed, total) = dm.mutation_score(level);
                let _ = write!(
                    o,
                    "{comma}\"{}\":{{\"killed\":{killed},\"total\":{total}}}",
                    level.label()
                );
            }
            let _ = write!(o, "}},\"mutants\":[");
            for (mi, row) in dm.mutants.iter().enumerate() {
                let comma = if mi > 0 { "," } else { "" };
                // Fault names are fixed ASCII labels (`bit-flip[3]`):
                // nothing to escape, so `Display` writes them in place.
                let _ = write!(
                    o,
                    "{comma}{{\"fault\":\"{}\",\"baseline\":{},\"cells\":[",
                    row.fault,
                    row.fault == Fault::None
                );
                for (ci, cell) in row.cells.iter().enumerate() {
                    let comma = if ci > 0 { "," } else { "" };
                    let _ = write!(
                        o,
                        "{comma}{{\"level\":\"{}\",\"killed\":{},\"failures\":{},\"timeout_fails\":{}",
                        cell.level.label(),
                        cell.killed,
                        cell.failures,
                        cell.timeout_fails
                    );
                    let _ = write!(o, ",\"failing_properties\":[");
                    for (fi, name) in cell.failing_properties().iter().enumerate() {
                        if fi > 0 {
                            o.push(',');
                        }
                        push_json_str(o, name);
                    }
                    let _ = write!(o, "],\"verdicts\":{{");
                    for (vi, v) in cell.verdicts.iter().enumerate() {
                        if vi > 0 {
                            o.push(',');
                        }
                        push_json_str(o, &v.property);
                        o.push_str(if v.pass { ":\"pass\"" } else { ":\"fail\"" });
                    }
                    let _ = write!(o, "}}}}");
                }
                let _ = write!(o, "]}}");
            }
            let _ = write!(o, "]}}");
        }
        let _ = write!(o, "],\"baseline_clean\":{}", self.baseline_clean());
        for (key, diffs) in [
            ("regressions", self.detection_regressions()),
            ("gains", self.detection_gains()),
        ] {
            let _ = write!(o, ",\"{key}\":[");
            for (i, d) in diffs.iter().enumerate() {
                let comma = if i > 0 { "," } else { "" };
                let _ = write!(
                    o,
                    "{comma}{{\"design\":\"{}\",\"fault\":\"{}\",\"killed_at\":\"{}\",\"survives_at\":\"{}\"}}",
                    d.design.label(),
                    d.fault,
                    d.killed_at.label(),
                    d.survives_at.label()
                );
            }
            let _ = write!(o, "]");
        }
        let _ = write!(o, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::run_mutation;
    use crate::plan::MutationPlan;
    use abv_campaign::TraceSettings;
    use designs::{AbsLevel, DesignKind};

    fn tiny_matrix() -> KillMatrix {
        let plan = MutationPlan::new()
            .design(DesignKind::Fir)
            .level(AbsLevel::Rtl)
            .size(3)
            .seed(11);
        run_mutation(&plan, 1, TraceSettings::off())
            .expect("valid plan")
            .matrix
    }

    #[test]
    fn json_is_schema_tagged_and_balanced() {
        let json = tiny_matrix().to_json();
        assert!(json.starts_with(&format!("{{\"schema\":\"{SCHEMA}\"")));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert!(json.contains("\"baseline_clean\":true"));
        assert!(json.contains("\"regressions\":[]"));
        assert!(json.contains("\"fault\":\"latency-short\""));
        assert!(json.contains("\"verdicts\":{"));
    }

    #[test]
    fn json_is_independent_of_worker_count() {
        let plan = MutationPlan::new()
            .design(DesignKind::ColorConv)
            .size(3)
            .seed(5);
        let solo = run_mutation(&plan, 1, TraceSettings::off()).expect("valid plan");
        let pooled = run_mutation(&plan, 8, TraceSettings::off()).expect("valid plan");
        assert_eq!(solo.matrix.to_json(), pooled.matrix.to_json());
    }

    /// Property names go through the shared JSON string writer: quotes,
    /// backslashes and control characters come out escaped in both the
    /// failing list and the verdict map.
    #[test]
    fn property_names_are_escaped() {
        let mut matrix = tiny_matrix();
        for row in &mut matrix.designs[0].mutants {
            for cell in &mut row.cells {
                for v in &mut cell.verdicts {
                    v.property = format!("{}\"\\\n\u{1}", v.property);
                }
            }
        }
        let json = matrix.to_json();
        assert!(json.contains(r#""f1\"\\\n\u0001":"pass""#), "{json}");
        assert!(
            json.contains(r#""failing_properties":["f1\"\\\n\u0001""#),
            "{json}"
        );
    }
}

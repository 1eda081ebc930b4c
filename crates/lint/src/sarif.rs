//! SARIF 2.1.0 output.
//!
//! A hand-rolled, std-only emitter for the [SARIF] static-analysis
//! interchange format, so CI can feed `sjc-lint` findings straight into
//! code-scanning UIs (`github/codeql-action/upload-sarif`) without the
//! crate growing a serde dependency. The emitter writes exactly the subset
//! those consumers read: the tool driver with the full rule table, and one
//! result per violation with a physical location.
//!
//! [`validate`] is the matching self-check: it re-parses an emitted
//! document with the JSON parser from [`crate::json`] and verifies the
//! structural invariants (version string, rule table present, every
//! result's `ruleId`/`ruleIndex` consistent, 1-based line numbers). The
//! round-trip test in the tier-1 gate runs it over the live workspace scan.
//!
//! [SARIF]: https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html

use std::fmt::Write as _;

use crate::json::{escape, parse_value, Value};
use crate::{Rule, Severity, Violation};

const SCHEMA_URI: &str = "https://json.schemastore.org/sarif-2.1.0.json";
const SARIF_VERSION: &str = "2.1.0";

/// The full rule table, in the order `ruleIndex` refers to.
fn all_rules() -> Vec<Rule> {
    let mut rules = Rule::ALL.to_vec();
    rules.push(Rule::BadSuppression);
    rules
}

fn level(sev: Severity) -> &'static str {
    match sev {
        Severity::Error => "error",
        Severity::Warning => "warning",
    }
}

/// Renders the violations as a single-run SARIF 2.1.0 document.
pub fn report(violations: &[Violation]) -> String {
    let rules = all_rules();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"$schema\": \"{SCHEMA_URI}\",");
    let _ = writeln!(out, "  \"version\": \"{SARIF_VERSION}\",");
    out.push_str("  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"sjc-lint\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/sjc-lint\",\n");
    out.push_str("          \"rules\": [\n");
    let n = rules.len();
    for (i, rule) in rules.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        let _ = writeln!(
            out,
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"defaultConfiguration\": {{\"level\": \"{}\"}}}}{}",
            rule.name(),
            escape(rule.summary()),
            level(rule.default_severity()),
            comma
        );
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    let m = violations.len();
    for (i, v) in violations.iter().enumerate() {
        let comma = if i + 1 < m { "," } else { "" };
        let idx = rules.iter().position(|r| *r == v.rule).unwrap_or(0);
        // Interprocedural findings carry their call chain as SARIF
        // relatedLocations — one hop per entry, rendered by code-scanning
        // UIs as clickable steps under the result.
        let related = if v.related.is_empty() {
            String::new()
        } else {
            let hops = v
                .related
                .iter()
                .map(|r| {
                    format!(
                        "{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \
                         \"{}\"}}, \"region\": {{\"startLine\": {}}}}}, \"message\": \
                         {{\"text\": \"{}\"}}}}",
                        escape(&r.path),
                        r.line.max(1),
                        escape(&r.note)
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!(", \"relatedLocations\": [{hops}]")
        };
        let _ = writeln!(
            out,
            "        {{\"ruleId\": \"{}\", \"ruleIndex\": {}, \"level\": \"{}\", \
             \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": \
             {}}}}}}}]{}}}{}",
            v.rule.name(),
            idx,
            level(v.severity),
            escape(&v.message),
            escape(&v.path),
            v.line.max(1),
            related,
            comma
        );
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// Structural self-check for an emitted SARIF document. Std-only: uses the
/// crate's own JSON parser, so the check works in tests and CI without any
/// external schema tooling.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = parse_value(text)?;
    let version = doc.get("version").and_then(Value::as_str).ok_or("sarif: missing \"version\"")?;
    if version != SARIF_VERSION {
        return Err(format!("sarif: version {version:?}, expected {SARIF_VERSION:?}"));
    }
    let runs = doc.get("runs").and_then(Value::as_array).ok_or("sarif: missing \"runs\"")?;
    if runs.is_empty() {
        return Err("sarif: \"runs\" must be non-empty".to_string());
    }
    for run in runs {
        let driver =
            run.get("tool").and_then(|t| t.get("driver")).ok_or("sarif: missing tool.driver")?;
        if driver.get("name").and_then(Value::as_str).is_none() {
            return Err("sarif: driver has no name".to_string());
        }
        let rules =
            driver.get("rules").and_then(Value::as_array).ok_or("sarif: driver has no rules")?;
        let ids: Vec<&str> =
            rules.iter().filter_map(|r| r.get("id").and_then(Value::as_str)).collect();
        if ids.len() != rules.len() {
            return Err("sarif: every rule needs a string \"id\"".to_string());
        }
        let results =
            run.get("results").and_then(Value::as_array).ok_or("sarif: missing results")?;
        for (i, res) in results.iter().enumerate() {
            let rule_id = res
                .get("ruleId")
                .and_then(Value::as_str)
                .ok_or(format!("sarif: result {i} has no ruleId"))?;
            let idx = res
                .get("ruleIndex")
                .and_then(Value::as_num)
                .ok_or(format!("sarif: result {i} has no ruleIndex"))?;
            match ids.get(idx as usize) {
                Some(id) if *id == rule_id => {}
                _ => {
                    return Err(format!(
                        "sarif: result {i} ruleIndex {idx} does not resolve to {rule_id:?}"
                    ));
                }
            }
            if res.get("message").and_then(|m| m.get("text")).and_then(Value::as_str).is_none() {
                return Err(format!("sarif: result {i} has no message.text"));
            }
            let locs = res
                .get("locations")
                .and_then(Value::as_array)
                .ok_or(format!("sarif: result {i} has no locations"))?;
            for loc in locs {
                check_physical(loc, i)?;
            }
            // relatedLocations are optional, but when present each hop must
            // carry the same physical-location shape plus a message.text
            // note (the chain step description).
            if let Some(related) = res.get("relatedLocations") {
                let hops = related
                    .as_array()
                    .ok_or(format!("sarif: result {i} relatedLocations must be an array"))?;
                for hop in hops {
                    check_physical(hop, i)?;
                    if hop
                        .get("message")
                        .and_then(|m| m.get("text"))
                        .and_then(Value::as_str)
                        .is_none()
                    {
                        return Err(format!(
                            "sarif: result {i} relatedLocation has no message.text"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// One location object (a `locations` entry or a `relatedLocations` hop):
/// must hold a `physicalLocation` with an `artifactLocation.uri` and a
/// 1-based `region.startLine`.
fn check_physical(loc: &Value, i: usize) -> Result<(), String> {
    let phys = loc
        .get("physicalLocation")
        .ok_or(format!("sarif: result {i} location lacks physicalLocation"))?;
    if phys.get("artifactLocation").and_then(|a| a.get("uri")).and_then(Value::as_str).is_none() {
        return Err(format!("sarif: result {i} has no artifactLocation.uri"));
    }
    let line = phys
        .get("region")
        .and_then(|r| r.get("startLine"))
        .and_then(Value::as_num)
        .ok_or(format!("sarif: result {i} has no region.startLine"))?;
    if line == 0 {
        return Err(format!("sarif: result {i} startLine must be 1-based"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule: Rule, line: usize) -> Violation {
        Violation::new(rule, "crates/x/src/lib.rs", line, "needs \"escaping\"".to_string())
            .with_severity(rule.default_severity())
    }

    #[test]
    fn report_passes_the_validator() {
        let vs = [v(Rule::EntropyTaint, 3), v(Rule::LoopInvariantCall, 9), v(Rule::HotAlloc, 1)];
        let text = report(&vs);
        validate(&text).unwrap();
    }

    #[test]
    fn empty_report_is_valid_and_lists_every_rule() {
        let text = report(&[]);
        validate(&text).unwrap();
        for rule in all_rules() {
            assert!(text.contains(&format!("\"id\": \"{}\"", rule.name())), "{}", rule.name());
        }
    }

    #[test]
    fn warnings_carry_warning_level() {
        let text = report(&[v(Rule::LoopInvariantCall, 2)]);
        let doc = parse_value(&text).unwrap();
        let runs = doc.get("runs").and_then(Value::as_array).unwrap();
        let results = runs[0].get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results[0].get("level").and_then(Value::as_str), Some("warning"));
    }

    #[test]
    fn validator_rejects_inconsistent_rule_index() {
        let idx = all_rules().iter().position(|r| *r == Rule::EntropyTaint).unwrap();
        let text = report(&[v(Rule::EntropyTaint, 3)]);
        // Point the result's ruleIndex at a different rule than its ruleId.
        let tampered = text.replace(&format!("\"ruleIndex\": {idx},"), "\"ruleIndex\": 0,");
        assert_ne!(text, tampered, "expected a result row to tamper with");
        assert!(validate(&tampered).is_err(), "tampered index must fail");
    }

    #[test]
    fn related_locations_are_emitted_and_validated() {
        let vs = [v(Rule::PanicPath, 4).with_related(vec![
            crate::Related {
                path: "crates/par/src/lib.rs".to_string(),
                line: 168,
                note: "calls `helper`".to_string(),
            },
            crate::Related {
                path: "crates/par/src/lib.rs".to_string(),
                line: 171,
                note: ".unwrap()".to_string(),
            },
        ])];
        let text = report(&vs);
        validate(&text).unwrap();
        let doc = parse_value(&text).unwrap();
        let runs = doc.get("runs").and_then(Value::as_array).unwrap();
        let results = runs[0].get("results").and_then(Value::as_array).unwrap();
        let hops = results[0].get("relatedLocations").and_then(Value::as_array).unwrap();
        assert_eq!(hops.len(), 2);
        assert_eq!(
            hops[1].get("message").and_then(|m| m.get("text")).and_then(Value::as_str),
            Some(".unwrap()")
        );
        // A zero startLine in a hop must fail the self-check.
        let tampered = text.replace("\"startLine\": 171", "\"startLine\": 0");
        assert_ne!(text, tampered);
        assert!(validate(&tampered).is_err());
    }

    #[test]
    fn validator_rejects_wrong_version() {
        let text = report(&[]).replace("\"2.1.0\"", "\"9.9\"");
        assert!(validate(&text).is_err());
    }
}

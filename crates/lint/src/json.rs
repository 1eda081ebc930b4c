//! JSON output and the baseline ratchet.
//!
//! The lint crate is deliberately dependency-free, so this module carries a
//! small hand-rolled emitter and a recursive-descent parser that understands
//! exactly the subset the tooling writes: objects, arrays, strings with
//! escapes, and unsigned integers. The parser reads both `--format json`
//! reports and `LINT_BASELINE.json`, which is what makes the round-trip
//! test in the tier-1 gate possible without pulling in serde.
//!
//! The baseline is a **ratchet**: the checked-in `LINT_BASELINE.json`
//! records the violation count the workspace is allowed to have (today:
//! zero everywhere), and `--baseline` fails when any count *rises*.
//! Counts may only go down; lowering the baseline after a cleanup is a
//! one-line diff a reviewer can see.
//!
//! Since schema 2 the counts are per-rule **per-file**: each rule carries a
//! `total` and a `by_file` map. A global count would let a fix in one file
//! mask a regression in another (−1 here, +1 there, net zero); the ratchet
//! compares every `(rule, file)` cell independently, so any per-file
//! increase fails even when the totals balance out.
//!
//! Schema 3 adds the interprocedural rules (`panic-path`,
//! `interproc-unit-flow`, `cache-purity`, `stale-suppression`) to the
//! baseline's zero-cell vocabulary, and report violations may carry a
//! `related` array — one `{path, line, note}` entry per hop of the call
//! chain behind an interprocedural finding.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::{Severity, Violation};

pub const SCHEMA_VERSION: u64 = 3;

/// Escapes `s` as a JSON string body.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the full machine-readable report: schema version, per-rule
/// per-file counts, and every violation with its severity.
pub fn report(violations: &[Violation]) -> String {
    let counts = Counts::from_violations(violations);
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"total\": {},", counts.total);
    write_by_rule(&mut out, &counts);
    out.push_str(",\n");
    out.push_str("  \"violations\": [\n");
    let n = violations.len();
    for (i, v) in violations.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        let sev = match v.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        let related = if v.related.is_empty() {
            String::new()
        } else {
            let hops = v
                .related
                .iter()
                .map(|r| {
                    format!(
                        "{{\"path\": \"{}\", \"line\": {}, \"note\": \"{}\"}}",
                        escape(&r.path),
                        r.line,
                        escape(&r.note)
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!(", \"related\": [{hops}]")
        };
        let _ = writeln!(
            out,
            "    {{\"rule\": \"{}\", \"severity\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\"{}}}{}",
            v.rule.name(),
            sev,
            escape(&v.path),
            v.line,
            escape(&v.message),
            related,
            comma
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// One rule's counts: a total plus the per-file breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleCount {
    pub total: u64,
    pub by_file: BTreeMap<String, u64>,
}

/// Per-rule per-file violation counts — the shape both the report's header
/// and the checked-in baseline share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    pub total: u64,
    pub by_rule: BTreeMap<String, RuleCount>,
}

/// Renders the `"by_rule": { … }` block (no trailing newline or comma).
fn write_by_rule(out: &mut String, counts: &Counts) {
    out.push_str("  \"by_rule\": {\n");
    let n = counts.by_rule.len();
    for (i, (rule, rc)) in counts.by_rule.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        let files = rc
            .by_file
            .iter()
            .map(|(f, c)| format!("\"{}\": {}", escape(f), c))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "    \"{}\": {{\"total\": {}, \"by_file\": {{{}}}}}{}",
            escape(rule),
            rc.total,
            files,
            comma
        );
    }
    out.push_str("  }");
}

impl Counts {
    pub fn from_violations(violations: &[Violation]) -> Counts {
        let mut by_rule: BTreeMap<String, RuleCount> = BTreeMap::new();
        // Every known rule appears with an explicit zero so the baseline
        // file documents the full rule set, not just the failing part.
        for rule in crate::Rule::ALL {
            by_rule.insert(rule.name().to_string(), RuleCount::default());
        }
        by_rule.insert(crate::Rule::BadSuppression.name().to_string(), RuleCount::default());
        for v in violations {
            let rc = by_rule.entry(v.rule.name().to_string()).or_default();
            rc.total += 1;
            *rc.by_file.entry(v.path.clone()).or_insert(0) += 1;
        }
        Counts { total: violations.len() as u64, by_rule }
    }

    /// Renders the baseline file format (a report without the violation
    /// list — the counts ARE the contract).
    pub fn to_baseline_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"total\": {},", self.total);
        write_by_rule(&mut out, self);
        out.push_str("\n}\n");
        out
    }

    /// Parses `total` / `by_rule` from baseline OR report JSON. Duplicate
    /// rule or file keys are rejected — "last key wins" would let a
    /// crafted baseline carry two entries for one rule, with the parser
    /// silently picking the laxer one.
    pub fn parse(text: &str) -> Result<Counts, String> {
        let value = Parser { chars: text.chars().collect(), i: 0 }.parse()?;
        let Value::Object(map) = value else {
            return Err("baseline: top level must be an object".to_string());
        };
        let total = match map.iter().find(|(k, _)| k == "total") {
            Some((_, Value::Num(n))) => *n,
            _ => return Err("baseline: missing numeric \"total\"".to_string()),
        };
        let mut by_rule: BTreeMap<String, RuleCount> = BTreeMap::new();
        if let Some((_, Value::Object(rules))) = map.iter().find(|(k, _)| k == "by_rule") {
            for (rule, count) in rules {
                let rc = match count {
                    Value::Object(fields) => parse_rule_count(rule, fields)?,
                    Value::Num(_) => {
                        return Err(format!(
                            "baseline: by_rule[{rule:?}] is a bare number (schema 1) — \
                             regenerate with --write-baseline for the per-file schema \
                             {SCHEMA_VERSION}"
                        ));
                    }
                    _ => {
                        return Err(format!(
                            "baseline: by_rule[{rule:?}] must be an object with \
                             \"total\" and \"by_file\""
                        ));
                    }
                };
                if by_rule.insert(rule.clone(), rc).is_some() {
                    return Err(format!("baseline: duplicate rule key {rule:?}"));
                }
            }
        }
        Ok(Counts { total, by_rule })
    }

    /// The ratchet: every count in `self` (the fresh run) must be ≤ the
    /// baseline's, per rule **and per file**. Rules and files absent from
    /// the baseline are held to zero, so a newly added rule — or a finding
    /// moving into a previously-clean file — cannot smuggle in violations.
    pub fn ratchet_against(&self, baseline: &Counts) -> Result<(), String> {
        let empty = RuleCount::default();
        let mut failures = Vec::new();
        if self.total > baseline.total {
            failures.push(format!(
                "total rose from {} to {} — the baseline only ratchets down",
                baseline.total, self.total
            ));
        }
        for (rule, rc) in &self.by_rule {
            let base = baseline.by_rule.get(rule).unwrap_or(&empty);
            if rc.total > base.total {
                failures.push(format!(
                    "{rule}: {} violation(s), baseline allows {}",
                    rc.total, base.total
                ));
            }
            for (file, &count) in &rc.by_file {
                let allowed = base.by_file.get(file).copied().unwrap_or(0);
                if count > allowed {
                    failures.push(format!(
                        "{rule} in {file}: {count} violation(s), baseline allows {allowed}"
                    ));
                }
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("\n"))
        }
    }
}

/// Parses one rule's `{"total": …, "by_file": {…}}` object.
fn parse_rule_count(rule: &str, fields: &[(String, Value)]) -> Result<RuleCount, String> {
    let total = match fields.iter().find(|(k, _)| k == "total") {
        Some((_, Value::Num(n))) => *n,
        _ => return Err(format!("baseline: by_rule[{rule:?}] is missing numeric \"total\"")),
    };
    let mut by_file = BTreeMap::new();
    if let Some((_, Value::Object(files))) = fields.iter().find(|(k, _)| k == "by_file") {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for (file, count) in files {
            let Value::Num(n) = count else {
                return Err(format!(
                    "baseline: by_rule[{rule:?}].by_file[{file:?}] must be a number"
                ));
            };
            if !seen.insert(file) {
                return Err(format!("baseline: duplicate file key {file:?} under {rule:?}"));
            }
            by_file.insert(file.clone(), *n);
        }
    }
    Ok(RuleCount { total, by_file })
}

/// The subset of JSON values the tooling emits. `Object` keeps insertion
/// order (and duplicates) so callers can detect repeated keys.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    Object(Vec<(String, Value)>),
    Array(Vec<Value>),
    Str(String),
    Num(u64),
    Bool(bool),
    Null,
}

impl Value {
    /// First value under `key` when `self` is an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_num(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub(crate) fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses arbitrary tooling JSON (used by the SARIF self-check).
pub(crate) fn parse_value(text: &str) -> Result<Value, String> {
    Parser { chars: text.chars().collect(), i: 0 }.parse()
}

struct Parser {
    chars: Vec<char>,
    i: usize,
}

impl Parser {
    fn parse(mut self) -> Result<Value, String> {
        let v = self.value()?;
        self.ws();
        if self.i < self.chars.len() {
            return Err(format!("trailing content at offset {}", self.i));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while self.i < self.chars.len() && self.chars[self.i].is_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.ws();
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {c:?} at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(Value::Str(self.string()?)),
            Some(c) if c.is_ascii_digit() => self.number(),
            Some('t') => self.literal("true", Value::Bool(true)),
            Some('f') => self.literal("false", Value::Bool(false)),
            Some('n') => self.literal("null", Value::Null),
            other => Err(format!("unexpected {other:?} at offset {}", self.i)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        for c in word.chars() {
            if self.peek() != Some(c) {
                return Err(format!("bad literal at offset {}", self.i));
            }
            self.i += 1;
        }
        Ok(v)
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect('{')?;
        let mut entries = Vec::new();
        self.ws();
        if self.peek() == Some('}') {
            self.i += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.expect(':')?;
            let value = self.value()?;
            entries.push((key, value));
            self.ws();
            match self.peek() {
                Some(',') => self.i += 1,
                Some('}') => {
                    self.i += 1;
                    return Ok(Value::Object(entries));
                }
                other => return Err(format!("expected , or }} got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(']') {
            self.i += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(',') => self.i += 1,
                Some(']') => {
                    self.i += 1;
                    return Ok(Value::Array(items));
                }
                other => return Err(format!("expected , or ] got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some('"') {
            return Err(format!("expected string at offset {}", self.i));
        }
        self.i += 1;
        let mut out = String::new();
        while let Some(c) = self.peek() {
            self.i += 1;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'u' => {
                            let hex: String = self.chars.iter().skip(self.i).take(4).collect();
                            let code = u32::from_str_radix(&hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        c => out.push(c),
                    }
                }
                c => out.push(c),
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        let text: String = self.chars[start..self.i].iter().collect();
        text.parse::<u64>().map(Value::Num).map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rule;

    fn v(rule: Rule, line: usize) -> Violation {
        Violation::new(rule, "crates/x/src/lib.rs", line, "msg with \"quotes\"".to_string())
    }

    #[test]
    fn report_round_trips_through_the_parser() {
        let vs = [v(Rule::EntropyTaint, 3), v(Rule::EntropyTaint, 9), v(Rule::ErrorFlow, 1)];
        let text = report(&vs);
        let counts = Counts::parse(&text).unwrap();
        assert_eq!(counts.total, 3);
        assert_eq!(counts.by_rule["entropy-taint"].total, 2);
        assert_eq!(counts.by_rule["entropy-taint"].by_file["crates/x/src/lib.rs"], 2);
        assert_eq!(counts.by_rule["error-flow"].total, 1);
        assert_eq!(counts.by_rule["par-closure-race"].total, 0);
        assert_eq!(counts, Counts::from_violations(&vs));
    }

    #[test]
    fn baseline_json_round_trips() {
        let counts = Counts::from_violations(&[v(Rule::NoPanicInLib, 2)]);
        let parsed = Counts::parse(&counts.to_baseline_json()).unwrap();
        assert_eq!(parsed, counts);
    }

    #[test]
    fn ratchet_only_goes_down() {
        let base = Counts::from_violations(&[v(Rule::ErrorFlow, 1)]);
        let clean = Counts::from_violations(&[]);
        let worse = Counts::from_violations(&[v(Rule::ErrorFlow, 1), v(Rule::ErrorFlow, 2)]);
        assert!(clean.ratchet_against(&base).is_ok());
        assert!(base.ratchet_against(&base).is_ok());
        assert!(worse.ratchet_against(&base).is_err());
        // A rule missing from the baseline is held to zero.
        let unseen = Counts::from_violations(&[v(Rule::EntropyTaint, 1)]);
        let empty = Counts { total: 10, by_rule: BTreeMap::new() };
        assert!(unseen.ratchet_against(&empty).is_err());
    }

    #[test]
    fn ratchet_compares_every_file_cell() {
        // Same rule totals, but the violation moved from a.rs to b.rs:
        // the per-file ratchet must reject the move even though the
        // aggregate counts balance out.
        let mk = |path: &str| Violation::new(Rule::ErrorFlow, path, 1, "m".to_string());
        let base = Counts::from_violations(&[mk("crates/x/src/a.rs")]);
        let moved = Counts::from_violations(&[mk("crates/x/src/b.rs")]);
        assert_eq!(base.total, moved.total);
        assert_eq!(base.by_rule["error-flow"].total, moved.by_rule["error-flow"].total);
        let err = moved.ratchet_against(&base).unwrap_err();
        assert!(err.contains("crates/x/src/b.rs"), "{err}");
    }

    #[test]
    fn parse_rejects_duplicate_rule_keys() {
        let text = "{\"total\": 2, \"by_rule\": {\
                    \"error-flow\": {\"total\": 2, \"by_file\": {}},\
                    \"error-flow\": {\"total\": 0, \"by_file\": {}}}}";
        let err = Counts::parse(text).unwrap_err();
        assert!(err.contains("duplicate rule key"), "{err}");
    }

    #[test]
    fn parse_rejects_duplicate_file_keys() {
        let text = "{\"total\": 2, \"by_rule\": {\"error-flow\": {\"total\": 2, \
                    \"by_file\": {\"a.rs\": 2, \"a.rs\": 0}}}}";
        let err = Counts::parse(text).unwrap_err();
        assert!(err.contains("duplicate file key"), "{err}");
    }

    #[test]
    fn parse_rejects_schema_one_flat_counts() {
        let text = "{\"total\": 1, \"by_rule\": {\"error-flow\": 1}}";
        let err = Counts::parse(text).unwrap_err();
        assert!(err.contains("schema 1") && err.contains("--write-baseline"), "{err}");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Counts::parse("").is_err());
        assert!(Counts::parse("[1, 2]").is_err());
        assert!(Counts::parse("{\"total\": \"three\"}").is_err());
        assert!(Counts::parse("{\"total\": 1} trailing").is_err());
    }
}

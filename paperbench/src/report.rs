//! Metric definitions, the result line, result-set recording and the
//! compare mode.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use sjc_bench::baseline::{self, Value};
use sjc_core::json::Json;

use crate::stats::Summary;

/// One reported metric: its name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, lower_is_better: true }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, lower_is_better: false }
}

/// What an untraced run (`--trace 0`) reports.
pub const END_TO_END: [MetricDef; 3] =
    [lower("table_s", "s"), lower("setup_s", "s"), lower("peak_rss_mb", "MB")];

/// What a traced run (`--trace 1`) reports.
pub const PER_LAYER: [MetricDef; 37] = [
    lower("data.generate_ms", "ms"),
    lower("data.records", "count"),
    lower("data.vertices", "count"),
    lower("data.cache_misses_timed", "count"),
    lower("core.ingest_ms", "ms"),
    lower("index.partition_ms", "ms"),
    lower("index.replication", "ratio"),
    lower("index.global_join_ms", "ms"),
    lower("index.cell_pairs", "count"),
    lower("index.filter_ms", "ms"),
    lower("index.filter_calls", "count"),
    lower("index.filter_us_per_call", "us"),
    lower("index.candidates", "count"),
    lower("index.filter_tests", "count"),
    lower("geom.refine_ms", "ms"),
    higher("geom.refine_hit_ratio", "ratio"),
    lower("mapreduce.job_ms", "ms"),
    lower("mapreduce.streaming_job_ms", "ms"),
    lower("mapreduce.tasks", "count"),
    lower("rdd.job_ms", "ms"),
    lower("par.dispatch_us", "us"),
    lower("par.serial_call_us", "us"),
    lower("core.hadoopgis.cell_ms", "ms"),
    lower("core.spatialhadoop.cell_ms", "ms"),
    lower("core.spatialspark.cell_ms", "ms"),
    lower("core.failed_cell_ms", "ms"),
    lower("core.slowest_cell_ms", "ms"),
    lower("core.config_repeat_share", "ratio"),
    lower("cluster.attempts", "count"),
    lower("cluster.speculative", "count"),
    lower("cluster.recovery_events", "count"),
    lower("cluster.wasted_sim_s", "s"),
    lower("cluster.hdfs_bytes", "bytes"),
    lower("cluster.shuffle_bytes", "bytes"),
    lower("cell_error_rate", "ratio"),
    lower("trace.table_s", "s"),
    lower("trace.overhead_s", "s"),
];

fn definition(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}

/// The result of one run: the object the last stdout line carries.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Values in the order of the definitions they were built from.
    pub metrics: Vec<(&'static MetricDef, f64)>,
}

impl RunResult {
    /// Pairs every definition in `defs` with its value from `values`.
    /// Panics when one is missing or `values` names one not in `defs`: the
    /// output must carry exactly the declared metrics.
    pub fn new(
        attempted: u64,
        failed: u64,
        defs: &'static [MetricDef],
        mut values: BTreeMap<&'static str, f64>,
    ) -> RunResult {
        let metrics = defs
            .iter()
            .map(|d| {
                let v = values.remove(d.name);
                (d, v.unwrap_or_else(|| panic!("metric {} was not measured", d.name)))
            })
            .collect();
        assert!(values.is_empty(), "undeclared metrics: {:?}", values.keys());
        RunResult { correct: failed == 0 && attempted > 0, attempted, failed, metrics }
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(d, v)| {
                let unit = Json::Str(d.unit.to_string());
                let m = Json::obj(vec![("value", Json::Float(*v)), ("unit", unit)]);
                (d.name.to_string(), m)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// `json` on one line. Strings escape their newlines, so every newline of
/// the pretty form is layout and can go with the indentation after it.
pub fn one_line(json: &Json) -> String {
    json.to_string_pretty().lines().map(str::trim_start).collect()
}

/// Appends one result line, tagged with its workload, seed and trace flag,
/// to the result set at `path`.
pub fn record(
    path: &Path,
    workload: &str,
    seed: u64,
    trace: bool,
    result: &RunResult,
) -> std::io::Result<()> {
    use std::io::Write as _;
    let line = Json::obj(vec![
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::Int(seed)),
        ("trace", Json::Int(u64::from(trace))),
        ("result", result.to_json()),
    ]);
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{}", one_line(&line))
}

/// A result set: every value of every (workload, metric), plus the count
/// of runs that failed their checks.
#[derive(Debug, Default)]
pub struct ResultSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    incorrect: usize,
}

impl ResultSet {
    /// Parses a result set written by [`record`] (one JSON object a line).
    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let mut set = ResultSet::default();
        for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            let bad = |what: &str| format!("line {}: {what}", i + 1);
            let v = baseline::parse(line).map_err(|e| bad(&e.to_string()))?;
            let workload = match v.get("workload") {
                Some(Value::Str(w)) => w.clone(),
                _ => return Err(bad("no workload")),
            };
            let result = v.get("result").ok_or_else(|| bad("no result"))?;
            if result.get("correct") != Some(&Value::Bool(true)) {
                set.incorrect += 1;
            }
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                return Err(bad("no metrics object"));
            };
            for (name, m) in metrics {
                let value =
                    m.get("value").and_then(Value::as_f64).ok_or_else(|| bad("metric value"))?;
                set.values.entry((workload.clone(), name.clone())).or_default().push(value);
            }
        }
        Ok(set)
    }
}

/// Compares a change's result set against its parent's. Per workload and
/// metric it prints both medians with their quartiles and the change in
/// the median, and flags a change only when the medians differ by more than
/// the distance between the parent's quartiles. Returns the report and
/// whether any metric got worse beyond that spread (or any change run
/// failed its checks).
pub fn compare(parent: &ResultSet, change: &ResultSet) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = change.incorrect > 0;
    let _ = writeln!(
        out,
        "{:<14} {:<28} {:>30} {:>30} {:>9}  verdict",
        "workload", "metric", "parent median [q1, q3] n", "change median [q1, q3] n", "delta"
    );
    for ((workload, metric), pv) in &parent.values {
        let Some(cv) = change.values.get(&(workload.clone(), metric.clone())) else {
            let _ = writeln!(out, "{workload:<14} {metric:<28} missing from the change's set");
            continue;
        };
        let (Some(p), Some(c)) = (Summary::of(pv), Summary::of(cv)) else { continue };
        let delta = c.median - p.median;
        let verdict = match definition(metric) {
            _ if delta.abs() <= p.q3 - p.q1 => "within parent spread",
            Some(d) if (delta > 0.0) == d.lower_is_better => {
                regressed = true;
                "WORSE"
            }
            Some(_) => "better",
            None => "changed",
        };
        let rel = if p.median == 0.0 { 0.0 } else { 100.0 * delta / p.median.abs() };
        let _ = writeln!(
            out,
            "{workload:<14} {metric:<28} {:>30} {:>30} {rel:>+8.2}%  {verdict}",
            fmt_summary(&p),
            fmt_summary(&c),
        );
    }
    if change.incorrect > 0 {
        let _ = writeln!(out, "{} run(s) of the change failed their checks", change.incorrect);
    }
    (out, regressed)
}

fn fmt_summary(s: &Summary) -> String {
    format!("{:.4} [{:.4}, {:.4}] {}", s.median, s.q1, s.q3, s.n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(table_s: f64) -> RunResult {
        let values =
            BTreeMap::from([("table_s", table_s), ("setup_s", 0.1), ("peak_rss_mb", 25.0)]);
        RunResult::new(12, 0, &END_TO_END, values)
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = one_line(&result(0.8123).to_json());
        assert!(!line.contains('\n'));
        let v = baseline::parse(&line).expect("one-line JSON parses");
        let Value::Obj(fields) = &v else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let table = v.get("metrics").and_then(|m| m.get("table_s")).expect("table_s");
        assert_eq!(table.get("value").and_then(Value::as_f64), Some(0.8123));
        assert_eq!(table.get("unit"), Some(&Value::Str("s".to_string())));
    }

    #[test]
    fn a_failed_check_makes_the_result_incorrect() {
        let values = BTreeMap::from([("table_s", 1.0), ("setup_s", 0.1), ("peak_rss_mb", 25.0)]);
        assert!(!RunResult::new(12, 1, &END_TO_END, values).correct);
    }

    #[test]
    #[should_panic(expected = "peak_rss_mb")]
    fn every_declared_metric_must_be_measured() {
        RunResult::new(1, 0, &END_TO_END, BTreeMap::from([("table_s", 1.0), ("setup_s", 0.1)]));
    }

    fn set(workload: &str, values: &[f64]) -> ResultSet {
        let dir =
            std::env::temp_dir().join(format!("paperbench-{}-{workload}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        for &v in values {
            record(&dir, workload, 1, false, &result(v)).expect("append");
        }
        let text = std::fs::read_to_string(&dir).expect("read back");
        std::fs::remove_file(&dir).expect("clean up");
        ResultSet::parse(&text).expect("parse")
    }

    #[test]
    fn compare_flags_only_changes_beyond_the_parent_spread() {
        let parent = set("p", &[1.00, 1.02, 0.98, 1.01, 0.99]);
        let same = set("p", &[1.01, 0.99, 1.00, 1.02, 0.98]);
        let (text, regressed) = compare(&parent, &same);
        assert!(!regressed, "{text}");
        assert!(text.contains("within parent spread"));

        let slower = set("p", &[1.20, 1.22, 1.18, 1.21, 1.19]);
        let (text, regressed) = compare(&parent, &slower);
        assert!(regressed, "{text}");
        assert!(text.contains("WORSE"));

        let faster = set("p", &[0.80, 0.82, 0.78, 0.81, 0.79]);
        let (text, regressed) = compare(&parent, &faster);
        assert!(!regressed, "{text}");
        assert!(text.contains("better"));
    }

    #[test]
    fn metric_names_follow_the_contract() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, m) in all.iter().enumerate() {
            let ok = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-';
            assert!(m.name.len() <= 64 && m.name.chars().all(ok), "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(all[..i].iter().all(|o| o.name != m.name), "duplicate {}", m.name);
        }
    }
}

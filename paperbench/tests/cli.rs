//! The benchmark binary end to end: the result line carries exactly the
//! metrics `BENCHMARK.json` declares, the traced run writes its spans, and
//! the compare mode reads what `--record` writes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use sjc_bench::baseline::{self, Value};

const EXE: &str = env!("CARGO_BIN_EXE_paperbench");

fn run(args: &[&str]) -> Output {
    Command::new(EXE).args(args).output().expect("benchmark binary runs")
}

fn last_line_json(out: &Output) -> Value {
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    baseline::parse(stdout.lines().last().expect("a result line")).expect("one JSON object")
}

fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = baseline::parse(&text).expect("BENCHMARK.json parses");
    let Some(Value::Arr(metrics)) = doc.get(section) else { panic!("no {section}") };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("metric without name or unit"),
        })
        .collect()
}

fn reported(result: &Value) -> Vec<(String, String)> {
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).is_some_and(|n| n >= 24));
    let Some(Value::Obj(metrics)) = result.get("metrics") else { panic!("no metrics") };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Value::as_f64).is_some_and(f64::is_finite), "{name}");
            match m.get("unit") {
                Some(Value::Str(u)) => (name.clone(), u.clone()),
                _ => panic!("{name} has no unit"),
            }
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn untraced_run_reports_the_end_to_end_metrics_and_compares_with_itself() {
    let set = scratch("e2e-set.jsonl");
    let set_arg = set.to_str().expect("utf-8 path");
    let args = ["--workload", "table3", "--seed", "11", "--seconds", "0.5", "--trace", "0"];
    let out = run(&[&args[..], &["--record", set_arg]].concat());
    let result = last_line_json(&out);
    assert_eq!(reported(&result), declared("end_to_end"));

    let out = run(&["compare", set_arg, set_arg]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("table3") && text.contains("table_s"), "{text}");
    assert!(!text.contains("WORSE"), "{text}");
}

#[test]
fn traced_run_reports_every_layer_metric_and_writes_its_spans() {
    let out =
        run(&["--workload", "table3_faults", "--seed", "12", "--seconds", "0.5", "--trace", "1"]);
    let result = last_line_json(&out);
    assert_eq!(reported(&result), declared("per_layer"));
    let metric = |name: &str| {
        result.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value")).cloned()
    };
    assert_eq!(metric("data.cache_misses_timed"), Some(Value::Num(0.0)));
    assert!(matches!(metric("cluster.recovery_events"), Some(Value::Num(n)) if n > 0.0));

    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/table3_faults-12.trace.json");
    let doc = baseline::parse(&std::fs::read_to_string(trace).expect("trace written"))
        .expect("trace parses");
    let Some(Value::Arr(events)) = doc.get("traceEvents") else { panic!("no traceEvents") };
    for layer in
        ["grid", "cell.spatialhadoop", "data.generate", "index.filter", "geom.refine", "rdd.job"]
    {
        assert!(
            events.iter().any(|e| e.get("name") == Some(&Value::Str(layer.to_string()))),
            "no {layer} span"
        );
    }
}

#[test]
fn bad_arguments_exit_with_usage_and_no_result() {
    for args in [&["--workload", "table4"][..], &["--workload"], &["--trace", "1"]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    }
}

#[test]
fn package_is_clean_under_the_repository_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let violations = sjc_lint::check_all(root).expect("lint scans the package");
    assert!(violations.is_empty(), "{violations:#?}");
}

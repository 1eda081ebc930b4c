//! `paperbench` — the repository's end-to-end benchmark: the paper's
//! Table 2 and Table 3 grids through their public entry points, every cell
//! checked, plus a traced run that times each layer from outside.
//!
//! ```text
//! paperbench --workload table2|table3|table3_faults [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//! paperbench compare PARENT_SET CHANGE_SET
//! ```
//!
//! The last stdout line of a run is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` in this
//! directory for the workloads, the metrics and what each layer metric
//! should move.

mod grids;
mod layers;
mod report;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use sjc_cluster::RunTrace;
use sjc_core::experiment::{CellResult, ExperimentGrid, SystemKind};

use crate::grids::{Bench, Checker, TimedGrid, DEFAULT_SEED, SCALE};
use crate::report::{RunResult, END_TO_END, PER_LAYER};
use crate::stats::{median, Summary};
use crate::trace::{now, Tracer};

/// `sjc_par` thread budget (capped at the host's parallelism): two threads,
/// never `perfsnap`'s oversubscribed @4/@8 rungs.
const THREADS: usize = 2;

/// Cold `Workload::prepare` probes per run; `setup_s` is their median.
const SETUP_PROBES: usize = 7;

/// Fewest grids a run times, so repeat-identity is always checked.
const MIN_GRIDS: usize = 2;

const USAGE: &str = "usage:
  paperbench --workload table2|table3|table3_faults [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
  paperbench compare PARENT_SET CHANGE_SET";

struct RunArgs {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
    /// Internal: time one cold `prepare` of the workload and exit.
    setup_probe: bool,
}

enum Mode {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, parent, change] => Ok(Mode::Compare(parent.into(), change.into())),
            _ => Err("compare takes two result sets".to_string()),
        };
    }
    let mut bench = None;
    let mut run = RunArgs {
        bench: Bench::Table2,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        record: None,
        setup_probe: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                bench = Some(Bench::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds.is_finite() && run.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--record" => run.record = Some(value()?.into()),
            "--setup-probe" => run.setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    run.bench = bench.ok_or("--workload is required")?;
    Ok(Mode::Run(run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Err(e) => {
            eprintln!("paperbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Mode::Compare(parent, change)) => compare(&parent, &change),
        Ok(Mode::Run(run)) => {
            sjc_par::set_global_threads(THREADS);
            if run.setup_probe {
                setup_probe(run.bench, run.seed)
            } else {
                bench(&run)
            }
        }
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("paperbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn compare(parent: &Path, change: &Path) -> Result<ExitCode, String> {
    let load = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        report::ResultSet::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (text, regressed) = report::compare(&load(parent)?, &load(change)?);
    print!("{text}");
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Child side of `setup_s`: one cold `Workload::prepare` of each join, in a
/// fresh process so the dataset cache is empty.
fn setup_probe(bench: Bench, seed: u64) -> Result<ExitCode, String> {
    let start = now();
    for w in bench.workloads() {
        std::hint::black_box(w.prepare(SCALE, seed));
    }
    println!("{}", start.elapsed().as_secs_f64());
    Ok(ExitCode::SUCCESS)
}

/// Parent side of `setup_s`: runs the probes one after another and returns
/// their times in seconds.
fn setup_times(bench: Bench, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = seed.to_string();
    (0..SETUP_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", "--workload", bench.name(), "--seed", &seed])
                .output()
                .map_err(|e| format!("setup probe: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            match stdout.lines().last().map(str::parse::<f64>) {
                Some(Ok(s)) if out.status.success() => Ok(s),
                _ => Err(format!(
                    "setup probe failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                )),
            }
        })
        .collect()
}

/// The measured run.
fn bench(run: &RunArgs) -> Result<ExitCode, String> {
    let b = run.bench;
    let setup = if run.trace { Vec::new() } else { setup_times(b, run.seed)? };

    let mut tracer = Tracer::default();
    let root = tracer.open(b.name(), None);

    // Warm-up: the oracle fills the dataset cache, and one untimed grid
    // builds the worker pool and pays the first grid's extra cost (measured
    // at up to 40% over a steady table3 grid).
    let mut checker = Checker::new(b, run.seed);
    let grid = ExperimentGrid { scale: SCALE, seed: run.seed };
    let first = tracer.span("grid.warmup", Some(root), || b.run(&grid));
    let mut attempted = first.len() as u64;
    let mut failed = checker.check(&first) as u64;

    let (_, misses_before) = sjc_data::cache::cache_stats();
    let mut untraced: Vec<f64> = Vec::new();
    let mut traced: Vec<TimedGrid> = Vec::new();
    let mut traced_s: Vec<f64> = Vec::new();
    let budget = Duration::from_secs_f64(run.seconds);
    let start = now();
    while untraced.len() < MIN_GRIDS || start.elapsed() < budget {
        let t = now();
        let cells = b.run(&grid);
        let end = now();
        untraced.push((end - t).as_secs_f64());
        if run.trace {
            tracer.record("grid.untraced", Some(root), t, end);
        }
        attempted += cells.len() as u64;
        failed += checker.check(&cells) as u64;

        if run.trace {
            let id = tracer.open("grid", Some(root));
            let t = now();
            let timed = b.run_cells(&grid);
            traced_s.push(t.elapsed().as_secs_f64());
            tracer.close(id);
            for &(s, e) in &timed.prepares {
                tracer.record("prepare", Some(id), s, e);
            }
            for (c, &(s, e)) in timed.cells.iter().zip(&timed.cell_times) {
                tracer.record(grids::cell_span(c.system), Some(id), s, e);
            }
            attempted += timed.cells.len() as u64;
            failed += checker.check(&timed.cells) as u64;
            traced.push(timed);
        }
    }
    let (_, misses_after) = sjc_data::cache::cache_stats();

    let table = Summary::of(&untraced).ok_or("no grid ran")?;
    println!(
        "paperbench {}: seed {}, scale {SCALE:e}, {} threads, {} cells per grid",
        b.name(),
        run.seed,
        sjc_par::Budget::resolve().effective_threads(),
        b.cell_count(),
    );
    print_summary("table_s", "s", &table, "grids");

    let result = if run.trace {
        let layers_id = tracer.open("layers", Some(root));
        let counts = layers::replay(&b.workloads(), run.seed, &mut tracer, layers_id)
            .map_err(|e| format!("layer replay: {e}"))?;
        tracer.close(layers_id);
        tracer.close(root);
        let path = trace_path(b, run.seed);
        tracer.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  trace        {} spans in {}", tracer.spans().len(), path.display());

        let traced_table = Summary::of(&traced_s).ok_or("no traced grid ran")?;
        print_summary("trace.table_s", "s", &traced_table, "traced grids");
        let mut m = layer_metrics(&tracer, &counts);
        m.extend(cell_metrics(&traced));
        m.extend(cluster_metrics(&first));
        m.insert("data.cache_misses_timed", (misses_after - misses_before) as f64);
        m.insert("cell_error_rate", failed as f64 / attempted.max(1) as f64);
        m.insert("trace.table_s", traced_table.median);
        m.insert("trace.overhead_s", traced_table.median - table.median);
        RunResult::new(attempted, failed, &PER_LAYER, m)
    } else {
        let setup = Summary::of(&setup).ok_or("no setup probe ran")?;
        print_summary("setup_s", "s", &setup, "cold prepares");
        let rss = peak_rss_mb()?;
        println!("  peak_rss_mb  {rss:.1} MB");
        let m = BTreeMap::from([
            ("table_s", table.median),
            ("setup_s", setup.median),
            ("peak_rss_mb", rss),
        ]);
        RunResult::new(attempted, failed, &END_TO_END, m)
    };
    println!("  checks       {failed} of {attempted} cells failed");
    if let Some(path) = &run.record {
        report::record(path, b.name(), run.seed, run.trace, &result)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report::one_line(&result.to_json()));
    Ok(ExitCode::SUCCESS)
}

fn print_summary(name: &str, unit: &str, s: &Summary, of: &str) {
    println!(
        "  {name:<12} median {:.4} {unit} (q1 {:.4}, q3 {:.4}; n = {} {of})",
        s.median, s.q1, s.q3, s.n
    );
}

/// Where a traced run writes its spans: `out/` next to this package's
/// manifest, inside the checkout the benchmark was built in.
fn trace_path(b: Bench, seed: u64) -> PathBuf {
    let name = format!("{}-{seed}.trace.json", b.name());
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(name)
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Layer self times from the replay's spans, plus its work counts.
fn layer_metrics(tracer: &Tracer, n: &layers::LayerCounts) -> BTreeMap<&'static str, f64> {
    let ms = |span: &str| tracer.self_ms(span);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let filter_ms = ms("index.filter");
    BTreeMap::from([
        ("data.generate_ms", ms("data.generate")),
        ("data.records", n.records as f64),
        ("data.vertices", n.vertices as f64),
        ("core.ingest_ms", ms("core.ingest")),
        ("index.partition_ms", ms("index.partition")),
        ("index.replication", ratio(n.assignments, n.records)),
        ("index.global_join_ms", ms("index.global_join")),
        ("index.cell_pairs", n.cell_pairs as f64),
        ("index.filter_ms", filter_ms),
        ("index.filter_calls", n.filter_calls as f64),
        ("index.filter_us_per_call", 1e3 * filter_ms / n.filter_calls.max(1) as f64),
        ("index.candidates", n.candidates as f64),
        ("index.filter_tests", n.filter_tests as f64),
        ("geom.refine_ms", ms("geom.refine")),
        ("geom.refine_hit_ratio", ratio(n.refine_hits, n.candidates)),
        ("mapreduce.job_ms", ms("mapreduce.job")),
        ("mapreduce.streaming_job_ms", ms("mapreduce.streaming_job")),
        ("mapreduce.tasks", n.mapreduce_tasks as f64),
        ("rdd.job_ms", ms("rdd.job")),
        ("par.dispatch_us", n.par_dispatch_us),
        ("par.serial_call_us", n.par_serial_call_us),
    ])
}

/// Per-cell host times of the traced grids, each the median over grids.
fn cell_metrics(grids: &[TimedGrid]) -> BTreeMap<&'static str, f64> {
    let per_grid = |f: &dyn Fn(&TimedGrid) -> f64| {
        median(&grids.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let cells_ms = |g: &TimedGrid, keep: &dyn Fn(&CellResult) -> bool| -> f64 {
        g.cell_ms().filter(|(c, _)| keep(c)).map(|(_, ms)| ms).sum()
    };
    let system_ms = |sys: SystemKind| per_grid(&|g| cells_ms(g, &|c| c.system == sys));
    BTreeMap::from([
        ("core.hadoopgis.cell_ms", system_ms(SystemKind::HadoopGis)),
        ("core.spatialhadoop.cell_ms", system_ms(SystemKind::SpatialHadoop)),
        ("core.spatialspark.cell_ms", system_ms(SystemKind::SpatialSpark)),
        ("core.failed_cell_ms", per_grid(&|g| cells_ms(g, &|c| c.outcome.is_err()))),
        ("core.slowest_cell_ms", per_grid(&|g| g.cell_ms().map(|(_, ms)| ms).fold(0.0, f64::max))),
        ("core.config_repeat_share", per_grid(&config_repeat_share)),
    ])
}

/// Share of the grid's cell time that each (system, join) spends beyond
/// `configs × its fastest config` — the work a config-independent data
/// plane would not repeat.
fn config_repeat_share(g: &TimedGrid) -> f64 {
    let mut groups: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for (c, ms) in g.cell_ms() {
        groups.entry((c.system.paper_name(), c.workload)).or_default().push(ms);
    }
    let total: f64 = groups.values().flatten().sum();
    let beyond: f64 = groups
        .values()
        .map(|ms| {
            let fastest = ms.iter().copied().fold(f64::INFINITY, f64::min);
            ms.iter().sum::<f64>() - ms.len() as f64 * fastest
        })
        .sum();
    if total > 0.0 {
        beyond / total
    } else {
        0.0
    }
}

/// Exact simulated counts of the successful cells of one grid.
fn cluster_metrics(cells: &[CellResult]) -> BTreeMap<&'static str, f64> {
    let sum = |f: &dyn Fn(&RunTrace) -> u64| grids::traces(cells).map(f).sum::<u64>() as f64;
    BTreeMap::from([
        ("cluster.attempts", sum(&|t| t.total_attempts())),
        ("cluster.speculative", sum(&|t| t.stages.iter().map(|s| s.speculative).sum())),
        ("cluster.recovery_events", sum(&|t| t.recovery.len() as u64)),
        ("cluster.wasted_sim_s", sum(&|t| t.total_wasted_ns()) / 1e9),
        ("cluster.hdfs_bytes", sum(&|t| t.hdfs_bytes())),
        ("cluster.shuffle_bytes", sum(&|t| t.stages.iter().map(|s| s.shuffle_bytes).sum())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Mode, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_run_arguments() {
        let Ok(Mode::Run(r)) =
            args(&["--workload", "table3", "--seed", "5", "--seconds", "10", "--trace", "1"])
        else {
            panic!("run mode expected");
        };
        assert_eq!((r.bench, r.seed, r.seconds, r.trace), (Bench::Table3, 5, 10.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&[]).is_err(), "workload is required");
        assert!(args(&["--workload", "table9"]).is_err());
        assert!(args(&["--workload", "table2", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "table2", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "table2", "--seed"]).is_err());
        assert!(args(&["compare", "one"]).is_err());
    }
}

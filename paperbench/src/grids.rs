//! The benchmark's workloads — the paper's grids — and the checks every
//! cell must pass.

use std::collections::BTreeMap;
use std::time::Instant;

use sjc_cluster::{ClusterConfig, FaultPlan, RunTrace};
use sjc_core::common::direct_join;
use sjc_core::experiment::{CellResult, ExperimentGrid, SystemKind, Workload};
use sjc_core::framework::JoinPredicate;
use sjc_core::report;
use sjc_geom::GeometryEngine;

use crate::trace::now;

/// Generation scale: the `reproduce` default, where every cell fails or
/// succeeds as in the paper (at 1e-4 and 3e-4 SpatialSpark runs out of
/// memory on edge-linearwater where the paper's run succeeded).
pub const SCALE: f64 = 1e-3;

/// The `reproduce` default seed; the pinned check values hold for it.
pub const DEFAULT_SEED: u64 = 20150701;

/// Seed of the `table3_faults` fault plan: the one `perfsnap`'s fault sweep
/// uses. It is fixed, not taken from `--seed`, because the heavy plan's 8%
/// disk-error rate exhausts `MAX_TASK_ATTEMPTS` somewhere in the grid for
/// most plan seeds (20150701 and 1–3 all do), which would make every seed a
/// different grid. With this plan every dataset seed tried keeps the
/// paper's 10 successes; the datasets still vary with `--seed`.
const FAULT_SEED: u64 = 7;

/// On multi-node configs the fault plan also crashes this node ...
const CRASH_NODE: u32 = 2;
/// ... at this simulated instant (30 s).
const CRASH_AT_NS: u64 = 30_000_000_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// `ExperimentGrid::table2()`: 2 full-scale joins × 4 configs × 3
    /// systems, 24 cells, 12 of which succeed.
    Table2,
    /// `ExperimentGrid::table3()`: the sampled inputs on WS and EC2-10,
    /// 12 cells, 10 of which succeed.
    Table3,
    /// The Table 3 cells under the heavy fault plan.
    Table3Faults,
}

impl Bench {
    pub const ALL: [Bench; 3] = [Bench::Table2, Bench::Table3, Bench::Table3Faults];

    pub fn name(self) -> &'static str {
        match self {
            Bench::Table2 => "table2",
            Bench::Table3 => "table3",
            Bench::Table3Faults => "table3_faults",
        }
    }

    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The two joins of the grid.
    pub fn workloads(self) -> [Workload; 2] {
        match self {
            Bench::Table2 => [Workload::taxi_nycb(), Workload::edge_linearwater()],
            Bench::Table3 | Bench::Table3Faults => {
                [Workload::taxi1m_nycb(), Workload::edge01_linearwater01()]
            }
        }
    }

    fn configs(self) -> Vec<ClusterConfig> {
        match self {
            Bench::Table2 => ClusterConfig::paper_configs(),
            Bench::Table3 | Bench::Table3Faults => {
                vec![ClusterConfig::workstation(), ClusterConfig::ec2(10)]
            }
        }
    }

    fn fault_plan(self, config: &ClusterConfig) -> FaultPlan {
        match self {
            Bench::Table2 | Bench::Table3 => FaultPlan::none(),
            Bench::Table3Faults => {
                let plan = FaultPlan::heavy(FAULT_SEED, config);
                if config.nodes > 1 {
                    plan.crash_at(CRASH_NODE, CRASH_AT_NS)
                } else {
                    plan
                }
            }
        }
    }

    /// Number of cells in one grid.
    pub fn cell_count(self) -> usize {
        2 * 3 * self.configs().len()
    }

    /// Whether the paper reports the cell as a success.
    fn paper_succeeds(self, workload: &str, system: SystemKind, config: &str) -> bool {
        let system = system.paper_name();
        match self {
            Bench::Table2 => report::paper_table2(workload, system, config).is_some(),
            Bench::Table3 | Bench::Table3Faults => report::PAPER_TABLE3
                .iter()
                .any(|(w, s, c, v)| *w == workload && *s == system && *c == config && v.is_some()),
        }
    }

    /// `(summed sim_ns, summed pairs)` of the successful cells for
    /// [`DEFAULT_SEED`].
    fn pinned(self) -> (u64, u64) {
        match self {
            Bench::Table2 => (29_675_244_913_898, 1_001_628),
            Bench::Table3 => (9_236_550_626_162, 72_105),
            Bench::Table3Faults => (14_588_705_348_745, 72_105),
        }
    }

    /// One grid through the public entry points, untraced.
    pub fn run(self, grid: &ExperimentGrid) -> Vec<CellResult> {
        match self {
            Bench::Table2 => grid.table2(),
            Bench::Table3 => grid.table3(),
            Bench::Table3Faults => self.run_cells(grid).cells,
        }
    }

    /// One grid cell by cell, in `ExperimentGrid`'s order and with its
    /// parallelism: per join, `prepare` and then every (system, config)
    /// cell through `sjc_par::par_map`, each timed on the thread it ran on.
    pub fn run_cells(self, grid: &ExperimentGrid) -> TimedGrid {
        let configs = self.configs();
        let cells: Vec<(SystemKind, &ClusterConfig)> = SystemKind::all()
            .into_iter()
            .flat_map(|sys| configs.iter().map(move |cfg| (sys, cfg)))
            .collect();
        let mut out = TimedGrid::default();
        for w in self.workloads() {
            let start = now();
            let (left, right) = w.prepare(grid.scale, grid.seed);
            out.prepares.push((start, now()));
            let timed = sjc_par::par_map(&cells, |(sys, cfg)| {
                let start = now();
                let plan = self.fault_plan(cfg);
                let cell = grid.run_cell_faulted(*sys, cfg, &w, &left, &right, &plan);
                (cell, (start, now()))
            });
            for (cell, interval) in timed {
                out.cells.push(cell);
                out.cell_times.push(interval);
            }
        }
        out
    }
}

/// A grid run cell by cell, with host-time intervals.
#[derive(Default)]
pub struct TimedGrid {
    /// `prepare` interval of each join.
    pub prepares: Vec<(Instant, Instant)>,
    pub cells: Vec<CellResult>,
    /// Interval of each cell, in `cells` order.
    pub cell_times: Vec<(Instant, Instant)>,
}

impl TimedGrid {
    /// Each cell with its wall time in milliseconds.
    pub fn cell_ms(&self) -> impl Iterator<Item = (&CellResult, f64)> {
        let ms = |&(s, e): &(Instant, Instant)| (e - s).as_secs_f64() * 1e3;
        self.cells.iter().zip(self.cell_times.iter().map(ms))
    }
}

/// Span name of one cell of `system`.
pub fn cell_span(system: SystemKind) -> &'static str {
    match system {
        SystemKind::HadoopGis => "cell.hadoopgis",
        SystemKind::SpatialHadoop => "cell.spatialhadoop",
        SystemKind::SpatialSpark => "cell.spatialspark",
    }
}

/// Checks grids of one workload against the paper's outcome pattern, a
/// brute-force oracle, the first grid's simulated times and, for the
/// default seed, the pinned sums.
pub struct Checker {
    bench: Bench,
    /// Oracle pair count per join name.
    oracle: BTreeMap<&'static str, u64>,
    /// Per-cell `sim_ns` of the first grid checked (`None` = failed cell).
    reference: Option<Vec<Option<u64>>>,
    pinned: Option<(u64, u64)>,
    /// Mismatches already printed, to keep stderr short.
    reported: usize,
}

impl Checker {
    /// Computes the oracle: `common::direct_join` over the whole inputs
    /// (reading the dataset cache, so it also warms it).
    pub fn new(bench: Bench, seed: u64) -> Checker {
        let jts = GeometryEngine::jts();
        let oracle = bench
            .workloads()
            .iter()
            .map(|w| {
                let (l, r) = w.prepare(SCALE, seed);
                let pairs = direct_join(&jts, JoinPredicate::Intersects, &l.records, &r.records);
                (w.name, pairs.len() as u64)
            })
            .collect();
        let pinned = (seed == DEFAULT_SEED).then(|| bench.pinned());
        Checker { bench, oracle, reference: None, pinned, reported: 0 }
    }

    /// Checks one grid; returns how many of its cells fail a check. A
    /// wrong cell count or a pinned-sum mismatch fails the whole grid.
    pub fn check(&mut self, cells: &[CellResult]) -> usize {
        let sims: Vec<Option<u64>> =
            cells.iter().map(|c| c.outcome.as_ref().ok().map(|s| s.trace.total_ns())).collect();
        if cells.len() != self.bench.cell_count() {
            self.report(format!("{} cells, expected {}", cells.len(), self.bench.cell_count()));
            return self.bench.cell_count().max(cells.len());
        }
        let reference = self.reference.get_or_insert_with(|| sims.clone()).clone();
        let mut failed = 0;
        for (i, cell) in cells.iter().enumerate() {
            if let Err(why) = self.check_cell(cell, sims[i], reference[i]) {
                self.report(format!(
                    "{} {} {}: {why}",
                    cell.workload,
                    cell.system.paper_name(),
                    cell.cluster
                ));
                failed += 1;
            }
        }
        if let Some((ns, pairs)) = self.pinned {
            let got_ns: u64 = sims.iter().flatten().sum();
            let got_pairs: u64 =
                cells.iter().filter_map(|c| c.outcome.as_ref().ok()).map(|s| s.pairs).sum();
            if (got_ns, got_pairs) != (ns, pairs) {
                self.report(format!(
                    "grid sums {got_ns} ns / {got_pairs} pairs, pinned {ns} ns / {pairs} pairs"
                ));
                return cells.len();
            }
        }
        failed
    }

    fn check_cell(
        &self,
        cell: &CellResult,
        sim: Option<u64>,
        reference: Option<u64>,
    ) -> Result<(), String> {
        let expect_ok = self.bench.paper_succeeds(cell.workload, cell.system, &cell.cluster);
        match (&cell.outcome, expect_ok) {
            (Ok(_), false) => return Err("succeeded where the paper's run failed".to_string()),
            (Err(e), true) => return Err(format!("failed ({e}) where the paper's run succeeded")),
            _ => {}
        }
        if let Ok(summary) = &cell.outcome {
            let want = self.oracle.get(cell.workload).copied();
            if want != Some(summary.pairs) {
                return Err(format!("{} pairs, oracle {want:?}", summary.pairs));
            }
        }
        if sim != reference {
            return Err(format!("sim_ns {sim:?} differs from the first grid's {reference:?}"));
        }
        Ok(())
    }

    fn report(&mut self, message: String) {
        const MAX_REPORTED: usize = 8;
        if self.reported < MAX_REPORTED {
            eprintln!("paperbench: check failed: {} {message}", self.bench.name());
        }
        self.reported += 1;
    }
}

/// The simulated traces of the successful cells.
pub fn traces(cells: &[CellResult]) -> impl Iterator<Item = &RunTrace> {
    cells.iter().filter_map(|c| c.outcome.as_ref().ok()).map(|s| &s.trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_cluster::metrics::Phase;
    use sjc_cluster::{StageKind, StageTrace};
    use sjc_core::experiment::RunSummary;

    #[test]
    fn names_round_trip() {
        for b in Bench::ALL {
            assert_eq!(Bench::parse(b.name()), Some(b));
        }
        assert_eq!(Bench::parse("table4"), None);
    }

    #[test]
    fn paper_patterns_have_the_papers_success_counts() {
        let successes = |b: Bench| {
            let mut n = 0;
            for w in b.workloads() {
                for sys in SystemKind::all() {
                    for cfg in b.configs() {
                        n += usize::from(b.paper_succeeds(w.name, sys, &cfg.name));
                    }
                }
            }
            n
        };
        assert_eq!((Bench::Table2.cell_count(), successes(Bench::Table2)), (24, 12));
        assert_eq!((Bench::Table3.cell_count(), successes(Bench::Table3)), (12, 10));
        assert_eq!(successes(Bench::Table3Faults), 10);
    }

    /// A Table 3 grid shaped like the paper's: every paper success
    /// returns the oracle's pairs at 1000 simulated ns.
    fn paper_shaped_grid(checker: &Checker) -> Vec<CellResult> {
        let b = checker.bench;
        let mut cells = Vec::new();
        for w in b.workloads() {
            for system in SystemKind::all() {
                for cfg in b.configs() {
                    let outcome = if b.paper_succeeds(w.name, system, &cfg.name) {
                        let mut trace = RunTrace::new(system.paper_name());
                        let mut stage = StageTrace::new("s", StageKind::MapOnlyJob, Phase::IndexA);
                        stage.sim_ns = 1000;
                        trace.push(stage);
                        let pairs = checker.oracle[w.name];
                        Ok(RunSummary {
                            ia_s: 0.0,
                            ib_s: 0.0,
                            dj_s: 0.0,
                            total_s: 0.0,
                            pairs,
                            trace,
                        })
                    } else {
                        Err("broken pipe".to_string())
                    };
                    cells.push(CellResult { system, cluster: cfg.name, workload: w.name, outcome });
                }
            }
        }
        cells
    }

    #[test]
    fn every_kind_of_mismatch_fails_its_cell() {
        let oracle = BTreeMap::from([("taxi1m-nycb", 7), ("edge0.1-linearwater0.1", 5)]);
        let mut checker =
            Checker { bench: Bench::Table3, oracle, reference: None, pinned: None, reported: 0 };
        let good = paper_shaped_grid(&checker);
        assert_eq!(checker.check(&good), 0);
        assert_eq!(checker.check(&good), 0, "a repeat with identical sim_ns passes");

        let mut flipped = paper_shaped_grid(&checker);
        flipped[0].outcome = Err("out of memory".to_string());
        assert_eq!(checker.check(&flipped), 1, "a paper success that fails");

        let mut wrong_pairs = paper_shaped_grid(&checker);
        if let Ok(s) = &mut wrong_pairs[2].outcome {
            s.pairs += 1;
        }
        assert_eq!(checker.check(&wrong_pairs), 1, "pairs differ from the oracle");

        let mut drifted = paper_shaped_grid(&checker);
        if let Ok(s) = &mut drifted[3].outcome {
            s.trace.stages[0].sim_ns += 1;
        }
        assert_eq!(checker.check(&drifted), 1, "sim_ns differs from the first grid");

        assert_eq!(checker.check(&good[1..]), 12, "a missing cell fails the grid");

        // 10 successes at 1000 ns; 5 × 7 + 5 × 5 pairs.
        checker.pinned = Some((10_000, 61));
        assert_eq!(checker.check(&good), 12, "a pin mismatch fails every cell");
        checker.pinned = Some((10_000, 60));
        assert_eq!(checker.check(&good), 0, "matching pins pass");
    }

    #[test]
    fn only_the_fault_workload_injects_faults() {
        let ec2 = ClusterConfig::ec2(10);
        assert_eq!(Bench::Table3.fault_plan(&ec2), FaultPlan::none());
        assert_ne!(Bench::Table3Faults.fault_plan(&ec2), FaultPlan::none());
    }
}

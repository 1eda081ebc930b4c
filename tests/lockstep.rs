//! Lockstep equivalence: pricing one data-plane pass on several cluster
//! configurations gives every configuration exactly the run it gets alone —
//! the same stages (every field), the same recovery ledger, the same error
//! and the same pairs — with and without faults, at every thread budget.

use sjc_cluster::{Cluster, ClusterConfig, FaultPlan, SimError};
use sjc_core::experiment::{SystemKind, Workload};
use sjc_core::framework::{DistributedSpatialJoin, JoinPredicate};
use sjc_core::lde::LdeEngine;
use sjc_core::spatialspark::SpatialSpark;

/// Small enough to run every combination in seconds; large enough that
/// HadoopGIS breaks its pipe on Table 2 and faults land mid-stage.
const SCALE: f64 = 1e-4;
const SEEDS: [u64; 2] = [11, 20150701];

fn no_faults(_: &ClusterConfig) -> FaultPlan {
    FaultPlan::none()
}

/// The `table3_faults` plan: heavy faults, plus a crash of node 2 at 30 s
/// of simulated time on multi-node configs.
fn heavy(cfg: &ClusterConfig) -> FaultPlan {
    let plan = FaultPlan::heavy(7, cfg);
    if cfg.nodes > 1 {
        plan.crash_at(2, 30_000_000_000)
    } else {
        plan
    }
}

fn systems() -> Vec<Box<dyn DistributedSpatialJoin>> {
    let mut all: Vec<Box<dyn DistributedSpatialJoin>> =
        SystemKind::all().iter().map(SystemKind::instance).collect();
    all.push(Box::new(SpatialSpark { broadcast_join: true, ..SpatialSpark::default() }));
    all.push(Box::new(LdeEngine::default()));
    all
}

#[test]
fn lockstep_runs_match_one_config_runs() {
    let table3 = vec![ClusterConfig::workstation(), ClusterConfig::ec2(10)];
    let grids = [
        ([Workload::taxi_nycb(), Workload::edge_linearwater()], ClusterConfig::paper_configs()),
        ([Workload::taxi1m_nycb(), Workload::edge01_linearwater01()], table3),
    ];
    let plans: [fn(&ClusterConfig) -> FaultPlan; 2] = [no_faults, heavy];
    let (mut succeeded, mut failed) = (0, 0);
    for budget in [1, 2] {
        sjc_par::set_global_threads(budget);
        for (workloads, configs) in &grids {
            for w in workloads {
                for seed in SEEDS {
                    let (left, right) = w.prepare(SCALE, seed);
                    for plan_for in plans {
                        let clusters: Vec<Cluster> = configs
                            .iter()
                            .map(|c| Cluster::with_faults(c.clone(), plan_for(c)))
                            .collect();
                        for system in systems() {
                            let runs = system
                                .run_configs(&clusters, &left, &right, JoinPredicate::Intersects)
                                .expect("one cost model");
                            let mut pairs = runs.pairs.clone();
                            pairs.sort_unstable();
                            assert_eq!(runs.traces.len(), clusters.len());
                            for (cluster, shared) in clusters.iter().zip(runs.traces) {
                                let alone =
                                    system.run(cluster, &left, &right, JoinPredicate::Intersects);
                                let cell = format!(
                                    "{} {} {} seed {seed} budget {budget} faults {}",
                                    system.name(),
                                    w.name,
                                    cluster.config.name,
                                    !cluster.faults.is_none(),
                                );
                                match (alone, shared) {
                                    (Ok(alone), Ok(shared)) => {
                                        // Debug prints every stage field and
                                        // every recovery event.
                                        assert_eq!(
                                            format!("{:?}", alone.trace),
                                            format!("{shared:?}"),
                                            "{cell}"
                                        );
                                        assert_eq!(alone.sorted_pairs(), pairs, "{cell}");
                                        succeeded += 1;
                                    }
                                    (Err(alone), Err(shared)) => {
                                        assert_eq!(alone, shared, "{cell}");
                                        failed += 1;
                                    }
                                    (alone, shared) => panic!(
                                        "{cell}: alone {:?}, lockstep {:?}",
                                        alone.map(|o| o.trace.total_ns()),
                                        shared.map(|t| t.total_ns())
                                    ),
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    sjc_par::set_global_threads(0);
    assert!(
        succeeded > 0 && failed > 0,
        "both outcomes are exercised: {succeeded} ok, {failed} failed"
    );
}

#[test]
fn mixed_cost_models_are_rejected() {
    let (left, right) = Workload::taxi1m_nycb().prepare(SCALE, SEEDS[0]);
    let mut odd = Cluster::new(ClusterConfig::ec2(8));
    odd.cost.hadoop_task_overhead_ns *= 2;
    let clusters = [Cluster::new(ClusterConfig::workstation()), odd];
    for system in systems() {
        match system.run_configs(&clusters, &left, &right, JoinPredicate::Intersects) {
            Err(SimError::MixedCostModels { config }) => assert_eq!(config, "EC2-8"),
            other => panic!(
                "{}: expected a rejection, got {:?}",
                system.name(),
                other.map(|r| r.pairs.len())
            ),
        }
    }
}

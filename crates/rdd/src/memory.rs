//! Executor memory accounting — the OOM mechanism.
//!
//! Spark 1.1 (the paper's version) could not spill `groupByKey` state:
//! when a shuffle's materialized groups exceeded executor memory the job
//! died. We model executors one-per-node; partitions hash to executors
//! round-robin; at every shuffle materialization the *live* footprint per
//! executor (shuffle input still resident + shuffle output being built)
//! must fit in the node's usable memory.

use sjc_cluster::{Cluster, SimError};

/// Per-executor footprint of one RDD under Spark's dynamic task placement,
/// approximated by longest-processing-time balancing: the scheduler hands
/// the next partition to the least-loaded executor, so big partitions
/// spread out rather than stacking on one node.
pub fn per_executor_bytes(part_mem_full: &[u64], nodes: usize) -> Vec<u64> {
    let nodes = nodes.max(1);
    let mut out = vec![0u64; nodes];
    let mut sorted: Vec<u64> = part_mem_full.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    for m in sorted {
        // `out` holds nodes.max(1) >= 1 executors, so a minimum always exists.
        if let Some(min) = out.iter_mut().min_by_key(|b| **b) {
            *min += m;
        }
    }
    out
}

/// Checks that the live sets fit on every executor.
///
/// `live_rdds` are per-partition full-scale footprints of every dataset that
/// must be resident simultaneously during the materialization.
pub fn check_fits(cluster: &Cluster, stage: &str, live_rdds: &[&[u64]]) -> Result<(), SimError> {
    let nodes = cluster.config.nodes as usize;
    let usable = cluster.cost.spark_usable_memory(cluster.config.node.memory_bytes);
    // Pool all live partitions and balance them together — the scheduler
    // sees one task queue, not one queue per RDD.
    let all: Vec<u64> = live_rdds.iter().flat_map(|r| r.iter().copied()).collect();
    let per_exec = per_executor_bytes(&all, nodes);
    let needed = per_exec.iter().copied().max().unwrap_or(0);
    if needed > usable {
        return Err(SimError::OutOfMemory {
            stage: stage.to_string(),
            needed_bytes: needed,
            usable_bytes: usable,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_cluster::ClusterConfig;

    #[test]
    fn partitions_balance_across_executors() {
        // LPT placement: 40 and 30 land on different executors, then 20 and
        // 10 fill toward balance.
        let mut per = per_executor_bytes(&[10, 20, 30, 40], 2);
        per.sort_unstable();
        assert_eq!(per, vec![50, 50]);
        // A single giant partition cannot be split.
        let per = per_executor_bytes(&[100, 1, 1], 2);
        assert_eq!(*per.iter().max().unwrap(), 100);
    }

    #[test]
    fn fits_on_big_nodes_fails_on_small() {
        // 60 GB spread over partitions.
        let parts: Vec<u64> = vec![6 << 30; 10];
        let ws = Cluster::new(ClusterConfig::workstation());
        assert!(check_fits(&ws, "s", &[&parts]).is_ok(), "128 GB node holds 60 GB");

        let ec2 = Cluster::new(ClusterConfig::ec2(4));
        // 4 nodes × 15 GB × 0.6 = 9 GB usable each; 15 GB lands per node.
        assert!(check_fits(&ec2, "s", &[&parts]).is_err());
    }

    #[test]
    fn aggregate_memory_helps_until_skew_bites() {
        let ec2_10 = Cluster::new(ClusterConfig::ec2(10));
        // Balanced 50 GB over 100 partitions → 5 GB per node: fits in 9 GB.
        let balanced: Vec<u64> = vec![(50u64 << 30) / 100; 100];
        assert!(check_fits(&ec2_10, "s", &[&balanced]).is_ok());
        // Same total but one hot partition of 10 GB blows a single node.
        let mut skewed = vec![(40u64 << 30) / 99; 99];
        skewed.push(10 << 30);
        assert!(check_fits(&ec2_10, "s", &[&skewed]).is_err());
    }

    #[test]
    fn multiple_live_rdds_accumulate() {
        let ec2 = Cluster::new(ClusterConfig::ec2(2));
        let a: Vec<u64> = vec![5 << 30; 2]; // 5 GB per executor
        assert!(check_fits(&ec2, "s", &[&a]).is_ok(), "5 GB < 9 GB usable");
        assert!(check_fits(&ec2, "s", &[&a, &a]).is_err(), "10 GB > 9 GB usable");
    }
}

//! Hardware configurations: the paper's four testbeds.

const GIB: u64 = 1 << 30;
const MIB_PER_S: f64 = (1 << 20) as f64;

/// Per-node hardware resources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Parallel task slots per node (vCPUs / cores).
    pub cores: u32,
    /// Physical memory per node.
    pub memory_bytes: u64,
    /// Sequential disk read bandwidth per node, bytes/s — shared by all of
    /// the node's task slots (see [`NodeSpec::slot_disk_read_bw`]).
    pub disk_read_bw: f64,
    /// Sequential disk write bandwidth per node, bytes/s.
    pub disk_write_bw: f64,
    /// Network bandwidth per node, bytes/s (full bisection assumed).
    pub net_bw: f64,
    /// Relative per-core slowdown vs the workstation's 2.6 GHz cores
    /// (an EC2 vCPU of the era is a hyperthread on older silicon).
    pub cpu_scale: f64,
}

impl NodeSpec {
    /// Disk read bandwidth available to one task when all slots run
    /// (the node's disk is shared by its concurrent tasks).
    pub fn slot_disk_read_bw(&self) -> f64 {
        self.disk_read_bw / self.cores as f64
    }

    /// Disk write bandwidth per fully-loaded slot.
    pub fn slot_disk_write_bw(&self) -> f64 {
        self.disk_write_bw / self.cores as f64
    }

    /// Network bandwidth per fully-loaded slot.
    pub fn slot_net_bw(&self) -> f64 {
        self.net_bw / self.cores as f64
    }
}

/// A named cluster hardware configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    pub name: String,
    pub nodes: u32,
    pub node: NodeSpec,
}

impl ClusterConfig {
    /// The paper's workstation: "dual 8 core CPUs at 2.6 GHz and 128 GB
    /// memory", a single-node cluster. Disk bandwidth is a single local
    /// RAID-ish disk (~200 MB/s) — the paper attributes the small WS-side
    /// speedup of SpatialSpark on `taxi-nycb` to this single-node disk
    /// bottleneck, so the constant matters for shape fidelity.
    pub fn workstation() -> Self {
        ClusterConfig {
            name: "WS".to_string(),
            nodes: 1,
            node: NodeSpec {
                cores: 16,
                memory_bytes: 128 * GIB,
                // One local RAID volume heavily contended by 16 concurrent
                // tasks: effective sequential bandwidth well under the
                // device optimum.
                disk_read_bw: 120.0 * MIB_PER_S,
                disk_write_bw: 110.0 * MIB_PER_S,
                // Loopback: effectively unlimited next to disk.
                net_bw: 10_000.0 * MIB_PER_S,
                cpu_scale: 1.0,
            },
        }
    }

    /// An EC2 cluster of `n` g2.2xlarge nodes: 8 vCPUs, 15 GB memory each.
    /// EBS-era storage (~60 MB/s effective), 1 Gbit/s networking with
    /// oversubscription (~60 MiB/s effective), and vCPUs that are
    /// hyperthreads on slower silicon than the workstation's 2.6 GHz cores.
    pub fn ec2(n: u32) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        ClusterConfig {
            name: format!("EC2-{n}"),
            nodes: n,
            node: NodeSpec {
                cores: 8,
                memory_bytes: 15 * GIB,
                // g2.2xlarge has a 60 GB SSD instance store: good sequential
                // bandwidth per node.
                disk_read_bw: 150.0 * MIB_PER_S,
                disk_write_bw: 130.0 * MIB_PER_S,
                net_bw: 80.0 * MIB_PER_S,
                cpu_scale: 1.8,
            },
        }
    }

    /// The four configurations evaluated in the paper, in table order.
    pub fn paper_configs() -> Vec<ClusterConfig> {
        vec![
            ClusterConfig::workstation(),
            ClusterConfig::ec2(10),
            ClusterConfig::ec2(8),
            ClusterConfig::ec2(6),
        ]
    }

    /// Aggregate disk read bandwidth across nodes.
    pub fn aggregate_disk_read_bw(&self) -> f64 {
        self.nodes as f64 * self.node.disk_read_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_the_paper() {
        let cfgs = ClusterConfig::paper_configs();
        assert_eq!(cfgs.len(), 4);
        assert_eq!(cfgs[0].name, "WS");
        assert_eq!(cfgs[1].name, "EC2-10");
        assert_eq!(cfgs[3].nodes, 6);
        // "the workstation has 128 GB memory and the aggregated memory
        // capacity of the EC2-10 cluster is 150 GB"
        assert_eq!(cfgs[0].nodes as u64 * cfgs[0].node.memory_bytes, 128 * GIB);
        assert_eq!(cfgs[1].nodes as u64 * cfgs[1].node.memory_bytes, 150 * GIB);
    }

    #[test]
    fn ec2_aggregate_io_exceeds_workstation() {
        // The EC2-10 cluster has 5x the workstation's aggregate disk
        // bandwidth — the mechanism behind the paper's observation that
        // distributed I/O lifts the WS disk bottleneck.
        let ws = ClusterConfig::workstation();
        let ec2 = ClusterConfig::ec2(10);
        assert!(ec2.aggregate_disk_read_bw() > 4.0 * ws.aggregate_disk_read_bw());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_rejected() {
        let _ = ClusterConfig::ec2(0);
    }
}

//! The Spark driver context: owns the lanes' traces and stage accounting.
//!
//! A context prices every stage on one or more [`Lane`]s. RDD operations
//! run their closures once per distinct partition layout (see [`Rdd`]) and
//! close each stage on every live lane with that lane's own pending work,
//! memory gate, scheduler and fault plan.

use sjc_cluster::metrics::Phase;
use sjc_cluster::scheduler::{faulty_makespan, lpt_makespan};
use sjc_cluster::{
    Cluster, CostModel, Lane, Lanes, RecoveryEvent, RecoveryKind, RunTrace, SimError, SimNs,
    StageKind, StageTrace, MAX_STAGE_RESUBMITS,
};

use crate::rdd::{Layout, Rdd};
use crate::record::SparkRecord;

/// Driver-side context for building and executing RDDs.
pub struct SparkContext<'a> {
    pub lanes: Lanes<'a>,
    /// Checkpoint cadence of each lane, by lane id.
    checkpoints: Vec<Checkpoints>,
}

/// A lane's checkpoint cadence state.
#[derive(Debug, Clone, Copy, Default)]
struct Checkpoints {
    /// Completed stages since the last durable checkpoint — drives the
    /// plan's checkpoint cadence and bounds lineage replay depth.
    stages_since: u32,
    /// Whether any checkpoint has been written this run.
    taken: bool,
    /// Logical (pre-replication) bytes of the last durable checkpoint.
    bytes: u64,
}

/// What one lane brings to a stage close.
pub(crate) struct StageInput {
    /// Full-scale pending work per partition.
    pub pending: Vec<SimNs>,
    pub shuffle_bytes: u64,
    /// The stage's materialized output footprint (what a checkpoint writes).
    pub resident: u64,
}

/// Default number of partitions for datasets loaded on `cluster` (Spark
/// uses 2–3 × total cores).
pub fn default_parallelism(cluster: &Cluster) -> usize {
    cluster.total_slots() * 2
}

impl<'a> SparkContext<'a> {
    /// A context pricing on one cluster.
    pub fn new(cluster: &'a Cluster) -> Self {
        SparkContext::lockstep(Lanes::one("spark", cluster))
    }

    /// A context pricing every stage on each of `lanes`.
    pub fn lockstep(lanes: Lanes<'a>) -> Self {
        let checkpoints = vec![Checkpoints::default(); lanes.all().len()];
        SparkContext { lanes, checkpoints }
    }

    /// The cost model the data plane charges with.
    pub fn cost(&self) -> &CostModel {
        self.lanes.cost()
    }

    /// The first lane's trace (the only one of a [`SparkContext::new`]
    /// context).
    pub fn trace(&self) -> &RunTrace {
        static EMPTY: RunTrace =
            RunTrace { system: String::new(), stages: Vec::new(), recovery: Vec::new() };
        self.lanes.all().first().map_or(&EMPTY, |l| &l.trace)
    }

    /// Each lane's finished trace or the error that ended it.
    pub fn finish(self) -> Vec<Result<RunTrace, SimError>> {
        self.lanes.finish()
    }

    /// Loads a dataset "from HDFS": the only point where SpatialSpark
    /// touches the distributed file system. Charges the read and text parse
    /// into the partitions' pending cost (Spark is lazy — the load is paid
    /// when the first stage runs). Each lane splits the records into its
    /// own [`default_parallelism`] partitions; lanes that split alike share
    /// one copy of the data.
    pub fn read_text<T: SparkRecord + Clone>(
        &mut self,
        records: Vec<T>,
        input_bytes: u64,
        multiplier: f64,
    ) -> Rdd<T> {
        let cost = self.cost();
        let lanes = self.lanes.all();
        let n = records.len();
        let bytes_per_rec = if n == 0 { 0.0 } else { input_bytes as f64 / n as f64 };
        let sizes: Vec<usize> =
            lanes.iter().map(|l| default_parallelism(l.cluster).max(1)).collect();
        // One layout per distinct partition count, in lane order.
        let distinct: Vec<usize> = sizes
            .iter()
            .enumerate()
            .filter(|&(i, s)| !sizes.iter().take(i).any(|t| t == s))
            .map(|(_, &s)| s)
            .collect();
        let layouts: Vec<Layout<T>> = distinct
            .iter()
            .map(|&parts| {
                let chunk = n.div_ceil(parts).max(1);
                let mut data: Vec<Vec<T>> = records.chunks(chunk).map(<[T]>::to_vec).collect();
                if data.is_empty() {
                    data.push(Vec::new());
                }
                let mem_full = data
                    .iter()
                    .map(|p| {
                        let mem: u64 = p.iter().map(|r| r.mem_bytes(cost)).sum();
                        (mem as f64 * multiplier) as u64
                    })
                    .collect();
                Layout { parts: data, mem_full }
            })
            .collect();
        let lane_layout: Vec<usize> =
            sizes.iter().map(|s| distinct.iter().position(|d| d == s).unwrap_or(0)).collect();
        let pending = lanes
            .iter()
            .zip(&lane_layout)
            .map(|(lane, &li)| {
                let node = &lane.cluster.config.node;
                let parts = layouts.get(li).map(|l| l.parts.as_slice()).unwrap_or_default();
                parts
                    .iter()
                    .map(|p| {
                        let part_bytes = (p.len() as f64 * bytes_per_rec) as u64;
                        let io = cost.io_ns(part_bytes, node.slot_disk_read_bw());
                        let cpu = cost.parse_ns(part_bytes) + cost.spark_records_ns(p.len() as u64);
                        let ns = io + (cpu as f64 * node.cpu_scale) as u64;
                        (ns as f64 * multiplier) as SimNs
                    })
                    .collect()
            })
            .collect();
        Rdd {
            layouts,
            lane_layout,
            pending,
            pending_hdfs_read: (input_bytes as f64 * multiplier) as u64,
            multiplier,
            lineage_depth: 1,
        }
    }

    /// Retires every live lane `check` rejects (memory gates outside a
    /// stage); `Err` once no lane is left.
    pub fn gate(
        &mut self,
        check: impl FnMut(&Lane<'a>) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        self.lanes.gate(check)
    }

    /// Closes a stage on every live lane: `input` yields the lane's pending
    /// per-partition durations, shuffle bytes and resident bytes (or the
    /// error of a memory gate that retires the lane), which are scheduled
    /// onto the lane's cluster into one [`StageTrace`].
    pub(crate) fn close_stage(
        &mut self,
        name: &str,
        phase: Phase,
        hdfs_read: u64,
        lineage_depth: u32,
        mut input: impl FnMut(&Lane<'a>) -> Result<StageInput, SimError>,
    ) -> Result<(), SimError> {
        let checkpoints = &mut self.checkpoints;
        self.lanes.price(|lane| {
            let stage = input(lane)?;
            let mut ckpt = checkpoints.get(lane.id).copied().unwrap_or_default();
            let priced = close_lane(lane, &mut ckpt, name, phase, hdfs_read, lineage_depth, &stage);
            if let Some(slot) = checkpoints.get_mut(lane.id) {
                *slot = ckpt;
            }
            priced
        })
    }
}

/// Schedules one lane's pending per-partition durations onto its cluster
/// and emits the stage's [`StageTrace`].
///
/// Under a fault plan the stage runs through the event scheduler on the
/// lane's global clock. A node crash inside the stage window destroys the
/// cached parent partitions that lived on it; unlike Hadoop (which re-runs
/// one task), Spark recomputes those partitions through their **lineage** —
/// the resubmitted wave costs `lineage_depth ×` the lost partitions' work,
/// bounded by [`MAX_STAGE_RESUBMITS`]. When the plan's
/// [`sjc_cluster::CheckpointPolicy`] is enabled, lineage replay truncates at
/// the last durable checkpoint (at most `stages_since + 1` stages deep, the
/// lost partitions' checkpointed parents re-read over the network), and
/// `resident` — the stage's materialized output footprint — is what a
/// checkpoint write at this stage persists.
fn close_lane(
    lane: &Lane<'_>,
    ckpt: &mut Checkpoints,
    name: &str,
    phase: Phase,
    hdfs_read: u64,
    lineage_depth: u32,
    input: &StageInput,
) -> Result<(StageTrace, Vec<RecoveryEvent>), SimError> {
    let cluster = lane.cluster;
    let cost = &cluster.cost;
    let pending_ns = &input.pending;
    let with_overhead: Vec<SimNs> =
        pending_ns.iter().map(|&p| p + cost.spark_task_overhead_ns).collect();
    let mut st = StageTrace::new(name, StageKind::SparkStage, phase);
    st.hdfs_bytes_read = hdfs_read;
    st.shuffle_bytes = input.shuffle_bytes;
    st.tasks = pending_ns.len() as u64;
    let plan = &cluster.faults;
    if plan.is_none() {
        let makespan = lpt_makespan(&with_overhead, cluster.total_slots());
        st.sim_ns = cost.spark_job_startup_ns + makespan;
        return Ok((st, Vec::new()));
    }

    let cores = cluster.config.node.cores;
    let nodes = cluster.config.nodes;
    let node = &cluster.config.node;
    let start = lane.clock() + cost.spark_job_startup_ns;
    let mut events: Vec<RecoveryEvent> = Vec::new();
    let mut makespan = 0u64;
    let mut work = with_overhead;
    let mut resubmit: u32 = 0;
    loop {
        let dead_before = plan.dead_nodes_at(start + makespan);
        let sched = faulty_makespan(&work, cores, nodes, plan, name, start + makespan, false)?;
        st.attempts += sched.attempts;
        st.speculative += sched.speculative;
        st.wasted_ns += sched.wasted_ns;
        events.extend(sched.events);
        makespan += sched.makespan;
        let dead_after = plan.dead_nodes_at(start + makespan);
        // sjc-lint: allow(hot-alloc) — crash-recovery bookkeeping: runs once per stage resubmission (≤ MAX_STAGE_RESUBMITS), not per task
        let newly: Vec<u32> =
            dead_after.iter().copied().filter(|n| !dead_before.contains(n)).collect();
        if newly.is_empty() {
            break;
        }
        // Cached partitions live round-robin across nodes; the ones on the
        // fresh casualties recompute through their lineage — at most back
        // to the last durable checkpoint.
        let full_depth = lineage_depth.max(1);
        let depth = if ckpt.taken { full_depth.min(ckpt.stages_since + 1) } else { full_depth };
        // sjc-lint: allow(hot-alloc) — crash-recovery bookkeeping: the lost set becomes the next resubmission's work list (≤ MAX_STAGE_RESUBMITS rounds)
        let lost: Vec<SimNs> = pending_ns
            .iter()
            .enumerate()
            .filter(|(i, _)| newly.contains(&((*i as u32) % nodes)))
            .map(|(_, &p)| (p + cost.spark_task_overhead_ns).saturating_mul(depth as u64))
            .collect();
        if lost.is_empty() {
            break;
        }
        resubmit += 1;
        if resubmit > MAX_STAGE_RESUBMITS {
            return Err(SimError::NodeLost {
                // sjc-lint: allow(hot-alloc) — cold error return: allocates once, then the run is over
                stage: name.to_string(),
                node: newly.first().copied().unwrap_or(0),
            });
        }
        let lost_work: SimNs = lost.iter().sum();
        st.wasted_ns += lost_work;
        // One event carries the whole resubmission: the attempt, the lost
        // partitions, the (checkpoint-truncated) replay depth, and the full
        // recompute cost as its wasted_ns.
        events.push(RecoveryEvent {
            // sjc-lint: allow(hot-alloc) — crash-recovery event: one per stage resubmission (≤ MAX_STAGE_RESUBMITS), not per task
            stage: name.to_string(),
            kind: RecoveryKind::StageResubmit {
                attempt: resubmit,
                partitions: lost.len() as u64,
                lineage_depth: depth,
            },
            wasted_ns: lost_work,
        });
        // Truncated replay starts from checkpointed parents: the lost
        // partitions' share of the checkpoint comes back over the NIC.
        if depth < full_depth && ckpt.bytes > 0 {
            let live = nodes.saturating_sub(dead_after.len() as u32).max(1);
            let reread =
                (ckpt.bytes as f64 * lost.len() as f64 / pending_ns.len().max(1) as f64) as u64;
            let live_slots = (live as u64 * cores as u64).max(1);
            let extra = cost.io_ns(reread / live_slots, node.slot_net_bw());
            makespan += extra;
            st.bytes_reread += reread;
            events.push(RecoveryEvent {
                // sjc-lint: allow(hot-alloc) — crash-recovery event: one per stage resubmission (≤ MAX_STAGE_RESUBMITS), not per task
                stage: name.to_string(),
                kind: RecoveryKind::CheckpointRestore { bytes: reread },
                wasted_ns: extra,
            });
        }
        work = lost;
    }

    // Input blocks whose primary died before the stage started come from
    // remote replicas over the NIC.
    let dead0 = plan.dead_nodes_at(start);
    if !dead0.is_empty() && hdfs_read > 0 {
        let live = nodes.saturating_sub(dead0.len() as u32).max(1);
        let reread = (hdfs_read as f64 * dead0.len() as f64 / nodes as f64) as u64;
        let live_slots = (live as u64 * node.cores as u64).max(1);
        let extra = cost.io_ns(reread / live_slots, node.slot_net_bw());
        makespan += extra;
        st.bytes_reread = reread;
        events.push(RecoveryEvent {
            stage: name.to_string(),
            kind: RecoveryKind::ReplicaFailover {
                blocks: reread.div_ceil(sjc_cluster::hdfs::DEFAULT_BLOCK_SIZE),
            },
            wasted_ns: extra,
        });
    }

    // Checkpoint cadence: every `interval_stages` completed stages the
    // stage's resident output is persisted to HDFS through the replication
    // pipeline. The write is the insurance premium — it costs critical-path
    // time even when no fault ever fires.
    if plan.checkpoint.enabled() {
        if ckpt.stages_since + 1 >= plan.checkpoint.interval_stages {
            let resident = input.resident;
            if resident > 0 {
                let write_bw = if nodes > 1 {
                    node.slot_disk_write_bw().min(node.slot_net_bw() / 2.0)
                } else {
                    node.slot_disk_write_bw()
                };
                let replicated = resident.saturating_mul(plan.checkpoint.replication.max(1) as u64);
                let slots = (nodes as u64 * cores as u64).max(1);
                let write_ns = cost.io_ns(replicated / slots, write_bw);
                makespan += write_ns;
                st.hdfs_bytes_written += resident;
                events.push(RecoveryEvent {
                    stage: name.to_string(),
                    kind: RecoveryKind::CheckpointWrite { bytes: resident },
                    wasted_ns: write_ns,
                });
            }
            ckpt.taken = true;
            ckpt.bytes = input.resident;
            ckpt.stages_since = 0;
        } else {
            ckpt.stages_since += 1;
        }
    }

    st.sim_ns = cost.spark_job_startup_ns + makespan;
    Ok((st, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_cluster::{ClusterConfig, CostModel, FaultPlan};

    /// Closes one stage on the context's only lane; returns its sim time.
    #[allow(clippy::too_many_arguments)]
    fn close(
        ctx: &mut SparkContext<'_>,
        name: &str,
        phase: Phase,
        pending: &[SimNs],
        hdfs_read: u64,
        shuffle_bytes: u64,
        lineage_depth: u32,
        resident: u64,
    ) -> Result<SimNs, SimError> {
        ctx.close_stage(name, phase, hdfs_read, lineage_depth, |_| {
            Ok(StageInput { pending: pending.to_vec(), shuffle_bytes, resident })
        })?;
        Ok(ctx.trace().stages.last().map_or(0, |s| s.sim_ns))
    }

    #[test]
    fn read_text_partitions_and_charges() {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let mut ctx = SparkContext::new(&cluster);
        let records: Vec<u64> = (0..1000).collect();
        let rdd = ctx.read_text(records, 40_000, 10.0);
        assert_eq!(rdd.count(), 1000);
        assert!(rdd.num_partitions() <= default_parallelism(&cluster));
        assert!(rdd.pending[0].iter().all(|&ns| ns > 0));
        assert_eq!(rdd.pending_hdfs_read, 400_000);
    }

    #[test]
    fn empty_dataset_still_has_one_partition() {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let mut ctx = SparkContext::new(&cluster);
        let rdd: Rdd<u64> = ctx.read_text(Vec::new(), 0, 1.0);
        assert_eq!(rdd.num_partitions(), 1);
    }

    #[test]
    fn close_stage_emits_trace() {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let mut ctx = SparkContext::new(&cluster);
        let ns =
            close(&mut ctx, "s1", Phase::DistributedJoin, &[1000, 2000], 77, 88, 1, 0).unwrap();
        assert!(ns >= 2000);
        assert_eq!(ctx.trace().stages.len(), 1);
        assert_eq!(ctx.trace().stages[0].hdfs_bytes_read, 77);
        assert_eq!(ctx.trace().stages[0].shuffle_bytes, 88);
    }

    #[test]
    fn mid_stage_crash_costs_a_lineage_recompute() {
        let config = ClusterConfig::ec2(4);
        let startup = CostModel::default().spark_job_startup_ns;
        // Node 2 dies half a task into the first (and only) wave.
        let plan = FaultPlan::seeded(1, &config).crash_at(2, startup + 500_000);
        let clean = Cluster::new(config.clone());
        let faulted = Cluster::with_faults(config, plan);
        let pending = vec![1_000_000u64; 32];
        let run = |cluster: &Cluster, depth: u32| {
            let mut ctx = SparkContext::new(cluster);
            let ns = close(&mut ctx, "s", Phase::DistributedJoin, &pending, 1 << 20, 0, depth, 0)
                .unwrap();
            (ns, ctx.trace().clone())
        };
        let (base, t0) = run(&clean, 1);
        assert!(t0.recovery.is_empty(), "no faults, no recovery log");
        let (hit, t1) = run(&faulted, 1);
        assert!(hit > base, "the crash costs simulated time");
        // The resubmission is one event carrying both the lost partitions
        // and the recompute cost — never a zero-cost marker.
        let resubmits: Vec<_> = t1
            .recovery
            .iter()
            .filter(|e| matches!(e.kind, RecoveryKind::StageResubmit { .. }))
            .collect();
        assert!(!resubmits.is_empty(), "lost cached partitions resubmit: {:?}", t1.recovery);
        for e in &resubmits {
            assert!(e.wasted_ns > 0, "the resubmit event carries the recompute cost: {e:?}");
            if let RecoveryKind::StageResubmit { partitions, lineage_depth, .. } = e.kind {
                assert!(partitions > 0);
                assert_eq!(lineage_depth, 1);
            }
        }
        assert!(t1.total_wasted_ns() > 0);
        // A longer narrow-op chain makes the same crash strictly costlier —
        // the Hadoop-vs-Spark recovery asymmetry the fault model exists for.
        let (deep, _) = run(&faulted, 5);
        assert!(deep > hit, "lineage depth scales recovery cost");
    }

    #[test]
    fn a_durable_checkpoint_truncates_lineage_replay() {
        let config = ClusterConfig::ec2(4);
        let startup = CostModel::default().spark_job_startup_ns;
        let pending = vec![10_000_000_000u64; 32];
        let resident: u64 = 64 << 20;

        // Find where stage 1 ends fault-free, then schedule the crash well
        // inside stage 2's window (margins dwarf the checkpoint write).
        let clean = Cluster::new(config.clone());
        let stage1_end = {
            let mut ctx = SparkContext::new(&clean);
            close(&mut ctx, "s1", Phase::DistributedJoin, &pending, 0, 0, 1, resident).unwrap();
            ctx.trace().total_ns()
        };
        let crash_at = stage1_end + startup + 5_000_000_000;

        let run = |ckpt_interval: u32| {
            let mut plan = FaultPlan::seeded(1, &config).crash_at(2, crash_at);
            if ckpt_interval > 0 {
                plan = plan.with_checkpoints(ckpt_interval, 3);
            }
            let cluster = Cluster::with_faults(config.clone(), plan);
            let mut ctx = SparkContext::new(&cluster);
            close(&mut ctx, "s1", Phase::DistributedJoin, &pending, 0, 0, 1, resident).unwrap();
            close(&mut ctx, "s2", Phase::DistributedJoin, &pending, 0, 0, 5, resident).unwrap();
            ctx.trace().clone()
        };

        let lineage = run(0);
        let ckpt = run(1);

        let depth_of = |t: &sjc_cluster::RunTrace| {
            t.recovery
                .iter()
                .find_map(|e| match e.kind {
                    RecoveryKind::StageResubmit { lineage_depth, .. } => Some(lineage_depth),
                    _ => None,
                })
                .expect("a resubmit happened")
        };
        // Without a checkpoint the crash replays the full 5-deep chain;
        // with one taken after every stage it replays only this stage.
        assert_eq!(depth_of(&lineage), 5);
        assert_eq!(depth_of(&ckpt), 1);
        assert!(
            ckpt.recovery.iter().any(|e| matches!(e.kind, RecoveryKind::CheckpointWrite { .. })),
            "the premium is metered: {:?}",
            ckpt.recovery
        );
        assert!(
            ckpt.recovery
                .iter()
                .any(|e| matches!(e.kind, RecoveryKind::CheckpointRestore { bytes } if bytes > 0)),
            "truncated replay re-reads checkpointed parents: {:?}",
            ckpt.recovery
        );
        // Checkpointed recovery is strictly cheaper end to end: replaying 1
        // stage instead of 5 dwarfs the write premium.
        assert!(
            ckpt.total_ns() < lineage.total_ns(),
            "checkpointing must win here: {} >= {}",
            ckpt.total_ns(),
            lineage.total_ns()
        );
        assert!(ckpt.total_wasted_ns() < lineage.total_wasted_ns());
    }

    #[test]
    fn disabled_checkpoint_interval_is_bit_identical() {
        // Interval 0 (= ∞) must not even change the code path taken.
        let config = ClusterConfig::ec2(4);
        let plan = FaultPlan::seeded(3, &config).crash_at(1, 2_000_000_000);
        let base = Cluster::with_faults(config.clone(), plan.clone());
        let inf = Cluster::with_faults(config, plan.with_checkpoints(0, 3));
        let pending = vec![5_000_000u64; 48];
        let run = |cluster: &Cluster| {
            let mut ctx = SparkContext::new(cluster);
            close(&mut ctx, "s", Phase::DistributedJoin, &pending, 1 << 22, 9, 3, 1 << 26).unwrap();
            (ctx.trace().total_ns(), ctx.trace().recovery.len())
        };
        assert_eq!(run(&base), run(&inf));
    }
}

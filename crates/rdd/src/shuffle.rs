//! Wide operations: `group_by_key` and `join` — the in-memory shuffle.
//!
//! These close a stage (turning pipelined pending cost into a makespan),
//! move bytes through memory/network rather than HDFS, and are where the
//! engine enforces executor memory: Spark 1.1's `groupByKey` materializes
//! every group on its target executor with no spill path. The grouping
//! itself runs once; each lane prices the shuffle write from its own
//! partitions and gates on its own executors' memory.

use std::collections::BTreeMap;
use std::hash::Hash;

use sjc_cluster::metrics::Phase;
use sjc_cluster::{Cluster, SimError, SimNs};

use crate::context::{SparkContext, StageInput};
use crate::memory::check_fits;
use crate::rdd::{Layout, Rdd};
use crate::record::{SparkKey, SparkRecord};

fn hash_of<K: SparkKey>(k: &K) -> u64 {
    k.partition_hash()
}

/// Shuffle-write cost of one map-side partition of `mem` full-scale
/// resident bytes on `cluster`: serialize and spill to the *local disk*
/// (Spark 1.x materializes shuffle blocks on disk even for in-memory jobs),
/// plus the cross-node network share.
fn spill_ns(cluster: &Cluster, mem: u64) -> SimNs {
    let cost = &cluster.cost;
    let node = &cluster.config.node;
    let nodes = cluster.config.nodes;
    let remote_fraction = if nodes > 1 { (nodes - 1) as f64 / nodes as f64 } else { 0.0 };
    let ser = (mem as f64 * cost.spark_shuffle_ser_fraction) as u64;
    (cost.serialize_ns(ser) as f64 * node.cpu_scale) as u64
        + cost.io_ns(ser, node.slot_disk_write_bw())
        + cost.io_ns((ser as f64 * remote_fraction) as u64, node.slot_net_bw())
}

/// Shuffle-read cost of every reduce-side partition on `cluster`: fetch the
/// serialized blocks from disk and deserialize `records` (generation
/// scale) back into JVM objects.
fn fetch_ns(cluster: &Cluster, mem_full: &[u64], records: &[u64], mult: f64) -> Vec<SimNs> {
    let cost = &cluster.cost;
    let node = &cluster.config.node;
    mem_full
        .iter()
        .zip(records)
        .map(|(&mem_f, &records)| {
            let ser = (mem_f as f64 * cost.spark_shuffle_ser_fraction) as u64;
            let cpu =
                cost.serialize_ns(ser) + cost.spark_records_ns((records as f64 * mult) as u64);
            cost.io_ns(ser, node.slot_disk_read_bw()) + (cpu as f64 * node.cpu_scale) as u64
        })
        .collect()
}

/// One lane's pending work plus the shuffle write of its partitions.
fn with_spill<T>(cluster: &Cluster, layout: &Layout<T>, pending: &[SimNs]) -> Vec<SimNs> {
    pending.iter().zip(&layout.mem_full).map(|(&p, &m)| p + spill_ns(cluster, m)).collect()
}

/// Groups one join side's `(key, value)` partitions into a single map:
/// partition-local maps build in parallel and merge in partition order, so
/// each key's value order is identical to a serial flattened scan — and
/// independent of how the records are partitioned.
fn build_side<P, K, V>(parts: &[Vec<P>], kv: impl Fn(&P) -> (&K, &V) + Sync) -> BTreeMap<K, Vec<V>>
where
    P: Send + Sync,
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    // LPT by partition size: skewed build sides schedule their fat
    // partitions first; partition-order merging below is unchanged.
    let locals: Vec<BTreeMap<K, Vec<V>>> = sjc_par::par_map_weighted(
        parts,
        |part| part.len() as u64,
        |part| {
            let mut local: BTreeMap<K, Vec<V>> = BTreeMap::new();
            for rec in part {
                let (k, v) = kv(rec);
                // sjc-lint: allow(hot-alloc) — the shuffle map owns its keys/values: the clone materializes the build side itself
                local.entry(k.clone()).or_default().push(v.clone());
            }
            local
        },
    );
    let mut merged: BTreeMap<K, Vec<V>> = BTreeMap::new();
    for local in locals {
        for (k, vs) in local {
            merged.entry(k).or_default().extend(vs);
        }
    }
    merged
}

/// The first layout's partitions (every layout holds the same records in
/// the same order).
fn first_parts<T>(rdd: &Rdd<T>) -> &[Vec<T>] {
    rdd.layouts.first().map_or(&[], |l| l.parts.as_slice())
}

/// One layout's `reduce_by_key`: each map partition's (records, combined
/// full-scale bytes), the reduced partitions, and their read-side work.
type Reduced<K, V> = (Vec<(u64, u64)>, Layout<(K, V)>, Vec<SimNs>);

/// Result of [`Rdd::join`]: per key, one output record per matching
/// value pair.
pub type JoinResult<K, A, B> = Result<Rdd<(K, (A, B))>, SimError>;

impl<K, V> Rdd<(K, V)>
where
    K: SparkRecord + SparkKey + Ord + Hash + Clone,
    V: SparkRecord + Clone,
{
    /// Groups values by key into `num_partitions` hash partitions, closing
    /// the current stage.
    pub fn group_by_key(
        self,
        ctx: &mut SparkContext<'_>,
        name: &str,
        phase: Phase,
        num_partitions: usize,
    ) -> Result<Rdd<(K, Vec<V>)>, SimError> {
        let p = num_partitions.max(1);
        let mult = self.multiplier;

        // Real shuffle: group deterministically, once for every lane.
        let groups = build_side(first_parts(&self), |(k, v)| (k, v));
        let mut parts: Vec<Vec<(K, Vec<V>)>> = (0..p).map(|_| Vec::new()).collect();
        // sjc-lint: allow(serial-hot-loop) — hash-partition scatter must run in key order; the grouping work already ran in parallel above
        for (k, vs) in groups {
            let idx = (hash_of(&k) % p as u64) as usize;
            // sjc-lint: allow(no-panic-in-lib) — idx = hash % p < p = parts.len()
            parts[idx].push((k, vs));
        }
        let cost = ctx.cost().clone();
        let sizes: Vec<(u64, u64)> = sjc_par::par_map(&parts, |part| {
            let mem: u64 = part.iter().map(|r| r.mem_bytes(&cost)).sum();
            let records: u64 = part.iter().map(|(_, vs)| vs.len() as u64).sum();
            ((mem as f64 * mult) as u64, records)
        });
        let (mem_full, records): (Vec<u64>, Vec<u64>) = sizes.into_iter().unzip();
        let resident: u64 = mem_full.iter().sum();

        // Close the map-side stage (pending narrow work + shuffle write).
        // Memory check: shuffle input and materialized groups are live
        // simultaneously.
        ctx.close_stage(name, phase, self.pending_hdfs_read, self.lineage_depth, |lane| {
            let (layout, pending) = self.lane(lane.id);
            check_fits(lane.cluster, name, &[&layout.mem_full, &mem_full])?;
            let pending = with_spill(lane.cluster, layout, pending);
            Ok(StageInput { pending, shuffle_bytes: layout.mem_total(), resident })
        })?;

        // A shuffle materializes its output; recompute scope restarts here.
        let pending = ctx
            .lanes
            .all()
            .iter()
            .map(|l| fetch_ns(l.cluster, &mem_full, &records, mult))
            .collect();
        Ok(Rdd {
            layouts: vec![Layout { parts, mem_full }],
            lane_layout: vec![0; self.lane_layout.len()],
            pending,
            pending_hdfs_read: 0,
            multiplier: mult,
            lineage_depth: 1,
        })
    }

    /// `reduceByKey`: folds same-key values with `f`, combining **map-side
    /// first** so only one value per (task, key) is shuffled — the reason
    /// Spark lore says "use reduceByKey, not groupByKey". The spatial join
    /// cannot use it (the local join needs the full record lists), which is
    /// precisely why SpatialSpark's groupByKey OOMs where an aggregation
    /// would not; the `rdd_extra_ops` tests demonstrate the difference.
    ///
    /// The combine runs per map partition, so each layout reduces its own
    /// partitions and keeps its own output.
    pub fn reduce_by_key(
        self,
        ctx: &mut SparkContext<'_>,
        name: &str,
        phase: Phase,
        num_partitions: usize,
        f: impl Fn(&V, &V) -> V + Sync,
    ) -> Result<Rdd<(K, V)>, SimError> {
        let p = num_partitions.max(1);
        let cost = ctx.cost().clone();
        let mult = self.multiplier;

        // Per layout: map-side combine per partition, the combined
        // partitions' full-scale shuffle footprint, and the reduced output.
        let reduced: Vec<Reduced<K, V>> = self
            .layouts
            .iter()
            .map(|layout| {
                // Each task's partition is independent, so the combines run in
                // parallel and the results land back in task order.
                let combined: Vec<(u64, u64, BTreeMap<K, V>)> =
                    sjc_par::par_map(&layout.parts, |part| {
                        let mut local: BTreeMap<K, V> = BTreeMap::new();
                        for (k, v) in part {
                            match local.get_mut(k) {
                                Some(acc) => *acc = f(acc, v),
                                None => {
                                    // sjc-lint: allow(hot-alloc) — first sight of a key: the combiner map must own it; every later record folds in place
                                    local.insert(k.clone(), v.clone());
                                }
                            }
                        }
                        // Shuffle write: only the combined values leave the task.
                        let combined_mem: u64 = local
                            .iter()
                            .map(|r| {
                                let pair_ref: (&K, &V) = r;
                                24 + pair_ref.0.mem_bytes(&cost) + pair_ref.1.mem_bytes(&cost)
                            })
                            .sum();
                        // conservative: scale by density
                        let combined_full = (combined_mem as f64 * mult / part.len().max(1) as f64
                            * local.len() as f64)
                            as u64;
                        (part.len() as u64, combined_full, local)
                    });
                let mut spills = Vec::with_capacity(combined.len());
                let mut merged: BTreeMap<K, V> = BTreeMap::new();
                for (len, combined_full, local) in combined {
                    spills.push((len, combined_full));
                    for (k, v) in local {
                        match merged.get_mut(&k) {
                            Some(acc) => *acc = f(acc, &v),
                            None => {
                                merged.insert(k, v);
                            }
                        }
                    }
                }
                let mut parts: Vec<Vec<(K, V)>> = (0..p).map(|_| Vec::new()).collect();
                for (k, v) in merged {
                    let idx = (hash_of(&k) % p as u64) as usize;
                    // sjc-lint: allow(no-panic-in-lib) — idx = hash % p < p = parts.len()
                    parts[idx].push((k, v));
                }
                // Combined results are one value per key: modeled at
                // generation scale directly (keys don't multiply with the
                // workload).
                let (mem_full, read): (Vec<u64>, Vec<SimNs>) = sjc_par::par_map(&parts, |part| {
                    let mem: u64 = part.iter().map(|r| r.mem_bytes(&cost)).sum();
                    (mem, cost.spark_records_ns(part.len() as u64))
                })
                .into_iter()
                .unzip();
                (spills, Layout { parts, mem_full }, read)
            })
            .collect();

        ctx.close_stage(name, phase, self.pending_hdfs_read, self.lineage_depth, |lane| {
            let (input, pending) = self.lane(lane.id);
            // sjc-lint: allow(no-panic-in-lib) — `reduced` holds one entry per layout, and lane_layout points into layouts
            let (spills, out, _) = &reduced[self.lane_layout[lane.id]];
            check_fits(lane.cluster, name, &[&input.mem_full, &out.mem_full])?;
            let cpu_scale = lane.cluster.config.node.cpu_scale;
            // Combine cost: one pass over the partition's records.
            let pending = pending
                .iter()
                .zip(spills)
                .map(|(&p, &(len, combined_full))| {
                    let combine_cpu = (cost.spark_records_ns(len) as f64 * cpu_scale * mult) as u64;
                    p + combine_cpu + spill_ns(lane.cluster, combined_full)
                })
                .collect();
            let shuffle_bytes = out.mem_total();
            Ok(StageInput { pending, shuffle_bytes, resident: shuffle_bytes })
        })?;

        let pending = self
            .lane_layout
            .iter()
            .map(|&li| reduced.get(li).map_or_else(Vec::new, |(_, _, read)| read.clone()))
            .collect();
        Ok(Rdd {
            layouts: reduced.into_iter().map(|(_, layout, _)| layout).collect(),
            lane_layout: self.lane_layout,
            pending,
            pending_hdfs_read: 0,
            multiplier: mult,
            lineage_depth: 1,
        })
    }
}

impl<K, A> Rdd<(K, A)>
where
    K: SparkRecord + SparkKey + Ord + Hash + Clone,
    A: SparkRecord + Clone,
{
    /// Inner hash join on the key, closing both sides' stages. Matches
    /// Spark's `join`: one output record per pair of matching values.
    pub fn join<B>(
        self,
        other: Rdd<(K, B)>,
        ctx: &mut SparkContext<'_>,
        name: &str,
        phase: Phase,
        num_partitions: usize,
    ) -> JoinResult<K, A, B>
    where
        B: SparkRecord + Clone,
    {
        let p = num_partitions.max(1);
        let mult = self.multiplier;

        // Hash-table builds: both sides group per partition in parallel and
        // merge in partition order (value order matches the serial flatten).
        let (left, right) = sjc_par::join(
            || build_side(first_parts(&self), |(k, a)| (k, a)),
            || build_side(first_parts(&other), |(k, b)| (k, b)),
        );

        // Cartesian products per matching key run in parallel; the scatter
        // into hash partitions replays them in key order, so output record
        // order is identical to the serial nested loop.
        type KeyBatch<K, A, B> = Option<(usize, Vec<(K, (A, B))>)>;
        let left_list: Vec<(&K, &Vec<A>)> = left.iter().collect();
        // Cross products are quadratic in the per-key value counts — the
        // canonical skew hazard. LPT by the output cardinality keeps one hot
        // key off the tail; key-order scatter below is unchanged.
        let produced: Vec<KeyBatch<K, A, B>> = sjc_par::par_map_weighted(
            &left_list,
            |(k, avs)| {
                (avs.len() as u64).saturating_mul(right.get(k).map_or(0, |bvs| bvs.len() as u64))
            },
            |&(k, avs)| {
                right.get(k).map(|bvs| {
                    let idx = (hash_of(k) % p as u64) as usize;
                    let mut out = Vec::with_capacity(avs.len() * bvs.len());
                    for a in avs {
                        for b in bvs {
                            // sjc-lint: allow(hot-alloc) — join output pairs own their records: the clones materialize the cross product itself
                            out.push((k.clone(), (a.clone(), b.clone())));
                        }
                    }
                    (idx, out)
                })
            },
        );
        let mut parts: Vec<Vec<(K, (A, B))>> = (0..p).map(|_| Vec::new()).collect();
        for (idx, recs) in produced.into_iter().flatten() {
            // sjc-lint: allow(no-panic-in-lib) — idx = hash % p < p = parts.len()
            parts[idx].extend(recs);
        }

        let cost = ctx.cost().clone();
        let sizes: Vec<(u64, u64)> = sjc_par::par_map(&parts, |part| {
            let mem: u64 = part.iter().map(|r| r.mem_bytes(&cost)).sum();
            ((mem as f64 * mult) as u64, part.len() as u64)
        });
        let (mem_full, records): (Vec<u64>, Vec<u64>) = sizes.into_iter().unzip();
        let resident: u64 = mem_full.iter().sum();

        // Close both input stages with their shuffle-write costs.
        let hdfs = self.pending_hdfs_read + other.pending_hdfs_read;
        let depth = self.lineage_depth.max(other.lineage_depth);
        ctx.close_stage(name, phase, hdfs, depth, |lane| {
            let (l, lp) = self.lane(lane.id);
            let (r, rp) = other.lane(lane.id);
            check_fits(lane.cluster, name, &[&l.mem_full, &r.mem_full, &mem_full])?;
            let mut pending = with_spill(lane.cluster, l, lp);
            pending.extend(with_spill(lane.cluster, r, rp));
            Ok(StageInput { pending, shuffle_bytes: l.mem_total() + r.mem_total(), resident })
        })?;

        let pending = ctx
            .lanes
            .all()
            .iter()
            .map(|l| fetch_ns(l.cluster, &mem_full, &records, mult))
            .collect();
        Ok(Rdd {
            layouts: vec![Layout { parts, mem_full }],
            lane_layout: vec![0; self.lane_layout.len()],
            pending,
            pending_hdfs_read: 0,
            multiplier: mult,
            lineage_depth: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_cluster::{Cluster, ClusterConfig};

    #[test]
    fn group_by_key_collects_all_values() {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let mut ctx = SparkContext::new(&cluster);
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i % 5, i)).collect();
        let grouped = ctx
            .read_text(pairs, 4000, 1.0)
            .group_by_key(&mut ctx, "g", Phase::DistributedJoin, 4)
            .unwrap();
        let out = grouped.collect(&mut ctx, "c", Phase::DistributedJoin).unwrap();
        assert_eq!(out.len(), 5);
        for (k, vs) in &out {
            assert_eq!(vs.len(), 20);
            assert!(vs.iter().all(|v| v % 5 == *k));
        }
    }

    #[test]
    fn join_matches_keys() {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let mut ctx = SparkContext::new(&cluster);
        let left: Vec<(u64, u64)> = vec![(1, 10), (2, 20), (3, 30)];
        let right: Vec<(u64, u64)> = vec![(2, 200), (3, 300), (3, 301), (4, 400)];
        let l = ctx.read_text(left, 100, 1.0);
        let r = ctx.read_text(right, 100, 1.0);
        let joined = l.join(r, &mut ctx, "j", Phase::DistributedJoin, 2).unwrap();
        let mut out = joined.collect(&mut ctx, "c", Phase::DistributedJoin).unwrap();
        out.sort();
        assert_eq!(out, vec![(2, (20, 200)), (3, (30, 300)), (3, (30, 301))]);
    }

    #[test]
    fn shuffle_emits_stage_with_shuffle_bytes_and_no_hdfs_writes() {
        let cluster = Cluster::new(ClusterConfig::ec2(4));
        let mut ctx = SparkContext::new(&cluster);
        let pairs: Vec<(u64, u64)> = (0..1000).map(|i| (i % 10, i)).collect();
        ctx.read_text(pairs, 40_000, 1.0)
            .group_by_key(&mut ctx, "g", Phase::DistributedJoin, 8)
            .unwrap();
        let stage = &ctx.trace().stages[0];
        assert!(stage.shuffle_bytes > 0);
        assert_eq!(stage.hdfs_bytes_written, 0, "Spark never writes intermediates to HDFS");
        assert!(stage.hdfs_bytes_read > 0, "the initial load is attributed here");
    }

    #[test]
    fn oversized_shuffle_oom_on_small_nodes_only() {
        let pairs: Vec<(u64, u64)> = (0..10_000).map(|i| (i % 100, i)).collect();
        // Each (u64,u64) models 24+32=56 B; 10k records ≈ 560 KB, the
        // grouped lists add ~170 KB. ×3e4 the live set during the shuffle
        // is ~22 GB (~11 GB per EC2-2 executor, over its 9 GB usable),
        // while the 76.8 GB workstation holds it comfortably.
        let mult = 3e4;
        let run = |cfg: ClusterConfig| {
            let cluster = Cluster::new(cfg);
            let mut ctx = SparkContext::new(&cluster);
            ctx.read_text(pairs.clone(), 400_000, mult)
                .group_by_key(&mut ctx, "g", Phase::DistributedJoin, 64)
                .map(|_| ())
        };
        assert!(run(ClusterConfig::ec2(2)).is_err(), "small cluster OOMs");
        assert!(run(ClusterConfig::workstation()).is_ok(), "128 GB WS survives");
    }

    #[test]
    fn reduce_by_key_matches_group_then_fold() {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let pairs: Vec<(u64, u64)> = (0..1000).map(|i| (i % 13, i)).collect();
        let mut ctx = SparkContext::new(&cluster);
        let reduced = ctx
            .read_text(pairs.clone(), 8000, 1.0)
            .reduce_by_key(&mut ctx, "rbk", Phase::DistributedJoin, 8, |a, b| a + b)
            .unwrap();
        let mut got = reduced.collect(&mut ctx, "c", Phase::DistributedJoin).unwrap();
        got.sort();
        let mut expected: std::collections::BTreeMap<u64, u64> = Default::default();
        for (k, v) in pairs {
            *expected.entry(k).or_default() += v;
        }
        assert_eq!(got, expected.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn reduce_by_key_survives_where_group_by_key_oom() {
        // The famous Spark pattern: an aggregation expressed as groupByKey
        // materializes every value and dies; as reduceByKey it combines
        // map-side and sails through. The spatial join *must* group, which
        // is why SpatialSpark inherits the fragile variant.
        let pairs: Vec<(u64, u64)> = (0..10_000).map(|i| (i % 100, i)).collect();
        let mult = 3e4;
        let cluster = Cluster::new(ClusterConfig::ec2(2));

        let mut ctx = SparkContext::new(&cluster);
        let grouped = ctx.read_text(pairs.clone(), 400_000, mult).group_by_key(
            &mut ctx,
            "g",
            Phase::DistributedJoin,
            64,
        );
        assert!(grouped.is_err(), "groupByKey at this scale OOMs");

        let mut ctx2 = SparkContext::new(&cluster);
        let reduced = ctx2.read_text(pairs, 400_000, mult).reduce_by_key(
            &mut ctx2,
            "r",
            Phase::DistributedJoin,
            64,
            |a, b| a.wrapping_add(*b),
        );
        assert!(reduced.is_ok(), "reduceByKey combines map-side and fits");
    }

    #[test]
    fn oom_error_reports_sizes() {
        let cluster = Cluster::new(ClusterConfig::ec2(2));
        let mut ctx = SparkContext::new(&cluster);
        let pairs: Vec<(u64, u64)> = (0..10_000).map(|i| (i % 100, i)).collect();
        let err = ctx
            .read_text(pairs, 400_000, 1e9)
            .group_by_key(&mut ctx, "g", Phase::DistributedJoin, 64)
            .err()
            .expect("must OOM");
        match err {
            SimError::OutOfMemory { needed_bytes, usable_bytes, .. } => {
                assert!(needed_bytes > usable_bytes);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }
}

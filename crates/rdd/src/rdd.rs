//! The [`Rdd`] type and its narrow transformations.

use sjc_cluster::metrics::Phase;
use sjc_cluster::{SimError, SimNs};

use crate::context::{SparkContext, StageInput};
use crate::record::SparkRecord;

/// A partitioned, in-memory dataset.
///
/// Narrow transformations (`map`, `flat_map`, `filter`, `sample`) run
/// eagerly on the host but *pipeline* in the simulation: their cost
/// accumulates in each lane's pending work per partition and only becomes a
/// stage makespan when a wide operation or action closes the stage —
/// exactly how Spark fuses narrow ops into one stage.
///
/// Lanes of a lockstep context load data into their own partition counts,
/// so an RDD holds its records once per distinct [`Layout`], and each lane
/// points at one. A shuffle partitions every lane alike and leaves a single
/// layout. The accessors below read the first layout.
pub struct Rdd<T> {
    pub(crate) layouts: Vec<Layout<T>>,
    /// Index into `layouts` of each lane, by lane id.
    pub(crate) lane_layout: Vec<usize>,
    /// Full-scale pending CPU per partition of each lane's layout since the
    /// last stage boundary, by lane id.
    pub(crate) pending: Vec<Vec<SimNs>>,
    /// Full-scale HDFS bytes read but not yet attributed to a stage.
    pub(crate) pending_hdfs_read: u64,
    pub(crate) multiplier: f64,
    /// Narrow-op chain length since the last materialization boundary
    /// (load or shuffle). Losing a cached partition to a node crash costs a
    /// recompute proportional to this depth — Spark's lineage recovery.
    pub(crate) lineage_depth: u32,
}

/// One partitioning of an RDD's records.
pub(crate) struct Layout<T> {
    pub(crate) parts: Vec<Vec<T>>,
    /// Full-scale modeled resident bytes per partition.
    pub(crate) mem_full: Vec<u64>,
}

impl<T> Layout<T> {
    pub(crate) fn mem_total(&self) -> u64 {
        self.mem_full.iter().sum()
    }
}

impl<T> Rdd<T> {
    /// Lane `id`'s layout and pending work.
    pub(crate) fn lane(&self, id: usize) -> (&Layout<T>, &[SimNs]) {
        // sjc-lint: allow(no-panic-in-lib) — every RDD is built with one lane_layout and pending entry per lane of its context, each pointing into layouts
        (&self.layouts[self.lane_layout[id]], &self.pending[id])
    }

    /// What lane `id` brings to an action's stage close.
    pub(crate) fn action_input(&self, id: usize) -> StageInput {
        let (layout, pending) = self.lane(id);
        StageInput { pending: pending.to_vec(), shuffle_bytes: 0, resident: layout.mem_total() }
    }

    /// The first layout's partitions, flattened.
    fn into_records(self) -> Vec<T> {
        self.layouts
            .into_iter()
            .next()
            .map_or_else(Vec::new, |l| l.parts.into_iter().flatten().collect())
    }
}

impl<T: SparkRecord + Clone> Rdd<T> {
    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.layouts.first().map_or(0, |l| l.parts.len())
    }

    /// Total records (generation scale).
    pub fn count(&self) -> usize {
        self.layouts.first().map_or(0, |l| l.parts.iter().map(Vec::len).sum())
    }

    /// Full-scale modeled resident footprint.
    pub fn mem_full_total(&self) -> u64 {
        self.layouts.first().map_or(0, Layout::mem_total)
    }

    /// Per-partition full-scale footprints (for memory checks).
    pub fn mem_full(&self) -> &[u64] {
        self.layouts.first().map_or(&[], |l| &l.mem_full)
    }

    pub fn multiplier(&self) -> f64 {
        self.multiplier
    }

    /// Length of the narrow-op chain a lost partition would replay.
    pub fn lineage_depth(&self) -> u32 {
        self.lineage_depth
    }

    /// Narrow map. `f` receives each record and a per-record extra-cost
    /// accumulator (generation-scale ns) for spatial work such as index
    /// probes.
    pub fn map<U: SparkRecord>(
        self,
        ctx: &SparkContext<'_>,
        f: impl Fn(&T, &mut SimNs) -> U + Sync,
    ) -> Rdd<U> {
        self.transform(ctx, |rec, extra, out| out.push(f(rec, extra)))
    }

    /// Narrow flat-map.
    pub fn flat_map<U: SparkRecord>(
        self,
        ctx: &SparkContext<'_>,
        f: impl Fn(&T, &mut SimNs) -> Vec<U> + Sync,
    ) -> Rdd<U> {
        self.transform(ctx, |rec, extra, out| out.extend(f(rec, extra)))
    }

    /// Narrow filter.
    pub fn filter(self, ctx: &SparkContext<'_>, pred: impl Fn(&T) -> bool + Sync) -> Rdd<T> {
        self.transform(ctx, |rec, _extra, out| {
            if pred(rec) {
                out.push(rec.clone());
            }
        })
    }

    /// Deterministic Bernoulli sample (Spark's `RDD.sample`): record `i` of
    /// the dataset survives when a seeded hash of its index falls below
    /// `fraction`.
    ///
    /// The serial implementation threaded one LCG counter through every
    /// record in partition order; to evaluate partitions in parallel with a
    /// bit-identical keep set, each partition jumps the counter ahead by the
    /// number of records in all earlier partitions ([`lcg_jump`] is exact),
    /// which also makes the sample independent of the partitioning.
    pub fn sample(self, ctx: &SparkContext<'_>, fraction: f64, seed: u64) -> Rdd<T> {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0,1]");
        let threshold = (fraction * u64::MAX as f64) as u64;
        self.transform_parts(ctx, move |offset, src, _extra| {
            let mut counter = lcg_jump(seed, offset);
            let mut out = Vec::new();
            for rec in src {
                counter = lcg_step(counter);
                if (counter >> 1) < (threshold >> 1) {
                    out.push(rec.clone());
                }
            }
            out
        })
    }

    /// Shared narrow-op machinery: runs `op` per record, charges the Spark
    /// per-record overhead plus accumulated extra cost, recomputes memory.
    fn transform<U: SparkRecord>(
        self,
        ctx: &SparkContext<'_>,
        op: impl Fn(&T, &mut SimNs, &mut Vec<U>) + Sync,
    ) -> Rdd<U> {
        self.transform_parts(ctx, |_, src, extra| {
            let mut out: Vec<U> = Vec::with_capacity(src.len());
            for rec in src {
                op(rec, extra, &mut out);
            }
            out
        })
    }

    /// Partition-parallel core of every narrow op: partitions are
    /// independent, so `op` runs on each layout's partitions concurrently
    /// (`sjc-par`, order-preserving) and every lane's pending work grows by
    /// its layout's per-partition cost at its own node speed — bit-identical
    /// to a serial loop at every thread count. `op` receives the dataset
    /// index of the partition's first record so sequence-dependent ops
    /// (`sample`) can jump their state exactly.
    fn transform_parts<U: SparkRecord>(
        self,
        ctx: &SparkContext<'_>,
        op: impl Fn(u64, &[T], &mut SimNs) -> Vec<U> + Sync,
    ) -> Rdd<U> {
        let cost = ctx.cost();
        let mult = self.multiplier;
        // Per layout and partition: output, generation-scale CPU, and the
        // output's full-scale footprint.
        let ran: Vec<Vec<(Vec<U>, SimNs, u64)>> = self
            .layouts
            .iter()
            .map(|layout| {
                let indexed: Vec<(u64, &Vec<T>)> =
                    record_offsets(&layout.parts).into_iter().zip(&layout.parts).collect();
                // LPT dispatch: fat partitions first, so skewed spatial
                // partitioning cannot serialize the tail; partition-order
                // results are unchanged.
                sjc_par::par_map_weighted(
                    &indexed,
                    |(_, src)| src.len() as u64,
                    |&(offset, src)| {
                        let mut extra: SimNs = 0;
                        let out = op(offset, src, &mut extra);
                        let ns = cost.spark_records_ns(src.len() as u64) + extra;
                        let mem: u64 = out.iter().map(|r| r.mem_bytes(cost)).sum();
                        (out, ns, (mem as f64 * mult) as u64)
                    },
                )
            })
            .collect();
        let pending = ctx
            .lanes
            .all()
            .iter()
            .zip(self.pending)
            .zip(&self.lane_layout)
            .map(|((lane, old), &li)| {
                let cpu_scale = lane.cluster.config.node.cpu_scale;
                let parts = ran.get(li).map(Vec::as_slice).unwrap_or_default();
                old.iter()
                    .zip(parts)
                    .map(|(&p, &(_, ns, _))| {
                        let ns = (ns as f64 * cpu_scale) as u64;
                        p + (ns as f64 * mult) as SimNs
                    })
                    .collect()
            })
            .collect();
        let layouts = ran
            .into_iter()
            .map(|parts| {
                let (parts, mem_full) = parts.into_iter().map(|(out, _, mem)| (out, mem)).unzip();
                Layout { parts, mem_full }
            })
            .collect();
        Rdd {
            layouts,
            lane_layout: self.lane_layout,
            pending,
            pending_hdfs_read: self.pending_hdfs_read,
            multiplier: mult,
            lineage_depth: self.lineage_depth.saturating_add(1),
        }
    }

    /// Action: draw a deterministic systematic sample and collect it to the
    /// driver, treating the RDD as *cached* afterwards — the action pays
    /// the pending load/compute cost (plus a memory scan), and subsequent
    /// uses of this RDD read from the cache for free. This mirrors
    /// SpatialSpark's `input.cache(); input.sample(...)` pattern where the
    /// sampling action is what first materializes the dataset.
    pub fn sample_collect(
        &mut self,
        ctx: &mut SparkContext<'_>,
        name: &str,
        phase: Phase,
        fraction: f64,
        seed: u64,
    ) -> Result<Vec<T>, SimError> {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0,1]");
        let cost = ctx.cost().clone();
        let mult = self.multiplier;
        let hdfs = std::mem::take(&mut self.pending_hdfs_read);
        let rdd = &*self;
        ctx.close_stage(name, phase, hdfs, self.lineage_depth, |lane| {
            let (layout, pending) = rdd.lane(lane.id);
            let cpu_scale = lane.cluster.config.node.cpu_scale;
            let pending = pending
                .iter()
                .zip(&layout.parts)
                .map(|(&p, part)| {
                    p + (cost.spark_records_ns(part.len() as u64) as f64 * cpu_scale * mult)
                        as SimNs
                })
                .collect();
            Ok(StageInput { pending, shuffle_bytes: 0, resident: layout.mem_total() })
        })?;
        // Consume pending: the cache is warm after this action.
        for p in &mut self.pending {
            p.fill(0);
        }

        let threshold = (fraction * u64::MAX as f64) as u64;
        let Some(layout) = self.layouts.first() else { return Ok(Vec::new()) };
        let indexed: Vec<(u64, &Vec<T>)> =
            record_offsets(&layout.parts).into_iter().zip(&layout.parts).collect();
        let sampled: Vec<Vec<T>> = sjc_par::par_map(&indexed, |&(offset, part)| {
            // Same stream as the old serial scan: each partition resumes the
            // LCG where the previous partition left it (exact jump-ahead).
            let mut state = lcg_jump(seed | 1, offset);
            let mut kept = Vec::new();
            for rec in part {
                state = lcg_step(state);
                if (state >> 1) < (threshold >> 1) {
                    // sjc-lint: allow(hot-alloc) — the clone IS the sample output: kept records must be owned by the result
                    kept.push(rec.clone());
                }
            }
            kept
        });
        Ok(sampled.into_iter().flatten().collect())
    }

    /// Action: count records, closing the stage (cheaper than `collect` —
    /// only per-partition counts travel to the driver).
    pub fn count_action(
        self,
        ctx: &mut SparkContext<'_>,
        name: &str,
        phase: Phase,
    ) -> Result<usize, SimError> {
        ctx.close_stage(name, phase, self.pending_hdfs_read, self.lineage_depth, |lane| {
            Ok(self.action_input(lane.id))
        })?;
        Ok(self.count())
    }

    /// Lazily concatenates two RDDs of one context (Spark's `union`):
    /// partitions of both parents side by side, no shuffle, no stage
    /// boundary.
    pub fn union(mut self, other: Rdd<T>) -> Rdd<T> {
        assert!(
            (self.multiplier - other.multiplier).abs() / self.multiplier.max(1e-12) < 0.5,
            "uniting RDDs with wildly different workload multipliers loses meaning"
        );
        // Both parents come from one context, so their lanes group into
        // layouts alike.
        for (mine, theirs) in self.layouts.iter_mut().zip(other.layouts) {
            mine.parts.extend(theirs.parts);
            mine.mem_full.extend(theirs.mem_full);
        }
        for (mine, theirs) in self.pending.iter_mut().zip(other.pending) {
            mine.extend(theirs);
        }
        self.pending_hdfs_read += other.pending_hdfs_read;
        self.lineage_depth = self.lineage_depth.max(other.lineage_depth);
        self
    }

    /// Action: collect all records to the driver, closing the stage.
    pub fn collect(
        self,
        ctx: &mut SparkContext<'_>,
        name: &str,
        phase: Phase,
    ) -> Result<Vec<T>, SimError> {
        ctx.close_stage(name, phase, self.pending_hdfs_read, self.lineage_depth, |lane| {
            Ok(self.action_input(lane.id))
        })?;
        Ok(self.into_records())
    }
}

/// One step of the sampling LCG (Knuth's MMIX multiplier/increment).
#[inline]
fn lcg_step(state: u64) -> u64 {
    state.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD)
}

const LCG_MUL: u64 = 6364136223846793005;
const LCG_ADD: u64 = 1442695040888963407;

/// Advances the sampling LCG by `n` steps in O(log n) — the affine map
/// `s → m·s + a` composed with itself squares to `s → m²·s + (m·a + a)`, so
/// binary decomposition of `n` yields the exact same state the serial
/// per-record loop would reach. This is what lets `sample` evaluate
/// partitions concurrently with a bit-identical keep set.
fn lcg_jump(state: u64, n: u64) -> u64 {
    let (mut mul, mut add) = (LCG_MUL, LCG_ADD);
    let (mut acc_mul, mut acc_add) = (1u64, 0u64);
    let mut n = n;
    while n > 0 {
        if n & 1 == 1 {
            acc_mul = acc_mul.wrapping_mul(mul);
            acc_add = acc_add.wrapping_mul(mul).wrapping_add(add);
        }
        add = add.wrapping_mul(mul).wrapping_add(add);
        mul = mul.wrapping_mul(mul);
        n >>= 1;
    }
    state.wrapping_mul(acc_mul).wrapping_add(acc_add)
}

/// Number of records in all partitions before each partition — the LCG jump
/// distance for partition `i`.
fn record_offsets<T>(parts: &[Vec<T>]) -> Vec<u64> {
    let mut offsets = Vec::with_capacity(parts.len());
    let mut acc = 0u64;
    // sjc-lint: allow(serial-hot-loop) — prefix sum over partition lengths is O(parts) and inherently sequential
    for part in parts {
        offsets.push(acc);
        acc += part.len() as u64;
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_cluster::{Cluster, ClusterConfig};

    #[test]
    fn lcg_jump_matches_serial_stepping() {
        for &seed in &[0u64, 1, 42, u64::MAX, 0xDEADBEEF] {
            let mut serial = seed;
            for n in 0..=257u64 {
                assert_eq!(lcg_jump(seed, n), serial, "seed {seed} jump {n}");
                serial = lcg_step(serial);
            }
            // A big jump checked against composing two smaller exact jumps.
            assert_eq!(lcg_jump(seed, 1_000_000), lcg_jump(lcg_jump(seed, 999_743), 257));
        }
    }

    fn ctx_cluster() -> Cluster {
        Cluster::new(ClusterConfig::workstation())
    }

    #[test]
    fn map_filter_flat_map_semantics() {
        let cluster = ctx_cluster();
        let mut ctx = SparkContext::new(&cluster);
        let rdd = ctx.read_text((0u64..100).collect(), 4000, 1.0);
        let out = rdd
            .map(&ctx, |x, _| x * 2)
            .filter(&ctx, |x| x % 4 == 0)
            .flat_map(&ctx, |x, _| vec![*x, *x + 1])
            .collect(&mut ctx, "t", Phase::DistributedJoin)
            .unwrap();
        // 0..100 doubled → 0,2,..198; keep multiples of 4 → 50 values; ×2.
        assert_eq!(out.len(), 100);
        assert!(out.contains(&0) && out.contains(&1) && out.contains(&196) && out.contains(&197));
        assert_eq!(ctx.trace().stages.len(), 1, "narrow ops fused into one stage");
    }

    #[test]
    fn sample_is_deterministic_and_proportional() {
        let cluster = ctx_cluster();
        let mut ctx = SparkContext::new(&cluster);
        let a = ctx
            .read_text((0u64..10_000).collect(), 40_000, 1.0)
            .sample(&ctx, 0.1, 42)
            .collect(&mut ctx, "s", Phase::IndexA)
            .unwrap();
        let mut ctx2 = SparkContext::new(&cluster);
        let b = ctx2
            .read_text((0u64..10_000).collect(), 40_000, 1.0)
            .sample(&ctx2, 0.1, 42)
            .collect(&mut ctx2, "s", Phase::IndexA)
            .unwrap();
        assert_eq!(a, b, "same seed, same sample");
        assert!((800..1200).contains(&a.len()), "~10% kept, got {}", a.len());
    }

    #[test]
    fn pending_cost_accumulates_across_narrow_ops() {
        let cluster = ctx_cluster();
        let mut ctx = SparkContext::new(&cluster);
        let rdd = ctx.read_text((0u64..1000).collect(), 40_000, 1.0);
        let after_load: SimNs = rdd.pending[0].iter().sum();
        let mapped = rdd.map(&ctx, |x, extra| {
            *extra += 100;
            x + 1
        });
        let after_map: SimNs = mapped.pending[0].iter().sum();
        assert!(after_map > after_load);
    }

    #[test]
    fn multiplier_scales_memory_not_results() {
        let cluster = ctx_cluster();
        let mut ctx = SparkContext::new(&cluster);
        let small = ctx.read_text((0u64..1000).collect(), 40_000, 1.0);
        let mut ctx2 = SparkContext::new(&cluster);
        let big = ctx2.read_text((0u64..1000).collect(), 40_000, 1000.0);
        assert_eq!(small.count(), big.count());
        assert!(big.mem_full_total() > 500 * small.mem_full_total());
    }

    #[test]
    fn count_action_counts_without_collecting() {
        let cluster = ctx_cluster();
        let mut ctx = SparkContext::new(&cluster);
        let n = ctx
            .read_text((0u64..1234).collect(), 4000, 1.0)
            .filter(&ctx, |x| x % 2 == 0)
            .count_action(&mut ctx, "count", Phase::IndexA)
            .unwrap();
        assert_eq!(n, 617);
        assert_eq!(ctx.trace().stages.len(), 1);
    }

    #[test]
    fn union_concatenates_without_a_stage() {
        let cluster = ctx_cluster();
        let mut ctx = SparkContext::new(&cluster);
        let a = ctx.read_text((0u64..10).collect(), 400, 1.0);
        let b = ctx.read_text((100u64..110).collect(), 400, 1.0);
        let stages_before = ctx.trace().stages.len();
        let u = a.union(b);
        assert_eq!(ctx.trace().stages.len(), stages_before, "union is lazy");
        let mut all = u.collect(&mut ctx, "c", Phase::IndexA).unwrap();
        all.sort_unstable();
        let expected: Vec<u64> = (0..10).chain(100..110).collect();
        assert_eq!(all, expected);
    }
}

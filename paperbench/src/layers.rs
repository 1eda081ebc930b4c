//! The traced per-layer replay: each layer's public functions called from
//! outside on the workload's own inputs, one span per layer.
//!
//! The replay follows SpatialHadoop's pipeline with the settings of
//! `SpatialHadoop::default()` (1% systematic sample, 128 STR tiles,
//! plane-sweep global join, striped local filter, JTS refinement), because
//! that system runs every stage the paper names on every config. The engine layers run over `block_splits` of the
//! input's record ids with closures that touch no geometry, so their spans
//! hold only the engines' own per-job, per-task and per-record costs.

use sjc_cluster::metrics::Phase;
use sjc_cluster::{Cluster, ClusterConfig, SimError, SimHdfs};
use sjc_core::experiment::Workload;
use sjc_core::framework::{JoinInput, JoinPredicate};
use sjc_core::spatialhadoop::SpatialHadoop;
use sjc_data::ScaledDataset;
use sjc_geom::GeometryEngine;
use sjc_index::entry::IndexEntry;
use sjc_index::join::{plane_sweep, stripe_sweep, CandidatePairs};
use sjc_index::partition::SpatialPartitioner;
use sjc_mapreduce::{block_splits, JobConfig, MapReduceJob, StreamingJob};
use sjc_rdd::SparkContext;

use crate::grids::SCALE;
use crate::stats::median;
use crate::trace::{now, Tracer};

/// Reduce keys of the engine jobs: enough groups to spread over a
/// cluster's reducers.
const REDUCE_KEYS: u64 = 64;

/// `par_map` wave sizes on either side of `sjc_par`'s serial cutover
/// (`SERIAL_CUTOVER_WORK` at the default item cost is 1024 items).
const PAR_ABOVE: u64 = 4096;
const PAR_BELOW: u64 = 256;
/// Waves timed per side; the metric is their median.
const PAR_WAVES: usize = 201;

/// Work counts the replay observed.
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub records: u64,
    pub vertices: u64,
    pub assignments: u64,
    pub cell_pairs: u64,
    pub filter_calls: u64,
    pub candidates: u64,
    pub filter_tests: u64,
    pub refine_hits: u64,
    pub mapreduce_tasks: u64,
    /// Median single-wave `par_map` times, in microseconds.
    pub par_dispatch_us: f64,
    pub par_serial_call_us: f64,
}

/// Replays every layer on the joins of a workload, recording spans under
/// `parent`.
pub fn replay(
    workloads: &[Workload],
    seed: u64,
    tracer: &mut Tracer,
    parent: usize,
) -> Result<LayerCounts, SimError> {
    let mut n = LayerCounts::default();
    let p = Some(parent);
    let sh = SpatialHadoop::default();
    for w in workloads {
        let (lds, rds) = tracer.span("data.generate", p, || {
            (
                ScaledDataset::generate(w.left, SCALE, seed),
                ScaledDataset::generate(w.right, SCALE, seed),
            )
        });
        n.records += (lds.len() + rds.len()) as u64;
        n.vertices += lds.total_vertices() + rds.total_vertices();
        let (left, right) = tracer.span("core.ingest", p, || {
            (JoinInput::from_dataset(&lds), JoinInput::from_dataset(&rds))
        });
        drop((lds, rds));

        let (lcells, rcells) =
            tracer.span("index.partition", p, || (partition(&sh, &left), partition(&sh, &right)));
        n.assignments += lcells.assignments() + rcells.assignments();

        let (lmbrs, rmbrs) = (lcells.cell_entries(), rcells.cell_entries());
        let cell_pairs = tracer.span("index.global_join", p, || plane_sweep(&lmbrs, &rmbrs));
        n.cell_pairs += cell_pairs.pairs.len() as u64;

        // Entries carry record indices, so refinement can look records up.
        let inputs: Vec<(Vec<IndexEntry>, Vec<IndexEntry>)> = cell_pairs
            .pairs
            .iter()
            .map(|&(a, b)| (lcells.entries(&left, a), rcells.entries(&right, b)))
            .collect();
        let filtered: Vec<CandidatePairs> = tracer
            .span("index.filter", p, || inputs.iter().map(|(l, r)| stripe_sweep(l, r)).collect());
        n.filter_calls += inputs.len() as u64;
        for c in &filtered {
            n.candidates += c.pairs.len() as u64;
            n.filter_tests += c.stats.filter_tests;
        }

        let jts = GeometryEngine::new(sh.engine);
        n.refine_hits += tracer.span("geom.refine", p, || {
            let hit = |&(a, b): &(u64, u64)| {
                let (l, r) = (&left.records[a as usize].geom, &right.records[b as usize].geom);
                JoinPredicate::Intersects.evaluate(&jts, l, r).0
            };
            filtered.iter().flat_map(|c| c.pairs.iter()).filter(|&pair| hit(pair)).count() as u64
        });

        for input in [&left, &right] {
            n.mapreduce_tasks += engines(input, tracer, parent)?;
        }
    }
    n.par_dispatch_us = tracer.span("par.dispatch", p, || par_wave_us(PAR_ABOVE));
    n.par_serial_call_us = tracer.span("par.serial_call", p, || par_wave_us(PAR_BELOW));
    Ok(n)
}

/// One input's partitioning: the STR tiles and each tile's record indices.
struct Cells {
    partitioner: Box<dyn SpatialPartitioner + Send + Sync>,
    members: Vec<Vec<u64>>,
}

impl Cells {
    fn assignments(&self) -> u64 {
        self.members.iter().map(|m| m.len() as u64).sum()
    }

    fn cell_entries(&self) -> Vec<IndexEntry> {
        let cells = self.partitioner.cells().iter();
        cells.enumerate().map(|(i, c)| IndexEntry::new(i as u64, *c)).collect()
    }

    fn entries(&self, input: &JoinInput, cell: u64) -> Vec<IndexEntry> {
        let members = &self.members[cell as usize];
        members.iter().map(|&i| IndexEntry::new(i, input.records[i as usize].mbr)).collect()
    }
}

/// SpatialHadoop's sample job and partition job, without the simulation:
/// every `1 / sample_rate`-th record's center, then `assign` of every record.
fn partition(sh: &SpatialHadoop, input: &JoinInput) -> Cells {
    let stride = (1.0 / sh.sample_rate).round().max(1.0) as usize;
    let sample = input.records.iter().step_by(stride).map(|r| r.mbr.center()).collect();
    let partitioner = sh.partitioner.build(input.domain, sample, sh.partitions);
    let mut members = vec![Vec::new(); partitioner.cells().len()];
    for (i, rec) in input.records.iter().enumerate() {
        for cell in partitioner.assign(&rec.mbr) {
            members[cell as usize].push(i as u64);
        }
    }
    Cells { partitioner, members }
}

/// One native MapReduce job, one streaming job and one Spark job over the
/// input's ids on EC2-10; returns the MapReduce job's task count.
fn engines(input: &JoinInput, tracer: &mut Tracer, parent: usize) -> Result<u64, SimError> {
    let p = Some(parent);
    let cluster = Cluster::new(ClusterConfig::ec2(10));
    let mut hdfs = SimHdfs::new(cluster.config.nodes);
    let block = hdfs.block_size();
    let bpr = input.bytes_per_record();
    let ids: Vec<u64> = (0..input.records.len() as u64).collect();
    let cfg = JobConfig::new("paperbench ids", Phase::DistributedJoin, 1.0);

    let splits = block_splits(&ids, bpr, block);
    let job = tracer.span("mapreduce.job", p, || {
        MapReduceJob::new(&cluster, &mut hdfs).map_reduce(
            &cfg,
            splits,
            |&i, em| em.emit(i % REDUCE_KEYS, i, 8),
            |_, group, em| em.emit(group.len() as u64, 8),
        )
    })?;

    let lines: Vec<String> = ids.iter().map(u64::to_string).collect();
    let splits = block_splits(&lines, bpr, block);
    tracer.span("mapreduce.streaming_job", p, || {
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        StreamingJob::new(&mut engine).map_only(&cfg, splits, |line| vec![line.to_string()])
    })?;

    tracer.span("rdd.job", p, || {
        let mut ctx = SparkContext::new(&cluster);
        let rdd = ctx.read_text(ids, input.sim_bytes, 1.0);
        rdd.map(&ctx, |&i, _| i ^ 1).count_action(&mut ctx, "paperbench count", Phase::IndexA)
    })?;
    Ok(job.stats.map_tasks + job.stats.reduce_tasks)
}

/// Median wall time of one `par_map` wave over `n` trivial items.
fn par_wave_us(n: u64) -> f64 {
    let items: Vec<u64> = (0..n).collect();
    let mut times = Vec::with_capacity(PAR_WAVES);
    for _ in 0..PAR_WAVES {
        let start = now();
        let out = sjc_par::par_map(&items, |&x| x ^ 1);
        times.push(start.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(out);
    }
    median(&times).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjc_par::plan::plan;
    use sjc_par::Budget;

    #[test]
    fn par_waves_straddle_the_serial_cutover() {
        let two = Budget::explicit(2);
        assert!(plan(PAR_BELOW as usize, two).is_serial());
        assert!(!plan(PAR_ABOVE as usize, two).is_serial());
    }
}

//! Hadoop-Streaming mode: text lines piped through external processes.
//!
//! HadoopGIS is built on Hadoop Streaming: mappers and reducers are python
//! / C++ programs reading stdin and writing stdout. Relative to native jobs
//! this adds, per stage: pipe transfer of every byte in both directions,
//! text re-parsing and re-serialization (records have no binary
//! representation between stages), and a hard failure when one task's pipe
//! payload exceeds what the node can buffer — the paper's "broken pipeline
//! ... when the data that pipes through multiple processors is too big".
//!
//! The pipe and parse charges belong to the data plane (they depend on the
//! lines alone); the pipe limit depends on node memory, so the broken-pipe
//! gate is part of pricing.

use sjc_cluster::{Cluster, CostModel, SimError, StageTrace};

use crate::input_format::MapTask;
use crate::job::{JobConfig, JobOutcome, JobRun, MapReduceJob};

impl JobRun<String> {
    /// Data plane of a streaming map-only job: `mapper` maps one input line
    /// to output lines.
    pub fn streaming_map_only(
        cost: &CostModel,
        tasks: Vec<MapTask<String>>,
        mapper: impl Fn(&str) -> Vec<String> + Sync,
    ) -> JobRun<String> {
        let mut run = JobRun::map_only(tasks, |line: &String, em| {
            let in_bytes = line.len() as u64 + 1;
            let mut pipe_out = 0u64;
            for out in mapper(line) {
                pipe_out += out.len() as u64 + 1;
                let b = out.len() as u64 + 1;
                em.emit(out, b);
            }
            // stdin + stdout traffic of the external process, plus its own
            // text parse of the line.
            em.charge(cost.pipe_ns(in_bytes + pipe_out) + cost.parse_ns(in_bytes));
        });
        run.streaming = true;
        run
    }

    /// Data plane of a streaming map-reduce job. `mapper` emits
    /// `(key, value)` line pairs; `reducer` consumes one key's sorted values.
    pub fn streaming_map_reduce(
        cost: &CostModel,
        cfg: &JobConfig,
        tasks: Vec<MapTask<String>>,
        mapper: impl Fn(&str) -> Vec<(String, String)> + Sync,
        reducer: impl Fn(&str, &[String]) -> Vec<String> + Sync,
    ) -> JobRun<String> {
        let mut run = JobRun::map_reduce(
            tasks,
            |line: &String, em| {
                let in_bytes = line.len() as u64 + 1;
                let mut pipe_out = 0u64;
                for (k, v) in mapper(line) {
                    let b = (k.len() + v.len() + 2) as u64;
                    pipe_out += b;
                    em.emit(k, v, b);
                }
                em.charge(cost.pipe_ns(in_bytes + pipe_out) + cost.parse_ns(in_bytes));
            },
            |key: &String, values: &[String], em| {
                let in_bytes: u64 = values.iter().map(|v| (key.len() + v.len() + 2) as u64).sum();
                let mut out_bytes = 0u64;
                for out in reducer(key, values) {
                    let b = out.len() as u64 + 1;
                    out_bytes += b;
                    em.emit(out, b);
                }
                em.charge(cost.pipe_ns(in_bytes + out_bytes) + cost.parse_ns(in_bytes));
                if cfg.script_reducer {
                    em.charge(
                        (values.len() as f64
                            * cost.streaming_script_record_ns
                            * cfg.script_cost_factor) as u64,
                    );
                }
            },
        );
        run.streaming = true;
        run
    }
}

impl<O> JobRun<O> {
    /// Streaming pricing on top of the native job: pipe bytes, and the
    /// broken-pipe gate.
    ///
    /// Each reduce group is piped through one external process (stdin: the
    /// group's records; stdout: its results); at full scale the payload is
    /// multiplier × bigger. Fails with [`SimError::BrokenPipe`] when any
    /// group's full-scale payload exceeds the node's streaming limit.
    pub(crate) fn price_pipes(
        &self,
        cluster: &Cluster,
        cfg: &JobConfig,
        trace: &mut StageTrace,
    ) -> Result<(), SimError> {
        let stats = &self.stats;
        let Some(groups) = &self.reduces else {
            trace.pipe_bytes =
                ((stats.input_bytes + stats.output_bytes) as f64 * cfg.multiplier) as u64;
            return Ok(());
        };
        let limit = cluster.cost.streaming_pipe_limit(cluster.config.node.memory_bytes);
        for g in groups {
            let full = ((g.input_bytes + g.out_bytes) as f64 * cfg.multiplier) as u64;
            if full > limit {
                return Err(SimError::BrokenPipe {
                    // sjc-lint: allow(hot-alloc) — cold error return: allocates once, then the run is over
                    stage: cfg.name.clone(),
                    payload_bytes: full,
                    limit_bytes: limit,
                });
            }
        }
        trace.pipe_bytes = ((stats.input_bytes + 2 * stats.shuffle_bytes + stats.output_bytes)
            as f64
            * cfg.multiplier) as u64;
        Ok(())
    }
}

/// A streaming job runner on one cluster, borrowing the native engine.
pub struct StreamingJob<'a, 'b> {
    pub engine: &'b mut MapReduceJob<'a>,
}

impl<'a, 'b> StreamingJob<'a, 'b> {
    pub fn new(engine: &'b mut MapReduceJob<'a>) -> Self {
        StreamingJob { engine }
    }

    /// Runs a streaming map-only job (see [`JobRun::streaming_map_only`]).
    pub fn map_only(
        &mut self,
        cfg: &JobConfig,
        tasks: Vec<MapTask<String>>,
        mapper: impl Fn(&str) -> Vec<String> + Sync,
    ) -> Result<JobOutcome<String>, SimError> {
        let run = JobRun::streaming_map_only(&self.engine.cluster.cost, tasks, mapper);
        self.engine.price(cfg, run)
    }

    /// Runs a streaming map-reduce job (see
    /// [`JobRun::streaming_map_reduce`]).
    pub fn map_reduce(
        &mut self,
        cfg: &JobConfig,
        tasks: Vec<MapTask<String>>,
        mapper: impl Fn(&str) -> Vec<(String, String)> + Sync,
        reducer: impl Fn(&str, &[String]) -> Vec<String> + Sync,
    ) -> Result<JobOutcome<String>, SimError> {
        let run =
            JobRun::streaming_map_reduce(&self.engine.cluster.cost, cfg, tasks, mapper, reducer);
        self.engine.price(cfg, run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input_format::block_splits;
    use sjc_cluster::metrics::Phase;
    use sjc_cluster::{Cluster, ClusterConfig, SimHdfs};

    fn lines(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{i}\tpayload-{i}")).collect()
    }

    #[test]
    fn streaming_wordcount() {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let mut hdfs = SimHdfs::new(1);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let mut job = StreamingJob::new(&mut engine);
        let input: Vec<String> = vec!["a b a".into(), "b a c".into()];
        let tasks = block_splits(&input, 6.0, 1 << 20);
        let cfg = JobConfig::new("wc", Phase::DistributedJoin, 1.0);
        let out = job
            .map_reduce(
                &cfg,
                tasks,
                |line| line.split(' ').map(|w| (w.to_string(), "1".to_string())).collect(),
                |k, vs| vec![format!("{k}\t{}", vs.len())],
            )
            .unwrap();
        let mut got = out.output.clone();
        got.sort();
        assert_eq!(got, vec!["a\t3", "b\t2", "c\t1"]);
        assert!(out.trace.pipe_bytes > 0, "pipes are metered");
    }

    #[test]
    fn streaming_costs_more_than_native() {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let input = lines(5000);
        let tasks = block_splits(&input, 16.0, 16 << 10);

        let mut hdfs = SimHdfs::new(1);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let cfg = JobConfig::new("native", Phase::IndexA, 1.0);
        let native = engine
            .map_reduce(
                &cfg,
                tasks.clone(),
                // Same intermediate volume as the streaming variant below
                // (key digit + "1" + separators), so the comparison isolates
                // pipe/parse overheads rather than shuffle volume.
                |l: &String, em| em.emit(l.len() as u64 % 7, 1u64, 4),
                |_, vs, em| em.emit(vs.len(), 8),
            )
            .unwrap();

        let mut hdfs2 = SimHdfs::new(1);
        let mut engine2 = MapReduceJob::new(&cluster, &mut hdfs2);
        let mut sjob = StreamingJob::new(&mut engine2);
        let scfg = JobConfig::new("streaming", Phase::IndexA, 1.0);
        let streaming = sjob
            .map_reduce(
                &scfg,
                tasks,
                |l| vec![((l.len() % 7).to_string(), "1".to_string())],
                |_, vs| vec![vs.len().to_string()],
            )
            .unwrap();
        assert!(
            streaming.trace.sim_ns > native.trace.sim_ns,
            "streaming {} <= native {}",
            streaming.trace.sim_ns,
            native.trace.sim_ns
        );
    }

    #[test]
    fn oversized_group_breaks_the_pipe() {
        let cluster = Cluster::new(ClusterConfig::ec2(2));
        let mut hdfs = SimHdfs::new(2);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let mut job = StreamingJob::new(&mut engine);
        let input = lines(1000);
        let tasks = block_splits(&input, 20.0, 1 << 20);
        // Everything lands on one key; with a huge multiplier the group's
        // full-scale payload blows the 15 GB node's pipe limit.
        let cfg = JobConfig::new("hot", Phase::DistributedJoin, 2e7);
        let err = job
            .map_reduce(
                &cfg,
                tasks,
                |l| vec![("hot".to_string(), l.to_string())],
                |_, vs| vec![vs.len().to_string()],
            )
            .unwrap_err();
        match err {
            SimError::BrokenPipe { payload_bytes, limit_bytes, .. } => {
                assert!(payload_bytes > limit_bytes);
            }
            other => panic!("expected BrokenPipe, got {other:?}"),
        }
    }

    #[test]
    fn same_job_survives_on_bigger_nodes() {
        // The identical workload that breaks EC2 nodes passes on the 128 GB
        // workstation — the paper's Table-3 HadoopGIS pattern.
        let input = lines(1000);
        // 1000 lines spread over 64 keys ≈ 290 B/group; ×3e5 ≈ 87 MB per
        // streaming reducer: above an EC2 node's ~16 MB pipe limit, below
        // the workstation's ~137 MB.
        let mult = 3e5;
        let run = |cfg_cluster: ClusterConfig| {
            let cluster = Cluster::new(cfg_cluster);
            let mut hdfs = SimHdfs::new(cluster.config.nodes);
            let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
            let mut job = StreamingJob::new(&mut engine);
            let tasks = block_splits(&input, 20.0, 1 << 20);
            let cfg = JobConfig::new("hot", Phase::DistributedJoin, mult);
            job.map_reduce(
                &cfg,
                tasks,
                |l| {
                    let id: u64 = l.split('\t').next().unwrap().parse().unwrap();
                    vec![((id % 64).to_string(), l.to_string())]
                },
                |_, vs| vec![vs.len().to_string()],
            )
            .map(|_| ())
        };
        assert!(run(ClusterConfig::ec2(10)).is_err(), "EC2 node breaks");
        assert!(run(ClusterConfig::workstation()).is_ok(), "WS node survives");
    }

    #[test]
    fn map_only_streaming_counts_pipe_bytes() {
        let cluster = Cluster::new(ClusterConfig::workstation());
        let mut hdfs = SimHdfs::new(1);
        let mut engine = MapReduceJob::new(&cluster, &mut hdfs);
        let mut job = StreamingJob::new(&mut engine);
        let input = lines(100);
        let tasks = block_splits(&input, 16.0, 1 << 20);
        let cfg = JobConfig::new("convert", Phase::IndexA, 1.0);
        let out = job.map_only(&cfg, tasks, |l| vec![l.to_uppercase()]).unwrap();
        assert_eq!(out.output.len(), 100);
        assert!(out.trace.pipe_bytes > 0);
    }
}

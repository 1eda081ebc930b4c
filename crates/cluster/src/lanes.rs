//! Lockstep pricing: one data-plane pass, priced on several clusters.
//!
//! A cluster configuration changes what a join *costs*, never what it
//! computes. The engines therefore execute each stage's task closures once
//! (the data plane, which reads only the shared [`CostModel`]) and price the
//! recorded work on every configuration still running (the pricing pass:
//! scheduling, HDFS, memory gates, pipe limits, fault plans). A [`Lane`] is
//! one configuration's run in progress; a failed lane keeps its error and
//! drops out of later stages.

use crate::hdfs::SimHdfs;
use crate::metrics::{RecoveryEvent, RunTrace, StageTrace};
use crate::{Cluster, CostModel, SimError, SimNs};

/// One cluster configuration's run: its trace so far, its HDFS ledger, and
/// the error that ended it, if any.
#[derive(Debug)]
pub struct Lane<'a> {
    /// Position of the cluster in the list the lanes were built from.
    pub id: usize,
    pub cluster: &'a Cluster,
    pub trace: RunTrace,
    pub hdfs: SimHdfs,
    failed: Option<SimError>,
}

impl Lane<'_> {
    /// The lane's global simulated clock: where its next stage starts.
    pub fn clock(&self) -> SimNs {
        self.trace.total_ns()
    }

    fn is_live(&self) -> bool {
        self.failed.is_none()
    }
}

/// The lanes of one lockstep run, in cluster order.
#[derive(Debug)]
pub struct Lanes<'a> {
    lanes: Vec<Lane<'a>>,
    cost: CostModel,
    /// Lane whose failure retired the last live lane.
    last_failed: usize,
}

impl<'a> Lanes<'a> {
    /// One lane per cluster, each with an empty trace named `system`.
    ///
    /// The data plane is charged once, so every cluster must share one cost
    /// model: mixed models are rejected rather than priced wrongly.
    pub fn new(system: &str, clusters: &'a [Cluster]) -> Result<Lanes<'a>, SimError> {
        let cost = clusters.first().map(|c| c.cost.clone()).unwrap_or_default();
        if let Some(odd) = clusters.iter().find(|c| c.cost != cost) {
            return Err(SimError::MixedCostModels { config: odd.config.name.clone() });
        }
        Ok(Lanes::build(system, clusters, cost))
    }

    /// The single lane of a one-cluster run.
    pub fn one(system: &str, cluster: &'a Cluster) -> Lanes<'a> {
        Lanes::build(system, std::slice::from_ref(cluster), cluster.cost.clone())
    }

    fn build(system: &str, clusters: &'a [Cluster], cost: CostModel) -> Lanes<'a> {
        let lanes = clusters
            .iter()
            .enumerate()
            .map(|(id, cluster)| Lane {
                id,
                cluster,
                trace: RunTrace::new(system),
                hdfs: SimHdfs::new(cluster.config.nodes),
                failed: None,
            })
            .collect();
        Lanes { lanes, cost, last_failed: 0 }
    }

    /// The cost model every lane shares (the data plane's only input).
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Every lane, live or failed, in cluster order.
    pub fn all(&self) -> &[Lane<'a>] {
        &self.lanes
    }

    /// The lanes still running.
    pub fn live(&self) -> impl Iterator<Item = &Lane<'a>> {
        self.lanes.iter().filter(|l| l.is_live())
    }

    pub fn live_mut(&mut self) -> impl Iterator<Item = &mut Lane<'a>> {
        self.lanes.iter_mut().filter(|l| l.is_live())
    }

    /// Retires lane `id` with `err`.
    fn fail(&mut self, id: usize, err: SimError) {
        if let Some(lane) = self.lanes.get_mut(id) {
            lane.failed = Some(err);
            self.last_failed = id;
        }
    }

    /// `Ok` while some lane is live; otherwise the error that retired the
    /// last one, so callers stop executing stages nobody will price.
    fn check(&self) -> Result<(), SimError> {
        if self.lanes.is_empty() || self.live().next().is_some() {
            return Ok(());
        }
        match self.lanes.get(self.last_failed).and_then(|l| l.failed.clone()) {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Retires every live lane `check` rejects; `Err` once none is left.
    pub fn gate(
        &mut self,
        mut check: impl FnMut(&Lane<'a>) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        let failures: Vec<(usize, SimError)> =
            self.live().filter_map(|l| check(l).err().map(|e| (l.id, e))).collect();
        for (id, err) in failures {
            self.fail(id, err);
        }
        self.check()
    }

    /// Prices one stage on every live lane: `price` turns the lane's state
    /// into the stage's trace and recovery events, which are appended to
    /// its run; an error retires the lane instead.
    pub fn price(
        &mut self,
        mut price: impl FnMut(&mut Lane<'a>) -> Result<(StageTrace, Vec<RecoveryEvent>), SimError>,
    ) -> Result<(), SimError> {
        let mut failures = Vec::new();
        for lane in self.live_mut() {
            match price(lane) {
                Ok((stage, recovery)) => {
                    lane.trace.push(stage);
                    lane.trace.push_recovery(recovery);
                }
                Err(err) => failures.push((lane.id, err)),
            }
        }
        for (id, err) in failures {
            self.fail(id, err);
        }
        self.check()
    }

    /// Each cluster's finished trace or the error that ended its run.
    pub fn finish(self) -> Vec<Result<RunTrace, SimError>> {
        self.lanes
            .into_iter()
            .map(|l| match l.failed {
                Some(err) => Err(err),
                None => Ok(l.trace),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Phase, StageKind};
    use crate::ClusterConfig;

    fn stage(ns: SimNs) -> StageTrace {
        let mut st = StageTrace::new("s", StageKind::LocalSerial, Phase::IndexA);
        st.sim_ns = ns;
        st
    }

    #[test]
    fn failed_lanes_drop_out_and_the_last_error_stops_the_run() {
        let clusters =
            [Cluster::new(ClusterConfig::workstation()), Cluster::new(ClusterConfig::ec2(6))];
        let mut lanes = Lanes::new("sys", &clusters).unwrap();
        lanes.price(|l| Ok((stage(10 + l.id as u64), Vec::new()))).unwrap();
        let oom = |id| SimError::NodeLost { stage: "s".into(), node: id };
        let r = lanes.price(|l| if l.id == 1 { Err(oom(1)) } else { Ok((stage(5), Vec::new())) });
        assert!(r.is_ok(), "lane 0 still runs");
        assert_eq!(lanes.live().map(|l| l.clock()).collect::<Vec<_>>(), vec![15]);
        assert_eq!(lanes.price(|_| Err(oom(0))), Err(oom(0)));
        let done = lanes.finish();
        assert_eq!(done[0].as_ref().unwrap_err(), &oom(0));
        assert_eq!(done[1].as_ref().unwrap_err(), &oom(1));
    }

    #[test]
    fn mixed_cost_models_are_rejected() {
        let mut odd = Cluster::new(ClusterConfig::ec2(8));
        odd.cost.spark_task_overhead_ns += 1;
        let clusters = [Cluster::new(ClusterConfig::workstation()), odd];
        match Lanes::new("sys", &clusters) {
            Err(SimError::MixedCostModels { config }) => assert_eq!(config, "EC2-8"),
            other => panic!("expected a rejection, got {other:?}"),
        }
    }
}

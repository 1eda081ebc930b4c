//! Simulated failure modes — the "-" cells of the paper's Table 2/3.

use std::fmt;

/// An error raised by a simulated run. The paper's experiments failed in two
/// distinct ways, both reproduced mechanically (never hard-coded per cell):
///
/// * HadoopGIS: "broken pipeline, which is typical in Hadoop Streaming when
///   the data that pipes through multiple processors is too big";
/// * SpatialSpark: "out of memory and Spark is not able to spill data to
///   external storage".
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A streaming task attempted to pipe more bytes through an external
    /// process than the node can sustain.
    BrokenPipe { stage: String, payload_bytes: u64, limit_bytes: u64 },
    /// A Spark executor's modeled resident set exceeded its usable memory.
    OutOfMemory { stage: String, needed_bytes: u64, usable_bytes: u64 },
    /// A named input file does not exist in the simulated HDFS.
    FileNotFound(String),
    /// Every replica of an HDFS block lives on a crashed datanode, so the
    /// read cannot fail over anywhere (replication exhausted).
    BlockLost { file: String, block: u64 },
    /// A task failed on its last permitted attempt (Hadoop's
    /// `mapreduce.map.maxattempts`-style bound).
    TaskAttemptsExhausted { stage: String, task: u64, attempts: u32 },
    /// A stage lost its compute entirely: every slot that could run it sits
    /// on a crashed node.
    NodeLost { stage: String, node: u32 },
    /// A lockstep run was asked to price clusters with different cost
    /// models; `config` names the first one that differs.
    MixedCostModels { config: String },
}

impl SimError {
    /// Short label matching the paper's failure vocabulary.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::BrokenPipe { .. } => "broken pipe",
            SimError::OutOfMemory { .. } => "out of memory",
            SimError::FileNotFound(_) => "file not found",
            SimError::BlockLost { .. } => "block lost",
            SimError::TaskAttemptsExhausted { .. } => "task attempts exhausted",
            SimError::NodeLost { .. } => "node lost",
            SimError::MixedCostModels { .. } => "mixed cost models",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BrokenPipe { stage, payload_bytes, limit_bytes } => write!(
                f,
                "broken pipe in stage {stage:?}: streaming task piped {payload_bytes} bytes \
                 (node limit {limit_bytes})"
            ),
            SimError::OutOfMemory { stage, needed_bytes, usable_bytes } => write!(
                f,
                "out of memory in stage {stage:?}: executor needs {needed_bytes} bytes \
                 (usable {usable_bytes}); Spark cannot spill"
            ),
            SimError::FileNotFound(name) => write!(f, "HDFS file not found: {name:?}"),
            SimError::BlockLost { file, block } => {
                write!(f, "HDFS block lost: {file:?} block {block} has no surviving replica")
            }
            SimError::TaskAttemptsExhausted { stage, task, attempts } => write!(
                f,
                "task {task} of stage {stage:?} failed {attempts} attempts (bound reached)"
            ),
            SimError::NodeLost { stage, node } => write!(
                f,
                "stage {stage:?} lost its compute: no surviving slot (last crash: node {node})"
            ),
            SimError::MixedCostModels { config } => write!(
                f,
                "cluster {config:?} has a different cost model; one data-plane pass cannot price it"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::BrokenPipe { stage: "DJ".into(), payload_bytes: 100, limit_bytes: 50 };
        let s = e.to_string();
        assert!(s.contains("broken pipe") && s.contains("100") && s.contains("50"));
        assert_eq!(e.kind(), "broken pipe");

        let o =
            SimError::OutOfMemory { stage: "groupByKey".into(), needed_bytes: 10, usable_bytes: 5 };
        assert!(o.to_string().contains("cannot spill"));
        assert_eq!(o.kind(), "out of memory");
    }

    /// One value of every variant. Growing `SimError` without extending this
    /// list is a compile error (the `match` below has no `_` arm), so the
    /// failure vocabulary cannot drift silently.
    fn one_of_each() -> Vec<SimError> {
        vec![
            SimError::BrokenPipe { stage: "s".into(), payload_bytes: 2, limit_bytes: 1 },
            SimError::OutOfMemory { stage: "s".into(), needed_bytes: 2, usable_bytes: 1 },
            SimError::FileNotFound("f".into()),
            SimError::BlockLost { file: "f".into(), block: 0 },
            SimError::TaskAttemptsExhausted { stage: "s".into(), task: 3, attempts: 4 },
            SimError::NodeLost { stage: "s".into(), node: 7 },
            SimError::MixedCostModels { config: "c".into() },
        ]
    }

    #[test]
    fn kind_labels_are_exhaustive_and_stable() {
        for e in one_of_each() {
            // Match-on-all, deliberately without a `_` arm: a new variant
            // must be given a label here *and* in `kind()` to compile.
            let expected = match &e {
                SimError::BrokenPipe { .. } => "broken pipe",
                SimError::OutOfMemory { .. } => "out of memory",
                SimError::FileNotFound(_) => "file not found",
                SimError::BlockLost { .. } => "block lost",
                SimError::TaskAttemptsExhausted { .. } => "task attempts exhausted",
                SimError::NodeLost { .. } => "node lost",
                SimError::MixedCostModels { .. } => "mixed cost models",
            };
            assert_eq!(e.kind(), expected);
            assert!(!e.to_string().is_empty());
        }
        // Labels are pairwise distinct (a table cell's label identifies the
        // mechanism unambiguously).
        let mut labels: Vec<&str> = one_of_each().iter().map(|e| e.kind()).collect();
        let n = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), n, "duplicate kind() label");
    }
}

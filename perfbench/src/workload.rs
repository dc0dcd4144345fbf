//! The benchmark's workloads: the data each one generates, the operator
//! and index layout it drives, and how its run time splits across stages.

use crate::gen::{Centers, DataShape};
use osd_core::Operator;

/// Physical layout of the index under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One global R-tree (`Database`).
    Flat,
    /// STR tiles with one tree each (`ShardedDatabase`).
    Sharded(usize),
}

/// One workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why the workload exists: the layers it stresses.
    pub why: &'static str,
    /// Data and query shape.
    pub shape: DataShape,
    /// Dominance operator.
    pub op: Operator,
    /// Layout under test; the correctness reference uses the other one.
    pub layout: Layout,
    /// Distinct queries generated.
    pub distinct: usize,
    /// Distinct queries per pass. Each closed-loop pass and each batch
    /// runs one pass of the stream with a fresh warm pool.
    pub pass_queries: usize,
    /// Times each query appears in its pass.
    pub repeats: usize,
    /// Standing `ContinuousNnc` handles refreshed after every publish.
    pub handles: usize,
    /// Length of the writer's script (the writer stops at its time
    /// budget, so this only has to be long enough).
    pub mutations: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "an-psd-repeat",
            why: "P-SD over anti-correlated 12-instance objects with each query repeated ~3x: \
                  exact checks (flow, kernels) and the warm cache do the work",
            shape: DataShape {
                centers: Centers::AntiCorrelated,
                dim: 3,
                n: 20_000,
                m_d: 12,
                h_d: 400.0,
                m_q: 9,
                h_q: 200.0,
            },
            op: Operator::PSd,
            layout: Layout::Flat,
            distinct: 768,
            pass_queries: 32,
            repeats: 3,
            handles: 2,
            mutations: 3_000,
        },
        Workload {
            name: "en-point-200k",
            why: "SS-SD point queries on 200k independent objects in 8 shards: ingest, build, \
                  per-query setup and traversal; no flows, nothing for the warm cache to reuse",
            shape: DataShape {
                centers: Centers::Independent,
                dim: 3,
                n: 200_000,
                m_d: 4,
                h_d: 400.0,
                m_q: 1,
                h_q: 200.0,
            },
            op: Operator::SsSd,
            layout: Layout::Sharded(8),
            distinct: 512,
            pass_queries: 64,
            repeats: 1,
            handles: 2,
            mutations: 3_000,
        },
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload over `n` objects with smaller query sets — for
    /// the benchmark's own tests.
    pub fn scaled(mut self, n: usize) -> Workload {
        self.shape.n = n;
        self.distinct = self.distinct.min(16);
        self.pass_queries = self.pass_queries.min(4);
        self.handles = self.handles.min(2);
        self.mutations = 30;
        self
    }
}

impl Workload {
    /// Requests per pass.
    pub fn pass_len(&self) -> usize {
        self.pass_queries * self.repeats
    }

    /// The generated inputs of this workload for `seed`.
    pub fn inputs(&self, seed: u64) -> crate::gen::Inputs {
        crate::gen::inputs(
            &self.shape,
            self.distinct,
            self.pass_queries,
            self.repeats,
            self.mutations,
            seed,
        )
    }
}

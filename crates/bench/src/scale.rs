//! `repro scale` — million-object sharded-index scalability.
//!
//! Builds the USA surrogate (2-d clustered, the paper's scalability
//! dataset) at large `n`, indexes it both flat and STR-tile sharded, and
//! measures three things per point:
//!
//! 1. **build time** — flat vs sharded bulk load;
//! 2. **memory per shard** — the [`osd_core::IndexStats`] breakdown
//!    (objects, instances, tree nodes, approximate bytes per STR tile);
//! 3. **query throughput and node visits** — the flat traversal against
//!    the merged-forest traversal (all shard roots in one heap, one
//!    shared prune bound). Candidates are validated identical across the
//!    flat and merged paths.
//!
//! The full run (`n = 100k` and `1M`) writes `BENCH_scale.json`; `--smoke`
//! runs a small assertion-only point for CI and never touches the artifact.

use crate::datasets::{build_objects, build_queries, DatasetId};
use crate::params::Scale;
use crate::throughput::host_cpus;
use osd_core::{
    nn_candidates, FilterConfig, IndexStats, Operator, PreparedQuery, ShardedDatabase, SpatialIndex,
};
use std::time::Instant;

/// One measured point of the scalability curve.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Object count.
    pub n: usize,
    /// Seconds to bulk-load the flat index.
    pub build_flat_s: f64,
    /// Seconds to STR-partition and bulk-load the sharded index.
    pub build_sharded_s: f64,
    /// Per-shard size breakdown of the sharded index.
    pub stats: IndexStats,
    /// Queries per second: flat merged-traversal baseline.
    pub qps_flat: f64,
    /// Queries per second: sharded merged-forest traversal.
    pub qps_merged: f64,
    /// Total R-tree nodes visited across the workload, merged traversal.
    pub visits_merged: u64,
}

/// A full `repro scale` run.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Dataset label.
    pub dataset: &'static str,
    /// Operator label.
    pub op: &'static str,
    /// Instances per object.
    pub m_d: usize,
    /// Queries per point.
    pub queries: usize,
    /// STR tiles per sharded index.
    pub shards: usize,
    /// Logical CPUs the host reports.
    pub host_cpus: usize,
    /// One point per object count.
    pub points: Vec<ScalePoint>,
}

impl ScaleReport {
    /// Renders the report as a JSON document (hand-formatted; the
    /// workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"dataset\": \"{}\",\n", self.dataset));
        out.push_str(&format!("  \"operator\": \"{}\",\n", self.op));
        out.push_str(&format!("  \"m_d\": {},\n", self.m_d));
        out.push_str(&format!("  \"queries\": {},\n", self.queries));
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"host_cpus\": {},\n", self.host_cpus));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let sep = if i + 1 == self.points.len() { "" } else { "," };
            out.push_str(&format!("    {{ \"n\": {},\n", p.n));
            out.push_str(&format!(
                "      \"build_flat_s\": {:.6}, \"build_sharded_s\": {:.6},\n",
                p.build_flat_s, p.build_sharded_s
            ));
            out.push_str(&format!(
                "      \"qps\": {{ \"flat\": {:.3}, \"merged\": {:.3} }},\n",
                p.qps_flat, p.qps_merged
            ));
            out.push_str(&format!(
                "      \"node_visits\": {{ \"merged\": {} }},\n",
                p.visits_merged
            ));
            out.push_str("      \"per_shard\": [\n");
            for (j, s) in p.stats.shards.iter().enumerate() {
                let ssep = if j + 1 == p.stats.shards.len() {
                    ""
                } else {
                    ","
                };
                out.push_str(&format!(
                    "        {{ \"objects\": {}, \"instances\": {}, \"tree_nodes\": {}, \
                     \"tree_height\": {}, \"approx_bytes\": {} }}{ssep}\n",
                    s.objects,
                    s.instances,
                    s.tree_nodes,
                    s.tree_height.map_or(0, |h| h),
                    s.approx_bytes
                ));
            }
            out.push_str("      ]\n");
            out.push_str(&format!("    }}{sep}\n"));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Measures one scalability point: builds the USA surrogate at `n`
/// objects, indexes it flat and sharded, runs the workload through both
/// and cross-validates their candidate ids.
///
/// # Panics
/// Panics if any path's candidate ids diverge from the flat baseline —
/// that would be a sharding correctness bug, not a measurement artefact.
pub fn measure_point(scale: &Scale, shards: usize, op: Operator) -> ScalePoint {
    let objects = build_objects(DatasetId::Usa, scale);
    let queries = build_queries(&objects, DatasetId::Usa, scale);
    let cfg = FilterConfig::all();

    let started = Instant::now();
    let flat = osd_core::Database::new(objects.clone());
    let build_flat_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let sharded = ShardedDatabase::new(objects, shards);
    let build_sharded_s = started.elapsed().as_secs_f64();

    let (flat_ids, _, qps_flat) = run_workload(&queries, |q| {
        let r = nn_candidates(&flat, q, op, &cfg);
        (r.ids(), r.stats.rtree_nodes_visited)
    });
    let (merged_ids, visits_merged, qps_merged) = run_workload(&queries, |q| {
        let r = nn_candidates(&sharded, q, op, &cfg);
        (r.ids(), r.stats.rtree_nodes_visited)
    });
    assert_eq!(
        merged_ids, flat_ids,
        "merged traversal diverged from the flat baseline"
    );

    ScalePoint {
        n: flat.len(),
        build_flat_s,
        build_sharded_s,
        stats: sharded.index_stats(),
        qps_flat,
        qps_merged,
        visits_merged,
    }
}

/// Runs every query through `exec`, returning the per-query candidate
/// ids, the summed node-visit counter and the measured qps.
fn run_workload(
    queries: &[PreparedQuery],
    exec: impl Fn(&PreparedQuery) -> (Vec<usize>, u64),
) -> (Vec<Vec<usize>>, u64, f64) {
    let started = Instant::now();
    let mut ids = Vec::with_capacity(queries.len());
    let mut visits = 0u64;
    for q in queries {
        let (i, v) = exec(q);
        ids.push(i);
        visits += v;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let qps = if elapsed > 0.0 {
        queries.len() as f64 / elapsed
    } else {
        f64::INFINITY
    };
    (ids, visits, qps)
}

/// The workload shape of a scalability point: thin objects (few instances)
/// and a short query list, so the measured axis is the index, not the
/// dominance kernels.
fn scale_for(n: usize, seed_salt: u64) -> Scale {
    Scale {
        n,
        m_d: 4,
        m_q: 3,
        queries: 5,
        dim: 2,
        seed: 0x0517 ^ seed_salt,
        ..Scale::laptop()
    }
}

/// Runs the scalability benchmark and prints the table; writes the JSON
/// artifact when `json_path` is given. `smoke` shrinks the run to one
/// assertion-heavy CI-sized point.
pub fn scale(ns: &[usize], shards: usize, smoke: bool, json_path: Option<&str>) {
    let op = Operator::SSd;
    let ns: Vec<usize> = if ns.is_empty() {
        if smoke {
            vec![2_000]
        } else {
            vec![100_000, 1_000_000]
        }
    } else {
        ns.to_vec()
    };
    let mut points = Vec::with_capacity(ns.len());
    println!(
        "\n== Scale: {} on USA ({} shards, host_cpus={}) ==",
        op.label(),
        shards,
        host_cpus()
    );
    println!(
        "{:>9} {:>11} {:>13} {:>9} {:>9} {:>13}",
        "n", "build_flat", "build_sharded", "qps_flat", "qps_mrgd", "visits_mrgd"
    );
    for &n in &ns {
        let sc = scale_for(n, shards as u64);
        let p = measure_point(&sc, shards, op);
        if smoke {
            // STR tile packing may overshoot the requested count slightly;
            // it never undershoots (one tile per requested part minimum).
            assert!(p.stats.shards.len() >= shards.min(n));
        }
        println!(
            "{:>9} {:>10.3}s {:>12.3}s {:>9.1} {:>9.1} {:>13}",
            p.n, p.build_flat_s, p.build_sharded_s, p.qps_flat, p.qps_merged, p.visits_merged
        );
        points.push(p);
    }
    let report = ScaleReport {
        dataset: DatasetId::Usa.label(),
        op: op.label(),
        m_d: 4,
        queries: 5,
        shards,
        host_cpus: host_cpus(),
        points,
    };
    if let Some(path) = json_path {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_validates_and_reports_shards() {
        let sc = scale_for(300, 4);
        let p = measure_point(&sc, 4, Operator::SSd);
        assert_eq!(p.n, 300);
        assert!(p.stats.shards.len() >= 4);
        assert_eq!(p.stats.objects, 300);
        assert!(p.qps_flat > 0.0 && p.qps_merged > 0.0);
        let total: usize = p.stats.shards.iter().map(|s| s.objects).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn json_is_balanced_and_carries_metadata() {
        let sc = scale_for(120, 2);
        let p = measure_point(&sc, 2, Operator::SSd);
        let report = ScaleReport {
            dataset: "USA",
            op: "S-SD",
            m_d: 4,
            queries: 5,
            shards: 2,
            host_cpus: host_cpus(),
            points: vec![p],
        };
        let json = report.to_json();
        assert!(json.contains("\"host_cpus\":"));
        assert!(json.contains("\"shards\": 2"));
        assert!(json.contains("\"per_shard\": ["));
        assert!(json.contains("\"approx_bytes\":"));
        assert!(json.contains("\"node_visits\": {"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}

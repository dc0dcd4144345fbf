//! Golden pin of the per-query caches: a seeded query set answered on a
//! flat and an 8-shard layout, cold and through a warm pool, must
//! reproduce `tests/golden/cache_pin.txt` **bit for bit** — candidate ids,
//! `min_dist` bit patterns, emission order, every [`Stats`] counter
//! (`cache_hits` / `cache_misses` included) and the warm pool's
//! cumulative hit/miss counts after every query. A churn section drives
//! updates, deletes and inserts through a [`PublishedIndex`] whose warm
//! pool follows the epochs, and also pins the pool's eviction count and
//! resident-byte gauge after every epoch.
//!
//! The cache layouts are pure memoisation: any change to how derived
//! object state is stored must keep every line of the golden. The
//! objects carry ten instances each, so the `strict-invariants`
//! cover-chain audit (which fills cache entries of its own) never runs
//! here and the pin holds in every feature configuration.
//!
//! To regenerate the golden after an *intended* change of the counters,
//! run `OSD_BLESS_GOLDEN=1 cargo test --test cache_golden` and review the
//! diff.

// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use osd_core::{
    k_nn_candidates, k_nn_candidates_warm, nn_candidates, nn_candidates_warm, Database,
    FilterConfig, KnncResult, NncResult, Operator, PreparedQuery, PublishedIndex, ShardedDatabase,
    SpatialIndex, Stats, WarmPool,
};
use osd_datagen::{generate_objects, CenterDistribution, SynthParams};
use std::fmt::Write as _;

const GOLDEN: &str = "tests/golden/cache_pin.txt";

fn objects() -> Vec<osd_uncertain::UncertainObject> {
    generate_objects(&SynthParams {
        n: 600,
        dim: 2,
        instances: 10,
        edge: 400.0,
        centers: CenterDistribution::Independent,
        seed: 0x90_1d,
    })
}

/// Four queries of `instances` instances each.
fn queries(instances: usize, seed: u64) -> Vec<PreparedQuery> {
    generate_objects(&SynthParams {
        n: 4,
        dim: 2,
        instances,
        edge: 300.0,
        centers: CenterDistribution::Independent,
        seed,
    })
    .into_iter()
    .map(PreparedQuery::new)
    .collect()
}

fn stats_line(s: &Stats) -> String {
    let Stats {
        instance_comparisons,
        dominance_checks,
        flow_runs,
        mbr_checks,
        rtree_nodes_visited,
        cache_hits,
        cache_misses,
    } = s;
    format!(
        "ic={instance_comparisons} dc={dominance_checks} fr={flow_runs} mc={mbr_checks} \
         rn={rtree_nodes_visited} ch={cache_hits} cm={cache_misses}"
    )
}

fn nnc_line(r: &NncResult) -> String {
    let ids: Vec<String> = r
        .candidates
        .iter()
        .map(|c| format!("{}:{:016x}", c.id, c.min_dist.to_bits()))
        .collect();
    format!(
        "oc={} {} ids=[{}]",
        r.objects_checked,
        stats_line(&r.stats),
        ids.join(",")
    )
}

fn knnc_line(r: &KnncResult) -> String {
    let ids: Vec<String> = r
        .candidates
        .iter()
        .map(|(c, d)| format!("{}:{:016x}/{d}", c.id, c.min_dist.to_bits()))
        .collect();
    format!("{} ids=[{}]", stats_line(&r.stats), ids.join(","))
}

fn warm_line(pool: &WarmPool) -> String {
    let s = pool.stats();
    format!("wh={} wm={}", s.hits, s.misses)
}

fn churn_warm_line(pool: &WarmPool) -> String {
    let s = pool.stats();
    format!(
        "wh={} wm={} ev={} rb={} ep={}",
        s.hits, s.misses, s.evictions, s.resident_bytes, s.epoch
    )
}

/// Warm queries across a mutation stream: each epoch updates the first
/// candidate of the previous answer, deletes its last one and inserts a
/// fresh object, so the epoch window always touches cached entries.
fn churn_lines<D: SpatialIndex + Clone>(out: &mut String, layout: &str, db: D) {
    let cfg = FilterConfig::all();
    let fresh = generate_objects(&SynthParams {
        n: 12,
        dim: 2,
        instances: 10,
        edge: 400.0,
        centers: CenterDistribution::Independent,
        seed: 0x90_1e,
    });
    let qs = queries(5, 0x53);
    let idx = PublishedIndex::new(db);
    let mut last: Vec<usize> = Vec::new();
    for epoch in 0..6usize {
        if let (Some(&first), Some(&tail)) = (last.first(), last.last()) {
            idx.update(first, fresh[2 * epoch].clone()).unwrap();
            if tail != first {
                idx.delete(tail).unwrap();
            }
            idx.insert(fresh[2 * epoch + 1].clone()).unwrap();
        }
        let snap = idx.pin();
        for (i, q) in qs.iter().enumerate() {
            let r = nn_candidates_warm(&*snap, q, Operator::PSd, &cfg, idx.warm_pool());
            if i == 0 {
                last = r.candidates.iter().map(|c| c.id).collect();
            }
            let w = churn_warm_line(idx.warm_pool());
            writeln!(out, "{layout} churn e{epoch} q{i} {} {w}", nnc_line(&r)).unwrap();
        }
    }
}

/// The warm order: every query once, then the first one repeated inside
/// the same pool (the repeat is where the bound tables pay off).
fn warm_order(n: usize) -> impl Iterator<Item = usize> {
    (0..n).chain(std::iter::once(0))
}

/// Every golden line for one layout.
fn layout_lines(out: &mut String, layout: &str, db: &dyn SpatialIndex) {
    let cfg = FilterConfig::all();
    let cases = [
        ("sssd", Operator::SsSd, queries(1, 0x51)),
        ("psd", Operator::PSd, queries(5, 0x52)),
    ];
    for (name, op, qs) in &cases {
        let (op, qs) = (*op, qs.as_slice());
        for (i, q) in qs.iter().enumerate() {
            let cold = nn_candidates(db, q, op, &cfg);
            writeln!(out, "{layout} {name} cold q{i} {}", nnc_line(&cold)).unwrap();
            let k = k_nn_candidates(db, q, op, 2, &cfg);
            writeln!(out, "{layout} {name} k2-cold q{i} {}", knnc_line(&k)).unwrap();
        }
        let pool = WarmPool::new();
        for i in warm_order(qs.len()) {
            let r = nn_candidates_warm(db, &qs[i], op, &cfg, &pool);
            let w = warm_line(&pool);
            writeln!(out, "{layout} {name} warm q{i} {} {w}", nnc_line(&r)).unwrap();
        }
        let pool = WarmPool::new();
        for i in warm_order(qs.len()) {
            let r = k_nn_candidates_warm(db, &qs[i], op, 2, &cfg, &pool);
            let w = warm_line(&pool);
            writeln!(out, "{layout} {name} k2-warm q{i} {} {w}", knnc_line(&r)).unwrap();
        }
    }
}

fn render() -> String {
    let mut out = String::new();
    let objects = objects();
    layout_lines(&mut out, "flat", &Database::new(objects.clone()));
    layout_lines(
        &mut out,
        "shard8",
        &ShardedDatabase::new(objects.clone(), 8),
    );
    churn_lines(&mut out, "flat", Database::new(objects.clone()));
    churn_lines(&mut out, "shard8", ShardedDatabase::new(objects, 8));
    out
}

#[test]
fn caches_reproduce_the_golden_pin() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let actual = render();
    if std::env::var_os("OSD_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden file present");
    for (n, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "golden line {} diverged", n + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "golden line count diverged"
    );
}

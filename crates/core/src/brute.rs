//! Brute-force NNC computation — the `O(n²)` reference implementation.
//!
//! Definition 6 directly: an object is a candidate iff no other object
//! dominates it. Used as the correctness oracle for Algorithm 1 and as the
//! `BF` baseline of the Appendix C ablation.

use crate::config::{FilterConfig, Stats};
use crate::ctx::CheckCtx;
use crate::index::SpatialIndex;
use crate::ops::Operator;
use crate::query::PreparedQuery;

/// Computes `NNC(O, Q, SD)` by checking every object against every other.
/// Returns candidate ids in ascending id order plus the accumulated
/// counters.
pub fn nn_candidates_bruteforce(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    cfg: &FilterConfig,
) -> (Vec<usize>, Stats) {
    let mut ctx = CheckCtx::new(db, query, *cfg);
    let mut out = Vec::new();
    // Tombstoned ids are skipped: the dominance relation ranges over the
    // live objects of the pinned snapshot only.
    'outer: for v in (0..db.len()).filter(|&v| db.is_live(v)) {
        for u in (0..db.len()).filter(|&u| db.is_live(u)) {
            if u != v && ctx.dominates(op, u, v) {
                continue 'outer;
            }
        }
        out.push(v);
    }
    (out, ctx.stats)
}

/// Brute-force oracle for the k-robust candidates: objects dominated by
/// fewer than `k` others, in ascending id order.
///
/// # Panics
/// Panics if `k == 0`.
pub fn k_nn_candidates_bruteforce(
    db: &dyn SpatialIndex,
    query: &PreparedQuery,
    op: Operator,
    k: usize,
    cfg: &FilterConfig,
) -> Vec<usize> {
    assert!(k >= 1, "k must be at least 1");
    let mut ctx = CheckCtx::new(db, query, *cfg);
    (0..db.len())
        .filter(|&v| {
            let dominators = (0..db.len())
                .filter(|&u| u != v && ctx.dominates(op, u, v))
                .count();
            dominators < k
        })
        .collect()
}

//! Level-by-level stochastic dominance bounds (§5.1.1, last paragraph):
//! "Suppose instances of each object are organized by an R-tree, we may
//! easily extend the above algorithms to conduct dominance check in a
//! level-by-level fashion."
//!
//! At R-tree level ℓ each object is a set of node groups with known MBRs
//! and probability masses. Placing a group's whole mass at its minimal
//! (resp. maximal) distance to a query instance yields an *optimistic*
//! (resp. *pessimistic*) bound distribution:
//!
//! ```text
//! U_opt ⪯_st U_Q ⪯_st U_pes
//! ```
//!
//! which gives, by transitivity of `⪯_st`:
//!
//! * **validation** — `U_pes ⪯_st V_opt  ⇒  U_Q ⪯_st V_Q`
//!   (plus `mean(U_pes) < mean(V_opt)` to certify `U_Q ≠ V_Q`);
//! * **pruning** — `¬(U_opt ⪯_st V_pes)  ⇒  ¬(U_Q ⪯_st V_Q)`.
//!
//! The check descends level by level and stops as soon as either rule
//! fires; inconclusive descents fall through to the exact scan.

use crate::config::Stats;
use crate::ctx::CheckCtx;
use crate::index::SpatialIndex;
use crate::query::PreparedQuery;
use osd_geom::Mbr;
use osd_obs::{AttrValue, Phase, PhaseTimer, SpanId};
use osd_uncertain::stochastic::stochastically_dominates_counted;
use osd_uncertain::DistanceDistribution;
use std::borrow::Cow;

/// Which distribution the level bounds approximate.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Granularity {
    /// Bounds on the full `U_Q` (for S-SD).
    Whole,
    /// Bounds on each `U_q` separately (for SS-SD).
    PerInstance,
}

/// Attempts to decide `U_Q ⪯_st V_Q` (strictly, for the SD side condition)
/// from R-tree node bounds. `Some(true)` = validated, `Some(false)` =
/// pruned, `None` = inconclusive.
///
/// The whole descent is recorded under the *level-prune* phase.
pub(crate) fn try_decide(
    u: usize,
    v: usize,
    granularity: Granularity,
    ctx: &mut CheckCtx<'_>,
) -> Option<bool> {
    let timer = PhaseTimer::start(Phase::LevelPrune);
    let span = ctx.trace.open("level-prune");
    let decision = try_decide_inner(u, v, granularity, ctx);
    if span != SpanId::NONE {
        ctx.trace.attr(span, "u", AttrValue::U64(u as u64));
        ctx.trace.attr(span, "v", AttrValue::U64(v as u64));
        ctx.trace.attr(
            span,
            "decision",
            AttrValue::Str(Cow::Borrowed(match decision {
                Some(true) => "validated",
                Some(false) => "pruned",
                None => "inconclusive",
            })),
        );
    }
    ctx.trace.close(span);
    ctx.metrics.record(timer);
    decision
}

fn try_decide_inner(
    u: usize,
    v: usize,
    granularity: Granularity,
    ctx: &mut CheckCtx<'_>,
) -> Option<bool> {
    if ctx.cfg.kernels {
        return try_decide_snapshot(u, v, granularity, ctx);
    }
    let db = ctx.db;
    let query = ctx.query;
    let stats = &mut ctx.stats;
    let tree_u = db.local_tree(u);
    let tree_v = db.local_tree(v);
    let depth = tree_u
        .height()
        .unwrap_or(0)
        .max(tree_v.height().unwrap_or(0));
    for level in 1..=depth {
        let gu = tree_u.level_groups(level);
        let gv = tree_v.level_groups(level);
        // Once both partitions are down to single instances the bounds are
        // exact but cost as much as the exact scan — stop early.
        if gu.len() == db.object(u).len() && gv.len() == db.object(v).len() {
            return None;
        }
        let masses_u = group_masses(db, u, &gu);
        let masses_v = group_masses(db, v, &gv);
        let zu = || group_view(&gu, &masses_u);
        let zv = || group_view(&gv, &masses_v);
        match granularity {
            Granularity::Whole => {
                let (u_opt, u_pes) = bound_whole(query, zu(), stats);
                let (v_opt, v_pes) = bound_whole(query, zv(), stats);
                if validated(&u_pes, &v_opt, stats) {
                    return Some(true);
                }
                if !stochastically_dominates_counted(
                    &u_opt,
                    &v_pes,
                    &mut stats.instance_comparisons,
                ) {
                    return Some(false);
                }
            }
            Granularity::PerInstance => {
                let mut all_validated = true;
                for q in query.object().instances() {
                    let (u_opt, u_pes) = bound_instance(&q.point, zu(), stats);
                    let (v_opt, v_pes) = bound_instance(&q.point, zv(), stats);
                    if !stochastically_dominates_counted(
                        &u_opt,
                        &v_pes,
                        &mut stats.instance_comparisons,
                    ) {
                        return Some(false);
                    }
                    if all_validated && !validated(&u_pes, &v_opt, stats) {
                        all_validated = false;
                    }
                }
                if all_validated {
                    return Some(true);
                }
            }
        }
    }
    None
}

/// The memoized twin of the scalar descent above: identical level loop,
/// early stop, decision rules and comparison counting, but the bound
/// distributions come from the per-(object, level) memo built once per
/// traversal instead of being re-derived and re-sorted for every `(u, v)`
/// pair. Each *use* of a memoized pair charges the same 2-per-(instance,
/// group) comparison cost the scalar rebuild pays, keeping the frozen
/// counters bit-identical.
fn try_decide_snapshot(
    u: usize,
    v: usize,
    granularity: Granularity,
    ctx: &mut CheckCtx<'_>,
) -> Option<bool> {
    let db = ctx.db;
    let m_q = ctx.query.len() as u64;
    let snap_u = ctx.level_snapshot(u);
    let snap_v = ctx.level_snapshot(v);
    let depth = snap_u.height().max(snap_v.height());
    for level in 1..=depth {
        let gu = snap_u.level(level).len();
        let gv = snap_v.level(level).len();
        if gu == db.object(u).len() && gv == db.object(v).len() {
            return None;
        }
        match granularity {
            Granularity::Whole => {
                let bu = ctx.level_bounds_whole(u, level);
                let bv = ctx.level_bounds_whole(v, level);
                let stats = &mut ctx.stats;
                stats.instance_comparisons += 2 * (gu as u64 + gv as u64) * m_q;
                let (u_opt, u_pes) = &*bu;
                let (v_opt, v_pes) = &*bv;
                if validated(u_pes, v_opt, stats) {
                    return Some(true);
                }
                if !stochastically_dominates_counted(u_opt, v_pes, &mut stats.instance_comparisons)
                {
                    return Some(false);
                }
            }
            Granularity::PerInstance => {
                let bu = ctx.level_bounds_instance(u, level);
                let bv = ctx.level_bounds_instance(v, level);
                let stats = &mut ctx.stats;
                let mut all_validated = true;
                for ((u_opt, u_pes), (v_opt, v_pes)) in bu.iter().zip(bv.iter()) {
                    stats.instance_comparisons += 2 * (gu as u64 + gv as u64);
                    if !stochastically_dominates_counted(
                        u_opt,
                        v_pes,
                        &mut stats.instance_comparisons,
                    ) {
                        return Some(false);
                    }
                    if all_validated && !validated(u_pes, v_opt, stats) {
                        all_validated = false;
                    }
                }
                if all_validated {
                    return Some(true);
                }
            }
        }
    }
    None
}

fn group_masses(db: &dyn SpatialIndex, id: usize, groups: &[(Mbr, Vec<usize>)]) -> Vec<f64> {
    let obj = db.object(id);
    groups
        .iter()
        .map(|(_, items)| items.iter().map(|&i| obj.prob(i)).sum())
        .collect()
}

/// `(group MBR, group mass)` view over the scalar per-pair rebuild.
fn group_view<'m>(
    groups: &'m [(Mbr, Vec<usize>)],
    masses: &'m [f64],
) -> impl Iterator<Item = (&'m Mbr, f64)> + Clone {
    groups.iter().map(|(m, _)| m).zip(masses.iter().copied())
}

/// Optimistic / pessimistic bounds on the whole `U_Q`.
fn bound_whole<'m>(
    query: &PreparedQuery,
    groups: impl Iterator<Item = (&'m Mbr, f64)> + Clone,
    stats: &mut Stats,
) -> (DistanceDistribution, DistanceDistribution) {
    let n_groups = groups.size_hint().0;
    let mut lo = Vec::with_capacity(n_groups * query.len());
    let mut hi = Vec::with_capacity(n_groups * query.len());
    for q in query.object().instances() {
        for (mbr, mass) in groups.clone() {
            stats.instance_comparisons += 2;
            lo.push((mbr.min_dist_point(&q.point), q.prob * mass));
            hi.push((mbr.max_dist_point(&q.point), q.prob * mass));
        }
    }
    (
        DistanceDistribution::from_atoms(lo),
        DistanceDistribution::from_atoms(hi),
    )
}

/// Optimistic / pessimistic bounds on a single `U_q`.
fn bound_instance<'m>(
    q: &osd_geom::Point,
    groups: impl Iterator<Item = (&'m Mbr, f64)> + Clone,
    stats: &mut Stats,
) -> (DistanceDistribution, DistanceDistribution) {
    let n_groups = groups.size_hint().0;
    let mut lo = Vec::with_capacity(n_groups);
    let mut hi = Vec::with_capacity(n_groups);
    for (mbr, mass) in groups {
        stats.instance_comparisons += 2;
        lo.push((mbr.min_dist_point(q), mass));
        hi.push((mbr.max_dist_point(q), mass));
    }
    (
        DistanceDistribution::from_atoms(lo),
        DistanceDistribution::from_atoms(hi),
    )
}

/// Validation with a strictness certificate: pessimistic-U dominating
/// optimistic-V proves `U_Q ⪯_st V_Q`; a strictly smaller mean proves
/// `U_Q ≠ V_Q` on top.
fn validated(
    u_pes: &DistanceDistribution,
    v_opt: &DistanceDistribution,
    stats: &mut Stats,
) -> bool {
    stats.instance_comparisons += 1;
    u_pes.mean() < v_opt.mean()
        && stochastically_dominates_counted(u_pes, v_opt, &mut stats.instance_comparisons)
}

//! Exact O(d) MBR-level full spatial dominance (the F⁺-SD kernel).
//!
//! `F-SD(U_mbr, V_mbr, Q_mbr)` holds iff for **every** point `q ∈ Q_mbr`,
//! `maxdist(q, U_mbr) ≤ mindist(q, V_mbr)` — i.e. every possible instance of
//! `U` is at least as close to every possible query instance as every
//! possible instance of `V`. This is the optimal MBR pruning criterion of
//! Emrich et al. (SIGMOD 2010, \[16\] in the paper), which the paper reuses for
//! cover-based *validation* (Theorem 4) and for the F⁺-SD baseline.
//!
//! The test is decided exactly in `O(d)`: using squared distances, the gap
//!
//! ```text
//! g(q) = maxdist²(q, U) − mindist²(q, V) = Σ_i g_i(q_i)
//! ```
//!
//! is separable per dimension. Each `g_i` is a difference of piecewise
//! quadratics whose pieces are linear or convex, so the per-dimension maximum
//! over the interval `[Q.lo_i, Q.hi_i]` is attained at one of at most five
//! candidate coordinates: the interval endpoints, the midpoint of `U`'s edge
//! (where the farthest-corner term switches), and `V`'s edge endpoints
//! (where the clamp term switches). Dominance holds iff the summed maxima
//! are `≤ 0`.

use crate::mbr::MbrRef;

/// Per-dimension contribution `g_i(t) = max((t−a)², (t−b)²) − dist²(t, [c,d])`.
#[inline]
fn gap_1d(t: f64, a: f64, b: f64, c: f64, d: f64) -> f64 {
    let far = {
        let da = t - a;
        let db = t - b;
        (da * da).max(db * db)
    };
    let near = if t < c {
        let d0 = c - t;
        d0 * d0
    } else if t > d {
        let d0 = t - d;
        d0 * d0
    } else {
        0.0
    };
    far - near
}

/// Maximum of `g_i` over `t ∈ [lo, hi]`.
#[inline]
fn max_gap_1d(lo: f64, hi: f64, a: f64, b: f64, c: f64, d: f64) -> f64 {
    // Candidate maximisers: the interval ends plus every breakpoint of the
    // piecewise-quadratic pieces that falls inside the interval. On each
    // piece g is linear or convex, so the piece-wise maximum sits on a piece
    // boundary.
    let mut best = gap_1d(lo, a, b, c, d).max(gap_1d(hi, a, b, c, d));
    for bp in [0.5 * (a + b), c, d] {
        if bp > lo && bp < hi {
            best = best.max(gap_1d(bp, a, b, c, d));
        }
    }
    best
}

/// Exact MBR-level full spatial dominance:
/// returns `true` iff `maxdist(q, u) ≤ mindist(q, v)` for every `q ∈ q_mbr`.
///
/// Each box is an owned [`Mbr`](crate::Mbr) or a borrowed
/// [`MbrRef`] (an R-tree slot box); both give the same bits.
///
/// # Panics
/// Panics in debug builds if the three boxes disagree on dimensionality.
pub fn mbr_dominates<'u, 'v, 'q>(
    u: impl Into<MbrRef<'u>>,
    v: impl Into<MbrRef<'v>>,
    q_mbr: impl Into<MbrRef<'q>>,
) -> bool {
    max_total_gap(u.into(), v.into(), q_mbr.into()) <= 0.0
}

/// Strict MBR-level dominance: `maxdist(q, u) < mindist(q, v)` for every
/// `q ∈ q_mbr`.
///
/// Strictness guarantees every instance of `U` is *strictly* closer than
/// every instance of `V` to every query instance, which in turn guarantees
/// `U_Q ≠ V_Q` — the side condition of the strict dominance operators
/// (Definitions 2/3/5). The cover-based validation rules use this variant so
/// a validated "dominates" can never be contradicted by distribution
/// equality.
pub fn mbr_dominates_strict<'u, 'v, 'q>(
    u: impl Into<MbrRef<'u>>,
    v: impl Into<MbrRef<'v>>,
    q_mbr: impl Into<MbrRef<'q>>,
) -> bool {
    max_total_gap(u.into(), v.into(), q_mbr.into()) < 0.0
}

fn max_total_gap(u: MbrRef<'_>, v: MbrRef<'_>, q_mbr: MbrRef<'_>) -> f64 {
    debug_assert_eq!(u.dim(), v.dim());
    debug_assert_eq!(u.dim(), q_mbr.dim());
    let mut total = 0.0;
    for i in 0..u.dim() {
        total += max_gap_1d(
            q_mbr.lo()[i],
            q_mbr.hi()[i],
            u.lo()[i],
            u.hi()[i],
            v.lo()[i],
            v.hi()[i],
        );
        // Early exit is unsound here: later dimensions may contribute
        // negative slack, so we must accumulate the full sum.
    }
    total
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::mbr::Mbr;
    use crate::point::Point;

    #[test]
    fn strict_vs_nonstrict_on_touching_boxes() {
        // Degenerate identical point boxes: distances tie everywhere, so the
        // non-strict test passes and the strict test fails.
        let u = Mbr::new(vec![1.0, 1.0], vec![1.0, 1.0]);
        let q = Mbr::new(vec![0.0, 0.0], vec![0.5, 0.5]);
        assert!(mbr_dominates(&u, &u, &q));
        assert!(!mbr_dominates_strict(&u, &u, &q));
        // Clearly separated boxes pass both.
        let v = Mbr::new(vec![10.0, 10.0], vec![11.0, 11.0]);
        assert!(mbr_dominates(&u, &v, &q));
        assert!(mbr_dominates_strict(&u, &v, &q));
    }

    fn b(lo: &[f64], hi: &[f64]) -> Mbr {
        Mbr::new(lo.to_vec(), hi.to_vec())
    }

    /// Brute-force oracle: sample a dense grid of (q, u, v) corner/edge
    /// combinations. For boxes, extremal distances are attained at corners,
    /// and the separable argument means checking a fine grid of q positions
    /// with exact corner distances is a sound approximation of the oracle.
    fn oracle(u: &Mbr, v: &Mbr, q: &Mbr, steps: usize) -> bool {
        let d = u.dim();
        let mut idx = vec![0usize; d];
        loop {
            let qp: Vec<f64> = (0..d)
                .map(|i| {
                    let t = idx[i] as f64 / steps as f64;
                    q.lo()[i] + t * (q.hi()[i] - q.lo()[i])
                })
                .collect();
            let qp = Point::new(qp);
            if u.max_dist2_point(&qp) > v.min_dist2_point(&qp) + 1e-12 {
                return false;
            }
            // advance the mixed-radix counter
            let mut i = 0;
            loop {
                if i == d {
                    return true;
                }
                idx[i] += 1;
                if idx[i] <= steps {
                    break;
                }
                idx[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn clear_separation_dominates() {
        let u = b(&[0.0, 0.0], &[1.0, 1.0]);
        let v = b(&[10.0, 10.0], &[11.0, 11.0]);
        let q = b(&[0.0, 0.0], &[2.0, 2.0]);
        assert!(mbr_dominates(&u, &v, &q));
        assert!(!mbr_dominates(&v, &u, &q));
    }

    #[test]
    fn overlapping_boxes_do_not_dominate() {
        let u = b(&[0.0, 0.0], &[2.0, 2.0]);
        let v = b(&[1.0, 1.0], &[3.0, 3.0]);
        let q = b(&[0.0, 0.0], &[1.0, 1.0]);
        assert!(!mbr_dominates(&u, &v, &q));
    }

    #[test]
    fn identical_boxes_dominate_nonstrictly_only_when_degenerate() {
        // A degenerate (point) box trivially dominates itself: distances equal.
        let u = b(&[1.0, 1.0], &[1.0, 1.0]);
        let q = b(&[0.0, 0.0], &[0.5, 0.5]);
        assert!(mbr_dominates(&u, &u, &q));
        // A non-degenerate box never F-SD-dominates itself: some corner of U
        // is farther from q than the nearest point of V=U.
        let w = b(&[1.0, 1.0], &[2.0, 2.0]);
        assert!(!mbr_dominates(&w, &w, &q));
    }

    #[test]
    fn query_extent_matters() {
        // U is closer for queries near the origin, but a large query box
        // includes positions where V wins.
        let u = b(&[0.0, 0.0], &[1.0, 1.0]);
        let v = b(&[5.0, 0.0], &[6.0, 1.0]);
        let small_q = b(&[0.0, 0.0], &[1.0, 1.0]);
        let big_q = b(&[0.0, 0.0], &[20.0, 1.0]);
        assert!(mbr_dominates(&u, &v, &small_q));
        assert!(!mbr_dominates(&u, &v, &big_q));
    }

    #[test]
    fn matches_grid_oracle_on_handmade_cases() {
        let cases = [
            (
                b(&[0.0, 0.0], &[1.0, 2.0]),
                b(&[4.0, -1.0], &[6.0, 0.0]),
                b(&[-1.0, 0.0], &[1.0, 1.0]),
            ),
            (
                b(&[0.0, 0.0], &[3.0, 3.0]),
                b(&[2.0, 2.0], &[5.0, 5.0]),
                b(&[0.0, 0.0], &[1.0, 1.0]),
            ),
            (
                b(&[-2.0, -2.0], &[-1.0, -1.0]),
                b(&[3.0, 3.0], &[4.0, 4.0]),
                b(&[-1.0, -1.0], &[0.0, 0.0]),
            ),
        ];
        for (u, v, q) in cases {
            assert_eq!(mbr_dominates(&u, &v, &q), oracle(&u, &v, &q, 16));
        }
    }

    #[test]
    fn one_dimensional_cases() {
        let u = b(&[0.0], &[1.0]);
        let v = b(&[3.0], &[4.0]);
        assert!(mbr_dominates(&u, &v, &b(&[0.0], &[1.0])));
        // Query far to the right of both: V becomes closer.
        assert!(!mbr_dominates(&u, &v, &b(&[0.0], &[10.0])));
    }
}

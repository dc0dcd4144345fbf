//! Objects with multiple instances (discrete uncertain objects).
//!
//! Following §2.1 of the paper, an object `U` is a set of instances
//! `{u_1, …, u_m}` with a probability mass function `p(u_i)`,
//! `Σ p(u_i) = 1`. Multi-valued objects (instances carrying weights) are
//! normalised into this representation — the paper shows the transformation
//! preserves NN ranks for all functions studied when total weight masses are
//! equal, so it is safe for dominance checking.

use crate::error::ObjectError;
use osd_geom::{check_coord, Mbr, Point};

/// One instance of an object: a point plus its probability mass.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Location of the instance.
    pub point: Point,
    /// Probability (or normalised weight) of the instance, in `(0, 1]`.
    pub prob: f64,
}

/// An object with multiple instances, modelled as a discrete random
/// variable over points (§2.1).
#[derive(Debug, Clone)]
pub struct UncertainObject {
    instances: Vec<Instance>,
    mbr: Mbr,
}

/// Tolerance for "probabilities sum to one".
const PROB_SUM_EPS: f64 = 1e-6;

impl UncertainObject {
    /// Creates an object from `(point, probability)` pairs.
    ///
    /// # Panics
    /// Panics if the list is empty, dimensions are inconsistent, any
    /// probability is not in `(0, 1]`, the probabilities do not sum to 1
    /// (within `1e-6`), or a coordinate exceeds [`osd_geom::MAX_COORD`] in
    /// magnitude. Use [`UncertainObject::try_new`] for untrusted data.
    pub fn new(instances: Vec<(Point, f64)>) -> Self {
        match Self::try_new(instances) {
            Ok(o) => o,
            Err(e) => Self::invalid(e),
        }
    }

    /// Aborts a panicking constructor with the invariant violation `e`.
    ///
    /// The panicking constructors are the documented ergonomic path for
    /// trusted, programmatic data; the `try_*` variants are the fallible
    /// path. This is the single place the crate's `clippy::panic` policy is
    /// waived to honour that contract.
    #[cold]
    #[allow(clippy::panic)]
    fn invalid(e: ObjectError) -> ! {
        panic!("{e}")
    }

    /// Fallible variant of [`UncertainObject::new`] for untrusted input.
    ///
    /// # Errors
    /// Returns an [`ObjectError`] describing the first violated invariant.
    pub fn try_new(instances: Vec<(Point, f64)>) -> Result<Self, ObjectError> {
        if instances.is_empty() {
            return Err(ObjectError::Empty);
        }
        let dim = instances[0].0.dim();
        let mut sum = 0.0;
        for (p, pr) in &instances {
            if p.dim() != dim {
                return Err(ObjectError::DimensionMismatch {
                    expected: dim,
                    found: p.dim(),
                });
            }
            if !(*pr > 0.0 && *pr <= 1.0 && pr.is_finite()) {
                return Err(ObjectError::BadProbability(*pr));
            }
            for &c in p.coords() {
                check_coord(c).map_err(|_| ObjectError::BadCoordinate(c))?;
            }
            sum += pr;
        }
        if (sum - 1.0).abs() > PROB_SUM_EPS {
            return Err(ObjectError::BadMass(sum));
        }
        let mbr = Mbr::enclosing(
            instances[0].0.coords(),
            instances[1..].iter().map(|(p, _)| p.coords()),
        );
        let instances = instances
            .into_iter()
            .map(|(point, prob)| Instance { point, prob })
            .collect();
        Ok(UncertainObject { instances, mbr })
    }

    /// Creates an object whose instances all carry the same probability
    /// `1 / n` — the setting used for the real datasets in §6.
    pub fn uniform(points: Vec<Point>) -> Self {
        assert!(!points.is_empty(), "an object needs at least one instance");
        let p = 1.0 / points.len() as f64;
        // Feed probabilities through `new` minus the sum check (1/n * n can
        // drift); normalise the last instance to absorb rounding instead.
        let n = points.len();
        let mut pairs: Vec<(Point, f64)> = points.into_iter().map(|pt| (pt, p)).collect();
        let used: f64 = p * (n - 1) as f64;
        pairs[n - 1].1 = 1.0 - used;
        UncertainObject::new(pairs)
    }

    /// Creates an object from weighted instances of a *multi-valued object*,
    /// normalising the weights to probabilities: `p(u_i) = w(u_i) / Σ_j w(u_j)`.
    ///
    /// # Panics
    /// Panics if the list is empty or any weight is non-positive. Use
    /// [`UncertainObject::try_from_weighted`] for untrusted data.
    pub fn from_weighted(instances: Vec<(Point, f64)>) -> Self {
        match Self::try_from_weighted(instances) {
            Ok(o) => o,
            Err(e) => Self::invalid(e),
        }
    }

    /// Fallible variant of [`UncertainObject::from_weighted`].
    ///
    /// # Errors
    /// Returns an [`ObjectError`] describing the first violated invariant.
    pub fn try_from_weighted(instances: Vec<(Point, f64)>) -> Result<Self, ObjectError> {
        if instances.is_empty() {
            return Err(ObjectError::Empty);
        }
        let total: f64 = instances.iter().map(|(_, w)| *w).sum();
        if !(total > 0.0 && total.is_finite()) {
            return Err(ObjectError::BadWeight(total));
        }
        for (_, w) in &instances {
            if *w <= 0.0 || !w.is_finite() {
                return Err(ObjectError::BadWeight(*w));
            }
        }
        Self::try_new(instances.into_iter().map(|(p, w)| (p, w / total)).collect())
    }

    /// Number of instances (`|U|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// `true` iff the object has exactly one instance (a certain point).
    pub fn is_certain(&self) -> bool {
        self.instances.len() == 1
    }

    /// Never true — objects are non-empty by construction — but provided for
    /// API completeness alongside `len`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The instances.
    #[inline]
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Dimensionality of the instance space.
    pub fn dim(&self) -> usize {
        self.instances[0].point.dim()
    }

    /// The object's minimal bounding rectangle.
    #[inline]
    pub fn mbr(&self) -> &Mbr {
        &self.mbr
    }

    /// Minimal distance from a point to any instance: `δ_min(q, U)`.
    pub fn min_dist(&self, q: &Point) -> f64 {
        self.instances
            .iter()
            .map(|i| i.point.dist(q))
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximal distance from a point to any instance: `δ_max(q, U)`.
    pub fn max_dist(&self, q: &Point) -> f64 {
        self.instances
            .iter()
            .map(|i| i.point.dist(q))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;

    fn p2(x: f64, y: f64) -> Point {
        Point::new(vec![x, y])
    }

    #[test]
    fn construction_and_mbr() {
        let o = UncertainObject::new(vec![(p2(0.0, 0.0), 0.4), (p2(2.0, 4.0), 0.6)]);
        assert_eq!(o.len(), 2);
        assert_eq!(o.mbr().lo(), &[0.0, 0.0]);
        assert_eq!(o.mbr().hi(), &[2.0, 4.0]);
        assert_eq!(o.dim(), 2);
        assert!(!o.is_certain());
    }

    #[test]
    fn uniform_sums_to_one() {
        let pts: Vec<Point> = (0..7).map(|i| p2(i as f64, 0.0)).collect();
        let o = UncertainObject::uniform(pts);
        let sum: f64 = o.instances().iter().map(|i| i.prob).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_normalisation() {
        let o = UncertainObject::from_weighted(vec![(p2(0.0, 0.0), 2.0), (p2(1.0, 1.0), 6.0)]);
        assert!((o.instances()[0].prob - 0.25).abs() < 1e-12);
        assert!((o.instances()[1].prob - 0.75).abs() < 1e-12);
    }

    #[test]
    fn min_max_dist() {
        let o = UncertainObject::uniform(vec![p2(1.0, 0.0), p2(5.0, 0.0)]);
        let q = p2(0.0, 0.0);
        assert_eq!(o.min_dist(&q), 1.0);
        assert_eq!(o.max_dist(&q), 5.0);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_probability_sum_rejected() {
        let _ = UncertainObject::new(vec![(p2(0.0, 0.0), 0.4), (p2(1.0, 1.0), 0.4)]);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn empty_rejected() {
        let _ = UncertainObject::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn mixed_dims_rejected() {
        let _ = UncertainObject::new(vec![(Point::new(vec![0.0]), 0.5), (p2(1.0, 1.0), 0.5)]);
    }

    #[test]
    fn try_new_reports_structured_errors() {
        use crate::error::ObjectError;
        assert!(matches!(
            UncertainObject::try_new(vec![]),
            Err(ObjectError::Empty)
        ));
        let r = UncertainObject::try_new(vec![(Point::new(vec![0.0]), 0.5), (p2(1.0, 1.0), 0.5)]);
        assert!(matches!(
            r,
            Err(ObjectError::DimensionMismatch {
                expected: 1,
                found: 2
            })
        ));
        let r = UncertainObject::try_new(vec![(p2(0.0, 0.0), 1.5)]);
        assert!(matches!(r, Err(ObjectError::BadProbability(_))));
        let r = UncertainObject::try_new(vec![(p2(0.0, 0.0), 0.4)]);
        assert!(matches!(r, Err(ObjectError::BadMass(_))));
        let r = UncertainObject::try_new(vec![(p2(0.0, 0.0), 0.5), (p2(1.0, -1e151), 0.5)]);
        assert!(matches!(r, Err(ObjectError::BadCoordinate(c)) if c == -1e151));
        assert!(UncertainObject::try_new(vec![(p2(0.0, 0.0), 1.0)]).is_ok());
        assert!(UncertainObject::try_new(vec![(p2(1e150, -1e150), 1.0)]).is_ok());
    }

    #[test]
    fn try_from_weighted_reports_bad_weight() {
        use crate::error::ObjectError;
        let r = UncertainObject::try_from_weighted(vec![(p2(0.0, 0.0), -1.0), (p2(1.0, 1.0), 2.0)]);
        assert!(matches!(r, Err(ObjectError::BadWeight(_))));
        assert!(UncertainObject::try_from_weighted(vec![(p2(0.0, 0.0), 3.0)]).is_ok());
    }

    #[test]
    fn error_display_is_informative() {
        let msg = format!("{}", crate::error::ObjectError::BadMass(0.7));
        assert!(msg.contains("sum to 1"));
        assert!(msg.contains("0.7"));
    }
}

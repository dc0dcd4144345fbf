//! Flat columnar (SoA) instance storage with zero-copy views.
//!
//! The dominance kernels spend their time in tight loops over instance
//! pairs (§4–§6 of the paper). The boxed AoS layout
//! (`Vec<UncertainObject> → Vec<Instance> → Point(Box<[f64]>)`) scatters
//! those loops across the heap; an [`InstanceStore`] instead keeps every
//! instance of every object in one contiguous row-major `coords` block with
//! a parallel `probs` column and per-object `(offset, len)` spans.
//!
//! Invariants, maintained by construction and audited by
//! [`InstanceStore::validate`]:
//!
//! * `coords.len() == probs.len() * dim`;
//! * spans tile the instance range exactly: span `i+1` starts where span
//!   `i` ends, span `0` starts at `0`, and the last span ends at
//!   `probs.len()`; every span is non-empty;
//! * `mbrs[i]` is the tight MBR of object `i`'s rows;
//! * per object, probabilities are each in `(0, 1]` and sum to 1 (within
//!   the same `1e-6` tolerance as [`UncertainObject`]).
//!
//! [`ObjectRef`]/[`InstanceRef`] are cheap borrowed views (a pointer + an
//! id); cloning a view never clones coordinates. Readers share a snapshot
//! through `Arc<InstanceStore>`; the store is plain data (`Send + Sync`),
//! so worker threads borrow the same allocation with zero copies.

use crate::error::ObjectError;
use crate::object::{Instance, UncertainObject};
use osd_geom::{max_dist2_rows, min_dist2_rows, Mbr, Point};
use std::fmt;

/// Why an [`InstanceStore`] could not be built or extended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No objects were supplied.
    Empty,
    /// An object disagrees with the store's dimensionality.
    DimensionMismatch {
        /// Dimensionality of the store (set by the first object).
        expected: usize,
        /// Dimensionality of the offending object.
        found: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Empty => write!(f, "an instance store needs at least one object"),
            StoreError::DimensionMismatch { expected, found } => write!(
                f,
                "object dimensionality must match the store: expected {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Columnar storage for the instances of a set of uncertain objects.
///
/// See the [module documentation](self) for the layout and its invariants.
#[derive(Debug, Clone)]
pub struct InstanceStore {
    dim: usize,
    /// Row-major instance coordinates, `dim`-strided.
    coords: Vec<f64>,
    /// Instance probabilities, parallel to the rows of `coords`.
    probs: Vec<f64>,
    /// Per-object `(first instance index, instance count)`.
    spans: Vec<(usize, usize)>,
    /// Per-object minimal bounding rectangles.
    mbrs: Vec<Mbr>,
}

impl InstanceStore {
    /// Builds a store from existing objects, copying each object's
    /// instances into the flat columns (coordinates, probabilities and the
    /// already-computed MBRs are taken verbatim, so derived geometry is
    /// bit-for-bit identical to the boxed layout).
    ///
    /// # Errors
    /// [`StoreError::Empty`] if `objects` is empty,
    /// [`StoreError::DimensionMismatch`] if the objects disagree on
    /// dimensionality.
    pub fn from_objects(objects: &[UncertainObject]) -> Result<Self, StoreError> {
        let first = objects.first().ok_or(StoreError::Empty)?;
        let dim = first.dim();
        let total: usize = objects.iter().map(UncertainObject::len).sum();
        let mut store = InstanceStore {
            dim,
            coords: Vec::with_capacity(total * dim),
            probs: Vec::with_capacity(total),
            spans: Vec::with_capacity(objects.len()),
            mbrs: Vec::with_capacity(objects.len()),
        };
        for o in objects {
            store.push_object(o)?;
        }
        Ok(store)
    }

    /// Appends one object's instances to the columns, returning its id.
    ///
    /// # Errors
    /// [`StoreError::DimensionMismatch`] if the object's dimensionality
    /// differs from the store's.
    pub fn push_object(&mut self, object: &UncertainObject) -> Result<usize, StoreError> {
        if object.dim() != self.dim {
            return Err(StoreError::DimensionMismatch {
                expected: self.dim,
                found: object.dim(),
            });
        }
        let id = self.spans.len();
        let offset = self.probs.len();
        for inst in object.instances() {
            self.coords.extend_from_slice(inst.point.coords());
            self.probs.push(inst.prob);
        }
        self.spans.push((offset, object.len()));
        self.mbrs.push(object.mbr().clone());
        Ok(id)
    }

    /// Removes the object at `row`, splicing its instances out of the
    /// columns and shifting every later span left so the spans keep tiling
    /// the instance range. Rows after `row` each move down by one; the
    /// surviving rows' coordinate and probability bits are untouched.
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn remove_object(&mut self, row: usize) {
        assert!(row < self.spans.len(), "object row out of bounds");
        let (offset, len) = self.spans[row];
        self.coords
            .drain(offset * self.dim..(offset + len) * self.dim);
        self.probs.drain(offset..offset + len);
        self.spans.remove(row);
        self.mbrs.remove(row);
        for s in &mut self.spans[row..] {
            s.0 -= len;
        }
    }

    /// Replaces the object at `row` in place: its instance rows are spliced
    /// out and the new object's rows spliced in, with later span offsets
    /// adjusted by the length difference. Other rows' bits are untouched.
    ///
    /// # Errors
    /// [`StoreError::DimensionMismatch`] if the object's dimensionality
    /// differs from the store's (the store is left unchanged).
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn replace_object(
        &mut self,
        row: usize,
        object: &UncertainObject,
    ) -> Result<(), StoreError> {
        assert!(row < self.spans.len(), "object row out of bounds");
        if object.dim() != self.dim {
            return Err(StoreError::DimensionMismatch {
                expected: self.dim,
                found: object.dim(),
            });
        }
        let (offset, old_len) = self.spans[row];
        let new_len = object.len();
        let mut new_coords = Vec::with_capacity(new_len * self.dim);
        let mut new_probs = Vec::with_capacity(new_len);
        for inst in object.instances() {
            new_coords.extend_from_slice(inst.point.coords());
            new_probs.push(inst.prob);
        }
        self.coords
            .splice(offset * self.dim..(offset + old_len) * self.dim, new_coords);
        self.probs.splice(offset..offset + old_len, new_probs);
        self.spans[row] = (offset, new_len);
        self.mbrs[row] = object.mbr().clone();
        for s in &mut self.spans[row + 1..] {
            s.0 = s.0 - old_len + new_len;
        }
        Ok(())
    }

    /// Number of objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` iff the store holds no objects (only possible before the
    /// first successful `push_object`; `from_objects` rejects empty input).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Dimensionality of the instance space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total number of instances across all objects.
    #[inline]
    pub fn instance_count(&self) -> usize {
        self.probs.len()
    }

    /// The whole row-major coordinate block.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// The whole probability column.
    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// A borrowed view of object `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn object(&self, id: usize) -> ObjectRef<'_> {
        assert!(id < self.spans.len(), "object id out of bounds");
        ObjectRef { store: self, id }
    }

    /// Iterates over all object views in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ObjectRef<'_>> {
        (0..self.len()).map(move |id| self.object(id))
    }

    /// Materialises the store back into boxed objects (interop with APIs
    /// that consume [`UncertainObject`]s).
    pub fn to_objects(&self) -> Vec<UncertainObject> {
        self.iter().map(|o| o.to_object()).collect()
    }

    /// Rebuilds the store with its objects rearranged into `order`: the
    /// object at `order[k]` of `self` becomes object `k` of the result.
    /// Columns are copied once into the new object order; coordinate and
    /// probability bits and spans are taken verbatim and the MBRs are
    /// moved, so every per-object derived quantity is bit-for-bit
    /// unchanged and no MBR is re-allocated.
    ///
    /// This is the layout step of the sharded index: a Sort-Tile-Recursive
    /// object ordering turns each spatial shard into one *contiguous*
    /// sub-span of the columns (see [`InstanceStore::span`]).
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..self.len()`.
    pub fn permuted(self, order: &[usize]) -> InstanceStore {
        assert_eq!(order.len(), self.len(), "order must cover every object");
        let mut mbrs: Vec<Option<Mbr>> = self.mbrs.into_iter().map(Some).collect();
        let mut out = InstanceStore {
            dim: self.dim,
            coords: Vec::with_capacity(self.coords.len()),
            probs: Vec::with_capacity(self.probs.len()),
            spans: Vec::with_capacity(self.spans.len()),
            mbrs: Vec::with_capacity(mbrs.len()),
        };
        let dim = self.dim;
        for &id in order {
            let mbr = mbrs[id].take();
            assert!(mbr.is_some(), "order repeats object {id}");
            out.mbrs.extend(mbr);
            let (offset, len) = self.spans[id];
            out.spans.push((out.probs.len(), len));
            out.coords
                .extend_from_slice(&self.coords[offset * dim..(offset + len) * dim]);
            out.probs
                .extend_from_slice(&self.probs[offset..offset + len]);
        }
        out
    }

    /// A borrowed view of the contiguous object range `lo..hi` — the
    /// per-shard window of a space-partitioned store.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > self.len()`.
    pub fn span(&self, lo: usize, hi: usize) -> StoreSpan<'_> {
        assert!(
            lo <= hi && hi <= self.len(),
            "span {lo}..{hi} out of bounds"
        );
        StoreSpan {
            store: self,
            lo,
            hi,
        }
    }

    /// Approximate resident size of the columns and per-object metadata, in
    /// bytes (allocation headers and capacity slack excluded).
    pub fn approx_bytes(&self) -> usize {
        approx_bytes_for(self.dim, self.probs.len(), self.spans.len())
    }

    /// Audits the span/column invariants listed in the
    /// [module documentation](self). Returns the first violation as text.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.coords.len() != self.probs.len() * self.dim {
            return Err(format!(
                "coords length {} is not probs length {} times dim {}",
                self.coords.len(),
                self.probs.len(),
                self.dim
            ));
        }
        if self.spans.len() != self.mbrs.len() {
            return Err(format!(
                "{} spans but {} MBRs",
                self.spans.len(),
                self.mbrs.len()
            ));
        }
        let mut expected_offset = 0usize;
        for (id, &(offset, len)) in self.spans.iter().enumerate() {
            if len == 0 {
                return Err(format!("object {id} has an empty span"));
            }
            if offset != expected_offset {
                return Err(format!(
                    "object {id} span starts at {offset}, expected {expected_offset}"
                ));
            }
            expected_offset = offset + len;
            let view = self.object(id);
            let tight = Mbr::from_rows(view.coords(), self.dim);
            if tight != self.mbrs[id] {
                return Err(format!("object {id} MBR is not the tight row bound"));
            }
            let mut mass = 0.0;
            for i in 0..len {
                let p = view.prob(i);
                if !(p > 0.0 && p <= 1.0 && p.is_finite()) {
                    return Err(format!("object {id} instance {i} probability {p} invalid"));
                }
                mass += p;
            }
            if (mass - 1.0).abs() > 1e-6 {
                return Err(format!("object {id} probability mass {mass} != 1"));
            }
        }
        if expected_offset != self.probs.len() {
            return Err(format!(
                "spans cover {expected_offset} instances, store holds {}",
                self.probs.len()
            ));
        }
        Ok(())
    }
}

/// Shared byte-accounting for stores and spans: coordinate block +
/// probability column + `(offset, len)` spans + MBR lo/hi arrays.
fn approx_bytes_for(dim: usize, instances: usize, objects: usize) -> usize {
    let f = std::mem::size_of::<f64>();
    let u = std::mem::size_of::<usize>();
    instances * dim * f          // coords
        + instances * f          // probs
        + objects * 2 * u        // spans
        + objects * (2 * dim * f + std::mem::size_of::<Mbr>()) // mbr payloads + headers
}

/// A borrowed view of a contiguous object range of an [`InstanceStore`] —
/// the sub-span a spatial shard owns. All accessors are zero-copy slices
/// into the parent columns.
#[derive(Clone, Copy, Debug)]
pub struct StoreSpan<'a> {
    store: &'a InstanceStore,
    lo: usize,
    hi: usize,
}

impl<'a> StoreSpan<'a> {
    /// Number of objects in the span.
    #[inline]
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// `true` iff the span covers no objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// The span's object range in the parent store, as `(lo, hi)`.
    #[inline]
    pub fn bounds(&self) -> (usize, usize) {
        (self.lo, self.hi)
    }

    /// Total instances across the span's objects.
    #[inline]
    pub fn instance_count(&self) -> usize {
        self.instance_range().len()
    }

    /// The span's rows of the parent coordinate block (row-major,
    /// `dim`-strided) — one contiguous slice, because spans tile the
    /// instance range in object order.
    #[inline]
    pub fn coords(&self) -> &'a [f64] {
        let r = self.instance_range();
        &self.store.coords[r.start * self.store.dim..r.end * self.store.dim]
    }

    /// The span's rows of the parent probability column.
    #[inline]
    pub fn probs(&self) -> &'a [f64] {
        let r = self.instance_range();
        &self.store.probs[r]
    }

    /// Iterates over the span's object views, in parent-store id order.
    pub fn objects(&self) -> impl ExactSizeIterator<Item = ObjectRef<'a>> + '_ {
        let store = self.store;
        (self.lo..self.hi).map(move |id| store.object(id))
    }

    /// Approximate resident bytes attributable to this span's share of the
    /// columns and metadata (same accounting as
    /// [`InstanceStore::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        approx_bytes_for(self.store.dim, self.instance_count(), self.len())
    }

    fn instance_range(&self) -> std::ops::Range<usize> {
        if self.lo == self.hi {
            return 0..0;
        }
        let (first, _) = self.store.spans[self.lo];
        let (off, len) = self.store.spans[self.hi - 1];
        first..off + len
    }
}

/// A cheap borrowed view of one object inside an [`InstanceStore`].
#[derive(Clone, Copy, Debug)]
pub struct ObjectRef<'a> {
    store: &'a InstanceStore,
    id: usize,
}

impl<'a> ObjectRef<'a> {
    /// The object's id inside the store.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of instances (`|U|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.store.spans[self.id].1
    }

    /// Never true — spans are non-empty by construction — but provided for
    /// API completeness alongside `len`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` iff the object has exactly one instance (a certain point).
    #[inline]
    pub fn is_certain(&self) -> bool {
        self.len() == 1
    }

    /// Dimensionality of the instance space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.store.dim
    }

    /// All of this object's coordinate rows as one flat row-major slice.
    #[inline]
    pub fn coords(&self) -> &'a [f64] {
        let (offset, len) = self.store.spans[self.id];
        let d = self.store.dim;
        &self.store.coords[offset * d..(offset + len) * d]
    }

    /// This object's probability column.
    #[inline]
    pub fn probs(&self) -> &'a [f64] {
        let (offset, len) = self.store.spans[self.id];
        &self.store.probs[offset..offset + len]
    }

    /// The coordinate row of instance `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        let (offset, len) = self.store.spans[self.id];
        debug_assert!(i < len, "instance index out of bounds");
        let d = self.store.dim;
        let start = (offset + i) * d;
        &self.store.coords[start..start + d]
    }

    /// The probability of instance `i`.
    #[inline]
    pub fn prob(&self, i: usize) -> f64 {
        let (offset, len) = self.store.spans[self.id];
        debug_assert!(i < len, "instance index out of bounds");
        self.store.probs[offset + i]
    }

    /// The view of instance `i`.
    #[inline]
    pub fn instance(&self, i: usize) -> InstanceRef<'a> {
        InstanceRef {
            row: self.row(i),
            prob: self.prob(i),
        }
    }

    /// Iterates over the instance views in order.
    pub fn instances(&self) -> impl ExactSizeIterator<Item = InstanceRef<'a>> + '_ {
        (0..self.len()).map(move |i| self.instance(i))
    }

    /// The object's minimal bounding rectangle.
    #[inline]
    pub fn mbr(&self) -> &'a Mbr {
        &self.store.mbrs[self.id]
    }

    /// Approximate bytes of columnar data held for this object (same model
    /// as [`InstanceStore::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        approx_bytes_for(self.store.dim, self.len(), 1)
    }

    /// Minimal distance from a point to any instance: `δ_min(q, U)`.
    ///
    /// Runs the blocked [`min_dist2_rows`] kernel over the contiguous rows
    /// and square-roots the folded minimum — bit-identical to the
    /// row-by-row `dist_slice` fold it replaces, because `√` is monotone
    /// and squared distances are never `-0.0`.
    pub fn min_dist(&self, q: &Point) -> f64 {
        min_dist2_rows(self.coords(), self.dim(), q.coords()).sqrt()
    }

    /// Maximal distance from a point to any instance: `δ_max(q, U)`.
    ///
    /// Blocked like [`ObjectRef::min_dist`]; `√(max δ²)` equals the scalar
    /// `fold(0.0, f64::max)` over `δ` bit-for-bit by the same monotonicity
    /// argument.
    pub fn max_dist(&self, q: &Point) -> f64 {
        max_dist2_rows(self.coords(), self.dim(), q.coords()).sqrt()
    }

    /// Materialises the view back into a boxed [`UncertainObject`].
    ///
    /// # Panics
    /// Panics if the store data violates the object invariants (impossible
    /// for stores built through the public constructors).
    pub fn to_object(&self) -> UncertainObject {
        match self.try_to_object() {
            Ok(o) => o,
            Err(e) => unreachable_invalid(e),
        }
    }

    /// Fallible variant of [`ObjectRef::to_object`].
    ///
    /// # Errors
    /// Returns an [`ObjectError`] if the stored data violates the object
    /// invariants.
    pub fn try_to_object(&self) -> Result<UncertainObject, ObjectError> {
        UncertainObject::try_new(
            self.instances()
                .map(|u| (Point::new(u.row.to_vec()), u.prob))
                .collect(),
        )
    }
}

/// Aborts a conversion whose source store is corrupt. Stores built through
/// the public constructors copy data out of validated `UncertainObject`s,
/// so this is unreachable in practice; the panic waiver mirrors the one on
/// the panicking `UncertainObject` constructors.
#[cold]
#[allow(clippy::panic)]
fn unreachable_invalid(e: ObjectError) -> ! {
    panic!("{e}")
}

/// A borrowed view of a single instance: its coordinate row and mass.
#[derive(Clone, Copy, Debug)]
pub struct InstanceRef<'a> {
    /// The instance's coordinate row.
    pub row: &'a [f64],
    /// The instance's probability mass.
    pub prob: f64,
}

impl InstanceRef<'_> {
    /// Materialises the view into a boxed [`Instance`].
    pub fn to_instance(&self) -> Instance {
        Instance {
            point: Point::new(self.row.to_vec()),
            prob: self.prob,
        }
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

    fn sample_objects() -> Vec<UncertainObject> {
        vec![
            UncertainObject::new(vec![(p2(0.0, 0.0), 0.4), (p2(2.0, 4.0), 0.6)]),
            UncertainObject::uniform(vec![p2(5.0, 5.0), p2(6.0, 5.0), p2(5.5, 7.0)]),
            UncertainObject::uniform(vec![p2(-1.0, 3.0)]),
        ]
    }

    #[test]
    fn round_trips_objects_exactly() {
        let objects = sample_objects();
        let store = InstanceStore::from_objects(&objects).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.dim(), 2);
        assert_eq!(store.instance_count(), 6);
        store.validate().unwrap();
        for (id, o) in objects.iter().enumerate() {
            let view = store.object(id);
            assert_eq!(view.len(), o.len());
            assert_eq!(view.mbr(), o.mbr());
            for (i, inst) in o.instances().iter().enumerate() {
                assert_eq!(view.row(i), inst.point.coords());
                assert_eq!(view.prob(i).to_bits(), inst.prob.to_bits());
            }
            let back = view.to_object();
            assert_eq!(back.len(), o.len());
            assert_eq!(back.mbr(), o.mbr());
        }
    }

    #[test]
    fn views_are_zero_copy_slices_into_the_columns() {
        let store = InstanceStore::from_objects(&sample_objects()).unwrap();
        let view = store.object(1);
        let flat = view.coords();
        assert_eq!(flat.len(), 3 * 2);
        // The object slice is a sub-slice of the store's single allocation.
        let base = store.coords().as_ptr() as usize;
        let sub = flat.as_ptr() as usize;
        assert_eq!((sub - base) / std::mem::size_of::<f64>(), 2 * 2);
        assert_eq!(view.row(2), &flat[4..6]);
    }

    #[test]
    fn min_max_dist_match_boxed_objects() {
        let objects = sample_objects();
        let store = InstanceStore::from_objects(&objects).unwrap();
        let q = p2(1.0, 1.0);
        for (id, o) in objects.iter().enumerate() {
            let view = store.object(id);
            assert_eq!(view.min_dist(&q).to_bits(), o.min_dist(&q).to_bits());
            assert_eq!(view.max_dist(&q).to_bits(), o.max_dist(&q).to_bits());
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(
            InstanceStore::from_objects(&[]).unwrap_err(),
            StoreError::Empty
        );
    }

    #[test]
    fn mixed_dimensionality_rejected() {
        let objects = vec![
            UncertainObject::uniform(vec![p2(0.0, 0.0)]),
            UncertainObject::uniform(vec![Point::new(vec![1.0])]),
        ];
        let err = InstanceStore::from_objects(&objects).unwrap_err();
        assert_eq!(
            err,
            StoreError::DimensionMismatch {
                expected: 2,
                found: 1
            }
        );
        assert!(format!("{err}").contains("dimensionality must match"));
    }

    #[test]
    fn push_extends_spans_contiguously() {
        let mut store = InstanceStore::from_objects(&sample_objects()).unwrap();
        let id = store
            .push_object(&UncertainObject::uniform(vec![p2(9.0, 9.0), p2(10.0, 9.0)]))
            .unwrap();
        assert_eq!(id, 3);
        assert_eq!(store.len(), 4);
        assert_eq!(store.instance_count(), 8);
        store.validate().unwrap();
        assert_eq!(store.object(3).row(1), &[10.0, 9.0]);
    }

    #[test]
    fn remove_object_splices_columns_and_revalidates() {
        let objects = sample_objects();
        let mut store = InstanceStore::from_objects(&objects).unwrap();
        store.remove_object(1);
        store.validate().unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.instance_count(), 3);
        // Survivors keep their bits: old object 0 stays row 0, old 2 → row 1.
        for (row, old) in [(0usize, 0usize), (1, 2)] {
            let view = store.object(row);
            let orig = &objects[old];
            assert_eq!(view.len(), orig.len());
            assert_eq!(view.mbr(), orig.mbr());
            for (i, inst) in orig.instances().iter().enumerate() {
                assert_eq!(view.row(i), inst.point.coords());
                assert_eq!(view.prob(i).to_bits(), inst.prob.to_bits());
            }
        }
        // Removing down to one object keeps the store valid.
        store.remove_object(0);
        store.validate().unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.object(0).row(0), &[-1.0, 3.0]);
    }

    #[test]
    fn replace_object_respliced_with_different_len() {
        let objects = sample_objects();
        let mut store = InstanceStore::from_objects(&objects).unwrap();
        // Replace the 3-instance middle object with a single instance.
        let shrunk = UncertainObject::uniform(vec![p2(8.0, 8.0)]);
        store.replace_object(1, &shrunk).unwrap();
        store.validate().unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.instance_count(), 4);
        assert_eq!(store.object(1).row(0), &[8.0, 8.0]);
        assert_eq!(store.object(2).row(0), &[-1.0, 3.0]);
        // Grow it back to two instances.
        let grown = UncertainObject::uniform(vec![p2(1.0, 1.0), p2(2.0, 2.0)]);
        store.replace_object(1, &grown).unwrap();
        store.validate().unwrap();
        assert_eq!(store.instance_count(), 5);
        assert_eq!(store.object(1).row(1), &[2.0, 2.0]);
        assert_eq!(store.object(2).row(0), &[-1.0, 3.0]);
        // Dimension mismatches leave the store untouched.
        let bad = UncertainObject::uniform(vec![Point::new(vec![1.0])]);
        assert!(store.replace_object(1, &bad).is_err());
        store.validate().unwrap();
        assert_eq!(store.object(1).row(1), &[2.0, 2.0]);
    }

    #[test]
    fn permuted_store_is_bitwise_identical_per_object() {
        let store = InstanceStore::from_objects(&sample_objects()).unwrap();
        let order = [2usize, 0, 1];
        let perm = store.clone().permuted(&order);
        perm.validate().unwrap();
        assert_eq!(perm.len(), store.len());
        assert_eq!(perm.instance_count(), store.instance_count());
        for (new_id, &old_id) in order.iter().enumerate() {
            let a = perm.object(new_id);
            let b = store.object(old_id);
            assert_eq!(a.len(), b.len());
            assert_eq!(a.mbr(), b.mbr());
            for i in 0..a.len() {
                assert_eq!(a.row(i), b.row(i));
                assert_eq!(a.prob(i).to_bits(), b.prob(i).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "order repeats object")]
    fn permuted_rejects_non_permutations() {
        let store = InstanceStore::from_objects(&sample_objects()).unwrap();
        let _ = store.permuted(&[0, 0, 1]);
    }

    #[test]
    fn spans_are_zero_copy_windows() {
        let store = InstanceStore::from_objects(&sample_objects()).unwrap();
        let span = store.span(1, 3);
        assert_eq!(span.len(), 2);
        assert_eq!(span.bounds(), (1, 3));
        assert_eq!(span.instance_count(), 4); // objects 1 (3 inst) + 2 (1 inst)
                                              // Coordinate window is a sub-slice of the parent allocation.
        let base = store.coords().as_ptr() as usize;
        let sub = span.coords().as_ptr() as usize;
        assert_eq!((sub - base) / std::mem::size_of::<f64>(), 2 * 2);
        assert_eq!(span.coords().len(), 4 * 2);
        assert_eq!(span.probs().len(), 4);
        let ids: Vec<usize> = span.objects().map(|o| o.len()).collect();
        assert_eq!(ids, vec![3, 1]);
        // Degenerate spans and whole-store spans behave.
        assert!(store.span(2, 2).is_empty());
        assert_eq!(store.span(2, 2).instance_count(), 0);
        let whole = store.span(0, store.len());
        assert_eq!(whole.instance_count(), store.instance_count());
        assert_eq!(whole.coords().len(), store.coords().len());
        assert!(whole.approx_bytes() <= store.approx_bytes());
        assert!(span.approx_bytes() < whole.approx_bytes());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn span_bounds_are_checked() {
        let store = InstanceStore::from_objects(&sample_objects()).unwrap();
        let _ = store.span(1, 4);
    }

    #[test]
    fn to_objects_round_trip_preserves_pairwise_distances() {
        let objects = sample_objects();
        let store = InstanceStore::from_objects(&objects).unwrap();
        let back = store.to_objects();
        for (a, b) in objects.iter().zip(back.iter()) {
            for (ia, ib) in a.instances().iter().zip(b.instances().iter()) {
                assert_eq!(ia.point, ib.point);
                assert_eq!(ia.prob.to_bits(), ib.prob.to_bits());
            }
        }
    }
}

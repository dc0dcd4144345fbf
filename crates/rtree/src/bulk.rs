//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! STR packs `n` rectangles into `⌈n / M⌉` leaves by recursively slicing the
//! data into vertical "slabs" along successive dimensions, then builds upper
//! levels by packing the resulting node MBRs the same way. The result is a
//! balanced tree with near-100 % node utilisation — the standard choice for
//! static experiment datasets.
//!
//! The tiler works on a `u32` index column. Each slab sort fills a scratch
//! column with `(centre, position, index)` triples and sorts it unstably
//! on `(centre, position)`: the same order a stable sort on the centre
//! gives, without the stable sort's per-call buffer. The node count is
//! known before the first node is written (it depends on the entry count
//! only), so a bulk load allocates a fixed number of vectors whatever `n`.

use crate::node::{fold_boxes, id_ref, NodeRec, RTree};
use osd_geom::{Mbr, MbrRef};
use std::borrow::Borrow;

impl RTree {
    /// Builds a tree from `(box, id)` entries using STR packing.
    ///
    /// # Panics
    /// Panics if `max_entries < 2`, the boxes disagree on dimensionality,
    /// there are more than `u32::MAX` entries or an id exceeds `u32::MAX`.
    pub fn bulk_load<M, I>(max_entries: usize, entries: I) -> Self
    where
        M: Borrow<Mbr>,
        I: IntoIterator<Item = (M, usize)>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut tree = RTree::new(max_entries);
        let mut entries = entries.into_iter();
        let n = entries.len();
        let Some((first, id)) = entries.next() else {
            return tree;
        };
        let dim = first.borrow().dim();
        let mut boxes = Vec::with_capacity(n * 2 * dim);
        let mut ids = Vec::with_capacity(n);
        for (mbr, id) in std::iter::once((first, id)).chain(entries) {
            let mbr = mbr.borrow();
            assert_eq!(mbr.dim(), dim, "entry boxes disagree on dimensionality");
            boxes.extend_from_slice(mbr.lo());
            boxes.extend_from_slice(mbr.hi());
            ids.push(id_ref(id));
        }
        tree.pack(
            dim,
            ids.len(),
            |i| {
                let at = i as usize * 2 * dim;
                MbrRef::from_packed(&boxes[at..at + 2 * dim])
            },
            |i| ids[i as usize],
        );
        tree
    }

    /// STR-packs `n` leaf entries (entry `i` has box `leaf_box(i)` and id
    /// `leaf_id(i)`) into the empty arena.
    fn pack<'b>(
        &mut self,
        dim: usize,
        n: usize,
        leaf_box: impl Fn(u32) -> MbrRef<'b>,
        leaf_id: impl Fn(u32) -> u32,
    ) {
        assert!(u32::try_from(n).is_ok(), "too many entries for a u32 index");
        let cap = self.max_entries;
        self.dim = dim;
        self.len = n;

        // The node count of every level depends on counts only.
        let mut total = 0;
        let mut count = n;
        loop {
            let groups = group_count(count, cap, dim, 0);
            total += groups;
            if groups == 1 {
                break;
            }
            count = groups;
        }
        self.nodes.reserve_exact(total);
        self.refs = vec![0; total * cap];
        self.boxes = vec![0.0; (total * cap + 1) * 2 * dim];

        if n <= cap {
            // One leaf: the root. No tiling, no scratch.
            for i in 0..n as u32 {
                self.set_slot(i as usize, leaf_box(i), leaf_id(i));
            }
            self.nodes.push(NodeRec {
                len: n as u32,
                leaf: true,
            });
            fold_boxes(&mut self.boxes[..2 * dim], (0..n as u32).map(&leaf_box));
            self.root = Some(0);
            return;
        }

        // Each level is tiled into the next: `next_*` receive the new
        // nodes' boxes and indices, which the level above packs in turn.
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut scratch = Vec::with_capacity(n);
        let leaves = group_count(n, cap, dim, 0);
        let mut next_boxes = Vec::with_capacity(leaves * 2 * dim);
        let mut next_refs = Vec::with_capacity(leaves);
        self.pack_level(
            &mut order,
            &mut scratch,
            true,
            &leaf_box,
            leaf_id,
            (&mut next_boxes, &mut next_refs),
        );
        let mut cur_boxes = Vec::with_capacity(next_boxes.capacity());
        let mut cur_refs = Vec::with_capacity(next_refs.capacity());
        while next_refs.len() > 1 {
            std::mem::swap(&mut cur_boxes, &mut next_boxes);
            std::mem::swap(&mut cur_refs, &mut next_refs);
            next_boxes.clear();
            next_refs.clear();
            let order = &mut order[..cur_refs.len()];
            for (k, o) in order.iter_mut().enumerate() {
                *o = k as u32;
            }
            let node_box = |i: u32| {
                let at = i as usize * 2 * dim;
                MbrRef::from_packed(&cur_boxes[at..at + 2 * dim])
            };
            self.pack_level(
                order,
                &mut scratch,
                false,
                &node_box,
                |i| cur_refs[i as usize],
                (&mut next_boxes, &mut next_refs),
            );
        }
        self.boxes[..2 * dim].copy_from_slice(&next_boxes);
        self.root = next_refs.first().copied();
    }

    /// STR-tiles one level — the items `order` indexes, with boxes
    /// `box_of(i)` and slot references `ref_of(i)` — into new nodes,
    /// appending each node's tight box and index to `next`.
    fn pack_level<'b>(
        &mut self,
        order: &mut [u32],
        scratch: &mut Vec<(f64, u32, u32)>,
        leaf: bool,
        box_of: &impl Fn(u32) -> MbrRef<'b>,
        ref_of: impl Fn(u32) -> u32,
        next: (&mut Vec<f64>, &mut Vec<u32>),
    ) {
        let (cap, dim) = (self.max_entries, self.dim);
        let (next_boxes, next_refs) = next;
        let centre = |i: u32, d: usize| {
            let b = box_of(i);
            b.lo()[d] + b.hi()[d]
        };
        tile(order, cap, dim, 0, &centre, scratch, &mut |group| {
            let node = self.nodes.len() as u32;
            for (k, &i) in group.iter().enumerate() {
                self.set_slot(self.slot(node, k), box_of(i), ref_of(i));
            }
            self.nodes.push(NodeRec {
                len: group.len() as u32,
                leaf,
            });
            let at = next_boxes.len();
            next_boxes.resize(at + 2 * dim, 0.0);
            fold_boxes(&mut next_boxes[at..], group.iter().map(|&i| box_of(i)));
            next_refs.push(node);
        });
    }

    /// Builds a tree over a row-major coordinate block: one degenerate
    /// (point) rectangle per `dim`-sized row, with the row index as id.
    ///
    /// This is the zero-copy companion of [`RTree::bulk_load`] for flat
    /// instance stores — slot boxes are written straight from the borrowed
    /// rows. The produced tree is identical to bulk-loading
    /// `(Mbr::from_point(row_i), i)`.
    ///
    /// # Panics
    /// Panics if `max_entries < 2`, `dim` is zero, or `rows.len()` is not a
    /// multiple of `dim`.
    pub fn bulk_load_rows(max_entries: usize, dim: usize, rows: &[f64]) -> Self {
        assert!(dim > 0, "rows need at least one dimension");
        assert_eq!(
            rows.len() % dim,
            0,
            "row block length must be a multiple of dim"
        );
        let mut tree = RTree::new(max_entries);
        let n = rows.len() / dim;
        if n == 0 {
            return tree;
        }
        tree.pack(
            dim,
            n,
            |i| {
                let at = i as usize * dim;
                let row = &rows[at..at + dim];
                MbrRef::new(row, row)
            },
            |i| i,
        );
        tree
    }
}

/// Number of groups [`tile`] cuts `len` items into.
fn group_count(len: usize, cap: usize, dim: usize, d: usize) -> usize {
    if len <= cap {
        return 1;
    }
    if d + 1 == dim {
        return len.div_ceil(cap);
    }
    let per_slab = slab_size(len, cap, dim, d);
    let rest = len % per_slab;
    (len / per_slab) * group_count(per_slab, cap, dim, d + 1)
        + if rest > 0 {
            group_count(rest, cap, dim, d + 1)
        } else {
            0
        }
}

/// Items per slab when `len` items are cut along dimension `d`:
/// `⌈P^(1/(dim−d))⌉` slabs for `P = ⌈len / cap⌉` pages.
fn slab_size(len: usize, cap: usize, dim: usize, d: usize) -> usize {
    let pages = len.div_ceil(cap);
    let slabs = (pages as f64).powf(1.0 / (dim - d) as f64).ceil() as usize;
    len.div_ceil(slabs.max(1))
}

/// Recursive STR tiling of the index column `order`: sort by the centre
/// along dimension `d`, cut into slabs, recurse on the next dimension;
/// `emit` receives every group of at most `cap` indices in tiling order.
fn tile<C, E>(
    order: &mut [u32],
    cap: usize,
    dim: usize,
    d: usize,
    centre: &C,
    scratch: &mut Vec<(f64, u32, u32)>,
    emit: &mut E,
) where
    C: Fn(u32, usize) -> f64,
    E: FnMut(&[u32]),
{
    if order.len() <= cap {
        emit(order);
        return;
    }
    sort_by_centre(order, d, centre, scratch);
    if d + 1 == dim {
        // Last dimension: emit consecutive runs of `cap`.
        for group in order.chunks(cap) {
            emit(group);
        }
        return;
    }
    let per_slab = slab_size(order.len(), cap, dim, d);
    for slab in order.chunks_mut(per_slab) {
        tile(slab, cap, dim, d + 1, centre, scratch, emit);
    }
}

/// Orders `order` by centre along dimension `d`, ties kept in their
/// current order (a stable sort, done as an unstable sort on
/// `(centre, position)` in a reused scratch column).
fn sort_by_centre<C: Fn(u32, usize) -> f64>(
    order: &mut [u32],
    d: usize,
    centre: &C,
    scratch: &mut Vec<(f64, u32, u32)>,
) {
    scratch.clear();
    scratch.extend(
        order
            .iter()
            .enumerate()
            .map(|(pos, &i)| (centre(i, d), pos as u32, i)),
    );
    scratch.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    for (o, e) in order.iter_mut().zip(scratch.iter()) {
        *o = e.2;
    }
}

/// Space-partitions `mbrs` into roughly `parts` spatially coherent tiles
/// using the same Sort-Tile-Recursive slicing as [`RTree::bulk_load`], and
/// returns the member indices of each tile in tiling order.
///
/// This is STR applied one level up: instead of packing rectangles into
/// tree leaves, it packs them into *shards* — each returned group is a
/// contiguous run of the STR ordering with at most `⌈n / parts⌉` members,
/// so shard extents overlap as little as the data allows. Slab rounding
/// can produce slightly more than `parts` groups; callers should treat the
/// returned length as the actual shard count.
///
/// `parts <= 1` returns a single group in the **original** index order
/// (no re-sorting), so a one-shard partition is layout-identical to the
/// unpartitioned input. Empty input returns no groups.
///
/// # Panics
/// Panics if the boxes disagree on dimensionality or there are more than
/// `u32::MAX` of them.
pub fn str_partition<'a>(mbrs: impl IntoIterator<Item = &'a Mbr>, parts: usize) -> Vec<Vec<usize>> {
    // Centre column, `dim` values per box: the sort keys of every slab.
    let mut centres = Vec::new();
    let mut dim = 0;
    for mbr in mbrs {
        if dim == 0 {
            dim = mbr.dim();
        }
        assert_eq!(mbr.dim(), dim, "boxes disagree on dimensionality");
        centres.extend(mbr.lo().iter().zip(mbr.hi()).map(|(l, h)| l + h));
    }
    if centres.is_empty() {
        return Vec::new();
    }
    let n = centres.len() / dim;
    if parts <= 1 {
        return vec![(0..n).collect()];
    }
    assert!(u32::try_from(n).is_ok(), "too many boxes for a u32 index");
    let cap = n.div_ceil(parts).max(1);
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut scratch = Vec::with_capacity(n);
    let mut groups = Vec::with_capacity(group_count(n, cap, dim, 0));
    let centre = |i: u32, d: usize| centres[i as usize * dim + d];
    tile(
        &mut order,
        cap,
        dim,
        0,
        &centre,
        &mut scratch,
        &mut |group| {
            groups.push(group.iter().map(|&i| i as usize).collect());
        },
    );
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use osd_geom::Point;

    #[test]
    fn bulk_load_rows_matches_point_entry_bulk_load() {
        let rows: Vec<f64> = (0..60).map(|i| (i as f64 * 0.37).sin() * 50.0).collect();
        let dim = 3;
        let from_rows = RTree::bulk_load_rows(4, dim, &rows);
        let entries: Vec<(Mbr, usize)> = rows
            .chunks_exact(dim)
            .enumerate()
            .map(|(i, row)| (Mbr::from_point(&Point::new(row.to_vec())), i))
            .collect();
        let from_points = RTree::bulk_load(4, entries);
        assert_eq!(from_rows.len(), from_points.len());
        assert_eq!(from_rows.height(), from_points.height());
        assert_eq!(from_rows.mbr(), from_points.mbr());
        assert!(from_rows.validate_structure().is_ok());
        let probe = Point::new(vec![0.1, -0.2, 0.3]);
        assert_eq!(from_rows.nearest(&probe), from_points.nearest(&probe));
        assert_eq!(from_rows.items(), from_points.items());
    }

    #[test]
    fn bulk_load_rows_empty_is_fine() {
        let t = RTree::bulk_load_rows(4, 2, &[]);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn bulk_load_rows_ragged_rejected() {
        let _ = RTree::bulk_load_rows(4, 2, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn group_count_matches_the_tiler() {
        for dim in 1..=4 {
            for cap in [2usize, 3, 4, 8, 16] {
                for len in 1..300usize {
                    let keys: Vec<f64> = (0..len * dim).map(|i| (i as f64 * 0.61).sin()).collect();
                    let mut order: Vec<u32> = (0..len as u32).collect();
                    let mut scratch = Vec::new();
                    let mut groups = 0;
                    let centre = |i: u32, d: usize| keys[i as usize * dim + d];
                    tile(&mut order, cap, dim, 0, &centre, &mut scratch, &mut |_| {
                        groups += 1;
                    });
                    assert_eq!(group_count(len, cap, dim, 0), groups, "{len}/{cap}/{dim}");
                }
            }
        }
    }

    #[test]
    fn centre_sort_is_stable() {
        // Equal centres keep their current order.
        let keys = [2.0, 1.0, 2.0, 1.0, -0.0, 0.0, 1.0];
        let mut order: Vec<u32> = vec![6, 5, 4, 3, 2, 1, 0];
        let mut scratch = Vec::new();
        sort_by_centre(&mut order, 0, &|i: u32, _| keys[i as usize], &mut scratch);
        assert_eq!(order, vec![4, 5, 6, 3, 1, 2, 0]);
    }

    fn grid_mbrs(n: usize) -> Vec<Mbr> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f64;
                let y = (i / 10) as f64;
                Mbr::new(vec![x, y], vec![x + 0.5, y + 0.5])
            })
            .collect()
    }

    #[test]
    fn str_partition_covers_every_index_exactly_once() {
        let mbrs = grid_mbrs(97);
        for parts in [2, 3, 7, 16] {
            let groups = str_partition(&mbrs, parts);
            let cap = mbrs.len().div_ceil(parts);
            let mut seen = vec![false; mbrs.len()];
            for g in &groups {
                assert!(!g.is_empty(), "no empty shard");
                assert!(g.len() <= cap, "group of {} exceeds cap {cap}", g.len());
                for &i in g {
                    assert!(!seen[i], "index {i} assigned twice");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "partition must be exhaustive");
            assert!(groups.len() >= parts.min(mbrs.len()));
        }
    }

    #[test]
    fn str_partition_single_part_preserves_input_order() {
        let mbrs = grid_mbrs(23);
        let groups = str_partition(&mbrs, 1);
        assert_eq!(groups, vec![(0..23).collect::<Vec<_>>()]);
        let groups = str_partition(&mbrs, 0);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0], (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn str_partition_more_parts_than_items_yields_singletons() {
        let mbrs = grid_mbrs(5);
        let groups = str_partition(&mbrs, 64);
        assert_eq!(groups.len(), 5);
        assert!(groups.iter().all(|g| g.len() == 1));
        assert!(str_partition(&[], 4).is_empty());
    }

    #[test]
    fn str_partition_groups_are_spatially_coherent() {
        // A cluster at the origin and one far away: with 2 parts, STR must
        // not mix members of the two clusters in one shard.
        let mut mbrs = Vec::new();
        for i in 0..8 {
            let x = (i % 4) as f64;
            mbrs.push(Mbr::new(vec![x, 0.0], vec![x, 0.0]));
        }
        for i in 0..8 {
            let x = 100.0 + (i % 4) as f64;
            mbrs.push(Mbr::new(vec![x, 0.0], vec![x, 0.0]));
        }
        let groups = str_partition(&mbrs, 2);
        assert_eq!(groups.len(), 2);
        for g in &groups {
            let near = g.iter().all(|&i| i < 8);
            let far = g.iter().all(|&i| i >= 8);
            assert!(near || far, "shard mixes clusters: {g:?}");
        }
    }
}

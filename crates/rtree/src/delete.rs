//! Entry deletion with Guttman-style tree condensation.
//!
//! Underfull nodes (below half fan-out) are dissolved and their entries
//! reinserted; a root left with a single child is collapsed.

use crate::node::RTree;
use osd_geom::Mbr;

impl RTree {
    /// Removes one entry whose MBR intersects `mbr` and whose id matches
    /// `pred`, returning the id. The tree is condensed afterwards: underfull
    /// nodes are dissolved and their entries reinserted.
    pub fn remove_item(&mut self, mbr: &Mbr, pred: impl Fn(usize) -> bool) -> Option<usize> {
        let min_fill = (self.max_entries / 2).max(1);
        let root = self.root?;
        // Orphaned leaf slots: packed boxes and ids.
        let mut orphan_boxes: Vec<f64> = Vec::new();
        let mut orphan_refs: Vec<u32> = Vec::new();
        let removed = self.remove_rec(
            root,
            mbr,
            &pred,
            min_fill,
            &mut orphan_boxes,
            &mut orphan_refs,
        )?;
        self.len -= 1;

        // Re-tighten or drop the root.
        if self.node_len(root) == 0 {
            self.free_node(root);
            self.root = None;
        } else {
            // Collapse chains of single-child inner nodes.
            let mut top = root;
            while !self.is_leaf(top) && self.node_len(top) == 1 {
                let only = self.refs[self.slot(top, 0)];
                self.free_node(top);
                top = only;
            }
            self.retighten(top, 0);
            self.root = Some(top);
        }

        // Reinsert orphaned entries (len was adjusted once for the removal;
        // insertion re-counts the orphans, so pre-subtract them).
        self.len -= orphan_refs.len();
        let d = self.dim;
        for (k, &r) in orphan_refs.iter().enumerate() {
            self.insert_slot(&orphan_boxes[k * 2 * d..(k + 1) * 2 * d], r);
        }
        #[cfg(feature = "strict-invariants")]
        if let Err(e) = self.validate_structure() {
            debug_assert!(false, "R-tree invariant broken after removal: {e}");
        }
        Some(removed as usize)
    }

    /// Removes a matching entry below `node`; underfull descendants are
    /// dissolved into the orphan columns. Returns the removed id.
    fn remove_rec(
        &mut self,
        node: u32,
        mbr: &Mbr,
        pred: &impl Fn(usize) -> bool,
        min_fill: usize,
        orphan_boxes: &mut Vec<f64>,
        orphan_refs: &mut Vec<u32>,
    ) -> Option<u32> {
        let len = self.node_len(node);
        if self.is_leaf(node) {
            let idx = (0..len).find(|&i| {
                let s = self.slot(node, i);
                self.slot_box(s).intersects(mbr.view()) && pred(self.refs[s] as usize)
            })?;
            let removed = self.refs[self.slot(node, idx)];
            self.remove_slot(node, idx);
            return Some(removed);
        }
        let mut hit = None;
        for i in 0..len {
            let s = self.slot(node, i);
            if self.slot_box(s).intersects(mbr.view()) {
                let child = self.refs[s];
                if let Some(r) =
                    self.remove_rec(child, mbr, pred, min_fill, orphan_boxes, orphan_refs)
                {
                    hit = Some((i, r));
                    break;
                }
            }
        }
        let (i, removed) = hit?;
        let s = self.slot(node, i);
        let child = self.refs[s];
        if self.node_len(child) < min_fill {
            // Dissolve the underfull child: all its remaining entries
            // become orphans to reinsert.
            self.remove_slot(node, i);
            self.dissolve(child, orphan_boxes, orphan_refs);
        } else {
            self.retighten(child, s + 1);
        }
        Some(removed)
    }

    /// Deletes slot `i` of `node`, shifting the later slots down.
    fn remove_slot(&mut self, node: u32, i: usize) {
        let len = self.node_len(node);
        let d2 = 2 * self.dim;
        for k in i + 1..len {
            let (from, to) = (self.slot(node, k), self.slot(node, k - 1));
            self.refs[to] = self.refs[from];
            let (fb, tb) = (self.box_offset(from + 1), self.box_offset(to + 1));
            self.boxes.copy_within(fb..fb + d2, tb);
        }
        self.nodes[node as usize].len -= 1;
    }

    /// Appends every leaf slot below `node` to the orphan columns, depth
    /// first, and frees the subtree's nodes.
    fn dissolve(&mut self, node: u32, orphan_boxes: &mut Vec<f64>, orphan_refs: &mut Vec<u32>) {
        for i in 0..self.node_len(node) {
            let s = self.slot(node, i);
            if self.is_leaf(node) {
                let at = self.box_offset(s + 1);
                orphan_boxes.extend_from_slice(&self.boxes[at..at + 2 * self.dim]);
                orphan_refs.push(self.refs[s]);
            } else {
                self.dissolve(self.refs[s], orphan_boxes, orphan_refs);
            }
        }
        self.free_node(node);
    }
}

#[cfg(test)]
mod tests {
    // Exact expected values are intentional in tests.
    #![allow(clippy::float_cmp)]

    use super::*;
    use osd_geom::Point;

    fn pt(x: f64, y: f64) -> Point {
        Point::new(vec![x, y])
    }

    fn build(points: &[(f64, f64)], fanout: usize) -> RTree {
        let entries: Vec<(Mbr, usize)> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Mbr::from_point(&pt(x, y)), i))
            .collect();
        RTree::bulk_load(fanout, entries)
    }

    #[test]
    fn remove_and_query() {
        let pts: Vec<(f64, f64)> = (0..40).map(|i| ((i % 8) as f64, (i / 8) as f64)).collect();
        let mut t = build(&pts, 4);
        let target = Mbr::from_point(&pt(3.0, 2.0)); // item 19
        let removed = t.remove_item(&target, |i| i == 19);
        assert_eq!(removed, Some(19));
        assert_eq!(t.len(), 39);
        let hits = t.range_intersecting(&target);
        assert!(!hits.contains(&19));
    }

    #[test]
    fn remove_missing_is_none() {
        let mut t = build(&[(0.0, 0.0), (1.0, 1.0)], 4);
        let missing = Mbr::from_point(&pt(9.0, 9.0));
        assert_eq!(t.remove_item(&missing, |_| true), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn remove_everything() {
        let pts: Vec<(f64, f64)> = (0..25).map(|i| (i as f64, (i * 3 % 7) as f64)).collect();
        let mut t = build(&pts, 3);
        for (i, &(x, y)) in pts.iter().enumerate() {
            let target = Mbr::from_point(&pt(x, y));
            assert_eq!(t.remove_item(&target, |x| x == i), Some(i), "removing {i}");
            assert_eq!(t.len(), 25 - i - 1);
            // Remaining queries stay consistent with a scan.
            let all = t.items();
            assert_eq!(all.len(), t.len());
            assert!(!all.contains(&i));
        }
        assert!(t.is_empty());
        assert!(t.root().is_none());
    }

    #[test]
    fn nearest_still_exact_after_removals() {
        let pts: Vec<(f64, f64)> = (0..60)
            .map(|i| (((i * 37) % 101) as f64, ((i * 61) % 97) as f64))
            .collect();
        let mut t = build(&pts, 4);
        let mut alive: Vec<usize> = (0..60).collect();
        for k in [5usize, 17, 33, 42, 58, 0, 12] {
            let target = Mbr::from_point(&pt(pts[k].0, pts[k].1));
            assert_eq!(t.remove_item(&target, |x| x == k), Some(k));
            alive.retain(|&x| x != k);
            let q = pt(50.0, 50.0);
            let (got, d) = t.nearest(&q).unwrap();
            let want = alive
                .iter()
                .map(|&i| q.dist(&pt(pts[i].0, pts[i].1)))
                .fold(f64::INFINITY, f64::min);
            assert!((d - want).abs() < 1e-9, "nearest broken after removing {k}");
            assert!(alive.contains(&got));
        }
    }
}

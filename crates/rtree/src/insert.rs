//! Incremental insertion (Guttman's algorithm with quadratic split).

use crate::node::{grow, id_ref, RTree};
use osd_geom::{Mbr, MbrRef};
use std::borrow::Borrow;
use std::cmp::Ordering;

/// The slots of an overflowing node, gathered for a split: packed boxes
/// (`2 · dim` values each) and references, in slot order.
struct Overflow {
    boxes: Vec<f64>,
    refs: Vec<u32>,
}

impl Overflow {
    /// Packed box of slot `k`.
    fn slot(&self, k: usize, dim: usize) -> &[f64] {
        &self.boxes[k * 2 * dim..(k + 1) * 2 * dim]
    }

    fn get(&self, k: usize, dim: usize) -> MbrRef<'_> {
        MbrRef::from_packed(self.slot(k, dim))
    }
}

impl RTree {
    /// Inserts an id with its bounding box.
    ///
    /// # Panics
    /// Panics if the box's dimensionality differs from the tree's, or `id`
    /// exceeds `u32::MAX`.
    pub fn insert(&mut self, mbr: impl Borrow<Mbr>, id: usize) {
        let mbr = mbr.borrow();
        if self.dim == 0 {
            self.dim = mbr.dim();
        }
        assert_eq!(
            mbr.dim(),
            self.dim,
            "box dimensionality differs from the tree's"
        );
        let r = id_ref(id);
        let mut b = Vec::with_capacity(2 * self.dim);
        b.extend_from_slice(mbr.lo());
        b.extend_from_slice(mbr.hi());
        self.insert_slot(&b, r);
        #[cfg(feature = "strict-invariants")]
        if let Err(e) = self.validate_structure() {
            debug_assert!(false, "R-tree invariant broken after insert: {e}");
        }
    }

    /// Inserts the leaf slot (packed box `b`, id `r`): the body
    /// of [`RTree::insert`], also used to reinsert orphans after a removal.
    pub(crate) fn insert_slot(&mut self, b: &[f64], r: u32) {
        self.len += 1;
        if self.boxes.is_empty() {
            // The root's box comes first in the box column.
            self.boxes.resize(2 * self.dim, 0.0);
        }
        let Some(root) = self.root else {
            let leaf = self.alloc_node(true);
            self.push_slot(leaf, b, r);
            self.write_box(0, b);
            self.root = Some(leaf);
            return;
        };
        self.expand_box(0, b);
        if let Some(split) = self.insert_rec(root, b, r) {
            // Root overflowed: grow the tree by one level. The old root's
            // box must be re-tightened — the split moved some of its
            // entries into the new sibling.
            let old_box = self.node_box(root);
            let split_box = self.node_box(split);
            let top = self.alloc_node(false);
            self.push_slot(top, &old_box, root);
            self.push_slot(top, &split_box, split);
            self.write_box(0, &old_box);
            self.expand_box(0, &split_box);
            self.root = Some(top);
        }
    }

    /// Recursive insertion below `node`; returns the new sibling if `node`
    /// was split.
    fn insert_rec(&mut self, node: u32, b: &[f64], r: u32) -> Option<u32> {
        if self.is_leaf(node) {
            return self.add_slot(node, b, r);
        }
        // Choose the child needing the least volume enlargement
        // (ties: smaller volume; among equals, the first).
        let add = MbrRef::from_packed(b);
        let mut best = 0;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for (i, slot_box) in self.slot_boxes(node).enumerate() {
            let key = enlargement(slot_box, add);
            let less = key
                .0
                .total_cmp(&best_key.0)
                .then(key.1.total_cmp(&best_key.1));
            if i == 0 || less.is_lt() {
                best = i;
                best_key = key;
            }
        }
        let s = self.slot(node, best);
        self.expand_box(s + 1, b);
        let child = self.refs[s];
        let split = self.insert_rec(child, b, r)?;
        // Re-tighten the split child's box (the split moved entries out).
        self.retighten(child, s + 1);
        let split_box = self.node_box(split);
        self.add_slot(node, &split_box, split)
    }

    /// Appends a slot to `node`, splitting it when it overflows; returns
    /// the new sibling on a split.
    fn add_slot(&mut self, node: u32, b: &[f64], r: u32) -> Option<u32> {
        let len = self.node_len(node);
        if len < self.max_entries {
            self.push_slot(node, b, r);
            return None;
        }
        let d = self.dim;
        let mut over = Overflow {
            boxes: Vec::with_capacity((len + 1) * 2 * d),
            refs: Vec::with_capacity(len + 1),
        };
        for i in 0..len {
            let s = self.slot(node, i);
            let at = self.box_offset(s + 1);
            over.boxes.extend_from_slice(&self.boxes[at..at + 2 * d]);
            over.refs.push(self.refs[s]);
        }
        over.boxes.extend_from_slice(b);
        over.refs.push(r);
        let (a, rest) = quadratic_split(&over, d);
        let leaf = self.is_leaf(node);
        self.nodes[node as usize].len = 0;
        for &k in &a {
            self.push_slot(node, over.slot(k, d), over.refs[k]);
        }
        let sibling = self.alloc_node(leaf);
        for &k in &rest {
            self.push_slot(sibling, over.slot(k, d), over.refs[k]);
        }
        Some(sibling)
    }
}

/// `(volume growth, volume)` of `node` when it absorbs `add`.
fn enlargement(node: MbrRef<'_>, add: MbrRef<'_>) -> (f64, f64) {
    let v = node.volume();
    (node.union_volume(add) - v, v)
}

/// Guttman's quadratic split: pick the pair of slots wasting the most area
/// as seeds, then greedily assign the rest by enlargement preference.
/// Returns the positions (into `over`) of the two groups, seeds first.
fn quadratic_split(over: &Overflow, dim: usize) -> (Vec<usize>, Vec<usize>) {
    let n = over.refs.len();
    debug_assert!(n >= 2);

    // Seed selection: maximise dead volume of the pair's union.
    let (mut s1, mut s2, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
    for i in 0..n {
        for j in (i + 1)..n {
            let (bi, bj) = (over.get(i, dim), over.get(j, dim));
            let waste = bi.union_volume(bj) - bi.volume() - bj.volume();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }

    let mut box_a = over.slot(s1, dim).to_vec();
    let mut box_b = over.slot(s2, dim).to_vec();
    let mut a = Vec::with_capacity(n);
    let mut b = Vec::with_capacity(n);
    a.push(s1);
    b.push(s2);
    for k in (0..n).filter(|&k| k != s1 && k != s2) {
        let item = over.get(k, dim);
        let growth = |group: &[f64]| {
            let group = MbrRef::from_packed(group);
            group.union_volume(item) - group.volume()
        };
        // Prefer the group with the smaller enlargement; break ties towards
        // the emptier group to keep the split roughly balanced.
        let to_a = match growth(&box_a).total_cmp(&growth(&box_b)) {
            Ordering::Less => true,
            Ordering::Equal => a.len() <= b.len(),
            Ordering::Greater => false,
        };
        if to_a {
            grow(&mut box_a, item);
            a.push(k);
        } else {
            grow(&mut box_b, item);
            b.push(k);
        }
    }
    (a, b)
}

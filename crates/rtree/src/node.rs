//! The packed-arena R-tree and its borrowed node view.
//!
//! The paper's evaluation (§6) organises data with *n + 1* R-trees: one
//! global R-tree over the objects' MBRs and one small local R-tree (fan-out
//! 4) per object over its instances. Both are this [`RTree`], whose
//! payloads are ids: object ids in the global tree, instance rows in a
//! local one.
//!
//! A tree is three flat columns, not a graph of boxed nodes:
//!
//! * `nodes` — one record per node (slot count, leaf flag);
//! * `boxes` — every box's corners in one `f64` column, `2 · dim` values
//!   per box (`lo` then `hi`). Box 0 is the root's box; the box of slot
//!   `s` is box `s + 1`;
//! * `refs` — per slot, the child's node index (inner slots) or the
//!   payload id itself (leaf slots), as `u32`.
//!
//! Node `n` owns the fixed slot block `n · M .. (n + 1) · M` (`M` = fan-out),
//! of which the first `len` slots are live, in slot order. A bulk load
//! therefore makes a constant number of allocations whatever the entry
//! count, and cloning a tree copies three flat vectors.
//!
//! Nodes are exposed read-only through [`NodeRef`] so that the
//! dominance-search algorithms in `osd-core` can drive their own
//! best-first traversals with dominance-based pruning (Algorithm 1) and run
//! the level-by-level pruning/validation of §5.1.2 against node MBRs.

use osd_geom::{Mbr, MbrRef};

/// One node of the arena: how many slots of its block are live, and
/// whether they hold payloads (leaf) or children (inner).
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeRec {
    pub(crate) len: u32,
    pub(crate) leaf: bool,
}

/// An in-memory R-tree over `usize` ids with configurable fan-out, stored
/// as a packed arena (see the module docs). Ids are kept as `u32`.
///
/// Built either by [`RTree::bulk_load`] (Sort-Tile-Recursive packing, the
/// way the experiment datasets are indexed) or incrementally with
/// [`RTree::insert`] (Guttman-style with quadratic split).
#[derive(Debug, Clone)]
pub struct RTree {
    /// Dimensionality of the boxes; 0 until the first entry arrives.
    pub(crate) dim: usize,
    pub(crate) max_entries: usize,
    pub(crate) len: usize,
    /// Index of the root node; `None` for an empty tree.
    pub(crate) root: Option<u32>,
    pub(crate) nodes: Vec<NodeRec>,
    pub(crate) boxes: Vec<f64>,
    pub(crate) refs: Vec<u32>,
    /// Dissolved nodes whose slot blocks the next split reuses.
    pub(crate) free: Vec<u32>,
}

impl RTree {
    /// Creates an empty tree with the given maximum fan-out.
    ///
    /// # Panics
    /// Panics if `max_entries < 2`.
    pub fn new(max_entries: usize) -> Self {
        assert!(max_entries >= 2, "R-tree fan-out must be at least 2");
        RTree {
            dim: 0,
            max_entries,
            len: 0,
            root: None,
            nodes: Vec::new(),
            boxes: Vec::new(),
            refs: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of items stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum node fan-out.
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// The root node, if any.
    pub fn root(&self) -> Option<NodeRef<'_>> {
        self.root.map(|node| NodeRef {
            tree: self,
            node,
            boxed: 0,
        })
    }

    /// Bounding box of the whole tree, if non-empty.
    pub fn mbr(&self) -> Option<MbrRef<'_>> {
        self.root.map(|_| self.box_at(0))
    }

    /// Height of the tree (single leaf = 0). `None` when empty.
    pub fn height(&self) -> Option<usize> {
        self.root.map(|root| self.height_below(root))
    }

    /// Total number of tree nodes (leaves and inner nodes); 0 when empty.
    ///
    /// An upper bound on the `visits` any single best-first descent can
    /// charge — the per-shard memory/size statistic of the sharded index.
    pub fn node_count(&self) -> usize {
        if self.root.is_none() {
            return 0;
        }
        self.nodes.len() - self.free.len()
    }

    /// Groups the items by the tree nodes at `level` steps below the root
    /// (level 0 = the root's direct decomposition is level 1; level 0 yields
    /// one group per root). Subtrees shallower than `level` contribute their
    /// leaves. Each group carries its node MBR.
    ///
    /// This is the partition `U = {U¹, …, U^k}` used by the level-by-level
    /// pruning and validation of §5.1.2.
    pub fn level_groups(&self, level: usize) -> Vec<(Mbr, Vec<usize>)> {
        let mut out = Vec::new();
        if let Some(root) = self.root() {
            collect_level(root, level, &mut out);
        }
        out
    }

    /// Every item, in depth-first slot order.
    pub fn items(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len);
        if let Some(root) = self.root() {
            root.collect_items(&mut out);
        }
        out
    }

    // ---- arena addressing (crate-internal) ----

    /// Slot index of slot `i` of `node`.
    #[inline]
    pub(crate) fn slot(&self, node: u32, i: usize) -> usize {
        node as usize * self.max_entries + i
    }

    /// Live slot count of `node`.
    #[inline]
    pub(crate) fn node_len(&self, node: u32) -> usize {
        self.nodes[node as usize].len as usize
    }

    /// Whether `node` is a leaf.
    #[inline]
    pub(crate) fn is_leaf(&self, node: u32) -> bool {
        self.nodes[node as usize].leaf
    }

    /// Offset of box `b` in the box column.
    #[inline]
    pub(crate) fn box_offset(&self, b: usize) -> usize {
        b * 2 * self.dim
    }

    /// Box `b` (0 = the root's box, `s + 1` = slot `s`'s box).
    #[inline]
    pub(crate) fn box_at(&self, b: usize) -> MbrRef<'_> {
        let at = self.box_offset(b);
        MbrRef::from_packed(&self.boxes[at..at + 2 * self.dim])
    }

    /// The box of slot `s`.
    #[inline]
    pub(crate) fn slot_box(&self, s: usize) -> MbrRef<'_> {
        self.box_at(s + 1)
    }

    /// Height of the subtree under `node` (leaf = 0). Every leaf sits at
    /// the same depth in a valid tree, so the first-child path suffices.
    fn height_below(&self, mut node: u32) -> usize {
        let mut h = 0;
        while !self.is_leaf(node) {
            node = self.refs[self.slot(node, 0)];
            h += 1;
        }
        h
    }

    /// The boxes of `node`'s live slots, in slot order.
    pub(crate) fn slot_boxes(&self, node: u32) -> impl Iterator<Item = MbrRef<'_>> {
        (0..self.node_len(node)).map(move |i| self.slot_box(self.slot(node, i)))
    }

    /// The tight box over `node`'s live slots, packed.
    pub(crate) fn node_box(&self, node: u32) -> Vec<f64> {
        let mut out = vec![0.0; 2 * self.dim];
        fold_boxes(&mut out, self.slot_boxes(node));
        out
    }

    /// Re-tightens box `target` to the union of `node`'s live slots.
    pub(crate) fn retighten(&mut self, node: u32, target: usize) {
        let tight = self.node_box(node);
        self.write_box(target, &tight);
    }

    /// Grows box `target` to contain the packed box `add`.
    pub(crate) fn expand_box(&mut self, target: usize, add: &[f64]) {
        let to = self.box_offset(target);
        grow(
            &mut self.boxes[to..to + 2 * self.dim],
            MbrRef::from_packed(add),
        );
    }

    /// Copies the packed box `src` into box `target`.
    pub(crate) fn write_box(&mut self, target: usize, src: &[f64]) {
        let to = self.box_offset(target);
        self.boxes[to..to + 2 * self.dim].copy_from_slice(src);
    }

    /// A fresh node with an empty slot block, reusing a dissolved one when
    /// there is one.
    pub(crate) fn alloc_node(&mut self, leaf: bool) -> u32 {
        if let Some(node) = self.free.pop() {
            self.nodes[node as usize] = NodeRec { len: 0, leaf };
            return node;
        }
        let node = self.nodes.len() as u32;
        self.nodes.push(NodeRec { len: 0, leaf });
        let slots = self.nodes.len() * self.max_entries;
        self.refs.resize(slots, 0);
        self.boxes.resize((slots + 1) * 2 * self.dim, 0.0);
        node
    }

    /// Returns `node`'s slot block to the free list, with no live slots.
    pub(crate) fn free_node(&mut self, node: u32) {
        self.nodes[node as usize].len = 0;
        self.free.push(node);
    }

    /// Appends a slot (packed box `b`, reference `r`) to `node`, which
    /// must have room.
    pub(crate) fn push_slot(&mut self, node: u32, b: &[f64], r: u32) {
        let len = self.node_len(node);
        debug_assert!(len < self.max_entries, "slot block overflow");
        let s = self.slot(node, len);
        self.write_box(s + 1, b);
        self.refs[s] = r;
        self.nodes[node as usize].len += 1;
    }

    /// Writes slot `s` in place: box and reference.
    pub(crate) fn set_slot(&mut self, s: usize, b: MbrRef<'_>, r: u32) {
        let at = self.box_offset(s + 1);
        let d = self.dim;
        self.boxes[at..at + d].copy_from_slice(b.lo());
        self.boxes[at + d..at + 2 * d].copy_from_slice(b.hi());
        self.refs[s] = r;
    }
}

/// A borrowed view of one node of an [`RTree`]: its recorded box and its
/// slots, in slot order.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    tree: &'a RTree,
    node: u32,
    /// Index of the box recording this node's extent (0 for the root,
    /// the parent slot's box otherwise).
    boxed: usize,
}

impl<'a> NodeRef<'a> {
    /// The node's bounding box, as recorded in its parent slot (the root's
    /// box for the root) — the tight union of its slots in a valid tree.
    pub fn mbr(&self) -> MbrRef<'a> {
        self.tree.box_at(self.boxed)
    }

    /// Whether the node holds payloads rather than children.
    pub fn is_leaf(&self) -> bool {
        self.tree.is_leaf(self.node)
    }

    /// Number of slots (entries or children) directly in this node.
    pub fn len(&self) -> usize {
        self.tree.node_len(self.node)
    }

    /// Whether the node has no slots (never true in a valid tree).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(box, id)` slots of a leaf, in slot order; empty for an inner
    /// node.
    pub fn entries(&self) -> impl Iterator<Item = (MbrRef<'a>, usize)> + 'a {
        let tree = self.tree;
        let node = self.node;
        let n = if self.is_leaf() { self.len() } else { 0 };
        (0..n).map(move |i| {
            let s = tree.slot(node, i);
            (tree.slot_box(s), tree.refs[s] as usize)
        })
    }

    /// The children of an inner node, in slot order, each viewed with its
    /// slot box; empty for a leaf.
    pub fn children(&self) -> impl Iterator<Item = NodeRef<'a>> + 'a {
        let tree = self.tree;
        let node = self.node;
        let n = if self.is_leaf() { 0 } else { self.len() };
        (0..n).map(move |i| {
            let s = tree.slot(node, i);
            NodeRef {
                tree,
                node: tree.refs[s],
                boxed: s + 1,
            }
        })
    }

    /// Collects every item id in the subtree, depth first.
    pub fn collect_items(&self, out: &mut Vec<usize>) {
        if self.is_leaf() {
            out.extend(self.entries().map(|(_, t)| t));
        } else {
            for c in self.children() {
                c.collect_items(out);
            }
        }
    }

    /// Total number of items in the subtree.
    pub fn item_count(&self) -> usize {
        if self.is_leaf() {
            self.len()
        } else {
            self.children().map(|c| c.item_count()).sum()
        }
    }
}

/// The `u32` slot reference of payload id `id`.
///
/// # Panics
/// Panics if `id` exceeds `u32::MAX`.
pub(crate) fn id_ref(id: usize) -> u32 {
    assert!(id <= u32::MAX as usize, "R-tree id {id} exceeds u32::MAX");
    id as u32
}

/// Grows the packed box `out` (`lo` then `hi`) to contain `add`: the
/// per-dimension min/max of `Mbr::expand`.
pub(crate) fn grow(out: &mut [f64], add: MbrRef<'_>) {
    let d = add.dim();
    for i in 0..d {
        out[i] = out[i].min(add.lo()[i]);
        out[d + i] = out[d + i].max(add.hi()[i]);
    }
}

/// Writes into `out` (`2 · dim` values) the tight box over `members`: the
/// first member's box grown by each later one in order — the fold of
/// `Mbr::expand`, so a packed box has the bits of the `Mbr` fold.
pub(crate) fn fold_boxes<'b>(out: &mut [f64], mut members: impl Iterator<Item = MbrRef<'b>>) {
    let Some(first) = members.next() else {
        return;
    };
    let d = first.dim();
    out[..d].copy_from_slice(first.lo());
    out[d..2 * d].copy_from_slice(first.hi());
    for m in members {
        grow(out, m);
    }
}

fn collect_level(node: NodeRef<'_>, level: usize, out: &mut Vec<(Mbr, Vec<usize>)>) {
    if level == 0 {
        let mut items = Vec::new();
        node.collect_items(&mut items);
        out.push((node.mbr().to_mbr(), items));
        return;
    }
    if node.is_leaf() {
        // Shallower than requested: each entry forms its own group so the
        // caller still sees the finest available granularity.
        for (mbr, item) in node.entries() {
            out.push((mbr.to_mbr(), vec![item]));
        }
    } else {
        for c in node.children() {
            collect_level(c, level - 1, out);
        }
    }
}

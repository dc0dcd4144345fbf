//! Structural invariant validation.
//!
//! [`RTree::validate_structure`] audits the three invariants every valid
//! R-tree maintains — recorded MBRs are tight over (and therefore contain)
//! their subtrees, fan-out stays within bounds, and all leaves sit at the
//! same depth — and reports the first violation found. It is always
//! compiled so tests can call it directly; with the `strict-invariants`
//! feature the mutating operations ([`RTree::insert`],
//! [`RTree::remove_item`]) additionally audit the tree after every call
//! via `debug_assert!`.

use crate::node::{NodeRef, RTree};
use osd_geom::Mbr;
use std::fmt;

/// A structural invariant violation, with the path to the offending node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructureError {
    /// Child-index path from the root to the offending node.
    pub path: Vec<usize>,
    /// What went wrong.
    pub kind: StructureErrorKind,
}

/// The kinds of structural violation [`RTree::validate_structure`] detects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructureErrorKind {
    /// A node has no slots at all (only an empty *tree* is allowed).
    EmptyNode,
    /// A node holds more slots than the configured fan-out.
    Overfull {
        /// Number of slots found.
        found: usize,
        /// Configured maximum fan-out.
        max: usize,
    },
    /// A recorded child MBR is not the tight union of its subtree.
    LooseMbr,
    /// A child's subtree reaches outside the recorded MBR.
    MbrNotContaining,
    /// Two leaves sit at different depths.
    UnbalancedHeight {
        /// Depth of the shallowest leaf.
        min: usize,
        /// Depth of the deepest leaf.
        max: usize,
    },
    /// `len()` disagrees with the number of stored entries.
    LengthMismatch {
        /// What `len()` reports.
        recorded: usize,
        /// Entries actually reachable.
        counted: usize,
    },
}

impl fmt::Display for StructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at node path {:?}: ", self.path)?;
        match &self.kind {
            StructureErrorKind::EmptyNode => write!(f, "empty node"),
            StructureErrorKind::Overfull { found, max } => {
                write!(f, "node has {found} slots, fan-out max is {max}")
            }
            StructureErrorKind::LooseMbr => {
                write!(f, "recorded MBR is not the tight union of the subtree")
            }
            StructureErrorKind::MbrNotContaining => {
                write!(f, "subtree reaches outside the recorded MBR")
            }
            StructureErrorKind::UnbalancedHeight { min, max } => {
                write!(f, "leaf depths differ: {min} vs {max}")
            }
            StructureErrorKind::LengthMismatch { recorded, counted } => {
                write!(f, "len() says {recorded} but {counted} entries are stored")
            }
        }
    }
}

impl RTree {
    /// Audits the structural invariants: MBR tightness/containment, fan-out
    /// bounds, uniform leaf depth, and the cached length. Returns the first
    /// violation found.
    ///
    /// The root is exempt from the *minimum* fill bound (as in any R-tree)
    /// but not from the maximum.
    pub fn validate_structure(&self) -> Result<(), StructureError> {
        let Some(root) = self.root() else {
            return if self.len == 0 {
                Ok(())
            } else {
                Err(StructureError {
                    path: Vec::new(),
                    kind: StructureErrorKind::LengthMismatch {
                        recorded: self.len,
                        counted: 0,
                    },
                })
            };
        };
        let mut path = Vec::new();
        validate_node(root, self.max_entries, &mut path)?;
        let counted = root.item_count();
        if counted != self.len {
            return Err(StructureError {
                path: Vec::new(),
                kind: StructureErrorKind::LengthMismatch {
                    recorded: self.len,
                    counted,
                },
            });
        }
        let (min_depth, max_depth) = leaf_depths(root, 0);
        if min_depth != max_depth {
            return Err(StructureError {
                path: Vec::new(),
                kind: StructureErrorKind::UnbalancedHeight {
                    min: min_depth,
                    max: max_depth,
                },
            });
        }
        Ok(())
    }
}

/// Recursively checks one node against its recorded bounding box.
fn validate_node(
    node: NodeRef<'_>,
    max_entries: usize,
    path: &mut Vec<usize>,
) -> Result<(), StructureError> {
    let fail = |kind| {
        Err(StructureError {
            path: path.clone(),
            kind,
        })
    };
    let slots = node.len();
    if slots == 0 {
        return fail(StructureErrorKind::EmptyNode);
    }
    if slots > max_entries {
        return fail(StructureErrorKind::Overfull {
            found: slots,
            max: max_entries,
        });
    }
    let tight = tight_box(node);
    let recorded = node.mbr();
    if !recorded.contains(tight.view()) {
        return fail(StructureErrorKind::MbrNotContaining);
    }
    if !tight.view().contains(recorded) {
        // `recorded` strictly exceeds the tight union somewhere.
        return fail(StructureErrorKind::LooseMbr);
    }
    for (i, c) in node.children().enumerate() {
        path.push(i);
        validate_node(c, max_entries, path)?;
        path.pop();
    }
    Ok(())
}

/// The tight union of a non-empty node's slot boxes.
fn tight_box(node: NodeRef<'_>) -> Mbr {
    let mut boxes: Vec<Mbr> = if node.is_leaf() {
        node.entries().map(|(b, _)| b.to_mbr()).collect()
    } else {
        node.children().map(|c| c.mbr().to_mbr()).collect()
    };
    let mut tight = boxes.swap_remove(0);
    for b in &boxes {
        tight.expand(b);
    }
    tight
}

/// `(shallowest, deepest)` leaf depth below `node`.
fn leaf_depths(node: NodeRef<'_>, depth: usize) -> (usize, usize) {
    if node.is_leaf() {
        return (depth, depth);
    }
    let mut lo = usize::MAX;
    let mut hi = 0;
    for c in node.children() {
        let (clo, chi) = leaf_depths(c, depth + 1);
        lo = lo.min(clo);
        hi = hi.max(chi);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeRec;
    use osd_geom::Point;

    fn pt(x: f64, y: f64) -> Point {
        Point::new(vec![x, y])
    }

    fn entries(n: usize) -> Vec<(Mbr, usize)> {
        (0..n)
            .map(|i| (Mbr::from_point(&pt((i % 13) as f64, (i / 13) as f64)), i))
            .collect()
    }

    #[test]
    fn bulk_loaded_tree_is_valid() {
        for n in [0usize, 1, 5, 40, 200] {
            let t = RTree::bulk_load(6, entries(n));
            assert!(t.validate_structure().is_ok(), "n = {n}");
        }
    }

    #[test]
    fn incrementally_built_tree_is_valid() {
        let mut t = RTree::new(4);
        for (mbr, item) in entries(120) {
            t.insert(mbr, item);
        }
        assert!(t.validate_structure().is_ok());
    }

    #[test]
    fn tree_stays_valid_under_deletions() {
        let mut t = RTree::bulk_load(4, entries(60));
        for i in 0..60usize {
            let target = Mbr::from_point(&pt((i % 13) as f64, (i / 13) as f64));
            assert_eq!(t.remove_item(&target, |x| x == i), Some(i));
            assert!(t.validate_structure().is_ok(), "after removing {i}");
        }
    }

    #[test]
    fn detects_loose_root_mbr() {
        let mut t = RTree::bulk_load(4, entries(10));
        t.boxes[2] = 500.0; // the root box's upper x corner
        assert_eq!(
            t.validate_structure().map_err(|e| e.kind),
            Err(StructureErrorKind::LooseMbr)
        );
    }

    #[test]
    fn detects_non_containing_mbr() {
        let mut t = RTree::bulk_load(4, entries(10));
        t.boxes[..4].copy_from_slice(&[0.0, 0.0, 0.0, 0.0]);
        assert_eq!(
            t.validate_structure().map_err(|e| e.kind),
            Err(StructureErrorKind::MbrNotContaining)
        );
    }

    #[test]
    fn detects_length_mismatch() {
        let mut t = RTree::bulk_load(4, entries(10));
        t.len = 11;
        assert!(matches!(
            t.validate_structure().map_err(|e| e.kind),
            Err(StructureErrorKind::LengthMismatch {
                recorded: 11,
                counted: 10
            })
        ));
    }

    #[test]
    fn detects_unbalanced_tree() {
        // Hand-build an unbalanced root: one leaf child and one two-level
        // child. Node 0 is the root, 1 and 3 are leaves, 2 is inner.
        let m = 4;
        let mut t = RTree::new(m);
        t.dim = 2;
        t.len = 2;
        t.nodes = vec![
            NodeRec {
                len: 2,
                leaf: false,
            },
            NodeRec { len: 1, leaf: true },
            NodeRec {
                len: 1,
                leaf: false,
            },
            NodeRec { len: 1, leaf: true },
        ];
        t.refs = vec![0; 4 * m];
        t.boxes = vec![0.0; (4 * m + 1) * 4];
        let point = |x: f64| [x, 0.0, x, 0.0];
        t.boxes[..4].copy_from_slice(&[0.0, 0.0, 1.0, 0.0]);
        for (slot, x, r) in [
            (0, 0.0, 1),
            (1, 1.0, 2),
            (m, 0.0, 0),
            (2 * m, 1.0, 3),
            (3 * m, 1.0, 1),
        ] {
            t.boxes[(slot + 1) * 4..(slot + 2) * 4].copy_from_slice(&point(x));
            t.refs[slot] = r;
        }
        t.root = Some(0);
        assert!(matches!(
            t.validate_structure().map_err(|e| e.kind),
            Err(StructureErrorKind::UnbalancedHeight { min: 1, max: 2 })
        ));
    }

    #[test]
    fn detects_overfull_node() {
        // A single leaf of 9 slots, then a fan-out the leaf exceeds (the
        // root's slot block starts at 0 for any fan-out).
        let mut t = RTree::bulk_load(9, entries(9));
        t.max_entries = 4;
        assert!(matches!(
            t.validate_structure().map_err(|e| e.kind),
            Err(StructureErrorKind::Overfull { found: 9, max: 4 })
        ));
    }
}

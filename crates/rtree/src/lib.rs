//! # osd-rtree
//!
//! In-memory R-tree substrate for the `osd` workspace. The paper's
//! evaluation (§6) indexes data with *n + 1* R-trees: one **global** tree
//! over the objects' MBRs driving the best-first NNC search (Algorithm 1)
//! and one small **local** tree (fan-out 4) per object over its instances,
//! supplying the NN / furthest-neighbour primitives of the instance-level
//! F-SD check and the node partitions of the level-by-level P-SD
//! pruning/validation (§5.1.2).
//!
//! Features:
//! * STR bulk loading ([`RTree::bulk_load`]) and Guttman-style insertion
//!   with quadratic split ([`RTree::insert`]);
//! * range queries (intersection and containment), exact nearest / furthest
//!   neighbour, k-NN, and a generic monotone best-first traversal
//!   ([`RTree::iter_by`]);
//! * read-only node access ([`RTree::root`] gives a borrowed [`NodeRef`],
//!   [`RTree::level_groups`]) so higher layers can run their own pruned
//!   traversals.
//!
//! A tree is a packed arena over `usize` ids — node records, one `f64`
//! column of slot boxes and one `u32` column of child indices and ids — so
//! a bulk load or a clone makes a fixed number of allocations whatever the
//! number of entries (see the `node` module).
//!
//! ```
//! use osd_geom::{Mbr, Point};
//! use osd_rtree::RTree;
//!
//! let entries: Vec<(Mbr, usize)> = (0..100)
//!     .map(|i| (Mbr::from_point(&Point::from([(i % 10) as f64, (i / 10) as f64])), i))
//!     .collect();
//! let tree = RTree::bulk_load(8, entries);
//!
//! let q = Point::from([4.2, 4.9]);
//! let (nearest, dist) = tree.nearest(&q).unwrap();
//! assert_eq!(nearest, 54); // the point (4, 5)
//! assert!(dist < 0.5);
//! let hits = tree.range_intersecting(&Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]));
//! assert_eq!(hits.len(), 4);
//! ```

#![warn(missing_docs)]

mod bulk;
mod delete;
mod insert;
mod node;
mod query;
mod validate;

pub use bulk::str_partition;
pub use node::{NodeRef, RTree};
pub use query::BestFirstIter;
pub use validate::{StructureError, StructureErrorKind};

// Compile-time auto-trait surface: R-trees (global and per-object local)
// are read concurrently by query-engine workers, so the index type must
// stay `Send + Sync`.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<RTree>();
const _: () = _assert_send_sync::<NodeRef<'static>>();

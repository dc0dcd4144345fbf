//! R-tree correctness tests: structural invariants plus query results
//! cross-checked against linear scans.

use osd_geom::{Mbr, Point};
use osd_rtree::{NodeRef, RTree};
use proptest::prelude::*;

fn pt(x: f64, y: f64) -> Point {
    Point::new(vec![x, y])
}

fn point_tree(points: &[(f64, f64)], fanout: usize) -> RTree {
    let entries: Vec<(Mbr, usize)> = points
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| (Mbr::from_point(&pt(x, y)), i))
        .collect();
    RTree::bulk_load(fanout, entries)
}

/// Checks that every node's stored MBR tightly bounds its subtree and that
/// fan-out limits hold.
fn check_invariants(tree: &RTree) {
    fn walk(node: NodeRef<'_>, cap: usize, depth: usize, leaf_depths: &mut Vec<usize>) {
        assert!(node.len() <= cap, "node over capacity");
        assert!(!node.is_empty(), "empty node in tree");
        if node.is_leaf() {
            leaf_depths.push(depth);
            return;
        }
        for c in node.children() {
            let tight = c
                .children()
                .map(|g| g.mbr().to_mbr())
                .chain(c.entries().map(|(m, _)| m.to_mbr()))
                .reduce(|mut union, m| {
                    union.expand(&m);
                    union
                });
            assert_eq!(Some(c.mbr().to_mbr()), tight, "stale child MBR");
            walk(c, cap, depth + 1, leaf_depths);
        }
    }
    if let Some(root) = tree.root() {
        let mut depths = Vec::new();
        walk(root, tree.max_entries(), 0, &mut depths);
        let d0 = depths[0];
        assert!(
            depths.iter().all(|&d| d == d0),
            "leaves at unequal depths: {depths:?}"
        );
    }
}

#[test]
fn empty_tree() {
    let t: RTree = RTree::new(4);
    assert!(t.is_empty());
    assert!(t.root().is_none());
    assert!(t.nearest(&pt(0.0, 0.0)).is_none());
    assert!(t
        .range_intersecting(&Mbr::new(vec![0.0, 0.0], vec![1.0, 1.0]))
        .is_empty());
}

#[test]
fn bulk_load_structure() {
    let pts: Vec<(f64, f64)> = (0..100)
        .map(|i| ((i % 10) as f64, (i / 10) as f64))
        .collect();
    let t = point_tree(&pts, 4);
    assert_eq!(t.len(), 100);
    check_invariants(&t);
    let mut items: Vec<usize> = t.items();
    items.sort_unstable();
    assert_eq!(items, (0..100).collect::<Vec<_>>());
}

#[test]
fn insert_structure() {
    let mut t: RTree = RTree::new(4);
    for i in 0..200usize {
        let x = ((i * 37) % 101) as f64;
        let y = ((i * 61) % 97) as f64;
        t.insert(Mbr::from_point(&pt(x, y)), i);
        check_invariants(&t);
    }
    assert_eq!(t.len(), 200);
}

#[test]
fn nearest_matches_scan_small() {
    let pts = vec![(0.0, 0.0), (5.0, 5.0), (2.0, 1.0), (9.0, 3.0)];
    let t = point_tree(&pts, 2);
    let q = pt(3.0, 2.0);
    let (idx, d) = t.nearest(&q).unwrap();
    assert_eq!(idx, 2);
    assert!((d - q.dist(&pt(2.0, 1.0))).abs() < 1e-12);
}

#[test]
fn furthest_matches_scan_small() {
    let pts = vec![(0.0, 0.0), (5.0, 5.0), (2.0, 1.0), (9.0, 3.0)];
    let t = point_tree(&pts, 2);
    let q = pt(0.0, 0.0);
    let (idx, d) = t.furthest(&q).unwrap();
    assert_eq!(idx, 3);
    assert!((d - q.dist(&pt(9.0, 3.0))).abs() < 1e-12);
}

#[test]
fn k_nearest_ordering() {
    let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 0.0)).collect();
    let t = point_tree(&pts, 4);
    let got = t.k_nearest(&pt(10.2, 0.0), 5);
    let idxs: Vec<usize> = got.iter().map(|&(i, _)| i).collect();
    assert_eq!(idxs, vec![10, 11, 9, 12, 8]);
    for w in got.windows(2) {
        assert!(w[0].1 <= w[1].1, "k-NN distances not sorted");
    }
}

#[test]
fn level_groups_partition_items() {
    let pts: Vec<(f64, f64)> = (0..64).map(|i| ((i % 8) as f64, (i / 8) as f64)).collect();
    let t = point_tree(&pts, 4);
    for level in 0..=t.height().unwrap() + 1 {
        let groups = t.level_groups(level);
        let mut all: Vec<usize> = groups
            .iter()
            .flat_map(|(_, items)| items.iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..64).collect::<Vec<_>>(),
            "level {level} not a partition"
        );
        // Every group MBR must contain its items.
        for (mbr, items) in &groups {
            for &i in items {
                assert!(mbr.contains_point(&pt(pts[i].0, pts[i].1)));
            }
        }
    }
}

#[test]
fn contained_vs_intersecting() {
    // Boxes (not points): containment is strictly stronger.
    let entries = vec![
        (Mbr::new(vec![0.0, 0.0], vec![2.0, 2.0]), 0usize),
        (Mbr::new(vec![1.0, 1.0], vec![5.0, 5.0]), 1),
        (Mbr::new(vec![6.0, 6.0], vec![7.0, 7.0]), 2),
    ];
    let t = RTree::bulk_load(4, entries);
    let q = Mbr::new(vec![0.0, 0.0], vec![3.0, 3.0]);
    let mut inter: Vec<usize> = t.range_intersecting(&q);
    inter.sort_unstable();
    assert_eq!(inter, vec![0, 1]);
    let cont: Vec<usize> = t.range_contained(&q);
    assert_eq!(cont, vec![0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_range_query_matches_scan(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..200),
        qx in 0.0f64..100.0, qy in 0.0f64..100.0,
        w in 0.0f64..50.0, h in 0.0f64..50.0,
        fanout in 2usize..9,
    ) {
        let t = point_tree(&pts, fanout);
        check_invariants(&t);
        let q = Mbr::new(vec![qx, qy], vec![qx + w, qy + h]);
        let mut got: Vec<usize> = t.range_intersecting(&q);
        got.sort_unstable();
        let mut want: Vec<usize> = pts.iter().enumerate()
            .filter(|(_, &(x, y))| q.contains_point(&pt(x, y)))
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn prop_nearest_furthest_match_scan(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..150),
        qx in -20.0f64..120.0, qy in -20.0f64..120.0,
    ) {
        let t = point_tree(&pts, 4);
        let q = pt(qx, qy);
        let (_, dn) = t.nearest(&q).unwrap();
        let want_n = pts.iter().map(|&(x, y)| q.dist(&pt(x, y))).fold(f64::INFINITY, f64::min);
        prop_assert!((dn - want_n).abs() < 1e-9);
        let (_, df) = t.furthest(&q).unwrap();
        let want_f = pts.iter().map(|&(x, y)| q.dist(&pt(x, y))).fold(0.0, f64::max);
        prop_assert!((df - want_f).abs() < 1e-9);
    }

    #[test]
    fn prop_insert_matches_bulk_queries(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..120),
        qx in 0.0f64..100.0, qy in 0.0f64..100.0,
    ) {
        let bulk = point_tree(&pts, 4);
        let mut inc: RTree = RTree::new(4);
        for (i, &(x, y)) in pts.iter().enumerate() {
            inc.insert(Mbr::from_point(&pt(x, y)), i);
        }
        check_invariants(&inc);
        prop_assert_eq!(bulk.len(), inc.len());
        let q = pt(qx, qy);
        let dn_bulk = bulk.nearest(&q).unwrap().1;
        let dn_inc = inc.nearest(&q).unwrap().1;
        prop_assert!((dn_bulk - dn_inc).abs() < 1e-9);
    }

    #[test]
    fn prop_best_first_is_sorted(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..150),
        qx in 0.0f64..100.0, qy in 0.0f64..100.0,
    ) {
        let t = point_tree(&pts, 4);
        let q = pt(qx, qy);
        let keys: Vec<f64> = t.iter_by(|m| m.min_dist2_point(&q)).map(|(_, k)| k).collect();
        prop_assert_eq!(keys.len(), pts.len());
        for w in keys.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12, "best-first out of order");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Range queries over *box* (non-point) entries match a linear scan,
    /// for both intersection and containment semantics.
    #[test]
    fn prop_box_entries_match_scan(
        boxes in prop::collection::vec((0.0f64..90.0, 0.0f64..90.0, 0.0f64..10.0, 0.0f64..10.0), 1..120),
        qx in 0.0f64..90.0, qy in 0.0f64..90.0, qw in 0.0f64..40.0, qh in 0.0f64..40.0,
        fanout in 2usize..7,
    ) {
        let mbrs: Vec<Mbr> = boxes.iter()
            .map(|&(x, y, w, h)| Mbr::new(vec![x, y], vec![x + w, y + h]))
            .collect();
        let entries: Vec<(Mbr, usize)> = mbrs.iter().cloned().zip(0..).collect();
        let t = RTree::bulk_load(fanout, entries);
        let q = Mbr::new(vec![qx, qy], vec![qx + qw, qy + qh]);
        let mut inter: Vec<usize> = t.range_intersecting(&q);
        inter.sort_unstable();
        let mut want_i: Vec<usize> = mbrs.iter().enumerate()
            .filter(|(_, m)| m.intersects(&q)).map(|(i, _)| i).collect();
        want_i.sort_unstable();
        prop_assert_eq!(inter, want_i);
        let mut cont: Vec<usize> = t.range_contained(&q);
        cont.sort_unstable();
        let mut want_c: Vec<usize> = mbrs.iter().enumerate()
            .filter(|(_, m)| q.contains(m)).map(|(i, _)| i).collect();
        want_c.sort_unstable();
        prop_assert_eq!(cont, want_c);
    }

    /// Deleting a random subset leaves a consistent tree: the surviving
    /// items are exactly the complement, the length is right, and nearest
    /// queries stay exact.
    #[test]
    fn prop_delete_subset_consistent(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 2..80),
        picks in prop::collection::vec(prop::bool::ANY, 2..80),
        qx in 0.0f64..100.0, qy in 0.0f64..100.0,
    ) {
        let mut t = point_tree(&pts, 4);
        let mut alive: Vec<usize> = (0..pts.len()).collect();
        for (i, &remove) in picks.iter().enumerate().take(pts.len()) {
            if remove && alive.len() > 1 {
                let target = Mbr::from_point(&pt(pts[i].0, pts[i].1));
                prop_assert_eq!(t.remove_item(&target, |x| x == i), Some(i));
                alive.retain(|&x| x != i);
            }
        }
        prop_assert_eq!(t.len(), alive.len());
        let mut got: Vec<usize> = t.items();
        got.sort_unstable();
        prop_assert_eq!(&got, &alive);
        let q = pt(qx, qy);
        let (_, d) = t.nearest(&q).unwrap();
        let want = alive.iter().map(|&i| q.dist(&pt(pts[i].0, pts[i].1)))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((d - want).abs() < 1e-9);
    }
}

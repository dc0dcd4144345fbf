//! Golden pin of the R-tree's shape: seeded STR bulk loads (box and row
//! entries, fan-outs 2–16, dims 1–4, tied centres), quadratic-split
//! insertion sequences and condensing removals must produce trees whose
//! depth-first dump — node kind, slot order, every slot box's bits and
//! every payload — hashes to the values in `tests/golden/shape_pin.txt`.
//! Best-first traversals (nearest, furthest, `min_dist2_multi`, full
//! `iter_by` order), their node-visit counts, `level_groups` and
//! `str_partition` are pinned the same way.
//!
//! The golden was committed with the boxed `Node`/`Entry` layout that
//! preceded the packed arena, together with this dump written against
//! that layout's API; the arena passes it unchanged. Any later storage
//! change must keep the same tree shape and visit order. To regenerate it
//! after an *intended* change of the shape,
//! run `OSD_BLESS_GOLDEN=1 cargo test -p osd-rtree --test shape_golden`
//! and review the diff.

// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use osd_geom::{Mbr, Point};
use osd_rtree::{str_partition, NodeRef, RTree};
use std::fmt::Write as _;
use std::path::PathBuf;

const GOLDEN: &str = "tests/golden/shape_pin.txt";

/// SplitMix64: a std-only seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A coordinate: on a coarse grid half the time, so centres tie.
    fn coord(&mut self) -> f64 {
        let r = self.next();
        if r.is_multiple_of(2) {
            ((r >> 8) % 8) as f64
        } else {
            ((r >> 11) as f64 / (1u64 << 53) as f64) * 100.0 - 50.0
        }
    }
}

fn boxes(rng: &mut Rng, n: usize, dim: usize, points: bool) -> Vec<Mbr> {
    (0..n)
        .map(|_| {
            let lo: Vec<f64> = (0..dim).map(|_| rng.coord()).collect();
            let hi: Vec<f64> = if points {
                lo.clone()
            } else {
                lo.iter()
                    .map(|&l| l + (rng.next() % 5) as f64 * 0.5)
                    .collect()
            };
            Mbr::new(lo, hi)
        })
        .collect()
}

fn bits(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{:x}", x.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

/// FNV-1a over a dump.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn dump_node(node: NodeRef<'_>, depth: usize, out: &mut String) {
    let kind = if node.is_leaf() { 'L' } else { 'I' };
    writeln!(out, "{depth}{kind}{}", node.len()).unwrap();
    for (mbr, item) in node.entries() {
        writeln!(out, "e{item}[{}][{}]", bits(mbr.lo()), bits(mbr.hi())).unwrap();
    }
    for child in node.children() {
        let mbr = child.mbr();
        writeln!(out, "c[{}][{}]", bits(mbr.lo()), bits(mbr.hi())).unwrap();
        dump_node(child, depth + 1, out);
    }
}

fn dump(tree: &RTree) -> String {
    let mut out = String::new();
    writeln!(out, "len {} height {:?}", tree.len(), tree.height()).unwrap();
    if let Some(root) = tree.root() {
        let mbr = root.mbr();
        writeln!(out, "root[{}][{}]", bits(mbr.lo()), bits(mbr.hi())).unwrap();
        dump_node(root, 0, &mut out);
    }
    out
}

/// One golden line: the dump's hash plus the counts a reader can check.
fn line(out: &mut String, name: &str, tree: &RTree) {
    writeln!(
        out,
        "{name}: len {} nodes {} height {:?} shape {:016x}",
        tree.len(),
        tree.node_count(),
        tree.height(),
        fnv(&dump(tree))
    )
    .unwrap();
}

/// Best-first results and visit counts, plus the level partitions.
fn queries(out: &mut String, name: &str, tree: &RTree, rng: &mut Rng, dim: usize) {
    let mut s = String::new();
    for _ in 0..4 {
        let p = Point::new((0..dim).map(|_| rng.coord()).collect::<Vec<_>>());
        let mut visits = 0u64;
        let near = tree.nearest_counting(&p, &mut visits);
        let far = tree.furthest_counting(&p, &mut visits);
        write!(s, "n{near:?}f{far:?}v{visits};").unwrap();
        let order: Vec<usize> = tree
            .iter_by(|m| m.min_dist2_point(&p))
            .map(|(i, _)| i)
            .collect();
        write!(s, "o{order:?};").unwrap();
        let probes: Vec<Point> = (0..3)
            .map(|_| Point::new((0..dim).map(|_| rng.coord()).collect::<Vec<_>>()))
            .collect();
        let mut mv = 0u64;
        let best = tree.min_dist2_multi(&probes, &mut mv);
        write!(s, "m{:?}v{mv};", best.map(f64::to_bits)).unwrap();
    }
    for level in 0..=tree.height().unwrap_or(0) + 1 {
        for (mbr, items) in tree.level_groups(level) {
            write!(
                s,
                "g{level}[{}][{}]{items:?};",
                bits(mbr.lo()),
                bits(mbr.hi())
            )
            .unwrap();
        }
    }
    writeln!(out, "{name} queries: {:016x}", fnv(&s)).unwrap();
}

fn entries(mbrs: &[Mbr]) -> Vec<(Mbr, usize)> {
    mbrs.iter().cloned().zip(0..).collect()
}

fn render() -> String {
    let mut out = String::new();
    let mut rng = Rng(0x5e_ed0f_7ee5);
    for dim in 1..=4 {
        for fanout in [2usize, 3, 4, 8, 16] {
            for n in [1usize, 4, 5, 17, 100, 700] {
                for points in [true, false] {
                    let mbrs = boxes(&mut rng, n, dim, points);
                    let name = format!("bulk d{dim} m{fanout} n{n} p{}", u8::from(points));
                    let tree = RTree::bulk_load(fanout, entries(&mbrs));
                    line(&mut out, &name, &tree);
                    queries(&mut out, &name, &tree, &mut rng, dim);
                }
                let rows: Vec<f64> = (0..n * dim).map(|_| rng.coord()).collect();
                let tree = RTree::bulk_load_rows(fanout, dim, &rows);
                let name = format!("rows d{dim} m{fanout} n{n}");
                line(&mut out, &name, &tree);
            }
        }
    }
    for dim in 1..=3 {
        for fanout in [2usize, 4, 9] {
            // Incremental build from empty.
            let mbrs = boxes(&mut rng, 300, dim, dim != 2);
            let mut tree = RTree::new(fanout);
            for (i, m) in mbrs.iter().enumerate() {
                tree.insert(m.clone(), i);
                if i % 37 == 0 {
                    line(&mut out, &format!("insert d{dim} m{fanout} #{i}"), &tree);
                }
            }
            line(&mut out, &format!("insert d{dim} m{fanout} done"), &tree);
            queries(
                &mut out,
                &format!("insert d{dim} m{fanout}"),
                &tree,
                &mut rng,
                dim,
            );

            // Bulk load, then churn: removals (condensation) mixed with
            // fresh inserts.
            let mut tree = RTree::bulk_load(fanout, entries(&mbrs));
            let mut alive: Vec<usize> = (0..mbrs.len()).collect();
            let mut next = mbrs.len();
            let mut extra = Vec::new();
            for step in 0..400 {
                if rng.next().is_multiple_of(3) {
                    let m = boxes(&mut rng, 1, dim, false).remove(0);
                    tree.insert(&m, next);
                    extra.push(m);
                    alive.push(next);
                    next += 1;
                } else if !alive.is_empty() {
                    let k = (rng.next() % alive.len() as u64) as usize;
                    let id = alive.swap_remove(k);
                    let m = if id < mbrs.len() {
                        &mbrs[id]
                    } else {
                        &extra[id - mbrs.len()]
                    };
                    assert_eq!(tree.remove_item(m, |x| x == id), Some(id));
                }
                if step % 25 == 0 {
                    line(&mut out, &format!("churn d{dim} m{fanout} #{step}"), &tree);
                }
            }
            line(&mut out, &format!("churn d{dim} m{fanout} done"), &tree);
            queries(
                &mut out,
                &format!("churn d{dim} m{fanout}"),
                &tree,
                &mut rng,
                dim,
            );
        }
    }
    for dim in 1..=3 {
        for parts in [1usize, 2, 3, 8, 50] {
            let mbrs = boxes(&mut rng, 333, dim, false);
            let groups = str_partition(&mbrs, parts);
            writeln!(
                out,
                "partition d{dim} p{parts}: {} groups {:016x}",
                groups.len(),
                fnv(&format!("{groups:?}"))
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn tree_shapes_and_traversals_match_the_golden() {
    let actual = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("OSD_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden file present");
    for (n, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "golden line {} diverged", n + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "golden line count diverged"
    );
}

//! Allocation regression test for the packed arena: building a tree with
//! [`RTree::bulk_load`] or [`RTree::bulk_load_rows`], and cloning one,
//! must make a number of heap allocations that does not depend on how
//! many entries the tree holds.
//!
//! A std-only counting [`GlobalAlloc`] wraps the system allocator and
//! counts allocations made by the current thread, so the test harness's
//! own threads do not disturb the counts. This file is its own test
//! binary because a binary has one global allocator.

// Integration test: aborts are intentional.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// The counting allocator must implement the unsafe `GlobalAlloc` trait.
#![allow(unsafe_code)]

use osd_geom::Mbr;
use osd_rtree::RTree;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a thread-local `Cell` with a const initialiser, so touching
// it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocations it made (reallocs
/// included) on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn rows(n: usize, dim: usize) -> Vec<f64> {
    (0..n * dim)
        .map(|i| ((i as f64) * 0.618_033_988_749).fract() * 100.0)
        .collect()
}

fn boxes(n: usize) -> Vec<(Mbr, usize)> {
    rows(n, 2)
        .chunks_exact(2)
        .map(|r| Mbr::new(r.to_vec(), vec![r[0] + 1.0, r[1] + 0.5]))
        .zip(0..)
        .collect()
}

#[test]
fn build_and_clone_allocations_do_not_grow_with_the_entry_count() {
    for fanout in [4usize, 8, 16] {
        let (small, large) = (boxes(20), boxes(10_000));
        let (t_small, a_small) = counted(|| RTree::bulk_load(fanout, small));
        let (t_large, a_large) = counted(|| RTree::bulk_load(fanout, large));
        assert_eq!(t_large.len(), 10_000);
        assert_eq!(a_small, a_large, "bulk_load, fan-out {fanout}");

        let (c_small, a_small) = counted(|| t_small.clone());
        let (c_large, a_large) = counted(|| t_large.clone());
        assert_eq!(c_large.len(), 10_000);
        assert_eq!(a_small, a_large, "clone, fan-out {fanout}");
        drop((c_small, c_large));

        for dim in [1usize, 2, 3] {
            let (small, large) = (rows(20, dim), rows(10_000, dim));
            let (t_small, a_small) = counted(|| RTree::bulk_load_rows(fanout, dim, &small));
            let (t_large, a_large) = counted(|| RTree::bulk_load_rows(fanout, dim, &large));
            assert_eq!(t_small.len(), 20);
            assert_eq!(t_large.len(), 10_000);
            assert_eq!(
                a_small, a_large,
                "bulk_load_rows, fan-out {fanout}, dim {dim}"
            );
            let (_, a_small) = counted(|| t_small.clone());
            let (_, a_large) = counted(|| t_large.clone());
            assert_eq!(
                a_small, a_large,
                "clone of rows, fan-out {fanout}, dim {dim}"
            );
        }
    }
}

#[test]
fn a_single_leaf_tree_allocates_only_its_columns() {
    // The per-object local trees of the instance store: a few instances,
    // one leaf. Node records, slot boxes and slot references (which hold
    // the row ids) make three allocations, and a clone makes the same
    // three.
    let instances = rows(4, 2);
    let (tree, built) = counted(|| RTree::bulk_load_rows(4, 2, &instances));
    assert_eq!(tree.height(), Some(0));
    assert_eq!(built, 3);
    let (_, cloned) = counted(|| tree.clone());
    assert_eq!(cloned, 3);
}

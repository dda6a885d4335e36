//! Heap allocations per served batched lookup, counted by a wrapping
//! global allocator. After one warm-up call (which makes the calling
//! thread's stat stripes), a batched lookup on the served tables makes
//! exactly one allocation: its output `Vec`. Routing, staging and
//! probing run on the stack.
//!
//! The count is per thread, so tests running in parallel on other
//! threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mccuckoo_core::{ConcurrentMcCuckoo, McConfig, ShardedMcCuckoo};
use workloads::UniqueKeys;

/// The system allocator, counting the calling thread's allocations
/// (`alloc`, `alloc_zeroed` and `realloc`; frees are not counted).
struct Counting;

thread_local! {
    // `const`-initialised and without a destructor, so touching it from
    // inside the allocator allocates nothing.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The calling thread's allocations while `f` runs, and its result.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// `n` keys alternating between stored ones and fresh misses.
fn request(stored: &[u64], fresh: &mut UniqueKeys, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                stored[i * 7 % stored.len()]
            } else {
                fresh.next_key()
            }
        })
        .collect()
}

#[test]
fn sharded_lookup_batch_allocates_only_its_output() {
    let t = ShardedMcCuckoo::<u64, u64>::new(16, McConfig::paper(256, 29));
    let mut keys = UniqueKeys::new(30);
    let stored = keys.take_vec(4_000);
    assert!(t
        .insert_batch(&stored.iter().map(|&k| (k, !k)).collect::<Vec<_>>())
        .iter()
        .all(|r| r.is_ok()));
    assert_eq!(t.shard_count(), 16, "no split");
    // Warm-up: the first record into each shard makes this thread's
    // stripe there.
    assert!(t.lookup_batch(&stored).iter().all(Option::is_some));
    for n in [32, 97] {
        let req = request(&stored, &mut keys, n);
        let (allocs, out) = allocations(|| t.lookup_batch(&req));
        assert_eq!(allocs, 1, "{n}-key lookup_batch made {allocs} allocations");
        for (i, (k, v)) in req.iter().zip(&out).enumerate() {
            assert_eq!(*v, (i % 2 == 0).then_some(!k), "key {i}");
        }
    }
}

#[test]
fn concurrent_get_batch_allocates_only_its_output() {
    let t = ConcurrentMcCuckoo::<u64, u64>::new(McConfig::paper(1_024, 31));
    let mut keys = UniqueKeys::new(32);
    let stored = keys.take_vec(2_000);
    for &k in &stored {
        t.insert(k, !k).unwrap();
    }
    assert!(t.get_batch(&stored).iter().all(Option::is_some));
    for n in [32, 97] {
        let req = request(&stored, &mut keys, n);
        let (allocs, out) = allocations(|| t.get_batch(&req));
        assert_eq!(allocs, 1, "{n}-key get_batch made {allocs} allocations");
        for (i, (k, v)) in req.iter().zip(&out).enumerate() {
            assert_eq!(*v, (i % 2 == 0).then_some(!k), "key {i}");
        }
    }
}

//! Quickstart: a guided tour of the McCuckoo API.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mccuckoo_suite::cuckoo_baselines::{CuckooConfig, DaryCuckoo};
use mccuckoo_suite::mccuckoo_core::{
    BlockedConfig, BlockedMcCuckoo, DeletionMode, McConfig, McCuckoo, McTable,
};

fn main() {
    // ------------------------------------------------------------------
    // 1. The paper's table: 3 hash functions, single slot per bucket.
    // ------------------------------------------------------------------
    let mut table: McCuckoo<&str, u32> = McCuckoo::new(McConfig::paper(1024, 42));
    table.insert("alice", 1).unwrap();
    table.insert("bob", 2).unwrap();
    println!("alice -> {:?}", table.get(&"alice"));
    println!("carol -> {:?}", table.get(&"carol"));

    // The first items occupy *all* of their candidate buckets — that is
    // the multi-copy idea. Redundancy is visible through copy_count:
    println!("copies of alice: {}", table.copy_count(&"alice"));

    // Upserts rewrite every copy.
    table.insert("alice", 100).unwrap();
    println!("alice after update -> {:?}", table.get(&"alice"));

    // ------------------------------------------------------------------
    // 2. The on-chip counters double as a Bloom filter: absent keys are
    //    usually rejected with zero off-chip accesses.
    // ------------------------------------------------------------------
    let before = table.meter().snapshot();
    for probe in ["eve", "mallory", "trent"] {
        assert!(table.get(&probe).is_none());
    }
    let delta = table.meter().snapshot() - before;
    println!(
        "3 absent-key lookups cost {} off-chip reads (counters screened them)",
        delta.offchip_reads
    );

    // ------------------------------------------------------------------
    // 3. Deletion writes nothing off-chip: only counters change.
    // ------------------------------------------------------------------
    let mut deletable: McCuckoo<u64, String> =
        McCuckoo::new(McConfig::paper(1024, 7).with_deletion(DeletionMode::Reset));
    for k in 0u64..500 {
        deletable.insert_new(k, format!("value-{k}")).unwrap();
    }
    let before = deletable.meter().snapshot();
    for k in 0u64..500 {
        deletable.remove(&k);
    }
    let delta = deletable.meter().snapshot() - before;
    println!(
        "500 deletions: {} off-chip writes, {} off-chip reads",
        delta.offchip_writes, delta.offchip_reads
    );

    // ------------------------------------------------------------------
    // 4. The blocked variant (3 hashes × 3 slots) runs to ~99% load.
    // ------------------------------------------------------------------
    let mut blocked: BlockedMcCuckoo<u64, u64> = BlockedMcCuckoo::new(BlockedConfig::paper(512, 9));
    let capacity = blocked.capacity();
    let target = capacity * 98 / 100;
    for k in 0..target as u64 {
        blocked.insert_new(k, k).unwrap();
    }
    println!(
        "blocked table filled to {:.1}% load with {} items stashed",
        blocked.load_ratio() * 100.0,
        blocked.stash_len()
    );

    // ------------------------------------------------------------------
    // 5. Every table — single, blocked, and the baselines — implements
    //    the `McTable` trait, so generic code drives them all. The trait
    //    is object-safe too: `Box<dyn McTable<K, V>>` works.
    // ------------------------------------------------------------------
    fn churn<T: McTable<u64, u64>>(t: &mut T) -> (usize, f64) {
        for k in 0..300u64 {
            let _ = t.insert_new(k, k * 10);
        }
        assert_eq!(t.lookup(&7), Some(70));
        t.insert(7, 77); // upsert through the trait
        assert_eq!(t.lookup(&7), Some(77));
        t.remove(&7);
        assert!(!t.contains(&7));
        (t.len(), t.load())
    }
    let mut single: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper_with_deletion(1024, 3));
    let mut blocked2: BlockedMcCuckoo<u64, u64> = BlockedMcCuckoo::new(BlockedConfig {
        base: McConfig::paper_with_deletion(512, 3),
        slots: 3,
    });
    let mut baseline: DaryCuckoo<u64, u64> = DaryCuckoo::new(CuckooConfig::paper(1024, 3));
    for (name, (len, load)) in [
        ("McCuckoo", churn(&mut single)),
        ("B-McCuckoo", churn(&mut blocked2)),
        ("d-ary Cuckoo", churn(&mut baseline)),
    ] {
        println!(
            "{name:<12} via McTable: {len} items at {:.1}% load",
            load * 100.0
        );
    }

    // ------------------------------------------------------------------
    // 6. Every structural invariant is checkable at runtime.
    // ------------------------------------------------------------------
    table
        .check_invariants()
        .expect("single-slot invariants hold");
    blocked.check_invariants().expect("blocked invariants hold");
    println!("all invariants verified — done");
}

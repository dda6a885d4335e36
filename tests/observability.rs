//! Cross-crate observability conformance: every `McTable` implementor in
//! the workspace populates its [`TableStats`], and the engine tables'
//! probe histogram reconciles exactly with the independent mem-model
//! access meter.

use cuckoo_baselines::{Bcht, BchtConfig, BloomGuidedCuckoo, CuckooConfig, DaryCuckoo};
use mccuckoo_core::{
    BlockedConfig, BlockedMcCuckoo, ConcurrentMcCuckoo, McConfig, McCuckoo, McMap, McTable,
    ShardedMcCuckoo, TableStats,
};
use mem_model::InsertOutcome;
use proptest::prelude::*;

/// Drive a common workload through the trait object: `n` fresh inserts,
/// one upsert, a hit and a miss lookup, one remove and one remove miss.
fn exercise(t: &mut dyn McTable<u64, u64>, n: u64) -> TableStats {
    for k in 0..n {
        assert!(t.insert_new(k, k).stored(), "fresh insert lost at {k}");
    }
    assert_eq!(t.insert(0, 99).outcome, InsertOutcome::Updated);
    assert_eq!(t.lookup(&0), Some(99));
    assert_eq!(t.lookup(&(n + 1)), None);
    assert_eq!(t.remove(&1), Some(1));
    assert_eq!(t.remove(&(n + 7)), None);
    t.stats()
}

/// Shared assertions on the stats every implementor must report.
fn assert_populated(name: &str, s: &TableStats, n: u64) {
    assert_eq!(s.ops.inserts, n, "{name}: fresh inserts");
    assert_eq!(s.ops.updates, 1, "{name}: updates");
    assert_eq!(s.ops.lookup_hits, 1, "{name}: lookup hits");
    assert_eq!(s.ops.lookup_misses, 1, "{name}: lookup misses");
    assert_eq!(s.ops.removes, 1, "{name}: removes");
    assert_eq!(s.ops.remove_misses, 1, "{name}: remove misses");
    assert_eq!(s.ops.failed_inserts, 0, "{name}: failed inserts");
    assert_eq!(
        s.kick_hist.count, n,
        "{name}: kick samples = fresh attempts"
    );
    assert_eq!(s.probe_hist.count, 2, "{name}: probe samples = lookups");
    assert!(s.probe_hist.sum >= 1, "{name}: lookups cost reads");
}

/// Acceptance sweep: all eight `McTable` implementors in the workspace
/// return populated, mutually consistent stats for the same workload.
#[test]
fn all_eight_implementors_populate_stats() {
    type NamedTable = (&'static str, Box<dyn McTable<u64, u64>>);
    const N: u64 = 400;
    let buckets = 1024;
    let mut tables: Vec<NamedTable> = vec![
        (
            "McCuckoo",
            Box::new(McCuckoo::new(McConfig::paper_with_deletion(buckets, 3))),
        ),
        (
            "BlockedMcCuckoo",
            Box::new(BlockedMcCuckoo::new(BlockedConfig {
                base: McConfig::paper_with_deletion(buckets, 3),
                slots: 3,
            })),
        ),
        (
            "ConcurrentMcCuckoo",
            Box::new(ConcurrentMcCuckoo::new(McConfig::paper(buckets, 3))),
        ),
        (
            "ShardedMcCuckoo",
            Box::new(ShardedMcCuckoo::new(4, McConfig::paper(buckets / 4, 3))),
        ),
        ("McMap", Box::new(McMap::with_capacity_and_seed(2048, 3))),
        (
            "DaryCuckoo",
            Box::new(DaryCuckoo::new(CuckooConfig::paper(buckets, 3))),
        ),
        ("Bcht", Box::new(Bcht::new(BchtConfig::paper(buckets, 3)))),
        (
            "BloomGuidedCuckoo",
            Box::new(BloomGuidedCuckoo::new(
                CuckooConfig::paper(buckets, 3),
                8,
                3,
            )),
        ),
    ];
    assert_eq!(tables.len(), 8, "the workspace has eight implementors");
    for (name, t) in &mut tables {
        let s = exercise(t.as_mut(), N);
        assert_populated(name, &s, N);
        if *name == "ShardedMcCuckoo" {
            assert_eq!(s.shards.len(), 4, "per-shard breakdown present");
            let shard_inserts: u64 = s.shards.iter().map(|sh| sh.ops.inserts).sum();
            assert_eq!(shard_inserts, N, "aggregate equals the shard sum");
            assert!(s.occupancy_skew() >= 1.0);
            assert!(s.hottest_shard().is_some());
        } else {
            assert!(s.shards.is_empty(), "{name}: unsharded tables report none");
        }
    }
}

/// Counters are monotonic: `clear()` wipes the items, not the history,
/// so baseline-diffing over a clear stays exact.
#[test]
fn counters_survive_clear() {
    let mut t: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper(256, 9));
    for k in 0..100 {
        t.insert(k, k).unwrap();
    }
    let before = t.stats();
    McTable::clear(&mut t);
    assert_eq!(t.len(), 0);
    let after = t.stats();
    assert_eq!(before.ops.inserts, after.ops.inserts);
    assert_eq!(before.kick_hist, after.kick_hist);
}

proptest! {
    /// The probe histogram is not an estimate: on the metered tables, its
    /// sample count equals the number of lookups issued and its value sum
    /// equals the mem-model meter's read delta (off-chip + stash) over the
    /// same window, for any fill, any hit/miss mix, single-key or batched.
    /// The engine tables meter their reads independently of the
    /// histogram; the concurrent and sharded tables derive theirs from
    /// it, so there the test pins that derivation, `d` counter reads per
    /// lookup included.
    #[test]
    fn probe_histogram_reconciles_with_meter(
        seed in any::<u64>(),
        fill in 1u64..600,
        lookups in proptest::collection::vec(any::<u64>(), 1..200),
        kind in 0usize..4,
        batched in any::<bool>(),
    ) {
        let mut t: Box<dyn McTable<u64, u64>> = match kind {
            0 => Box::new(McCuckoo::new(McConfig::paper(512, seed))),
            1 => Box::new(BlockedMcCuckoo::new(BlockedConfig {
                base: McConfig::paper(512, seed),
                slots: 2,
            })),
            2 => Box::new(ConcurrentMcCuckoo::new(McConfig::paper(512, seed))),
            _ => Box::new(ShardedMcCuckoo::new(4, McConfig::paper(128, seed))),
        };
        for k in 0..fill {
            prop_assert!(t.insert_new(k, k).stored());
        }
        let stats0 = t.stats();
        let meter0 = t.mem_stats();
        // ~half present, half absent
        let queries: Vec<u64> = lookups.iter().map(|&q| q % (fill * 2)).collect();
        let found = if batched {
            t.lookup_batch(&queries)
        } else {
            queries.iter().map(|q| t.lookup(q)).collect()
        };
        let hits = found.iter().filter(|v| v.is_some()).count() as u64;
        let ds = {
            let s = t.stats();
            (
                s.probe_hist.count - stats0.probe_hist.count,
                s.probe_hist.sum - stats0.probe_hist.sum,
                s.ops.lookup_hits - stats0.ops.lookup_hits,
            )
        };
        let dm = t.mem_stats() - meter0;
        prop_assert_eq!(ds.0, lookups.len() as u64, "one sample per lookup");
        prop_assert_eq!(ds.1, dm.offchip_reads + dm.stash_reads, "sum = metered reads");
        // d·l counter reads per lookup: d = 3, l = 2 slots when blocked.
        let counters = if kind == 1 { 6 } else { 3 };
        prop_assert_eq!(dm.onchip_reads, counters * ds.0, "d·l counter reads per lookup");
        prop_assert_eq!(ds.2, hits);
    }
}

//! `lookup_batch` ≡ per-key `lookup`, proven over every implementor.
//!
//! The trait contract (see [`McTable::lookup_batch`]) promises the
//! batched read path is *semantically invisible*: same results in
//! order, same hit/miss tallies, same probe histogram and the same
//! metered access counts as issuing the keys one at a time. The batch
//! machinery (probe plans, software prefetch, batch-local tallying) may
//! only change *when* work happens, never *what* is counted.
//!
//! Covered implementors — all eight tables that implement [`McTable`]:
//!
//! | table                | batch path                                   |
//! |----------------------|----------------------------------------------|
//! | `McCuckoo`           | engine override (plan, prefetch, same probe) |
//! | `BlockedMcCuckoo`    | engine override (plan, prefetch, same probe) |
//! | `ConcurrentMcCuckoo` | one-table read pipeline (`get_batch`)        |
//! | `ShardedMcCuckoo`    | cross-shard read pipeline                    |
//! | `McMap`              | default per-key method                       |
//! | `DaryCuckoo`         | default per-key method                       |
//! | `Bcht`               | default per-key method                       |
//! | `BloomGuidedCuckoo`  | default per-key method                       |
//!
//! The two engine tables run one `Engine::probe` on both paths (a
//! single-key `get` plans and probes at once, a batch plans a chunk
//! first), so for them this suite pins the batch bookkeeping — chunking,
//! prefetch, batch-local tallies — rather than two copies of the probe.
//!
//! Each case runs the same query set twice against one table — once
//! through the per-key loop, once batched — and diffs the observable
//! counters around each pass. A final test pins the *default method*
//! itself on a foreign implementor that never touches the core crates'
//! overrides.
//!
//! The sharded table's batched *writes* (`insert_batch`, `remove_batch`)
//! run a pipeline too: stage 1 hashes a window of keys and hints their
//! lines, stage 2 writes each key on the candidates stage 1 hashed.
//! `sharded_write_batches_match_per_key_writes` pins them to per-key
//! `insert`/`remove` loops on a twin table, shard by shard.

use cuckoo_baselines::{Bcht, BchtConfig, BloomGuidedCuckoo, CuckooConfig, DaryCuckoo};
use hash_kit::SplitMix64;
use mccuckoo_core::{
    BlockedConfig, BlockedMcCuckoo, ConcurrentMcCuckoo, McConfig, McCuckoo, McMap, McTable,
    ShardedMcCuckoo, TableStats,
};
use mem_model::MemStats;

/// Observable counters that must not distinguish the two read paths.
#[derive(Debug, PartialEq)]
struct ReadFootprint {
    hits: u64,
    misses: u64,
    probe_count: u64,
    probe_sum: u64,
    probe_buckets: Vec<u64>,
    offchip_reads: u64,
    onchip_reads: u64,
    stash_reads: u64,
    // Reads must not mutate anything either.
    offchip_writes: u64,
    onchip_writes: u64,
    stash_writes: u64,
}

fn footprint_delta(
    s0: &TableStats,
    m0: &MemStats,
    s1: &TableStats,
    m1: &MemStats,
) -> ReadFootprint {
    let buckets = s1
        .probe_hist
        .buckets
        .iter()
        .zip(s0.probe_hist.buckets.iter().chain(std::iter::repeat(&0)))
        .map(|(a, b)| a - b)
        .collect();
    ReadFootprint {
        hits: s1.ops.lookup_hits - s0.ops.lookup_hits,
        misses: s1.ops.lookup_misses - s0.ops.lookup_misses,
        probe_count: s1.probe_hist.count - s0.probe_hist.count,
        probe_sum: s1.probe_hist.sum - s0.probe_hist.sum,
        probe_buckets: buckets,
        offchip_reads: m1.offchip_reads - m0.offchip_reads,
        onchip_reads: m1.onchip_reads - m0.onchip_reads,
        stash_reads: m1.stash_reads - m0.stash_reads,
        offchip_writes: m1.offchip_writes - m0.offchip_writes,
        onchip_writes: m1.onchip_writes - m0.onchip_writes,
        stash_writes: m1.stash_writes - m0.stash_writes,
    }
}

/// Run `queries` through both read paths of one live table and assert
/// every observable is identical. `expect_batch_hist` marks the tables
/// whose overridden batch path must also record the batch length
/// (the default method has no observability hook to call).
fn assert_batch_equiv(
    label: &str,
    t: &dyn McTable<u64, u64>,
    queries: &[u64],
    expect_batch_hist: bool,
) {
    // Per-key pass.
    let (s0, m0) = (t.stats(), t.mem_stats());
    let per_key: Vec<Option<u64>> = queries.iter().map(|k| t.lookup(k)).collect();
    let (s1, m1) = (t.stats(), t.mem_stats());
    let single = footprint_delta(&s0, &m0, &s1, &m1);

    // Batched pass, same keys, same table state.
    let batched = t.lookup_batch(queries);
    let (s2, m2) = (t.stats(), t.mem_stats());
    let batch = footprint_delta(&s1, &m1, &s2, &m2);

    assert_eq!(batched, per_key, "{label}: batched results diverge");
    assert_eq!(batch, single, "{label}: read footprints diverge");
    let batch_hist_delta = s2.batch_hist.count - s1.batch_hist.count;
    if expect_batch_hist {
        assert!(
            batch_hist_delta >= 1,
            "{label}: overridden batch path must record batch_hist"
        );
        assert!(
            s2.batch_hist.sum - s1.batch_hist.sum >= queries.len() as u64,
            "{label}: batch_hist sum must cover the submitted keys"
        );
    }
}

/// Seeded fill + query-set builder: inserts `n` keys, returns a query
/// mix of present keys, absent keys and duplicates in shuffled order.
fn fill_and_queries(t: &mut dyn McTable<u64, u64>, seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut present = Vec::with_capacity(n);
    while present.len() < n {
        // Even keys are insertable, odd keys stay absent forever.
        let k = (rng.next_u64() | 1) ^ 1;
        if t.insert_new(k, k ^ 0xABCD).stored() {
            present.push(k);
        }
    }
    let mut queries = Vec::with_capacity(2 * n);
    for i in 0..2 * n {
        let q = match i % 4 {
            0 | 1 => present[rng.next_below(present.len() as u64) as usize],
            2 => rng.next_u64() | 1, // absent: odd keys are never inserted
            _ => present[i % present.len()], // deterministic duplicate
        };
        queries.push(q);
    }
    queries
}

const FILL: usize = 700;

#[test]
fn engine_single_layout_batch_is_equivalent() {
    for (seed, deletion) in [(11u64, false), (12, true)] {
        let cfg = if deletion {
            McConfig::paper_with_deletion(1024, seed)
        } else {
            McConfig::paper(1024, seed)
        };
        let mut t = McCuckoo::<u64, u64>::new(cfg);
        let q = fill_and_queries(&mut t, seed ^ 0xF00, FILL);
        assert_batch_equiv("McCuckoo", &t, &q, true);
    }
}

#[test]
fn engine_blocked_layout_batch_is_equivalent() {
    // With deletions disabled and enabled.
    for (seed, deletion) in [(21u64, false), (22, true)] {
        let base = if deletion {
            McConfig::paper_with_deletion(512, seed)
        } else {
            McConfig::paper(512, seed)
        };
        let mut t = BlockedMcCuckoo::<u64, u64>::new(BlockedConfig { base, slots: 3 });
        let q = fill_and_queries(&mut t, seed ^ 0xF00, FILL);
        assert_batch_equiv("BlockedMcCuckoo", &t, &q, true);
    }
}

#[test]
fn concurrent_table_batch_is_equivalent() {
    let mut t = ConcurrentMcCuckoo::<u64, u64>::new(McConfig::paper(1024, 31));
    let q = fill_and_queries(&mut t, 0x31F0, FILL);
    assert_batch_equiv("ConcurrentMcCuckoo", &t, &q, true);
}

#[test]
fn sharded_table_batch_is_equivalent() {
    let mut t = ShardedMcCuckoo::<u64, u64>::new(4, McConfig::paper(256, 41));
    let q = fill_and_queries(&mut t, 0x41F0, FILL);
    assert_batch_equiv("ShardedMcCuckoo", &t, &q, true);
}

/// Every shard's read counters and access tallies.
fn shard_snapshots(t: &ShardedMcCuckoo<u64, u64>) -> Vec<(TableStats, MemStats)> {
    (0..t.shard_count())
        .map(|i| (t.shard(i).stats(), t.shard(i).mem_stats()))
        .collect()
}

/// The serving shape of the `lookup_batch_dram` benchmark: 16 shards,
/// 32-key requests, plus one request longer than the pipeline window.
/// The batched pass runs one read pipeline across all shards, so this
/// pins each shard's share of hits, misses, probes and metered reads —
/// not only their sum — and each shard's `batch_hist`, which must
/// record exactly the keys every request routed to that shard.
#[test]
fn sharded_requests_match_per_key_lookups_shard_by_shard() {
    let mut t = ShardedMcCuckoo::<u64, u64>::new(16, McConfig::paper(256, 43));
    let mut q = fill_and_queries(&mut t, 0x43F0, 9_000);
    q.truncate(q.len() / 32 * 32);
    let mut requests: Vec<&[u64]> = q.chunks(32).collect();
    // Longer than any pipeline window, with keys on every shard.
    requests.push(&q[..1_000]);

    let (s0, m0, p0) = (t.stats(), t.mem_stats(), shard_snapshots(&t));
    let per_key: Vec<Option<u64>> = requests
        .iter()
        .flat_map(|r| r.iter().map(|k| t.get(k)))
        .collect();
    let (s1, m1, p1) = (t.stats(), t.mem_stats(), shard_snapshots(&t));
    let batched: Vec<Option<u64>> = requests.iter().flat_map(|r| t.lookup_batch(r)).collect();
    let (s2, m2, p2) = (t.stats(), t.mem_stats(), shard_snapshots(&t));

    assert_eq!(batched, per_key, "batched results diverge");
    assert_eq!(
        footprint_delta(&s1, &m1, &s2, &m2),
        footprint_delta(&s0, &m0, &s1, &m1),
        "total read footprints diverge"
    );
    let mut requests_in = vec![0u64; t.shard_count()];
    let mut keys_in = vec![0u64; t.shard_count()];
    for r in &requests {
        let mut touched = vec![false; t.shard_count()];
        for k in r.iter() {
            keys_in[t.shard_of(k)] += 1;
            touched[t.shard_of(k)] = true;
        }
        for (n, hit) in requests_in.iter_mut().zip(touched) {
            *n += u64::from(hit);
        }
    }
    for i in 0..t.shard_count() {
        let single = footprint_delta(&p0[i].0, &p0[i].1, &p1[i].0, &p1[i].1);
        let batch = footprint_delta(&p1[i].0, &p1[i].1, &p2[i].0, &p2[i].1);
        assert_eq!(batch, single, "shard {i}: read footprints diverge");
        assert!(single.hits + single.misses > 0, "shard {i} saw no keys");
        let (h1, h2) = (&p1[i].0.batch_hist, &p2[i].0.batch_hist);
        assert_eq!(
            h1, &p0[i].0.batch_hist,
            "shard {i}: per-key pass recorded a batch"
        );
        assert_eq!(
            h2.count - h1.count,
            requests_in[i],
            "shard {i}: batch count"
        );
        assert_eq!(h2.sum - h1.sum, keys_in[i], "shard {i}: batched keys");
    }
    assert_eq!(
        s2.batch_hist.count - s1.batch_hist.count,
        requests.len() as u64 + requests_in.iter().sum::<u64>()
    );
}

/// One shard's items (in bucket order), op counters, histograms and
/// metered accesses.
type ShardState = (Vec<(u64, u64)>, TableStats, MemStats);

/// Every shard's state, without the batch-size histogram only the
/// batched path records.
fn shard_states(t: &ShardedMcCuckoo<u64, u64>) -> Vec<ShardState> {
    (0..t.shard_count())
        .map(|i| {
            let s = t.shard(i);
            let mut stats = s.stats();
            stats.batch_hist = Default::default();
            (s.items(), stats, s.mem_stats())
        })
        .collect()
}

#[test]
fn sharded_write_batches_match_per_key_writes() {
    // Twin tables, one written key by key and one in batches of every
    // length around the pipeline window (32): a single key, one short of
    // a window, one window, one past it, several windows, and the
    // 4096-item bulk flush. Three bulk flushes push 16 × 3 × 256 buckets
    // past full, so the last ones reject with nothing mutated.
    let config = McConfig::paper(256, 0x3B17);
    let single = ShardedMcCuckoo::<u64, u64>::new(16, config.clone());
    let batched = ShardedMcCuckoo::<u64, u64>::new(16, config);
    let mut rng = SplitMix64::new(0x3B18);
    let mut live: Vec<u64> = Vec::new();
    let mut rejected = 0;
    for (round, len) in [1, 31, 32, 33, 97, 4096, 4096, 4096]
        .into_iter()
        .enumerate()
    {
        let mut items: Vec<(u64, u64)> =
            (0..len).map(|_| (rng.next_u64(), rng.next_u64())).collect();
        if len > 20 {
            // A key repeated inside one window: its second occurrence
            // is an update of the first.
            items[20] = (items[3].0, items[3].1 ^ 1);
        }
        if round > 0 && len > 40 {
            // A live key from an earlier batch: an update too.
            items[40].0 = live[rng.next_below(live.len() as u64) as usize];
        }
        let want: Vec<_> = items.iter().map(|&(k, v)| single.insert(k, v)).collect();
        let got = batched.insert_batch(&items);
        assert_eq!(got, want, "insert batch of {len}: results diverge");
        if len > 20 && want[3].is_ok() {
            assert_eq!(got[20], Ok(true), "repeated key must update");
        }
        rejected += want.iter().filter(|r| r.is_err()).count();
        live.extend(
            items
                .iter()
                .zip(&want)
                .filter(|(_, r)| **r == Ok(false))
                .map(|(&(k, _), _)| k),
        );
        assert_eq!(
            shard_states(&batched),
            shard_states(&single),
            "after insert batch of {len}"
        );
    }
    assert!(rejected > 0, "the table never filled up");
    assert!(
        single.len() * 10 > single.capacity() * 9,
        "load stayed below 0.9"
    );

    // Removals of the same lengths: live keys, absent keys and a key
    // repeated in one window (only its first occurrence removes it).
    for len in [1, 31, 32, 33, 97, 4096] {
        let mut keys: Vec<u64> = (0..len)
            .map(|i| match i % 3 {
                0 => rng.next_u64(),
                _ => live.swap_remove(rng.next_below(live.len() as u64) as usize),
            })
            .collect();
        if len > 20 {
            keys[20] = keys[2];
        }
        let want: Vec<_> = keys.iter().map(|k| single.remove(k)).collect();
        let got = batched.remove_batch(&keys);
        assert_eq!(got, want, "remove batch of {len}: results diverge");
        if len > 20 {
            assert_eq!(got[20], None, "a repeated key is removed once");
        }
        assert_eq!(
            shard_states(&batched),
            shard_states(&single),
            "after remove batch of {len}"
        );
    }
    assert_eq!(batched.len(), single.len());
    batched.check_invariants().unwrap();
}

#[test]
fn default_method_implementors_batch_is_equivalent() {
    let mut map = McMap::<u64, u64>::new();
    let q = fill_and_queries(&mut map, 0x51F0, FILL);
    assert_batch_equiv("McMap", &map, &q, false);

    let mut dary = DaryCuckoo::<u64, u64>::new(CuckooConfig::paper(1024, 61));
    let q = fill_and_queries(&mut dary, 0x61F0, FILL);
    assert_batch_equiv("DaryCuckoo", &dary, &q, false);

    let mut bcht = Bcht::<u64, u64>::new(BchtConfig::paper(256, 71));
    let q = fill_and_queries(&mut bcht, 0x71F0, FILL);
    assert_batch_equiv("Bcht", &bcht, &q, false);

    let mut bloom = BloomGuidedCuckoo::<u64, u64>::new(CuckooConfig::paper(1024, 81), 8, 3);
    let q = fill_and_queries(&mut bloom, 0x81F0, FILL);
    assert_batch_equiv("BloomGuidedCuckoo", &bloom, &q, false);
}

/// Seeded property sweep: random loads, random query mixes, every
/// overriding implementor. Checks the equivalence isn't an artifact of
/// one lucky fill — rule-1 misses, stash hits and empty-table batches
/// all appear across the seeds.
#[test]
fn batch_equivalence_holds_across_seeded_workloads() {
    for seed in 0..8u64 {
        let n = 100 + (seed as usize) * 150; // 100..=1150 items
        let mut single = McCuckoo::<u64, u64>::new(McConfig::paper_with_deletion(1024, seed));
        let q = fill_and_queries(&mut single, seed.wrapping_mul(0x9E37), n.min(800));
        // Delete a slice of the fill so tombstoned counters are probed.
        for k in q.iter().take(n / 8).copied().collect::<Vec<_>>() {
            let _ = single.remove(&k);
        }
        assert_batch_equiv("McCuckoo(prop)", &single, &q, true);

        let mut sharded = ShardedMcCuckoo::<u64, u64>::new(2, McConfig::paper(512, seed + 9));
        let q = fill_and_queries(&mut sharded, seed.wrapping_mul(0x85EB), n.min(600));
        assert_batch_equiv("Sharded(prop)", &sharded, &q, true);
    }
}

#[test]
fn empty_and_tiny_batches_are_equivalent() {
    let mut t = McCuckoo::<u64, u64>::new(McConfig::paper(128, 5));
    assert!(t.lookup_batch(&[]).is_empty());
    let _ = t.insert_new(7, 70);
    assert_batch_equiv("McCuckoo(tiny)", &t, &[7], true);
    assert_batch_equiv("McCuckoo(tiny-miss)", &t, &[9], true);
}

/// A foreign implementor that only supplies the required methods: pins
/// the *default* `lookup_batch` body itself (not any core override) to
/// the per-key contract.
#[test]
fn default_method_on_a_foreign_implementor() {
    struct VecTable(Vec<(u64, u64)>);
    impl McTable<u64, u64> for VecTable {
        fn insert(&mut self, key: u64, value: u64) -> mem_model::InsertReport {
            self.0.push((key, value));
            mem_model::InsertReport::clean(1)
        }
        fn insert_new(&mut self, key: u64, value: u64) -> mem_model::InsertReport {
            self.insert(key, value)
        }
        fn lookup(&self, key: &u64) -> Option<u64> {
            self.0.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
        }
        fn remove(&mut self, key: &u64) -> Option<u64> {
            let i = self.0.iter().position(|(k, _)| k == key)?;
            Some(self.0.swap_remove(i).1)
        }
        fn clear(&mut self) {
            self.0.clear();
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn capacity(&self) -> usize {
            64
        }
    }

    let mut t = VecTable(Vec::new());
    for k in 0..20u64 {
        t.insert(k, k * 3);
    }
    let queries: Vec<u64> = (0..40u64).collect();
    let per_key: Vec<Option<u64>> = queries.iter().map(|k| t.lookup(k)).collect();
    assert_eq!(t.lookup_batch(&queries), per_key);
}

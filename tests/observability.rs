//! Cross-crate observability conformance: every `McTable` implementor in
//! the workspace populates its [`TableStats`], and the engine tables'
//! probe histogram reconciles exactly with the independent mem-model
//! access meter.

use cuckoo_baselines::{Bcht, BchtConfig, BloomGuidedCuckoo, CuckooConfig, DaryCuckoo};
use mccuckoo_core::obs::HIST_BUCKETS;
use mccuckoo_core::{
    BlockedConfig, BlockedMcCuckoo, ConcurrentMcCuckoo, Histogram, McConfig, McCuckoo, McMap,
    McTable, OpStats, ShardedMcCuckoo, TableStats,
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

/// Threads per round: more than the recorder's 16 stripe ids, so at
/// least four threads share the fetch_add cells while the rest own a
/// stripe each.
const STRIPED_THREADS: usize = 20;

/// One thread's expected recorder deltas for one table.
#[derive(Default)]
struct Expect {
    ops: OpStats,
    shard_ops: Vec<OpStats>,
    batch_hist: Histogram,
}

impl Expect {
    /// Apply `f` to the aggregate and, on the sharded table, to `shard`'s
    /// own counters.
    fn bump(&mut self, shard: Option<usize>, f: impl Fn(&mut OpStats)) {
        f(&mut self.ops);
        if let Some(s) = shard {
            f(&mut self.shard_ops[s]);
        }
    }

    fn insert(&mut self, shard: Option<usize>, res: &Result<bool, (u64, u64)>) {
        self.bump(shard, |o| match res {
            Ok(true) => o.updates += 1,
            Ok(false) => o.inserts += 1,
            Err(_) => o.failed_inserts += 1,
        });
    }

    fn lookup(&mut self, shard: Option<usize>, hit: bool) {
        self.bump(shard, |o| {
            if hit {
                o.lookup_hits += 1
            } else {
                o.lookup_misses += 1
            }
        });
    }

    fn remove(&mut self, shard: Option<usize>, hit: bool) {
        self.bump(shard, |o| {
            if hit {
                o.removes += 1
            } else {
                o.remove_misses += 1
            }
        });
    }

    /// One batch-size sample of `len`.
    fn batch(&mut self, len: usize) {
        let v = len as u64;
        let mut buckets = vec![0; HIST_BUCKETS];
        buckets[if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }] = 1;
        self.batch_hist.merge(&Histogram {
            buckets,
            count: 1,
            sum: v,
        });
    }

    /// A sharded batch: the caller-level sample plus one per shard the
    /// batch reaches, of that shard's share.
    fn sharded_batch(&mut self, t: &ShardedMcCuckoo<u64, u64>, keys: &[u64]) {
        self.batch(keys.len());
        for s in 0..t.shard_count() {
            let share = keys.iter().filter(|k| t.shard_of(k) == s).count();
            if share > 0 {
                self.batch(share);
            }
        }
    }

    fn merge(&mut self, other: &Expect) {
        self.ops.merge(&other.ops);
        self.shard_ops
            .resize(other.shard_ops.len(), OpStats::default());
        for (mine, theirs) in self.shard_ops.iter_mut().zip(&other.shard_ops) {
            mine.merge(theirs);
        }
        self.batch_hist.merge(&other.batch_hist);
    }
}

/// Thread `id`'s mix on both tables: single and batched upserts, hit and
/// miss lookups, and removes, over keys no other thread touches. With
/// `lookups_only` it issues only lookups (the meter's read-only window).
fn striped_mix(
    sharded: &ShardedMcCuckoo<u64, u64>,
    conc: &ConcurrentMcCuckoo<u64, u64>,
    id: u64,
    lookups_only: bool,
    start: &std::sync::Barrier,
) -> (Expect, Expect) {
    let mut es = Expect {
        shard_ops: vec![OpStats::default(); sharded.shard_count()],
        ..Expect::default()
    };
    let mut ec = Expect::default();
    let base = id << 32;
    let keys: Vec<u64> = (base..base + 240).collect();
    // Record once, then wait for the whole round: every thread of the
    // round holds its stripe id (or found none) at the same time.
    let shard = |k: &u64| Some(sharded.shard_of(k));
    es.lookup(shard(&base), sharded.get(&base).is_some());
    ec.lookup(None, conc.get(&base).is_some());
    start.wait();
    if !lookups_only {
        for &k in &keys[..80] {
            es.insert(shard(&k), &sharded.insert(k, k));
            ec.insert(None, &conc.insert(k, k));
        }
        // Half fresh, half updates of the single inserts above.
        let items: Vec<(u64, u64)> = keys[40..160].iter().map(|&k| (k, k + 1)).collect();
        es.sharded_batch(sharded, &keys[40..160]);
        for (res, &(k, _)) in sharded.insert_batch(&items).iter().zip(&items) {
            es.insert(shard(&k), res);
        }
        ec.batch(items.len());
        for res in conc.insert_batch(&items) {
            ec.insert(None, &res);
        }
    }
    // Present and absent keys, singly and in 32-key batches.
    let probes: Vec<u64> = keys.iter().map(|&k| k + (k & 1) * 1_000).collect();
    for k in &probes[..100] {
        es.lookup(shard(k), sharded.get(k).is_some());
        ec.lookup(None, conc.get(k).is_some());
    }
    for chunk in probes.chunks(32) {
        es.sharded_batch(sharded, chunk);
        for (got, k) in sharded.lookup_batch(chunk).iter().zip(chunk) {
            es.lookup(shard(k), got.is_some());
        }
        ec.batch(chunk.len());
        for got in conc.get_batch(chunk) {
            ec.lookup(None, got.is_some());
        }
    }
    if !lookups_only {
        for k in probes[..60].iter().step_by(2) {
            es.remove(shard(k), sharded.remove(k).is_some());
            ec.remove(None, conc.remove(k).is_some());
        }
        let gone = &probes[100..200];
        es.sharded_batch(sharded, gone);
        for (got, k) in sharded.remove_batch(gone).iter().zip(gone) {
            es.remove(shard(k), got.is_some());
        }
        ec.batch(gone.len());
        for got in conc.remove_batch(gone) {
            ec.remove(None, got.is_some());
        }
    }
    (es, ec)
}

/// `STRIPED_THREADS` threads per round, each exiting at the round's end,
/// so the next round's threads reclaim released stripe ids. Returns the
/// summed expectations.
fn striped_round(
    sharded: &ShardedMcCuckoo<u64, u64>,
    conc: &ConcurrentMcCuckoo<u64, u64>,
    round: u64,
    lookups_only: bool,
) -> (Expect, Expect) {
    let start = &std::sync::Barrier::new(STRIPED_THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..STRIPED_THREADS as u64)
            .map(|t| {
                let id = round * STRIPED_THREADS as u64 + t;
                scope.spawn(move || striped_mix(sharded, conc, id, lookups_only, start))
            })
            .collect();
        let (mut es, mut ec) = (Expect::default(), Expect::default());
        // Joined explicitly: a joined thread has run its thread-local
        // destructors, so its stripe id is free for the next round.
        for h in handles {
            let (s, c) = h.join().unwrap();
            es.merge(&s);
            ec.merge(&c);
        }
        (es, ec)
    })
}

/// The recorder's counts are exact, not sampled: with more threads than
/// stripes, threads exiting and new ones reclaiming their ids, every
/// counter and histogram of both served tables equals the sum of what
/// the threads issued, in aggregate and per shard, and the lookup reads
/// `mem_stats` derives from the stripes match the probe histogram.
#[test]
fn striped_counts_are_exact_across_threads_and_reclaimed_stripes() {
    let sharded = ShardedMcCuckoo::new(4, McConfig::paper(2_048, 91));
    let conc = ConcurrentMcCuckoo::new(McConfig::paper(8_192, 92));
    let (mut es, mut ec) = (Expect::default(), Expect::default());
    for round in 0..3 {
        let (s, c) = striped_round(&sharded, &conc, round, false);
        es.merge(&s);
        ec.merge(&c);
    }
    let fresh_attempts = |o: &OpStats| o.inserts + o.failed_inserts;
    let lookups = |o: &OpStats| o.lookup_hits + o.lookup_misses;
    let no_kicks = |o: OpStats| OpStats { kicks: 0, ..o };
    let check = |name: &str, s: &TableStats, e: &Expect| {
        assert_eq!(no_kicks(s.ops), e.ops, "{name}: op counters");
        assert_eq!(s.batch_hist, e.batch_hist, "{name}: batch sizes");
        assert_eq!(s.probe_hist.count, lookups(&e.ops), "{name}: probe samples");
        assert_eq!(s.kick_hist.count, fresh_attempts(&e.ops), "{name}: walks");
        assert_eq!(s.kick_hist.sum, s.ops.kicks, "{name}: kicks");
    };
    let s = sharded.stats();
    check("sharded", &s, &es);
    assert_eq!(s.shards.len(), es.shard_ops.len());
    for (shard, want) in s.shards.iter().zip(&es.shard_ops) {
        assert_eq!(no_kicks(shard.ops), *want, "shard {}", shard.shard);
    }
    check("concurrent", &conc.stats(), &ec);

    // A read-only round: the meters' reads grow by exactly the probes and
    // `d` = 3 counter reads per lookup the recorders summed, and nothing
    // else moves.
    let m0 = (sharded.mem_stats(), conc.mem_stats());
    let p0 = (sharded.stats().probe_hist, conc.stats().probe_hist);
    let (s, c) = striped_round(&sharded, &conc, 3, true);
    for (name, m0, m1, p0, p1, e) in [
        (
            "sharded",
            m0.0,
            sharded.mem_stats(),
            &p0.0,
            sharded.stats().probe_hist,
            &s,
        ),
        (
            "concurrent",
            m0.1,
            conc.mem_stats(),
            &p0.1,
            conc.stats().probe_hist,
            &c,
        ),
    ] {
        let n = lookups(&e.ops);
        assert_eq!(p1.count - p0.count, n, "{name}: lookups recorded");
        let want = mem_model::MemStats {
            offchip_reads: p1.sum - p0.sum,
            onchip_reads: 3 * n,
            ..mem_model::MemStats::default()
        };
        assert_eq!(m1 - m0, want, "{name}: derived lookup reads");
    }
}

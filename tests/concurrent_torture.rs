//! Concurrency torture suite for the seqlock-reader, locked-writer tables.
//!
//! Many seeded iterations; in each one, N writer threads hammer
//! **overlapping** key ranges of one table while M reader threads
//! continuously probe it. Because writers overlap, no per-key final
//! value is decidable — but the *allowed-value set* is: every value a
//! reader (or the post-run sweep) observes under key `k` must be one
//! some writer's deterministic op stream actually wrote to `k`, or
//! absent. Any other observation is a torn read, a lost update
//! surfacing a foreign value, or a resurrection — all bugs.
//!
//! Post-run, the table's invariant validator runs and the obs counters
//! are reconciled against the issued-op tallies: the identities must
//! hold under every interleaving, not just sequential runs.
//!
//! Replay: every iteration derives from `(base_seed, iter)`. A failure
//! prints the exact `MCC_TORTURE_SEED` / `MCC_TORTURE_ITERS` pair to
//! re-run just that schedule; the writer op streams are plain testkit
//! `gen_ops` sequences, so a failing iteration can be fed back through
//! the testkit shrinker.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};

use hash_kit::SplitMix64;
use mccuckoo_core::{ConcurrentMcCuckoo, McConfig, ShardedMcCuckoo};
use mccuckoo_testkit::{gen_ops, MixProfile, TableOp};

const WRITERS: usize = 3;
const READERS: usize = 2;
const OPS_PER_WRITER: usize = 250;
/// Writers share this whole domain — every key is contended.
const KEY_DOMAIN: u64 = 48;

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => {
            let v = v.trim();
            let parsed = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("{name} must be an integer, got {v:?}"))
        }
        Err(_) => default,
    }
}

/// Per-writer deterministic schedule, derived from the iteration seed.
fn writer_ops(iter_seed: u64, tid: usize) -> Vec<TableOp> {
    gen_ops(
        iter_seed.wrapping_add((tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        MixProfile::Contended,
        OPS_PER_WRITER,
        KEY_DOMAIN,
    )
}

/// The allowed-value oracle: for each key, every value ANY writer's
/// stream could store there. A superset of reachable states (an insert
/// may fail, an InsertNew may be downgraded), which is exactly what
/// membership assertions need.
fn allowed_values(iter_seed: u64) -> HashMap<u64, HashSet<u64>> {
    let mut allowed: HashMap<u64, HashSet<u64>> = HashMap::new();
    for tid in 0..WRITERS {
        for op in writer_ops(iter_seed, tid) {
            match op {
                TableOp::Insert(k, v) | TableOp::InsertNew(k, v) => {
                    allowed.entry(key_of(k, tid)).or_default().insert(v);
                }
                _ => {}
            }
        }
    }
    allowed
}

/// Overlapping ranges: writers 0 and 1 share the low half of the
/// domain verbatim, writer 2 is shifted by a quarter — every key has at
/// least two writers racing on it somewhere in the run.
fn key_of(generated: u64, tid: usize) -> u64 {
    match tid {
        0 | 1 => generated,
        _ => (generated + KEY_DOMAIN / 4) % KEY_DOMAIN,
    }
}

/// Issued-op tallies, summed across threads and reconciled against the
/// table's own obs counters after the run.
#[derive(Default, Clone, Copy)]
struct Tally {
    insert_attempts: u64,
    lookups: u64,
    removes_hit: u64,
    removes_miss: u64,
}

/// One torture iteration against any table exposing the shared op
/// surface. Returns the summed tally (including reader lookups).
fn torture_once<T>(table: &T, iter_seed: u64, label: &str) -> Tally
where
    T: TortureTable + Sync,
{
    let allowed = allowed_values(iter_seed);
    let stop = AtomicBool::new(false);
    let ctx = |detail: &str| {
        format!(
            "{label}: {detail}\n\
             replay: MCC_TORTURE_SEED={iter_seed:#x} MCC_TORTURE_ITERS=1 \
             cargo test --test concurrent_torture"
        )
    };

    let tally = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for tid in 0..WRITERS {
            let allowed = &allowed;
            let ctx = &ctx;
            handles.push(scope.spawn(move || {
                let mut tl = Tally::default();
                for op in writer_ops(iter_seed, tid) {
                    match op {
                        TableOp::Insert(k, v) | TableOp::InsertNew(k, v) => {
                            // InsertNew downgrades to upsert: with
                            // overlapping writers "believed absent" is
                            // undecidable, and the allowed-set already
                            // contains the value either way.
                            tl.insert_attempts += 1;
                            let _ = table.upsert(key_of(k, tid), v);
                        }
                        TableOp::Get(k) | TableOp::Contains(k) => {
                            let k = key_of(k, tid);
                            tl.lookups += 1;
                            if let Some(v) = table.lookup(&k) {
                                assert!(
                                    allowed.get(&k).is_some_and(|s| s.contains(&v)),
                                    "{}",
                                    ctx(&format!(
                                        "writer {tid} read foreign value {v} under key {k}"
                                    ))
                                );
                            }
                        }
                        TableOp::Remove(k) => {
                            if table.delete(&key_of(k, tid)).is_some() {
                                tl.removes_hit += 1;
                            } else {
                                tl.removes_miss += 1;
                            }
                        }
                        TableOp::Clear | TableOp::RefreshStash => {
                            unreachable!("Contended never emits these")
                        }
                    }
                }
                tl
            }));
        }
        for rid in 0..READERS {
            let stop = &stop;
            let allowed = &allowed;
            let ctx = &ctx;
            handles.push(scope.spawn(move || {
                let mut tl = Tally::default();
                let mut rng = SplitMix64::new(iter_seed ^ (0xBEEF + rid as u64));
                while !stop.load(Ordering::Acquire) {
                    let k = rng.next_below(KEY_DOMAIN);
                    tl.lookups += 1;
                    if let Some(v) = table.lookup(&k) {
                        assert!(
                            allowed.get(&k).is_some_and(|s| s.contains(&v)),
                            "{}",
                            ctx(&format!(
                                "reader {rid} read foreign value {v} under key {k}"
                            ))
                        );
                    }
                }
                tl
            }));
        }
        // Writers are the first WRITERS handles; once the last one has
        // joined, release the readers. A panicking thread re-raises its
        // own assertion message (which carries the replay line).
        let mut sum = Tally::default();
        for (i, h) in handles.into_iter().enumerate() {
            let tl = match h.join() {
                Ok(tl) => tl,
                Err(e) => {
                    stop.store(true, Ordering::Release);
                    std::panic::resume_unwind(e);
                }
            };
            sum.insert_attempts += tl.insert_attempts;
            sum.lookups += tl.lookups;
            sum.removes_hit += tl.removes_hit;
            sum.removes_miss += tl.removes_miss;
            if i == WRITERS - 1 {
                stop.store(true, Ordering::Release);
            }
        }
        sum
    });

    // Post-run: the table settles into SOME serializable history — every
    // surviving value must be one a writer wrote.
    let mut tally = tally;
    for k in 0..KEY_DOMAIN {
        tally.lookups += 1;
        if let Some(v) = table.lookup(&k) {
            assert!(
                allowed.get(&k).is_some_and(|s| s.contains(&v)),
                "{}",
                ctx(&format!(
                    "post-run sweep found foreign value {v} under key {k}"
                ))
            );
        }
    }
    table
        .validate()
        .unwrap_or_else(|e| panic!("{}", ctx(&format!("invariants violated: {e}"))));
    tally
}

/// Reconcile the table's obs counters against the issued-op tally.
fn reconcile(stats: mccuckoo_core::TableStats, tally: Tally, iter_seed: u64, label: &str) {
    let attempts = stats.ops.inserts + stats.ops.updates + stats.ops.failed_inserts;
    assert_eq!(
        attempts, tally.insert_attempts,
        "{label} seed {iter_seed:#x}: insert attempts"
    );
    assert_eq!(
        stats.ops.lookup_hits + stats.ops.lookup_misses,
        tally.lookups,
        "{label} seed {iter_seed:#x}: lookups"
    );
    assert_eq!(
        stats.probe_hist.count, tally.lookups,
        "{label} seed {iter_seed:#x}: probe histogram"
    );
    assert_eq!(
        stats.ops.removes, tally.removes_hit,
        "{label} seed {iter_seed:#x}: removes"
    );
    assert_eq!(
        stats.ops.remove_misses, tally.removes_miss,
        "{label} seed {iter_seed:#x}: remove misses"
    );
    assert_eq!(
        stats.kick_hist.count,
        stats.ops.inserts + stats.ops.failed_inserts,
        "{label} seed {iter_seed:#x}: kick histogram counts fresh attempts only"
    );
}

/// Minimal op surface shared by the two tables under torture.
trait TortureTable {
    fn upsert(&self, k: u64, v: u64) -> Result<bool, (u64, u64)>;
    fn lookup(&self, k: &u64) -> Option<u64>;
    fn delete(&self, k: &u64) -> Option<u64>;
    fn validate(&self) -> Result<(), String>;
}

impl TortureTable for ConcurrentMcCuckoo<u64, u64> {
    fn upsert(&self, k: u64, v: u64) -> Result<bool, (u64, u64)> {
        self.insert(k, v)
    }
    fn lookup(&self, k: &u64) -> Option<u64> {
        self.get(k)
    }
    fn delete(&self, k: &u64) -> Option<u64> {
        self.remove(k)
    }
    fn validate(&self) -> Result<(), String> {
        self.check_invariants()
    }
}

impl TortureTable for ShardedMcCuckoo<u64, u64> {
    fn upsert(&self, k: u64, v: u64) -> Result<bool, (u64, u64)> {
        self.insert(k, v)
    }
    fn lookup(&self, k: &u64) -> Option<u64> {
        self.get(k)
    }
    fn delete(&self, k: &u64) -> Option<u64> {
        self.remove(k)
    }
    fn validate(&self) -> Result<(), String> {
        self.check_invariants()
    }
}

fn iteration_seeds(test_salt: u64) -> impl Iterator<Item = (u64, u64)> {
    let base = env_u64("MCC_TORTURE_SEED", 0x7047_u64);
    let iters = env_u64("MCC_TORTURE_ITERS", 600);
    let mut rng = SplitMix64::new(base ^ test_salt);
    (0..iters).map(move |i| {
        // When replaying a single schedule, the seed IS the schedule.
        if iters == 1 {
            (i, base)
        } else {
            (i, rng.next_u64())
        }
    })
}

#[test]
fn torture_concurrent_table() {
    for (_, iter_seed) in iteration_seeds(0) {
        let t = ConcurrentMcCuckoo::<u64, u64>::new(McConfig::paper(64, iter_seed));
        let tally = torture_once(&t, iter_seed, "concurrent");
        reconcile(t.stats(), tally, iter_seed, "concurrent");
    }
}

#[test]
fn torture_sharded_table() {
    for (_, iter_seed) in iteration_seeds(1) {
        let t = ShardedMcCuckoo::<u64, u64>::new(4, McConfig::paper(32, iter_seed));
        let tally = torture_once(&t, iter_seed, "sharded");
        reconcile(t.stats(), tally, iter_seed, "sharded");
    }
}

//! Sharded multi-writer serving layer over [`ConcurrentMcCuckoo`], with
//! incremental, reader-live growth.
//!
//! [`ConcurrentMcCuckoo`] (§III.H) runs one writer at a time per table
//! (MemC3's scheme: one writer lock, lock-free seqlock readers).
//! [`ShardedMcCuckoo`] is the write-parallelism mechanism: it partitions
//! the key space across `S` **independent** concurrent tables (shards),
//! so writers on different shards share *nothing* — not even a writer
//! lock or a stats cacheline (each shard is padded to its own cacheline
//! pair) — while reads stay lock-free everywhere.
//!
//! **Shard selection.** A key's *route* is the top `DIR_BITS` bits of
//! a seeded 64-bit digest ([`hash_kit::KeyHash::hash_seeded`]) computed
//! with a dedicated selector salt; a fixed 256-entry **route directory**
//! maps the route to its serving table. Two properties matter:
//!
//! * the selector digest is *independent* of the in-shard bucket hashes
//!   (different seed stream), so conditioning on "key landed in shard s"
//!   does not bias its candidate buckets — each shard behaves exactly
//!   like a stand-alone McCuckoo table at `1/S` of the key volume, and
//!   the load guarantees of choice hashing survive partitioning (cf.
//!   Dietzfelbinger–Mitzenmacher–Rink, *Cuckoo Hashing with Pages*);
//! * taking the **top** bits leaves the low bits untouched for
//!   power-of-two reductions downstream, avoiding bit reuse between the
//!   selector and any hash that folds by `& (n - 1)`.
//!
//! **Incremental growth** (the paper's "costly remedy", §I/§II.B, made a
//! non-event). [`ShardedMcCuckoo::begin_split`] doubles one shard
//! logically: because routing is a prefix of the selector digest, the
//! split target is deterministic — keys whose next selector bit is 1
//! move to a freshly allocated sibling table. The split
//!
//! 1. publishes the child table and flips the child's slice of the route
//!    directory to `(child, forward → parent)` — from this instant every
//!    *new* write for that slice lands in the child;
//! 2. drains the parent in ascending bucket order through
//!    [`ConcurrentMcCuckoo`]'s `migrate_out`: each key is re-read under
//!    the parent's writer lock, copied into the child, and only then
//!    removed, so **readers never block and never miss** — a key is
//!    always findable on at least one side, and the forwarding entry
//!    tells lookups to probe the parent as fallback;
//! 3. clears the forwarding bits once a full drain pass moves nothing,
//!    completing the split. A migrator that dies mid-drain leaves the
//!    forwarding map up — the table stays fully consistent (just with
//!    two-sided lookups for that slice) and a later `begin_split` of the
//!    same shard *resumes* the drain.
//!
//! A route's directory entry changes only under the writer lock that its
//! writes check it under: the parent's, for both the flip and the
//! forwarding retirement. A write re-checks its entry once, under that
//! lock, and retries on the new entry if a flip got there first; past
//! the check it lands where the key is served and its result is final,
//! so the linearizable contract of the single-table API survives
//! migration.
//!
//! **Per-shard state.** Each shard owns its complete McCuckoo state:
//! cells, the on-chip copy-counter array, seqlock versions and its own
//! writer lock, built from a per-shard seed derived from the
//! master seed by a [`SplitMix64`] stream (split children derive theirs
//! from their route prefix, so recovery replays reproduce them).
//! Counters never refer across shards, so ordinary operations touch
//! exactly one shard. Only a split's drain and the writes behind its
//! forwarding entries hold two tables' locks at once, and every lock is
//! taken in one order: the split lock, then the parent's writer lock,
//! then the child's (a child's id is above its parent's, so no cycle can
//! form).
//! The only global value is `len()`, a sum of per-shard atomic counts
//! (racy reads of it are as linearizable as any size estimate under
//! concurrent writers; mid-drain it may transiently double-count the
//! one in-flight key).
//!
//! **Batching.** The batched writes group a caller's operations by
//! serving table and run one pipeline in shard order, taking a shard's
//! writer lock **once per batch**. Each item finishes in stage 2, with
//! its write: it checks its directory entry under its shard's writer
//! lock, where the entry cannot move, and is tallied for its shard, or
//! joins a redo list if a split flipped the route first. Only the redos
//! and the keys behind an active forwarding entry take the per-key
//! routed path, with no lock held. Batched lookups do not group: stage 1
//! routes each key on its own directory load, and stage 2 probes in
//! caller order, redoing through [`ShardedMcCuckoo::get`] only a miss
//! whose entry moved, or a key behind a forwarding entry.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use hash_kit::{KeyHash, SplitMix64};
use jsonlite::{FromJson, Json, JsonError, ToJson};
use mem_model::{InsertOutcome, InsertReport};
use parking_lot::Mutex;

use crate::concurrent::{
    read_pipeline, write_pipeline, ConcurrentMcCuckoo, MigrateOutcome, Writer,
};
use crate::config::McConfig;
use crate::obs::{self, MaintObs, MigrationObs, Obs, Recorder, ShardStats, TableStats};
use crate::pad::CachePadded;
use crate::persist::{field, SnapshotOverflow};
use crate::store::Word;

/// Decorrelates the shard selector from every table-level hash seed.
const SELECTOR_SALT: u64 = 0x5AA2_D1CE_C7ED_BA5E;

/// Derives per-shard master seeds from the configured seed.
const SHARD_SEED_SALT: u64 = 0x51A8_DED5_EED5_7A2B;

/// Derives split-child seeds from the configured seed and the child's
/// route prefix, so an op-log replay rebuilds identical children.
const SPLIT_SEED_SALT: u64 = 0x5F17_C81D_5EED_F00D;

/// Width of the route directory index (top bits of the selector digest).
const DIR_BITS: u32 = 8;

/// Entries in the route directory — also the hard ceiling on the total
/// number of tables a sharded map can grow to.
const DIR_SIZE: usize = 1 << DIR_BITS;

/// Pack a directory entry: low 16 bits the serving table id, bits 16..32
/// the forwarding parent id plus one (0 = no forwarding).
#[inline]
fn encode_entry(tid: usize, fwd: Option<usize>) -> u64 {
    debug_assert!(tid < DIR_SIZE);
    tid as u64 | ((fwd.map_or(0, |f| f as u64 + 1)) << 16)
}

/// Unpack a directory entry into `(serving table, forwarding parent)`.
#[inline]
fn decode_entry(e: u64) -> (usize, Option<usize>) {
    let tid = (e & 0xFFFF) as usize;
    let f = ((e >> 16) & 0xFFFF) as usize;
    (tid, if f == 0 { None } else { Some(f - 1) })
}

/// One slot of the grow-only table arena. The table is set once, before
/// any directory entry (or the table count) names the slot, so a reader
/// that reaches the slot through either finds it set. Boxed, so an
/// unused slot costs one pointer. A table's route slice lives in the
/// directory alone.
type Slot<K, V> = OnceLock<Box<CachePadded<ConcurrentMcCuckoo<K, V>>>>;

/// Why [`ShardedMcCuckoo::begin_split`] refused to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitError {
    /// The shard id is not a live table.
    UnknownShard {
        /// The requested shard id.
        shard: usize,
        /// How many tables are live.
        tables: usize,
    },
    /// The shard's route prefix is down to a single directory entry, so
    /// the directory cannot tell its children apart any more.
    DepthExhausted {
        /// The shard whose prefix cannot narrow further.
        shard: usize,
    },
    /// Every one of the directory's 256 table slots is live, so no shard
    /// can allocate a split child any more. The table keeps serving —
    /// growth has simply reached the directory's hard ceiling.
    DirectoryFull {
        /// The shard that asked to split.
        shard: usize,
    },
    /// The shard is itself the still-filling child of an unfinished
    /// split; resume by splitting its parent again.
    PendingInbound {
        /// The requested shard id.
        shard: usize,
        /// The parent whose drain toward `shard` is unfinished.
        parent: usize,
    },
}

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitError::UnknownShard { shard, tables } => {
                write!(f, "shard {shard} does not exist ({tables} live tables)")
            }
            SplitError::DepthExhausted { shard } => write!(
                f,
                "shard {shard} owns a single route entry and cannot split further"
            ),
            SplitError::DirectoryFull { shard } => write!(
                f,
                "shard {shard} cannot split: all {DIR_SIZE} directory table slots are live"
            ),
            SplitError::PendingInbound { shard, parent } => write!(
                f,
                "shard {shard} is still being filled by an unfinished split; \
                 resume via begin_split({parent})"
            ),
        }
    }
}

impl std::error::Error for SplitError {}

/// What one [`ShardedMcCuckoo::begin_split`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitReport {
    /// The shard that was drained.
    pub parent: usize,
    /// The sibling table that received the moved keys.
    pub child: usize,
    /// `true` when this call resumed a previously interrupted drain
    /// instead of allocating a fresh child.
    pub resumed: bool,
    /// Keys moved parent → child.
    pub moved: u64,
    /// Drain visits that found the key already gone (raced by a
    /// concurrent remove, a forwarded upsert's stale-copy eviction, or a
    /// previous interrupted drain).
    pub skipped: u64,
    /// Keys whose child placement overflowed, each counted once (the key
    /// stays in the parent, served through the retained forwarding
    /// entry, unless a later pass of the drain moved it).
    pub failed: u64,
    /// `true` when the drain fully emptied the migrating slice and the
    /// forwarding entries were cleared (the split is complete).
    pub forwarding_cleared: bool,
}

/// What one [`ShardedMcCuckoo::retire_forwarding`] pass did: every live
/// `(child, parent)` forwarding pair was re-drained, and pairs whose
/// drain fully emptied had their forwarding entries cleared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetireReport {
    /// Distinct forwarding pairs the pass re-drained.
    pub attempted: usize,
    /// Pairs whose forwarding entries were cleared (drain emptied).
    pub retired: usize,
    /// Keys moved parent → child across all pairs.
    pub moved: u64,
    /// Drain visits that found the key already gone.
    pub skipped: u64,
    /// Keys whose child placement overflowed again, each counted once
    /// per pair (those pairs keep their forwarding entries for a later
    /// pass).
    pub failed: u64,
    /// Directory entries still carrying a forwarding tag after the pass
    /// (0 means every split is fully retired).
    pub forwarding_live: usize,
}

/// N-way sharded, multi-writer multi-copy cuckoo table with incremental
/// shard-split growth.
///
/// ```
/// use mccuckoo_core::{McConfig, ShardedMcCuckoo};
/// use std::sync::Arc;
///
/// // 4 shards × (3 × 256) buckets; writers on different shards run in
/// // parallel, readers are lock-free everywhere.
/// let t = Arc::new(ShardedMcCuckoo::<u64, u64>::new(4, McConfig::paper(256, 7)));
/// let results = t.insert_batch(&[(1, 10), (2, 20), (3, 30)]);
/// assert!(results.iter().all(|r| r.is_ok()));
/// assert_eq!(t.lookup_batch(&[2, 99]), vec![Some(20), None]);
/// assert_eq!(t.remove(&1), Some(10));
///
/// // Grow one shard without stopping the world: readers keep serving
/// // through the whole drain.
/// let report = t.begin_split(0).unwrap();
/// assert!(report.forwarding_cleared);
/// assert_eq!(t.shard_count(), 5);
/// assert_eq!(t.get(&2), Some(20));
/// ```
pub struct ShardedMcCuckoo<K, V> {
    /// Route directory: `dir[route]` packs the serving table id and the
    /// optional forwarding parent (see [`encode_entry`]).
    dir: Box<[AtomicU64]>,
    /// Grow-only arena of table slots; ids `0..ntables` are live. Each
    /// table is padded to its own cacheline pair, so neighbouring
    /// shards' hot atomics never false-share under multi-writer load.
    slots: Box<[Slot<K, V>]>,
    /// How many arena slots are live (monotonic; grows on split).
    ntables: AtomicUsize,
    /// The shard count the table was built with (snapshot geometry).
    base_shards: usize,
    select_seed: u64,
    /// The master configuration (pre-derivation seed), retained so
    /// snapshots can rebuild an identically-routed table.
    config: McConfig,
    /// Sharded-level observability: records caller-level batch sizes;
    /// op counters live in the shards and are merged by [`Self::stats`].
    obs: Obs,
    /// Split-migration counters (keys moved, forwarding hits, split
    /// durations).
    migration: MigrationObs,
    /// Maintenance counters (retirements, compactions, snapshot age);
    /// the maintenance loop in [`crate::maint`] records into this so
    /// [`Self::stats`] exposes the whole loop.
    maint: MaintObs,
    /// Parent ids of every completed-or-started split, in allocation
    /// order (guarded by `split_lock`). Snapshots persist this history
    /// so a restore reproduces the grown layout even after the op log's
    /// `Split` records have been compacted away.
    splits: Mutex<Vec<usize>>,
    /// Serialises splits (and `clear`) — one drain at a time.
    split_lock: Mutex<()>,
}

impl<K, V> ShardedMcCuckoo<K, V>
where
    K: KeyHash + Eq + Word,
    V: Word,
{
    /// Build `shards` independent [`ConcurrentMcCuckoo`] shards, each
    /// sized by `config` (total capacity is `shards × d ×
    /// buckets_per_table`). Shard hash seeds are derived from
    /// `config.seed`, so equal configurations build identical tables.
    ///
    /// # Panics
    /// Panics if `shards` is zero, not a power of two (the selector is a
    /// bit slice), or larger than the route directory (256 entries).
    pub fn new(shards: usize, config: McConfig) -> Self {
        check_shards(shards).unwrap_or_else(|e| panic!("{e}"));
        let base_bits = shards.trailing_zeros();
        let mut seeds = SplitMix64::new(config.seed ^ SHARD_SEED_SALT);
        let slots: Box<[Slot<K, V>]> = (0..DIR_SIZE)
            .map(|s| {
                if s >= shards {
                    return OnceLock::new();
                }
                let mut shard_config = config.clone();
                shard_config.seed = seeds.next_u64();
                OnceLock::from(Box::new(CachePadded::new(ConcurrentMcCuckoo::new(
                    shard_config,
                ))))
            })
            .collect();
        let dir: Box<[AtomicU64]> = (0..DIR_SIZE)
            .map(|r| AtomicU64::new(encode_entry(r >> (DIR_BITS - base_bits), None)))
            .collect();
        Self {
            dir,
            slots,
            ntables: AtomicUsize::new(shards),
            base_shards: shards,
            select_seed: config.seed ^ SELECTOR_SALT,
            config,
            obs: Obs::default(),
            migration: MigrationObs::default(),
            maint: MaintObs::default(),
            splits: Mutex::new(Vec::new()),
            split_lock: Mutex::new(()),
        }
    }

    /// The master configuration this table was built from.
    pub fn config(&self) -> &McConfig {
        &self.config
    }

    /// Number of live tables (grows by one per completed-or-started
    /// split; starts at the constructor's shard count).
    pub fn shard_count(&self) -> usize {
        self.ntables.load(Ordering::Acquire)
    }

    /// One shard by id, for per-shard inspection (occupancy skew, direct
    /// shard handles for dedicated writer threads).
    ///
    /// # Panics
    /// Panics if `id` is not a live table id.
    pub fn shard(&self, id: usize) -> &ConcurrentMcCuckoo<K, V> {
        let n = self.shard_count();
        assert!(id < n, "shard {id} out of range ({n} live tables)");
        self.table(id)
    }

    /// The directory index (top `DIR_BITS` selector bits) of `key`.
    #[inline]
    fn route_of(&self, key: &K) -> usize {
        (key.hash_seeded(self.select_seed) >> (64 - DIR_BITS)) as usize
    }

    /// Which shard currently serves `key`. Mid-split this is the child
    /// the key is migrating *to*; the in-flight copy may still be in the
    /// forwarding parent.
    #[inline]
    pub fn shard_of(&self, key: &K) -> usize {
        decode_entry(self.dir[self.route_of(key)].load(Ordering::Acquire)).0
    }

    /// The table behind arena slot `tid`.
    #[inline]
    fn table(&self, tid: usize) -> &CachePadded<ConcurrentMcCuckoo<K, V>> {
        self.slots[tid].get().expect("table read before publish")
    }

    /// Decoded directory entry for `route`.
    #[inline]
    fn entry(&self, route: usize) -> (usize, Option<usize>) {
        decode_entry(self.dir[route].load(Ordering::Acquire))
    }

    /// Distinct keys stored across all shards.
    pub fn len(&self) -> usize {
        (0..self.shard_count()).map(|t| self.table(t).len()).sum()
    }

    /// True if every shard is empty.
    pub fn is_empty(&self) -> bool {
        (0..self.shard_count()).all(|t| self.table(t).is_empty())
    }

    /// Total bucket count across all shards.
    pub fn capacity(&self) -> usize {
        (0..self.shard_count())
            .map(|t| self.table(t).capacity())
            .sum()
    }

    /// Observability snapshot: aggregate op counters and histograms
    /// merged across every shard (plus the caller-level batch sizes and
    /// migration counters recorded at this layer), with a per-shard
    /// breakdown in [`TableStats::shards`] for occupancy-skew and
    /// hot-shard detection. Counters are monotonic; [`Self::clear`] does
    /// not reset them.
    pub fn stats(&self) -> TableStats {
        let mut agg = self.obs.snapshot();
        // Every shard is built from the same master config, so the
        // policy label is uniform across the breakdown.
        agg.kick_policy = self.config.kick.label().to_string();
        agg.migration = self.migration.snapshot();
        agg.maint = self.maint.snapshot();
        agg.maint.forwarding_live = self.forwarding_live() as u64;
        for t in 0..self.shard_count() {
            let table = self.table(t);
            let s = table.stats();
            agg.merge(&s);
            agg.shards.push(ShardStats {
                shard: t,
                len: table.len(),
                capacity: table.capacity(),
                ops: s.ops,
            });
        }
        agg
    }

    /// Table-owned memory in bytes: every live table's
    /// [`ConcurrentMcCuckoo::mem_bytes`] (slot records and counter
    /// words) plus the route directory.
    pub fn mem_bytes(&self) -> usize {
        let tables: usize = (0..self.shard_count())
            .map(|t| self.table(t).mem_bytes())
            .sum();
        tables + std::mem::size_of_val(&*self.dir)
    }

    /// Aggregate memory-access tallies: the sum of every shard's
    /// [`ConcurrentMcCuckoo::mem_stats`] snapshot, so reads are derived
    /// from the lookups each shard recorded. A forwarded lookup counts
    /// its probes on both sides, and `d` counter reads, once, at the
    /// shard that records it; a probe discarded for a redo is not
    /// counted. Safe under concurrent readers and writers (it takes each
    /// shard's writer lock in turn, never two at once); the sum is as
    /// linearizable as any live multi-writer statistic.
    pub fn mem_stats(&self) -> mem_model::MemStats {
        let mut agg = mem_model::MemStats::default();
        for t in 0..self.shard_count() {
            agg += self.table(t).mem_stats();
        }
        agg
    }

    // ------------------------------------------------------------------
    // Routed op engines (shared by the single-op, batched, and recovery
    // paths; unrecorded unless named so — each public op records once)
    // ------------------------------------------------------------------

    /// The one routed write path: run `op(writer, parent)` on `route`'s
    /// serving table under its writer lock — nested inside the forwarding
    /// parent's (`parent` is its writer) while the route forwards — once
    /// the directory entry still reads as it did before the locks were
    /// taken; otherwise retry on the new entry. Returns `op`'s result and
    /// the serving table it ran on.
    ///
    /// A route's entry changes only under the writer lock its writes
    /// check it under: `begin_split` flips a slice under the parent's,
    /// and `clear_forwarding` retires it under the forwarding parent's.
    /// So a write that passes the check lands only where the key is
    /// served, and its result is final.
    fn write_routed<R>(
        &self,
        route: usize,
        mut op: impl FnMut(&mut Writer<K, V>, Option<&mut Writer<K, V>>) -> R,
    ) -> (R, usize) {
        loop {
            let snap = self.dir[route].load(Ordering::Acquire);
            #[cfg(feature = "testhooks")]
            crate::testhooks::reach(crate::testhooks::Point::RouteSnapshot);
            let (tid, fwd) = decode_entry(snap);
            let current = || self.dir[route].load(Ordering::Acquire) == snap;
            let out = match fwd {
                None => self.table(tid).write(|w| current().then(|| op(w, None))),
                Some(parent) => {
                    self.migration.record_forwarding_hit();
                    self.table(parent).write(|pw| {
                        self.table(tid)
                            .write(|w| current().then(|| op(w, Some(pw))))
                    })
                }
            };
            if let Some(out) = out {
                return (out, tid);
            }
        }
    }

    /// Routed removal. Returns the removed value and the serving table.
    /// Under the parent's writer lock the drain cannot move the key, so
    /// parent and child together hold it at most once.
    fn remove_routed(&self, route: usize, key: &K) -> (Option<V>, usize) {
        self.write_routed(route, |w, parent| {
            let pv = parent.and_then(|pw| pw.remove_unrecorded(key));
            w.remove_unrecorded(key).or(pv)
        })
    }

    /// Routed upsert. Returns the engine's report and the serving table.
    /// Behind a forwarding entry the op is an update iff parent or child
    /// holds the key (at most one does, as in [`Self::remove_routed`]).
    fn upsert_routed(
        &self,
        route: usize,
        key: K,
        value: V,
    ) -> (Result<InsertReport, (K, V)>, usize) {
        self.write_routed(route, |w, parent| {
            match (w.insert_unrecorded(key, value), parent) {
                (out, None) => out.map_err(|full| full.evicted),
                // Birth in the child, then evict the stale parent copy.
                (Ok(mut rep), Some(pw)) => {
                    if pw.remove_unrecorded(&key).is_some() {
                        rep.outcome = InsertOutcome::Updated;
                    }
                    Ok(rep)
                }
                // Child full (so it has no copy): rewrite the parent's
                // copy in place, if there is one.
                (Err(full), Some(pw)) => {
                    let cands = pw.candidate_buckets(&key);
                    match pw.try_update(&key, &value, &cands) {
                        Some(_) => Ok(InsertReport::updated(0)),
                        None => Err(full.evicted),
                    }
                }
            }
        })
    }

    /// [`Self::upsert_routed`], recorded once against the serving table.
    fn upsert_recorded(&self, route: usize, key: K, value: V) -> Result<InsertReport, (K, V)> {
        let (out, tid) = self.upsert_routed(route, key, value);
        self.table(tid)
            .obs()
            .record_insert(out.as_ref().unwrap_or(&InsertReport::failed()));
        out
    }

    // ------------------------------------------------------------------
    // Single-op API (mirrors `ConcurrentMcCuckoo`)
    // ------------------------------------------------------------------

    /// Lock-free lookup in the key's shard (both sides mid-split),
    /// recorded once, with the probes of its final pass, against the
    /// serving table at the linearization point.
    ///
    /// Finality: a **hit** is final (the value was live at some instant
    /// inside the call). A **miss** is final only if the directory entry
    /// did not change underneath the probe — otherwise the key may have
    /// been mid-migration and the probe retries on the new entry.
    pub fn get(&self, key: &K) -> Option<V> {
        let route = self.route_of(key);
        loop {
            let snap = self.dir[route].load(Ordering::Acquire);
            let (tid, fwd) = decode_entry(snap);
            let (found, probes) = match fwd {
                None => self.table(tid).get_unrecorded(key),
                Some(parent) => {
                    self.migration.record_forwarding_hit();
                    // Parent first: the drain inserts into the child
                    // *before* removing from the parent, so a key absent
                    // from the parent is either in the child or nowhere.
                    let (pv, pp) = self.table(parent).get_unrecorded(key);
                    match pv {
                        Some(v) => (Some(v), pp),
                        None => {
                            let (cv, cp) = self.table(tid).get_unrecorded(key);
                            (cv, pp + cp)
                        }
                    }
                }
            };
            if found.is_some() || self.dir[route].load(Ordering::Acquire) == snap {
                self.table(tid).obs().record_lookup(found.is_some(), probes);
                return found;
            }
        }
    }

    /// Whether `key` is stored.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Insert or update in the key's shard. Same contract as
    /// [`ConcurrentMcCuckoo::insert`]: `Ok(true)` = updated in place,
    /// `Ok(false)` = freshly placed, `Err` = rejected with nothing
    /// mutated.
    pub fn insert(&self, key: K, value: V) -> Result<bool, (K, V)> {
        self.insert_report(key, value).map(updated)
    }

    /// [`Self::insert`] returning the engine's full report.
    pub(crate) fn insert_report(&self, key: K, value: V) -> Result<InsertReport, (K, V)> {
        self.upsert_recorded(self.route_of(&key), key, value)
    }

    /// Insert a key expected to be absent. Same placement engine as
    /// [`Self::insert`], so a key that does exist is updated rather than
    /// corrupting the copy bookkeeping.
    pub fn insert_new(&self, key: K, value: V) -> Result<(), (K, V)> {
        self.insert(key, value).map(|_| ())
    }

    /// Remove `key` from its shard, returning its value.
    pub fn remove(&self, key: &K) -> Option<V> {
        let (out, tid) = self.remove_routed(self.route_of(key), key);
        self.table(tid).obs().record_remove(out.is_some());
        out
    }

    /// Clear every shard. Serialises with any in-flight split (so a
    /// drain never resurrects wiped keys); each shard then clears under
    /// its own writer lock — there is no cross-shard atomicity (a
    /// concurrent reader may see shard 0 empty while shard 1 still
    /// serves).
    pub fn clear(&self) {
        let _split = self.split_lock.lock();
        for t in 0..self.shard_count() {
            self.table(t).clear();
        }
    }

    /// Exhaustive structural validation of every shard, the route
    /// directory (every entry must name live tables), and the routing
    /// invariant: every stored key is reachable through the directory —
    /// in its serving table, or in the forwarding parent while its slice
    /// is (or was last left) mid-drain. The routing leg assumes no split
    /// is running; call at quiescent points.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.shard_count();
        for (r, e) in self.dir.iter().enumerate() {
            let (tid, fwd) = decode_entry(e.load(Ordering::Acquire));
            if tid >= n {
                return Err(format!("route {r}: serving table {tid} of {n} live"));
            }
            if let Some(p) = fwd {
                if p >= n {
                    return Err(format!("route {r}: forwarding parent {p} of {n} live"));
                }
            }
        }
        for t in 0..n {
            self.table(t)
                .check_invariants()
                .map_err(|e| format!("shard {t}: {e}"))?;
            for (k, _) in self.table(t).items() {
                let (tid, fwd) = self.entry(self.route_of(&k));
                if t != tid && fwd != Some(t) {
                    return Err(format!(
                        "shard {t}: stranded copy of a key routed to table {tid}"
                    ));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Incremental growth
    // ------------------------------------------------------------------

    /// Split one shard in two without stopping the world.
    ///
    /// Allocates a sibling table for the 1-suffix half of the shard's
    /// route prefix (its hash seed derived from the master seed and the
    /// child prefix, so op-log replays rebuild it identically), flips
    /// the child's directory slice to *serve from the child, forward to
    /// the parent*, then drains the parent in ascending bucket order:
    /// each migrating key is re-read under the parent's writer lock,
    /// copied into the child, and only then removed. Readers never block —
    /// they keep serving lock-free through the whole drain, probing the
    /// parent as fallback while forwarding is up. Once a full drain pass
    /// moves nothing, the forwarding entries are cleared and the split
    /// is complete.
    ///
    /// If a previous split of `shard` was interrupted (a crashed
    /// migrator leaves forwarding up — consistent, just two-sided),
    /// this call **resumes** that drain instead of allocating a second
    /// child. Splits are serialised by an internal lock; concurrent
    /// callers queue.
    ///
    /// On `failed > 0` (a child placement overflowed) the forwarding
    /// entries stay up: the table keeps serving correctly with
    /// two-sided lookups for that slice, and either a later
    /// `begin_split` of the same shard or a
    /// [`Self::retire_forwarding`] pass (the [`crate::maint`] loop
    /// drives one on a backoff schedule) retries the stragglers.
    pub fn begin_split(&self, shard: usize) -> Result<SplitReport, SplitError> {
        let _split = self.split_lock.lock();
        let ntables = self.shard_count();
        if shard >= ntables {
            return Err(SplitError::UnknownShard {
                shard,
                tables: ntables,
            });
        }
        // A directory entry forwarding *to* `shard` means `shard` is a
        // mid-fill child; one forwarding *from* it means an interrupted
        // drain of `shard` itself — resume it. The entries serving `shard`
        // unforwarded are its route slice: one aligned run of
        // `2^(DIR_BITS - depth)` routes, the `depth`-bit prefix's.
        let (mut resume_child, mut first, mut owned) = (None, DIR_SIZE, 0usize);
        for (r, e) in self.dir.iter().enumerate() {
            match decode_entry(e.load(Ordering::Acquire)) {
                (tid, fwd) if fwd == Some(shard) => resume_child = Some(tid),
                (tid, Some(parent)) if tid == shard => {
                    return Err(SplitError::PendingInbound { shard, parent });
                }
                (tid, None) if tid == shard => (first, owned) = (first.min(r), owned + 1),
                _ => {}
            }
        }
        debug_assert!(
            owned.is_power_of_two() && first % owned == 0,
            "shard {shard}: route slice of {owned} entries at {first}"
        );
        let depth = DIR_BITS - owned.trailing_zeros();
        // Checked before the depth leg: at the 256-table ceiling every
        // shard is also depth-exhausted, but the actionable condition is
        // the full directory (no arena slot left to allocate into).
        if resume_child.is_none() && ntables >= DIR_SIZE {
            return Err(SplitError::DirectoryFull { shard });
        }
        if resume_child.is_none() && depth >= DIR_BITS {
            return Err(SplitError::DepthExhausted { shard });
        }
        self.migration.record_split_started();
        let start = Instant::now();
        let (child, resumed) = match resume_child {
            Some(c) => (c, true),
            None => {
                let child = ntables;
                let child_prefix = ((first / owned) as u32) << 1 | 1;
                let child_depth = depth + 1;
                let mut cfg = self.config.clone();
                cfg.seed = SplitMix64::new(
                    self.config.seed
                        ^ SPLIT_SEED_SALT
                        ^ (u64::from(child_prefix) << DIR_BITS)
                        ^ u64::from(child_depth),
                )
                .next_u64();
                let table = Box::new(CachePadded::new(ConcurrentMcCuckoo::new(cfg)));
                let fresh = self.slots[child].set(table).is_ok();
                assert!(fresh, "arena slot published twice");
                self.ntables.store(ntables + 1, Ordering::Release);
                // Flip the child's directory slice: serve from the child,
                // forward misses to the parent, which keeps the 0-suffix
                // half of its old prefix. The stores run under the
                // parent's writer lock, the one the slice's writes check
                // their entry under (`write_routed`); from the flip on,
                // new writes for the slice land in the child.
                let shift = DIR_BITS - child_depth;
                self.table(shard).write(|_| {
                    for (r, e) in self.dir.iter().enumerate() {
                        if (r as u32) >> shift == child_prefix {
                            e.store(encode_entry(child, Some(shard)), Ordering::Release);
                        }
                    }
                });
                // Record the allocation (not resumes — the original
                // entry already covers them) so snapshots can persist
                // the layout after log compaction.
                self.splits.lock().push(shard);
                (child, false)
            }
        };
        let (moved, skipped, failed) = self.drain(shard, child);
        let forwarding_cleared = failed == 0;
        if forwarding_cleared {
            self.clear_forwarding(child, shard);
        }
        let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.migration.record_split_finished(forwarding_cleared, us);
        Ok(SplitReport {
            parent: shard,
            child,
            resumed,
            moved,
            skipped,
            failed,
            forwarding_cleared,
        })
    }

    /// The migration cursor: ascending bucket-order passes over the
    /// parent, moving every key whose directory entry points at `child`
    /// (deterministic on a quiescent parent, so op-log replays rebuild
    /// the same child), until a full pass moves nothing (a write to the
    /// parent's own slice can kick a migrating key into a bucket the
    /// pass has already scanned).
    ///
    /// A pass meets a key once per copy. A key whose child placement
    /// failed keeps every copy, so each pass retries it at its first
    /// copy only, and the drain counts it as failed once.
    fn drain(&self, parent: usize, child: usize) -> (u64, u64, u64) {
        let ptab = self.table(parent);
        let ctab = self.table(child);
        let (mut moved, mut skipped) = (0u64, 0u64);
        // Keys whose placement failed, each with the last pass that
        // tried it. Failures are rare, so a linear scan finds them.
        let mut failures: Vec<(K, usize)> = Vec::new();
        for pass in 0.. {
            let mut pass_moved = 0u64;
            for bucket in 0..ptab.capacity() {
                let Some(key) = ptab.key_at(bucket) else {
                    continue;
                };
                if self.entry(self.route_of(&key)).0 != child {
                    continue;
                }
                let failed = failures.iter().position(|(k, _)| *k == key);
                if failed.is_some_and(|f| failures[f].1 == pass) {
                    continue;
                }
                #[cfg(feature = "testhooks")]
                crate::testhooks::fire_panic_in_migration();
                // Insert-if-absent: after a crash-resume (or a racing
                // forwarded upsert) the child may already hold the
                // key — the fresher copy wins and the parent's is
                // still safely retired.
                let outcome = ptab.migrate_out(&key, |k, v| {
                    #[cfg(feature = "testhooks")]
                    if crate::testhooks::take_fail_child_placement() {
                        return false;
                    }
                    ctab.insert_if_absent_unrecorded(k, v).is_ok()
                });
                match outcome {
                    MigrateOutcome::Moved => {
                        moved += 1;
                        pass_moved += 1;
                        self.migration.record_moved();
                    }
                    MigrateOutcome::Skipped => {
                        skipped += 1;
                        self.migration.record_skipped();
                    }
                    MigrateOutcome::Failed => match failed {
                        Some(f) => failures[f].1 = pass,
                        None => {
                            failures.push((key, pass));
                            self.migration.record_move_failure();
                        }
                    },
                }
            }
            if pass_moved == 0 {
                break;
            }
        }
        (moved, skipped, failures.len() as u64)
    }

    /// End a split whose drain emptied: the directory entries serving
    /// from `child` stop forwarding to `parent`. The stores run under
    /// the parent's writer lock, the outer one that forwarded writes
    /// check their entry under (`write_routed`).
    fn clear_forwarding(&self, child: usize, parent: usize) {
        self.table(parent).write(|_| {
            for e in self.dir.iter() {
                let (tid, fwd) = decode_entry(e.load(Ordering::Acquire));
                if tid == child && fwd == Some(parent) {
                    e.store(encode_entry(child, None), Ordering::Release);
                }
            }
        });
    }

    // ------------------------------------------------------------------
    // Maintenance hooks (driven by `crate::maint`)
    // ------------------------------------------------------------------

    /// Directory entries currently carrying a forwarding tag. Non-zero
    /// means at least one split is unfinished (crashed migrator or
    /// overflowed child placements) and lookups on those routes pay the
    /// two-sided probe; the maintenance loop drives this back to 0.
    pub fn forwarding_live(&self) -> usize {
        self.dir
            .iter()
            .filter(|e| decode_entry(e.load(Ordering::Acquire)).1.is_some())
            .count()
    }

    /// Retry every unfinished split in one pass: re-drain each distinct
    /// `(child, parent)` forwarding pair and clear its forwarding
    /// entries once the drain fully empties, exactly like the tail of
    /// [`Self::begin_split`]. Readers keep serving lock-free
    /// throughout, and a crash mid-pass leaves the table in the same
    /// consistent, resumable state a crashed migrator would — the next
    /// pass (or a `begin_split` of the parent) picks up where it died.
    ///
    /// A pair whose drain still has `failed > 0` keeps its forwarding
    /// entries for a later pass; [`crate::maint::Maintainer`] schedules
    /// those retries on a backoff.
    pub fn retire_forwarding(&self) -> RetireReport {
        let _split = self.split_lock.lock();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for e in self.dir.iter() {
            let (tid, fwd) = decode_entry(e.load(Ordering::Acquire));
            if let Some(parent) = fwd {
                if !pairs.contains(&(tid, parent)) {
                    pairs.push((tid, parent));
                }
            }
        }
        let mut report = RetireReport {
            attempted: pairs.len(),
            ..RetireReport::default()
        };
        for &(child, parent) in &pairs {
            self.maint.record_retirement_attempt();
            let (moved, skipped, failed) = self.drain(parent, child);
            report.moved += moved;
            report.skipped += skipped;
            report.failed += failed;
            if failed == 0 {
                self.clear_forwarding(child, parent);
                report.retired += 1;
                self.maint.record_retirement_success();
            }
        }
        report.forwarding_live = self.forwarding_live();
        report
    }

    /// The split serialisation lock, for maintenance passes that need a
    /// layout-stable capture (the compactor holds it across
    /// position-capture + snapshot so no `Split` record can straddle a
    /// truncation boundary).
    pub(crate) fn split_guard(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.split_lock.lock()
    }

    /// The maintenance counter block, for `crate::maint` to record
    /// compactions and snapshot cadence into.
    pub(crate) fn maint_obs(&self) -> &MaintObs {
        &self.maint
    }

    // ------------------------------------------------------------------
    // Batched API
    // ------------------------------------------------------------------

    /// Counting-sort `items`' positions into `groups` buckets. Returns
    /// `(order, offsets)`: `order[offsets[g]..offsets[g + 1]]` holds the
    /// caller positions assigned to group `g` in caller order (repeated
    /// keys in one batch rely on it), and `order` as a whole is a
    /// permutation of `0..items.len()`. Two flat allocations, no
    /// per-group `Vec` growth: `offsets[g]` starts as group `g`'s end and
    /// walks back to its start as the group fills back to front.
    fn group_positions(gids: &[u32], groups: usize) -> (Vec<u32>, Vec<u32>) {
        let mut offsets: Vec<u32> = vec![0; groups + 1];
        let mut order: Vec<u32> = vec![0; gids.len()];
        for &g in gids {
            offsets[g as usize] += 1;
        }
        for g in 1..=groups {
            offsets[g] += offsets[g - 1];
        }
        for (i, &g) in gids.iter().enumerate().rev() {
            offsets[g as usize] -= 1;
            order[offsets[g as usize] as usize] = i as u32;
        }
        (order, offsets)
    }

    /// Every batched write's prologue: resolve the caller's stripe, record
    /// the batch, route each of its `n` items once (`key(i)` is item
    /// `i`'s key) on one snapshot per touched directory entry (so equal
    /// keys share a group even mid-flip), group them and record each
    /// shard's share.
    fn route_batch<'k>(&self, n: usize, key: impl Fn(usize) -> &'k K) -> Routed
    where
        K: 'k,
    {
        let stripe = obs::stripe();
        self.obs.at(stripe).batch(n);
        let ntables = self.shard_count();
        let mut snap = [u64::MAX; DIR_SIZE];
        let mut routes = Vec::with_capacity(n);
        let mut gids = Vec::with_capacity(n);
        for i in 0..n {
            let r = self.route_of(key(i));
            if snap[r] == u64::MAX {
                snap[r] = self.dir[r].load(Ordering::Acquire);
            }
            let (tid, fwd) = decode_entry(snap[r]);
            routes.push(r as u32);
            gids.push(if fwd.is_some() || tid >= ntables {
                ntables as u32
            } else {
                tid as u32
            });
        }
        let (order, offsets) = Self::group_positions(&gids, ntables + 1);
        for g in 0..ntables {
            let items_in = offsets[g + 1] - offsets[g];
            if items_in > 0 {
                self.table(g).obs().at(stripe).batch(items_in as usize);
            }
        }
        Routed {
            routes,
            snap,
            gids,
            order,
            fast: offsets[ntables] as usize,
            stripe,
        }
    }

    /// The cells fast batch item `i` records into: its serving shard's,
    /// at the stripe the batch resolved.
    fn recorder(&self, b: &Routed, i: usize) -> Recorder<'_> {
        self.table(b.gids[i] as usize).obs().at(b.stripe)
    }

    /// Stage 2's finish check for batch item `i`: whether its directory
    /// entry still reads as the batch routed it. Otherwise a split raced
    /// the item, and it is redone through the routed path.
    fn settled(&self, b: &Routed, i: usize) -> bool {
        let r = b.routes[i] as usize;
        self.dir[r].load(Ordering::Acquire) == b.snap[r]
    }

    /// Upsert a batch, taking each involved shard's writer lock **once**.
    ///
    /// Results are positional: `out[i]` corresponds to `items[i]`
    /// regardless of how the batch was regrouped internally. Failed items
    /// leave their shard untouched, exactly like single-op inserts. Keys
    /// caught by a racing shard split are transparently redone on their
    /// new serving table. One write pipeline (`write_pipeline`) runs over
    /// every routed item; stage 2 writes each item and finishes it.
    pub fn insert_batch(&self, items: &[(K, V)]) -> Vec<Result<bool, (K, V)>> {
        let b = self.route_batch(items.len(), |i| &items[i].0);
        // Every slot is overwritten: each item finishes once.
        let mut out: Vec<Result<bool, (K, V)>> = vec![Ok(false); items.len()];
        let mut redo = Vec::new();
        write_pipeline(
            b.fast,
            |j| {
                let i = b.order[j] as usize;
                (&**self.table(b.gids[i] as usize), &items[i].0)
            },
            |w, j, cands| {
                let i = b.order[j] as usize;
                // A split flipped the route before the lock: leave the
                // item to the routed path. Past this check the route
                // cannot move until the lock drops (see `write_routed`).
                if !self.settled(&b, i) {
                    return redo.push(i);
                }
                #[cfg(feature = "testhooks")]
                crate::testhooks::reach(crate::testhooks::Point::BatchSettled);
                let (k, v) = items[i];
                let res = w.insert_staged(k, v, cands).map_err(|full| full.evicted);
                self.recorder(&b, i)
                    .insert(res.as_ref().unwrap_or(&InsertReport::failed()));
                out[i] = res.map(updated);
            },
        );
        // The redos, and the keys behind a forwarding entry (the routed
        // path's two-sided placement), with no lock held.
        for i in redo.into_iter().chain(b.slow()) {
            let (k, v) = items[i];
            out[i] = self
                .upsert_recorded(b.routes[i] as usize, k, v)
                .map(updated);
        }
        out
    }

    /// Look up a batch. Lock-free; results are positional. One read
    /// pipeline (`read_pipeline`) runs over the request's keys in caller
    /// order, across all shards: per window, stage 1 routes every key
    /// (its selector hash and one directory load) and hints its slot
    /// records, then stage 2 probes each key, so the whole window's DRAM
    /// misses overlap whichever shards the keys hit. A key behind a
    /// forwarding entry, and a miss raced by a shard split, is looked up
    /// through [`Self::get`] in its place.
    pub fn lookup_batch(&self, keys: &[K]) -> Vec<Option<V>> {
        let stripe = obs::stripe();
        self.obs.at(stripe).batch(keys.len());
        let ntables = self.shard_count();
        // Keys per serving table, for its batch-size sample.
        let mut shares = [0u32; DIR_SIZE];
        let mut out = Vec::with_capacity(keys.len());
        read_pipeline(
            keys,
            |key| {
                let route = self.route_of(key);
                let snap = self.dir[route].load(Ordering::Acquire);
                let (tid, fwd) = decode_entry(snap);
                // The slow group: behind a forwarding entry (the parent
                // probe goes first), or a table newer than the batch.
                let table = (fwd.is_none() && tid < ntables).then(|| {
                    shares[tid] += 1;
                    &**self.table(tid)
                });
                (table, (route, snap))
            },
            |i, (route, snap), probed| {
                out.push(match probed {
                    Some((found, probes))
                        if found.is_some() || self.dir[route].load(Ordering::Acquire) == snap =>
                    {
                        let tid = decode_entry(snap).0;
                        self.table(tid)
                            .obs()
                            .at(stripe)
                            .lookup(found.is_some(), probes);
                        found
                    }
                    // The slow group, or a miss under a racing flip,
                    // which may be a key mid-move.
                    _ => self.get(&keys[i]),
                });
            },
        );
        for (tid, &n) in shares[..ntables].iter().enumerate() {
            if n > 0 {
                self.table(tid).obs().at(stripe).batch(n as usize);
            }
        }
        out
    }

    /// Remove a batch, taking each involved shard's writer lock **once**.
    /// Results are positional; a key duplicated within the batch is
    /// removed by its first occurrence only. Misses raced by a shard
    /// split are transparently redone through the forwarding map.
    pub fn remove_batch(&self, keys: &[K]) -> Vec<Option<V>> {
        let b = self.route_batch(keys.len(), |i| &keys[i]);
        let mut out: Vec<Option<V>> = vec![None; keys.len()];
        let mut redo = Vec::new();
        write_pipeline(
            b.fast,
            |j| {
                let i = b.order[j] as usize;
                (&**self.table(b.gids[i] as usize), &keys[i])
            },
            |w, j, cands| {
                let i = b.order[j] as usize;
                let removed = w.remove_staged(&keys[i], cands);
                // A removed value is final even if a flip beat the lock:
                // under the parent's lock the child cannot also hold the
                // key. A miss under a flipped route is redone.
                if removed.is_some() || self.settled(&b, i) {
                    self.recorder(&b, i).remove(removed.is_some());
                    out[i] = removed;
                } else {
                    redo.push(i);
                }
            },
        );
        for i in redo.into_iter().chain(b.slow()) {
            out[i] = self.remove(&keys[i]);
        }
        out
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Every logically-stored pair, deduplicated across an in-flight (or
    /// abandoned) migration: a key transiently present on both sides of
    /// a forwarding entry is emitted once, preferring the child's copy
    /// (the newer one). `live = false` reads each table under its writer
    /// lock; `live = true` uses the lock-free seqlock scan.
    fn collect_items(&self, live: bool) -> Vec<(K, V)> {
        let mut out = Vec::new();
        // Re-read the table count every pass: a split publishing a child
        // mid-capture appends it at the end, and scanning it picks up
        // the keys the drain moved out of already-scanned parents (the
        // drain inserts into the child before removing from the parent,
        // so every key is caught by at least one of the two scans).
        let mut t = 0;
        while t < self.shard_count() {
            let table = self.table(t);
            let items = if live {
                table.items_live()
            } else {
                table.items()
            };
            for (k, v) in items {
                let (tid, fwd) = self.entry(self.route_of(&k));
                let include = if t == tid {
                    true
                } else if fwd == Some(t) {
                    // Parent-side copy: superseded if the child has one.
                    self.table(tid).get_unrecorded(&k).0.is_none()
                } else {
                    // A copy the drain moved on, and whose forwarding was
                    // retired, after this scan: the child's scan, later
                    // in this loop, emits it.
                    false
                };
                if include {
                    out.push((k, v));
                }
            }
            t += 1;
        }
        out
    }

    /// Capture a serialisable snapshot: the format version, the master
    /// configuration, the *constructed* shard count, the split history
    /// and every stored pair. The history (parent ids in allocation
    /// order) lets [`Self::try_from_snapshot`] reproduce the grown
    /// layout directly — per-shard and per-child seeds re-derive
    /// deterministically from the master seed — so a snapshot stays
    /// restorable even after log compaction has truncated the `Split`
    /// records that originally grew the table. Snapshots taken
    /// mid-split are safe: the migrating slice is deduplicated,
    /// preferring the newer copy. The caller must ensure no writers are
    /// active while the capture runs (each shard is read under its own
    /// writer lock, but there is no cross-shard atomicity); use
    /// [`Self::snapshot_live`] to capture without blocking writers.
    pub fn to_snapshot(&self) -> ShardedSnapshot<K, V> {
        ShardedSnapshot {
            format: SHARDED_SNAPSHOT_FORMAT,
            config: self.config.clone(),
            shards: self.base_shards,
            splits: self.splits.lock().clone(),
            items: self.collect_items(false),
        }
    }

    /// Background snapshot: like [`Self::to_snapshot`] but every bucket
    /// is read through the lock-free seqlock protocol — **no writer lock
    /// is taken**, so this can run concurrently with writers and the
    /// migration cursor. Each pair is individually consistent; the cut
    /// as a whole is best-effort (exact when quiescent). Restoring a
    /// live capture is always safe: [`Self::try_from_snapshot`] places
    /// items insert-if-absent, so a pair caught twice mid-move restores
    /// once.
    pub fn snapshot_live(&self) -> ShardedSnapshot<K, V> {
        ShardedSnapshot {
            format: SHARDED_SNAPSHOT_FORMAT,
            config: self.config.clone(),
            shards: self.base_shards,
            splits: self.splits.lock().clone(),
            items: self.collect_items(true),
        }
    }

    /// Rebuild a table from a snapshot, reporting any items that no
    /// longer fit instead of dropping them. With an unchanged
    /// configuration every item re-places (the restored table is a
    /// fresh, conflict-free build), so overflow only arises when the
    /// snapshot is edited toward a smaller geometry.
    pub fn try_from_snapshot(
        snapshot: ShardedSnapshot<K, V>,
    ) -> Result<Self, SnapshotOverflow<K, V>> {
        let t = Self::new(snapshot.shards, snapshot.config);
        // Replay the recorded split history before placing any item:
        // the drains are trivial (every table is still empty) and each
        // item then routes straight to its final serving table. A
        // history entry that cannot replay (only possible on a
        // hand-edited snapshot) stops the replay — the table falls back
        // to a coarser but still fully consistent layout.
        for &parent in &snapshot.splits {
            if t.begin_split(parent).is_err() {
                break;
            }
        }
        // Place every item in its serving table through the write
        // pipeline, unrecorded (restores must not count as user inserts)
        // and insert-if-absent (live snapshots may carry a mid-move pair
        // twice; the first copy wins). Grouping by table keeps each
        // table's insertion order, so the restored tables are the ones a
        // per-item restore builds; leftovers keep snapshot order.
        let items = snapshot.items;
        let tids: Vec<u32> = items.iter().map(|(k, _)| t.shard_of(k) as u32).collect();
        let (order, _) = Self::group_positions(&tids, t.shard_count());
        let mut rejected: Vec<Option<(K, V)>> = vec![None; items.len()];
        write_pipeline(
            items.len(),
            |j| {
                let i = order[j] as usize;
                (&**t.table(tids[i] as usize), &items[i].0)
            },
            |w, j, cands| {
                let i = order[j] as usize;
                let (k, v) = items[i];
                rejected[i] = w
                    .insert_absent_staged(k, v, cands)
                    .err()
                    .map(|full| full.evicted);
            },
        );
        let leftover: Vec<(K, V)> = rejected.into_iter().flatten().collect();
        if leftover.is_empty() {
            Ok(t)
        } else {
            Err(SnapshotOverflow {
                placed: t.collect_items(false),
                leftover,
            })
        }
    }

    /// Crash recovery: restore a snapshot, then replay an op-log tail
    /// (see [`crate::oplog`]) in append order. Replayed operations are
    /// unrecorded — recovery is maintenance, not user traffic — and
    /// replayed `Split` records re-derive the same child seeds the
    /// original table used, so the recovered table is logically
    /// identical to the writer at its last logged operation: same
    /// items, same shard layout, same routing.
    ///
    /// The log slice must be the **tail from the snapshot's capture
    /// position** — a format-3 snapshot already carries its split
    /// history, so replaying `Split` records from *before* the capture
    /// would double-apply them. The [`crate::maint::Compactor`] upholds
    /// this automatically: it captures the position and the snapshot
    /// under the split lock, then truncates everything before it.
    pub fn recover(
        snapshot: ShardedSnapshot<K, V>,
        log: &[crate::oplog::OpRecord<K, V>],
    ) -> Result<Self, crate::oplog::RecoverError> {
        use crate::oplog::{OpRecord, RecoverError};
        let t = Self::try_from_snapshot(snapshot).map_err(|o| RecoverError::SnapshotOverflow {
            leftover: o.leftover.len(),
        })?;
        for (index, rec) in log.iter().enumerate() {
            match rec {
                OpRecord::Insert { key, value } => {
                    let route = t.route_of(key);
                    t.upsert_routed(route, *key, *value)
                        .0
                        .map_err(|_| RecoverError::InsertOverflow { index })?;
                }
                OpRecord::Remove { key } => {
                    t.remove_routed(t.route_of(key), key);
                }
                OpRecord::Split { shard } => {
                    t.begin_split(*shard)
                        .map_err(|error| RecoverError::Split { index, error })?;
                }
                OpRecord::Clear => t.clear(),
            }
        }
        Ok(t)
    }
}

/// Whether an upsert report is an in-place update (the public `Ok(true)`).
fn updated(rep: InsertReport) -> bool {
    matches!(rep.outcome, InsertOutcome::Updated)
}

/// One batch's routing, from [`ShardedMcCuckoo::route_batch`].
struct Routed {
    /// Each item's directory index.
    routes: Vec<u32>,
    /// The directory entries the batch routed on.
    snap: [u64; DIR_SIZE],
    /// Each item's group: its serving table, or the trailing slow group
    /// (behind a forwarding entry, or a table newer than the batch).
    gids: Vec<u32>,
    /// Item positions by group; the fast groups fill `order[..fast]`.
    order: Vec<u32>,
    fast: usize,
    /// The calling thread's stripe, resolved once per batch.
    stripe: Option<usize>,
}

impl Routed {
    /// The slow group's item positions, left to the routed path.
    fn slow(&self) -> impl Iterator<Item = usize> + '_ {
        self.order[self.fast..].iter().map(|&i| i as usize)
    }
}

/// The shard counts a table can be built with: a non-zero power of two
/// (the selector is a bit slice) no larger than the route directory.
fn check_shards(shards: usize) -> Result<(), String> {
    if shards == 0 || !shards.is_power_of_two() {
        Err(format!(
            "shard count must be a non-zero power of two, got {shards}"
        ))
    } else if shards > DIR_SIZE {
        Err(format!(
            "shard count must be at most {DIR_SIZE}, got {shards}"
        ))
    } else {
        Ok(())
    }
}

/// Current [`ShardedSnapshot`] serialisation format. Format 1 (implicit
/// — snapshots without a `format` field) predates split-growth; format
/// 2 adds the explicit version so future geometry changes can be
/// rejected instead of silently mis-routing; format 3 adds the split
/// history (`splits`), making grown snapshots self-contained so the op
/// log's `Split` records can be compacted away. Formats 1 and 2 still
/// parse (their history is empty — the layout comes from log replay,
/// as before).
pub const SHARDED_SNAPSHOT_FORMAT: u32 = 3;

/// A serialisable snapshot of a sharded table. Per-shard hash seeds are
/// derived (not stored): rebuilding with the same master `config` and
/// `shards` count reproduces both the shard selector and every shard's
/// hash functions, so restored keys route identically. Snapshots from a
/// split-grown table record the *base* shard count plus the split
/// history; [`ShardedMcCuckoo::try_from_snapshot`] replays the history
/// to reproduce the grown layout without needing the op log's `Split`
/// records (see [`crate::oplog`] and [`crate::maint`]).
#[derive(Debug, Clone)]
pub struct ShardedSnapshot<K, V> {
    /// Serialisation format version (see [`SHARDED_SNAPSHOT_FORMAT`]).
    pub format: u32,
    /// Master configuration (pre-derivation seed).
    pub config: McConfig,
    /// Constructed shard count (a non-zero power of two).
    pub shards: usize,
    /// Split history: the parent shard id of every child allocation, in
    /// order. Empty for ungrown tables and for format-1/2 snapshots.
    pub splits: Vec<usize>,
    /// Every stored pair, unordered.
    pub items: Vec<(K, V)>,
}

impl<K: ToJson, V: ToJson> ToJson for ShardedSnapshot<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("format".to_owned(), self.format.to_json()),
            ("config".to_owned(), self.config.to_json()),
            ("shards".to_owned(), self.shards.to_json()),
            ("splits".to_owned(), self.splits.to_json()),
            ("items".to_owned(), self.items.to_json()),
        ])
    }
}

impl<K: FromJson, V: FromJson> FromJson for ShardedSnapshot<K, V> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        // Format 1 snapshots predate the field; anything newer than this
        // build understands is rejected with a typed error rather than
        // silently mis-routing.
        let format = match j.get("format") {
            None => 1,
            Some(f) => u32::from_json(f)?,
        };
        if format == 0 || format > SHARDED_SNAPSHOT_FORMAT {
            return Err(JsonError(format!(
                "unsupported sharded snapshot format {format} \
                 (this build reads 1..={SHARDED_SNAPSHOT_FORMAT})"
            )));
        }
        let shards = FromJson::from_json(field(j, "shards")?)?;
        check_shards(shards).map_err(JsonError)?;
        Ok(Self {
            format,
            config: FromJson::from_json(field(j, "config")?)?,
            shards,
            // Formats 1 and 2 predate the split history; their grown
            // layout (if any) comes from op-log `Split` replay.
            splits: match j.get("splits") {
                None => Vec::new(),
                Some(s) => FromJson::from_json(s)?,
            },
            items: FromJson::from_json(field(j, "items")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::PIPELINE_WINDOW;
    use std::collections::HashMap;
    use workloads::UniqueKeys;

    fn table(shards: usize, buckets: usize, seed: u64) -> ShardedMcCuckoo<u64, u64> {
        ShardedMcCuckoo::new(shards, McConfig::paper(buckets, seed))
    }

    #[test]
    fn routing_is_total_deterministic_and_spread() {
        let t = table(8, 64, 1);
        let mut per_shard = [0usize; 8];
        for k in 0u64..4_000 {
            let s = t.shard_of(&k);
            assert!(s < 8);
            assert_eq!(s, t.shard_of(&k), "routing must be deterministic");
            per_shard[s] += 1;
        }
        // 4000 keys over 8 shards: each shard sees a non-trivial share.
        for (s, &n) in per_shard.iter().enumerate() {
            assert!(n > 250, "shard {s} got only {n} of 4000 keys");
        }
    }

    #[test]
    fn single_shard_degenerates_cleanly() {
        let t = table(1, 128, 2);
        for k in 0u64..100 {
            assert_eq!(t.insert(k, k * 2), Ok(false));
        }
        assert_eq!(t.shard_of(&17), 0);
        assert_eq!(t.len(), 100);
        assert_eq!(t.get(&17), Some(34));
        t.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_panics() {
        let _ = table(3, 16, 0);
    }

    #[test]
    #[should_panic(expected = "at most 256")]
    fn over_directory_capacity_panics() {
        let _ = table(512, 16, 0);
    }

    #[test]
    fn ops_route_to_the_selected_shard_only() {
        let t = table(4, 64, 3);
        for k in 0u64..200 {
            t.insert(k, k).unwrap();
        }
        for k in 0u64..200 {
            let home = t.shard_of(&k);
            for s in 0..t.shard_count() {
                assert_eq!(
                    t.shard(s).get(&k).is_some(),
                    s == home,
                    "key {k} visible in shard {s}, home {home}"
                );
            }
        }
        assert_eq!(t.len(), 200);
    }

    #[test]
    fn mem_stats_sums_every_field_of_every_shard() {
        // Churn at 85 % load overwrites redundant copies whose siblings
        // need verification reads, so every counter field is exercised.
        let t = ShardedMcCuckoo::new(4, McConfig::paper_with_deletion(1024, 6));
        let mut keys = UniqueKeys::new(7);
        let mut live = keys.take_vec(4 * 3 * 1024 * 85 / 100);
        for &k in &live {
            t.insert(k, k).unwrap();
        }
        for slot in live.iter_mut() {
            assert_eq!(t.remove(slot), Some(*slot));
            *slot = keys.next_key();
            t.insert(*slot, *slot).unwrap();
        }
        let mut sum = mem_model::MemStats::default();
        for s in 0..t.shard_count() {
            sum += t.shard(s).mem_stats();
        }
        assert!(sum.verify_reads > 0, "churn made no verification reads");
        assert_eq!(t.mem_stats(), sum);
    }

    #[test]
    fn mem_stats_is_monotone_under_writers_and_a_split() {
        // `mem_stats` reads each shard's meter under its writer lock, one
        // lock at a time, and sums each recorder's stripes. A thread
        // looping it while writers, a reader and a split run must see
        // every field only grow, and its last snapshot, taken once they
        // are done, must be the quiescent one.
        let fields = |m: &mem_model::MemStats| {
            [
                m.offchip_reads,
                m.offchip_writes,
                m.verify_reads,
                m.onchip_reads,
                m.onchip_writes,
                m.stash_reads,
                m.stash_writes,
                m.stash_visits,
            ]
        };
        let t = &table(2, 512, 81);
        let keys = UniqueKeys::new(82).take_vec(1_200);
        let stop = std::sync::atomic::AtomicBool::new(false);
        // Polls finished so far. The writers, the reader and the splitter
        // start after the first, and each writer waits for one more
        // between its inserts and its removes, so the poller runs
        // alongside them however the threads are scheduled.
        let done_polls = &AtomicU64::new(0);
        let after_poll = |n: u64| {
            while done_polls.load(Ordering::Acquire) < n {
                std::thread::yield_now();
            }
        };
        let (last, polls) = std::thread::scope(|scope| {
            let poller = scope.spawn(|| {
                let mut prev = t.mem_stats();
                for polls in 1u64.. {
                    let done = stop.load(Ordering::Acquire);
                    let now = t.mem_stats();
                    for (f, (a, b)) in fields(&prev).into_iter().zip(fields(&now)).enumerate() {
                        assert!(b >= a, "poll {polls}: field {f} fell {a} -> {b}");
                    }
                    prev = now;
                    done_polls.store(polls, Ordering::Release);
                    if done {
                        return (prev, polls);
                    }
                }
                unreachable!()
            });
            let mut ops: Vec<_> = keys
                .chunks(keys.len() / 2)
                .map(|part| {
                    scope.spawn(move || {
                        after_poll(1);
                        for &k in part {
                            t.insert(k, k).unwrap();
                        }
                        after_poll(done_polls.load(Ordering::Acquire) + 1);
                        for &k in part.iter().step_by(3) {
                            assert_eq!(t.remove(&k), Some(k));
                        }
                    })
                })
                .collect();
            ops.push(scope.spawn(|| {
                after_poll(1);
                for &k in keys.iter().chain(&keys) {
                    t.get(&k);
                }
            }));
            after_poll(1);
            t.begin_split(0).unwrap();
            for op in ops {
                op.join().unwrap();
            }
            stop.store(true, Ordering::Release);
            poller.join().unwrap()
        });
        assert!(polls > 1);
        assert_eq!(last, t.mem_stats());
        assert!(last.offchip_writes > 0 && last.onchip_reads > 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn mem_bytes_sums_every_table_and_the_directory() {
        // 16 shards of 3 × 1,000 buckets: 32 B slot records and 2-bit
        // counters per table, plus the 256-entry directory. A split adds
        // its child's arrays.
        let t = table(16, 1_000, 5);
        let per_table = 3_000 * 32 + 3_000usize.div_ceil(32) * 8;
        assert_eq!(t.shard(0).mem_bytes(), per_table);
        assert_eq!(t.mem_bytes(), 16 * per_table + DIR_SIZE * 8);
        t.begin_split(3).unwrap();
        assert_eq!(t.mem_bytes(), 17 * per_table + DIR_SIZE * 8);
        // The 16 × 3 × 680,000-bucket DRAM benchmark table, whose one
        // shard `concurrent::tests` pins at 65,790,000 B: 40.31 B per
        // key at its 26,112,000-key preload.
        assert_eq!(16 * 65_790_000 + DIR_SIZE * 8, 1_052_642_048);
    }

    #[test]
    fn batched_ops_match_singles_and_preserve_order() {
        let singles = table(4, 128, 4);
        let batched = table(4, 128, 4);
        let mut keys = UniqueKeys::new(5);
        let items: Vec<(u64, u64)> = keys
            .take_vec(600)
            .into_iter()
            .map(|k| (k, k ^ 42))
            .collect();
        let mut expect = Vec::new();
        for &(k, v) in &items {
            expect.push(singles.insert(k, v));
        }
        assert_eq!(batched.insert_batch(&items), expect, "positional results");
        assert_eq!(batched.len(), singles.len());
        let ks: Vec<u64> = items.iter().map(|&(k, _)| k).collect();
        assert_eq!(batched.lookup_batch(&ks), singles.lookup_batch(&ks));
        // Upsert the same batch: every result must be `Ok(true)` in order.
        let bumped: Vec<(u64, u64)> = items.iter().map(|&(k, v)| (k, v + 1)).collect();
        assert!(batched.insert_batch(&bumped).iter().all(|r| *r == Ok(true)));
        assert_eq!(batched.lookup_batch(&ks[..5]).len(), 5);
        assert_eq!(
            batched.remove_batch(&ks),
            singles
                .lookup_batch(&ks)
                .iter()
                .map(|v| v.map(|x| x + 1))
                .collect::<Vec<_>>()
        );
        assert!(batched.is_empty());
        batched.check_invariants().unwrap();
    }

    #[test]
    fn differential_against_hashmap_through_batches() {
        let t = table(4, 64, 6);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut rng = SplitMix64::new(7);
        for round in 0..60u64 {
            let mut batch = Vec::new();
            for j in 0..32 {
                batch.push((rng.next_below(500), round * 100 + j));
            }
            // The model applies the batch in order, skipping rejects —
            // the same semantics insert_batch promises.
            let results = t.insert_batch(&batch);
            for (&(k, v), r) in batch.iter().zip(&results) {
                if r.is_ok() {
                    model.insert(k, v);
                }
            }
            let probe: Vec<u64> = (0..16).map(|_| rng.next_below(500)).collect();
            assert_eq!(
                t.lookup_batch(&probe),
                probe
                    .iter()
                    .map(|k| model.get(k).copied())
                    .collect::<Vec<_>>()
            );
            let victims: Vec<u64> = (0..8).map(|_| rng.next_below(500)).collect();
            let removed = t.remove_batch(&victims);
            for (k, r) in victims.iter().zip(removed) {
                assert_eq!(r, model.remove(k), "remove {k} in round {round}");
            }
            // Every removed key misses and every live key hits through
            // each served read path. Readers skip a record by its
            // occupied byte, not its counter, so content left behind
            // zeroed counters would be found here.
            let all: Vec<u64> = (0..500).collect();
            let want: Vec<Option<u64>> = all.iter().map(|k| model.get(k).copied()).collect();
            assert_eq!(t.lookup_batch(&all), want, "lookup_batch in round {round}");
            let got: Vec<Option<u64>> = all.iter().map(|k| t.get(k)).collect();
            assert_eq!(got, want, "get in round {round}");
            for s in 0..t.shard_count() {
                let (mine, want): (Vec<u64>, Vec<Option<u64>>) = all
                    .iter()
                    .zip(&want)
                    .filter(|(k, _)| t.shard_of(k) == s)
                    .unzip();
                assert_eq!(
                    t.shard(s).get_batch(&mine),
                    want,
                    "shard {s} in round {round}"
                );
            }
            t.check_invariants().unwrap();
        }
        assert_eq!(t.len(), model.len());
    }

    #[test]
    fn writers_on_distinct_shards_run_concurrently() {
        // Four threads insert disjoint batches concurrently; nothing is
        // lost and every shard stays structurally valid. On a multicore
        // host the threads genuinely overlap; the correctness claim holds
        // for every interleaving either way.
        let t = std::sync::Arc::new(table(4, 1_024, 8));
        let per_thread = 2_000u64;
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let t = t.clone();
                scope.spawn(move || {
                    let base = 1 + w * per_thread;
                    let items: Vec<(u64, u64)> =
                        (base..base + per_thread).map(|k| (k, k * 3)).collect();
                    for chunk in items.chunks(64) {
                        for r in t.insert_batch(chunk) {
                            r.expect("4k keys in 12k buckets must fit");
                        }
                    }
                });
            }
        });
        assert_eq!(t.len(), 4 * per_thread as usize);
        for k in 1..=4 * per_thread {
            assert_eq!(t.get(&k), Some(k * 3), "key {k} lost");
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn snapshot_round_trip_preserves_items_and_routing() {
        let t = table(4, 128, 11);
        let mut keys = UniqueKeys::new(12);
        let ks = keys.take_vec(800);
        for &k in &ks {
            t.insert_new(k, k ^ 0xBEEF).unwrap();
        }
        let snap = t.to_snapshot();
        assert_eq!(snap.format, SHARDED_SNAPSHOT_FORMAT);
        assert_eq!(snap.shards, 4);
        assert_eq!(snap.items.len(), 800);
        // Serialise through jsonlite and back.
        let snap: ShardedSnapshot<u64, u64> =
            FromJson::from_json(&jsonlite::parse(&jsonlite::to_string(&snap)).unwrap()).unwrap();
        let r = ShardedMcCuckoo::try_from_snapshot(snap).unwrap();
        assert_eq!(r.len(), 800);
        for &k in &ks {
            // Same value, and — because per-shard seeds re-derive from
            // the master seed — the same home shard as before.
            assert_eq!(r.get(&k), Some(k ^ 0xBEEF));
            assert_eq!(r.shard_of(&k), t.shard_of(&k));
            assert!(r.shard(r.shard_of(&k)).contains(&k));
        }
        r.check_invariants().unwrap();
        // Restores are unrecorded: no inserts appear in the obs layer.
        assert_eq!(r.stats().ops.inserts, 0);
    }

    #[test]
    fn legacy_snapshot_without_format_field_still_parses() {
        let t = table(2, 64, 21);
        for k in 0u64..50 {
            t.insert(k, k).unwrap();
        }
        let mut json = jsonlite::to_string(&t.to_snapshot());
        // Strip the format and split-history fields to fake a faithful
        // pre-versioning (format 1) snapshot: `{config, shards, items}`.
        json = json.replacen("\"format\":3,", "", 1);
        json = json.replacen("\"splits\":[],", "", 1);
        assert!(!json.contains("format") && !json.contains("splits"));
        let snap: ShardedSnapshot<u64, u64> =
            FromJson::from_json(&jsonlite::parse(&json).unwrap()).unwrap();
        assert_eq!(snap.format, 1);
        let r = ShardedMcCuckoo::try_from_snapshot(snap).unwrap();
        assert_eq!(r.len(), 50);
        for k in 0u64..50 {
            assert_eq!(r.get(&k), Some(k));
        }
    }

    #[test]
    fn legacy_min_counter_sharded_snapshot_restores_the_policy() {
        use crate::config::KickPolicyKind;
        let t: ShardedMcCuckoo<u64, u64> = ShardedMcCuckoo::new(
            2,
            McConfig::paper(64, 25).with_kick_policy(KickPolicyKind::MinCounter),
        );
        for k in 0u64..50 {
            t.insert(k, k).unwrap();
        }
        let json = jsonlite::to_string(&t.to_snapshot()).replacen(
            "\"kick\":\"MinCounter\"",
            "\"resolution\":\"MinCounter\",\"kick\":\"RandomWalk\"",
            1,
        );
        assert!(json.contains("resolution"));
        let snap: ShardedSnapshot<u64, u64> =
            FromJson::from_json(&jsonlite::parse(&json).unwrap()).unwrap();
        let r = ShardedMcCuckoo::try_from_snapshot(snap).unwrap();
        assert_eq!(r.config.kick, KickPolicyKind::MinCounter);
        assert_eq!(r.stats().kick_policy, "min-counter");
        for k in 0u64..50 {
            assert_eq!(r.get(&k), Some(k));
        }
    }

    #[test]
    fn unknown_snapshot_format_is_a_typed_error() {
        let t = table(2, 64, 22);
        t.insert(1, 1).unwrap();
        let json =
            jsonlite::to_string(&t.to_snapshot()).replacen("\"format\":3", "\"format\":99", 1);
        let err =
            <ShardedSnapshot<u64, u64> as FromJson>::from_json(&jsonlite::parse(&json).unwrap())
                .unwrap_err();
        assert!(err.0.contains("format 99"), "got: {}", err.0);
    }

    /// A hand-edited snapshot that no table can be built from is a parse
    /// error, not a panic in `try_from_snapshot` or `recover`.
    #[test]
    fn malformed_snapshot_geometry_is_a_typed_error() {
        let t = table(2, 64, 23);
        t.insert(1, 1).unwrap();
        let json = jsonlite::to_string(&t.to_snapshot());
        let edits = [
            ("\"shards\":2", "\"shards\":3", "power of two"),
            ("\"shards\":2", "\"shards\":0", "power of two"),
            ("\"shards\":2", "\"shards\":512", "at most 256"),
            ("\"d\":3", "\"d\":7", "2..=4 hash functions"),
            ("\"maxloop\":500", "\"maxloop\":0", "maxloop"),
        ];
        for (from, to, why) in edits {
            let edited = json.replacen(from, to, 1);
            assert_ne!(edited, json, "{from} not in the snapshot");
            let err = jsonlite::from_str::<ShardedSnapshot<u64, u64>>(&edited).unwrap_err();
            assert!(err.0.contains(why), "{to}: got {}", err.0);
        }
    }

    #[test]
    fn stats_aggregate_and_per_shard_breakdown() {
        let t = table(4, 128, 13);
        let mut keys = UniqueKeys::new(14);
        let items: Vec<(u64, u64)> = keys.take_vec(300).into_iter().map(|k| (k, k)).collect();
        for r in t.insert_batch(&items) {
            r.unwrap();
        }
        let hits = t.lookup_batch(&items.iter().map(|&(k, _)| k).collect::<Vec<_>>());
        assert!(hits.iter().all(|h| h.is_some()));
        assert_eq!(t.get(&u64::MAX), None);
        let s = t.stats();
        assert_eq!(s.ops.inserts, 300);
        assert_eq!(s.ops.lookup_hits, 300);
        assert_eq!(s.ops.lookup_misses, 1);
        assert_eq!(s.shards.len(), 4);
        assert_eq!(s.shards.iter().map(|sh| sh.ops.inserts).sum::<u64>(), 300);
        assert_eq!(s.shards.iter().map(|sh| sh.len).sum::<usize>(), t.len());
        // Caller-level batches (2) plus the per-shard sub-batches.
        assert!(s.batch_hist.count >= 2);
        assert!(s.occupancy_skew() >= 1.0);
        assert!(s.hottest_shard().is_some());
    }

    #[test]
    fn clear_empties_every_shard() {
        let t = table(2, 64, 9);
        for k in 0u64..100 {
            t.insert(k, k).unwrap();
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        for k in 0u64..100 {
            assert_eq!(t.get(&k), None);
        }
        // Reusable after clear.
        t.insert(5, 55).unwrap();
        assert_eq!(t.get(&5), Some(55));
        t.check_invariants().unwrap();
    }

    // ------------------------------------------------------------------
    // Incremental growth
    // ------------------------------------------------------------------

    #[test]
    fn split_moves_exactly_the_sibling_keys_and_loses_nothing() {
        let t = table(2, 256, 31);
        let mut keys = UniqueKeys::new(32);
        let ks = keys.take_vec(600);
        for &k in &ks {
            t.insert(k, k ^ 7).unwrap();
        }
        let before_shard0: usize = t.shard(0).len();
        let report = t.begin_split(0).unwrap();
        assert_eq!(report.parent, 0);
        assert_eq!(report.child, 2);
        assert!(!report.resumed);
        assert!(report.forwarding_cleared, "clean split must complete");
        assert_eq!(report.failed, 0);
        assert_eq!(t.shard_count(), 3);
        // Nothing lost, every key still found, and the moved keys now
        // live (exclusively) in the child.
        assert_eq!(t.len(), ks.len());
        for &k in &ks {
            assert_eq!(t.get(&k), Some(k ^ 7), "key {k} lost by split");
            assert!(t.shard(t.shard_of(&k)).contains(&k));
        }
        assert_eq!(
            t.shard(0).len() + report.moved as usize,
            before_shard0,
            "parent shrank by exactly the moved keys"
        );
        assert_eq!(t.shard(2).len(), report.moved as usize);
        t.check_invariants().unwrap();
        // Migration counters surfaced through stats.
        let s = t.stats();
        assert_eq!(s.migration.splits_started, 1);
        assert_eq!(s.migration.splits_completed, 1);
        assert_eq!(s.migration.keys_moved, report.moved);
        assert_eq!(s.migration.split_hist.count, 1);
    }

    #[test]
    fn repeated_splits_grow_until_depth_exhausts() {
        let t = table(1, 512, 33);
        for k in 0u64..300 {
            t.insert(k, k).unwrap();
        }
        // A 1-shard table owns all 8 selector bits: 8 successive splits
        // of shard 0 narrow it to a single route entry.
        for round in 0..8 {
            let report = t.begin_split(0).unwrap();
            assert!(report.forwarding_cleared, "split {round} incomplete");
            t.check_invariants().unwrap();
        }
        assert_eq!(t.shard_count(), 9);
        assert_eq!(
            t.begin_split(0),
            Err(SplitError::DepthExhausted { shard: 0 })
        );
        assert_eq!(t.len(), 300);
        for k in 0u64..300 {
            assert_eq!(t.get(&k), Some(k), "key {k} lost across 8 splits");
        }
        // All ops still behave after heavy growth.
        for k in 300u64..400 {
            t.insert(k, k).unwrap();
        }
        assert_eq!(t.len(), 400);
        t.check_invariants().unwrap();
    }

    #[test]
    fn split_errors_are_typed() {
        let t = table(2, 64, 34);
        assert_eq!(
            t.begin_split(7),
            Err(SplitError::UnknownShard {
                shard: 7,
                tables: 2
            })
        );
    }

    #[test]
    fn split_is_deterministic_for_replay() {
        // Same seed, same op sequence, same splits → identical routing
        // and identical per-shard contents (the recovery contract).
        let a = table(2, 128, 35);
        let b = table(2, 128, 35);
        for k in 0u64..400 {
            a.insert(k, k * 3).unwrap();
            b.insert(k, k * 3).unwrap();
        }
        a.begin_split(0).unwrap();
        b.begin_split(0).unwrap();
        a.begin_split(1).unwrap();
        b.begin_split(1).unwrap();
        assert_eq!(a.shard_count(), b.shard_count());
        for k in 0u64..400 {
            assert_eq!(a.shard_of(&k), b.shard_of(&k), "routing diverged at {k}");
            assert_eq!(a.get(&k), b.get(&k));
        }
        for s in 0..a.shard_count() {
            assert_eq!(a.shard(s).len(), b.shard(s).len(), "shard {s} diverged");
        }
    }

    #[test]
    fn writers_and_readers_run_through_a_split() {
        // A migration thread splits shard 0 while writers upsert and
        // readers probe; every key must be continuously visible.
        let t = std::sync::Arc::new(table(2, 2_048, 36));
        let n = 3_000u64;
        for k in 0..n {
            t.insert(k, k).unwrap();
        }
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for w in 0..2 {
                let t = t.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(100 + w);
                    while !stop.load(Ordering::Relaxed) {
                        let k = rng.next_below(n);
                        t.insert(k, k + 1_000_000).unwrap();
                    }
                });
            }
            {
                let t = t.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(200);
                    while !stop.load(Ordering::Relaxed) {
                        let keys: Vec<u64> = (0..32).map(|_| rng.next_below(n)).collect();
                        for (k, v) in keys.iter().zip(t.lookup_batch(&keys)) {
                            let v = v.unwrap_or_else(|| panic!("key {k} vanished mid-split"));
                            assert!(v == *k || v == *k + 1_000_000, "key {k}: torn value {v}");
                        }
                    }
                });
            }
            let report = t.begin_split(0).unwrap();
            assert!(report.forwarding_cleared);
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(t.len(), n as usize);
        for k in 0..n {
            let v = t.get(&k).unwrap_or_else(|| panic!("key {k} lost"));
            assert!(v == k || v == k + 1_000_000);
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn lookup_batch_never_misses_during_the_first_split() {
        // A one-table directory must still re-validate routes: a batch
        // that starts before the first split and runs through its drain
        // would otherwise probe only the draining parent.
        for seed in 0..6 {
            let t = std::sync::Arc::new(table(1, 1_024, 400 + seed));
            let keys: Vec<u64> = UniqueKeys::new(500 + seed).take_vec(2_400);
            for &k in &keys {
                t.insert(k, k ^ seed).unwrap();
            }
            let stop = std::sync::atomic::AtomicBool::new(false);
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    start.wait();
                    while !stop.load(Ordering::Acquire) {
                        for (k, v) in keys.iter().zip(t.lookup_batch(&keys)) {
                            assert_eq!(v, Some(k ^ seed), "seed {seed}: live key {k} missed");
                        }
                    }
                });
                start.wait();
                t.begin_split(0).unwrap();
                stop.store(true, Ordering::Release);
            });
            assert_eq!(t.shard_count(), 2);
        }
    }

    #[test]
    fn write_batches_keep_every_key_through_the_first_split() {
        // A batch routed on the one-table directory may reach the
        // parent's writer lock only after the first split flipped its
        // keys' routes and the drain moved some of them. Each item must
        // then notice the move and redo through the forwarding map:
        // otherwise an upsert of a moved key places a second copy in the
        // parent, and a remove misses it. The writer checks every result
        // against its own model of the table; afterwards the table holds
        // exactly that model, with no stranded copy. Only the batch in
        // flight at the flip can race it, so this takes many small splits
        // at randomised moments.
        const SPLITS: u64 = 300;
        for seed in 0..SPLITS {
            let t = table(1, 64, 0x5B17 + seed);
            let keys = UniqueKeys::new(seed).take_vec(96);
            let preload: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
            assert!(t.insert_batch(&preload).iter().all(|r| *r == Ok(false)));
            let stop = std::sync::atomic::AtomicBool::new(false);
            let start = std::sync::Barrier::new(2);
            let model = std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    let mut model: Vec<Option<u64>> = keys.iter().map(|&k| Some(k)).collect();
                    let mut rng = SplitMix64::new(seed);
                    start.wait();
                    for round in 1u64.. {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let lo = rng.next_below(keys.len() as u64) as usize;
                        let hi = lo + 1 + rng.next_below((keys.len() - lo) as u64) as usize;
                        if round % 2 == 1 {
                            let items: Vec<(u64, u64)> =
                                keys[lo..hi].iter().map(|&k| (k, k ^ round)).collect();
                            for (i, got) in (lo..hi).zip(t.insert_batch(&items)) {
                                if got != Ok(model[i].is_some()) {
                                    return Err(format!("round {round}: upsert {i} gave {got:?}"));
                                }
                                model[i] = Some(keys[i] ^ round);
                            }
                        } else {
                            for (i, got) in (lo..hi).zip(t.remove_batch(&keys[lo..hi])) {
                                if got != model[i] {
                                    return Err(format!("round {round}: remove {i} gave {got:?}"));
                                }
                                model[i] = None;
                            }
                        }
                    }
                    Ok(model)
                });
                start.wait();
                for _ in 0..SplitMix64::new(!seed).next_below(20_000) {
                    std::hint::spin_loop();
                }
                t.begin_split(0).unwrap();
                stop.store(true, Ordering::Release);
                writer.join().unwrap()
            });
            let model = model.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            t.check_invariants()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            for (k, want) in keys.iter().zip(&model) {
                assert_eq!(t.get(k), *want, "seed {seed}: key {k}");
            }
            assert_eq!(t.len(), model.iter().flatten().count(), "seed {seed}");
        }
    }

    #[test]
    fn lookup_batch_never_misses_stable_keys_under_kicking_inserts() {
        // Stage 1 of the batched read only hints lines; every decision
        // is stage 2's. A stage 2 that trusted anything stage 1 saw (say,
        // skipping a candidate whose counter read zero there) would miss
        // a stable key that a kick moved into that candidate between the
        // two stages. Stable keys fill 4 shards to 0.86 load; the writer
        // keeps pushing fresh keys to 0.93 and removing them again, so
        // its inserts kick stable keys from bucket to bucket.
        let t = std::sync::Arc::new(table(4, 512, 0x57A6E));
        let cap = t.capacity();
        let mut keys = UniqueKeys::new(0x57A6);
        let mut stable = Vec::new();
        while stable.len() < cap * 86 / 100 {
            let k = keys.next_key();
            if t.insert(k, k ^ 0x5EED).is_ok() {
                stable.push(k);
            }
        }
        let stop = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(2);
        let missed = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut fresh = UniqueKeys::new(0xF2E5);
                start.wait();
                while !stop.load(Ordering::Acquire) {
                    let mut placed = Vec::new();
                    while t.len() < cap * 93 / 100 {
                        let k = fresh.next_key();
                        match t.insert(k, k) {
                            Ok(_) => placed.push(k),
                            Err(_) => break,
                        }
                    }
                    for k in placed {
                        t.remove(&k);
                    }
                }
            });
            start.wait();
            // Stop the writer before reporting, so a miss fails the
            // test instead of hanging it.
            let mut missed = None;
            'passes: for _ in 0..400 {
                for batch in stable.chunks(3 * PIPELINE_WINDOW) {
                    for (&k, v) in batch.iter().zip(t.lookup_batch(batch)) {
                        if v != Some(k ^ 0x5EED) {
                            missed = Some(k);
                            break 'passes;
                        }
                    }
                }
            }
            stop.store(true, Ordering::Release);
            missed
        });
        assert_eq!(missed, None, "a stable key was missed");
        assert!(t.stats().kick_hist.sum > 0, "the writer never kicked");
    }

    #[test]
    fn lookup_batch_never_misses_stable_keys_under_batched_kicking_inserts() {
        // The write-side twin of the test above: the writer pushes fresh
        // keys in 4096-item `insert_batch` calls, so its kicks run inside
        // staged windows, between one window's stage 1 and the next.
        // Stable keys fill 4 shards to 0.80; each batch takes the table
        // to about 0.93, and a `remove_batch` takes it back. Readers must
        // never miss a stable key. Under `paranoid` every write validates
        // its whole shard, so table and batch shrink by 4 (1024-item
        // batches still span several windows per shard).
        const SCALE: usize = if cfg!(feature = "paranoid") { 4 } else { 1 };
        const ROUNDS: usize = 6;
        let t = std::sync::Arc::new(table(4, 2_688 / SCALE, 0xBA7C));
        let cap = t.capacity();
        let mut keys = UniqueKeys::new(0xBA7D);
        let stable: Vec<(u64, u64)> = keys
            .take_vec(cap * 80 / 100)
            .into_iter()
            .map(|k| (k, k ^ 0x5EED))
            .collect();
        assert!(t.insert_batch(&stable).iter().all(|r| r.is_ok()));
        let stop = std::sync::atomic::AtomicBool::new(false);
        let rounds = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(2);
        let missed = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut fresh = UniqueKeys::new(0xBA7E);
                start.wait();
                while !stop.load(Ordering::Acquire) {
                    let batch: Vec<(u64, u64)> = fresh
                        .take_vec(4_096 / SCALE)
                        .into_iter()
                        .map(|k| (k, k))
                        .collect();
                    let placed: Vec<u64> = batch
                        .iter()
                        .zip(t.insert_batch(&batch))
                        .filter(|(_, r)| r.is_ok())
                        .map(|(&(k, _), _)| k)
                        .collect();
                    t.remove_batch(&placed);
                    rounds.fetch_add(1, Ordering::Release);
                }
            });
            start.wait();
            // Read until the writer has run its rounds; stop it before
            // reporting, so a miss fails the test instead of hanging it.
            let mut missed = None;
            'passes: while rounds.load(Ordering::Acquire) < ROUNDS {
                for batch in stable.chunks(3 * PIPELINE_WINDOW) {
                    let ks: Vec<u64> = batch.iter().map(|&(k, _)| k).collect();
                    for (&(k, v), got) in batch.iter().zip(t.lookup_batch(&ks)) {
                        if got != Some(v) {
                            missed = Some(k);
                            break 'passes;
                        }
                    }
                }
            }
            stop.store(true, Ordering::Release);
            missed
        });
        assert_eq!(missed, None, "a stable key was missed");
        assert!(t.stats().kick_hist.sum > 0, "the writer never kicked");
        t.check_invariants().unwrap();
    }

    #[test]
    fn snapshot_mid_drain_restores_every_key_once() {
        // Simulate a mid-migration snapshot by hand-flipping the routes
        // is impractical; instead capture a *live* snapshot concurrently
        // with a real split and restore it.
        let t = std::sync::Arc::new(table(2, 1_024, 37));
        let n = 2_000u64;
        for k in 0..n {
            t.insert(k, k ^ 0xA5).unwrap();
        }
        let snap = std::thread::scope(|scope| {
            let t2 = t.clone();
            let h = scope.spawn(move || t2.snapshot_live());
            t.begin_split(0).unwrap();
            h.join().unwrap()
        });
        let r = ShardedMcCuckoo::try_from_snapshot(snap).unwrap();
        assert_eq!(r.len(), n as usize, "live snapshot lost or duped keys");
        for k in 0..n {
            assert_eq!(r.get(&k), Some(k ^ 0xA5));
        }
        r.check_invariants().unwrap();
    }

    #[test]
    fn recovery_replays_log_into_an_identical_table() {
        use crate::oplog::{parse_log, OpLog, OpRecord, VecSink};
        let t = table(2, 256, 40);
        let baseline = t.to_snapshot();
        let sink = VecSink::new();
        let log = OpLog::new(sink.clone());
        let mut keys = UniqueKeys::new(41);
        let ks = keys.take_vec(400);
        for &k in &ks {
            let v = k.wrapping_mul(7);
            t.insert(k, v).unwrap();
            log.record(&OpRecord::Insert { key: k, value: v });
        }
        for &k in ks.iter().take(50) {
            t.remove(&k);
            log.record(&OpRecord::<u64, u64>::Remove { key: k });
        }
        t.begin_split(0).unwrap();
        log.record(&OpRecord::<u64, u64>::Split { shard: 0 });
        t.insert(ks[0], 123).unwrap();
        log.record(&OpRecord::Insert {
            key: ks[0],
            value: 123,
        });
        // Recover from the empty baseline + the serialised log.
        let ops = parse_log::<u64, u64>(&sink.lines()).unwrap();
        let r = ShardedMcCuckoo::recover(baseline, &ops).unwrap();
        // Logically identical: same items, same shard layout, same
        // per-shard residency (seeds re-derive deterministically).
        assert_eq!(r.len(), t.len());
        assert_eq!(r.shard_count(), t.shard_count());
        let mut a = t.to_snapshot().items;
        let mut b = r.to_snapshot().items;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "recovered items diverge from the writer");
        for &(k, _) in &a {
            assert_eq!(r.shard_of(&k), t.shard_of(&k), "routing diverged at {k}");
        }
        for s in 0..t.shard_count() {
            assert_eq!(r.shard(s).len(), t.shard(s).len(), "shard {s} diverged");
        }
        r.check_invariants().unwrap();
        // Replay is maintenance: no user ops recorded.
        assert_eq!(r.stats().ops.inserts, 0);
    }

    #[test]
    fn recovery_errors_are_typed_not_panics() {
        use crate::oplog::{OpRecord, RecoverError};
        let t = table(2, 64, 42);
        let snap = t.to_snapshot();
        let bad_split: Vec<OpRecord<u64, u64>> = vec![OpRecord::Split { shard: 9 }];
        let err = ShardedMcCuckoo::recover(snap, &bad_split)
            .err()
            .expect("split of a nonexistent shard must be rejected");
        assert_eq!(
            err,
            RecoverError::Split {
                index: 0,
                error: SplitError::UnknownShard {
                    shard: 9,
                    tables: 2
                },
            }
        );
    }

    #[cfg(feature = "testhooks")]
    #[test]
    fn crashed_migrator_leaves_table_consistent_and_resumable() {
        let t = std::sync::Arc::new(table(2, 256, 38));
        let mut keys = UniqueKeys::new(39);
        let ks = keys.take_vec(500);
        for &k in &ks {
            t.insert(k, k + 1).unwrap();
        }
        // Crash the migrator on its 20th key visit.
        let crashed = {
            let t = t.clone();
            std::thread::spawn(move || {
                crate::testhooks::arm_panic_in_migration(20);
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.begin_split(0)));
                crate::testhooks::disarm();
                r.is_err()
            })
            .join()
            .unwrap()
        };
        assert!(crashed, "the armed hook must fire mid-drain");
        // The forwarding map keeps every key visible and the table
        // structurally consistent; writes still work.
        assert_eq!(t.len(), ks.len());
        for &k in &ks {
            assert_eq!(t.get(&k), Some(k + 1), "key {k} lost in the crash");
        }
        t.check_invariants().unwrap();
        assert_eq!(t.remove(&ks[0]), Some(ks[0] + 1));
        t.insert(ks[0], 999).unwrap();
        assert_eq!(t.get(&ks[0]), Some(999));
        // The child exists but its fill is unfinished: splitting the
        // child is refused, resuming the parent completes the drain.
        assert_eq!(
            t.begin_split(2),
            Err(SplitError::PendingInbound {
                shard: 2,
                parent: 0
            })
        );
        let report = t.begin_split(0).unwrap();
        assert!(report.resumed, "second split must resume, not re-allocate");
        assert!(report.forwarding_cleared);
        assert_eq!(t.shard_count(), 3, "resume must not allocate a 4th table");
        assert_eq!(t.len(), ks.len());
        for &k in &ks {
            let expect = if k == ks[0] { 999 } else { k + 1 };
            assert_eq!(t.get(&k), Some(expect));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn split_at_directory_cap_is_a_typed_error() {
        let t = table(1, 64, 77);
        for k in 0u64..100 {
            t.insert(k, k + 7).unwrap();
        }
        // Breadth-first: split every live table once per round, doubling
        // 1 → 2 → … → 256 (the directory's hard ceiling).
        while t.shard_count() < DIR_SIZE {
            let n = t.shard_count();
            for s in 0..n {
                let r = t.begin_split(s).unwrap();
                assert!(r.forwarding_cleared);
            }
        }
        assert_eq!(t.shard_count(), DIR_SIZE);
        // Every arena slot is live: the refusal is the full directory
        // (checked ahead of depth — at the ceiling both hold, but the
        // actionable condition is "no slot left to allocate into").
        for s in 0..DIR_SIZE {
            assert_eq!(
                t.begin_split(s),
                Err(SplitError::DirectoryFull { shard: s })
            );
        }
        // The table keeps serving at the ceiling.
        assert_eq!(t.len(), 100);
        for k in 0u64..100 {
            assert_eq!(t.get(&k), Some(k + 7));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn snapshot_split_history_restores_grown_layout_without_the_log() {
        let t = table(2, 128, 33);
        let mut keys = UniqueKeys::new(34);
        let ks = keys.take_vec(300);
        for &k in &ks {
            t.insert(k, k ^ 7).unwrap();
        }
        t.begin_split(0).unwrap();
        t.begin_split(1).unwrap();
        t.begin_split(0).unwrap();
        assert_eq!(t.shard_count(), 5);
        let snap = t.to_snapshot();
        assert_eq!(snap.format, SHARDED_SNAPSHOT_FORMAT);
        assert_eq!(snap.splits, vec![0, 1, 0]);
        // JSON round-trip, then restore with no op log at all — the
        // history alone reproduces the grown layout.
        let snap: ShardedSnapshot<u64, u64> =
            FromJson::from_json(&jsonlite::parse(&jsonlite::to_string(&snap)).unwrap()).unwrap();
        assert_eq!(snap.splits, vec![0, 1, 0]);
        let r = ShardedMcCuckoo::try_from_snapshot(snap).unwrap();
        assert_eq!(r.shard_count(), t.shard_count());
        assert_eq!(r.len(), t.len());
        for &k in &ks {
            assert_eq!(r.get(&k), Some(k ^ 7));
            assert_eq!(r.shard_of(&k), t.shard_of(&k), "routing diverged at {k}");
        }
        for s in 0..t.shard_count() {
            assert_eq!(
                r.shard(s).len(),
                t.shard(s).len(),
                "shard {s} residency diverged"
            );
        }
        r.check_invariants().unwrap();
    }

    #[test]
    fn explicit_format_1_and_2_snapshots_parse_without_split_history() {
        let t = table(2, 64, 23);
        for k in 0u64..40 {
            t.insert(k, k * 3).unwrap();
        }
        let current = jsonlite::to_string(&t.to_snapshot());
        for old in [1u32, 2] {
            // A faithful older snapshot: explicit version, no `splits`
            // field (that history is a format-3 addition).
            let json = current
                .replacen("\"format\":3", &format!("\"format\":{old}"), 1)
                .replacen("\"splits\":[],", "", 1);
            assert!(!json.contains("splits"));
            let snap: ShardedSnapshot<u64, u64> =
                FromJson::from_json(&jsonlite::parse(&json).unwrap()).unwrap();
            assert_eq!(snap.format, old);
            assert!(snap.splits.is_empty());
            let r = ShardedMcCuckoo::try_from_snapshot(snap).unwrap();
            assert_eq!(r.len(), 40);
            for k in 0u64..40 {
                assert_eq!(r.get(&k), Some(k * 3));
            }
        }
    }

    #[test]
    fn format_zero_snapshots_are_rejected() {
        let t = table(2, 64, 24);
        t.insert(5, 50).unwrap();
        let json =
            jsonlite::to_string(&t.to_snapshot()).replacen("\"format\":3", "\"format\":0", 1);
        let err =
            <ShardedSnapshot<u64, u64> as FromJson>::from_json(&jsonlite::parse(&json).unwrap())
                .unwrap_err();
        assert!(err.0.contains("format 0"), "got: {}", err.0);
    }

    #[test]
    fn retire_forwarding_without_unfinished_splits_is_a_noop() {
        let t = table(2, 64, 25);
        for k in 0u64..60 {
            t.insert(k, k).unwrap();
        }
        t.begin_split(0).unwrap(); // completes — nothing left to retire
        assert_eq!(t.forwarding_live(), 0);
        let r = t.retire_forwarding();
        assert_eq!(r, RetireReport::default());
        assert_eq!(t.stats().maint.retirements_attempted, 0);
    }

    #[cfg(feature = "testhooks")]
    #[test]
    fn failed_child_placement_is_retired_by_retire_forwarding() {
        let t = table(2, 256, 51);
        let mut keys = UniqueKeys::new(52);
        let ks = keys.take_vec(400);
        for &k in &ks {
            t.insert(k, k + 3).unwrap();
        }
        // Force every child placement to fail: the split completes
        // degraded, with the slice's keys still in the parent behind
        // live forwarding entries.
        crate::testhooks::arm_fail_child_placement(u32::MAX);
        let report = t.begin_split(0).unwrap();
        crate::testhooks::disarm();
        assert!(report.failed > 0, "the armed hook must fail placements");
        assert!(!report.forwarding_cleared);
        let live = t.forwarding_live();
        assert!(live > 0);
        assert_eq!(t.stats().maint.forwarding_live, live as u64);
        // Degraded, not broken: every key still readable two-sided.
        for &k in &ks {
            assert_eq!(t.get(&k), Some(k + 3));
        }
        // One retirement pass (hook disarmed) finishes the drain and
        // clears the forwarding entries.
        let r = t.retire_forwarding();
        assert_eq!(r.attempted, 1);
        assert_eq!(r.retired, 1);
        assert_eq!(r.failed, 0);
        assert!(r.moved > 0);
        assert_eq!(r.forwarding_live, 0);
        assert_eq!(t.forwarding_live(), 0);
        for &k in &ks {
            assert_eq!(t.get(&k), Some(k + 3));
        }
        let s = t.stats();
        assert_eq!(s.maint.retirements_attempted, 1);
        assert_eq!(s.maint.retirements_succeeded, 1);
        assert_eq!(s.maint.forwarding_live, 0);
        t.check_invariants().unwrap();
    }

    #[cfg(feature = "testhooks")]
    #[test]
    fn crashed_retirement_is_consistent_and_resumable() {
        let t = std::sync::Arc::new(table(2, 256, 53));
        let mut keys = UniqueKeys::new(54);
        let ks = keys.take_vec(400);
        for &k in &ks {
            t.insert(k, k + 9).unwrap();
        }
        // Degrade a split, then crash the *retirement* mid-drain.
        crate::testhooks::arm_fail_child_placement(u32::MAX);
        assert!(t.begin_split(0).unwrap().failed > 0);
        crate::testhooks::disarm();
        assert!(t.forwarding_live() > 0);
        let crashed = {
            let t = t.clone();
            std::thread::spawn(move || {
                crate::testhooks::arm_panic_in_migration(10);
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    t.retire_forwarding()
                }));
                crate::testhooks::disarm();
                r.is_err()
            })
            .join()
            .unwrap()
        };
        assert!(crashed, "the armed hook must fire mid-retirement");
        // Exactly like a crashed migrator: consistent, two-sided, and
        // resumable by the next pass.
        assert!(t.forwarding_live() > 0);
        assert_eq!(t.len(), ks.len());
        for &k in &ks {
            assert_eq!(t.get(&k), Some(k + 9), "key {k} lost in the crash");
        }
        t.check_invariants().unwrap();
        let r = t.retire_forwarding();
        assert_eq!(r.retired, r.attempted);
        assert_eq!(r.forwarding_live, 0);
        for &k in &ks {
            assert_eq!(t.get(&k), Some(k + 9));
        }
        t.check_invariants().unwrap();
    }

    /// A one-shard table and a key of the slice its first split hands
    /// the child (`begin_split(0)` moves routes `128..256`).
    #[cfg(feature = "testhooks")]
    fn one_shard_and_a_child_key() -> (std::sync::Arc<ShardedMcCuckoo<u64, u64>>, u64) {
        let t = std::sync::Arc::new(table(1, 64, 71));
        let k = (0u64..).find(|k| t.route_of(k) >= DIR_SIZE / 2).unwrap();
        (t, k)
    }

    #[cfg(feature = "testhooks")]
    #[test]
    fn upsert_rechecks_its_route_under_the_writer_lock() {
        // Scheduled race: an upsert snapshots the directory, then a whole
        // split runs and its drain moves the key to the child before the
        // upsert takes the parent's writer lock. The under-lock re-check
        // (`current`) must send the write to the child, where it updates
        // the moved key; without it the parent gets a fresh copy and the
        // upsert reports a placement.
        use crate::testhooks::{at_point, Point};
        let (t, k) = one_shard_and_a_child_key();
        assert_eq!(t.insert(k, 1), Ok(false));
        let split = t.clone();
        at_point(Point::RouteSnapshot, move || {
            assert_eq!(split.begin_split(0).unwrap().moved, 1);
        });
        assert_eq!(
            t.insert(k, 2),
            Ok(true),
            "a moved key's upsert is an update"
        );
        crate::testhooks::disarm();
        assert_eq!(t.shard_count(), 2);
        assert_eq!(t.get(&k), Some(2));
        assert_eq!(t.shard(1).get(&k), Some(2));
        t.check_invariants().unwrap();
    }

    #[cfg(feature = "testhooks")]
    #[test]
    fn remove_rechecks_its_route_under_the_writer_lock() {
        // Scheduled race: a remove snapshots the directory, then a whole
        // split moves the key to the child before the remove takes the
        // parent's writer lock. The under-lock re-check (`current`) must
        // send the remove to the child; without it the parent misses and
        // the key survives.
        use crate::testhooks::{at_point, Point};
        let (t, k) = one_shard_and_a_child_key();
        assert_eq!(t.insert(k, 5), Ok(false));
        let split = t.clone();
        at_point(Point::RouteSnapshot, move || {
            assert_eq!(split.begin_split(0).unwrap().moved, 1);
        });
        assert_eq!(t.remove(&k), Some(5));
        crate::testhooks::disarm();
        assert_eq!(t.get(&k), None);
        t.check_invariants().unwrap();
    }

    #[cfg(feature = "testhooks")]
    #[test]
    fn route_flip_waits_for_the_batch_holding_the_parent_lock() {
        // Scheduled race: a batch item passes its `settled` check under
        // the parent's writer lock, then a second thread starts a split.
        // Its flip must wait for that lock, so the item lands while the
        // parent still serves the slice and the drain then moves it. A
        // flip outside the lock hands the slice to the child while the
        // batch is about to write the parent.
        use crate::testhooks::{at_point, Point};
        use std::cell::Cell;
        use std::rc::Rc;
        let (t, k) = one_shard_and_a_child_key();
        let split = Rc::new(Cell::new(None));
        let (t2, split2) = (t.clone(), split.clone());
        at_point(Point::BatchSettled, move || {
            let t3 = t2.clone();
            split2.set(Some(std::thread::spawn(move || t3.begin_split(0))));
            std::thread::sleep(std::time::Duration::from_millis(100));
            assert_eq!(t2.shard_of(&k), 0, "the flip waits for the parent's lock");
        });
        assert_eq!(t.insert_batch(&[(k, 7)]), vec![Ok(false)]);
        crate::testhooks::disarm();
        let report = split.take().expect("the batch reached its point");
        assert_eq!(report.join().unwrap().unwrap().moved, 1);
        assert_eq!(t.shard_of(&k), 1);
        assert_eq!(t.shard(1).get(&k), Some(7), "served from the child");
        assert_eq!(t.shard(0).get(&k), None, "no parent copy stranded");
        assert_eq!(t.get(&k), Some(7));
        t.check_invariants().unwrap();
    }

    /// `table(1, 16, 81)` holding 30 keys, split with every child
    /// placement failing: the child-slice keys stay in the parent behind
    /// live forwarding. Returns the table and those parent-resident keys.
    #[cfg(feature = "testhooks")]
    fn forwarded_table() -> (ShardedMcCuckoo<u64, u64>, Vec<u64>) {
        let t = table(1, 16, 81);
        for k in 0u64..30 {
            assert_eq!(t.insert(k, k), Ok(false));
        }
        crate::testhooks::arm_fail_child_placement(u32::MAX);
        let report = t.begin_split(0).unwrap();
        crate::testhooks::disarm();
        let held: Vec<u64> = (0u64..30).filter(|k| t.shard_of(k) == 1).collect();
        assert!(!report.forwarding_cleared);
        // Each held key fails once, however many copies it has.
        assert_eq!(report.moved, 0);
        assert_eq!(held.len(), 13);
        assert_eq!(report.failed, 13);
        assert_eq!(t.stats().migration.move_failures, 13);
        assert!(held.iter().all(|&k| t.shard(0).get(&k) == Some(k)));
        t.check_invariants().unwrap();
        (t, held)
    }

    /// Fresh keys (none of `forwarded_table`'s) routed to the child.
    #[cfg(feature = "testhooks")]
    fn fresh_child_keys(t: &ShardedMcCuckoo<u64, u64>) -> impl Iterator<Item = u64> + '_ {
        (1_000u64..).filter(|k| t.shard_of(k) == 1)
    }

    #[cfg(feature = "testhooks")]
    #[test]
    fn forwarded_writes_reach_both_sides_of_a_retained_split() {
        let (t, held) = forwarded_table();
        assert!(held.len() >= 4, "{} parent-resident keys", held.len());
        // An upsert is born in the child and evicts the parent's copy.
        assert_eq!(t.insert(held[0], 100), Ok(true));
        assert_eq!(t.shard(1).get(&held[0]), Some(100));
        assert_eq!(t.shard(0).get(&held[0]), None);
        t.check_invariants().unwrap();
        // A remove takes the parent's copy.
        assert_eq!(t.remove(&held[1]), Some(held[1]));
        assert_eq!(t.shard(0).get(&held[1]), None);
        assert_eq!(t.shard(1).get(&held[1]), None);
        t.check_invariants().unwrap();
        // Fill the child until it holds one key per bucket, so no insert
        // into it can succeed.
        let cap = t.shard(1).capacity();
        let (mut placed, mut rejected) = (0, 0);
        for k in fresh_child_keys(&t).take(1_000) {
            if t.shard(1).len() == cap {
                break;
            }
            match t.insert(k, k) {
                Ok(updated) => (placed, rejected) = (placed + usize::from(!updated), rejected),
                Err(_) => rejected += 1,
            }
        }
        assert_eq!(
            t.shard(1).len(),
            cap,
            "{placed} placed, {rejected} rejected"
        );
        assert!(rejected > 0);
        t.check_invariants().unwrap();
        // Child full: an upsert rewrites the parent's copy in place.
        for &k in &held[2..] {
            assert_eq!(t.insert(k, k + 1), Ok(true));
            assert_eq!(t.shard(0).get(&k), Some(k + 1), "rewritten in the parent");
            assert_eq!(t.shard(1).get(&k), None);
        }
        t.check_invariants().unwrap();
    }

    #[cfg(feature = "testhooks")]
    #[test]
    fn forwarded_batches_match_a_loop_of_single_ops() {
        // Twin tables in the same retained-forwarding state: batches on
        // one, single ops on the other. Every key routes to the child, so
        // each batch runs wholly in the slow group; enough fresh keys
        // fill the child that later upserts take the child-full branch.
        let (single, held) = forwarded_table();
        let (batched, _) = forwarded_table();
        let fresh: Vec<u64> = fresh_child_keys(&single).take(60).collect();
        let half = held.len() / 2;
        let items: Vec<(u64, u64)> = (held[..half].iter())
            .chain(&fresh)
            .chain(&held[half..])
            .chain(&held[..2])
            .map(|&k| (k, k + 7))
            .collect();
        let want: Vec<_> = items.iter().map(|&(k, v)| single.insert(k, v)).collect();
        assert_eq!(batched.insert_batch(&items), want);
        assert!(want.iter().any(|r| r.is_err()), "the child filled up");
        single.check_invariants().unwrap();
        batched.check_invariants().unwrap();
        let keys: Vec<u64> = (held.iter().step_by(2))
            .chain(fresh.iter().step_by(3))
            .chain(&[held[0], 999_999])
            .copied()
            .collect();
        let want: Vec<_> = keys.iter().map(|k| single.remove(k)).collect();
        assert_eq!(batched.remove_batch(&keys), want);
        for &(k, _) in &items {
            assert_eq!(batched.get(&k), single.get(&k), "key {k}");
        }
        single.check_invariants().unwrap();
        batched.check_invariants().unwrap();
    }
}

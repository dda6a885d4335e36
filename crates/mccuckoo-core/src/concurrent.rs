//! One-writer, lock-free-reader concurrency (§III.H of the paper).
//!
//! The paper observes that McCuckoo composes naturally with MemC3-style
//! concurrency: the counters let a writer *precompute* a short cuckoo
//! path before touching the table, and the moves can then be executed
//! from the path's far end backwards so that **no item is ever absent**
//! — each item is written to its destination before its source is
//! overwritten. Multi-copy strengthens this further: overwriting a
//! redundant copy never makes its owner unavailable at all.
//!
//! # Readers
//!
//! Readers are genuinely lock-free. Each bucket is a plain cell guarded
//! by a seqlock version counter, bumped to odd before and back to even
//! after every content mutation. A probe reads the cell with a volatile
//! load into uninitialised storage, and only interprets the bytes after
//! re-reading the version and finding it unchanged and even — a torn
//! read is discarded before it is ever typed, so readers never observe
//! a half-written pair. A probe that *misses* must additionally prove it
//! did not race a relocation: an item moving from a not-yet-checked
//! candidate into an already-checked one would otherwise be invisible to
//! one unlucky pass (the classic cuckoo reader race, MemC3 §3.2), so a
//! miss is only reported once a full pass observes identical, even
//! versions before and after probing.
//!
//! Readers probe **conservatively**: the only counter-derived shortcut
//! they use is skipping counter-zero buckets (sound, because a counter
//! only becomes non-zero *after* its content is written). The
//! single-slot partition pruning is deliberately not used by concurrent
//! readers — a reader racing a counter update could otherwise prune away
//! the bucket that still holds the key. See `DESIGN.md` §4.
//!
//! # Writers: one writer lock
//!
//! Writers serialize on one cacheline-padded table mutex, as in MemC3.
//! Every write entry point takes it once and runs one body under it:
//! the existing-key check, placement by the insertion principles and,
//! on a real collision, a kick chain planned by the configured
//! [`crate::kick`] policy and then executed back to front. Planning
//! before moving is what keeps every item visible to the lock-free
//! readers, not a locking concern: the plan runs under the lock, so it
//! is exact and never needs re-validation. Batched entry points take
//! the lock once per batch. Write parallelism comes from sharding
//! ([`crate::ShardedMcCuckoo`]): each shard is its own table with its
//! own writer lock.
//!
//! The lock also guards the writer state (the kick planners' RNG
//! stream). Its guard is RAII and the mutex is `parking_lot`-style
//! unpoisonable, so a writer that panics mid-operation (see
//! `testhooks`) releases it on unwind and the table stays writable.
//!
//! Keys and values must be `Copy` (pointer-sized payloads — use
//! [`crate::MultisetIndex`]-style indirection for fat values). The
//! sequential tables' `Cell`-based meter is not `Sync`, so this type
//! carries its own relaxed-atomic access tallies instead: lookups and
//! the write paths count their modelled on-chip (counter) and off-chip
//! (bucket) accesses into [`ConcurrentMcCuckoo::mem_stats`]. Maintenance
//! scans (`items`, the validators) stay unmetered — they model no
//! data-path traffic.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU64, AtomicU8, AtomicUsize, Ordering};

use hash_kit::{BucketFamily, KeyHash, SplitMix64};
use mem_model::{InsertOutcome, InsertReport, MemStats};
use parking_lot::Mutex;

use crate::config::McConfig;
use crate::kick::{self, EvictionGraph};
use crate::obs::{InsertTally, LookupTally, Obs, TableStats};
use crate::pad::CachePadded;
use crate::single::MAX_D;

type CellArray<K, V> = Box<[UnsafeCell<Option<(K, V)>>]>;

/// Thread-safe memory-access tallies (the concurrent analogue of
/// `mem_model::MemMeter`, whose `Cell` counters are not `Sync`).
/// All updates are `Relaxed`: the counts are statistics, not
/// synchronisation, and per-thread increments commute.
#[derive(Default)]
struct AccessMeter {
    offchip_reads: AtomicU64,
    offchip_writes: AtomicU64,
    onchip_reads: AtomicU64,
    onchip_writes: AtomicU64,
}

impl AccessMeter {
    #[inline]
    fn offchip_read(&self, n: u64) {
        self.offchip_reads.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    fn offchip_write(&self, n: u64) {
        self.offchip_writes.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    fn onchip_read(&self, n: u64) {
        self.onchip_reads.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    fn onchip_write(&self, n: u64) {
        self.onchip_writes.fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> MemStats {
        MemStats {
            offchip_reads: self.offchip_reads.load(Ordering::Relaxed),
            offchip_writes: self.offchip_writes.load(Ordering::Relaxed),
            onchip_reads: self.onchip_reads.load(Ordering::Relaxed),
            onchip_writes: self.onchip_writes.load(Ordering::Relaxed),
            ..MemStats::default()
        }
    }
}

/// Lock-free-read, single-writer multi-copy cuckoo table.
///
/// ```
/// use mccuckoo_core::{ConcurrentMcCuckoo, McConfig};
/// use std::sync::Arc;
///
/// let table = Arc::new(ConcurrentMcCuckoo::<u64, u64>::new(McConfig::paper(256, 1)));
/// table.insert(10, 100).unwrap();
/// let reader = {
///     let t = table.clone();
///     std::thread::spawn(move || t.get(&10))
/// };
/// assert_eq!(reader.join().unwrap(), Some(100));
/// assert_eq!(table.remove(&10), Some(100));
/// ```
pub struct ConcurrentMcCuckoo<K, V> {
    family: BucketFamily,
    d: usize,
    n: usize,
    maxloop: u32,
    cells: CellArray<K, V>,
    counters: Box<[AtomicU8]>,
    /// Per-bucket seqlock versions: odd while a mutation is in flight.
    versions: Box<[AtomicU64]>,
    /// The one writer lock, guarding the kick planners' RNG stream.
    writer: CachePadded<Mutex<SplitMix64>>,
    distinct: CachePadded<AtomicUsize>,
    /// The configuration the table was built with (seed included),
    /// retained for snapshots.
    config: McConfig,
    /// Lock-free observability counters (monotonic; survive `clear`).
    obs: Obs,
    /// Relaxed-atomic memory-access tallies (monotonic; survive `clear`).
    access: CachePadded<AccessMeter>,
}

// SAFETY: the `UnsafeCell` buckets are written only by `write_bucket`,
// whose callers hold the writer lock, and are read either under that
// lock or through the seqlock protocol — a volatile read into
// `MaybeUninit` that is interpreted only after the bucket's version
// proves the bytes were not torn. K and V are `Copy` in every
// constructible instance, so no drop races exist.
unsafe impl<K: Send, V: Send> Sync for ConcurrentMcCuckoo<K, V> {}

/// What an upsert does when it finds the key already present.
#[derive(Clone, Copy, PartialEq, Eq)]
enum UpsertMode {
    /// Rewrite every live copy in place (the public `insert`).
    Update,
    /// Leave the existing entry untouched and report `Updated` with
    /// zero copies written — an atomic insert-if-absent, used by the
    /// shard migrator and duplicate-tolerant restores.
    KeepExisting,
    /// The caller guarantees absence (`insert_new`); presence is a
    /// bookkeeping bug, `debug_assert`ed.
    AssertAbsent,
}

/// Result of [`ConcurrentMcCuckoo::migrate_out`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MigrateOutcome {
    /// The key was handed to `transfer` and removed from this table.
    Moved,
    /// The key was no longer present (already moved or removed).
    Skipped,
    /// `transfer` declined (destination full); the key stays here.
    Failed,
}

impl<K, V> ConcurrentMcCuckoo<K, V>
where
    K: KeyHash + Eq + Copy,
    V: Copy,
{
    /// Build from a [`McConfig`] (stash and deletion-mode fields are
    /// ignored: the concurrent table always deletes by counter reset and
    /// reports failures to the caller instead of stashing).
    pub fn new(config: McConfig) -> Self {
        config.validate();
        let family = BucketFamily::new(
            config.family,
            config.d,
            config.buckets_per_table,
            config.seed,
        );
        let total = config.d * config.buckets_per_table;
        let cells: CellArray<K, V> = (0..total).map(|_| UnsafeCell::new(None)).collect();
        let counters: Box<[AtomicU8]> = (0..total).map(|_| AtomicU8::new(0)).collect();
        let versions: Box<[AtomicU64]> = (0..total).map(|_| AtomicU64::new(0)).collect();
        let rng = SplitMix64::new(config.seed ^ 0xC04C_44E4_7AB1_E000);
        Self {
            family,
            d: config.d,
            n: config.buckets_per_table,
            maxloop: config.maxloop,
            cells,
            counters,
            versions,
            writer: CachePadded::new(Mutex::new(rng)),
            distinct: CachePadded::new(AtomicUsize::new(0)),
            config,
            obs: Obs::default(),
            access: CachePadded::new(AccessMeter::default()),
        }
    }

    /// The configuration the table was built with (seed included).
    pub fn config(&self) -> &McConfig {
        &self.config
    }

    /// Snapshot of the observability counters (op counts and probe/kick
    /// histograms). Monotonic over the table's lifetime; safe to call
    /// concurrently with readers and writers.
    pub fn stats(&self) -> TableStats {
        let mut s = self.obs.snapshot();
        s.kick_policy = self.config.kick.label().to_string();
        s
    }

    /// Snapshot of the modelled memory-access tallies: off-chip bucket
    /// reads/writes and on-chip counter reads/writes, accumulated by the
    /// lookup and write paths (relaxed atomics — safe to call while
    /// readers and writers run). Stash fields are always zero: the
    /// concurrent table has no stash.
    pub fn mem_stats(&self) -> MemStats {
        self.access.snapshot()
    }

    /// Distinct keys currently stored.
    pub fn len(&self) -> usize {
        self.distinct.load(Ordering::Acquire)
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bucket count.
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// True when no writer holds the table's writer lock (test support:
    /// a panicked writer must leave it released).
    pub fn writer_idle(&self) -> bool {
        self.writer.try_lock().is_some()
    }

    #[inline]
    fn candidates(&self, key: &K) -> [usize; MAX_D] {
        let mut raw = [0usize; MAX_D];
        self.family.buckets_into(key, &mut raw[..self.d]);
        let mut out = [usize::MAX; MAX_D];
        for i in 0..self.d {
            out[i] = i * self.n + raw[i];
        }
        out
    }

    // ------------------------------------------------------------------
    // Bucket access primitives
    // ------------------------------------------------------------------

    /// Writer-side bucket mutation, bracketed by version bumps (odd
    /// while in flight). `counter` optionally updates the copy counter
    /// inside the same bracket. Caller must hold the writer lock.
    fn write_bucket(&self, idx: usize, content: Option<(K, V)>, counter: Option<u8>) {
        // The writer lock serializes writers, so the version can be
        // bumped with plain loads/stores (two lock-prefix RMWs per write
        // would double the cost of the multi-copy write fan-out). The
        // release fence keeps the odd store ahead of the content bytes
        // for any racing seqlock reader.
        let v = self.versions[idx].load(Ordering::Relaxed);
        debug_assert_eq!(v % 2, 0, "bucket {idx}: concurrent writers");
        self.versions[idx].store(v + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        // SAFETY: the writer lock is held, so this is the only writer;
        // concurrent readers validate against the odd version and
        // discard whatever bytes they raced.
        unsafe { std::ptr::write_volatile(self.cells[idx].get(), content) };
        self.access.offchip_write(1);
        if let Some(c) = counter {
            self.counters[idx].store(c, Ordering::Release);
            self.access.onchip_write(1);
        }
        self.versions[idx].store(v + 2, Ordering::Release);
    }

    /// Plain read of a bucket the caller has exclusive access to (the
    /// writer lock held, or the table quiescent).
    #[inline]
    fn cell_read_locked(&self, idx: usize) -> Option<(K, V)> {
        // SAFETY: exclusivity is the caller's contract, so no writer can
        // race this read.
        unsafe { *self.cells[idx].get() }
    }

    /// [`Self::cell_read_locked`] plus one modelled off-chip read. The
    /// mutation paths (upsert/remove/kick) read buckets through this;
    /// maintenance scans (`items`, validators) keep the unmetered
    /// variant — they model no data-path traffic.
    #[inline]
    fn cell_read_metered(&self, idx: usize) -> Option<(K, V)> {
        self.access.offchip_read(1);
        self.cell_read_locked(idx)
    }

    /// Seqlock-validated read of a bucket without the writer lock.
    /// Spins until it observes a stable even version around the load, so
    /// the returned value was fully written.
    fn cell_read_atomic(&self, idx: usize) -> Option<(K, V)> {
        loop {
            let v1 = self.versions[idx].load(Ordering::Acquire);
            if v1 % 2 == 0 {
                // SAFETY: the bytes land in `MaybeUninit`, so a torn
                // read is never typed; they are interpreted only after
                // the version check proves no writer intervened.
                let raw = unsafe {
                    std::ptr::read_volatile(
                        self.cells[idx].get().cast::<MaybeUninit<Option<(K, V)>>>(),
                    )
                };
                fence(Ordering::Acquire);
                if self.versions[idx].load(Ordering::Relaxed) == v1 {
                    return unsafe { raw.assume_init() };
                }
            }
            std::hint::spin_loop();
        }
    }

    // ------------------------------------------------------------------
    // Readers
    // ------------------------------------------------------------------

    /// Lock-free lookup. Linearizes with concurrent writes: a key
    /// committed before the call starts is always found — a miss is only
    /// reported after a probe pass bracketed by stable, even bucket
    /// versions (see module docs).
    pub fn get(&self, key: &K) -> Option<V> {
        let (found, probes) = self.get_unrecorded(key);
        self.obs.record_lookup(found.is_some(), probes);
        found
    }

    /// [`Self::get`] body with the candidate buckets precomputed (the
    /// batched path hashes every key up front so it can prefetch).
    /// Returns the probe count instead of recording it — the batched
    /// path tallies a whole batch locally and flushes the observability
    /// atomics once ([`Obs::absorb_lookups`]); access-model metering
    /// stays per-key in here.
    fn get_with_cands(&self, key: &K, cands: &[usize; MAX_D]) -> (Option<V>, u64) {
        loop {
            let mut pre = [0u64; MAX_D];
            let mut stable = true;
            for i in 0..self.d {
                pre[i] = self.versions[cands[i]].load(Ordering::Acquire);
                stable &= pre[i] % 2 == 0;
            }
            if !stable {
                std::hint::spin_loop();
                continue;
            }
            let mut probes = 0u64;
            let mut torn = false;
            for i in 0..self.d {
                let c = cands[i];
                // Counter becomes non-zero only after content is written,
                // so skipping zero is the one safe counter shortcut.
                if self.counters[c].load(Ordering::Acquire) == 0 {
                    continue;
                }
                probes += 1;
                // SAFETY: torn bytes stay untyped in `MaybeUninit` until
                // the version recheck below proves the read was stable.
                let raw = unsafe {
                    std::ptr::read_volatile(
                        self.cells[c].get().cast::<MaybeUninit<Option<(K, V)>>>(),
                    )
                };
                fence(Ordering::Acquire);
                if self.versions[c].load(Ordering::Relaxed) != pre[i] {
                    torn = true;
                    break;
                }
                if let Some((k, v)) = unsafe { raw.assume_init() } {
                    if k == *key {
                        self.access.onchip_read(self.d as u64);
                        self.access.offchip_read(probes);
                        return (Some(v), probes);
                    }
                }
            }
            if !torn {
                // Validate the miss: no bucket changed underneath the pass.
                let unchanged =
                    (0..self.d).all(|i| self.versions[cands[i]].load(Ordering::Acquire) == pre[i]);
                if unchanged {
                    self.access.onchip_read(self.d as u64);
                    self.access.offchip_read(probes);
                    return (None, probes);
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Whether `key` is stored.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Look up a batch of keys with an interleaved multi-key probe state
    /// machine: per chunk, hash every key, pick its live target buckets
    /// from the on-chip counters, issue software prefetches for their
    /// seqlock versions and cells, then run the (unchanged, lock-free)
    /// per-key probes against lines already in flight — the software
    /// analogue of the paper's FPGA pipeline. Results are positional and
    /// semantically identical to a loop over [`Self::get`], including the
    /// modelled access counts; the stage-1 counter peeks steer prefetch
    /// only and are deliberately unmetered.
    pub fn get_batch(&self, keys: &[K]) -> Vec<Option<V>> {
        self.obs.record_batch(keys.len());
        let mut tally = LookupTally::default();
        let out = self
            .get_batch_with_probes(keys)
            .into_iter()
            .map(|(found, probes)| {
                tally.record(found.is_some(), probes);
                found
            })
            .collect();
        self.obs.absorb_lookups(&tally);
        out
    }

    // ------------------------------------------------------------------
    // Writers: public entry points
    // ------------------------------------------------------------------

    /// Insert or update. Returns `Ok(true)` when an existing key was
    /// updated in place and `Ok(false)` when the key was freshly placed.
    /// Returns `Err((key, value))` when the relocation budget is
    /// exhausted — in which case, unlike the sequential random-walk,
    /// **nothing was mutated** (the path is precomputed).
    ///
    /// Safe to call from many threads at once: writers serialize on the
    /// table's writer lock while readers stay lock-free.
    pub fn insert(&self, key: K, value: V) -> Result<bool, (K, V)> {
        let out = self.upsert_unrecorded(key, value);
        self.record_upsert(&out);
        out.map(|rep| matches!(rep.outcome, InsertOutcome::Updated))
    }

    /// Upsert a whole batch under **one** acquisition of the writer lock.
    ///
    /// Results are positional: `out[i]` is what [`Self::insert`] would
    /// have returned for `items[i]`. Failed items are skipped (the table
    /// is left exactly as if their individual inserts had been rejected),
    /// so one overflow does not poison the rest of the batch. Readers
    /// remain lock-free throughout — they observe the batch item by item.
    pub fn insert_batch(&self, items: &[(K, V)]) -> Vec<Result<bool, (K, V)>> {
        self.obs.record_batch(items.len());
        // Per-item observability is tallied locally and flushed once —
        // the batched path pays one pass of atomic traffic per batch,
        // not ~5 RMWs per item.
        let mut tally = InsertTally::default();
        let out = self
            .insert_batch_unrecorded(items)
            .into_iter()
            .map(|r| {
                tally.record(r.as_ref().unwrap_or(&InsertReport::failed()));
                r.map(|rep| matches!(rep.outcome, InsertOutcome::Updated))
            })
            .collect();
        self.obs.absorb_inserts(&tally);
        out
    }

    /// Insert a key known to be absent, skipping the in-place update
    /// scan. Same failure contract as [`Self::insert`]: on `Err` nothing
    /// was mutated. Inserting a key that is already present corrupts the
    /// copy bookkeeping (`debug_assert`ed).
    pub fn insert_new(&self, key: K, value: V) -> Result<(), (K, V)> {
        let out = self.upsert(key, value, UpsertMode::AssertAbsent);
        self.record_upsert(&out);
        out.map(|_| ())
    }

    /// Remove `key` (counter-reset deletion). Returns its value.
    pub fn remove(&self, key: &K) -> Option<V> {
        let out = self.remove_unrecorded(key);
        self.obs.record_remove(out.is_some());
        out
    }

    /// Remove a whole batch of keys under **one** acquisition of the
    /// writer lock. Results are positional: `out[i]` is what
    /// [`Self::remove`] would have returned for `keys[i]` (duplicates in
    /// the batch see the earlier removal — only the first wins).
    pub fn remove_batch(&self, keys: &[K]) -> Vec<Option<V>> {
        self.obs.record_batch(keys.len());
        let out = self.remove_batch_unrecorded(keys);
        for r in &out {
            self.obs.record_remove(r.is_some());
        }
        out
    }

    /// Remove every item and zero every counter, under the writer lock;
    /// concurrent readers see each bucket cleared atomically (per-bucket
    /// seqlock brackets), so a racing lookup returns either the old
    /// value or a miss — never torn state.
    pub fn clear(&self) {
        {
            let _writer = self.writer.lock();
            for idx in 0..self.cells.len() {
                self.write_bucket(idx, None, Some(0));
            }
            self.distinct.store(0, Ordering::Release);
        }
        self.check_paranoid();
    }

    /// Every stored `(key, value)` pair, each key emitted exactly once
    /// (at its smallest copy location). Scans under the writer lock, so
    /// it observes a quiescent table. Used by snapshots.
    pub fn items(&self) -> Vec<(K, V)> {
        let _writer = self.writer.lock();
        self.items_live()
    }

    /// Exhaustive structural validation (see [`crate::invariant`]).
    ///
    /// Runs under the writer lock, so it observes a quiescent table
    /// with respect to mutations; concurrent readers are unaffected.
    pub fn check_invariants(&self) -> Result<(), String> {
        let _writer = self.writer.lock();
        self.validate_excl()
    }

    // ------------------------------------------------------------------
    // Crate-internal bodies (the sharded layer's routing, split migrator
    // and live snapshots build on these; they record no observability)
    // ------------------------------------------------------------------

    /// Unrecorded lock-free lookup, returning the probe count for the
    /// caller to record against whichever table answered.
    pub(crate) fn get_unrecorded(&self, key: &K) -> (Option<V>, u64) {
        self.get_with_cands(key, &self.candidates(key))
    }

    /// [`Self::get_batch`] body, returning per-key probe counts for the
    /// caller to tally against whichever table answered.
    pub(crate) fn get_batch_with_probes(&self, keys: &[K]) -> Vec<(Option<V>, u64)> {
        const BATCH_CHUNK: usize = 16;
        let mut out = Vec::with_capacity(keys.len());
        let mut cands_buf = [[usize::MAX; MAX_D]; BATCH_CHUNK];
        for chunk in keys.chunks(BATCH_CHUNK) {
            for (key, cands) in chunk.iter().zip(cands_buf.iter_mut()) {
                *cands = self.candidates(key);
                for &c in cands.iter().take(self.d) {
                    if self.counters[c].load(Ordering::Relaxed) != 0 {
                        crate::prefetch::prefetch_index(&self.versions, c);
                        crate::prefetch::prefetch_index(&self.cells, c);
                    }
                }
            }
            for (key, cands) in chunk.iter().zip(cands_buf.iter()) {
                out.push(self.get_with_cands(key, cands));
            }
        }
        out
    }

    /// Unrecorded upsert returning the full [`InsertReport`] — the
    /// sharded layer records exactly one op per *public* call, even
    /// when forwarding retries the op on a sibling table.
    pub(crate) fn upsert_unrecorded(&self, key: K, value: V) -> Result<InsertReport, (K, V)> {
        self.upsert(key, value, UpsertMode::Update)
    }

    /// Atomic insert-if-absent (unrecorded). `Ok(true)` means the key
    /// was freshly placed; `Ok(false)` means it was already present and
    /// the stored value was left untouched. `Err` returns the pair on a
    /// relocation-budget overflow with nothing mutated.
    pub(crate) fn insert_if_absent_unrecorded(&self, key: K, value: V) -> Result<bool, (K, V)> {
        self.upsert(key, value, UpsertMode::KeepExisting)
            .map(|rep| matches!(rep.outcome, InsertOutcome::Placed))
    }

    /// [`Self::insert_batch`] body with the full per-item
    /// [`InsertReport`]s — the sharded layer revalidates routing after
    /// the batch and records each item against whichever table finally
    /// served it.
    pub(crate) fn insert_batch_unrecorded(
        &self,
        items: &[(K, V)],
    ) -> Vec<Result<InsertReport, (K, V)>> {
        let out = {
            let mut rng = self.writer.lock();
            items
                .iter()
                .map(|&(k, v)| self.upsert_excl(&mut rng, k, v, UpsertMode::Update))
                .collect()
        };
        self.check_paranoid();
        out
    }

    /// [`Self::remove`] body.
    pub(crate) fn remove_unrecorded(&self, key: &K) -> Option<V> {
        let out = {
            let _writer = self.writer.lock();
            self.remove_excl(key, &self.candidates(key))
        };
        self.check_paranoid();
        out
    }

    /// [`Self::remove_batch`] body.
    pub(crate) fn remove_batch_unrecorded(&self, keys: &[K]) -> Vec<Option<V>> {
        let out = {
            let _writer = self.writer.lock();
            keys.iter()
                .map(|k| self.remove_excl(k, &self.candidates(k)))
                .collect()
        };
        self.check_paranoid();
        out
    }

    /// Rewrite every live copy of `key` if (and only if) it is already
    /// present; never places a fresh entry. Returns whether an update
    /// happened. Unrecorded.
    pub(crate) fn update_existing_unrecorded(&self, key: &K, value: &V) -> bool {
        let out = {
            let _writer = self.writer.lock();
            self.try_update_excl(key, value, &self.candidates(key))
                .is_some()
        };
        self.check_paranoid();
        out
    }

    /// The key stored in `bucket`, read lock-free through the seqlock
    /// (`None` when the bucket is empty). The split drain walks a parent
    /// table bucket by bucket with this and re-validates each key under
    /// the writer lock in [`Self::migrate_out`].
    pub(crate) fn key_at(&self, bucket: usize) -> Option<K> {
        if self.counters[bucket].load(Ordering::Acquire) == 0 {
            return None;
        }
        self.cell_read_atomic(bucket).map(|(k, _)| k)
    }

    /// Atomically hand one key to another table: under this table's
    /// writer lock, re-read the key, call `transfer(k, v)`, and remove
    /// the local entry only if the transfer reports success. Holding
    /// the lock across the one transfer closes the lost-update window
    /// (a concurrent upsert of the same key blocks until the move
    /// completes). Only the migration cursor holds two tables' locks at
    /// once, always source→destination, so no lock cycle can form.
    pub(crate) fn migrate_out<F: FnOnce(K, V) -> bool>(
        &self,
        key: &K,
        transfer: F,
    ) -> MigrateOutcome {
        let cands = self.candidates(key);
        let out = {
            let _writer = self.writer.lock();
            let found = cands.iter().take(self.d).find_map(|&c| {
                if self.counters[c].load(Ordering::Acquire) == 0 {
                    return None;
                }
                self.cell_read_locked(c)
                    .and_then(|(k, v)| (k == *key).then_some(v))
            });
            match found {
                None => MigrateOutcome::Skipped,
                Some(v) if transfer(*key, v) => {
                    let removed = self.remove_excl(key, &cands);
                    debug_assert!(removed.is_some(), "key vanished under the writer lock");
                    MigrateOutcome::Moved
                }
                Some(_) => MigrateOutcome::Failed,
            }
        };
        self.check_paranoid();
        out
    }

    /// Every stored pair via the lock-free seqlock read protocol — no
    /// writer lock is taken, so this can run concurrently with writers.
    /// Each bucket read is individually consistent (torn reads are
    /// discarded); the scan as a whole is a best-effort cut: exact when
    /// the table is quiescent, and any pair stable across the scan is
    /// present exactly once. Used by background snapshots.
    pub(crate) fn items_live(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for i in 0..self.cells.len() {
            let Some((k, v)) = self.cell_read_atomic(i) else {
                continue;
            };
            // Emit at the smallest candidate bucket currently holding a
            // copy, so a multi-copy key is reported once.
            let cands = self.candidates(&k);
            let mut first = usize::MAX;
            for &b in cands.iter().take(self.d) {
                if self.counters[b].load(Ordering::Acquire) == 0 {
                    continue;
                }
                if let Some((bk, _)) = self.cell_read_atomic(b) {
                    if bk == k {
                        first = first.min(b);
                    }
                }
            }
            if first == i {
                out.push((k, v));
            }
        }
        out
    }

    /// The observability recorder (the sharded layer records forwarded
    /// ops against the table that served them).
    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Record the outcome of one public upsert attempt.
    fn record_upsert(&self, out: &Result<InsertReport, (K, V)>) {
        self.obs
            .record_insert(out.as_ref().unwrap_or(&InsertReport::failed()));
    }

    #[cfg(feature = "paranoid")]
    fn check_paranoid(&self) {
        // Runs after the mutating guard has dropped: the validator takes
        // the writer lock itself, so re-entrant acquisition (and
        // deadlock) is impossible. Other writers may slip in between the
        // op and its check — every op leaves a consistent table, so the
        // validator still holds.
        self.check_invariants()
            .expect("paranoid: invariant violated after mutation");
    }

    #[cfg(not(feature = "paranoid"))]
    #[inline(always)]
    fn check_paranoid(&self) {}

    // ------------------------------------------------------------------
    // Writers: bodies run under the writer lock
    // ------------------------------------------------------------------

    /// One single-key upsert: take the writer lock, run the body.
    fn upsert(&self, key: K, value: V, mode: UpsertMode) -> Result<InsertReport, (K, V)> {
        let out = self.upsert_excl(&mut self.writer.lock(), key, value, mode);
        self.check_paranoid();
        out
    }

    /// The one write body: the existing-key check, placement by the
    /// insertion principles, and on a real collision a kick chain
    /// planned by the configured policy (`crate::kick`) and executed
    /// back to front. The plan only reads, so a rejected insert leaves
    /// the table untouched. Caller holds the writer lock; `rng` is the
    /// state it guards.
    fn upsert_excl(
        &self,
        rng: &mut SplitMix64,
        key: K,
        value: V,
        mode: UpsertMode,
    ) -> Result<InsertReport, (K, V)> {
        let cands = self.candidates(&key);
        if let Some(report) = self.existing_excl(&key, &value, &cands, mode) {
            return Ok(report);
        }
        if let Some(copies) = self.try_place_excl(&key, &value, &cands) {
            self.distinct.fetch_add(1, Ordering::AcqRel);
            return Ok(InsertReport::clean(copies));
        }
        let mut path = Vec::new();
        if !kick::plan_kick(self, self.config.kick, &key, rng, self.maxloop, &mut path) {
            return Err((key, value));
        }
        Ok(self.kick_excl(key, value, &path))
    }

    /// What `mode` does when `key` may already be present: `Some` ends
    /// the upsert with that report.
    fn existing_excl(
        &self,
        key: &K,
        value: &V,
        cands: &[usize; MAX_D],
        mode: UpsertMode,
    ) -> Option<InsertReport> {
        let copies = match mode {
            UpsertMode::Update => self.try_update_excl(key, value, cands)?,
            UpsertMode::KeepExisting if self.raw_contains_excl(key, cands) => 0,
            UpsertMode::KeepExisting => return None,
            UpsertMode::AssertAbsent => {
                debug_assert!(
                    !self.raw_contains_excl(key, cands),
                    "insert_new of a present key"
                );
                return None;
            }
        };
        Some(InsertReport::updated(copies))
    }

    /// The kick-chain executor for a chain planned under the same lock
    /// hold. Settles the terminal occupant by the insertion principles
    /// — into its empty candidates or over a redundant copy — then
    /// shifts the chain backwards (MemC3 order: destination before
    /// source, so no item is ever absent) and writes `key` into the
    /// freed front bucket as a sole copy.
    fn kick_excl(&self, key: K, value: V, path: &[usize]) -> InsertReport {
        let last = *path.last().expect("planned chains are non-empty");
        let (tk, tv) = self
            .cell_read_metered(last)
            .expect("chain buckets hold sole copies");
        #[cfg(feature = "testhooks")]
        crate::testhooks::fire_panic_in_kick();
        self.try_place_excl(&tk, &tv, &self.candidates(&tk))
            .expect("planned terminal occupant must settle");
        for w in path.windows(2).rev() {
            let item = self
                .cell_read_metered(w[0])
                .expect("chain buckets hold sole copies");
            self.write_bucket(w[1], Some(item), Some(1));
        }
        self.write_bucket(path[0], Some((key, value)), Some(1));
        self.distinct.fetch_add(1, Ordering::AcqRel);
        InsertReport {
            outcome: InsertOutcome::Placed,
            kickouts: path.len() as u32,
            collision: true,
            copies_written: 1,
        }
    }

    /// In-place update scan: rewrite every live copy of `key`. Returns
    /// the copies updated, or `None` if the key is absent. Like the
    /// readers and [`Self::remove_excl`], it reads only buckets whose
    /// counter is non-zero.
    fn try_update_excl(&self, key: &K, value: &V, cands: &[usize; MAX_D]) -> Option<u8> {
        let mut existing = [false; MAX_D];
        let mut exists = false;
        self.access.onchip_read(self.d as u64);
        for i in 0..self.d {
            if self.counters[cands[i]].load(Ordering::Acquire) == 0 {
                continue;
            }
            if matches!(self.cell_read_metered(cands[i]), Some((k, _)) if k == *key) {
                existing[i] = true;
                exists = true;
            }
        }
        if !exists {
            return None;
        }
        let mut copies = 0u8;
        for i in 0..self.d {
            if existing[i] {
                self.write_bucket(cands[i], Some((*key, *value)), None);
                copies += 1;
            }
        }
        Some(copies)
    }

    /// Unrecorded presence scan (debug assertions and restores only).
    fn raw_contains_excl(&self, key: &K, cands: &[usize; MAX_D]) -> bool {
        cands.iter().take(self.d).any(|&c| {
            self.counters[c].load(Ordering::Acquire) != 0
                && matches!(self.cell_read_locked(c), Some((k, _)) if k == *key)
        })
    }

    /// The deletion body.
    fn remove_excl(&self, key: &K, cands: &[usize; MAX_D]) -> Option<V> {
        let mut value = None;
        let mut locations = [usize::MAX; MAX_D];
        let mut count = 0usize;
        self.access.onchip_read(self.d as u64);
        for &c in cands.iter().take(self.d) {
            if self.counters[c].load(Ordering::Acquire) == 0 {
                continue;
            }
            if let Some((k, v)) = self.cell_read_metered(c) {
                if k == *key {
                    value = Some(v);
                    locations[count] = c;
                    count += 1;
                }
            }
        }
        if count > 0 {
            for &l in &locations[..count] {
                self.write_bucket(l, None, Some(0));
            }
            self.distinct.fetch_sub(1, Ordering::AcqRel);
        }
        value
    }

    /// Place copies of `key` (candidates `cands`) by the insertion
    /// principles — the table's one copy of them; returns the number of
    /// copies written, or `None` on a real collision. Ordering: contents
    /// before counters, sibling decrements before the overwrite's own
    /// counter.
    fn try_place_excl(&self, key: &K, value: &V, cands: &[usize; MAX_D]) -> Option<u8> {
        let mut cvals = [0u8; MAX_D];
        self.access.onchip_read(self.d as u64);
        for i in 0..self.d {
            cvals[i] = self.counters[cands[i]].load(Ordering::Acquire);
        }
        let mut taken = [false; MAX_D];
        let mut placed = [usize::MAX; MAX_D];
        let mut placed_len = 0usize;
        for i in 0..self.d {
            if cvals[i] == 0 {
                self.write_bucket(cands[i], Some((*key, *value)), None);
                taken[i] = true;
                placed[placed_len] = cands[i];
                placed_len += 1;
            }
        }
        loop {
            let mut best: Option<usize> = None;
            for i in 0..self.d {
                // MSRV 1.75: spelled without `Option::is_none_or`.
                if !taken[i] && cvals[i] >= 2 && best.map(|b| cvals[i] > cvals[b]).unwrap_or(true) {
                    best = Some(i);
                }
            }
            let Some(i) = best else { break };
            if placed_len as u8 + 2 > cvals[i] {
                break;
            }
            self.overwrite_excl(cands[i], cvals[i], key, value, cands, &mut cvals);
            taken[i] = true;
            placed[placed_len] = cands[i];
            placed_len += 1;
        }
        if placed_len == 0 {
            return None;
        }
        for &p in placed.iter().take(placed_len) {
            self.counters[p].store(placed_len as u8, Ordering::Release);
        }
        self.access.onchip_write(placed_len as u64);
        Some(placed_len as u8)
    }

    /// Overwrite the redundant copy at `idx` (count `vcount`), fixing the
    /// victim's siblings.
    fn overwrite_excl(
        &self,
        idx: usize,
        vcount: u8,
        key: &K,
        value: &V,
        cands: &[usize; MAX_D],
        cvals: &mut [u8; MAX_D],
    ) {
        let (vkey, _) = self.cell_read_metered(idx).expect("counter ≥ 1 ⇒ occupied");
        let vcands = self.candidates(&vkey);
        // New content first: the victim stays reachable via its siblings
        // during the whole update.
        self.write_bucket(idx, Some((*key, *value)), None);
        for &s in vcands.iter().take(self.d) {
            if s == idx {
                continue;
            }
            self.access.onchip_read(1);
            if self.counters[s].load(Ordering::Acquire) != vcount {
                continue;
            }
            // Verify content: another item may share the counter value.
            if let Some((k, _)) = self.cell_read_metered(s) {
                if k == vkey {
                    self.counters[s].store(vcount - 1, Ordering::Release);
                    self.access.onchip_write(1);
                    for i in 0..self.d {
                        if cands[i] == s {
                            cvals[i] = vcount - 1;
                        }
                    }
                }
            }
        }
    }

    /// The validator body. Caller must hold the writer lock (or
    /// otherwise guarantee no writer is active).
    fn validate_excl(&self) -> Result<(), String> {
        let total = self.cells.len();
        // 1. All seqlock versions even (no mutation in flight).
        for (i, v) in self.versions.iter().enumerate() {
            let v = v.load(Ordering::Acquire);
            if v % 2 != 0 {
                return Err(format!("bucket {i}: odd version {v} while quiescent"));
            }
        }
        // 2. Counter/content agreement per bucket, and each occupant
        // sits in one of its own candidate buckets.
        let mut occupied: Vec<(usize, K)> = Vec::new();
        for i in 0..total {
            let c = self.counters[i].load(Ordering::Acquire);
            match self.cell_read_locked(i) {
                None if c != 0 => {
                    return Err(format!("bucket {i}: counter {c} but vacant"));
                }
                Some((k, _)) if c == 0 => {
                    let _ = k; // stale content behind counter 0 is a leak
                    return Err(format!("bucket {i}: counter 0 but occupied"));
                }
                Some((k, _)) => {
                    let cands = self.candidates(&k);
                    if !cands.iter().take(self.d).any(|&b| b == i) {
                        return Err(format!("bucket {i}: occupant not a candidate"));
                    }
                    occupied.push((i, k));
                }
                None => {}
            }
        }
        // 3. All copies of a key share counter == copy count; distinct
        // count matches the scan. Copies only live among a key's own
        // candidates, so each occupied bucket is checked against its
        // occupant's d candidate buckets — linear in the table size.
        let mut distinct_seen = 0usize;
        for &(i, ref k) in &occupied {
            let cands = self.candidates(k);
            let mut copies = 0u8;
            let mut first = usize::MAX;
            for &b in cands.iter().take(self.d) {
                if self.counters[b].load(Ordering::Acquire) == 0 {
                    continue;
                }
                if let Some((bk, _)) = self.cell_read_locked(b) {
                    if bk == *k {
                        copies += 1;
                        first = first.min(b);
                    }
                }
            }
            if first == i {
                distinct_seen += 1;
            }
            let c = self.counters[i].load(Ordering::Acquire);
            if c != copies {
                return Err(format!(
                    "bucket {i}: counter {c} but occupant has {copies} copies"
                ));
            }
        }
        let distinct = self.distinct.load(Ordering::Acquire);
        if distinct != distinct_seen {
            return Err(format!(
                "distinct count {distinct} but scan found {distinct_seen}"
            ));
        }
        Ok(())
    }
}

/// The concurrent table as a planning substrate for [`crate::kick`]:
/// one slot per bucket (`l = 1`). Planners run under the writer lock,
/// so occupants are read directly and a plan is exact when it is
/// executed. This is the only kick-walk logic the concurrent table has:
/// every policy plans through the shared planners and executes through
/// `kick_excl`.
impl<K, V> EvictionGraph for ConcurrentMcCuckoo<K, V>
where
    K: KeyHash + Eq + Copy,
    V: Copy,
{
    type Key = K;

    fn d(&self) -> usize {
        self.d
    }

    fn l(&self) -> usize {
        1
    }

    fn counter(&self, slot: usize) -> u8 {
        self.counters[slot].load(Ordering::Acquire)
    }

    fn cands(&self, key: &K) -> [usize; MAX_D] {
        self.candidates(key)
    }

    fn slot_of(&self, bucket: usize, _slot: usize) -> usize {
        bucket
    }

    fn occupant(&self, slot: usize) -> Option<K> {
        self.cell_read_metered(slot).map(|(k, _)| k)
    }

    fn meter_onchip(&self, n: u64) {
        self.access.onchip_read(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use workloads::UniqueKeys;

    fn table(n: usize, seed: u64) -> ConcurrentMcCuckoo<u64, u64> {
        ConcurrentMcCuckoo::new(McConfig::paper(n, seed))
    }

    /// Under `paranoid` every mutation runs the exhaustive validator, so
    /// the volume tests scale down by this factor to stay fast.
    #[cfg(feature = "paranoid")]
    const SCALE: usize = 10;
    #[cfg(not(feature = "paranoid"))]
    const SCALE: usize = 1;

    #[test]
    fn sequential_roundtrip() {
        let t = table(1_024 / SCALE, 1);
        let mut keys = UniqueKeys::new(2);
        let ks = keys.take_vec(2_000 / SCALE);
        for &k in &ks {
            t.insert(k, k.wrapping_mul(2)).unwrap();
        }
        for &k in &ks {
            assert_eq!(t.get(&k), Some(k.wrapping_mul(2)));
        }
        assert_eq!(t.len(), 2_000 / SCALE);
        for &k in &ks {
            assert_eq!(t.remove(&k), Some(k.wrapping_mul(2)));
            assert_eq!(t.get(&k), None);
        }
        assert!(t.is_empty());
    }

    #[test]
    fn update_in_place() {
        let t = table(64, 3);
        assert_eq!(t.insert(5, 50), Ok(false), "fresh key is a placement");
        assert_eq!(t.insert(5, 51), Ok(true), "live key is an update");
        assert_eq!(t.get(&5), Some(51));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn fresh_insert_into_empty_table_reads_nothing_off_chip() {
        // Every candidate counter is 0, so the upsert's update scan must
        // skip all d buckets, as the readers and `remove_excl` do.
        let t = table(64, 3);
        t.insert(5, 50).unwrap();
        assert_eq!(t.mem_stats().offchip_reads, 0);
        // An update still reads the live copies it rewrites.
        t.insert(5, 51).unwrap();
        assert!(t.mem_stats().offchip_reads > 0);
    }

    #[test]
    fn batched_ops_match_singles() {
        let singles = table(256, 21);
        let batched = table(256, 21);
        let mut keys = UniqueKeys::new(22);
        let items: Vec<(u64, u64)> = keys.take_vec(400).into_iter().map(|k| (k, k + 7)).collect();
        let mut single_results = Vec::new();
        for &(k, v) in &items {
            single_results.push(singles.insert(k, v));
        }
        assert_eq!(batched.insert_batch(&items), single_results);
        assert_eq!(batched.len(), singles.len());
        let ks: Vec<u64> = items.iter().map(|&(k, _)| k).collect();
        assert_eq!(batched.get_batch(&ks), singles.get_batch(&ks));
        // Re-upserting the whole batch reports updates positionally.
        let bumped: Vec<(u64, u64)> = items.iter().map(|&(k, v)| (k, v + 1)).collect();
        assert!(batched.insert_batch(&bumped).iter().all(|r| *r == Ok(true)));
        // Batch removal, with a duplicate: only the first occurrence wins.
        let mut dup = ks.clone();
        dup.push(ks[0]);
        let removed = batched.remove_batch(&dup);
        assert!(removed[..ks.len()].iter().all(|r| r.is_some()));
        assert_eq!(removed[ks.len()], None, "duplicate key already removed");
        assert!(batched.is_empty());
        batched.check_invariants().unwrap();
    }

    #[test]
    fn insert_new_and_clear_roundtrip() {
        let t = table(256 / SCALE, 11);
        let mut keys = UniqueKeys::new(12);
        let ks = keys.take_vec(300 / SCALE);
        for &k in &ks {
            t.insert_new(k, k).unwrap();
        }
        assert_eq!(t.len(), ks.len());
        t.clear();
        assert!(t.is_empty());
        for &k in &ks {
            assert_eq!(t.get(&k), None);
        }
        t.check_invariants().unwrap();
        // A cleared table is fully reusable.
        for &k in &ks {
            t.insert_new(k, k + 1).unwrap();
        }
        assert_eq!(t.get(&ks[0]), Some(ks[0] + 1));
        t.check_invariants().unwrap();
    }

    #[test]
    fn failed_insert_mutates_nothing() {
        let t: ConcurrentMcCuckoo<u64, u64> =
            ConcurrentMcCuckoo::new(McConfig::paper(4, 4).with_maxloop(20));
        let mut keys = UniqueKeys::new(5);
        let mut stored = Vec::new();
        let mut failed = None;
        for _ in 0..40 {
            let k = keys.next_key();
            match t.insert(k, k) {
                Ok(_) => stored.push(k),
                Err((ek, _)) => {
                    failed = Some(ek);
                    break;
                }
            }
        }
        let failed = failed.expect("a 12-bucket table must overflow");
        assert_eq!(t.get(&failed), None, "failed insert must not be visible");
        for k in &stored {
            assert_eq!(t.get(k), Some(*k), "failure must not disturb others");
        }
    }

    #[test]
    fn every_kick_policy_drives_the_write_path() {
        use crate::config::KickPolicyKind;
        for kind in KickPolicyKind::ALL {
            let t: ConcurrentMcCuckoo<u64, u64> = ConcurrentMcCuckoo::new(
                McConfig::paper(256 / SCALE.min(4), 21).with_kick_policy(kind),
            );
            let mut keys = UniqueKeys::new(22);
            // ~78% load: plenty of real collisions, so every policy's
            // plan actually flows through the chain executor.
            let ks = keys.take_vec(600 / SCALE.min(4));
            for &k in &ks {
                t.insert(k, k ^ 1)
                    .unwrap_or_else(|_| panic!("{kind:?}: table overflowed"));
            }
            for &k in &ks {
                assert_eq!(t.get(&k), Some(k ^ 1), "{kind:?}: key lost");
            }
            let s = t.stats();
            assert_eq!(s.kick_policy, kind.label());
            assert!(s.kick_hist.count > 0, "{kind:?}: no kick was exercised");
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn kicked_inserts_plan_once_without_empty_buckets() {
        // Insert-only fill to 0.80: multi-copy placement fills every
        // bucket, so every kick chain must end on a redundant copy, and
        // a kicked insert must cost one short plan — not a `maxloop`
        // search for an empty terminal followed by a second plan.
        use crate::config::KickPolicyKind;
        for kind in KickPolicyKind::ALL {
            let t: ConcurrentMcCuckoo<u64, u64> =
                ConcurrentMcCuckoo::new(McConfig::paper(4_096, 41).with_kick_policy(kind));
            let mut keys = UniqueKeys::new(42);
            let fill: Vec<(u64, u64)> = keys
                .take_vec(t.capacity() * 4 / 5)
                .into_iter()
                .map(|k| (k, k ^ 3))
                .collect();
            assert!(t.insert_batch(&fill).iter().all(|r| r.is_ok()));
            let fresh = keys.take_vec(1_000);
            let before = t.mem_stats().offchip_reads;
            for &k in &fresh {
                t.insert(k, k ^ 3)
                    .unwrap_or_else(|_| panic!("{kind:?}: insert rejected"));
            }
            let per_insert = (t.mem_stats().offchip_reads - before) as f64 / fresh.len() as f64;
            assert!(
                per_insert <= 20.0,
                "{kind:?}: {per_insert:.1} off-chip reads per insert"
            );
            for &(k, v) in &fill {
                assert_eq!(t.get(&k), Some(v), "{kind:?}: fill key lost");
            }
            for &k in &fresh {
                assert_eq!(t.get(&k), Some(k ^ 3), "{kind:?}: fresh key lost");
            }
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn single_inserts_at_half_load_scan_once() {
        // Fill to 0.5 load with single inserts, then meter 1,000 fresh
        // single inserts. Each runs the existing-key scan once: 3.90
        // off-chip reads per insert. The bound sits below 5.51, what a
        // writer that re-runs the scan on every lock attempt reads here.
        let t = table(4_096, 51);
        let mut keys = UniqueKeys::new(52);
        for k in keys.take_vec(t.capacity() / 2) {
            t.insert(k, k).unwrap();
        }
        let fresh = keys.take_vec(1_000);
        let before = t.mem_stats().offchip_reads;
        for &k in &fresh {
            t.insert(k, k).unwrap();
        }
        let per_insert = (t.mem_stats().offchip_reads - before) as f64 / fresh.len() as f64;
        assert!(
            per_insert < 4.7,
            "{per_insert:.2} off-chip reads per insert at 0.5 load"
        );
    }

    #[test]
    fn failed_insert_mutates_nothing_under_every_policy() {
        use crate::config::KickPolicyKind;
        for kind in KickPolicyKind::ALL {
            let t: ConcurrentMcCuckoo<u64, u64> = ConcurrentMcCuckoo::new(
                McConfig::paper(4, 4)
                    .with_maxloop(20)
                    .with_kick_policy(kind),
            );
            let mut keys = UniqueKeys::new(5);
            let mut stored = Vec::new();
            let mut failed = None;
            for _ in 0..40 {
                let k = keys.next_key();
                match t.insert(k, k) {
                    Ok(_) => stored.push(k),
                    Err((ek, _)) => {
                        failed = Some(ek);
                        break;
                    }
                }
            }
            let failed = failed.unwrap_or_else(|| panic!("{kind:?}: 12 buckets must overflow"));
            assert_eq!(t.get(&failed), None, "{kind:?}: failed insert visible");
            for k in &stored {
                assert_eq!(t.get(k), Some(*k), "{kind:?}: failure disturbed others");
            }
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn one_bucket_per_table_roundtrip() {
        // Tiny tables degenerate to one bucket per sub-table and still work.
        let tiny = table(1, 14);
        tiny.insert(9, 90).unwrap();
        assert_eq!(tiny.get(&9), Some(90));
        assert!(tiny.writer_idle());
    }

    #[test]
    fn parallel_writers_on_one_table_land_all_keys() {
        // Multiple writer threads share ONE table (no sharding): they
        // serialize on its writer lock, and nothing is lost or duplicated.
        const WRITERS: u64 = 4;
        let per = 1_500 / SCALE;
        let t = std::sync::Arc::new(table(4_096 / SCALE, 31));
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let t = t.clone();
                scope.spawn(move || {
                    let mut keys = UniqueKeys::new(100 + w);
                    for k in keys.take_vec(per) {
                        t.insert(k, k ^ w).unwrap();
                    }
                });
            }
        });
        assert_eq!(t.len(), WRITERS as usize * per);
        t.check_invariants().unwrap();
        for w in 0..WRITERS {
            let mut keys = UniqueKeys::new(100 + w);
            for k in keys.take_vec(per) {
                assert_eq!(t.get(&k), Some(k ^ w));
            }
        }
    }

    #[test]
    fn readers_never_lose_stable_keys_during_writer_churn() {
        // The §III.H property: items never become unavailable during
        // relocations. Readers hammer a stable key set while the writer
        // inserts/removes churn keys that force evictions.
        let t = std::sync::Arc::new(table(2_048 / SCALE, 6));
        let mut keys = UniqueKeys::new(7);
        let stable: Vec<u64> = keys.take_vec(2_000 / SCALE);
        for &k in &stable {
            t.insert(k, k ^ 0xABCD).unwrap();
        }
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let misses = std::sync::Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for r in 0..4 {
                let t = t.clone();
                let stable = stable.clone();
                let stop = stop.clone();
                let misses = misses.clone();
                scope.spawn(move || {
                    let mut i = r;
                    while !stop.load(Ordering::Relaxed) {
                        let k = stable[i % stable.len()];
                        if t.get(&k) != Some(k ^ 0xABCD) {
                            misses.fetch_add(1, Ordering::Relaxed);
                        }
                        i += 1;
                    }
                });
            }
            // Writer: churn 20k keys through the table.
            let mut churn = UniqueKeys::new(8);
            let mut window: Vec<u64> = Vec::new();
            for _ in 0..20_000 / SCALE {
                let k = churn.next_key();
                if t.insert(k, k).is_ok() {
                    window.push(k);
                }
                if window.len() > 1_500 / SCALE {
                    let victim = window.remove(0);
                    t.remove(&victim);
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(
            misses.load(Ordering::Relaxed),
            0,
            "stable keys must never be unavailable"
        );
        for &k in &stable {
            assert_eq!(t.get(&k), Some(k ^ 0xABCD));
        }
    }

    #[test]
    fn concurrent_readers_scale_without_poisoning() {
        // Smoke test for read-read parallelism: many readers over a
        // static table agree on every answer.
        let t = std::sync::Arc::new(table(1_024 / SCALE, 9));
        let mut keys = UniqueKeys::new(10);
        let ks: Vec<u64> = keys.take_vec(2_500 / SCALE);
        for &k in &ks {
            t.insert(k, k + 1).unwrap();
        }
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let t = t.clone();
                let ks = ks.clone();
                scope.spawn(move || {
                    for &k in &ks {
                        assert_eq!(t.get(&k), Some(k + 1));
                    }
                });
            }
        });
    }
}

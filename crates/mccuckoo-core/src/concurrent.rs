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
//! Readers are genuinely lock-free. Each bucket is one 32 B slot record
//! of four atomic words: a seqlock version, bumped to odd before and
//! back to even after every content write, then the key, the value and
//! a meta word of occupancy, slot hints and the bucket's copy counter
//! ([`Word`] encodes keys and values), so a probe touches one cache
//! line. A probe loads the words and keeps
//! them only if the version is unchanged and even around the loads, so
//! a torn read is discarded and readers never observe a half-written
//! entry. A probe that *misses* must additionally prove
//! it did not race a relocation: an item moving from a not-yet-checked
//! candidate into an already-checked one would otherwise be invisible to
//! one unlucky pass (the classic cuckoo reader race, MemC3 §3.2), so a
//! miss is only reported once a full pass observes identical, even
//! versions before and after probing.
//!
//! Readers probe **conservatively** and read **no counter**: they probe
//! every candidate record and skip an empty one by its occupied byte,
//! which sits on the line the probe loads anyway. The writer's
//! counter-only stores leave that byte and the hints as they are, so
//! they need no version bump. The engine keeps `counter = 0 ⇔ vacant`
//! (a removal zeroes the counters, then empties every copy), so a
//! stable empty record is exactly the paper's counter-zero skip, and an
//! occupied one counts as one probe, as a non-zero counter did. The
//! single-slot partition pruning is deliberately not used by concurrent
//! readers — a reader racing a counter update could otherwise prune
//! away the bucket that still holds the key. See `DESIGN.md` §4.
//!
//! Batched reads run one two-stage pipeline (`read_pipeline`), shared
//! with the sharded table: stage 1 hashes a window of keys and hints
//! their candidates' slot records toward the cache, deciding nothing;
//! stage 2 runs the single-key probe above on each.
//!
//! # The writer is the engine
//!
//! Every write runs the shared [`Engine`] — the insertion principles,
//! copy-set maintenance through the Fig. 5 slot hints, the pruned copy
//! probe, the chain executor, update, deletion and the validator of
//! [`crate::McCuckoo`] — over the seqlocked slot store, whose slot
//! records the readers share. The engine sits
//! behind one cacheline-padded, unpoisonable writer mutex (MemC3), which
//! also guards its RNG and distinct count; a writer that panics (see
//! `testhooks`) releases it on unwind. The engine deletes by counter
//! reset, has no stash, and on this store plans every collision before
//! moving anything (MinCounter is planned as the random walk), so a
//! rejected insert leaves the table untouched. Its write order keeps
//! every committed item findable by the readers (`DESIGN.md`,
//! "Concurrency"). Batched entry points take the lock once per batch;
//! write parallelism comes from sharding ([`crate::ShardedMcCuckoo`]).
//!
//! Batched writes run the same stage 1 as batched reads
//! (`write_pipeline`): foresighted insertion places a key from its
//! candidates' counters and slots alone, and each candidate's counter
//! sits in its slot record, so the `d` records a read hints are every
//! line a fresh insert touches, known from the key's hash before the
//! lock is taken. Stage 1 hints a window of keys' records; stage 2 is
//! the engine's upsert or removal on the candidates stage 1 hashed
//! (`Engine::insert_staged`, `Engine::remove_staged`).
//!
//! The writer's accesses are metered once, by the engine's own meter,
//! which [`ConcurrentMcCuckoo::mem_stats`] reads under the writer lock
//! (a measurement-window call, never on an op's path). Readers meter
//! nothing: a lookup's reads are what the table records for it (`d`
//! counter reads and its probe count), so `mem_stats` derives them from
//! the table's own [`Obs`]. Probes that record nothing are unmetered:
//! maintenance (`clear`, `items`, the validators, the sharded
//! snapshot's dedup probe) and a probe whose answer the sharded layer
//! discards to redo the lookup.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hash_kit::{BucketFamily, KeyHash};
use mem_model::{InsertOutcome, InsertReport, MemStats};
use parking_lot::Mutex;

use crate::config::{DeletionMode, McConfig, StashPolicy};
use crate::engine::{candidate_buckets, Engine, MAX_D};
use crate::obs::{Obs, TableStats};
use crate::pad::CachePadded;
use crate::prefetch::Window;
use crate::single::SingleLayout;
use crate::store::{SeqCells, SeqStore, SlotStore, Word};

/// The writer: a single-slot engine over the seqlocked store.
pub(crate) type Writer<K, V> = Engine<K, V, SingleLayout, SeqStore<K, V>>;

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
    /// The writer's hash functions and geometry, for the readers.
    family: BucketFamily,
    d: usize,
    n: usize,
    /// The readers' handle on the writer's seqlocked slot records.
    cells: Arc<SeqCells<K, V>>,
    /// The one writer lock, guarding the engine that does every write.
    writer: CachePadded<Mutex<Writer<K, V>>>,
    /// The engine's length, mirrored for lock-free `len()`.
    len: CachePadded<AtomicUsize>,
    /// The caller's configuration (seed included), for snapshots.
    config: McConfig,
    /// Lock-free observability counters (monotonic; survive `clear`).
    obs: Obs,
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
    K: KeyHash + Eq + Word,
    V: Word,
{
    /// Build from a [`McConfig`] (stash and deletion-mode fields are
    /// ignored: the concurrent table always deletes by counter reset and
    /// reports failures to the caller instead of stashing).
    pub fn new(config: McConfig) -> Self {
        let writer: Writer<K, V> = Engine::from_config(
            config
                .clone()
                .with_deletion(DeletionMode::Reset)
                .with_stash(StashPolicy::None),
            SingleLayout,
        );
        Self {
            family: writer.family.clone(),
            d: writer.d,
            n: writer.n,
            cells: writer.store.share(),
            writer: CachePadded::new(Mutex::new(writer)),
            len: CachePadded::new(AtomicUsize::new(0)),
            config,
            obs: Obs::default(),
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
    /// reads/writes (verification reads included) and on-chip counter
    /// reads/writes. Writes are the writer engine's meter, read under the
    /// writer lock; reads are derived from the recorded lookups (the
    /// probe histogram's sum off-chip, `d` counter reads per lookup
    /// on-chip). Stash fields are always zero: the concurrent table has
    /// no stash.
    pub fn mem_stats(&self) -> MemStats {
        let mut m = self.writer.lock().meter.snapshot();
        let (lookups, probes) = self.obs.lookup_reads();
        m.offchip_reads += probes;
        m.onchip_reads += self.d as u64 * lookups;
        m
    }

    /// Distinct keys currently stored.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bucket count.
    pub fn capacity(&self) -> usize {
        self.cells.slots.len()
    }

    /// True when no writer holds the table's writer lock (test support:
    /// a panicked writer must leave it released).
    pub fn writer_idle(&self) -> bool {
        self.writer.try_lock().is_some()
    }

    /// Run `op` on the writer's engine under the writer lock; before
    /// unlocking, mirror the engine's length.
    pub(crate) fn write<R>(&self, op: impl FnOnce(&mut Writer<K, V>) -> R) -> R {
        let mut engine = self.writer.lock();
        let out = op(&mut engine);
        self.len.store(engine.len(), Ordering::Release);
        out
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

    /// [`Self::get`] body with the candidate buckets precomputed: stage 2
    /// of the batched pipeline, whose stage 1 hashed the key up front.
    /// Returns the probe count instead of recording it, so the caller
    /// records against the table that served the key. Meters nothing:
    /// the reads are counted where the caller records the lookup (see
    /// [`Self::mem_stats`]).
    ///
    /// Reads the `d` slot records and no counter: an occupied record is
    /// one probe, and a stable empty one is skipped as the paper skips a
    /// counter-zero bucket (the engine keeps `counter = 0 ⇔ vacant`).
    fn get_with_cands(&self, key: &K, cands: &[usize; MAX_D]) -> (Option<V>, u64) {
        let cells = &*self.cells;
        loop {
            let mut pre = [0u64; MAX_D];
            let mut stable = true;
            for i in 0..self.d {
                pre[i] = cells.version(cands[i]);
                stable &= pre[i] % 2 == 0;
            }
            if !stable {
                std::hint::spin_loop();
                continue;
            }
            let mut probes = 0u64;
            let mut torn = false;
            for i in 0..self.d {
                match cells.read_at(cands[i], pre[i]) {
                    None => {
                        torn = true;
                        break;
                    }
                    Some(None) => {}
                    Some(Some(e)) => {
                        probes += 1;
                        if e.key == *key {
                            return (Some(e.value), probes);
                        }
                    }
                }
            }
            if !torn {
                // Validate the miss: no bucket changed underneath the pass.
                let unchanged = (0..self.d).all(|i| cells.version(cands[i]) == pre[i]);
                if unchanged {
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

    /// Look up a batch of keys: the one-table case of the batched read
    /// pipeline (`read_pipeline`), whose stage 2 is the lock-free probe
    /// of [`Self::get`]. Results are positional and identical to a loop
    /// over [`Self::get`], including the modelled access counts: stage 1
    /// reads nothing.
    pub fn get_batch(&self, keys: &[K]) -> Vec<Option<V>> {
        let rec = self.obs.local();
        rec.batch(keys.len());
        let mut out = Vec::with_capacity(keys.len());
        read_pipeline(
            keys,
            |_| (Some(self), ()),
            |_, (), probed| {
                let (found, probes) = probed.expect("every key is routed here");
                rec.lookup(found.is_some(), probes);
                out.push(found);
            },
        );
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
        self.insert_report(key, value)
            .map(|rep| matches!(rep.outcome, InsertOutcome::Updated))
    }

    /// [`Self::insert`] returning the engine's full report.
    pub(crate) fn insert_report(&self, key: K, value: V) -> Result<InsertReport, (K, V)> {
        self.recorded(
            self.write(|w| w.insert_unrecorded(key, value))
                .map_err(|full| full.evicted),
        )
    }

    /// Upsert a whole batch under **one** acquisition of the writer lock.
    ///
    /// Results are positional: `out[i]` is what [`Self::insert`] would
    /// have returned for `items[i]`. Failed items are skipped (the table
    /// is left exactly as if their individual inserts had been rejected),
    /// so one overflow does not poison the rest of the batch. Readers
    /// remain lock-free throughout — they observe the batch item by item.
    /// The one-table case of `write_pipeline`.
    pub fn insert_batch(&self, items: &[(K, V)]) -> Vec<Result<bool, (K, V)>> {
        let rec = self.obs.local();
        rec.batch(items.len());
        let mut out = Vec::with_capacity(items.len());
        write_pipeline(
            items.len(),
            |i| (self, &items[i].0),
            |w, i, cands| {
                let (k, v) = items[i];
                let r = w.insert_staged(k, v, cands).map_err(|full| full.evicted);
                rec.insert(r.as_ref().unwrap_or(&InsertReport::failed()));
                out.push(r.map(|rep| matches!(rep.outcome, InsertOutcome::Updated)));
            },
        );
        out
    }

    /// Insert a key known to be absent, skipping the in-place update
    /// scan. Same failure contract as [`Self::insert`]: on `Err` nothing
    /// was mutated. Inserting a key that is already present corrupts the
    /// copy bookkeeping (`debug_assert`ed).
    pub fn insert_new(&self, key: K, value: V) -> Result<(), (K, V)> {
        self.insert_new_report(key, value).map(|_| ())
    }

    /// [`Self::insert_new`] returning the engine's full report.
    pub(crate) fn insert_new_report(&self, key: K, value: V) -> Result<InsertReport, (K, V)> {
        self.recorded(
            self.write(|w| w.insert_new_unrecorded(key, value))
                .map_err(|full| full.evicted),
        )
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
        let rec = self.obs.local();
        rec.batch(keys.len());
        let mut out = Vec::with_capacity(keys.len());
        write_pipeline(
            keys.len(),
            |i| (self, &keys[i]),
            |w, i, cands| {
                let r = w.remove_staged(&keys[i], cands);
                rec.remove(r.is_some());
                out.push(r);
            },
        );
        out
    }

    /// Remove every item and zero every counter, under the writer lock;
    /// concurrent readers see each bucket cleared atomically (per-bucket
    /// seqlock brackets), so a racing lookup returns either the old
    /// value or a miss — never torn state. Maintenance: unmetered.
    pub fn clear(&self) {
        self.write(|w| w.clear());
    }

    /// Every stored `(key, value)` pair, each key emitted exactly once
    /// (at its smallest copy location). Scans under the writer lock, so
    /// it observes a quiescent table. Used by snapshots.
    pub fn items(&self) -> Vec<(K, V)> {
        let _writer = self.writer.lock();
        self.items_live()
    }

    /// Exhaustive structural validation (see [`crate::invariant`]): the
    /// engine's validator, plus every seqlock version even.
    ///
    /// Runs under the writer lock, so it observes a quiescent table
    /// with respect to mutations; concurrent readers are unaffected.
    pub fn check_invariants(&self) -> Result<(), String> {
        let writer = self.writer.lock();
        writer.check_invariants()?;
        self.cells.quiescent()
    }

    // ------------------------------------------------------------------
    // Crate-internal bodies (the sharded layer's routing, split migrator
    // and live snapshots build on these; they record no observability)
    // ------------------------------------------------------------------

    /// Unrecorded lock-free lookup, returning the probe count for the
    /// caller to record against whichever table answered.
    pub(crate) fn get_unrecorded(&self, key: &K) -> (Option<V>, u64) {
        self.get_with_cands(key, &candidate_buckets(&self.family, self.d, self.n, key))
    }

    /// Stage 1 of the batched pipelines: `key`'s candidate buckets, with
    /// a prefetch hint for each one's slot record, which holds everything
    /// a read or the writer's engine reads of the bucket (its counter
    /// included). It reads only immutable geometry and decides nothing:
    /// stage 2 ([`Self::get_with_cands`], or the writer's staged op)
    /// probes every candidate as if no hint had been issued.
    fn stage(&self, key: &K) -> [usize; MAX_D] {
        let cands = candidate_buckets(&self.family, self.d, self.n, key);
        for &c in &cands[..self.d] {
            self.cells.prefetch(c);
        }
        cands
    }

    /// Atomic insert-if-absent (unrecorded). `Ok(true)` means the key
    /// was freshly placed; `Ok(false)` means it was already present and
    /// the stored value was left untouched. `Err` returns the pair on a
    /// relocation-budget overflow with nothing mutated.
    pub(crate) fn insert_if_absent_unrecorded(&self, key: K, value: V) -> Result<bool, (K, V)> {
        self.write(|w| {
            let cands = w.candidate_buckets(&key);
            w.insert_absent_staged(key, value, &cands)
                .map_err(|full| full.evicted)
        })
    }

    /// [`Self::remove`] body.
    pub(crate) fn remove_unrecorded(&self, key: &K) -> Option<V> {
        self.write(|w| w.remove_unrecorded(key))
    }

    /// The key stored in `bucket`, read lock-free through the seqlock
    /// (`None` when the bucket is empty). The split drain walks a parent
    /// table bucket by bucket with this and re-validates each key under
    /// the writer lock in [`Self::migrate_out`].
    pub(crate) fn key_at(&self, bucket: usize) -> Option<K> {
        self.cells.read_stable(bucket).map(|e| e.key)
    }

    /// Atomically hand one key to another table: under this table's
    /// writer lock, re-read the key, call `transfer(k, v)`, and remove
    /// the local entry only if the transfer reports success. Holding
    /// the lock across the one transfer closes the lost-update window
    /// (a concurrent upsert of the same key blocks until the move
    /// completes). Locks nest in one order — the split lock, then the
    /// parent's writer lock, then the child's — here and in the sharded
    /// layer's forwarded writes, so no lock cycle can form.
    pub(crate) fn migrate_out<F: FnOnce(K, V) -> bool>(
        &self,
        key: &K,
        transfer: F,
    ) -> MigrateOutcome {
        self.write(|w| {
            let Some(idx) = w.raw_find(key) else {
                return MigrateOutcome::Skipped;
            };
            let value = w.store.entry(idx).expect("found").value;
            if !transfer(*key, value) {
                return MigrateOutcome::Failed;
            }
            let removed = w.remove_unrecorded(key);
            debug_assert!(removed.is_some(), "key vanished under the writer lock");
            MigrateOutcome::Moved
        })
    }

    /// Every stored pair via the lock-free seqlock read protocol — no
    /// writer lock is taken, so this can run concurrently with writers.
    /// Each bucket read is individually consistent (torn reads are
    /// discarded); the scan as a whole is a best-effort cut: exact when
    /// the table is quiescent, and any pair stable across the scan is
    /// present exactly once. Used by background snapshots.
    pub(crate) fn items_live(&self) -> Vec<(K, V)> {
        let cells = &*self.cells;
        let mut out = Vec::new();
        for i in 0..cells.slots.len() {
            let Some(e) = cells.read_stable(i) else {
                continue;
            };
            // Emit at the smallest candidate bucket currently holding a
            // copy, so a multi-copy key is reported once.
            let cands = candidate_buckets(&self.family, self.d, self.n, &e.key);
            let mut first = usize::MAX;
            for &b in cands.iter().take(self.d) {
                if cells.read_stable(b).is_some_and(|be| be.key == e.key) {
                    first = first.min(b);
                }
            }
            if first == i {
                out.push((e.key, e.value));
            }
        }
        out
    }

    /// The observability recorder (the sharded layer records forwarded
    /// ops against the table that served them).
    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Record one public upsert attempt's outcome and hand it back.
    fn recorded(&self, out: Result<InsertReport, (K, V)>) -> Result<InsertReport, (K, V)> {
        self.obs
            .record_insert(out.as_ref().unwrap_or(&InsertReport::failed()));
        out
    }

    /// Table-owned memory in bytes: the slot records (version, content
    /// and counter). Engine scratch and the table's own fixed fields are
    /// not counted.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.cells.slots)
    }
}

/// The batched read pipeline over `keys`, whose lookups may each name a
/// different table. Stage 1 runs a window ahead (`Window`): `route(key)`
/// names the table serving the key (`None` leaves the key to the
/// caller) and a tag stage 2 hands back, and the routed key's candidates
/// are staged ([`ConcurrentMcCuckoo::stage`]). Stage
/// 2 probes each key in caller order
/// ([`ConcurrentMcCuckoo::get_with_cands`]) and hands
/// `emit(i, tag, probed)` its answer and probe count, unrecorded
/// (`probed` is `None` for a key left to the caller).
pub(crate) fn read_pipeline<'a, K, V, T>(
    keys: &[K],
    mut route: impl FnMut(&K) -> (Option<&'a ConcurrentMcCuckoo<K, V>>, T),
    mut emit: impl FnMut(usize, T, Option<(Option<V>, u64)>),
) where
    K: KeyHash + Eq + Word + 'a,
    V: Word + 'a,
    T: Copy + Default,
{
    let mut window = Window::new(keys.len(), |i| {
        let (table, tag) = route(&keys[i]);
        (table.map(|t| (t, t.stage(&keys[i]))), tag)
    });
    for (i, key) in keys.iter().enumerate() {
        let &(served, tag) = window.get(i);
        emit(
            i,
            tag,
            served.map(|(t, cands)| t.get_with_cands(key, &cands)),
        );
    }
}

/// The batched write pipeline, over `jobs` writes that may each name a
/// different table (`job(j)` is write `j`'s table and key). Jobs on one
/// table must be consecutive: each run of them takes that table's
/// writer lock once. Stage 1, [`ConcurrentMcCuckoo::stage`] as for
/// reads, runs a window ahead (`Window`); stage 2,
/// `op(writer, j, cands)`, writes each job in order on the candidates
/// stage 1 hashed. A window opening
/// at a run's first job is staged before that run's lock, any other
/// inside the lock of the run that reaches it (stage 1 reads only
/// immutable geometry), so a request-sized batch is wholly in flight
/// before its first lock.
pub(crate) fn write_pipeline<'a, K, V>(
    jobs: usize,
    job: impl Fn(usize) -> (&'a ConcurrentMcCuckoo<K, V>, &'a K),
    mut op: impl FnMut(&mut Writer<K, V>, usize, &[usize; MAX_D]),
) where
    K: KeyHash + Eq + Word + 'a,
    V: Word + 'a,
{
    let mut window = Window::new(jobs, |j| {
        let (table, key) = job(j);
        table.stage(key)
    });
    let mut lo = 0;
    while lo < jobs {
        let table = job(lo).0;
        let hi = (lo + 1..jobs)
            .find(|&j| !std::ptr::eq(job(j).0, table))
            .unwrap_or(jobs);
        window.get(lo);
        table.write(|w| {
            for j in lo..hi {
                op(w, j, window.get(j));
            }
        });
        lo = hi;
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
        // Every candidate counter is 0, so the upsert's copy probe must
        // skip all d buckets, as the readers do.
        let t = table(64, 3);
        t.insert(5, 50).unwrap();
        assert_eq!(t.mem_stats().offchip_reads, 0);
        // An update still reads the live copies it rewrites.
        t.insert(5, 51).unwrap();
        assert!(t.mem_stats().offchip_reads > 0);
    }

    #[test]
    fn writes_match_the_sequential_engine_op_for_op() {
        // One write path: the writer is the engine, so a write-only
        // stream gives the same reports, items and metered accesses as a
        // plain `McCuckoo` with the configuration the concurrent table
        // builds its engine with (counter-reset deletion, no stash). The
        // planned policies take the same path on both stores.
        use crate::config::{DeletionMode, KickPolicyKind, StashPolicy};
        use crate::McCuckoo;
        use hash_kit::SplitMix64;
        use std::collections::VecDeque;
        for kind in [KickPolicyKind::Bfs, KickPolicyKind::Bubble] {
            let config = McConfig::paper(1_024 / SCALE, 61).with_kick_policy(kind);
            let mut plain: McCuckoo<u64, u64> = McCuckoo::new(
                config
                    .clone()
                    .with_deletion(DeletionMode::Reset)
                    .with_stash(StashPolicy::None),
            );
            let conc = ConcurrentMcCuckoo::<u64, u64>::new(config);
            let mut keys = UniqueKeys::new(62);
            let mut rng = SplitMix64::new(63);
            let mut live: VecDeque<u64> = VecDeque::new();
            let target = conc.capacity() * 4 / 5;
            for step in 0..5 * target as u64 {
                // Fill to 0.80, then churn: remove the oldest key, insert
                // a fresh one, or update a live one.
                let op = if step < target as u64 {
                    1
                } else {
                    rng.next_below(3)
                };
                if op == 0 {
                    let k = live.pop_front().expect("table is loaded");
                    assert_eq!(plain.remove(&k), conc.remove_unrecorded(&k), "{kind:?}");
                    continue;
                }
                let k = if op == 1 {
                    keys.next_key()
                } else {
                    live[rng.next_below(live.len() as u64) as usize]
                };
                let want = plain.insert(k, step).map_err(|full| full.evicted);
                let got = conc.insert_report(k, step);
                assert_eq!(got, want, "{kind:?}: step {step}");
                if op == 1 && got.is_ok() {
                    live.push_back(k);
                }
            }
            let mut want: Vec<(u64, u64)> = plain.iter().map(|(&k, &v)| (k, v)).collect();
            let mut got = conc.items();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "{kind:?}");
            assert_eq!(conc.mem_stats(), plain.meter().snapshot(), "{kind:?}");
            conc.check_invariants().unwrap();
        }
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
        // single inserts. Each runs the engine's pruned copy probe once:
        // 2.16 off-chip reads per insert (3.90 for a scan of every live
        // candidate). The bound sits below 5.51, what a writer that
        // re-runs the scan on every lock attempt reads here.
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
    fn mem_bytes_counts_slot_records() {
        // One shard of the 16-shard DRAM benchmark table: 3 × 680,000
        // buckets, each a 32 B slot record that holds its bucket's
        // counter too. Writes allocate nothing the count covers.
        let t = table(680_000, 1);
        let want = 2_040_000 * 32;
        assert_eq!(t.mem_bytes(), want);
        assert_eq!(want, 65_280_000);
        t.insert(1, 1).unwrap();
        assert_eq!(t.mem_bytes(), want);
    }

    /// The `VmFlags` of the mapping that holds `addr`, from this
    /// process's `/proc/self/smaps`.
    #[cfg(target_os = "linux")]
    fn vm_flags(addr: usize) -> Option<String> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
        let mut inside = false;
        for line in smaps.lines() {
            // Mapping headers start `lo-hi perms …` in hex; field lines
            // (`Size:`, `VmFlags:`, …) follow their mapping's header.
            let range = line.split_whitespace().next()?;
            if let Some((lo, hi)) = range.split_once('-') {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    inside = (lo..hi).contains(&addr);
                    continue;
                }
            }
            if inside {
                if let Some(flags) = line.strip_prefix("VmFlags:") {
                    return Some(flags.trim().to_string());
                }
            }
        }
        None
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn slot_plane_asks_for_huge_pages() {
        match std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled") {
            Ok(mode) if !mode.contains("[never]") => {}
            mode => {
                println!("skipped: transparent huge pages are off ({mode:?})");
                return;
            }
        }
        // 3 × 50,000 buckets of 32 B slot records: a 4.8 MB plane holds
        // at least one whole 2 MiB-aligned page. The advice marks the
        // mapping `hg` (VM_HUGEPAGE) whatever pages the kernel grants.
        let t = table(50_000, 1);
        let plane = t.cells.slots.as_ptr() as usize;
        assert!(std::mem::size_of_val(&*t.cells.slots) >= 4 << 20);
        let page = plane.next_multiple_of(2 << 20);
        let flags = vm_flags(page).expect("the slot plane is mapped");
        assert!(
            flags.split_whitespace().any(|f| f == "hg"),
            "slot plane at {plane:#x} not advised for huge pages: VmFlags {flags}"
        );
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

//! One interface over every table variant.
//!
//! [`McTable`] is the object-safe trait implemented by
//! [`McCuckoo`](crate::McCuckoo), [`BlockedMcCuckoo`](crate::BlockedMcCuckoo),
//! [`ConcurrentMcCuckoo`](crate::ConcurrentMcCuckoo),
//! [`ShardedMcCuckoo`](crate::ShardedMcCuckoo) and the baseline tables
//! in `cuckoo-baselines`, so harnesses (the differential-fuzzing testkit),
//! benchmarks and examples drive every variant through a single surface
//! instead of per-table match arms.
//!
//! Design notes:
//!
//! * `insert`/`insert_new` return a plain [`InsertReport`]: a rejected
//!   insertion surfaces as [`InsertOutcome::Failed`](mem_model::InsertOutcome::Failed) in the report rather
//!   than an `Err` carrying the evicted pair — callers that need the
//!   evicted item back use the inherent per-table APIs.
//! * `lookup` returns an owned `Option<V>` so that lock-free tables
//!   (whose reads cannot hand out references into seqlocked cells)
//!   implement the same signature as the sequential ones.
//! * Tables without a stash or an access meter inherit the defaulted
//!   `stash_len`/`refresh_stash`/`mem_stats` no-ops.
//! * The trait is object-safe: `Box<dyn McTable<u64, u64>>` is the shape
//!   the benchmark harness stores.

use mem_model::{InsertReport, MemStats};

use crate::engine::{BucketLayout, Engine};
use crate::obs::TableStats;
use crate::store::Word;

/// Uniform mutable-table interface over the multi-copy cuckoo variants
/// and the single-copy baselines.
pub trait McTable<K, V> {
    /// Insert or update (upsert). A rejected insertion reports
    /// [`InsertOutcome::Failed`](mem_model::InsertOutcome::Failed); the item is then not stored.
    fn insert(&mut self, key: K, value: V) -> InsertReport;

    /// Insert a key the caller guarantees is absent (skips the update
    /// scan). Same failure contract as [`McTable::insert`].
    fn insert_new(&mut self, key: K, value: V) -> InsertReport;

    /// Look up `key`, returning its value by clone/copy.
    fn lookup(&self, key: &K) -> Option<V>;

    /// Look up a whole batch of keys, returning one result per key in
    /// order. Semantically exactly `keys.iter().map(|k| lookup(k))` —
    /// same hits, same misses, same metered access counts — but
    /// implementors override it with a two-stage pipeline (stage 1
    /// hashes a window of keys and prefetches their candidates' lines,
    /// stage 2 runs the single-key lookup on each) that hides memory
    /// latency the way the paper's FPGA pipeline does.
    fn lookup_batch(&self, keys: &[K]) -> Vec<Option<V>> {
        keys.iter().map(|k| self.lookup(k)).collect()
    }

    /// Remove `key`, returning the stored value if it was present.
    fn remove(&mut self, key: &K) -> Option<V>;

    /// Remove every stored item, resetting the table to its freshly
    /// built state (same capacity, same hash functions).
    fn clear(&mut self);

    /// Distinct keys currently stored (main table and stash).
    fn len(&self) -> usize;

    /// Total slot count of the main table.
    fn capacity(&self) -> usize;

    /// Whether `key` is stored.
    fn contains(&self, key: &K) -> bool {
        self.lookup(key).is_some()
    }

    /// True if nothing is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Load factor: `len / capacity`.
    fn load(&self) -> f64 {
        self.len() as f64 / self.capacity() as f64
    }

    /// Items currently in the stash (0 for stash-less tables).
    fn stash_len(&self) -> usize {
        0
    }

    /// Re-offer stashed items to the main table; returns how many moved
    /// back (0 for stash-less tables).
    fn refresh_stash(&mut self) -> usize {
        0
    }

    /// Snapshot of the table's memory-access counters (all-zero for
    /// unmetered tables).
    fn mem_stats(&self) -> MemStats {
        MemStats::default()
    }

    /// Snapshot of the table's observability counters (op counts,
    /// probe/kick/batch histograms, per-shard breakdown where
    /// applicable). Counters are monotonic for the table's lifetime —
    /// [`McTable::clear`] does not reset them.
    fn stats(&self) -> TableStats {
        TableStats::default()
    }
}

impl<K: hash_kit::KeyHash + Eq + Clone, V: Clone, L: BucketLayout> McTable<K, V>
    for Engine<K, V, L>
{
    fn insert(&mut self, key: K, value: V) -> InsertReport {
        Engine::insert(self, key, value).unwrap_or_else(|full| full.report)
    }

    fn insert_new(&mut self, key: K, value: V) -> InsertReport {
        Engine::insert_new(self, key, value).unwrap_or_else(|full| full.report)
    }

    fn lookup(&self, key: &K) -> Option<V> {
        self.get(key).cloned()
    }

    fn lookup_batch(&self, keys: &[K]) -> Vec<Option<V>> {
        Engine::lookup_batch(self, keys)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        Engine::remove(self, key)
    }

    fn clear(&mut self) {
        Engine::clear(self);
    }

    fn len(&self) -> usize {
        Engine::len(self)
    }

    fn capacity(&self) -> usize {
        Engine::capacity(self)
    }

    fn contains(&self, key: &K) -> bool {
        Engine::contains(self, key)
    }

    fn stash_len(&self) -> usize {
        Engine::stash_len(self)
    }

    fn refresh_stash(&mut self) -> usize {
        Engine::refresh_stash(self)
    }

    fn mem_stats(&self) -> MemStats {
        self.meter().snapshot()
    }

    fn stats(&self) -> TableStats {
        Engine::stats(self)
    }
}

impl<K: hash_kit::KeyHash + Eq + Word, V: Word> McTable<K, V> for crate::ConcurrentMcCuckoo<K, V> {
    fn insert(&mut self, key: K, value: V) -> InsertReport {
        self.insert_report(key, value)
            .unwrap_or_else(|_| InsertReport::failed())
    }

    fn insert_new(&mut self, key: K, value: V) -> InsertReport {
        self.insert_new_report(key, value)
            .unwrap_or_else(|_| InsertReport::failed())
    }

    fn lookup(&self, key: &K) -> Option<V> {
        self.get(key)
    }

    fn lookup_batch(&self, keys: &[K]) -> Vec<Option<V>> {
        self.get_batch(keys)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        crate::ConcurrentMcCuckoo::remove(self, key)
    }

    fn clear(&mut self) {
        crate::ConcurrentMcCuckoo::clear(self);
    }

    fn len(&self) -> usize {
        crate::ConcurrentMcCuckoo::len(self)
    }

    fn capacity(&self) -> usize {
        crate::ConcurrentMcCuckoo::capacity(self)
    }

    fn mem_stats(&self) -> MemStats {
        crate::ConcurrentMcCuckoo::mem_stats(self)
    }

    fn stats(&self) -> TableStats {
        crate::ConcurrentMcCuckoo::stats(self)
    }
}

impl<K: hash_kit::KeyHash + Eq + Word, V: Word> McTable<K, V> for crate::ShardedMcCuckoo<K, V> {
    fn insert(&mut self, key: K, value: V) -> InsertReport {
        self.insert_report(key, value)
            .unwrap_or_else(|_| InsertReport::failed())
    }

    fn insert_new(&mut self, key: K, value: V) -> InsertReport {
        self.insert_report(key, value)
            .unwrap_or_else(|_| InsertReport::failed())
    }

    fn lookup(&self, key: &K) -> Option<V> {
        self.get(key)
    }

    fn lookup_batch(&self, keys: &[K]) -> Vec<Option<V>> {
        crate::ShardedMcCuckoo::lookup_batch(self, keys)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        crate::ShardedMcCuckoo::remove(self, key)
    }

    fn clear(&mut self) {
        crate::ShardedMcCuckoo::clear(self);
    }

    fn len(&self) -> usize {
        crate::ShardedMcCuckoo::len(self)
    }

    fn capacity(&self) -> usize {
        crate::ShardedMcCuckoo::capacity(self)
    }

    fn mem_stats(&self) -> MemStats {
        crate::ShardedMcCuckoo::mem_stats(self)
    }

    fn stats(&self) -> TableStats {
        crate::ShardedMcCuckoo::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked::BlockedConfig;
    use crate::{BlockedMcCuckoo, ConcurrentMcCuckoo, McConfig, McCuckoo, ShardedMcCuckoo};
    use mem_model::InsertOutcome;

    /// The whole point of the trait: one generic driver for every table.
    fn exercise<T: McTable<u64, u64>>(t: &mut T) {
        assert!(t.is_empty());
        for k in 1..=50u64 {
            assert!(t.insert_new(k, k * 10).stored());
        }
        assert_eq!(t.len(), 50);
        assert_eq!(t.lookup(&7), Some(70));
        assert_eq!(t.lookup(&51), None);
        let r = t.insert(7, 71);
        assert_eq!(r.outcome, InsertOutcome::Updated);
        assert_eq!(t.lookup(&7), Some(71));
        assert_eq!(t.remove(&7), Some(71));
        assert!(!t.contains(&7));
        assert!(t.load() > 0.0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.lookup(&8), None);
    }

    #[test]
    fn one_driver_fits_all_core_tables() {
        let mut single: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper_with_deletion(128, 1));
        exercise(&mut single);
        let mut blocked: BlockedMcCuckoo<u64, u64> = BlockedMcCuckoo::new(BlockedConfig {
            base: McConfig::paper_with_deletion(64, 2),
            slots: 2,
        });
        exercise(&mut blocked);
    }

    #[test]
    fn trait_is_object_safe() {
        let mut boxed: Box<dyn McTable<u64, u64>> = Box::new(McCuckoo::<u64, u64>::new(
            McConfig::paper_with_deletion(128, 3),
        ));
        boxed.insert_new(5, 50);
        assert_eq!(boxed.lookup(&5), Some(50));
        assert_eq!(boxed.stash_len(), 0);
        assert!(boxed.mem_stats().offchip_writes > 0);
    }

    #[test]
    fn stats_expose_the_kick_policy_label() {
        use crate::KickPolicyKind;
        for kind in KickPolicyKind::ALL {
            let cfg = McConfig::paper(64, 6).with_kick_policy(kind);
            let single: Box<dyn McTable<u64, u64>> =
                Box::new(McCuckoo::<u64, u64>::new(cfg.clone()));
            assert_eq!(single.stats().kick_policy, kind.label());
            let conc: Box<dyn McTable<u64, u64>> =
                Box::new(ConcurrentMcCuckoo::<u64, u64>::new(cfg.clone()));
            assert_eq!(conc.stats().kick_policy, kind.label());
            let sharded: Box<dyn McTable<u64, u64>> =
                Box::new(ShardedMcCuckoo::<u64, u64>::new(2, cfg));
            assert_eq!(sharded.stats().kick_policy, kind.label());
        }
    }

    /// Fill `t` to 90 % of its slots through the trait, half by upsert
    /// and half by fresh insert: the fill kicks, and the kick-outs its
    /// reports carry sum to the kicks `stats()` recorded.
    fn reports_carry_the_recorded_kicks<T: McTable<u64, u64>>(t: &mut T) {
        let kicks0 = t.stats().ops.kicks;
        let mut kicks = 0u64;
        for k in 0..t.capacity() as u64 * 9 / 10 {
            let rep = if k % 2 == 0 {
                t.insert(k, k)
            } else {
                t.insert_new(k, k)
            };
            kicks += u64::from(rep.kickouts);
        }
        assert!(kicks > 0, "a 90 % fill must kick");
        assert_eq!(kicks, t.stats().ops.kicks - kicks0);
    }

    #[test]
    fn concurrent_table_conforms() {
        // The concurrent upsert distinguishes `Updated` from `Placed`
        // like every other implementor, so the shared driver applies.
        let mut t = ConcurrentMcCuckoo::<u64, u64>::new(McConfig::paper(128, 4));
        exercise(&mut t);
        let m = McTable::mem_stats(&t);
        assert!(m.offchip_writes > 0, "inserts must meter bucket writes");
        assert!(m.offchip_reads > 0, "lookups must meter bucket reads");
        assert!(m.onchip_reads > 0, "lookups must meter counter consults");
        assert!(m.onchip_writes > 0, "placements must meter counter writes");
        reports_carry_the_recorded_kicks(&mut t);
    }

    #[test]
    fn sharded_table_conforms() {
        let mut t = ShardedMcCuckoo::<u64, u64>::new(4, McConfig::paper(64, 5));
        exercise(&mut t);
        let m = McTable::mem_stats(&t);
        assert!(m.offchip_writes > 0, "inserts must meter bucket writes");
        assert!(m.offchip_reads > 0, "lookups must meter bucket reads");
        reports_carry_the_recorded_kicks(&mut t);
    }
}

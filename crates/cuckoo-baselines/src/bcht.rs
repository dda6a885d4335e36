//! Blocked Cuckoo Hash Table (BCHT) — Erlingsson, Manasse & McSherry's
//! "cool and practical alternative" (paper ref \[18\]): `d` hash functions,
//! `l` slots per bucket. This is the paper's "BCHT" baseline (3 hashes ×
//! 3 slots in the experiments).
//!
//! Set-associativity within a bucket absorbs most collisions, so BCHT
//! reaches far higher load than plain cuckoo before kick-outs start
//! (Table I: first collision at ~46% vs ~9%). One bucket (all `l` slots)
//! is fetched per off-chip access, per the paper's assumption from
//! ref \[33\].

use hash_kit::{BucketFamily, FamilyKind, KeyHash, SplitMix64};
use mccuckoo_core::obs::Obs;
use mccuckoo_core::prefetch::huge_plane;
use mccuckoo_core::{McTable, TableStats};
use mem_model::{InsertOutcome, InsertReport, MemMeter};

/// Configuration of a [`Bcht`].
#[derive(Debug, Clone)]
pub struct BchtConfig {
    /// Number of hash functions / sub-tables.
    pub d: usize,
    /// Slots per bucket.
    pub slots: usize,
    /// Buckets per sub-table; capacity is `d * buckets_per_table * slots`.
    pub buckets_per_table: usize,
    /// Kick-out budget.
    pub maxloop: u32,
    /// Hash family construction.
    pub family: FamilyKind,
    /// Master seed.
    pub seed: u64,
}

impl BchtConfig {
    /// The paper's setup: 3 hash functions, 3 slots, random-walk,
    /// maxloop 500.
    pub fn paper(buckets_per_table: usize, seed: u64) -> Self {
        Self {
            d: 3,
            slots: 3,
            buckets_per_table,
            maxloop: 500,
            family: FamilyKind::Independent,
            seed,
        }
    }
}

/// Insertion failure: budget exhausted; `evicted` fell out of the table.
#[derive(Debug)]
pub struct BchtFull<K, V> {
    /// The item that could not be placed.
    pub evicted: (K, V),
    /// Instrumentation of the failed insertion.
    pub report: InsertReport,
}

#[derive(Debug)]
struct Entry<K, V> {
    key: K,
    value: V,
}

/// Blocked cuckoo hash table: `d` sub-tables of buckets holding `l` slots.
///
/// Like [`crate::DaryCuckoo`], keys are assumed distinct.
#[derive(Debug)]
pub struct Bcht<K, V> {
    family: BucketFamily,
    d: usize,
    slots: usize,
    n: usize,
    maxloop: u32,
    /// Flat storage: `(table * n + bucket) * slots + slot`.
    entries: Vec<Option<Entry<K, V>>>,
    len: usize,
    rng: SplitMix64,
    meter: MemMeter,
    obs: Obs,
}

impl<K: KeyHash + Eq, V> Bcht<K, V> {
    /// Build a table from `config`.
    ///
    /// # Panics
    /// Panics if `d < 2`, `slots == 0`, or `buckets_per_table == 0`.
    pub fn new(config: BchtConfig) -> Self {
        assert!(config.d >= 2, "cuckoo hashing needs at least 2 functions");
        assert!(config.slots >= 1, "buckets need at least one slot");
        assert!(config.buckets_per_table > 0, "table must be non-empty");
        let family = BucketFamily::new(
            config.family,
            config.d,
            config.buckets_per_table,
            config.seed,
        );
        let total = config.d * config.buckets_per_table * config.slots;
        let entries = huge_plane(total, || None);
        Self {
            family,
            d: config.d,
            slots: config.slots,
            n: config.buckets_per_table,
            maxloop: config.maxloop,
            entries,
            len: 0,
            rng: SplitMix64::new(config.seed ^ 0xB10C_4ED5_1077_ED01),
            meter: MemMeter::new(),
            obs: Obs::default(),
        }
    }

    /// Number of hash functions.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Slots per bucket.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Load ratio: items / total slots.
    pub fn load_ratio(&self) -> f64 {
        self.len as f64 / self.capacity() as f64
    }

    /// Access meter.
    pub fn meter(&self) -> &MemMeter {
        &self.meter
    }

    /// Observability snapshot (op counters, probe/kick histograms).
    pub fn stats(&self) -> TableStats {
        self.obs.snapshot()
    }

    /// Global bucket id of candidate `i` (not slot-resolved).
    #[inline]
    fn bucket_id(&self, key: &K, i: usize) -> usize {
        i * self.n + self.family.bucket(key, i)
    }

    #[inline]
    fn slot_range(&self, bucket_id: usize) -> std::ops::Range<usize> {
        bucket_id * self.slots..(bucket_id + 1) * self.slots
    }

    /// Find a free slot in `bucket_id`, if any.
    fn free_slot(&self, bucket_id: usize) -> Option<usize> {
        self.slot_range(bucket_id)
            .find(|&s| self.entries[s].is_none())
    }

    /// Insert a fresh key.
    pub fn insert(&mut self, key: K, value: V) -> Result<InsertReport, BchtFull<K, V>> {
        let out = self.insert_tracked(key, value, None);
        match &out {
            Ok(report) => self.obs.record_insert(report),
            Err(full) => self.obs.record_insert(&full.report),
        }
        out
    }

    /// The insertion body. When `trail` is supplied, every kick's victim
    /// slot is recorded in walk order so a failed walk can be unwound
    /// ([`Self::unwind_failed_walk`]).
    fn insert_tracked(
        &mut self,
        key: K,
        value: V,
        mut trail: Option<&mut Vec<usize>>,
    ) -> Result<InsertReport, BchtFull<K, V>> {
        // Probe candidate buckets in order: one read per bucket.
        let cands: Vec<usize> = (0..self.d).map(|i| self.bucket_id(&key, i)).collect();
        for &b in &cands {
            self.meter.offchip_read(1);
            if let Some(s) = self.free_slot(b) {
                self.entries[s] = Some(Entry { key, value });
                self.meter.offchip_write(1);
                self.len += 1;
                return Ok(InsertReport::clean(1));
            }
        }
        // All candidate buckets full: random-walk over slots.
        let mut kickouts = 0u32;
        let mut carried = Entry { key, value };
        let mut cands = cands;
        let mut prev_bucket = usize::MAX;
        loop {
            if kickouts >= self.maxloop {
                return Err(BchtFull {
                    evicted: (carried.key, carried.value),
                    report: InsertReport {
                        outcome: InsertOutcome::Failed,
                        kickouts,
                        collision: true,
                        copies_written: 0,
                    },
                });
            }
            let choices: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&b| b != prev_bucket)
                .collect();
            let victim_bucket = choices[self.rng.next_below(choices.len() as u64) as usize];
            let victim_slot =
                victim_bucket * self.slots + self.rng.next_below(self.slots as u64) as usize;
            if let Some(trail) = trail.as_mut() {
                trail.push(victim_slot);
            }
            let victim = self.entries[victim_slot]
                .replace(carried)
                .expect("victim slot occupied");
            self.meter.offchip_write(1);
            kickouts += 1;
            carried = victim;
            prev_bucket = victim_bucket;
            cands = (0..self.d)
                .map(|i| self.bucket_id(&carried.key, i))
                .collect();
            let mut free = None;
            for &b in &cands {
                if b == prev_bucket {
                    continue;
                }
                self.meter.offchip_read(1);
                if let Some(s) = self.free_slot(b) {
                    free = Some(s);
                    break;
                }
            }
            if let Some(s) = free {
                self.entries[s] = Some(carried);
                self.meter.offchip_write(1);
                self.len += 1;
                return Ok(InsertReport {
                    outcome: InsertOutcome::Placed,
                    kickouts,
                    collision: true,
                    copies_written: 1,
                });
            }
        }
    }

    /// Look up `key`: one read per candidate bucket until found.
    pub fn get(&self, key: &K) -> Option<&V> {
        for i in 0..self.d {
            let b = self.bucket_id(key, i);
            self.meter.offchip_read(1);
            for s in self.slot_range(b) {
                if let Some(e) = &self.entries[s] {
                    if e.key == *key {
                        self.obs.record_lookup(true, i as u64 + 1);
                        return Some(&e.value);
                    }
                }
            }
        }
        self.obs.record_lookup(false, self.d as u64);
        None
    }

    /// Whether `key` is stored.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        for i in 0..self.d {
            let b = self.bucket_id(key, i);
            self.meter.offchip_read(1);
            for s in self.slot_range(b) {
                if self.entries[s].as_ref().is_some_and(|e| e.key == *key) {
                    let e = self.entries[s].take().unwrap();
                    self.meter.offchip_write(1);
                    self.len -= 1;
                    self.obs.record_remove(true);
                    return Some(e.value);
                }
            }
        }
        self.obs.record_remove(false);
        None
    }

    /// Iterate stored `(key, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries
            .iter()
            .filter_map(|e| e.as_ref().map(|e| (&e.key, &e.value)))
    }

    /// Remove every stored item. The hash functions and access meter are
    /// untouched.
    pub fn clear(&mut self) {
        for e in &mut self.entries {
            *e = None;
        }
        self.len = 0;
    }

    /// Undo a failed random-walk insertion from its victim-slot trail:
    /// replay the kicks backwards, re-seating every displaced entry in
    /// the slot it was evicted from. `evicted` is the last victim; the
    /// reverse replay ends with the originally offered item "in hand",
    /// which is dropped — the failed insert becomes a strict no-op.
    fn unwind_failed_walk(&mut self, evicted: (K, V), trail: &[usize]) {
        let mut hand = Entry {
            key: evicted.0,
            value: evicted.1,
        };
        for &slot in trail.iter().rev() {
            hand = self.entries[slot]
                .replace(hand)
                .expect("kick-trail slots stay occupied");
            self.meter.offchip_write(1);
        }
    }
}

/// [`McTable`] conformance, with the same upsert strengthening as
/// [`crate::DaryCuckoo`]'s impl: a key found in a candidate bucket is
/// updated **in place** (one off-chip write, no eviction risk), and a
/// failed fresh insert is a strict no-op — the kick trail is unwound so
/// [`InsertOutcome::Failed`] means "not stored and nothing else
/// changed". The inherent [`Bcht::insert`] keeps the classic
/// evict-on-failure semantics.
impl<K: KeyHash + Eq, V: Clone> McTable<K, V> for Bcht<K, V> {
    fn insert(&mut self, key: K, value: V) -> InsertReport {
        for i in 0..self.d {
            let b = self.bucket_id(&key, i);
            self.meter.offchip_read(1);
            for s in self.slot_range(b) {
                if self.entries[s].as_ref().is_some_and(|e| e.key == key) {
                    self.entries[s].as_mut().expect("probed occupied").value = value;
                    self.meter.offchip_write(1);
                    let report = InsertReport {
                        outcome: InsertOutcome::Updated,
                        kickouts: 0,
                        collision: false,
                        copies_written: 1,
                    };
                    self.obs.record_insert(&report);
                    return report;
                }
            }
        }
        McTable::insert_new(self, key, value)
    }

    fn insert_new(&mut self, key: K, value: V) -> InsertReport {
        let mut trail = Vec::new();
        let out = Bcht::insert_tracked(self, key, value, Some(&mut trail));
        match out {
            Ok(r) => {
                self.obs.record_insert(&r);
                r
            }
            Err(full) => {
                self.obs.record_insert(&full.report);
                self.unwind_failed_walk(full.evicted, &trail);
                full.report
            }
        }
    }

    fn lookup(&self, key: &K) -> Option<V> {
        self.get(key).cloned()
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        Bcht::remove(self, key)
    }

    fn clear(&mut self) {
        Bcht::clear(self);
    }

    fn len(&self) -> usize {
        Bcht::len(self)
    }

    fn capacity(&self) -> usize {
        Bcht::capacity(self)
    }

    fn contains(&self, key: &K) -> bool {
        Bcht::contains(self, key)
    }

    fn load(&self) -> f64 {
        self.load_ratio()
    }

    fn mem_stats(&self) -> mem_model::MemStats {
        self.meter().snapshot()
    }

    fn stats(&self) -> TableStats {
        Bcht::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hash_kit::SplitMix64;
    use std::collections::HashMap;
    use workloads::UniqueKeys;

    fn table(n: usize, seed: u64) -> Bcht<u64, u64> {
        Bcht::new(BchtConfig::paper(n, seed))
    }

    #[test]
    fn insert_then_get() {
        let mut t = table(64, 1);
        for k in 0u64..200 {
            t.insert(k, k + 7).unwrap();
        }
        for k in 0u64..200 {
            assert_eq!(t.get(&k), Some(&(k + 7)));
        }
        assert_eq!(t.get(&9999), None);
    }

    #[test]
    fn reaches_95_percent_load() {
        // The paper runs BCHT to 95%+ (Fig. 9); verify it fills.
        let n = 2_000;
        let mut t = table(n, 2);
        let cap = 3 * n * 3;
        let target = cap * 95 / 100;
        let mut keys = UniqueKeys::new(3);
        for _ in 0..target {
            let k = keys.next_key();
            t.insert(k, k).expect("95% load must succeed for 3x3 BCHT");
        }
        assert!(t.load_ratio() > 0.94);
        for k in UniqueKeys::new(3).take_vec(target) {
            assert!(t.contains(&k));
        }
    }

    #[test]
    fn first_collision_much_later_than_plain_cuckoo() {
        // Table I's qualitative claim: BCHT sees its first real collision
        // at far higher load than ternary cuckoo.
        let n = 2_000;
        let mut t = table(n, 4);
        let mut keys = UniqueKeys::new(5);
        let cap = 3 * n * 3;
        let mut first_collision_load = None;
        for i in 0..cap {
            let k = keys.next_key();
            let r = t.insert(k, k).unwrap();
            if r.collision {
                first_collision_load = Some(i as f64 / cap as f64);
                break;
            }
        }
        let load = first_collision_load.expect("collision must happen eventually");
        assert!(
            load > 0.25,
            "BCHT first collision at {load}, expected > 0.25"
        );
    }

    #[test]
    fn remove_and_reinsert() {
        let mut t = table(32, 6);
        for k in 0u64..100 {
            t.insert(k, k).unwrap();
        }
        for k in (0u64..100).step_by(2) {
            assert_eq!(t.remove(&k), Some(k));
        }
        assert_eq!(t.len(), 50);
        for k in (0u64..100).step_by(2) {
            assert!(!t.contains(&k));
            t.insert(k, k * 3).unwrap();
        }
        for k in (0u64..100).step_by(2) {
            assert_eq!(t.get(&k), Some(&(k * 3)));
        }
    }

    #[test]
    fn lookup_miss_costs_d_reads() {
        let t = table(64, 7);
        let before = t.meter().snapshot();
        assert_eq!(t.get(&42), None);
        let delta = t.meter().snapshot() - before;
        assert_eq!(delta.offchip_reads, 3);
    }

    #[test]
    fn whole_bucket_is_one_access() {
        // Hit in the first candidate bucket costs exactly one read even
        // though the bucket has 3 slots.
        let mut t = table(64, 8);
        t.insert(5u64, 50).unwrap();
        let before = t.meter().snapshot();
        assert_eq!(t.get(&5), Some(&50));
        let delta = t.meter().snapshot() - before;
        assert_eq!(delta.offchip_reads, 1);
    }

    #[test]
    fn differential_against_hashmap() {
        let mut t = table(1_024, 9);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut keys = UniqueKeys::new(10);
        let mut s = SplitMix64::new(11);
        let mut live: Vec<u64> = Vec::new();
        for _ in 0..40_000 {
            match s.next_below(10) {
                0..=5 => {
                    let k = keys.next_key();
                    match t.insert(k, k ^ 0xFF) {
                        Ok(_) => {
                            model.insert(k, k ^ 0xFF);
                            live.push(k);
                        }
                        Err(full) => {
                            model.insert(k, k ^ 0xFF);
                            live.push(k);
                            let (ek, _) = full.evicted;
                            model.remove(&ek);
                            live.retain(|&x| x != ek);
                        }
                    }
                }
                6..=7 if !live.is_empty() => {
                    let i = s.next_below(live.len() as u64) as usize;
                    assert_eq!(t.get(&live[i]), model.get(&live[i]));
                }
                8 if !live.is_empty() => {
                    let i = s.next_below(live.len() as u64) as usize;
                    let k = live.swap_remove(i);
                    assert_eq!(t.remove(&k), model.remove(&k));
                }
                _ => {
                    let k = keys.absent_key(s.next_below(1 << 20));
                    assert_eq!(t.get(&k), None);
                }
            }
        }
        assert_eq!(t.len(), model.len());
        for (k, v) in &model {
            assert_eq!(t.get(k), Some(v));
        }
    }

    #[test]
    fn overflow_returns_evicted_item() {
        let mut t: Bcht<u64, u64> = Bcht::new(BchtConfig {
            maxloop: 10,
            ..BchtConfig::paper(2, 12)
        });
        let mut keys = UniqueKeys::new(13);
        let mut failed = false;
        for _ in 0..30 {
            let k = keys.next_key();
            if let Err(full) = t.insert(k, k) {
                assert_eq!(full.report.outcome, InsertOutcome::Failed);
                assert!(full.report.kickouts >= 10);
                failed = true;
                break;
            }
        }
        assert!(failed, "an 18-slot table cannot absorb 30 items");
    }

    #[test]
    fn iter_sees_everything() {
        let mut t = table(64, 14);
        for k in 0u64..120 {
            t.insert(k, k).unwrap();
        }
        let mut ks: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        ks.sort_unstable();
        assert_eq!(ks, (0u64..120).collect::<Vec<_>>());
    }

    /// Sorted snapshot of the stored pairs, for no-op equality checks.
    fn contents(t: &Bcht<u64, u64>) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = t.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn mctable_upsert_updates_in_place_with_one_write() {
        let mut t = table(64, 16);
        McTable::insert(&mut t, 42u64, 1);
        let before = t.meter().snapshot();
        let r = McTable::insert(&mut t, 42u64, 2);
        let delta = t.meter().snapshot() - before;
        assert_eq!(r.outcome, InsertOutcome::Updated);
        assert_eq!(r.kickouts, 0);
        assert_eq!(delta.offchip_writes, 1, "in-place upsert is a single write");
        assert_eq!(t.get(&42), Some(&2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn mctable_failed_insert_is_a_noop() {
        // A tiny table with a tight kick budget: some trait-level inserts
        // must fail, and each failure must leave the table bit-identical.
        let mut t: Bcht<u64, u64> = Bcht::new(BchtConfig {
            maxloop: 8,
            ..BchtConfig::paper(2, 17)
        });
        let mut keys = UniqueKeys::new(18);
        let mut failures = 0;
        for _ in 0..60 {
            let k = keys.next_key();
            let before = contents(&t);
            let len_before = t.len();
            let r = McTable::insert(&mut t, k, k ^ 0xAB);
            if r.outcome == InsertOutcome::Failed {
                failures += 1;
                assert_eq!(contents(&t), before, "failed insert must not mutate");
                assert_eq!(t.len(), len_before);
                assert!(!t.contains(&k), "rejected key must not be stored");
            } else {
                assert!(t.contains(&k));
            }
        }
        assert!(failures > 0, "an 18-slot table cannot absorb 60 items");
    }

    #[test]
    fn single_slot_bcht_equals_dary_shape() {
        // l=1 BCHT behaves like plain cuckoo (sanity of the slot logic).
        let mut t: Bcht<u64, u64> = Bcht::new(BchtConfig {
            slots: 1,
            ..BchtConfig::paper(512, 15)
        });
        for k in 0u64..900 {
            t.insert(k, k).unwrap();
        }
        for k in 0u64..900 {
            assert!(t.contains(&k));
        }
    }
}

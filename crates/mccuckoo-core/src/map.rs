//! [`McMap`] — a `HashMap`-shaped convenience wrapper with automatic
//! growth.
//!
//! The raw [`McCuckoo`] table is fixed-capacity by design (the paper's
//! setting: a hardware table sized at deployment, overflowing into a
//! stash). Software adopters usually want a map that *just grows*. This
//! wrapper provides that: inserts that stash, or a stash exceeding a
//! small fraction of capacity, trigger a doubling rehash — the
//! classical remedy, applied rarely enough to amortise.
//!
//! Growth is **total**: a rehash that overflows (possible with
//! [`crate::StashPolicy::None`], or under an adversarial seed) retries
//! with the next derived seed a bounded number of times, and anything
//! still unplaced is *parked* in a side buffer that every read, write,
//! and iteration consults — the map never aborts and never loses an
//! item. [`McMap::grow_now`] surfaces the condition as a typed
//! [`GrowError`] for callers that want to react.

use std::fmt;

use hash_kit::KeyHash;
use mem_model::{InsertOutcome, InsertReport, MemStats};

use crate::config::{DeletionMode, McConfig};
use crate::engine::McFull;
use crate::obs::TableStats;
use crate::persist::TableSnapshot;
use crate::single::McCuckoo;
use crate::table::McTable;

/// Stash occupancy (relative to capacity) that triggers a growth rehash.
const GROW_AT_STASH_FRACTION: f64 = 0.002;

/// How many fresh derived seeds a single growth tries before parking
/// the stragglers. Each retry redraws every hash function, so repeated
/// failure means the table is genuinely overfull for its geometry (the
/// first attempt already doubled it) — more retries would thrash.
const GROW_RETRIES: usize = 3;

/// A growth pass that could not re-place every item after
/// `GROW_RETRIES` reseeded attempts. **Nothing is lost**: the
/// stragglers are parked in a side buffer the map keeps consulting, and
/// the next growth re-offers them first. Returned by
/// [`McMap::grow_now`]; automatic growths park silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrowError {
    /// Reseeded rehash attempts that were made.
    pub attempts: usize,
    /// Items left in the parked side buffer afterwards.
    pub parked: usize,
}

impl fmt::Display for GrowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "growth could not place {} item(s) after {} reseeded attempts; \
             they remain served from the parked buffer",
            self.parked, self.attempts
        )
    }
}

impl std::error::Error for GrowError {}

/// An auto-growing map backed by a multi-copy cuckoo table.
///
/// ```
/// use mccuckoo_core::McMap;
///
/// let mut m: McMap<&str, u32> = McMap::new();
/// assert!(m.insert("a", 1));      // new key
/// assert!(!m.insert("a", 2));     // update
/// assert_eq!(m.get(&"a"), Some(&2));
/// assert_eq!(m.remove(&"a"), Some(2));
/// assert!(m.is_empty());
/// ```
#[derive(Debug)]
pub struct McMap<K, V> {
    table: McCuckoo<K, V>,
    grow_seed: u64,
    /// Items a failed growth could not re-place (stash-less tables
    /// only). Every operation consults this buffer, and every growth
    /// re-offers it first, so parked items are fully live — just slow.
    parked: Vec<(K, V)>,
}

impl<K: KeyHash + Eq + Clone, V: Clone> Default for McMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: KeyHash + Eq + Clone, V: Clone> McMap<K, V> {
    /// An empty map with a small initial capacity.
    pub fn new() -> Self {
        Self::with_capacity(64)
    }

    /// A map that can hold at least `items` before its first growth
    /// (sized to ~85% load). The hash seed is drawn from process
    /// entropy in normal builds (a fixed well-known seed would let an
    /// adversary precompute colliding key sets); unit tests and doc
    /// builds pin it for reproducibility. Use
    /// [`Self::with_capacity_and_seed`] to control it explicitly.
    pub fn with_capacity(items: usize) -> Self {
        Self::with_capacity_and_seed(items, Self::default_seed())
    }

    /// A map sized like [`Self::with_capacity`] but with an explicit
    /// hash seed. The rehash seed stream used on growth is derived from
    /// `seed`, so two maps built with the same seed stay byte-for-byte
    /// reproducible through any number of growths.
    pub fn with_capacity_and_seed(items: usize, seed: u64) -> Self {
        let per_table = (items as f64 / 3.0 / 0.85).ceil() as usize;
        Self::with_config(
            McConfig::paper(per_table.max(8), seed).with_deletion(DeletionMode::Reset),
        )
    }

    /// A map over an explicit table configuration — stash policy,
    /// deletion mode, kick policy and maxloop included. Growth works
    /// for every configuration: a stash-less table that overflows a
    /// rehash parks the stragglers instead of aborting (see
    /// [`GrowError`]).
    pub fn with_config(config: McConfig) -> Self {
        // Decorrelated from the table seed so growth never rehashes
        // into the hash functions it is escaping.
        let grow_seed = config.seed ^ 0x9E37_79B9_7F4A_7C15;
        Self {
            table: McCuckoo::new(config),
            grow_seed,
            parked: Vec::new(),
        }
    }

    #[cfg(any(test, doctest))]
    fn default_seed() -> u64 {
        0x4CAF_F1E1_D5EA_7B3D
    }

    #[cfg(not(any(test, doctest)))]
    fn default_seed() -> u64 {
        use std::hash::{BuildHasher, Hasher};
        std::collections::hash_map::RandomState::new()
            .build_hasher()
            .finish()
    }

    /// Number of stored keys (parked stragglers included).
    pub fn len(&self) -> usize {
        self.table.len() + self.parked.len()
    }

    /// True if the map is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty() && self.parked.is_empty()
    }

    /// Items currently served from the parked side buffer (non-zero
    /// only after a growth overflowed all its retries; see
    /// [`GrowError`]).
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Current slot capacity.
    pub fn capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Insert or update; returns the previous presence (like
    /// `HashMap::insert` returning whether the key was new).
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.insert_report(key, value).outcome != InsertOutcome::Updated
    }

    /// [`Self::insert`] returning the table's full [`InsertReport`].
    /// A `Stashed` outcome describes the pre-growth placement; the item
    /// is in the main table by the time this returns.
    fn insert_report(&mut self, key: K, value: V) -> InsertReport {
        // A parked copy is the authoritative one; update it in place —
        // and record the update, so the parked detour stays visible to
        // `stats()` like any other operation.
        if let Some(slot) = self.parked.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
            let report = InsertReport::updated(0);
            self.table.obs().record_insert(&report);
            return report;
        }
        let out = self.table.insert_unrecorded(key, value);
        self.settle(out)
    }

    /// Finish an unrecorded insert: a full-table `Err` is rescued by
    /// growth, so the outcome the inner table saw may not be the outcome
    /// the caller gets; the final report is recorded exactly once, here.
    fn settle(&mut self, out: Result<InsertReport, McFull<K, V>>) -> InsertReport {
        let report = match out {
            Ok(r) => r,
            // Stash-less table full. The failed kick walk placed the
            // offered pair and handed back whatever fell off the end of
            // the walk (which may be the offered pair itself): grow,
            // carrying the evictee — it is re-placed or parked, never
            // dropped — then report the insert as stored.
            Err(full) => {
                let mut report = full.report;
                report.outcome = InsertOutcome::Placed;
                self.table.obs().record_insert(&report);
                let _ = self.grow_carrying(vec![full.evicted]);
                return report;
            }
        };
        self.table.obs().record_insert(&report);
        if report.outcome == InsertOutcome::Stashed || self.stash_pressure() {
            let _ = self.grow_carrying(Vec::new());
        }
        report
    }

    fn stash_pressure(&self) -> bool {
        self.table.stash_len() as f64
            > (self.table.capacity() as f64 * GROW_AT_STASH_FRACTION).max(4.0)
    }

    /// Force a growth rehash now, surfacing the overflow condition that
    /// automatic growths park silently. `Ok` also means previously
    /// parked items were re-absorbed into the table.
    pub fn grow_now(&mut self) -> Result<(), GrowError> {
        self.grow_carrying(Vec::new())
    }

    /// One growth pass: double the table under the next derived seed,
    /// then re-offer `pending` plus everything previously parked. Each
    /// overflow hands its leftovers to the next reseeded attempt
    /// (bounded by `GROW_RETRIES`); stragglers end up parked, never
    /// dropped, never a panic.
    fn grow_carrying(&mut self, mut pending: Vec<(K, V)>) -> Result<(), GrowError> {
        pending.append(&mut self.parked);
        for attempt in 0..GROW_RETRIES {
            self.grow_seed = self
                .grow_seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1);
            // The first attempt doubles; retries re-draw the hash
            // functions at the doubled size (a second doubling for a
            // seed problem would waste memory without fixing anything).
            let result = if attempt == 0 {
                self.table.grow(self.grow_seed)
            } else {
                self.table.rehash(None, self.grow_seed)
            };
            if let Err(overflow) = result {
                pending.extend(overflow.leftover);
                continue;
            }
            // Rebuilt table: re-offer the carried items. Unrecorded —
            // each was already counted when the user first inserted it.
            let mut still = Vec::new();
            for (k, v) in pending.drain(..) {
                if let Err(full) = self.table.insert_new_unrecorded(k, v) {
                    still.push(full.evicted);
                }
            }
            if still.is_empty() {
                return Ok(());
            }
            pending = still;
        }
        let parked = pending.len();
        self.parked = pending;
        Err(GrowError {
            attempts: GROW_RETRIES,
            parked,
        })
    }

    /// Get a reference to the value for `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        // A parked key is never also in the table, so consult the side
        // buffer first: a parked hit must be recorded as a lookup hit,
        // not as the table miss the inner probe would log.
        if let Some((_, v)) = self.parked.iter().find(|(k, _)| k == key) {
            self.table.obs().record_lookup(true, 0);
            return Some(v);
        }
        self.table.get(key)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        // Same ordering as `get`: a parked removal is a remove hit and
        // must not leave a spurious `remove_misses` in the table stats.
        if let Some(at) = self.parked.iter().position(|(k, _)| k == key) {
            self.table.obs().record_remove(true);
            return Some(self.parked.swap_remove(at).1);
        }
        self.table.remove(key)
    }

    /// Iterate `(key, value)` pairs (parked stragglers included).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.table
            .iter()
            .chain(self.parked.iter().map(|(k, v)| (k, v)))
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.table.clear();
        self.parked.clear();
    }

    /// Capture a logical snapshot of the map — parked stragglers
    /// included, so a map that overflowed a growth round-trips without
    /// losing anything. The format is the plain [`TableSnapshot`]:
    /// parked items are appended to `items` (a snapshot is logical and
    /// unordered, so they are indistinguishable from table residents)
    /// and simply re-offered on restore.
    pub fn to_snapshot(&self) -> TableSnapshot<K, V> {
        let mut snap = self.table.to_snapshot();
        snap.items
            .extend(self.parked.iter().map(|(k, v)| (k.clone(), v.clone())));
        snap
    }

    /// Rebuild a map from a snapshot. Restores are **total**: items the
    /// rebuilt table cannot place (a stash-less overfull snapshot) are
    /// parked — served, counted, re-offered to the next growth — never
    /// dropped. That is why this restore, unlike
    /// [`McCuckoo::try_from_snapshot`], has no error to return.
    pub fn from_snapshot(snapshot: TableSnapshot<K, V>) -> Self {
        let mut m = Self::with_config(snapshot.config.clone());
        for (k, v) in snapshot.items {
            // Unrecorded: each item was counted when first inserted.
            if let Err(full) = m.table.insert_new_unrecorded(k, v) {
                m.parked.push(full.evicted);
            }
        }
        m
    }

    /// Access the underlying table (metering, diagnostics).
    pub fn table(&self) -> &McCuckoo<K, V> {
        &self.table
    }
}

impl<K: KeyHash + Eq + Clone, V: Clone> McTable<K, V> for McMap<K, V> {
    fn insert(&mut self, key: K, value: V) -> InsertReport {
        self.insert_report(key, value)
    }

    fn insert_new(&mut self, key: K, value: V) -> InsertReport {
        let out = self.table.insert_new_unrecorded(key, value);
        self.settle(out)
    }

    fn lookup(&self, key: &K) -> Option<V> {
        self.get(key).cloned()
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        McMap::remove(self, key)
    }

    fn clear(&mut self) {
        McMap::clear(self);
    }

    fn len(&self) -> usize {
        McMap::len(self)
    }

    fn capacity(&self) -> usize {
        McMap::capacity(self)
    }

    fn contains(&self, key: &K) -> bool {
        self.contains_key(key)
    }

    fn stash_len(&self) -> usize {
        self.table.stash_len()
    }

    fn refresh_stash(&mut self) -> usize {
        self.table.refresh_stash()
    }

    fn mem_stats(&self) -> MemStats {
        self.table.meter().snapshot()
    }

    fn stats(&self) -> TableStats {
        self.table.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use workloads::UniqueKeys;

    // Scaled down under `paranoid`: every insert validates the whole
    // table, so the volume tests would go quadratic.
    #[cfg(feature = "paranoid")]
    const SCALE: usize = 20;
    #[cfg(not(feature = "paranoid"))]
    const SCALE: usize = 1;

    #[test]
    fn grows_far_beyond_initial_capacity() {
        let mut m: McMap<u64, u64> = McMap::with_capacity(100);
        let initial_cap = m.capacity();
        let mut keys = UniqueKeys::new(1);
        let ks = keys.take_vec(50_000 / SCALE);
        for &k in &ks {
            assert!(m.insert(k, k));
        }
        assert!(m.capacity() > initial_cap, "map must have grown");
        assert_eq!(m.len(), ks.len());
        for &k in &ks {
            assert_eq!(m.get(&k), Some(&k));
        }
        m.table().check_invariants().unwrap();
    }

    #[test]
    fn insert_reports_newness() {
        let mut m: McMap<u64, &str> = McMap::new();
        assert!(m.insert(1, "a"));
        assert!(!m.insert(1, "b"));
        assert_eq!(m.get(&1), Some(&"b"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn differential_against_hashmap() {
        let mut m: McMap<u64, u64> = McMap::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut rng = hash_kit::SplitMix64::new(3);
        for step in 0..60_000u64 / SCALE as u64 {
            let k = rng.next_below(20_000 / SCALE as u64);
            match rng.next_below(4) {
                0 | 1 => {
                    assert_eq!(m.insert(k, step), model.insert(k, step).is_none());
                }
                2 => assert_eq!(m.get(&k), model.get(&k)),
                _ => assert_eq!(m.remove(&k), model.remove(&k)),
            }
        }
        assert_eq!(m.len(), model.len());
        for (k, v) in &model {
            assert_eq!(m.get(k), Some(v));
        }
        m.table().check_invariants().unwrap();
    }

    #[test]
    fn clear_empties_and_map_remains_usable() {
        let mut m: McMap<u64, u64> = McMap::new();
        for k in 0..1000u64 {
            m.insert(k, k);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(&5), None);
        for k in 0..1000u64 {
            m.insert(k, k * 2);
        }
        assert_eq!(m.get(&5), Some(&10));
        m.table().check_invariants().unwrap();
    }

    #[test]
    fn explicit_seed_is_reproducible_through_growth() {
        let build = |seed: u64| {
            let mut m: McMap<u64, u64> = McMap::with_capacity_and_seed(32, seed);
            for k in 0..3_000u64 / SCALE as u64 {
                m.insert(k, k);
            }
            m
        };
        let (a, b) = (build(77), build(77));
        assert_eq!(a.capacity(), b.capacity());
        let collect = |m: &McMap<u64, u64>| {
            let mut v: Vec<(u64, u64)> = m.iter().map(|(k, x)| (*k, *x)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(collect(&a), collect(&b));
        // A different seed draws a different grow-seed stream too.
        let c = build(78);
        assert_eq!(a.len(), c.len());
        assert_ne!(
            a.table().config_snapshot().seed,
            c.table().config_snapshot().seed
        );
    }

    #[test]
    fn mctable_impl_reports_and_counts() {
        use crate::table::McTable;
        let mut m: McMap<u64, u64> = McMap::with_capacity_and_seed(256, 5);
        for k in 0..200u64 {
            assert!(McTable::insert_new(&mut m, k, k).stored());
        }
        let r = McTable::insert(&mut m, 7, 70);
        assert_eq!(r.outcome, InsertOutcome::Updated);
        assert_eq!(McTable::lookup(&m, &7), Some(70));
        assert_eq!(McTable::remove(&mut m, &7), Some(70));
        let s = McTable::stats(&m);
        assert_eq!(s.ops.inserts, 200);
        assert_eq!(s.ops.updates, 1);
        assert_eq!(s.ops.removes, 1);
        assert!(s.kick_hist.count >= 200);
    }

    #[test]
    fn stashless_config_grows_without_aborting() {
        use crate::config::StashPolicy;
        // The config the old code aborted on: no stash to absorb failed
        // walks, a tiny table, and a short maxloop so walks fail often.
        let mut m: McMap<u64, u64> = McMap::with_config(
            McConfig::paper(8, 21)
                .with_stash(StashPolicy::None)
                .with_maxloop(8)
                .with_deletion(DeletionMode::Reset),
        );
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut rng = hash_kit::SplitMix64::new(22);
        for step in 0..6_000u64 / SCALE as u64 {
            let k = rng.next_below(2_000 / SCALE as u64);
            match rng.next_below(4) {
                0 | 1 => {
                    assert_eq!(m.insert(k, step), model.insert(k, step).is_none());
                }
                2 => assert_eq!(m.get(&k), model.get(&k)),
                _ => assert_eq!(m.remove(&k), model.remove(&k)),
            }
        }
        assert_eq!(m.len(), model.len());
        for (k, v) in &model {
            assert_eq!(m.get(k), Some(v), "key {k} lost");
        }
        m.table().check_invariants().unwrap();
    }

    #[test]
    fn grow_now_reports_and_parked_items_stay_live() {
        use crate::config::StashPolicy;
        let mut m: McMap<u64, u64> = McMap::with_config(
            McConfig::paper(8, 23)
                .with_stash(StashPolicy::None)
                .with_maxloop(8)
                .with_deletion(DeletionMode::Reset),
        );
        for k in 0..500u64 {
            m.insert(k, k * 2);
        }
        assert_eq!(m.len(), 500);
        // Whether or not anything is parked right now, every item is
        // served, iterated, and countable.
        assert_eq!(m.iter().count(), 500);
        for k in 0..500u64 {
            assert_eq!(m.get(&k), Some(&(k * 2)), "key {k} lost");
            assert!(m.contains_key(&k));
        }
        // An explicit growth either absorbs the parked buffer or
        // reports a typed error — never a panic.
        match m.grow_now() {
            Ok(()) => assert_eq!(m.parked_len(), 0),
            Err(e) => {
                assert_eq!(e.parked, m.parked_len());
                assert!(e.attempts > 0);
                let msg = e.to_string();
                assert!(msg.contains("parked buffer"), "got: {msg}");
            }
        }
        assert_eq!(m.len(), 500);
        // Parked-or-not, updates and removals hit the right copy.
        assert!(!m.insert(7, 999));
        assert_eq!(m.get(&7), Some(&999));
        assert_eq!(m.remove(&7), Some(999));
        assert_eq!(m.len(), 499);
        m.table().check_invariants().unwrap();
    }

    #[test]
    fn parked_path_operations_are_recorded_exactly_once() {
        let mut m: McMap<u64, u64> = McMap::with_capacity_and_seed(64, 9);
        for k in 0..10u64 {
            m.insert(k, k);
        }
        // Manufacture the post-overflow state directly: a parked key is
        // exactly "in the side buffer, not in the table".
        m.parked.push((1_000, 5));
        let s0 = m.table().stats();
        assert_eq!(m.len(), 11);
        assert_eq!(m.iter().count(), 11);

        assert!(!m.insert(1_000, 6)); // parked update
        assert_eq!(m.get(&1_000), Some(&6)); // parked lookup hit
        assert_eq!(m.get(&2_000), None); // genuine miss
        assert_eq!(m.remove(&1_000), Some(6)); // parked remove hit
        assert_eq!(m.remove(&1_000), None); // genuine remove miss

        let s = m.table().stats();
        assert_eq!(s.ops.updates, s0.ops.updates + 1, "parked update lost");
        assert_eq!(s.ops.inserts, s0.ops.inserts, "update counted as insert");
        assert_eq!(s.ops.lookup_hits, s0.ops.lookup_hits + 1);
        assert_eq!(
            s.ops.lookup_misses,
            s0.ops.lookup_misses + 1,
            "parked hit must not log a table miss"
        );
        assert_eq!(s.ops.removes, s0.ops.removes + 1);
        assert_eq!(s.ops.remove_misses, s0.ops.remove_misses + 1);
        assert_eq!(s.ops.failed_inserts, 0);
        assert_eq!(m.len(), 10);
    }

    #[test]
    fn growth_rescues_never_count_as_failed_inserts() {
        use crate::config::StashPolicy;
        // Stash-less + tiny + short maxloop: the inner table returns
        // `Err(McFull)` routinely and every one is rescued by growth, so
        // the user-visible failure count must stay zero and each logical
        // op must be counted exactly once.
        let mut m: McMap<u64, u64> = McMap::with_config(
            McConfig::paper(8, 31)
                .with_stash(StashPolicy::None)
                .with_maxloop(8)
                .with_deletion(DeletionMode::Reset),
        );
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut rng = hash_kit::SplitMix64::new(32);
        let (mut new_keys, mut updates) = (0u64, 0u64);
        let (mut hits, mut misses, mut rm_hits, mut rm_misses) = (0u64, 0u64, 0u64, 0u64);
        for step in 0..4_000u64 / SCALE as u64 {
            let k = rng.next_below(1_500 / SCALE as u64);
            match rng.next_below(4) {
                0 | 1 => {
                    let was_new = model.insert(k, step).is_none();
                    if was_new {
                        new_keys += 1;
                    } else {
                        updates += 1;
                    }
                    assert_eq!(m.insert(k, step), was_new, "step {step} key {k}");
                }
                2 => {
                    let got = m.get(&k).copied();
                    assert_eq!(got, model.get(&k).copied());
                    if got.is_some() {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                }
                _ => {
                    let got = m.remove(&k);
                    assert_eq!(got, model.remove(&k));
                    if got.is_some() {
                        rm_hits += 1;
                    } else {
                        rm_misses += 1;
                    }
                }
            }
        }
        let s = m.table().stats();
        assert_eq!(s.ops.failed_inserts, 0, "rescued inserts counted as failed");
        assert_eq!(s.ops.inserts, new_keys);
        assert_eq!(s.ops.updates, updates);
        assert_eq!(s.ops.lookup_hits, hits);
        assert_eq!(s.ops.lookup_misses, misses);
        assert_eq!(s.ops.removes, rm_hits);
        assert_eq!(s.ops.remove_misses, rm_misses);
        assert_eq!(m.len(), model.len());
    }

    #[test]
    fn snapshot_round_trip_preserves_parked_keys() {
        use crate::config::StashPolicy;
        let mut m: McMap<u64, u64> = McMap::with_config(
            McConfig::paper(8, 41)
                .with_stash(StashPolicy::None)
                .with_maxloop(8)
                .with_deletion(DeletionMode::Reset),
        );
        for k in 0..300u64 {
            m.insert(k, k * 7);
        }
        // Park two keys by hand so the round-trip exercises the parked
        // buffer even on seeds where growth never overflows.
        m.parked.push((9_001, 1));
        m.parked.push((9_002, 2));
        let snap = m.to_snapshot();
        assert_eq!(
            snap.items.len(),
            m.len(),
            "parked keys missing from snapshot"
        );
        let json = jsonlite::to_string(&snap);
        let back: crate::persist::TableSnapshot<u64, u64> = jsonlite::from_str(&json).unwrap();
        let restored = McMap::from_snapshot(back);
        assert_eq!(restored.len(), m.len());
        for (k, v) in m.iter() {
            assert_eq!(restored.get(k), Some(v), "key {k} lost in round-trip");
        }
        restored.table().check_invariants().unwrap();
    }

    #[test]
    fn iter_covers_all_entries() {
        let mut m: McMap<u64, u64> = McMap::with_capacity(1000);
        for k in 0..800u64 {
            m.insert(k, k);
        }
        let mut got: Vec<u64> = m.iter().map(|(k, _)| *k).collect();
        got.sort_unstable();
        assert_eq!(got, (0u64..800).collect::<Vec<_>>());
    }
}

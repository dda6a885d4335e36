//! Standard d-ary Cuckoo hashing (Pagh & Rodler / Fotakis et al.),
//! single item per bucket — the paper's "Cuckoo" baseline — with the
//! optional CHS on-chip stash (Kirsch–Mitzenmacher–Wieder, paper ref \[22\]).
//!
//! One sub-table per hash function; an item lives in exactly one of its
//! `d` candidate buckets. On insertion, candidates are probed in function
//! order and the item takes the first empty bucket; if none is empty a
//! [`KickPolicy`] resolves the collision by relocating items, bounded by
//! `maxloop`. Failures go to the stash when one is configured, otherwise
//! the final evicted item is handed back to the caller (who would rehash).

use hash_kit::{BucketFamily, FamilyKind, KeyHash, SplitMix64};
use mccuckoo_core::obs::Obs;
use mccuckoo_core::prefetch::huge_plane;
use mccuckoo_core::{McTable, TableStats};
use mem_model::{InsertOutcome, InsertReport, MemMeter};

use crate::kick::KickPolicy;

/// Configuration of a [`DaryCuckoo`] table.
#[derive(Debug, Clone)]
pub struct CuckooConfig {
    /// Number of hash functions / sub-tables (the paper uses 3).
    pub d: usize,
    /// Buckets per sub-table; total capacity is `d * buckets_per_table`.
    pub buckets_per_table: usize,
    /// Kick-out budget before an insertion is declared failed.
    pub maxloop: u32,
    /// Collision-resolution strategy.
    pub policy: KickPolicy,
    /// Hash family construction.
    pub family: FamilyKind,
    /// Master seed (hash seeds and the random walk derive from it).
    pub seed: u64,
    /// CHS stash capacity; 0 disables the stash.
    pub stash_capacity: usize,
}

impl CuckooConfig {
    /// The paper's setup: ternary Cuckoo, random-walk, maxloop 500,
    /// no stash.
    pub fn paper(buckets_per_table: usize, seed: u64) -> Self {
        Self {
            d: 3,
            buckets_per_table,
            maxloop: 500,
            policy: KickPolicy::RandomWalk,
            family: FamilyKind::Independent,
            seed,
            stash_capacity: 0,
        }
    }

    /// CHS: same but with the classic small on-chip stash of size 4.
    pub fn chs(buckets_per_table: usize, seed: u64) -> Self {
        Self {
            stash_capacity: 4,
            ..Self::paper(buckets_per_table, seed)
        }
    }
}

/// Insertion failure: the relocation budget ran out and there is no stash
/// space; `evicted` is the item that fell out of the table.
///
/// Under [`KickPolicy::Bfs`] no moves are executed on failure, so
/// `evicted` is the inserted item itself. Under
/// [`KickPolicy::RandomWalk`] the inserted item was placed during the
/// walk and `evicted` is the last displaced victim — classic cuckoo
/// semantics, where the caller is expected to rehash (or re-offer the
/// evicted item). In both cases the table stays internally consistent:
/// every item other than `evicted` remains findable.
#[derive(Debug)]
pub struct CuckooFull<K, V> {
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

/// A sub-table membership change produced by an insertion's relocation
/// chain. Consumed by helpers that maintain per-sub-table filters
/// (see [`crate::bloom_guided`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterMove<K> {
    /// `key` now resides in sub-table `table`.
    Enter {
        /// The key that moved.
        key: K,
        /// Destination sub-table index.
        table: usize,
    },
    /// `key` no longer resides in sub-table `table`.
    Leave {
        /// The key that moved.
        key: K,
        /// Source sub-table index.
        table: usize,
    },
}

/// Optional relocation logger threaded through the insertion paths.
type MoveLog<'a, K> = Option<&'a mut Vec<FilterMove<K>>>;

#[inline]
fn log_move<K: Clone>(log: &mut MoveLog<'_, K>, mv: FilterMove<K>) {
    if let Some(log) = log {
        log.push(mv);
    }
}

/// Standard d-ary Cuckoo hash table, one item per bucket.
///
/// Keys must be distinct: inserting a key that is already present creates
/// a second independent entry (classic cuckoo semantics; the evaluation
/// datasets contain distinct keys). Use [`DaryCuckoo::get`] first when
/// upsert behaviour is needed.
#[derive(Debug)]
pub struct DaryCuckoo<K, V> {
    family: BucketFamily,
    d: usize,
    n: usize,
    maxloop: u32,
    policy: KickPolicy,
    buckets: Vec<Option<Entry<K, V>>>,
    stash: Vec<(K, V)>,
    stash_capacity: usize,
    main_len: usize,
    rng: SplitMix64,
    meter: MemMeter,
    obs: Obs,
}

impl<K: KeyHash + Eq + Clone, V> DaryCuckoo<K, V> {
    /// Build a table from `config`.
    ///
    /// # Panics
    /// Panics if `d < 2` or `buckets_per_table == 0`.
    pub fn new(config: CuckooConfig) -> Self {
        assert!(config.d >= 2, "cuckoo hashing needs at least 2 functions");
        assert!(config.buckets_per_table > 0, "table must be non-empty");
        let family = BucketFamily::new(
            config.family,
            config.d,
            config.buckets_per_table,
            config.seed,
        );
        let total = config.d * config.buckets_per_table;
        let buckets = huge_plane(total, || None);
        Self {
            family,
            d: config.d,
            n: config.buckets_per_table,
            maxloop: config.maxloop,
            policy: config.policy,
            buckets,
            stash: Vec::new(),
            stash_capacity: config.stash_capacity,
            main_len: 0,
            rng: SplitMix64::new(config.seed ^ 0xBA5E_1133_57A5_4B1D),
            meter: MemMeter::new(),
            obs: Obs::default(),
        }
    }

    /// Number of hash functions.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Items in the main table.
    pub fn main_len(&self) -> usize {
        self.main_len
    }

    /// Items in the stash.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Total stored items.
    pub fn len(&self) -> usize {
        self.main_len + self.stash.len()
    }

    /// True if no items are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bucket count (`d * buckets_per_table`).
    pub fn capacity(&self) -> usize {
        self.buckets.len()
    }

    /// Load ratio: stored items / capacity (the paper's definition).
    pub fn load_ratio(&self) -> f64 {
        self.len() as f64 / self.capacity() as f64
    }

    /// Access meter (off-chip reads/writes, stash traffic).
    pub fn meter(&self) -> &MemMeter {
        &self.meter
    }

    /// Observability snapshot (op counters, probe/kick histograms).
    pub fn stats(&self) -> TableStats {
        self.obs.snapshot()
    }

    /// The recorder itself, for wrappers that layer extra probes on top
    /// of this table (see [`crate::bloom_guided`]).
    pub(crate) fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Global bucket index of candidate `i` for `key`.
    #[inline]
    fn slot_index(&self, key: &K, i: usize) -> usize {
        i * self.n + self.family.bucket(key, i)
    }

    fn candidates(&self, key: &K) -> Vec<usize> {
        (0..self.d).map(|i| self.slot_index(key, i)).collect()
    }

    /// Insert a fresh key.
    ///
    /// On success reports placement instrumentation; on failure (budget
    /// exhausted, stash full or absent) returns the evicted item.
    pub fn insert(&mut self, key: K, value: V) -> Result<InsertReport, CuckooFull<K, V>> {
        let out = self.insert_inner(key, value, &mut None);
        self.record_insert_outcome(&out);
        out
    }

    fn record_insert_outcome(&self, out: &Result<InsertReport, CuckooFull<K, V>>) {
        match out {
            Ok(report) => self.obs.record_insert(report),
            Err(full) => self.obs.record_insert(&full.report),
        }
    }

    /// Insert while recording every sub-table membership change of the
    /// relocation chain (for external per-sub-table filters). The log is
    /// returned on failure too — the moves up to the failure really
    /// happened.
    #[allow(clippy::type_complexity)]
    pub fn insert_logged(
        &mut self,
        key: K,
        value: V,
    ) -> Result<(InsertReport, Vec<FilterMove<K>>), (CuckooFull<K, V>, Vec<FilterMove<K>>)> {
        let mut log = Vec::new();
        let out = self.insert_inner(key, value, &mut Some(&mut log));
        self.record_insert_outcome(&out);
        match out {
            Ok(report) => Ok((report, log)),
            Err(full) => Err((full, log)),
        }
    }

    fn insert_inner(
        &mut self,
        key: K,
        value: V,
        log: &mut MoveLog<'_, K>,
    ) -> Result<InsertReport, CuckooFull<K, V>> {
        let cands = self.candidates(&key);
        // Probe candidates in order; first empty wins.
        for (i, &b) in cands.iter().enumerate() {
            self.meter.offchip_read(1);
            if self.buckets[b].is_none() {
                log_move(
                    log,
                    FilterMove::Enter {
                        key: key.clone(),
                        table: i,
                    },
                );
                self.buckets[b] = Some(Entry { key, value });
                self.meter.offchip_write(1);
                self.main_len += 1;
                return Ok(InsertReport::clean(1));
            }
        }
        // Real collision: all candidates occupied.
        match self.policy {
            KickPolicy::RandomWalk => self.insert_random_walk(key, value, cands, log),
            KickPolicy::Bfs => self.insert_bfs(key, value, cands, log),
        }
    }

    /// Probe only sub-table `i` for `key` (used by filter-guided
    /// lookups that already know which sub-tables can hold the key).
    pub fn get_in_table(&self, key: &K, i: usize) -> Option<&V> {
        let b = self.slot_index(key, i);
        self.meter.offchip_read(1);
        match &self.buckets[b] {
            Some(e) if e.key == *key => Some(&e.value),
            _ => None,
        }
    }

    /// Rewrite `key`'s value in place if it resides in sub-table `i`.
    pub(crate) fn update_in_table(&mut self, key: &K, i: usize, value: V) -> bool {
        let b = self.slot_index(key, i);
        self.meter.offchip_read(1);
        match &mut self.buckets[b] {
            Some(e) if e.key == *key => {
                e.value = value;
                self.meter.offchip_write(1);
                true
            }
            _ => false,
        }
    }

    /// Remove `key` if it resides in sub-table `i`.
    pub fn remove_in_table(&mut self, key: &K, i: usize) -> Option<V> {
        let b = self.slot_index(key, i);
        self.meter.offchip_read(1);
        if self.buckets[b].as_ref().is_some_and(|e| e.key == *key) {
            let e = self.buckets[b].take().unwrap();
            self.meter.offchip_write(1);
            self.main_len -= 1;
            return Some(e.value);
        }
        None
    }

    /// Random-walk eviction: place the carried item in a random candidate,
    /// carry the victim, never stepping straight back.
    fn insert_random_walk(
        &mut self,
        key: K,
        value: V,
        first_cands: Vec<usize>,
        log: &mut MoveLog<'_, K>,
    ) -> Result<InsertReport, CuckooFull<K, V>> {
        let mut kickouts = 0u32;
        let mut carried = Entry { key, value };
        let mut cands = first_cands;
        let mut prev_bucket = usize::MAX;
        loop {
            if kickouts >= self.maxloop {
                return self.fail_or_stash(carried, kickouts);
            }
            // Choose a victim among candidates, excluding the bucket the
            // carried item was just evicted from.
            let choices: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&b| b != prev_bucket)
                .collect();
            let victim_bucket = choices[self.rng.next_below(choices.len() as u64) as usize];
            // The victim's content was already read during the probe that
            // found this bucket occupied; swap in place costs one write.
            log_move(
                log,
                FilterMove::Enter {
                    key: carried.key.clone(),
                    table: victim_bucket / self.n,
                },
            );
            let victim = self.buckets[victim_bucket]
                .replace(carried)
                .expect("victim bucket must be occupied");
            log_move(
                log,
                FilterMove::Leave {
                    key: victim.key.clone(),
                    table: victim_bucket / self.n,
                },
            );
            self.meter.offchip_write(1);
            kickouts += 1;
            carried = victim;
            prev_bucket = victim_bucket;
            // Probe the carried item's candidates for an empty bucket.
            cands = self.candidates(&carried.key);
            let mut empty = None;
            for &b in &cands {
                if b == prev_bucket {
                    continue; // where it came from; known occupied
                }
                self.meter.offchip_read(1);
                if self.buckets[b].is_none() {
                    empty = Some(b);
                    break;
                }
            }
            if let Some(b) = empty {
                log_move(
                    log,
                    FilterMove::Enter {
                        key: carried.key.clone(),
                        table: b / self.n,
                    },
                );
                self.buckets[b] = Some(carried);
                self.meter.offchip_write(1);
                self.main_len += 1;
                return Ok(InsertReport {
                    outcome: InsertOutcome::Placed,
                    kickouts,
                    collision: true,
                    copies_written: 1,
                });
            }
        }
    }

    /// BFS relocation: search for the shortest eviction path within the
    /// node budget, then execute it from the far end backwards.
    fn insert_bfs(
        &mut self,
        key: K,
        value: V,
        first_cands: Vec<usize>,
        log: &mut MoveLog<'_, K>,
    ) -> Result<InsertReport, CuckooFull<K, V>> {
        struct Node {
            bucket: usize,
            parent: usize, // index into nodes; usize::MAX for roots
        }
        let mut nodes: Vec<Node> = Vec::new();
        let mut visited = std::collections::HashSet::new();
        for &b in &first_cands {
            visited.insert(b);
            nodes.push(Node {
                bucket: b,
                parent: usize::MAX,
            });
        }
        let mut head = 0usize;
        let mut expanded = 0u32;
        let mut goal: Option<(usize, usize)> = None; // (empty bucket, parent node)
        'search: while head < nodes.len() {
            if expanded >= self.maxloop {
                break;
            }
            let node_idx = head;
            head += 1;
            expanded += 1;
            let occupant_key_cands = {
                let occ = self.buckets[nodes[node_idx].bucket]
                    .as_ref()
                    .expect("BFS nodes are occupied buckets");
                self.candidates(&occ.key)
            };
            for b in occupant_key_cands {
                if !visited.insert(b) {
                    continue;
                }
                self.meter.offchip_read(1);
                if self.buckets[b].is_none() {
                    goal = Some((b, node_idx));
                    break 'search;
                }
                nodes.push(Node {
                    bucket: b,
                    parent: node_idx,
                });
            }
        }
        let Some((empty, mut node_idx)) = goal else {
            // No path within budget; nothing was moved, so the failed item
            // is the inserted one itself.
            return self.fail_or_stash(Entry { key, value }, expanded);
        };
        // Execute the path from the empty bucket backwards.
        let mut kickouts = 0u32;
        let mut dst = empty;
        loop {
            let src = nodes[node_idx].bucket;
            let moved = self.buckets[src].take().expect("path bucket occupied");
            log_move(
                log,
                FilterMove::Leave {
                    key: moved.key.clone(),
                    table: src / self.n,
                },
            );
            log_move(
                log,
                FilterMove::Enter {
                    key: moved.key.clone(),
                    table: dst / self.n,
                },
            );
            self.buckets[dst] = Some(moved);
            self.meter.offchip_write(1);
            kickouts += 1;
            dst = src;
            if nodes[node_idx].parent == usize::MAX {
                break;
            }
            node_idx = nodes[node_idx].parent;
        }
        log_move(
            log,
            FilterMove::Enter {
                key: key.clone(),
                table: dst / self.n,
            },
        );
        self.buckets[dst] = Some(Entry { key, value });
        self.meter.offchip_write(1);
        self.main_len += 1;
        Ok(InsertReport {
            outcome: InsertOutcome::Placed,
            kickouts,
            collision: true,
            copies_written: 1,
        })
    }

    fn fail_or_stash(
        &mut self,
        carried: Entry<K, V>,
        kickouts: u32,
    ) -> Result<InsertReport, CuckooFull<K, V>> {
        let report = InsertReport {
            outcome: InsertOutcome::Stashed,
            kickouts,
            collision: true,
            copies_written: 0,
        };
        if self.stash.len() < self.stash_capacity {
            self.stash.push((carried.key, carried.value));
            self.meter.stash_write(1);
            // The item is in the stash, not the main table; `len()`
            // includes it via stash_len.
            Ok(report)
        } else {
            Err(CuckooFull {
                evicted: (carried.key, carried.value),
                report: InsertReport {
                    outcome: InsertOutcome::Failed,
                    ..report
                },
            })
        }
    }

    /// Look up `key`, probing candidates in function order, then the
    /// stash (CHS checks its stash on every failed lookup).
    pub fn get(&self, key: &K) -> Option<&V> {
        let before = self.meter.snapshot();
        let found = self.get_unrecorded(key);
        let delta = self.meter.snapshot() - before;
        self.obs
            .record_lookup(found.is_some(), delta.offchip_reads + delta.stash_reads);
        found
    }

    fn get_unrecorded(&self, key: &K) -> Option<&V> {
        for i in 0..self.d {
            let b = self.slot_index(key, i);
            self.meter.offchip_read(1);
            if let Some(e) = &self.buckets[b] {
                if e.key == *key {
                    return Some(&e.value);
                }
            }
        }
        if !self.stash.is_empty() {
            self.meter.stash_read(1);
            return self.stash.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        }
        None
    }

    /// Whether `key` is stored.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let out = self.remove_unrecorded(key);
        self.obs.record_remove(out.is_some());
        out
    }

    fn remove_unrecorded(&mut self, key: &K) -> Option<V> {
        for i in 0..self.d {
            let b = self.slot_index(key, i);
            self.meter.offchip_read(1);
            if self.buckets[b].as_ref().is_some_and(|e| e.key == *key) {
                let e = self.buckets[b].take().unwrap();
                self.meter.offchip_write(1);
                self.main_len -= 1;
                return Some(e.value);
            }
        }
        if !self.stash.is_empty() {
            self.meter.stash_read(1);
            if let Some(pos) = self.stash.iter().position(|(k, _)| k == key) {
                self.meter.stash_write(1);
                return Some(self.stash.swap_remove(pos).1);
            }
        }
        None
    }

    /// Try to drain stashed items back into the main table ("items stored
    /// in it will take a try to the main table", §II.B). Returns how many
    /// were re-placed.
    pub fn retry_stash(&mut self) -> usize {
        let mut drained = 0;
        let mut i = 0;
        while i < self.stash.len() {
            let (k, _) = &self.stash[i];
            // Only retry when some candidate is free; avoids recursive
            // stash pushes.
            let has_room = (0..self.d).any(|f| {
                let b = self.slot_index(k, f);
                self.meter.offchip_read(1);
                self.buckets[b].is_none()
            });
            if has_room {
                self.meter.stash_read(1);
                let (k, v) = self.stash.swap_remove(i);
                // Unrecorded: re-offering a stashed item is not a new
                // user insert; the obs layer counted it when it spilled.
                let Ok(r) = self.insert_inner(k, v, &mut None) else {
                    unreachable!("a free candidate bucket was just observed")
                };
                debug_assert!(matches!(r.outcome, InsertOutcome::Placed));
                drained += 1;
            } else {
                i += 1;
            }
        }
        drained
    }

    /// Iterate stored `(key, value)` pairs (main table, then stash).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.buckets
            .iter()
            .filter_map(|b| b.as_ref().map(|e| (&e.key, &e.value)))
            .chain(self.stash.iter().map(|(k, v)| (k, v)))
    }

    /// Remove every stored item (main table and stash). The hash
    /// functions, kick policy and access meter are untouched.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            *b = None;
        }
        self.stash.clear();
        self.main_len = 0;
    }

    /// Undo a failed random-walk insertion from its move log: replay the
    /// kick trail backwards, re-seating every displaced entry in the
    /// bucket it was evicted from. `evicted` is the last victim (the item
    /// the failure handed back); walking the trail in reverse ends with
    /// the originally offered item "in hand", which is dropped — the
    /// failed insert becomes a strict no-op. A BFS failure executes no
    /// moves, so its empty log makes this a no-op too.
    pub(crate) fn unwind_failed_walk(&mut self, evicted: (K, V), log: &[FilterMove<K>]) {
        debug_assert!(log.len() % 2 == 0, "failed walks log whole kick pairs");
        let mut hand = Entry {
            key: evicted.0,
            value: evicted.1,
        };
        for pair in log.chunks_exact(2).rev() {
            let FilterMove::Enter { key, table } = &pair[0] else {
                unreachable!("kick pairs lead with Enter");
            };
            debug_assert!(
                matches!(&pair[1], FilterMove::Leave { key: victim, .. } if *victim == hand.key),
                "reverse trail must hand back each kick's victim"
            );
            // The kick placed `key` (then the carried item) into one of
            // its candidate buckets in sub-table `table`; that bucket is
            // recomputable from the key itself.
            let slot = self.slot_index(key, *table);
            hand = self.buckets[slot]
                .replace(hand)
                .expect("kick-trail buckets stay occupied");
            debug_assert!(hand.key == *key, "trail slot held the kicked item");
            self.meter.offchip_write(1);
        }
    }
}

/// [`McTable`] conformance. The trait's `insert` is a true upsert: a key
/// already resident in a candidate bucket (or the stash) has its value
/// rewritten **in place** — one off-chip write, no eviction risk, no
/// table churn. Fresh keys take the normal insertion path with one
/// strengthening over classic random-walk semantics: a **failed
/// insertion is a no-op**. The kick trail of a failed walk is unwound
/// backwards (each displaced entry is re-seated in the bucket it was
/// evicted from), so [`InsertOutcome::Failed`] means "not stored and
/// nothing else changed" — the same contract as the engine tables. The
/// inherent [`DaryCuckoo::insert`] keeps the classic evict-on-failure
/// semantics for callers that re-offer the victim.
impl<K: KeyHash + Eq + Clone, V: Clone> McTable<K, V> for DaryCuckoo<K, V> {
    fn insert(&mut self, key: K, value: V) -> InsertReport {
        // In-place update: the key's candidate buckets first.
        for i in 0..self.d {
            let b = self.slot_index(&key, i);
            self.meter.offchip_read(1);
            if self.buckets[b].as_ref().is_some_and(|e| e.key == key) {
                self.buckets[b].as_mut().expect("probed occupied").value = value;
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
        // Then the stash: a stash-resident key is updated where it sits
        // instead of being re-offered to a (possibly full) main table.
        if !self.stash.is_empty() {
            self.meter.stash_read(1);
            if let Some(slot) = self.stash.iter_mut().find(|(k, _)| *k == key) {
                slot.1 = value;
                self.meter.stash_write(1);
                let report = InsertReport {
                    outcome: InsertOutcome::Updated,
                    kickouts: 0,
                    collision: false,
                    copies_written: 0,
                };
                self.obs.record_insert(&report);
                return report;
            }
        }
        McTable::insert_new(self, key, value)
    }

    fn insert_new(&mut self, key: K, value: V) -> InsertReport {
        match DaryCuckoo::insert_logged(self, key, value) {
            Ok((r, _)) => r,
            Err((full, log)) => {
                self.unwind_failed_walk(full.evicted, &log);
                full.report
            }
        }
    }

    fn lookup(&self, key: &K) -> Option<V> {
        self.get(key).cloned()
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        DaryCuckoo::remove(self, key)
    }

    fn clear(&mut self) {
        DaryCuckoo::clear(self);
    }

    fn len(&self) -> usize {
        DaryCuckoo::len(self)
    }

    fn capacity(&self) -> usize {
        DaryCuckoo::capacity(self)
    }

    fn contains(&self, key: &K) -> bool {
        DaryCuckoo::contains(self, key)
    }

    fn load(&self) -> f64 {
        self.load_ratio()
    }

    fn stash_len(&self) -> usize {
        DaryCuckoo::stash_len(self)
    }

    fn refresh_stash(&mut self) -> usize {
        self.retry_stash()
    }

    fn mem_stats(&self) -> mem_model::MemStats {
        self.meter().snapshot()
    }

    fn stats(&self) -> TableStats {
        DaryCuckoo::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use workloads::UniqueKeys;

    fn table(n: usize, seed: u64) -> DaryCuckoo<u64, u64> {
        DaryCuckoo::new(CuckooConfig::paper(n, seed))
    }

    #[test]
    fn insert_then_get() {
        let mut t = table(128, 1);
        for k in 0u64..100 {
            t.insert(k, k * 10).unwrap();
        }
        assert_eq!(t.len(), 100);
        for k in 0u64..100 {
            assert_eq!(t.get(&k), Some(&(k * 10)));
        }
        assert_eq!(t.get(&1000), None);
    }

    #[test]
    fn fills_to_high_load_with_random_walk() {
        // Ternary cuckoo sustains ~90% load; check 85% fills cleanly.
        let n = 10_000;
        let mut t = table(n, 2);
        let mut keys = UniqueKeys::new(3);
        let target = (3 * n) * 85 / 100;
        for _ in 0..target {
            let k = keys.next_key();
            t.insert(k, k).expect("85% load must not fail");
        }
        assert_eq!(t.len(), target);
        assert!(t.load_ratio() > 0.84);
    }

    #[test]
    fn fills_to_high_load_with_bfs() {
        let n = 5_000;
        let mut cfg = CuckooConfig::paper(n, 4);
        cfg.policy = KickPolicy::Bfs;
        let mut t: DaryCuckoo<u64, u64> = DaryCuckoo::new(cfg);
        let mut keys = UniqueKeys::new(5);
        let target = (3 * n) * 85 / 100;
        for _ in 0..target {
            let k = keys.next_key();
            t.insert(k, k).expect("85% load must not fail");
        }
        // All inserted keys must remain findable after relocations.
        for k in UniqueKeys::new(5).take_vec(target) {
            assert!(t.contains(&k));
        }
    }

    #[test]
    fn remove_works_and_frees_space() {
        let mut t = table(64, 6);
        for k in 0u64..50 {
            t.insert(k, k).unwrap();
        }
        for k in 0u64..50 {
            assert_eq!(t.remove(&k), Some(k));
            assert_eq!(t.remove(&k), None);
        }
        assert!(t.is_empty());
    }

    #[test]
    fn kickouts_reported_and_items_survive_relocation() {
        let n = 1_000;
        let mut t = table(n, 7);
        let mut keys = UniqueKeys::new(8);
        let mut inserted = Vec::new();
        let mut any_kick = false;
        for _ in 0..(3 * n) * 88 / 100 {
            let k = keys.next_key();
            let r = t.insert(k, k).unwrap();
            any_kick |= r.kickouts > 0;
            inserted.push(k);
        }
        assert!(any_kick, "88% load must trigger kick-outs");
        for k in inserted {
            assert_eq!(t.get(&k), Some(&k));
        }
    }

    #[test]
    fn stash_catches_failures_and_serves_lookups() {
        // Tiny table, overfill until the stash is used.
        let mut t: DaryCuckoo<u64, u64> = DaryCuckoo::new(CuckooConfig {
            maxloop: 20,
            stash_capacity: 8,
            ..CuckooConfig::paper(8, 9)
        });
        let mut keys = UniqueKeys::new(10);
        let mut all = Vec::new();
        let mut stashed = 0;
        for _ in 0..24 {
            let k = keys.next_key();
            match t.insert(k, k) {
                Ok(r) => {
                    if r.outcome == InsertOutcome::Stashed {
                        stashed += 1;
                    }
                    all.push(k);
                }
                Err(full) => {
                    // Both the evicted item's key is gone; everything else
                    // must remain consistent. Stop here.
                    let (ek, _) = full.evicted;
                    all.retain(|&x| x != ek);
                    break;
                }
            }
        }
        assert!(stashed > 0 || t.stash_len() > 0, "expected stash use");
        for k in &all {
            assert!(t.contains(k), "key {k} lost");
        }
    }

    #[test]
    fn stash_full_reports_failure_with_evicted_item() {
        let mut t: DaryCuckoo<u64, u64> = DaryCuckoo::new(CuckooConfig {
            maxloop: 5,
            stash_capacity: 0,
            ..CuckooConfig::paper(2, 11)
        });
        let mut keys = UniqueKeys::new(12);
        let mut failures = 0;
        for _ in 0..50 {
            let k = keys.next_key();
            if let Err(full) = t.insert(k, k) {
                assert_eq!(full.report.outcome, InsertOutcome::Failed);
                failures += 1;
            }
        }
        assert!(failures > 0, "tiny table must overflow");
    }

    #[test]
    fn retry_stash_drains_after_removals() {
        let mut t: DaryCuckoo<u64, u64> = DaryCuckoo::new(CuckooConfig {
            maxloop: 30,
            stash_capacity: 16,
            ..CuckooConfig::paper(16, 13)
        });
        let mut keys = UniqueKeys::new(14);
        let inserted: Vec<u64> = (0..48)
            .map(|_| keys.next_key())
            .filter(|&k| t.insert(k, k).is_ok())
            .collect();
        if t.stash_len() == 0 {
            return; // seed happened to fit everything; nothing to test
        }
        // Free half the table, then drain.
        for k in inserted.iter().take(inserted.len() / 2) {
            t.remove(k);
        }
        let before = t.stash_len();
        let drained = t.retry_stash();
        assert_eq!(t.stash_len(), before - drained);
        assert!(drained > 0, "removals freed space; stash must drain");
    }

    #[test]
    fn meter_counts_lookup_probes() {
        let mut t = table(256, 15);
        for k in 0u64..10 {
            t.insert(k, k).unwrap();
        }
        let before = t.meter().snapshot();
        let _ = t.get(&99_999); // absent: must probe all d buckets
        let delta = t.meter().snapshot() - before;
        assert_eq!(delta.offchip_reads, 3);
        assert_eq!(delta.offchip_writes, 0);
    }

    #[test]
    fn insert_at_empty_table_costs_one_read_one_write() {
        let mut t = table(256, 16);
        let before = t.meter().snapshot();
        t.insert(1, 1).unwrap();
        let delta = t.meter().snapshot() - before;
        assert_eq!(delta.offchip_reads, 1); // first candidate empty
        assert_eq!(delta.offchip_writes, 1);
    }

    #[test]
    fn differential_against_hashmap() {
        let mut t = table(4_096, 17);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut keys = UniqueKeys::new(18);
        let mut s = SplitMix64::new(19);
        let mut live: Vec<u64> = Vec::new();
        for _ in 0..30_000 {
            match s.next_below(10) {
                0..=5 => {
                    let k = keys.next_key();
                    match t.insert(k, k + 1) {
                        Ok(_) => {
                            model.insert(k, k + 1);
                            live.push(k);
                        }
                        Err(full) => {
                            // Random-walk failure: k was placed, the
                            // evicted victim fell out.
                            model.insert(k, k + 1);
                            live.push(k);
                            let (ek, _) = full.evicted;
                            model.remove(&ek);
                            live.retain(|&x| x != ek);
                        }
                    }
                }
                6..=7 if !live.is_empty() => {
                    let i = s.next_below(live.len() as u64) as usize;
                    let k = live[i];
                    assert_eq!(t.get(&k), model.get(&k));
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
    fn iter_yields_all_items() {
        let mut t = table(128, 20);
        for k in 0u64..60 {
            t.insert(k, k * 2).unwrap();
        }
        let mut got: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        got.sort_unstable();
        assert_eq!(got, (0u64..60).collect::<Vec<_>>());
    }

    /// Sorted snapshot of everything stored (main table + stash).
    fn contents(t: &DaryCuckoo<u64, u64>) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = t.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn mctable_upsert_updates_in_place_with_one_write() {
        let mut t = table(256, 21);
        t.insert(5, 50).unwrap();
        let before = t.meter().snapshot();
        let r = McTable::insert(&mut t, 5, 51);
        assert_eq!(r.outcome, InsertOutcome::Updated);
        assert_eq!(r.kickouts, 0);
        assert!(!r.collision);
        let delta = t.meter().snapshot() - before;
        assert_eq!(delta.offchip_writes, 1, "in-place update is one write");
        assert_eq!(t.get(&5), Some(&51));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn mctable_failed_insert_is_a_noop() {
        // Tiny table, no stash, small budget: overload until an insert
        // fails, checking before/after snapshots around every op. A
        // failed McTable insert must leave the table bit-identical.
        let mut t: DaryCuckoo<u64, u64> = DaryCuckoo::new(CuckooConfig {
            maxloop: 8,
            ..CuckooConfig::paper(3, 22)
        });
        let mut keys = UniqueKeys::new(23);
        let mut failures = 0;
        for _ in 0..60 {
            let k = keys.next_key();
            let before = contents(&t);
            let r = McTable::insert(&mut t, k, k ^ 0xBEEF);
            if r.outcome == InsertOutcome::Failed {
                failures += 1;
                assert_eq!(contents(&t), before, "failed insert must change nothing");
                assert_eq!(t.get(&k), None, "failed key must not be stored");
            } else {
                assert_eq!(t.get(&k), Some(&(k ^ 0xBEEF)));
            }
        }
        assert!(failures > 0, "a 9-bucket table must overflow in 60 inserts");
    }

    #[test]
    fn mctable_upsert_of_stashed_key_leaves_table_untouched() {
        // Force a key into the stash, then upsert it: pre-fix this
        // re-offered the key to the full main table, kicking a walk that
        // swapped some other key into the stash. Post-fix the update
        // happens in the stash slot itself.
        let mut t: DaryCuckoo<u64, u64> = DaryCuckoo::new(CuckooConfig {
            maxloop: 12,
            stash_capacity: 8,
            ..CuckooConfig::paper(4, 24)
        });
        let mut keys = UniqueKeys::new(25);
        while t.stash_len() == 0 {
            let k = keys.next_key();
            t.insert(k, k)
                .expect("stash absorbs failures at capacity 8");
        }
        // Stash items come after the first `main_len` iter entries.
        let (stashed_key, _) = t.iter().nth(t.main_len()).map(|(k, v)| (*k, *v)).unwrap();
        let main_before: Vec<(u64, u64)> = {
            let mut v: Vec<(u64, u64)> =
                t.iter().take(t.main_len()).map(|(k, v)| (*k, *v)).collect();
            v.sort_unstable();
            v
        };
        let r = McTable::insert(&mut t, stashed_key, 9_999);
        assert_eq!(r.outcome, InsertOutcome::Updated);
        assert_eq!(t.get(&stashed_key), Some(&9_999));
        let main_after: Vec<(u64, u64)> = {
            let mut v: Vec<(u64, u64)> =
                t.iter().take(t.main_len()).map(|(k, v)| (*k, *v)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            main_after, main_before,
            "stash-resident upsert must not disturb the main table"
        );
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn d1_panics() {
        let _ = DaryCuckoo::<u64, u64>::new(CuckooConfig {
            d: 1,
            ..CuckooConfig::paper(8, 0)
        });
    }

    use hash_kit::SplitMix64;
}

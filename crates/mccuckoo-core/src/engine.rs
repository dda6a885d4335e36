//! The shared multi-copy cuckoo engine.
//!
//! [`McCuckoo`](crate::McCuckoo) and
//! [`BlockedMcCuckoo`](crate::BlockedMcCuckoo) are two instantiations of
//! the one [`Engine`] defined here: the single-slot table is the `l = 1`
//! case, the blocked table ("B-McCuckoo", §III.G) the `l`-slot case. The
//! geometry- and probe-strategy differences live in a [`BucketLayout`]
//! implementation; everything else — candidate generation, foresighted
//! insertion, the kick walk, counter maintenance, deletion, the stash —
//! is this module's shared control flow, and the only write path:
//! [`ConcurrentMcCuckoo`](crate::ConcurrentMcCuckoo)'s writer is a
//! single-slot engine over the seqlocked slot store (`store.rs`; its
//! readers rely on the write order stated in `DESIGN.md`,
//! "Concurrency").
//!
//! Layout: `d` sub-tables of `n` buckets of `l` slots off-chip, plus a
//! 1-bit stash flag per *bucket* that travels with the bucket; and an
//! on-chip [`CounterArray`](crate::CounterArray) with one counter per
//! *slot* recording how many live copies the slot's occupant has.
//!
//! ## Insertion principles (§III.B.1, Algorithm 1)
//! 1. copy into **every** candidate bucket with a free slot;
//! 2. never overwrite a slot of value 1;
//! 3. overwrite the rest in decreasing order of value, while the
//!    overwrite still leaves the victim at least as many copies as the
//!    inserted item gains (formally: overwrite value `V` only while the
//!    inserted item's current copy count `c` satisfies `c + 2 ≤ V`).
//!
//! ## Lookup
//! Every lookup is "plan, then probe". Which candidate buckets a lookup
//! reads, and in what order, is the paper-mandated per-variant
//! difference and therefore the one lookup hook of [`BucketLayout`]
//! ([`BucketLayout::plan_probe`]):
//!
//! * the single-slot layout partitions candidates by counter value,
//!   skips impossible partitions and plans at most `S − V + 1` buckets
//!   of a surviving partition (§III.B.2 / Theorem 3);
//! * the blocked layout follows Algorithm 2: only the empty-bucket skip
//!   is counter-driven ("the lookup routine is more like a traditional
//!   one that does not rely much on the counters").
//!
//! `Engine::probe` then reads the plan the same way for both layouts:
//! one off-chip access per planned bucket, its stash flag, a scan of its
//! `l` slots, and stash screening on a miss.
//!
//! ## Copy-set disambiguation
//! When a redundant copy of victim `B` (copy count `v`) is overwritten,
//! `B`'s remaining copies must be decremented. Every stored entry
//! carries creation-time slot hints (one per candidate table, Fig. 5);
//! copies sit in hinted slots whose counter equals `v`, and when more
//! slots match than copies exist the extras are resolved with
//! verification reads (`DESIGN.md` §4 — the paper leaves this ambiguity
//! implicit).

use hash_kit::{BucketFamily, KeyHash, SplitMix64};
use mem_model::{InsertOutcome, InsertReport, MemMeter};

use crate::config::{DeletionMode, KickPolicyKind, McConfig};
use crate::kick::{self, EvictionGraph};
use crate::obs::{Obs, TableStats};
use crate::prefetch::Window;
use crate::stash::Stash;
use crate::store::{Entry, PlainStore, SlotHint, SlotStore};

/// Maximum supported `d` (the paper argues d = 3 suffices in practice).
pub const MAX_D: usize = 4;

/// Global bucket indices of `key`'s `d` candidates under `family` over
/// `n` buckets per sub-table (entries past `d` are `usize::MAX`).
#[inline]
pub(crate) fn candidate_buckets<K: KeyHash>(
    family: &BucketFamily,
    d: usize,
    n: usize,
    key: &K,
) -> [usize; MAX_D] {
    let mut raw = [0usize; MAX_D];
    family.buckets_into(key, &mut raw[..d]);
    let mut out = [usize::MAX; MAX_D];
    for i in 0..d {
        out[i] = i * n + raw[i];
    }
    out
}

/// Insertion failure: relocation budget exhausted and no stash configured.
///
/// As with classic cuckoo hashing, the inserted item was placed during
/// the walk and `evicted` is the last displaced victim; every other item
/// remains findable.
#[derive(Debug)]
pub struct McFull<K, V> {
    /// The item that fell out of the table.
    pub evicted: (K, V),
    /// Instrumentation of the failed insertion.
    pub report: InsertReport,
}

/// Up to [`MAX_D`] indices, e.g. a key's copy slots: a key has at most
/// one copy per candidate bucket, so every copy set fits.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlotList {
    idx: [usize; MAX_D],
    len: u8,
}

impl SlotList {
    /// Append slot `i`.
    #[inline]
    pub(crate) fn push(&mut self, i: usize) {
        self.idx[self.len as usize] = i;
        self.len += 1;
    }

    /// The listed slots, in insertion order.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[usize] {
        &self.idx[..self.len as usize]
    }

    /// Number of listed slots.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }
}

/// Result of `Engine::probe`.
#[derive(Debug)]
pub enum Probe {
    /// Slot index of the first copy found.
    Found(usize),
    /// Not in the main table.
    Miss {
        /// Whether stash screening allows the stash lookup.
        check_stash: bool,
    },
}

/// Result of a layout's all-copies probe (deletion/update path).
#[derive(Debug)]
pub enum CopyProbe {
    /// Every live copy of the key.
    Found {
        /// Slot indices of all copies.
        locations: SlotList,
        /// The copy whose value the operation should report (the one the
        /// probe actually read).
        primary: usize,
    },
    /// Not in the main table.
    Miss {
        /// Whether stash screening allows the stash access.
        check_stash: bool,
    },
}

/// The per-variant half of the algorithm: geometry (slots per bucket),
/// the lookup's probe order and the all-copies probe.
///
/// [`SingleLayout`](crate::single::SingleLayout) is the `l = 1`
/// instantiation with partition-pruned lookups;
/// [`BlockedLayout`](crate::blocked::BlockedLayout) is the `l`-slot
/// instantiation with Algorithm 2 lookups.
pub trait BucketLayout: std::fmt::Debug {
    /// XOR tweak applied to the configuration seed for the kick-walk RNG
    /// (keeps the walk streams of distinct variants decorrelated).
    const RNG_TWEAK: u64;

    /// Slots per bucket (`l`).
    fn slots(&self) -> usize;

    /// Draw the victim slot for one kick-walk eviction. The single-slot
    /// layout returns 0 without consuming randomness; the blocked layout
    /// always draws, even for `l = 1`.
    fn draw_slot(&self, rng: &mut SplitMix64) -> usize;

    /// Locate **all** copies of `key` (deletion principles, §III.B.3).
    /// `cands` are the key's candidate buckets, precomputed by the
    /// caller so each operation hashes its key exactly once.
    fn probe_copies<K: KeyHash + Eq + Clone, V: Clone, S: SlotStore<K, V>>(
        t: &Engine<K, V, Self, S>,
        key: &K,
        cands: &[usize; MAX_D],
    ) -> CopyProbe
    where
        Self: Sized;

    /// The buckets a lookup of a key with candidates `cands` reads, in
    /// visit order, or the rule-1 verdict. Pure: it peeks at the
    /// counters directly (unmetered; `Engine::probe` meters them) and
    /// issues no prefetch, so a plan costs nothing in the access model.
    fn plan_probe<K: KeyHash + Eq + Clone, V: Clone, S: SlotStore<K, V>>(
        t: &Engine<K, V, Self, S>,
        cands: &[usize; MAX_D],
    ) -> ProbePlan
    where
        Self: Sized;
}

/// Output of [`BucketLayout::plan_probe`]: the candidate buckets a
/// lookup reads, in visit order, plus the rule-1 verdict.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbePlan {
    /// Buckets in visit order. A key reads each candidate at most once,
    /// so `MAX_D` always fits.
    pub(crate) buckets: SlotList,
    /// Lookup rule 1 fired: a definite miss with zero off-chip reads
    /// and no stash consultation.
    pub(crate) rule1: bool,
}

/// The generic multi-copy cuckoo table. Use through the
/// [`McCuckoo`](crate::McCuckoo) / [`BlockedMcCuckoo`](crate::BlockedMcCuckoo)
/// aliases. `S` is the slot store (the plain planes unless the engine is
/// a concurrent table's writer).
#[derive(Debug)]
pub struct Engine<K, V, L: BucketLayout, S = PlainStore<K, V>> {
    pub(crate) layout: L,
    pub(crate) family: BucketFamily,
    pub(crate) d: usize,
    pub(crate) n: usize,
    pub(crate) deletion: DeletionMode,
    pub(crate) maxloop: u32,
    /// Collision resolution: the paper's mutate-as-you-walk random walk
    /// (optionally MinCounter-guided), or a plan-first policy (BFS /
    /// bubbling) from the [`kick`] layer.
    pub(crate) kick: KickPolicyKind,
    /// Off-chip slots (`(table * n + bucket) * l + slot`), the bucket
    /// stash flags, and the on-chip per-slot copy counters.
    pub(crate) store: S,
    /// On-chip 5-bit kick-history counters, one per bucket
    /// ([`KickPolicyKind::MinCounter`] walks only).
    pub(crate) kick_history: Option<Vec<u8>>,
    pub(crate) stash: Stash<K, V>,
    pub(crate) stash_policy: crate::config::StashPolicy,
    /// Construction seed (retained for snapshots/rehash derivation).
    pub(crate) seed: u64,
    /// Distinct live keys in the main table.
    pub(crate) distinct: usize,
    /// Cumulative proactive redundant writes (Theorem 2 accounting).
    pub(crate) redundant_writes: u64,
    pub(crate) rng: SplitMix64,
    pub(crate) meter: MemMeter,
    /// Lock-free observability counters (monotonic; survive `clear`).
    pub(crate) obs: Obs,
}

impl<K: KeyHash + Eq + Clone, V: Clone, L: BucketLayout, S: SlotStore<K, V>> Engine<K, V, L, S> {
    /// Build a table from a validated base configuration and a layout.
    pub(crate) fn from_config(config: McConfig, layout: L) -> Self {
        config.validate();
        let family = BucketFamily::new(
            config.family,
            config.d,
            config.buckets_per_table,
            config.seed,
        );
        let total_buckets = config.d * config.buckets_per_table;
        let walks = config.kick == KickPolicyKind::MinCounter && !S::PLANS_FIRST;
        Self {
            family,
            d: config.d,
            n: config.buckets_per_table,
            deletion: config.deletion,
            maxloop: config.maxloop,
            kick: config.kick,
            store: S::new(
                total_buckets * layout.slots(),
                total_buckets,
                config.d as u8,
            ),
            layout,
            kick_history: walks.then(|| vec![0u8; total_buckets]),
            stash: Stash::new(config.stash),
            stash_policy: config.stash,
            seed: config.seed,
            distinct: 0,
            redundant_writes: 0,
            rng: SplitMix64::new(config.seed ^ L::RNG_TWEAK),
            meter: MemMeter::new(),
            obs: Obs::default(),
        }
    }

    /// Reconstruct the base configuration this table is equivalent to
    /// (used by snapshots; note a resized table reports its *current*
    /// geometry).
    pub fn config_snapshot(&self) -> McConfig {
        McConfig {
            d: self.d,
            buckets_per_table: self.n,
            maxloop: self.maxloop,
            kick: self.kick,
            deletion: self.deletion,
            stash: self.stash_policy,
            family: self.family.kind(),
            seed: self.seed,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of hash functions.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Distinct keys stored in the main table.
    pub fn main_len(&self) -> usize {
        self.distinct
    }

    /// Items in the stash.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Total distinct keys stored (main table + stash).
    pub fn len(&self) -> usize {
        self.distinct + self.stash.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot count (`d × buckets_per_table × slots_per_bucket`).
    pub fn capacity(&self) -> usize {
        self.store.len()
    }

    /// Load ratio: distinct items / slot count (the paper's measure —
    /// note redundant copies do *not* inflate it).
    pub fn load_ratio(&self) -> f64 {
        self.len() as f64 / self.capacity() as f64
    }

    /// Access meter.
    pub fn meter(&self) -> &MemMeter {
        &self.meter
    }

    /// Snapshot of the observability counters (op counts and probe/kick
    /// histograms). Monotonic over the table's lifetime. The snapshot is
    /// labelled with the configured kick policy — one table runs exactly
    /// one policy, so `kick_hist` *is* that policy's walk-length
    /// histogram.
    pub fn stats(&self) -> TableStats {
        let mut s = self.obs.snapshot();
        s.kick_policy = self.kick.label().to_string();
        s
    }

    /// The table's observability recorder. Wrapper layers that serve a
    /// key from *outside* the table proper (e.g. [`crate::McMap`]'s
    /// parked buffer) record the operation here themselves, so
    /// [`Engine::stats`] still counts every logical operation exactly
    /// once.
    pub(crate) fn obs(&self) -> &crate::obs::Obs {
        &self.obs
    }

    /// Deletion mode the table was configured with.
    pub fn deletion_mode(&self) -> DeletionMode {
        self.deletion
    }

    /// Cumulative proactive redundant writes — copies written beyond the
    /// first per placement. Theorem 2 bounds this by
    /// `S · ((d−1)/d + Σ_{t=3..d} (t−2)/(t(t−1)))` (= 5S/6 for d = 3).
    pub fn redundant_writes(&self) -> u64 {
        self.redundant_writes
    }

    /// On-chip bytes consumed by the counter array (plus the kick
    /// history under [`KickPolicyKind::MinCounter`], 5 bits per bucket
    /// rounded up to whole bytes).
    pub fn onchip_bytes(&self) -> usize {
        self.store.counters().onchip_bytes()
            + self
                .kick_history
                .as_ref()
                .map_or(0, |k| (k.len() * 5).div_ceil(8))
    }

    /// Buckets per sub-table (`n`).
    pub fn buckets_per_table(&self) -> usize {
        self.n
    }

    /// Remove every item, keeping geometry and hash functions.
    /// Maintenance, not traffic: unmetered.
    pub fn clear(&mut self) {
        self.store.clear();
        if let Some(h) = &mut self.kick_history {
            h.fill(0);
        }
        let _ = self.stash.drain_all();
        self.distinct = 0;
        self.redundant_writes = 0;
    }

    // ------------------------------------------------------------------
    // Geometry helpers
    // ------------------------------------------------------------------

    /// Global bucket indices of `key`'s `d` candidates.
    #[inline]
    pub(crate) fn candidate_buckets(&self, key: &K) -> [usize; MAX_D] {
        candidate_buckets(&self.family, self.d, self.n, key)
    }

    /// Global slot index of `(bucket, slot)`.
    #[inline]
    pub(crate) fn slot_idx(&self, bucket: usize, slot: usize) -> usize {
        bucket * self.layout.slots() + slot
    }

    /// Raw copy counter of slot `i`.
    #[inline]
    pub(crate) fn counter(&self, i: usize) -> u8 {
        self.store.counters().get(i)
    }

    /// The plan that reads every non-empty candidate bucket in
    /// candidate order (Algorithm 2's lookup). A bucket is non-empty
    /// once any of its slot counters is non-zero; unmetered.
    pub(crate) fn plan_nonempty(&self, cands: &[usize; MAX_D]) -> ProbePlan {
        let mut plan = ProbePlan::default();
        for &c in cands.iter().take(self.d) {
            if (0..self.layout.slots()).any(|s| self.counter(self.slot_idx(c, s)) != 0) {
                plan.buckets.push(c);
            }
        }
        plan
    }

    /// Meter one on-chip read per slot counter of the candidate set.
    pub(crate) fn meter_counter_scan(&self) {
        self.meter
            .onchip_read((self.d * self.layout.slots()) as u64);
    }

    // ------------------------------------------------------------------
    // Insertion (Algorithm 1, generalised to the d-ary principles)
    // ------------------------------------------------------------------

    /// Upsert: update the value if `key` exists (all copies are
    /// rewritten), otherwise insert it fresh.
    pub fn insert(&mut self, key: K, value: V) -> Result<InsertReport, McFull<K, V>> {
        let out = self.insert_unrecorded(key, value);
        self.obs
            .record_insert(out.as_ref().unwrap_or_else(|f| &f.report));
        out
    }

    /// Insert a key **known to be absent** (checked in debug builds).
    /// This is the operation the paper's experiments measure; the
    /// existence probe of [`Engine::insert`] is skipped.
    pub fn insert_new(&mut self, key: K, value: V) -> Result<InsertReport, McFull<K, V>> {
        let out = self.insert_new_unrecorded(key, value);
        self.obs
            .record_insert(out.as_ref().unwrap_or_else(|f| &f.report));
        out
    }

    /// [`Engine::insert`] without observability recording. Wrapper
    /// layers that can rescue a full-table failure (e.g.
    /// [`crate::McMap`]'s growth path) go through this and record the
    /// *final* outcome once via [`Engine::obs`], so a rescued insert is
    /// never counted as the `Failed` the inner table saw.
    pub(crate) fn insert_unrecorded(
        &mut self,
        key: K,
        value: V,
    ) -> Result<InsertReport, McFull<K, V>> {
        let cands = self.candidate_buckets(&key);
        self.insert_staged(key, value, &cands)
    }

    /// Stage 2 of a pipelined upsert: [`Engine::insert_unrecorded`] on
    /// `key`'s candidate buckets `cands`, hashed once for both the
    /// update probe and the placement (by stage 1, on the batched write
    /// path).
    pub(crate) fn insert_staged(
        &mut self,
        key: K,
        value: V,
        cands: &[usize; MAX_D],
    ) -> Result<InsertReport, McFull<K, V>> {
        if let Some(report) = self.try_update(&key, &value, cands) {
            return Ok(report);
        }
        self.place_new(key, value, cands)
    }

    /// [`Engine::insert_new`] without observability recording. Internal
    /// re-insert paths — stash refresh, rehash, snapshot restore — go
    /// through this so one logical user operation is never counted twice.
    pub(crate) fn insert_new_unrecorded(
        &mut self,
        key: K,
        value: V,
    ) -> Result<InsertReport, McFull<K, V>> {
        debug_assert!(
            self.raw_find(&key).is_none() && !self.raw_in_stash(&key),
            "insert_new requires a fresh key"
        );
        let cands = self.candidate_buckets(&key);
        self.place_new(key, value, &cands)
    }

    /// Stage 2 of an insert-if-absent: place `key` on its candidates
    /// `cands` unless a copy is already stored (`Ok(false)`, the stored
    /// value untouched). Returns `Ok(true)` when the key was placed.
    pub(crate) fn insert_absent_staged(
        &mut self,
        key: K,
        value: V,
        cands: &[usize; MAX_D],
    ) -> Result<bool, McFull<K, V>> {
        if self.raw_slots(&key, *cands).next().is_some() || self.raw_in_stash(&key) {
            return Ok(false);
        }
        self.place_new(key, value, cands).map(|_| true)
    }

    /// Place an absent key: the insertion principles, then collision
    /// resolution on a real collision.
    fn place_new(
        &mut self,
        key: K,
        value: V,
        cands: &[usize; MAX_D],
    ) -> Result<InsertReport, McFull<K, V>> {
        self.meter_counter_scan();
        if let Some(copies) = self.try_place(&key, &value, cands) {
            self.distinct += 1;
            self.check_paranoid();
            return Ok(InsertReport::clean(copies));
        }
        let out = self.resolve_collision(key, value, cands);
        self.check_paranoid();
        out
    }

    /// Apply the insertion principles over the candidate buckets. Claims
    /// at most one slot per bucket, writes all copies with a shared hint
    /// set, finalizes counters. `None` on a real collision (all `d·l`
    /// candidate counters equal 1).
    fn try_place(&mut self, key: &K, value: &V, cands: &[usize; MAX_D]) -> Option<u8> {
        let l = self.layout.slots();
        let mut claimed: [Option<u8>; MAX_D] = [None; MAX_D];
        let mut claimed_len = 0usize;
        // The candidates' counters, re-read after every victim
        // decrement (a victim's siblings may share the candidate set).
        let mut cv = self.candidate_counters(cands);

        // Principle 1: one copy into every bucket with a free slot
        // (counter 0 reads as empty for insertion; tombstones too).
        for i in 0..self.d {
            if let Some(s) = cv[i][..l].iter().position(|&c| c == 0) {
                claimed[i] = Some(s as u8);
                claimed_len += 1;
            }
        }

        // Principles 2+3: overwrite redundant copies, highest counter
        // value first, while the inserted item still ends up no more
        // redundant than the diminished victim (c + 2 ≤ V); among
        // buckets offering the same value, prefer the most "available"
        // bucket (largest counter sum — Algorithm 1's sort key; a
        // degenerate tie at l = 1). Victim bookkeeping happens at claim
        // time; the content write is deferred so every copy can carry
        // the complete hint set.
        for target in (2..=self.d as u8).rev() {
            loop {
                if claimed_len as u8 + 2 > target {
                    break;
                }
                let mut best: Option<(usize, usize, u32)> = None; // (i, slot, sum)
                for i in 0..self.d {
                    if claimed[i].is_some() {
                        continue;
                    }
                    let Some(s) = cv[i][..l].iter().position(|&c| c == target) else {
                        continue;
                    };
                    let sum = cv[i][..l].iter().map(|&c| c as u32).sum();
                    // MSRV 1.75: spelled without `Option::is_none_or`.
                    if best.map(|(_, _, bs)| sum > bs).unwrap_or(true) {
                        best = Some((i, s, sum));
                    }
                }
                let Some((i, s, _)) = best else { break };
                self.decrement_victim_siblings(cands[i], s);
                cv = self.candidate_counters(cands);
                claimed[i] = Some(s as u8);
                claimed_len += 1;
            }
        }

        if claimed_len == 0 {
            debug_assert!(
                cv[..self.d].iter().all(|b| b[..l].iter().all(|&c| c == 1)),
                "collision ⇔ all ones"
            );
            return None;
        }
        self.write_copies(key, value, cands, &claimed, claimed_len);
        Some(claimed_len as u8)
    }

    /// Raw counters of the candidate buckets' slots (`[bucket][slot]`).
    fn candidate_counters(&self, cands: &[usize; MAX_D]) -> [[u8; 8]; MAX_D] {
        let mut cv = [[0u8; 8]; MAX_D];
        for (i, bucket) in cv.iter_mut().enumerate().take(self.d) {
            for (s, c) in bucket.iter_mut().enumerate().take(self.layout.slots()) {
                *c = self.counter(self.slot_idx(cands[i], s));
            }
        }
        cv
    }

    /// Read the victim in `(bucket, slot)` (about to be overwritten) and
    /// decrement its siblings' counters, located through its verified
    /// hints (copy-set disambiguation).
    fn decrement_victim_siblings(&mut self, bucket: usize, slot: usize) {
        let idx = self.slot_idx(bucket, slot);
        let vcount = self.counter(idx);
        debug_assert!(vcount >= 2, "principle 2: never overwrite value 1");
        // The victim's identity (and hint set) is needed to locate its
        // siblings: one off-chip read.
        self.meter.offchip_read(1);
        let victim = self.store.entry(idx).expect("counter ≥ 1 ⇒ occupied");
        let vcands = self.candidate_buckets(&victim.key);
        let siblings = self.locate_siblings(&victim.key, &vcands, &victim.hints, vcount, idx);
        debug_assert_eq!(siblings.len(), vcount as usize - 1);
        self.meter.onchip_write(siblings.len() as u64);
        for &sidx in siblings.as_slice() {
            self.store.set_counter(sidx, vcount - 1);
        }
    }

    /// Locate the live sibling copies of `key` (candidates `cands`,
    /// total `count` copies, excluding the one at `exclude`), using its
    /// hint set verified against counters and, when ambiguous, slot
    /// contents.
    pub(crate) fn locate_siblings(
        &self,
        key: &K,
        cands: &[usize; MAX_D],
        hints: &[SlotHint; MAX_D],
        count: u8,
        exclude: usize,
    ) -> SlotList {
        self.meter.onchip_read(self.d as u64);
        let needed = count as usize - 1;
        let mut matches = SlotList::default();
        for t in 0..self.d {
            let Some(s) = hints[t].slot() else { continue };
            let p = self.slot_idx(cands[t], s);
            if p != exclude && self.counter(p) == count {
                matches.push(p);
            }
        }
        debug_assert!(matches.len() >= needed, "copies must be among matches");
        if matches.len() == needed {
            return matches;
        }
        // Ambiguous: verify contents until the remainder is forced.
        let matches = matches.as_slice();
        let mut confirmed = SlotList::default();
        for (pos, &m) in matches.iter().enumerate() {
            if confirmed.len() == needed {
                break;
            }
            if matches.len() - pos == needed - confirmed.len() {
                for &rest in &matches[pos..] {
                    confirmed.push(rest);
                }
                break;
            }
            self.meter.verify_read(1);
            if self.store.entry(m).is_some_and(|e| e.key == *key) {
                confirmed.push(m);
            }
        }
        debug_assert_eq!(confirmed.len(), needed);
        confirmed
    }

    /// Write the claimed copies with a shared hint set and finalize
    /// counters, each copy's content before its counter.
    fn write_copies(
        &mut self,
        key: &K,
        value: &V,
        cands: &[usize; MAX_D],
        claimed: &[Option<u8>; MAX_D],
        claimed_len: usize,
    ) {
        let mut hints = [SlotHint::None; MAX_D];
        for i in 0..self.d {
            if let Some(s) = claimed[i] {
                hints[i] = SlotHint::at(s as usize);
            }
        }
        self.meter.offchip_write(claimed_len as u64);
        self.meter.onchip_write(claimed_len as u64);
        for i in 0..self.d {
            let Some(s) = claimed[i] else { continue };
            let idx = self.slot_idx(cands[i], s as usize);
            let entry = Entry {
                key: key.clone(),
                value: value.clone(),
                hints,
            };
            self.store.put(idx, entry);
            self.store.set_counter(idx, claimed_len as u8);
        }
        self.redundant_writes += claimed_len as u64 - 1;
    }

    /// Collision resolution: the counters have already proven that every
    /// candidate slot holds a sole copy, so a displacement chain is
    /// needed. The paper's random walk and its MinCounter variant mutate
    /// as they go (§III.D, preserved bit-for-bit on the plain store); BFS
    /// and bubbling — and every policy on a store whose readers race the
    /// writer ([`SlotStore::PLANS_FIRST`], where MinCounter is planned as
    /// the walk) — plan a complete chain through the [`kick`] layer first
    /// and execute it only if it exists, so their failed inserts leave
    /// the main table untouched.
    fn resolve_collision(
        &mut self,
        key: K,
        value: V,
        cands: &[usize; MAX_D],
    ) -> Result<InsertReport, McFull<K, V>> {
        match self.kick {
            KickPolicyKind::RandomWalk | KickPolicyKind::MinCounter if !S::PLANS_FIRST => {
                self.resolve_collision_walk(key, value)
            }
            _ => self.resolve_collision_planned(key, value, cands),
        }
    }

    /// The paper's mutate-as-you-walk random walk (§III.D): each step
    /// re-applies the insertion principles for the carried item and the
    /// counters pinpoint a usable slot the moment one exists on the
    /// walk. On budget exhaustion the relocations stay in place and the
    /// *last carried* item is stashed (classic cuckoo failure
    /// semantics).
    fn resolve_collision_walk(&mut self, key: K, value: V) -> Result<InsertReport, McFull<K, V>> {
        let mut kickouts = 0u32;
        let mut carried_key = key;
        let mut carried_value = value;
        let mut prev_bucket = usize::MAX;
        loop {
            if kickouts >= self.maxloop {
                return self.stash_item(carried_key, carried_value, kickouts);
            }
            #[cfg(feature = "testhooks")]
            crate::testhooks::fire_panic_in_kick();
            let cands = self.candidate_buckets(&carried_key);
            let vi = self.pick_victim(&cands, prev_bucket);
            let vb = cands[vi];
            let vslot = self.layout.draw_slot(&mut self.rng);
            let idx = self.slot_idx(vb, vslot);
            debug_assert_eq!(self.counter(idx), 1, "walk only sees sole copies");
            let mut hints = [SlotHint::None; MAX_D];
            hints[vi] = SlotHint::at(vslot);
            // Swap the carried item into the victim's slot: one read
            // (victim identity) + one write. Counter stays 1 (sole copy
            // out, sole copy in).
            self.meter.offchip_read(1);
            self.meter.offchip_write(1);
            let old = self.store.take(idx).expect("victims hold sole copies");
            let entry = Entry {
                key: carried_key,
                value: carried_value,
                hints,
            };
            self.store.put(idx, entry);
            carried_key = old.key;
            carried_value = old.value;
            prev_bucket = vb;
            kickouts += 1;
            // Try to settle the evicted item by the normal principles.
            let cands = self.candidate_buckets(&carried_key);
            self.meter_counter_scan();
            if let Some(copies) = self.try_place(&carried_key, &carried_value, &cands) {
                self.distinct += 1;
                return Ok(InsertReport {
                    outcome: InsertOutcome::Placed,
                    kickouts,
                    collision: true,
                    copies_written: copies,
                });
            }
        }
    }

    /// Plan-first collision resolution: ask the [`kick`] layer for a
    /// complete displacement chain, then execute it back to front —
    /// settle the terminal occupant by the ordinary insertion principles,
    /// shift the chain backward one slot each (each destination written
    /// before its source is overwritten), write the inserted key into the
    /// freed front slot. Planning only reads, so a plan failure stashes
    /// the *original* key with the main table strictly untouched (no
    /// unwind log needed — contrast with the random walk, which leaves
    /// its relocations in place).
    fn resolve_collision_planned(
        &mut self,
        key: K,
        value: V,
        cands: &[usize; MAX_D],
    ) -> Result<InsertReport, McFull<K, V>> {
        let mut path = Vec::new();
        // The planner borrows the table immutably; lend it the RNG.
        let mut rng = std::mem::replace(&mut self.rng, SplitMix64::new(0));
        let planned = kick::plan_kick(&*self, self.kick, &key, &mut rng, self.maxloop, &mut path);
        self.rng = rng;
        if !planned {
            return self.stash_item(key, value, 0);
        }
        #[cfg(feature = "testhooks")]
        crate::testhooks::fire_panic_in_kick();
        let l = self.layout.slots();
        let kickouts = path.len() as u32;

        // 1. Settle the terminal occupant via the insertion principles.
        //    The planner guaranteed a counter-0 slot or an overwritable
        //    redundant copy among its candidates, and nothing has moved
        //    since (one writer), so this cannot fail. Its `distinct` was
        //    counted when it first entered the table; its stale copy at
        //    the terminal slot is overwritten in step 2.
        let last = *path.last().expect("planned chains are non-empty");
        self.meter.offchip_read(1);
        let terminal = self
            .store
            .entry(last)
            .expect("chain slots hold sole copies");
        let (tkey, tvalue) = (terminal.key.clone(), terminal.value.clone());
        let tcands = self.candidate_buckets(&tkey);
        self.meter_counter_scan();
        let copies = self
            .try_place(&tkey, &tvalue, &tcands)
            .expect("planned terminal occupant must settle");

        // 2. Shift the chain backward: the occupant of `path[w]` moves
        //    into `path[w+1]` (just vacated logically). Sole copies move
        //    between sole-copy slots, so every counter on the chain stays
        //    1; each hop is one victim read + one write, like a walk hop.
        //    A hop's sub-table is its destination bucket's.
        for w in (0..path.len() - 1).rev() {
            let (src, dst) = (path[w], path[w + 1]);
            self.meter.offchip_read(1);
            self.meter.offchip_write(1);
            let e = self.store.entry(src).expect("chain slots hold sole copies");
            let dst_bucket = dst / l;
            let t = dst_bucket / self.n;
            assert_eq!(
                self.family.bucket(&e.key, t),
                dst_bucket % self.n,
                "chain hop lands in a candidate bucket"
            );
            let mut hints = [SlotHint::None; MAX_D];
            hints[t] = SlotHint::at(dst % l);
            let moved = Entry {
                key: e.key.clone(),
                value: e.value.clone(),
                hints,
            };
            self.store.put(dst, moved);
        }

        // 3. The front slot now belongs to the inserted key (sole copy).
        let s0 = path[0];
        let t = s0 / l / self.n;
        assert_eq!(
            cands[t],
            s0 / l,
            "chains start at a candidate of the inserted key"
        );
        let mut hints = [SlotHint::None; MAX_D];
        hints[t] = SlotHint::at(s0 % l);
        self.meter.offchip_write(1);
        self.store.put(s0, Entry { key, value, hints });
        self.distinct += 1;
        Ok(InsertReport {
            outcome: InsertOutcome::Placed,
            kickouts,
            collision: true,
            copies_written: copies,
        })
    }

    /// Choose the candidate index to evict from, excluding `prev_bucket`.
    fn pick_victim(&mut self, cands: &[usize; MAX_D], prev_bucket: usize) -> usize {
        match self.kick {
            KickPolicyKind::MinCounter => {
                let hist = self.kick_history.as_ref().expect("policy has history");
                self.meter.onchip_read(self.d as u64);
                let mut best = SlotList::default();
                let mut best_val = u8::MAX;
                for i in 0..self.d {
                    if cands[i] == prev_bucket {
                        continue;
                    }
                    let h = hist[cands[i]];
                    match h.cmp(&best_val) {
                        std::cmp::Ordering::Less => {
                            best_val = h;
                            best = SlotList::default();
                            best.push(i);
                        }
                        std::cmp::Ordering::Equal => best.push(i),
                        std::cmp::Ordering::Greater => {}
                    }
                }
                let pick = best.as_slice()[self.rng.next_below(best.len() as u64) as usize];
                let hist = self.kick_history.as_mut().unwrap();
                hist[cands[pick]] = (hist[cands[pick]] + 1).min(31); // 5-bit saturating
                self.meter.onchip_write(1);
                pick
            }
            _ => loop {
                let i = self.rng.next_below(self.d as u64) as usize;
                if cands[i] != prev_bucket {
                    return i;
                }
            },
        }
    }

    /// Stash a failed item and raise the flags of its candidates
    /// (§III.E): d posted flag writes.
    fn stash_item(
        &mut self,
        key: K,
        value: V,
        kickouts: u32,
    ) -> Result<InsertReport, McFull<K, V>> {
        let cands = self.candidate_buckets(&key);
        let report = InsertReport {
            outcome: InsertOutcome::Stashed,
            kickouts,
            collision: true,
            copies_written: 0,
        };
        match self.stash.push(key, value, &self.meter) {
            Ok(()) => {
                self.meter.offchip_write(self.d as u64);
                for &c in cands.iter().take(self.d) {
                    self.store.raise_flag(c);
                }
                Ok(report)
            }
            Err((key, value)) => Err(McFull {
                evicted: (key, value),
                report: InsertReport {
                    outcome: InsertOutcome::Failed,
                    ..report
                },
            }),
        }
    }

    /// If `key` (candidates `cands`) exists, rewrite the value of every
    /// copy (and/or the stash entry) and return an `Updated` report.
    pub(crate) fn try_update(
        &mut self,
        key: &K,
        value: &V,
        cands: &[usize; MAX_D],
    ) -> Option<InsertReport> {
        match L::probe_copies(self, key, cands) {
            CopyProbe::Found { locations, .. } => {
                self.meter.offchip_write(locations.len() as u64);
                for &l in locations.as_slice() {
                    self.store.put_value(l, value.clone());
                }
                self.check_paranoid();
                Some(InsertReport::updated(locations.len() as u8))
            }
            CopyProbe::Miss { check_stash } => {
                if check_stash {
                    if let Some(v) = self.stash_update(key, value) {
                        return Some(v);
                    }
                }
                None
            }
        }
    }

    fn stash_update(&mut self, key: &K, value: &V) -> Option<InsertReport> {
        // Linear/hashed stash: remove + re-push keeps the metering honest.
        let _old = self.stash.remove(key, &self.meter)?;
        self.stash
            .push(key.clone(), value.clone(), &self.meter)
            .ok()
            .expect("stash accepted this key before");
        Some(InsertReport::updated(0))
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// Read `key`'s planned buckets: meter the `d·l` counter reads the
    /// plan consulted, return rule 1's miss, then read each planned
    /// bucket (one metered off-chip access, its stash flag and a scan of
    /// its `l` slots) and screen the stash on a miss. Also returns the
    /// number of buckets read.
    pub(crate) fn probe(&self, key: &K, cands: &[usize; MAX_D], plan: &ProbePlan) -> (Probe, u64) {
        self.meter_counter_scan();
        if plan.rule1 {
            return (Probe::Miss { check_stash: false }, 0);
        }
        let mut visited_flags_ok = true;
        for (read, &b) in plan.buckets.as_slice().iter().enumerate() {
            self.meter.offchip_read(1);
            visited_flags_ok &= self.store.flag(b);
            let base = self.slot_idx(b, 0);
            let mut slots = base..base + self.layout.slots();
            if let Some(i) = slots.find(|&i| self.store.entry(i).is_some_and(|e| e.key == *key)) {
                return (Probe::Found(i), read as u64 + 1);
            }
        }
        (
            Probe::Miss {
                check_stash: self.stash_screen(cands, visited_flags_ok),
            },
            plan.buckets.len() as u64,
        )
    }

    /// Stage 1 of the batched lookup: `key`'s candidate buckets, with a
    /// prefetch hint for each one's first slot line and counter word. It
    /// reads nothing and decides nothing.
    pub(crate) fn stage(&self, key: &K) -> [usize; MAX_D] {
        let cands = self.candidate_buckets(key);
        for &c in &cands[..self.d] {
            let first = self.slot_idx(c, 0);
            self.store.prefetch(first);
            self.store.counters().prefetch(first);
        }
        cands
    }

    /// Number of live copies of `key` in the main table (0 if absent or
    /// stashed). Unmetered diagnostic.
    pub fn copy_count(&self, key: &K) -> u8 {
        self.raw_find(key).map_or(0, |idx| self.counter(idx))
    }

    /// Stash screening (§III.E–F): decide whether a failed main-table
    /// lookup needs to consult the stash.
    pub(crate) fn stash_screen(&self, cands: &[usize; MAX_D], visited_flags_ok: bool) -> bool {
        if !self.stash.enabled() || self.stash.is_empty() {
            return false;
        }
        match self.deletion {
            // Counters never increase while deletions are disabled, and a
            // stashed item saw all-ones; any other value excludes it.
            DeletionMode::Disabled => {
                let l = self.layout.slots();
                let all_ones = (0..self.d)
                    .all(|i| (0..l).all(|s| self.counter(self.slot_idx(cands[i], s)) == 1));
                all_ones && visited_flags_ok
            }
            // With deletions, re-occupied buckets may carry any counter;
            // only the flags of actually-visited buckets can veto
            // (§III.F), at the price of more false positives.
            DeletionMode::Reset | DeletionMode::Tombstone => visited_flags_ok,
        }
    }

    // ------------------------------------------------------------------
    // Deletion (Algorithm 3)
    // ------------------------------------------------------------------

    /// Remove `key`, returning its value. Copies are erased by counter
    /// updates only — **zero off-chip writes** (§III.B.3).
    ///
    /// # Panics
    /// Panics if the table was configured with
    /// [`DeletionMode::Disabled`].
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let out = self.remove_unrecorded(key);
        self.obs.record_remove(out.is_some());
        out
    }

    /// [`Engine::remove`] without observability recording.
    pub(crate) fn remove_unrecorded(&mut self, key: &K) -> Option<V> {
        self.remove_staged(key, &self.candidate_buckets(key))
    }

    /// Stage 2 of a pipelined removal: [`Engine::remove_unrecorded`] on
    /// `key`'s candidate buckets `cands`.
    pub(crate) fn remove_staged(&mut self, key: &K, cands: &[usize; MAX_D]) -> Option<V> {
        assert!(
            self.deletion != DeletionMode::Disabled,
            "this table was configured with DeletionMode::Disabled"
        );
        let out = match L::probe_copies(self, key, cands) {
            CopyProbe::Found { locations, primary } => {
                self.meter.onchip_write(locations.len() as u64);
                #[cfg(feature = "testhooks")]
                let skip_first = crate::testhooks::take_skip_counter_reset();
                #[cfg(not(feature = "testhooks"))]
                let skip_first = false;
                for (i, &l) in locations.as_slice().iter().enumerate() {
                    if skip_first && i == 0 {
                        continue;
                    }
                    match self.deletion {
                        DeletionMode::Reset => self.store.set_counter(l, 0),
                        DeletionMode::Tombstone => self.store.set_tombstone(l),
                        DeletionMode::Disabled => unreachable!(),
                    }
                }
                // Physical reclamation: the modelled system leaves stale
                // bytes to be overwritten later; dropping them here costs
                // no modelled write and keeps the `counter = 0 ⇔ vacant`
                // invariant tight.
                let mut value = None;
                for &l in locations.as_slice() {
                    let e = self.store.take(l);
                    if l == primary {
                        value = e.map(|e| e.value);
                    }
                }
                self.distinct -= 1;
                value
            }
            CopyProbe::Miss { check_stash } => {
                if check_stash {
                    self.stash.remove(key, &self.meter)
                } else {
                    None
                }
            }
        };
        self.check_paranoid();
        out
    }

    // ------------------------------------------------------------------
    // Stash maintenance
    // ------------------------------------------------------------------

    /// Re-synchronise the stash flags (§III.F): clear every flag, then
    /// re-insert all stashed items (which either settle in the table or
    /// re-stash and re-raise their flags). Returns how many items left
    /// the stash. The bulk flag clear is metered as one write per bucket.
    pub fn refresh_stash(&mut self) -> usize {
        self.meter.offchip_write((self.d * self.n) as u64);
        self.store.clear_flags();
        let items = self.stash.drain_all();
        let before = items.len();
        for (k, v) in items {
            // Unrecorded insert_new: stash keys are never in the main
            // table, and a refresh is maintenance, not a user insert.
            let _ = self.insert_new_unrecorded(k, v);
        }
        before - self.stash.len()
    }

    // ------------------------------------------------------------------
    // Iteration & diagnostics (unmetered)
    // ------------------------------------------------------------------

    /// Unmetered: every slot of the candidate buckets `cands` holding
    /// `key`, in candidate order.
    fn raw_slots<'a>(
        &'a self,
        key: &'a K,
        cands: [usize; MAX_D],
    ) -> impl Iterator<Item = usize> + 'a {
        let l = self.layout.slots();
        (0..self.d)
            .flat_map(move |t| (0..l).map(move |s| cands[t] * l + s))
            .filter(move |&i| self.store.entry(i).is_some_and(|e| e.key == *key))
    }

    /// Unmetered: the first candidate slot holding `key`, if any.
    pub(crate) fn raw_find(&self, key: &K) -> Option<usize> {
        self.raw_slots(key, self.candidate_buckets(key)).next()
    }

    pub(crate) fn raw_in_stash(&self, key: &K) -> bool {
        self.stash.iter().any(|(k, _)| k == key)
    }

    /// Unmetered: every slot holding `key`.
    pub(crate) fn raw_copy_locations(&self, key: &K) -> Vec<usize> {
        self.raw_slots(key, self.candidate_buckets(key)).collect()
    }

    /// Exhaustive structural validation; returns the first violation as a
    /// human-readable message. Used pervasively by the tests and after
    /// every mutation under the `paranoid` feature.
    pub fn check_invariants(&self) -> Result<(), String> {
        let l = self.layout.slots();
        if self.store.counters().len() != self.store.len()
            || self.store.len() != self.d * self.n * l
        {
            return Err("length mismatch between planes".into());
        }
        let mut distinct_seen = 0usize;
        for idx in 0..self.store.len() {
            let c = self.counter(idx);
            match (self.store.entry(idx), c) {
                (None, 0) => {}
                (None, c) => return Err(format!("slot {idx}: vacant but counter {c}")),
                (Some(_), 0) => return Err(format!("slot {idx}: occupied but counter 0")),
                (Some(e), c) => {
                    let bucket = idx / l;
                    let cands = self.candidate_buckets(&e.key);
                    let Some(t) = (0..self.d).find(|&t| cands[t] == bucket) else {
                        return Err(format!("slot {idx}: occupant not hashed here"));
                    };
                    // Self-hint must be accurate.
                    if e.hints[t].slot() != Some(idx % l) {
                        return Err(format!("slot {idx}: self-hint wrong"));
                    }
                    let locs = self.raw_copy_locations(&e.key);
                    if locs.len() != c as usize {
                        return Err(format!(
                            "slot {idx}: counter {c} but {} live copies",
                            locs.len()
                        ));
                    }
                    for &loc in &locs {
                        if self.counter(loc) != c {
                            return Err(format!(
                                "slot {idx}: sibling {loc} has counter {} ≠ {c}",
                                self.counter(loc)
                            ));
                        }
                    }
                    if locs.iter().min() == Some(&idx) {
                        distinct_seen += 1;
                    }
                }
            }
        }
        if distinct_seen != self.distinct {
            return Err(format!(
                "distinct count {} but {} found",
                self.distinct, distinct_seen
            ));
        }
        for (k, _) in self.stash.iter() {
            if self.raw_find(k).is_some() {
                return Err("stash item also present in main table".into());
            }
        }
        Ok(())
    }

    #[inline]
    fn check_paranoid(&self) {
        #[cfg(feature = "paranoid")]
        if let Err(e) = self.check_invariants() {
            panic!("invariant violated: {e}");
        }
    }
}

/// What only the plain store supports: reads that lend `&V` (the
/// seqlocked store decodes copies, and the concurrent table reads
/// through its own seqlock protocol), and host-side maintenance — the
/// rehash/resize path rebuilds the store from scratch (unmetered except
/// through the callers that model it, see `rehash`).
impl<K: KeyHash + Eq + Clone, V: Clone, L: BucketLayout> Engine<K, V, L> {
    /// Look up `key` using the layout's probe order and the stash
    /// screening rules (§III.E–F).
    pub fn get(&self, key: &K) -> Option<&V> {
        let cands = self.candidate_buckets(key);
        let (found, probes) = self.get_planned(key, &cands, &L::plan_probe(self, &cands));
        self.obs.record_lookup(found.is_some(), probes);
        found
    }

    /// `Engine::probe` plus the stash on a screened miss. Returns the
    /// probe count (bucket and stash reads) instead of recording it, so
    /// the batched path can record into cells it resolved once.
    pub(crate) fn get_planned(
        &self,
        key: &K,
        cands: &[usize; MAX_D],
        plan: &ProbePlan,
    ) -> (Option<&V>, u64) {
        let (probe, mut probes) = self.probe(key, cands, plan);
        let found = match probe {
            Probe::Found(idx) => self.store.entry(idx).map(|e| &e.value),
            Probe::Miss { check_stash } => {
                if check_stash {
                    // Rare path: only a stash consultation needs the
                    // full snapshot bracket (its reads are metered
                    // inside the stash).
                    let before = self.meter.snapshot();
                    let v = self.stash.get(key, &self.meter);
                    let delta = self.meter.snapshot() - before;
                    probes += delta.offchip_reads + delta.stash_reads;
                    v
                } else {
                    None
                }
            }
        };
        (found, probes)
    }

    /// Whether `key` is stored (main table or stash).
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Batched lookup: one result per key, in order, exactly equivalent
    /// to calling [`Engine::get`] per key (same hits, same misses, same
    /// metered access counts, same per-lookup observability records —
    /// plus one batch-size sample).
    ///
    /// A two-stage pipeline (`crate::prefetch::Window`): stage 1,
    /// `Engine::stage`, runs a window of keys ahead of stage 2,
    /// [`Engine::get`]'s own plan and probe on the staged candidates.
    /// Stage 1 reads nothing, so the access counts cannot change.
    pub fn lookup_batch(&self, keys: &[K]) -> Vec<Option<V>> {
        let rec = self.obs.local();
        rec.batch(keys.len());
        let mut out = Vec::with_capacity(keys.len());
        let mut window = Window::new(keys.len(), |j| self.stage(&keys[j]));
        for (j, key) in keys.iter().enumerate() {
            let cands = window.get(j);
            let (found, probes) = self.get_planned(key, cands, &L::plan_probe(self, cands));
            rec.lookup(found.is_some(), probes);
            out.push(found.cloned());
        }
        out
    }

    /// Iterate distinct `(key, value)` pairs (main table, then stash).
    /// Unmetered: iteration is a host-side maintenance operation.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        (0..self.store.len())
            .filter_map(move |idx| {
                let e = self.store.entry(idx)?;
                // Emit an item only at its smallest copy location.
                let locs = self.raw_copy_locations(&e.key);
                (locs.iter().min() == Some(&idx)).then_some((&e.key, &e.value))
            })
            .chain(self.stash.iter())
    }

    /// Table-owned memory in bytes: the slot and stash-flag planes, the
    /// on-chip planes ([`onchip_bytes`](Self::onchip_bytes)) and the
    /// stash's allocated capacity. Engine scratch and the table's own
    /// fixed fields are not counted.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.store.slots)
            + std::mem::size_of_val(&*self.store.flags)
            + self.onchip_bytes()
            + self.stash.mem_bytes()
    }

    /// Place `items` as fresh keys, unrecorded (restores and rehashes
    /// re-offer items the user already inserted once), returning the
    /// ones that did not fit.
    pub(crate) fn place_all(&mut self, items: Vec<(K, V)>) -> Vec<(K, V)> {
        let mut leftover = Vec::new();
        for (k, v) in items {
            if let Err(full) = self.insert_new_unrecorded(k, v) {
                leftover.push(full.evicted);
            }
        }
        leftover
    }

    /// Remove and return every stored item (main table + stash),
    /// leaving the table empty.
    pub(crate) fn drain_items(&mut self) -> Vec<(K, V)> {
        let mut items: Vec<(K, V)> = Vec::with_capacity(self.len());
        for idx in 0..self.store.len() {
            if self.counter(idx) == 0 {
                continue; // vacant (or tombstoned)
            }
            let entry = self.store.take(idx).expect("counter>0 ⇒ occupied");
            // Emit once per item: clear the counters of all copies so the
            // siblings are skipped when the scan reaches them.
            let locs = self.raw_copy_locations(&entry.key);
            self.store.set_counter(idx, 0);
            for l in locs {
                self.store.set_counter(l, 0);
                self.store.take(l);
            }
            items.push((entry.key, entry.value));
        }
        for (k, v) in self.stash.drain_all() {
            items.push((k, v));
        }
        self.distinct = 0;
        items
    }

    /// Re-derive hash functions (and optionally the geometry) and clear
    /// all storage planes.
    pub(crate) fn rebuild_storage(&mut self, new_buckets_per_table: Option<usize>, seed: u64) {
        if let Some(n) = new_buckets_per_table {
            assert!(n > 0, "table must be non-empty");
            self.n = n;
        }
        self.family = self.family.reseeded_with_len(seed, self.n);
        let total_buckets = self.d * self.n;
        self.store = PlainStore::new(
            total_buckets * self.layout.slots(),
            total_buckets,
            self.d as u8,
        );
        if let Some(h) = &mut self.kick_history {
            h.clear();
            h.resize(total_buckets, 0);
        }
        self.distinct = 0;
        self.redundant_writes = 0;
    }
}

/// The engine's read-only view for the [`kick`] planners. `occupant`
/// meters one off-chip read (the planner is charged for every victim
/// identity it inspects, exactly like the mutate-as-you-walk loop);
/// counter peeks are raw and the planners meter the scans they model.
impl<K: KeyHash + Eq + Clone, V: Clone, L: BucketLayout, S: SlotStore<K, V>> EvictionGraph
    for Engine<K, V, L, S>
{
    type Key = K;

    fn d(&self) -> usize {
        self.d
    }

    fn l(&self) -> usize {
        self.layout.slots()
    }

    fn counter(&self, slot: usize) -> u8 {
        Engine::counter(self, slot)
    }

    fn cands(&self, key: &K) -> [usize; MAX_D] {
        self.candidate_buckets(key)
    }

    fn slot_of(&self, bucket: usize, slot: usize) -> usize {
        self.slot_idx(bucket, slot)
    }

    fn occupant(&self, slot: usize) -> Option<K> {
        self.meter.offchip_read(1);
        self.store.entry(slot).map(|e| e.key.clone())
    }

    fn meter_onchip(&self, n: u64) {
        self.meter.onchip_read(n);
    }
}

#[cfg(test)]
mod tests {
    use crate::{McConfig, McCuckoo};
    use proptest::prelude::*;

    #[test]
    fn onchip_bytes_rounds_kick_history_up() {
        // MinCounter keeps 5 bits per bucket: 3 tables × 3 buckets = 9
        // buckets → 45 bits → 6 bytes (truncating division said 5).
        let config = McConfig::paper(3, 1).with_kick_policy(crate::KickPolicyKind::MinCounter);
        let t: McCuckoo<u64, u64> = McCuckoo::new(config);
        assert_eq!(t.onchip_bytes(), t.store.counters.onchip_bytes() + 6);
        // Without kick history the counter array is all there is.
        let t2: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper(3, 1));
        assert_eq!(t2.onchip_bytes(), t2.store.counters.onchip_bytes());
    }

    #[test]
    fn only_min_counter_keeps_kick_history() {
        // The plan-first policies never read a kick history, so they
        // must neither allocate nor count one.
        for kind in crate::KickPolicyKind::ALL {
            let t: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper(3, 1).with_kick_policy(kind));
            let min_counter = kind == crate::KickPolicyKind::MinCounter;
            assert_eq!(t.kick_history.is_some(), min_counter, "{kind:?}");
            let history = if min_counter { 6 } else { 0 };
            assert_eq!(t.onchip_bytes(), t.store.counters.onchip_bytes() + history);
        }
    }

    /// The flag plane a refresh must leave behind: exactly the union of
    /// the candidate buckets of the items still stashed afterwards.
    fn expected_flags(t: &McCuckoo<u64, u64>) -> Vec<bool> {
        let mut want = vec![false; t.store.flags.len()];
        let stashed: Vec<u64> = t.stash.iter().map(|(k, _)| *k).collect();
        for k in stashed {
            for &b in t.candidate_buckets(&k).iter().take(t.d) {
                want[b] = true;
            }
        }
        want
    }

    proptest! {
        /// §III.F: after `refresh_stash` the 1-bit flags are exactly the
        /// candidate-bucket flags of the items that remained stashed —
        /// no stale flag survives for an item that settled back into the
        /// main table, and every survivor's d flags are re-raised. The
        /// bulk flag clear is metered as one posted write per bucket
        /// (`flags.len()`), checked exactly when the stash drains dry.
        #[test]
        fn refresh_stash_leaves_exact_flags_and_meters_the_clear(
            seed in any::<u64>(),
            buckets in 4usize..24,
            maxloop in 2u32..12,
            inserts in 16usize..160,
            removes in prop::collection::vec(any::<prop::sample::Index>(), 0..40),
        ) {
            let config = McConfig {
                maxloop,
                deletion: crate::DeletionMode::Reset,
                ..McConfig::paper(buckets, seed)
            };
            let mut t: McCuckoo<u64, u64> = McCuckoo::new(config);
            // Overfill a small table so some inserts land in the stash.
            let mut live: Vec<u64> = Vec::new();
            for k in 0..inserts as u64 {
                if t.insert(k, k * 3).is_ok() {
                    live.push(k);
                }
            }
            // Random deletions free buckets, so a refresh can actually
            // move stashed items back into the table.
            for idx in removes {
                if live.is_empty() {
                    break;
                }
                let k = live.swap_remove(idx.index(live.len()));
                t.remove(&k);
            }

            let stashed_before = t.stash_len();
            let before = t.meter.snapshot();
            let moved = t.refresh_stash();
            let delta = t.meter.snapshot() - before;

            prop_assert_eq!(moved, stashed_before - t.stash_len());
            prop_assert_eq!(&t.store.flags, &expected_flags(&t),
                "flags must be exactly the candidates of still-stashed items");
            prop_assert!(
                delta.offchip_writes >= t.store.flags.len() as u64,
                "the bulk clear alone posts one write per bucket"
            );
            if stashed_before == 0 {
                prop_assert_eq!(delta.offchip_writes, t.store.flags.len() as u64,
                    "an empty stash refresh is exactly the flag clear");
            }
            let inv = t.check_invariants();
            prop_assert!(inv.is_ok(), "invariants: {:?}", inv);

            // A second refresh keeps the properties: the stash can only
            // shrink (the walks are randomized, so a retry may succeed
            // where the first pass failed) and the flags stay exact.
            let stash_now = t.stash_len();
            t.refresh_stash();
            prop_assert!(t.stash_len() <= stash_now);
            prop_assert_eq!(&t.store.flags, &expected_flags(&t));
        }
    }
}

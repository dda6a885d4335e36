//! The blocked (multi-slot) McCuckoo — "B-McCuckoo" (§III.G,
//! Algorithms 1–3 of the paper), as the `l`-slot instantiation of the
//! shared [`engine`](crate::engine).
//!
//! `d` sub-tables of buckets with `l` slots each; one on-chip counter per
//! **slot**, stash flags per **bucket**. Reading a bucket (all `l` slots)
//! is one off-chip access. The structural algorithm (insertion
//! principles, kick walk, counter maintenance, deletion, stash,
//! copy-set disambiguation via slot hints — "(d−1)·log l bits per slot",
//! Fig. 5) is documented on [`Engine`]; this
//! module contributes [`BlockedLayout`] and the blocked lookup strategy.
//!
//! Lookup follows Algorithm 2 faithfully: only the bucket-sum-zero skip
//! is counter-driven ("the lookup routine is more like a traditional one
//! that does not rely much on the counters"). The
//! [`BlockedConfig::aggressive_lookup`] extension additionally treats a
//! sum-zero candidate bucket as proof of absence when deletions are
//! disabled (sound for the same reason as the single-slot rule 1); it is
//! benchmarked by the ablation suite.

use hash_kit::{KeyHash, SplitMix64};

use crate::config::{DeletionMode, McConfig};
use crate::engine::{swar_first_lane, BucketLayout, CopyProbe, Engine, Probe, ProbePlan, MAX_D};
use crate::store::SlotStore;

/// Configuration of a [`BlockedMcCuckoo`].
#[derive(Debug, Clone)]
pub struct BlockedConfig {
    /// Shared parameters (d, buckets per table, maxloop, deletion, stash,
    /// hash family, seed).
    pub base: McConfig,
    /// Slots per bucket.
    pub slots: usize,
    /// Extension: treat a sum-zero candidate bucket as a definite miss
    /// when deletions are disabled (see module docs).
    pub aggressive_lookup: bool,
}

impl BlockedConfig {
    /// The paper's blocked setup: 3 hash functions × 3 slots.
    pub fn paper(buckets_per_table: usize, seed: u64) -> Self {
        Self {
            base: McConfig::paper(buckets_per_table, seed),
            slots: 3,
            aggressive_lookup: false,
        }
    }

    /// Toggle the aggressive-lookup extension.
    pub fn with_aggressive_lookup(mut self, on: bool) -> Self {
        self.aggressive_lookup = on;
        self
    }
}

/// The `l`-slot bucket layout: set-associative buckets, counters per
/// slot, Algorithm-2 lookups.
#[derive(Debug, Clone, Copy)]
pub struct BlockedLayout {
    pub(crate) l: usize,
    pub(crate) aggressive: bool,
}

/// Multi-slot multi-copy cuckoo table ("B-McCuckoo").
///
/// ```
/// use mccuckoo_core::{BlockedConfig, BlockedMcCuckoo};
///
/// // The paper's blocked setup: 3 hash functions × 3 slots per bucket.
/// let mut t: BlockedMcCuckoo<u64, &str> = BlockedMcCuckoo::new(BlockedConfig::paper(64, 7));
/// t.insert(1, "one").unwrap();
/// assert_eq!(t.get(&1), Some(&"one"));
/// // The first item copied itself into all three candidate buckets.
/// assert_eq!(t.copy_count(&1), 3);
/// ```
pub type BlockedMcCuckoo<K, V> = Engine<K, V, BlockedLayout>;

impl BucketLayout for BlockedLayout {
    const RNG_TWEAK: u64 = 0xB10C_0C0A_57A5_4B1D;

    fn slots(&self) -> usize {
        self.l
    }

    fn draw_slot(&self, rng: &mut SplitMix64) -> usize {
        // Always draws (even for l = 1) to keep the walk stream stable
        // across slot counts.
        rng.next_below(self.l as u64) as usize
    }

    /// Algorithm 2: skip sum-zero buckets, otherwise read the bucket
    /// (one off-chip access) and scan its `l` slots.
    fn probe_first<K: KeyHash + Eq + Clone, V: Clone, S: SlotStore<K, V>>(
        t: &Engine<K, V, Self, S>,
        key: &K,
        cands: &[usize; MAX_D],
        tag: u8,
    ) -> Probe {
        t.meter_counter_scan();
        let mut sums = [0u32; MAX_D];
        for i in 0..t.d {
            sums[i] = t.bucket_sum(cands[i]);
        }
        // Extension: Bloom-style early miss (sound without deletions —
        // an insertion leaves no candidate bucket entirely empty).
        if t.layout.aggressive && t.deletion == DeletionMode::Disabled && sums[..t.d].contains(&0) {
            return Probe::Miss { check_stash: false };
        }
        let mut visited_flags_ok = true;
        // SWAR tag filter: compare all l fingerprint bytes of a bucket
        // against the key's tag in one u64 operation, then confirm each
        // matching lane on the full entry. Pure software fast path — the
        // bucket read stays metered as one off-chip access either way.
        for i in 0..t.d {
            if sums[i] == 0 {
                continue; // Algorithm 2: skip empty buckets
            }
            t.meter.offchip_read(1);
            visited_flags_ok &= t.store.flag(cands[i]);
            if let Some(idx) = find_in_bucket(t, cands[i], key, tag) {
                return Probe::Found(idx);
            }
        }
        Probe::Miss {
            check_stash: t.stash_screen(cands, visited_flags_ok),
        }
    }

    /// All-copies probe: first hit via Algorithm 2, siblings through the
    /// verified hint set.
    fn probe_copies<K: KeyHash + Eq + Clone, V: Clone, S: SlotStore<K, V>>(
        t: &Engine<K, V, Self, S>,
        key: &K,
        cands: &[usize; MAX_D],
        tag: u8,
    ) -> CopyProbe {
        match Self::probe_first(t, key, cands, tag) {
            Probe::Found(idx) => {
                let hints = t.store.entry(idx).expect("probe found it").hints;
                let mut locations = t.locate_siblings(key, cands, &hints, t.counter(idx), idx);
                locations.push(idx);
                CopyProbe::Found {
                    locations,
                    primary: idx,
                }
            }
            Probe::Miss { check_stash } => CopyProbe::Miss { check_stash },
        }
    }

    /// Stage-1 plan for Algorithm 2: unmetered sum peeks decide which
    /// buckets the probe will read (sum-zero buckets are skipped, the
    /// aggressive Bloom rule may kill the probe outright); only those
    /// are prefetched — bucket line and tag lane.
    fn plan_probe<K: KeyHash + Eq + Clone, V: Clone, S: SlotStore<K, V>>(
        t: &Engine<K, V, Self, S>,
        cands: &[usize; MAX_D],
    ) -> ProbePlan {
        let mut plan = ProbePlan::FALLBACK;
        let mut any_zero = false;
        for &c in cands.iter().take(t.d) {
            if t.bucket_sum(c) == 0 {
                any_zero = true;
                continue;
            }
            plan.order[plan.len as usize] = c;
            plan.len += 1;
        }
        if t.layout.aggressive && t.deletion == DeletionMode::Disabled && any_zero {
            plan.rule1 = true;
            plan.len = 0; // definite miss: nothing worth prefetching
            return plan;
        }
        for &c in plan.order[..plan.len as usize].iter() {
            t.store.prefetch(t.slot_idx(c, 0));
        }
        plan
    }

    /// Replay of `probe_first` over the planned buckets: the metered
    /// counter scan, one off-chip read plus SWAR tag match per non-empty
    /// bucket, and the same stash-screening decision.
    fn probe_planned<K: KeyHash + Eq + Clone, V: Clone, S: SlotStore<K, V>>(
        t: &Engine<K, V, Self, S>,
        key: &K,
        cands: &[usize; MAX_D],
        tag: u8,
        plan: &ProbePlan,
    ) -> (Probe, u64) {
        t.meter_counter_scan();
        if plan.rule1 {
            return (Probe::Miss { check_stash: false }, 0);
        }
        let mut visited_flags_ok = true;
        let mut visited = 0u64;
        for &c in plan.order[..plan.len as usize].iter() {
            t.meter.offchip_read(1);
            visited += 1;
            visited_flags_ok &= t.store.flag(c);
            if let Some(idx) = find_in_bucket(t, c, key, tag) {
                return (Probe::Found(idx), visited);
            }
        }
        (
            Probe::Miss {
                check_stash: t.stash_screen(cands, visited_flags_ok),
            },
            visited,
        )
    }
}

/// The slot of `bucket` holding `key`: SWAR tag match over the bucket's
/// `l` lanes, each hit confirmed on the full entry.
#[inline]
fn find_in_bucket<K: KeyHash + Eq + Clone, V: Clone, S: SlotStore<K, V>>(
    t: &Engine<K, V, BlockedLayout, S>,
    bucket: usize,
    key: &K,
    tag: u8,
) -> Option<usize> {
    let base = t.slot_idx(bucket, 0);
    let mut hits = t.store.tag_hits(base, t.layout.l, tag);
    while hits != 0 {
        let idx = base + swar_first_lane(hits);
        if t.store.entry(idx).is_some_and(|e| e.key == *key) {
            return Some(idx);
        }
        hits &= hits - 1; // clear the lowest matching lane
    }
    None
}

impl<K: KeyHash + Eq + Clone, V: Clone> Engine<K, V, BlockedLayout> {
    /// Build a table from `config`.
    ///
    /// # Panics
    /// Panics on invalid configuration (`slots` must be 1..=8).
    pub fn new(config: BlockedConfig) -> Self {
        config.base.validate();
        assert!(
            (1..=8).contains(&config.slots),
            "slots per bucket must be 1..=8"
        );
        Engine::from_config(
            config.base,
            BlockedLayout {
                l: config.slots,
                aggressive: config.aggressive_lookup,
            },
        )
    }

    /// Slots per bucket.
    pub fn slots_per_bucket(&self) -> usize {
        self.layout.l
    }

    /// Whether the aggressive-lookup extension is enabled.
    pub fn aggressive_lookup_enabled(&self) -> bool {
        self.layout.aggressive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_model::InsertOutcome;
    use std::collections::HashMap;
    use workloads::UniqueKeys;

    fn paper_table(n: usize, seed: u64) -> BlockedMcCuckoo<u64, u64> {
        BlockedMcCuckoo::new(BlockedConfig::paper(n, seed))
    }

    #[test]
    fn first_insert_gets_d_copies() {
        let mut t = paper_table(64, 1);
        let r = t.insert_new(9, 90).unwrap();
        assert_eq!(r.copies_written, 3);
        assert_eq!(t.copy_count(&9), 3);
        assert_eq!(t.get(&9), Some(&90));
        t.check_invariants().unwrap();
    }

    #[test]
    fn fills_to_99_percent() {
        // Table III runs B-McCuckoo to 100% load; 99% must fill with the
        // stash nearly empty.
        let n = 2_000;
        let mut t = paper_table(n, 2);
        let cap = 3 * n * 3;
        let target = cap * 99 / 100;
        let mut keys = UniqueKeys::new(3);
        for _ in 0..target {
            let k = keys.next_key();
            t.insert_new(k, k).unwrap();
        }
        assert!(t.load_ratio() > 0.98);
        assert!(t.stash_len() < cap / 200, "stash {}", t.stash_len());
        for k in UniqueKeys::new(3).take_vec(target) {
            assert!(t.contains(&k));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn first_collision_beyond_half_load() {
        // Table I: B-McCuckoo's first collision at ~61%.
        let n = 2_000;
        let mut t = paper_table(n, 4);
        let mut keys = UniqueKeys::new(5);
        let cap = 3 * n * 3;
        let mut first = None;
        for i in 0..cap {
            let k = keys.next_key();
            let r = t.insert_new(k, k).unwrap();
            if r.collision {
                first = Some(i as f64 / cap as f64);
                break;
            }
        }
        let load = first.expect("collision expected before 100%");
        assert!(load > 0.4, "first collision at {load}, expected > 0.4");
    }

    #[test]
    fn lookup_hit_costs_at_most_d_reads() {
        let n = 1_000;
        let mut t = paper_table(n, 6);
        let mut keys = UniqueKeys::new(7);
        let ks: Vec<u64> = (0..3 * n * 3 * 80 / 100)
            .map(|_| {
                let k = keys.next_key();
                t.insert_new(k, k).unwrap();
                k
            })
            .collect();
        for k in &ks {
            let before = t.meter().snapshot();
            assert_eq!(t.get(k), Some(k));
            let delta = t.meter().snapshot() - before;
            assert!(delta.offchip_reads <= 3);
        }
    }

    #[test]
    fn deletion_reset_roundtrip_zero_writes() {
        let n = 500;
        let mut t: BlockedMcCuckoo<u64, u64> = BlockedMcCuckoo::new(BlockedConfig {
            base: McConfig::paper_with_deletion(n, 8),
            slots: 3,
            aggressive_lookup: false,
        });
        let mut keys = UniqueKeys::new(9);
        let ks = keys.take_vec(3 * n * 3 / 2);
        for &k in &ks {
            t.insert_new(k, k + 5).unwrap();
        }
        let before = t.meter().snapshot();
        for &k in &ks {
            assert_eq!(t.remove(&k), Some(k + 5));
        }
        let delta = t.meter().snapshot() - before;
        assert_eq!(delta.offchip_writes, 0);
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn differential_against_hashmap_with_deletions() {
        let mut t: BlockedMcCuckoo<u64, u64> = BlockedMcCuckoo::new(BlockedConfig {
            base: McConfig::paper_with_deletion(512, 10),
            slots: 3,
            aggressive_lookup: false,
        });
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut keys = UniqueKeys::new(11);
        let mut s = hash_kit::SplitMix64::new(12);
        let mut live: Vec<u64> = Vec::new();
        for step in 0..40_000u64 {
            match s.next_below(10) {
                0..=4 => {
                    let k = keys.next_key();
                    t.insert_new(k, k ^ step).unwrap();
                    model.insert(k, k ^ step);
                    live.push(k);
                }
                5..=6 if !live.is_empty() => {
                    let i = s.next_below(live.len() as u64) as usize;
                    assert_eq!(t.get(&live[i]), model.get(&live[i]));
                }
                7..=8 if !live.is_empty() => {
                    let i = s.next_below(live.len() as u64) as usize;
                    let k = live.swap_remove(i);
                    assert_eq!(t.remove(&k), model.remove(&k));
                }
                _ => {
                    let k = keys.absent_key(s.next_below(1 << 20));
                    assert_eq!(t.get(&k), None);
                }
            }
            if step % 10_000 == 0 {
                t.check_invariants().unwrap();
            }
        }
        assert_eq!(t.len(), model.len());
        for (k, v) in &model {
            assert_eq!(t.get(k), Some(v));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn upsert_updates_every_copy() {
        let mut t = paper_table(64, 13);
        t.insert(3, 30).unwrap();
        assert_eq!(t.copy_count(&3), 3);
        let r = t.insert(3, 31).unwrap();
        assert_eq!(r.outcome, InsertOutcome::Updated);
        assert_eq!(t.get(&3), Some(&31));
        assert_eq!(t.main_len(), 1);
        // All physical copies must agree (scan raw locations).
        for idx in t.raw_copy_locations(&3) {
            assert_eq!(t.store.slots[idx].as_ref().unwrap().value, 31);
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn stash_and_screening_at_overload() {
        let n = 60;
        let mut t: BlockedMcCuckoo<u64, u64> = BlockedMcCuckoo::new(BlockedConfig {
            base: McConfig::paper(n, 14).with_maxloop(50),
            slots: 3,
            aggressive_lookup: false,
        });
        let mut keys = UniqueKeys::new(15);
        let cap = 3 * n * 3;
        let extra = cap / 20;
        let ks: Vec<u64> = (0..cap + extra)
            .map(|_| {
                let k = keys.next_key();
                t.insert_new(k, k).unwrap();
                k
            })
            .collect();
        assert!(t.stash_len() > 0, "overload must stash");
        for k in &ks {
            assert!(t.contains(k));
        }
        let before = t.meter().snapshot();
        for j in 0..1000 {
            assert_eq!(t.get(&keys.absent_key(j)), None);
        }
        let delta = t.meter().snapshot() - before;
        assert!(
            delta.stash_visits <= 150,
            "{} absent lookups visited stash",
            delta.stash_visits
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn aggressive_lookup_extension_is_sound_and_cheaper() {
        let n = 2_000;
        let mut plain = paper_table(n, 16);
        let mut aggro: BlockedMcCuckoo<u64, u64> =
            BlockedMcCuckoo::new(BlockedConfig::paper(n, 16).with_aggressive_lookup(true));
        let mut keys = UniqueKeys::new(17);
        let ks = keys.take_vec(3 * n * 3 / 4); // 25% load
        for &k in &ks {
            plain.insert_new(k, k).unwrap();
            aggro.insert_new(k, k).unwrap();
        }
        let (b_plain, b_aggro) = (plain.meter().snapshot(), aggro.meter().snapshot());
        for j in 0..2_000 {
            let a = keys.absent_key(j);
            assert_eq!(plain.get(&a), None);
            assert_eq!(aggro.get(&a), None);
        }
        let d_plain = plain.meter().snapshot() - b_plain;
        let d_aggro = aggro.meter().snapshot() - b_aggro;
        assert!(
            d_aggro.offchip_reads < d_plain.offchip_reads,
            "aggressive {} vs plain {}",
            d_aggro.offchip_reads,
            d_plain.offchip_reads
        );
        // Hits must still work.
        for &k in ks.iter().take(500) {
            assert_eq!(aggro.get(&k), Some(&k));
        }
    }

    #[test]
    fn single_slot_blocked_matches_single_behaviour() {
        // l=1 blocked table must behave like the single-slot design.
        let mut t: BlockedMcCuckoo<u64, u64> = BlockedMcCuckoo::new(BlockedConfig {
            base: McConfig::paper(512, 18),
            slots: 1,
            aggressive_lookup: false,
        });
        let mut keys = UniqueKeys::new(19);
        let ks = keys.take_vec(3 * 512 * 80 / 100);
        for &k in &ks {
            t.insert_new(k, k).unwrap();
        }
        for &k in &ks {
            assert!(t.contains(&k));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn iter_unique_keys() {
        let mut t = paper_table(128, 20);
        let mut keys = UniqueKeys::new(21);
        let ks = keys.take_vec(400);
        for &k in &ks {
            t.insert_new(k, k).unwrap();
        }
        let mut got: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        got.sort_unstable();
        let mut want = ks.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "slots per bucket")]
    fn too_many_slots_rejected() {
        let _ = BlockedMcCuckoo::<u64, u64>::new(BlockedConfig {
            base: McConfig::paper(8, 0),
            slots: 9,
            aggressive_lookup: false,
        });
    }
}

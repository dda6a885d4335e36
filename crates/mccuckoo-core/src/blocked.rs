//! The blocked (multi-slot) McCuckoo — "B-McCuckoo" (§III.G,
//! Algorithms 1–3 of the paper), as the `l`-slot instantiation of the
//! shared [`engine`](crate::engine).
//!
//! `d` sub-tables of buckets with `l` slots each; one on-chip counter per
//! **slot**, stash flags per **bucket**. Reading a bucket (all `l` slots)
//! is one off-chip access. The structural algorithm (insertion
//! principles, kick walk, counter maintenance, deletion, stash,
//! copy-set disambiguation via slot hints — "(d−1)·log l bits per slot",
//! Fig. 5) and the lookup's probe (`Engine::probe`) are documented on
//! [`Engine`]; this module contributes [`BlockedLayout`] and its lookup
//! plan.
//!
//! Lookup follows Algorithm 2 faithfully: only the empty-bucket skip is
//! counter-driven ("the lookup routine is more like a traditional one
//! that does not rely much on the counters"). The plan lists every
//! candidate bucket with a non-zero slot counter, in candidate order;
//! the probe reads each as one access and scans its `l` entries.

use hash_kit::{KeyHash, SplitMix64};

use crate::config::McConfig;
use crate::engine::{BucketLayout, CopyProbe, Engine, Probe, ProbePlan, MAX_D};
use crate::store::SlotStore;

/// Slots per bucket a blocked table supports (a hint names one of 8).
pub(crate) const SLOTS: std::ops::RangeInclusive<usize> = 1..=8;

/// Configuration of a [`BlockedMcCuckoo`].
#[derive(Debug, Clone)]
pub struct BlockedConfig {
    /// Shared parameters (d, buckets per table, maxloop, deletion, stash,
    /// hash family, seed).
    pub base: McConfig,
    /// Slots per bucket.
    pub slots: usize,
}

impl BlockedConfig {
    /// The paper's blocked setup: 3 hash functions × 3 slots.
    pub fn paper(buckets_per_table: usize, seed: u64) -> Self {
        Self {
            base: McConfig::paper(buckets_per_table, seed),
            slots: 3,
        }
    }
}

/// The `l`-slot bucket layout: set-associative buckets, counters per
/// slot, Algorithm-2 lookups.
#[derive(Debug, Clone, Copy)]
pub struct BlockedLayout {
    pub(crate) l: usize,
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

    /// All-copies probe: first hit via the Algorithm 2 lookup, siblings
    /// through the verified hint set.
    fn probe_copies<K: KeyHash + Eq + Clone, V: Clone, S: SlotStore<K, V>>(
        t: &Engine<K, V, Self, S>,
        key: &K,
        cands: &[usize; MAX_D],
    ) -> CopyProbe {
        match t.probe(key, cands, &Self::plan_probe(t, cands)).0 {
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

    /// Algorithm 2: every non-empty candidate bucket, in candidate order.
    fn plan_probe<K: KeyHash + Eq + Clone, V: Clone, S: SlotStore<K, V>>(
        t: &Engine<K, V, Self, S>,
        cands: &[usize; MAX_D],
    ) -> ProbePlan {
        t.plan_nonempty(cands)
    }
}

impl<K: KeyHash + Eq + Clone, V: Clone> Engine<K, V, BlockedLayout> {
    /// Build a table from `config`.
    ///
    /// # Panics
    /// Panics on invalid configuration (`slots` must be 1..=8).
    pub fn new(config: BlockedConfig) -> Self {
        config.base.validate();
        assert!(
            SLOTS.contains(&config.slots),
            "slots per bucket must be 1..=8"
        );
        Engine::from_config(config.base, BlockedLayout { l: config.slots })
    }

    /// Slots per bucket.
    pub fn slots_per_bucket(&self) -> usize {
        self.layout.l
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
    fn mem_bytes_counts_slots_flags_and_counter_words() {
        // 3 × 50,000 buckets of 3 slots: 24 B slots, one flag byte per
        // bucket and one 2-bit counter per slot, 32 to a 64-bit word.
        let mut t = paper_table(50_000, 1);
        let want = 450_000 * 24 + 150_000 + 450_000usize.div_ceil(32) * 8;
        assert_eq!(t.mem_bytes(), want);
        assert_eq!(want, 11_062_504);
        t.insert_new(1, 1).unwrap();
        assert_eq!(t.mem_bytes(), want);
    }

    #[test]
    fn stash_and_screening_at_overload() {
        let n = 60;
        let mut t: BlockedMcCuckoo<u64, u64> = BlockedMcCuckoo::new(BlockedConfig {
            base: McConfig::paper(n, 14).with_maxloop(50),
            slots: 3,
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
    fn single_slot_blocked_matches_single_behaviour() {
        // l=1 blocked table must behave like the single-slot design.
        let mut t: BlockedMcCuckoo<u64, u64> = BlockedMcCuckoo::new(BlockedConfig {
            base: McConfig::paper(512, 18),
            slots: 1,
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
        });
    }
}

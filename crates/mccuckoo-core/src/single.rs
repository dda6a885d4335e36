//! The single-slot d-ary McCuckoo table — the paper's core design
//! (§III.A–F), as the `l = 1` instantiation of the shared
//! [`engine`](crate::engine).
//!
//! Everything structural (insertion principles, kick walk, counter
//! maintenance, deletion, stash, invariants) and the lookup's probe
//! itself (`Engine::probe`) live in [`Engine`]; this module
//! contributes [`SingleLayout`], whose lookup plan applies:
//!
//! ## Lookup principles (§III.B.2)
//! 1. any candidate counter of 0 ⇒ definite miss (disabled under
//!    `Reset` deletion, tombstone-aware under `Tombstone`);
//! 2. partition candidates by counter value, skip partitions smaller
//!    than their value;
//! 3. probe at most `S − V + 1` buckets of a surviving partition.

use hash_kit::{KeyHash, SplitMix64};

use crate::config::DeletionMode;
use crate::engine::{BucketLayout, CopyProbe, Engine, ProbePlan, SlotList};
use crate::store::SlotStore;

pub use crate::engine::{McFull, MAX_D};

/// The `l = 1` bucket layout: one slot per bucket, counters per bucket,
/// partition-pruned lookups (§III.B.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleLayout;

/// Multi-copy Cuckoo hash table (single slot per bucket).
///
/// See the [crate docs](crate) for a quick start. Keys are deduplicated:
/// `insert` is an upsert; `insert_new` skips the existence probe for
/// workloads known to carry distinct keys (this is what the paper's
/// experiments measure). All operations are documented on
/// [`Engine`].
pub type McCuckoo<K, V> = Engine<K, V, SingleLayout>;

impl BucketLayout for SingleLayout {
    const RNG_TWEAK: u64 = 0x3C0C_A11E_D0C0_FFEE;

    fn slots(&self) -> usize {
        1
    }

    fn draw_slot(&self, _rng: &mut SplitMix64) -> usize {
        0 // sole slot; no randomness consumed
    }

    /// Deletion/update probe: locate **all** copies of `key` (deletion
    /// principles, §III.B.3). Within the matching partition, probing may
    /// stop early once the remaining copies are pinned by counting.
    fn probe_copies<K: KeyHash + Eq + Clone, V: Clone, S: SlotStore<K, V>>(
        t: &Engine<K, V, Self, S>,
        key: &K,
        cands: &[usize; MAX_D],
    ) -> CopyProbe {
        t.meter_counter_scan();
        let cvals = counter_values(t, cands);
        if rule1_miss(t, cands, &cvals) {
            return CopyProbe::Miss { check_stash: false };
        }
        // The probe's reads depend on each other's results: prefetch every
        // live candidate so their misses overlap (unmetered hints).
        for i in 0..t.d {
            if cvals[i] != 0 {
                t.store.prefetch(cands[i]);
            }
        }
        let mut visited_flags_ok = true;
        for v in (1..=t.d as u8).rev() {
            let positions = partition(t, cands, &cvals, v);
            let positions = positions.as_slice();
            if positions.len() < v as usize {
                continue;
            }
            let budget = positions.len() - v as usize + 1;
            let mut found = SlotList::default();
            for (probed, &p) in positions.iter().enumerate() {
                let remaining_positions = positions.len() - probed;
                let remaining_needed = if found.len() == 0 {
                    // Not yet found: only the probe budget limits us.
                    if probed >= budget {
                        break;
                    }
                    v as usize
                } else {
                    v as usize - found.len()
                };
                if remaining_needed == 0 {
                    break;
                }
                if found.len() > 0 && remaining_needed == remaining_positions {
                    // The rest are forced to be copies: no reads needed.
                    for &rest in &positions[probed..] {
                        found.push(rest);
                    }
                    break;
                }
                t.meter.offchip_read(1);
                visited_flags_ok &= t.store.flag(p);
                if t.store.entry(p).is_some_and(|e| e.key == *key) {
                    found.push(p);
                }
            }
            if let Some(&first) = found.as_slice().first() {
                debug_assert_eq!(found.len(), v as usize, "all copies located");
                return CopyProbe::Found {
                    locations: found,
                    primary: first,
                };
            }
        }
        CopyProbe::Miss {
            check_stash: t.stash_screen(cands, visited_flags_ok),
        }
    }

    /// Partition-pruned probe order (§III.B.2, rules 1–3). On a hit
    /// with all counters at `d` the plan is a single bucket, where
    /// reading every candidate would fetch `d`.
    fn plan_probe<K: KeyHash + Eq + Clone, V: Clone, S: SlotStore<K, V>>(
        t: &Engine<K, V, Self, S>,
        cands: &[usize; MAX_D],
    ) -> ProbePlan {
        let cvals = counter_values(t, cands);
        let mut plan = ProbePlan::default();
        if rule1_miss(t, cands, &cvals) {
            plan.rule1 = true; // the probe reads nothing off-chip
            return plan;
        }
        for v in (1..=t.d as u8).rev() {
            let positions = partition(t, cands, &cvals, v);
            if positions.len() < v as usize {
                continue; // rule 2: impossible partition
            }
            let budget = positions.len() - v as usize + 1; // rule 3
            for &p in positions.as_slice().iter().take(budget) {
                plan.buckets.push(p);
            }
        }
        plan
    }
}

/// Counter values of the candidates (unmetered peeks).
#[inline]
fn counter_values<K: KeyHash + Eq + Clone, V: Clone, S: SlotStore<K, V>>(
    t: &Engine<K, V, SingleLayout, S>,
    cands: &[usize; MAX_D],
) -> [u8; MAX_D] {
    let mut vals = [0u8; MAX_D];
    for i in 0..t.d {
        vals[i] = t.counter(cands[i]);
    }
    vals
}

/// The candidates whose counter equals `v`, in candidate order.
#[inline]
fn partition<K: KeyHash + Eq + Clone, V: Clone, S: SlotStore<K, V>>(
    t: &Engine<K, V, SingleLayout, S>,
    cands: &[usize; MAX_D],
    cvals: &[u8; MAX_D],
    v: u8,
) -> SlotList {
    let mut positions = SlotList::default();
    for i in 0..t.d {
        if cvals[i] == v {
            positions.push(cands[i]);
        }
    }
    positions
}

/// Lookup rule 1: a definitely-empty candidate proves absence.
fn rule1_miss<K: KeyHash + Eq + Clone, V: Clone, S: SlotStore<K, V>>(
    t: &Engine<K, V, SingleLayout, S>,
    cands: &[usize; MAX_D],
    cvals: &[u8; MAX_D],
) -> bool {
    match t.deletion {
        DeletionMode::Disabled => (0..t.d).any(|i| cvals[i] == 0),
        // A zero may be a deletion scar: rule 1 is unsound.
        DeletionMode::Reset => false,
        // Tombstones read as non-zero for lookups.
        DeletionMode::Tombstone => {
            (0..t.d).any(|i| cvals[i] == 0 && !t.store.is_tombstone(cands[i]))
        }
    }
}

impl<K: KeyHash + Eq + Clone, V: Clone> Engine<K, V, SingleLayout> {
    /// Build a table from `config`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`McConfig`](crate::config::McConfig) limits).
    pub fn new(config: crate::config::McConfig) -> Self {
        Engine::from_config(config, SingleLayout)
    }

    /// Lookup **without** the partition-pruning rules 2–3: every
    /// non-empty candidate is probed in order, like a single-copy table
    /// would. Rule 1 (the Bloom shortcut) and stash screening still
    /// apply. Exists for the pruning ablation benchmark; results are
    /// identical to `get`, only the access counts differ.
    pub fn get_unpruned(&self, key: &K) -> Option<&V> {
        let cands = self.candidate_buckets(key);
        let mut plan = self.plan_nonempty(&cands);
        plan.rule1 = rule1_miss(self, &cands, &counter_values(self, &cands));
        self.get_planned(key, &cands, &plan).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KickPolicyKind, McConfig, StashPolicy};
    use mem_model::InsertOutcome;
    use std::collections::HashMap;
    use workloads::UniqueKeys;

    fn paper_table(n: usize, seed: u64) -> McCuckoo<u64, u64> {
        McCuckoo::new(McConfig::paper(n, seed))
    }

    #[test]
    fn first_insert_occupies_all_candidates() {
        let mut t = paper_table(64, 1);
        let r = t.insert_new(42, 420).unwrap();
        assert_eq!(r.copies_written, 3);
        assert!(!r.collision);
        assert_eq!(t.copy_count(&42), 3);
        assert_eq!(t.get(&42), Some(&420));
        t.check_invariants().unwrap();
    }

    #[test]
    fn lookup_rule1_costs_zero_offchip_reads() {
        // Bloom behaviour: an absent key whose candidates include an
        // empty bucket is rejected without touching off-chip memory.
        let mut t = paper_table(1024, 2);
        for k in 0u64..10 {
            t.insert_new(k, k).unwrap();
        }
        let before = t.meter().snapshot();
        // At this load nearly every absent key hits an empty candidate.
        let mut zero_read_misses = 0;
        let keys = UniqueKeys::new(3);
        for j in 0..100 {
            let pre = t.meter().snapshot();
            assert_eq!(t.get(&keys.absent_key(j)), None);
            if (t.meter().snapshot() - pre).offchip_reads == 0 {
                zero_read_misses += 1;
            }
        }
        assert!(zero_read_misses > 90, "only {zero_read_misses} free misses");
        assert_eq!(
            (t.meter().snapshot() - before).offchip_writes,
            0,
            "lookups never write"
        );
    }

    #[test]
    fn fills_to_90_percent() {
        let n = 10_000;
        let mut t = paper_table(n, 4);
        let mut keys = UniqueKeys::new(5);
        let target = 3 * n * 90 / 100;
        for _ in 0..target {
            let k = keys.next_key();
            t.insert_new(k, k).unwrap();
        }
        assert!(t.load_ratio() > 0.89);
        assert!(
            t.stash_len() < target / 100,
            "stash {} too large",
            t.stash_len()
        );
        for k in UniqueKeys::new(5).take_vec(target) {
            assert!(t.contains(&k), "key lost");
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn no_collision_until_table_warm() {
        // Table I: McCuckoo's first real collision comes much later than
        // standard cuckoo's ~9%.
        let n = 5_000;
        let mut t = paper_table(n, 6);
        let mut keys = UniqueKeys::new(7);
        let cap = 3 * n;
        let mut first = None;
        for i in 0..cap {
            let k = keys.next_key();
            let r = t.insert_new(k, k).unwrap();
            if r.collision {
                first = Some(i as f64 / cap as f64);
                break;
            }
        }
        let load = first.expect("collision must eventually happen");
        assert!(load > 0.15, "first collision at {load}, expected > 0.15");
    }

    #[test]
    fn theorem2_redundant_write_bound() {
        // d=3: proactive redundant writes ≤ 5/6 · S over a full build-up.
        let n = 3_000;
        let mut t = paper_table(n, 8);
        let mut keys = UniqueKeys::new(9);
        let cap = 3 * n;
        for _ in 0..cap * 95 / 100 {
            let k = keys.next_key();
            let _ = t.insert_new(k, k);
        }
        let bound = (cap as f64) * 5.0 / 6.0;
        assert!(
            (t.redundant_writes() as f64) <= bound,
            "redundant writes {} exceed Theorem 2 bound {bound}",
            t.redundant_writes()
        );
    }

    #[test]
    fn update_rewrites_all_copies() {
        let mut t = paper_table(64, 10);
        t.insert(7, 70).unwrap();
        assert_eq!(t.copy_count(&7), 3);
        let r = t.insert(7, 71).unwrap();
        assert_eq!(r.outcome, InsertOutcome::Updated);
        assert_eq!(t.get(&7), Some(&71));
        assert_eq!(t.main_len(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn lookup_probe_budget_respected() {
        // With all candidates distinct values, at most S-V+1 probes per
        // partition; in aggregate a hit never costs more than d reads.
        let n = 2_000;
        let mut t = paper_table(n, 11);
        let mut keys = UniqueKeys::new(12);
        let inserted: Vec<u64> = (0..3 * n * 80 / 100)
            .map(|_| {
                let k = keys.next_key();
                t.insert_new(k, k).unwrap();
                k
            })
            .collect();
        for k in &inserted {
            let before = t.meter().snapshot();
            assert_eq!(t.get(k), Some(k));
            let delta = t.meter().snapshot() - before;
            assert!(delta.offchip_reads <= 3, "{} reads", delta.offchip_reads);
        }
    }

    #[test]
    fn deletion_reset_mode_roundtrip_and_zero_writes() {
        let n = 2_000;
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper_with_deletion(n, 13));
        let mut keys = UniqueKeys::new(14);
        let inserted: Vec<u64> = (0..3 * n / 2)
            .map(|_| {
                let k = keys.next_key();
                t.insert_new(k, k + 1).unwrap();
                k
            })
            .collect();
        let before = t.meter().snapshot();
        for k in &inserted {
            assert_eq!(t.remove(k), Some(k + 1));
        }
        let delta = t.meter().snapshot() - before;
        assert_eq!(delta.offchip_writes, 0, "deletion must not write off-chip");
        assert!(t.is_empty());
        for k in &inserted {
            assert_eq!(t.get(k), None);
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn deletion_tombstone_mode_keeps_rule1_sound() {
        let n = 512;
        let mut t: McCuckoo<u64, u64> =
            McCuckoo::new(McConfig::paper(n, 15).with_deletion(DeletionMode::Tombstone));
        let mut keys = UniqueKeys::new(16);
        let ks = keys.take_vec(500);
        for &k in &ks {
            t.insert_new(k, k).unwrap();
        }
        for &k in ks.iter().take(250) {
            assert_eq!(t.remove(&k), Some(k));
        }
        // Deleted keys gone, survivors intact.
        for &k in ks.iter().take(250) {
            assert_eq!(t.get(&k), None);
        }
        for &k in ks.iter().skip(250) {
            assert_eq!(t.get(&k), Some(&k));
        }
        // Freed buckets are reusable.
        let more = keys.take_vec(200);
        for &k in &more {
            t.insert_new(k, k).unwrap();
        }
        for &k in &more {
            assert_eq!(t.get(&k), Some(&k));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "DeletionMode::Disabled")]
    fn remove_panics_when_disabled() {
        let mut t = paper_table(16, 17);
        t.insert_new(1, 1).unwrap();
        let _ = t.remove(&1);
    }

    #[test]
    fn mem_bytes_counts_slots_flags_counter_words_and_stash() {
        // 3 × 100,000 buckets: 24 B slots (a 7.2 MB plane, so the
        // huge-page hint advises its interior), one flag byte per bucket
        // and 2-bit counters packed 32 to a 64-bit word. The hint adds
        // no counted byte, and placed writes allocate none.
        let mut t = paper_table(100_000, 1);
        let want = 300_000 * 24 + 300_000 + 300_000 / 32 * 8;
        assert_eq!(t.mem_bytes(), want);
        assert_eq!(want, 7_575_000);
        t.insert_new(1, 1).unwrap();
        assert_eq!(t.mem_bytes(), want);
        // An overfull table adds its stash's capacity.
        let n = 200;
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper(n, 18).with_maxloop(50));
        let empty = t.mem_bytes();
        let mut keys = UniqueKeys::new(19);
        for _ in 0..3 * n {
            let k = keys.next_key();
            t.insert_new(k, k).unwrap();
        }
        assert!(t.stash_len() > 0, "100% load must overflow");
        assert!(t.mem_bytes() >= empty + t.stash_len() * 16);
    }

    #[test]
    fn stash_absorbs_overflow_and_screening_works() {
        // Small table driven past capacity: failures land in the stash
        // and remain findable; absent-key lookups rarely visit the stash.
        let n = 200;
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper(n, 18).with_maxloop(50));
        let mut keys = UniqueKeys::new(19);
        let total = 3 * n; // 100% load
        let inserted: Vec<u64> = (0..total)
            .map(|_| {
                let k = keys.next_key();
                t.insert_new(k, k).unwrap();
                k
            })
            .collect();
        assert!(t.stash_len() > 0, "100% load must overflow");
        for k in &inserted {
            assert_eq!(t.get(k), Some(k), "stashed or placed, key must be found");
        }
        // Screening: absent keys must rarely reach the stash.
        let before = t.meter().snapshot();
        for j in 0..1000 {
            assert_eq!(t.get(&keys.absent_key(j)), None);
        }
        let delta = t.meter().snapshot() - before;
        assert!(
            delta.stash_visits <= 50,
            "{} of 1000 absent lookups visited the stash",
            delta.stash_visits
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn refresh_stash_drains_after_deletions() {
        let n = 150;
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(
            McConfig::paper(n, 20)
                .with_maxloop(30)
                .with_deletion(DeletionMode::Reset),
        );
        let mut keys = UniqueKeys::new(21);
        let inserted: Vec<u64> = (0..3 * n)
            .map(|_| {
                let k = keys.next_key();
                t.insert_new(k, k).unwrap();
                k
            })
            .collect();
        assert!(t.stash_len() > 0);
        // Delete a third of the table, then refresh.
        for k in inserted.iter().take(n) {
            t.remove(k);
        }
        let drained = t.refresh_stash();
        assert!(drained > 0, "free space must drain the stash");
        for k in inserted.iter().skip(n) {
            assert!(t.contains(k));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn differential_against_hashmap_with_deletions() {
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper_with_deletion(2_048, 22));
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut keys = UniqueKeys::new(23);
        let mut s = hash_kit::SplitMix64::new(24);
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
            assert_eq!(t.get(k), Some(v), "key {k}");
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn upsert_differential_with_value_churn() {
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper(1_024, 25));
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut keys = UniqueKeys::new(26);
        let universe: Vec<u64> = keys.take_vec(1_500);
        let mut s = hash_kit::SplitMix64::new(27);
        for step in 0..20_000u64 {
            let k = universe[s.next_below(universe.len() as u64) as usize];
            if s.next_below(2) == 0 {
                t.insert(k, step).unwrap();
                model.insert(k, step);
            } else {
                assert_eq!(t.get(&k), model.get(&k));
            }
        }
        for (k, v) in &model {
            assert_eq!(t.get(k), Some(v));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn mincounter_policy_fills_table() {
        let n = 3_000;
        let mut t: McCuckoo<u64, u64> =
            McCuckoo::new(McConfig::paper(n, 28).with_kick_policy(KickPolicyKind::MinCounter));
        let mut keys = UniqueKeys::new(29);
        let target = 3 * n * 88 / 100;
        for _ in 0..target {
            let k = keys.next_key();
            t.insert_new(k, k).unwrap();
        }
        for k in UniqueKeys::new(29).take_vec(target) {
            assert!(t.contains(&k));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn hashed_stash_policy_works_end_to_end() {
        let n = 150;
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(
            McConfig::paper(n, 30)
                .with_maxloop(30)
                .with_stash(StashPolicy::Hashed),
        );
        let mut keys = UniqueKeys::new(31);
        let inserted: Vec<u64> = (0..3 * n)
            .map(|_| {
                let k = keys.next_key();
                t.insert_new(k, k).unwrap();
                k
            })
            .collect();
        assert!(t.stash_len() > 0);
        for k in &inserted {
            assert!(t.contains(k));
        }
    }

    #[test]
    fn get_unpruned_agrees_with_get_and_never_reads_less() {
        let modes = [
            DeletionMode::Disabled,
            DeletionMode::Reset,
            DeletionMode::Tombstone,
        ];
        for mode in modes {
            let n = 150;
            let mut t: McCuckoo<u64, u64> = McCuckoo::new(
                McConfig::paper(n, 40)
                    .with_maxloop(30)
                    .with_deletion(mode)
                    .with_stash(StashPolicy::Linear),
            );
            let mut keys = UniqueKeys::new(41);
            let mut live = keys.take_vec(3 * n);
            for &k in &live {
                t.insert_new(k, k + 1).unwrap();
            }
            // Early keys were placed before the stash filled: removing
            // them leaves scars (or tombstones) and keeps the stash.
            let gone: Vec<u64> = if mode == DeletionMode::Disabled {
                Vec::new()
            } else {
                live.drain(..n / 2).collect()
            };
            for k in &gone {
                assert_eq!(t.remove(k), Some(k + 1));
            }
            assert!(t.stash_len() > 0, "{mode:?}: stash is empty");
            let absent = (0..500).map(|j| keys.absent_key(j));
            let (mut hit_reads, mut stashed_hits) = ([0u64; 2], 0);
            for k in live.iter().chain(&gone).copied().chain(absent) {
                let m0 = t.meter().snapshot();
                let pruned = t.get(&k).copied();
                let m1 = t.meter().snapshot();
                let unpruned = t.get_unpruned(&k).copied();
                let m2 = t.meter().snapshot();
                assert_eq!(unpruned, pruned, "{mode:?}: key {k}");
                let reads = [(m1 - m0).offchip_reads, (m2 - m1).offchip_reads];
                if pruned.is_some() {
                    hit_reads[0] += reads[0];
                    hit_reads[1] += reads[1];
                    stashed_hits += usize::from(t.copy_count(&k) == 0);
                } else {
                    // A miss reads its whole plan, and the pruned plan is
                    // a subset of the non-empty candidates.
                    assert!(reads[1] >= reads[0], "{mode:?}: miss {k} {reads:?}");
                }
            }
            assert_eq!(stashed_hits, t.stash_len(), "{mode:?}");
            // A hit may sit earlier in candidate order than in partition
            // order, so only the total is ordered.
            assert!(hit_reads[1] >= hit_reads[0], "{mode:?}: {hit_reads:?}");
        }
    }

    #[test]
    fn no_stash_policy_surfaces_failures() {
        let n = 32;
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(
            McConfig::paper(n, 32)
                .with_maxloop(10)
                .with_stash(StashPolicy::None),
        );
        let mut keys = UniqueKeys::new(33);
        let mut failed = false;
        for _ in 0..3 * n + 10 {
            let k = keys.next_key();
            if let Err(full) = t.insert_new(k, k) {
                assert_eq!(full.report.outcome, InsertOutcome::Failed);
                failed = true;
                break;
            }
        }
        assert!(failed, "overfilled table without stash must fail");
        t.check_invariants().unwrap();
    }

    #[test]
    fn iter_yields_each_distinct_key_once() {
        let mut t = paper_table(256, 34);
        let mut keys = UniqueKeys::new(35);
        let ks = keys.take_vec(300);
        for &k in &ks {
            t.insert_new(k, k.wrapping_mul(2)).unwrap();
        }
        let mut got: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        got.sort_unstable();
        let mut want = ks.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn d2_and_d4_configurations_work() {
        // Fill, then upsert every third key and remove every second, so
        // the single-slot copy probe's update and removal walks run at
        // d ≠ 3 under both deletion modes.
        for (d, mode) in [2usize, 4]
            .into_iter()
            .flat_map(|d| [(d, DeletionMode::Reset), (d, DeletionMode::Tombstone)])
        {
            let config = McConfig::paper(512, 36).with_d(d).with_deletion(mode);
            let mut t: McCuckoo<u64, u64> = McCuckoo::new(config);
            let ks = UniqueKeys::new(37 + d as u64).take_vec(d * 512 / 2); // 50% load: safe for d=2
            for &k in &ks {
                t.insert_new(k, k).unwrap();
            }
            for &k in &ks {
                assert!(t.contains(&k), "d={d} {mode:?}");
            }
            for (i, &k) in ks.iter().enumerate() {
                if i % 3 == 0 {
                    let rep = t.insert(k, k + 1).unwrap();
                    assert_eq!(rep.outcome, InsertOutcome::Updated, "d={d} {mode:?}");
                }
                if i % 2 == 0 {
                    let want = if i % 3 == 0 { k + 1 } else { k };
                    assert_eq!(t.remove(&k), Some(want), "d={d} {mode:?}");
                }
            }
            for (i, &k) in ks.iter().enumerate() {
                let want = match (i % 2, i % 3) {
                    (0, _) => None,
                    (_, 0) => Some(k + 1),
                    _ => Some(k),
                };
                assert_eq!(t.get(&k).copied(), want, "d={d} {mode:?}: key {i}");
            }
            t.check_invariants().unwrap();
        }
    }

    #[test]
    fn counters_form_a_bloom_filter() {
        // Paper: "if we look at the on-chip counters as zero or non-zero,
        // they actually form a standard Bloom filter" — no false
        // negatives ever.
        let mut t = paper_table(1_024, 38);
        let mut keys = UniqueKeys::new(39);
        let ks = keys.take_vec(2_000);
        for &k in &ks {
            t.insert_new(k, k).unwrap();
        }
        for &k in &ks {
            // Every candidate counter of a present key must be non-zero.
            let cands = t.candidate_buckets(&k);
            for &c in cands.iter().take(t.d()) {
                assert!(t.counter(c) > 0);
            }
        }
    }

    #[test]
    fn string_keys_work() {
        let mut t: McCuckoo<String, u32> = McCuckoo::new(McConfig::paper(64, 40));
        t.insert("alpha".to_string(), 1).unwrap();
        t.insert("beta".to_string(), 2).unwrap();
        assert_eq!(t.get(&"alpha".to_string()), Some(&1));
        assert_eq!(t.get(&"gamma".to_string()), None);
        t.check_invariants().unwrap();
    }
}

//! Off-chip stash structures (§III.E of the paper).
//!
//! McCuckoo keeps its stash in the abundant off-chip memory — the paper's
//! point is that the counter + flag pre-screening makes stash *visits* so
//! rare that the stash can be large and off-chip without hurting lookups.
//! Two organisations are provided:
//!
//! * [`Stash::Linear`] — an unbounded vector, scanned linearly. One
//!   conceptual stash access per visit (visits are the rare event; the
//!   paper's Tables II–III count visits).
//! * [`Stash::Hashed`] — open-addressing hash ("we can use more advanced
//!   hash techniques to construct the stash, so that checking it can be
//!   finished with minimal access"); probes are metered individually.
//!
//! The 1-bit per-bucket *flags* that pre-screen stash checks live with the
//! main-table buckets, not here (they travel with ordinary bucket reads).

use hash_kit::KeyHash;
use mem_model::MemMeter;

use crate::config::StashPolicy;

/// Off-chip stash holding items that failed insertion.
#[derive(Debug)]
pub enum Stash<K, V> {
    /// No stash configured.
    None,
    /// Linear-scan stash.
    Linear(Vec<(K, V)>),
    /// Open-addressing stash (linear probing, grows at 70% load).
    Hashed(HashedStash<K, V>),
}

impl<K: KeyHash + Eq, V> Stash<K, V> {
    /// Build from policy.
    pub fn new(policy: StashPolicy) -> Self {
        match policy {
            StashPolicy::None => Stash::None,
            StashPolicy::Linear => Stash::Linear(Vec::new()),
            StashPolicy::Hashed => Stash::Hashed(HashedStash::new()),
        }
    }

    /// Whether a stash exists at all.
    pub fn enabled(&self) -> bool {
        !matches!(self, Stash::None)
    }

    /// Number of stashed items.
    pub fn len(&self) -> usize {
        match self {
            Stash::None => 0,
            Stash::Linear(v) => v.len(),
            Stash::Hashed(h) => h.len,
        }
    }

    /// True if no items are stashed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Store a failed item. Returns `false` (item handed back via the
    /// caller) only when no stash is configured.
    pub fn push(&mut self, key: K, value: V, meter: &MemMeter) -> Result<(), (K, V)> {
        match self {
            Stash::None => Err((key, value)),
            Stash::Linear(v) => {
                meter.stash_write(1);
                v.push((key, value));
                Ok(())
            }
            Stash::Hashed(h) => {
                h.insert(key, value, meter);
                Ok(())
            }
        }
    }

    /// Look up a key; meters one visit plus structure-specific reads.
    pub fn get(&self, key: &K, meter: &MemMeter) -> Option<&V> {
        meter.stash_visit();
        match self {
            Stash::None => None,
            Stash::Linear(v) => {
                meter.stash_read(1);
                v.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            Stash::Hashed(h) => h.get(key, meter),
        }
    }

    /// Remove a key; meters one visit plus structure-specific accesses.
    pub fn remove(&mut self, key: &K, meter: &MemMeter) -> Option<V> {
        meter.stash_visit();
        match self {
            Stash::None => None,
            Stash::Linear(v) => {
                meter.stash_read(1);
                let pos = v.iter().position(|(k, _)| k == key)?;
                meter.stash_write(1);
                Some(v.swap_remove(pos).1)
            }
            Stash::Hashed(h) => h.remove(key, meter),
        }
    }

    /// Bytes of the stash's allocated capacity (a linear stash's
    /// vector, a hashed stash's open-addressing slots).
    pub fn mem_bytes(&self) -> usize {
        match self {
            Stash::None => 0,
            Stash::Linear(v) => v.capacity() * std::mem::size_of::<(K, V)>(),
            Stash::Hashed(h) => h.slots.capacity() * std::mem::size_of::<Option<(K, V)>>(),
        }
    }

    /// Drain all items (used by `refresh_stash`, which re-inserts them).
    pub fn drain_all(&mut self) -> Vec<(K, V)> {
        match self {
            Stash::None => Vec::new(),
            Stash::Linear(v) => std::mem::take(v),
            Stash::Hashed(h) => h.drain_all(),
        }
    }

    /// Iterate stashed items.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (&K, &V)> + '_> {
        match self {
            Stash::None => Box::new(std::iter::empty()),
            Stash::Linear(v) => Box::new(v.iter().map(|(k, v)| (k, v))),
            Stash::Hashed(h) => Box::new(
                h.slots
                    .iter()
                    .filter_map(|s| s.as_ref().map(|(k, v)| (k, v))),
            ),
        }
    }
}

/// Open-addressing stash: linear probing, power-of-two capacity, grows at
/// 70% load. Deletions use backward-shift so probe chains stay intact
/// without tombstones.
#[derive(Debug)]
pub struct HashedStash<K, V> {
    slots: Vec<Option<(K, V)>>,
    len: usize,
}

const STASH_SEED: u64 = 0x57A5_4B17_1355_AA3C;
const INITIAL_CAPACITY: usize = 16;

impl<K: KeyHash + Eq, V> HashedStash<K, V> {
    fn new() -> Self {
        let mut slots = Vec::with_capacity(INITIAL_CAPACITY);
        slots.resize_with(INITIAL_CAPACITY, || None);
        Self { slots, len: 0 }
    }

    #[inline]
    fn home(&self, key: &K) -> usize {
        (key.hash_seeded(STASH_SEED) as usize) & (self.slots.len() - 1)
    }

    fn insert(&mut self, key: K, value: V, meter: &MemMeter) {
        if (self.len + 1) * 10 > self.slots.len() * 7 {
            self.grow(meter);
        }
        let mut i = self.home(&key);
        loop {
            meter.stash_read(1);
            if self.slots[i].is_none() {
                meter.stash_write(1);
                self.slots[i] = Some((key, value));
                self.len += 1;
                return;
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
    }

    /// The slot holding `key`, probing from its home slot.
    fn find(&self, key: &K, meter: &MemMeter) -> Option<usize> {
        let mut i = self.home(key);
        loop {
            meter.stash_read(1);
            match &self.slots[i] {
                None => return None,
                Some((k, _)) if k == key => return Some(i),
                _ => i = (i + 1) & (self.slots.len() - 1),
            }
        }
    }

    fn get(&self, key: &K, meter: &MemMeter) -> Option<&V> {
        let i = self.find(key, meter)?;
        self.slots[i].as_ref().map(|(_, v)| v)
    }

    fn remove(&mut self, key: &K, meter: &MemMeter) -> Option<V> {
        let mask = self.slots.len() - 1;
        let mut i = self.find(key, meter)?;
        let (_, value) = self.slots[i].take().unwrap();
        meter.stash_write(1);
        self.len -= 1;
        // Backward-shift deletion: slide the cluster left.
        let mut j = (i + 1) & mask;
        loop {
            meter.stash_read(1);
            let Some((k, _)) = &self.slots[j] else { break };
            let home = self.home(k);
            // Can j's occupant legally move to i? Only if its home does
            // not lie strictly inside (i, j].
            let between = if i <= j {
                home > i && home <= j
            } else {
                home > i || home <= j
            };
            if !between {
                self.slots[i] = self.slots[j].take();
                meter.stash_write(2);
                i = j;
            }
            j = (j + 1) & mask;
        }
        Some(value)
    }

    fn grow(&mut self, meter: &MemMeter) {
        let new_cap = self.slots.len() * 2;
        let old: Vec<(K, V)> = self.drain_all();
        self.slots.resize_with(new_cap, || None);
        self.len = 0;
        for (k, v) in old {
            self.insert(k, v, meter);
        }
    }

    fn drain_all(&mut self) -> Vec<(K, V)> {
        let out: Vec<(K, V)> = self.slots.iter_mut().filter_map(|s| s.take()).collect();
        self.len = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hash_kit::SplitMix64;
    use std::collections::HashMap;

    fn meter() -> MemMeter {
        MemMeter::new()
    }

    #[test]
    fn none_stash_rejects_pushes() {
        let m = meter();
        let mut s: Stash<u64, u64> = Stash::new(StashPolicy::None);
        assert!(!s.enabled());
        assert_eq!(s.push(1, 2, &m), Err((1, 2)));
        assert_eq!(s.get(&1, &m), None);
    }

    #[test]
    fn linear_stash_roundtrip() {
        let m = meter();
        let mut s: Stash<u64, u64> = Stash::new(StashPolicy::Linear);
        for k in 0..100u64 {
            s.push(k, k * 2, &m).unwrap();
        }
        assert_eq!(s.len(), 100);
        for k in 0..100u64 {
            assert_eq!(s.get(&k, &m), Some(&(k * 2)));
        }
        assert_eq!(s.get(&1000, &m), None);
        for k in 0..100u64 {
            assert_eq!(s.remove(&k, &m), Some(k * 2));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn hashed_stash_roundtrip() {
        let m = meter();
        let mut s: Stash<u64, u64> = Stash::new(StashPolicy::Hashed);
        for k in 0..1000u64 {
            s.push(k, k + 1, &m).unwrap();
        }
        assert_eq!(s.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(s.get(&k, &m), Some(&(k + 1)));
        }
        assert_eq!(s.get(&5000, &m), None);
    }

    #[test]
    fn hashed_stash_differential_with_removals() {
        let m = meter();
        let mut s: Stash<u64, u64> = Stash::new(StashPolicy::Hashed);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut rng = SplitMix64::new(5);
        let mut live: Vec<u64> = Vec::new();
        for _ in 0..20_000 {
            match rng.next_below(3) {
                0 => {
                    let k = rng.next_u64() >> 40; // narrow range → collisions
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(k) {
                        s.push(k, k ^ 1, &m).unwrap();
                        e.insert(k ^ 1);
                        live.push(k);
                    }
                }
                1 if !live.is_empty() => {
                    let i = rng.next_below(live.len() as u64) as usize;
                    let k = live[i];
                    assert_eq!(s.get(&k, &m), model.get(&k));
                }
                2 if !live.is_empty() => {
                    let i = rng.next_below(live.len() as u64) as usize;
                    let k = live.swap_remove(i);
                    assert_eq!(s.remove(&k, &m), model.remove(&k));
                }
                _ => {}
            }
        }
        assert_eq!(s.len(), model.len());
        for (k, v) in &model {
            assert_eq!(s.get(k, &m), Some(v));
        }
    }

    #[test]
    fn hashed_probe_counts_stay_small() {
        // At ≤70% load with linear probing, mean probes should be low.
        let m = meter();
        let mut s: Stash<u64, u64> = Stash::new(StashPolicy::Hashed);
        for k in 0..500u64 {
            s.push(k, k, &m).unwrap();
        }
        let before = m.snapshot();
        for k in 0..500u64 {
            assert!(s.get(&k, &m).is_some());
        }
        let delta = m.snapshot() - before;
        let mean_probes = delta.stash_reads as f64 / 500.0;
        assert!(mean_probes < 3.0, "mean probes {mean_probes}");
    }

    #[test]
    fn visits_are_counted_per_operation() {
        let m = meter();
        let s: Stash<u64, u64> = Stash::new(StashPolicy::Linear);
        let _ = s.get(&1, &m);
        let _ = s.get(&2, &m);
        assert_eq!(m.snapshot().stash_visits, 2);
    }

    #[test]
    fn drain_all_empties_both_kinds() {
        let m = meter();
        for policy in [StashPolicy::Linear, StashPolicy::Hashed] {
            let mut s: Stash<u64, u64> = Stash::new(policy);
            for k in 0..50u64 {
                s.push(k, k, &m).unwrap();
            }
            let mut drained = s.drain_all();
            drained.sort_unstable();
            assert_eq!(
                drained,
                (0u64..50).map(|k| (k, k)).collect::<Vec<_>>(),
                "{policy:?}"
            );
            assert!(s.is_empty());
        }
    }

    #[test]
    fn iter_matches_contents() {
        let m = meter();
        let mut s: Stash<u64, u64> = Stash::new(StashPolicy::Hashed);
        for k in 0..30u64 {
            s.push(k, k * 3, &m).unwrap();
        }
        let mut got: Vec<u64> = s.iter().map(|(k, _)| *k).collect();
        got.sort_unstable();
        assert_eq!(got, (0u64..30).collect::<Vec<_>>());
    }
}

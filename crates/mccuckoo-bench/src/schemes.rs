//! Uniform driver over the four evaluated schemes.
//!
//! The paper compares ternary Cuckoo, McCuckoo, 3×3 BCHT and
//! B-McCuckoo (§IV.A.3). [`AnyTable`] holds any of them as a boxed
//! [`McTable`] so the experiment binaries sweep all four with one code
//! path — the per-scheme `match` exists only at construction. All tables
//! are sized by **total slot capacity** so load ratios are comparable.

use cuckoo_baselines::{Bcht, BchtConfig, CuckooConfig, DaryCuckoo};
use mccuckoo_core::{
    BlockedConfig, BlockedMcCuckoo, KickPolicyKind, McConfig, McCuckoo, McTable, ShardedMcCuckoo,
};
use mem_model::{InsertOutcome, InsertReport, MemStats};

/// The four schemes of the paper's evaluation, plus the sharded
/// multi-writer serving layer built on the concurrent table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Standard ternary Cuckoo hashing (single copy, 1 slot).
    Cuckoo,
    /// Multi-copy Cuckoo, single slot.
    McCuckoo,
    /// Blocked Cuckoo hash table, 3 hashes × 3 slots.
    Bcht,
    /// Blocked multi-copy Cuckoo, 3 hashes × 3 slots.
    BMcCuckoo,
    /// 4-way sharded concurrent McCuckoo (not in the paper's figures;
    /// swept by the smoke and concurrency harnesses).
    Sharded,
}

impl Scheme {
    /// The paper's four schemes, in its presentation order.
    pub const ALL: [Scheme; 4] = [
        Scheme::Cuckoo,
        Scheme::McCuckoo,
        Scheme::Bcht,
        Scheme::BMcCuckoo,
    ];

    /// The paper's four plus the sharded serving layer, for harnesses
    /// (smoke tests) that cover everything buildable.
    pub const WITH_SHARDED: [Scheme; 5] = [
        Scheme::Cuckoo,
        Scheme::McCuckoo,
        Scheme::Bcht,
        Scheme::BMcCuckoo,
        Scheme::Sharded,
    ];

    /// The two single-slot schemes.
    pub const SINGLE_SLOT: [Scheme; 2] = [Scheme::Cuckoo, Scheme::McCuckoo];

    /// Display label matching the paper.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Cuckoo => "Cuckoo",
            Scheme::McCuckoo => "McCuckoo",
            Scheme::Bcht => "BCHT",
            Scheme::BMcCuckoo => "B-McCuckoo",
            Scheme::Sharded => "Sharded-4",
        }
    }

    /// Whether this is a multi-copy scheme.
    pub fn multi_copy(&self) -> bool {
        matches!(self, Scheme::McCuckoo | Scheme::BMcCuckoo | Scheme::Sharded)
    }

    /// Whether this is a blocked (multi-slot) scheme, whose off-chip
    /// bucket holds 3 records per access.
    pub fn blocked(&self) -> bool {
        matches!(self, Scheme::Bcht | Scheme::BMcCuckoo)
    }

    /// A realistic failure-free peak load for fill sweeps (bands above
    /// this are skipped for the scheme).
    pub fn max_sweep_load(&self) -> f64 {
        match self {
            Scheme::Cuckoo => 0.88,
            Scheme::McCuckoo => 0.90,
            Scheme::Bcht => 0.97,
            Scheme::BMcCuckoo => 0.98,
            // Stash-less concurrent shards, each smaller than one
            // monolithic table of the same total capacity: stalls first.
            Scheme::Sharded => 0.85,
        }
    }
}

/// A table of any scheme, keyed `u64 → u64`, sized by total slots.
///
/// All operations go through the shared [`McTable`] interface; the
/// scheme tag rides along for labelling only.
pub struct AnyTable {
    scheme: Scheme,
    t: Box<dyn McTable<u64, u64>>,
}

impl AnyTable {
    /// Build `scheme` with ~`cap_slots` total capacity. `deletion`
    /// enables Reset-mode deletion on the multi-copy schemes (baselines
    /// always support removal). Uses the paper's random-walk kick policy;
    /// [`Self::build_with_policy`] selects another.
    pub fn build(
        scheme: Scheme,
        cap_slots: usize,
        seed: u64,
        maxloop: u32,
        deletion: bool,
    ) -> Self {
        Self::build_with_policy(
            scheme,
            cap_slots,
            seed,
            maxloop,
            deletion,
            KickPolicyKind::RandomWalk,
        )
    }

    /// [`Self::build`] with an explicit kick policy for the multi-copy
    /// schemes (McCuckoo, B-McCuckoo, Sharded). The baselines have no
    /// policy layer and ignore `kick` — their walk is the scheme.
    pub fn build_with_policy(
        scheme: Scheme,
        cap_slots: usize,
        seed: u64,
        maxloop: u32,
        deletion: bool,
        kick: KickPolicyKind,
    ) -> Self {
        let t: Box<dyn McTable<u64, u64>> = match scheme {
            Scheme::Cuckoo => {
                let mut cfg = CuckooConfig::paper(cap_slots / 3, seed);
                cfg.maxloop = maxloop;
                Box::new(DaryCuckoo::new(cfg))
            }
            Scheme::McCuckoo => {
                let mut cfg = if deletion {
                    McConfig::paper_with_deletion(cap_slots / 3, seed)
                } else {
                    McConfig::paper(cap_slots / 3, seed)
                };
                cfg.maxloop = maxloop;
                cfg.kick = kick;
                Box::new(McCuckoo::new(cfg))
            }
            Scheme::Bcht => {
                let mut cfg = BchtConfig::paper(cap_slots / 9, seed);
                cfg.maxloop = maxloop;
                Box::new(Bcht::new(cfg))
            }
            Scheme::BMcCuckoo => {
                let base = if deletion {
                    McConfig::paper_with_deletion(cap_slots / 9, seed)
                } else {
                    McConfig::paper(cap_slots / 9, seed)
                };
                let mut cfg = BlockedConfig { base, slots: 3 };
                cfg.base.maxloop = maxloop;
                cfg.base.kick = kick;
                Box::new(BlockedMcCuckoo::new(cfg))
            }
            Scheme::Sharded => {
                // 4 shards of single-slot concurrent McCuckoo; deletion
                // is always available (counter-only removes).
                const SHARDS: usize = 4;
                let mut cfg = McConfig::paper((cap_slots / 3 / SHARDS).max(1), seed);
                cfg.maxloop = maxloop;
                cfg.kick = kick;
                Box::new(ShardedMcCuckoo::new(SHARDS, cfg))
            }
        };
        Self { scheme, t }
    }

    /// Which scheme this is.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Insert a fresh key. Hard failures (no stash, or stash full) are
    /// reported as `Failed`; the evicted victim is re-offered nowhere
    /// (the sweeps stop at the first failure anyway).
    pub fn insert_new(&mut self, k: u64, v: u64) -> InsertReport {
        self.t.insert_new(k, v)
    }

    /// Look up a key.
    pub fn get(&self, k: &u64) -> Option<u64> {
        self.t.lookup(k)
    }

    /// Look up a batch of keys through the scheme's batched read path
    /// ([`McTable::lookup_batch`]): the multi-copy tables run the
    /// prefetch-interleaved state machine, the baselines fall back to
    /// the default per-key loop.
    pub fn get_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        self.t.lookup_batch(keys)
    }

    /// Remove a key (multi-copy tables must be built with `deletion`).
    pub fn remove(&mut self, k: &u64) -> Option<u64> {
        self.t.remove(k)
    }

    /// Meter snapshot.
    pub fn snapshot(&self) -> MemStats {
        self.t.mem_stats()
    }

    /// Observability snapshot ([`McTable::stats`]).
    pub fn stats(&self) -> mccuckoo_core::TableStats {
        self.t.stats()
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.t.capacity()
    }

    /// Stored distinct items.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// True if no items stored.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Stash occupancy (0 for the baselines, which have no off-chip
    /// stash in the paper's setup).
    pub fn stash_len(&self) -> usize {
        self.t.stash_len()
    }

    /// Load ratio.
    pub fn load_ratio(&self) -> f64 {
        self.t.load()
    }
}

/// Outcome helper: did the insert land anywhere usable?
pub fn insert_succeeded(r: &InsertReport) -> bool {
    matches!(r.outcome, InsertOutcome::Placed | InsertOutcome::Updated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::UniqueKeys;

    #[test]
    fn all_schemes_build_fill_and_serve() {
        for scheme in Scheme::WITH_SHARDED {
            let mut t = AnyTable::build(scheme, 9_000, 1, 500, false);
            assert_eq!(t.scheme(), scheme);
            let mut keys = UniqueKeys::new(2);
            let target = (t.capacity() as f64 * 0.5) as usize;
            for _ in 0..target {
                let k = keys.next_key();
                let r = t.insert_new(k, k);
                assert!(r.stored(), "{scheme:?} lost an item at 50% load");
            }
            for k in UniqueKeys::new(2).take_vec(target) {
                assert_eq!(t.get(&k), Some(k), "{}", scheme.label());
            }
            assert!((t.load_ratio() - 0.5).abs() < 0.01);
        }
    }

    #[test]
    fn deletion_capable_builds_remove() {
        for scheme in Scheme::WITH_SHARDED {
            let mut t = AnyTable::build(scheme, 9_000, 3, 500, true);
            let mut keys = UniqueKeys::new(4);
            let ks = keys.take_vec(1000);
            for &k in &ks {
                t.insert_new(k, k);
            }
            for &k in &ks {
                assert_eq!(t.remove(&k), Some(k), "{}", scheme.label());
            }
            assert!(t.is_empty(), "{}", scheme.label());
        }
    }

    #[test]
    fn capacity_is_comparable_across_schemes() {
        for scheme in Scheme::WITH_SHARDED {
            let t = AnyTable::build(scheme, 90_000, 5, 500, false);
            assert_eq!(t.capacity(), 90_000, "{}", scheme.label());
        }
    }
}

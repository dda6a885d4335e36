//! Uniform adapters over the tables under test.
//!
//! The differential runner drives everything through [`DiffTarget`], a
//! thin object-safe façade over [`mccuckoo_core::McTable`] plus the
//! exhaustive invariant validator. Every table in the workspace
//! implements `McTable` directly — including real `clear`, `insert_new`
//! and stash refresh on every variant — so one blanket adapter covers
//! all of them; there are no per-table adapters or rebuild-from-config
//! workarounds here.
//!
//! The one genuine behavioural difference the runner tolerates: the
//! concurrent table has no stash, so a fresh-key insert may be
//! *rejected* when the table is full, which the runner treats as an
//! allowed outcome.

use mccuckoo_core::invariant::Validate;
use mccuckoo_core::{
    BlockedConfig, BlockedMcCuckoo, ConcurrentMcCuckoo, DeletionMode, KickPolicyKind, McConfig,
    McCuckoo, McTable, ShardedMcCuckoo, TableStats,
};

/// Which table implementation a fuzz case drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// [`McCuckoo`] with counter-reset deletion.
    Single,
    /// [`McCuckoo`] with tombstone deletion.
    SingleTombstone,
    /// [`BlockedMcCuckoo`] (2 slots per bucket) with reset deletion.
    Blocked,
    /// [`BlockedMcCuckoo`] (2 slots per bucket) with tombstone deletion.
    BlockedTombstone,
    /// [`BlockedMcCuckoo`] with the paper's 3 slots per bucket.
    Blocked3,
    /// [`ConcurrentMcCuckoo`] driven from one thread.
    Concurrent,
    /// [`ShardedMcCuckoo`] (4 shards) driven from one thread.
    Sharded,
    /// [`McCuckoo`] with the BFS kick policy, reset deletion.
    SingleBfs,
    /// [`McCuckoo`] with the bubbling kick policy, reset deletion.
    SingleBubble,
    /// [`ConcurrentMcCuckoo`] with the BFS kick policy, one thread.
    ConcurrentBfs,
    /// [`ConcurrentMcCuckoo`] with the bubbling kick policy, one thread.
    ConcurrentBubble,
}

impl TableKind {
    /// All kinds, for sweep drivers.
    pub const ALL: [TableKind; 11] = [
        TableKind::Single,
        TableKind::SingleTombstone,
        TableKind::Blocked,
        TableKind::BlockedTombstone,
        TableKind::Blocked3,
        TableKind::Concurrent,
        TableKind::Sharded,
        TableKind::SingleBfs,
        TableKind::SingleBubble,
        TableKind::ConcurrentBfs,
        TableKind::ConcurrentBubble,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TableKind::Single => "single",
            TableKind::SingleTombstone => "single-tombstone",
            TableKind::Blocked => "blocked",
            TableKind::BlockedTombstone => "blocked-tombstone",
            TableKind::Blocked3 => "blocked-3slot",
            TableKind::Concurrent => "concurrent",
            TableKind::Sharded => "sharded-4",
            TableKind::SingleBfs => "single-bfs",
            TableKind::SingleBubble => "single-bubble",
            TableKind::ConcurrentBfs => "concurrent-bfs",
            TableKind::ConcurrentBubble => "concurrent-bubble",
        }
    }

    /// Build a fresh table of this kind.
    pub fn build(self, buckets: usize, seed: u64) -> Box<dyn DiffTarget> {
        let blocked = |deletion: DeletionMode, slots: usize| BlockedConfig {
            base: McConfig::paper(buckets, seed).with_deletion(deletion),
            slots,
        };
        match self {
            TableKind::Single => Box::new(Shim::new(
                self.name(),
                McCuckoo::new(McConfig::paper(buckets, seed).with_deletion(DeletionMode::Reset)),
            )),
            TableKind::SingleTombstone => Box::new(Shim::new(
                self.name(),
                McCuckoo::new(
                    McConfig::paper(buckets, seed).with_deletion(DeletionMode::Tombstone),
                ),
            )),
            TableKind::Blocked => Box::new(Shim::new(
                self.name(),
                BlockedMcCuckoo::new(blocked(DeletionMode::Reset, 2)),
            )),
            TableKind::BlockedTombstone => Box::new(Shim::new(
                self.name(),
                BlockedMcCuckoo::new(blocked(DeletionMode::Tombstone, 2)),
            )),
            TableKind::Blocked3 => Box::new(Shim::new(
                self.name(),
                BlockedMcCuckoo::new(blocked(DeletionMode::Reset, 3)),
            )),
            TableKind::Concurrent => Box::new(Shim::new(
                self.name(),
                ConcurrentMcCuckoo::new(McConfig::paper(buckets, seed)),
            )),
            TableKind::Sharded => Box::new(Shim::new(
                self.name(),
                ShardedMcCuckoo::new(SHARDS, McConfig::paper((buckets / SHARDS).max(1), seed)),
            )),
            TableKind::SingleBfs => Box::new(Shim::new(
                self.name(),
                McCuckoo::new(
                    McConfig::paper(buckets, seed)
                        .with_deletion(DeletionMode::Reset)
                        .with_kick_policy(KickPolicyKind::Bfs),
                ),
            )),
            TableKind::SingleBubble => Box::new(Shim::new(
                self.name(),
                McCuckoo::new(
                    McConfig::paper(buckets, seed)
                        .with_deletion(DeletionMode::Reset)
                        .with_kick_policy(KickPolicyKind::Bubble),
                ),
            )),
            TableKind::ConcurrentBfs => Box::new(Shim::new(
                self.name(),
                ConcurrentMcCuckoo::new(
                    McConfig::paper(buckets, seed).with_kick_policy(KickPolicyKind::Bfs),
                ),
            )),
            TableKind::ConcurrentBubble => Box::new(Shim::new(
                self.name(),
                ConcurrentMcCuckoo::new(
                    McConfig::paper(buckets, seed).with_kick_policy(KickPolicyKind::Bubble),
                ),
            )),
        }
    }

    /// Total slot capacity a table built with `buckets` will have
    /// (used to size the near-full key domain).
    pub fn capacity(self, buckets: usize) -> usize {
        match self {
            TableKind::Blocked | TableKind::BlockedTombstone => 3 * buckets * 2,
            TableKind::Blocked3 => 3 * buckets * 3,
            TableKind::Sharded => 3 * (buckets / SHARDS).max(1) * SHARDS,
            _ => 3 * buckets,
        }
    }
}

/// Shard count of the [`TableKind::Sharded`] target.
const SHARDS: usize = 4;

/// The uniform mutable-table surface the differential runner drives.
#[allow(clippy::len_without_is_empty)] // the runner never asks for emptiness
pub trait DiffTarget {
    /// Table name for reports.
    fn name(&self) -> &'static str;
    /// Upsert; `true` if the pair is now stored.
    fn insert(&mut self, k: u64, v: u64) -> bool;
    /// Insert a key known absent; `true` if stored.
    fn insert_new(&mut self, k: u64, v: u64) -> bool;
    /// Point lookup.
    fn get(&self, k: u64) -> Option<u64>;
    /// Membership probe.
    fn contains(&self, k: u64) -> bool;
    /// Delete, returning the stored value.
    fn remove(&mut self, k: u64) -> Option<u64>;
    /// Drop everything.
    fn clear(&mut self);
    /// Stash flag refresh; 0 where there is no stash.
    fn refresh_stash(&mut self) -> usize;
    /// Exhaustive invariant validation.
    fn validate(&self) -> Result<(), String>;
    /// Distinct stored keys.
    fn len(&self) -> usize;
    /// Observability snapshot ([`McTable::stats`]); the runner
    /// reconciles its monotonic counters against the oracle's op tally.
    fn stats(&self) -> TableStats {
        TableStats::default()
    }
}

/// The one adapter: any `McTable + Validate` is a [`DiffTarget`].
struct Shim<T> {
    name: &'static str,
    t: T,
}

impl<T> Shim<T> {
    fn new(name: &'static str, t: T) -> Self {
        Self { name, t }
    }
}

impl<T: McTable<u64, u64> + Validate> DiffTarget for Shim<T> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn insert(&mut self, k: u64, v: u64) -> bool {
        self.t.insert(k, v).stored()
    }
    fn insert_new(&mut self, k: u64, v: u64) -> bool {
        self.t.insert_new(k, v).stored()
    }
    fn get(&self, k: u64) -> Option<u64> {
        self.t.lookup(&k)
    }
    fn contains(&self, k: u64) -> bool {
        self.t.contains(&k)
    }
    fn remove(&mut self, k: u64) -> Option<u64> {
        self.t.remove(&k)
    }
    fn clear(&mut self) {
        self.t.clear();
    }
    fn refresh_stash(&mut self) -> usize {
        self.t.refresh_stash()
    }
    fn validate(&self) -> Result<(), String> {
        Validate::validate(&self.t)
    }
    fn len(&self) -> usize {
        self.t.len()
    }
    fn stats(&self) -> TableStats {
        self.t.stats()
    }
}

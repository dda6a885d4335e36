//! # mccuckoo-core — Multi-copy Cuckoo Hashing (McCuckoo, ICDE 2019)
//!
//! A from-scratch implementation of *Multi-copy Cuckoo Hashing* (Li, Du,
//! Liu, Yang & Cui, ICDE 2019). Instead of committing an inserted item to
//! a single bucket, McCuckoo writes a **copy into every free candidate
//! bucket** and tracks the number of live copies of each bucket's occupant
//! in a compact **on-chip counter array** (2 bits per bucket for d = 3).
//! The counters make collision handling foresighted instead of blind:
//!
//! * a counter ≥ 2 marks a bucket whose occupant has redundant copies —
//!   it can be overwritten without losing anybody (insertion principles,
//!   §III.B.1);
//! * all copies of an item share one counter value, so lookups partition
//!   candidates by value, skip impossible partitions, and probe at most
//!   `S − V + 1` buckets of a partition of size `S` and value `V`
//!   (lookup principles, §III.B.2 / Theorem 3);
//! * a counter of 0 anywhere proves absence (Bloom-filter behaviour);
//! * deletion just zeroes (or tombstones) counters — **no off-chip
//!   writes** (§III.B.3);
//! * insertion failures go to a large **off-chip stash** whose checks are
//!   pre-screened by the counters plus a 1-bit per-bucket flag that rides
//!   along with ordinary bucket reads (§III.E).
//!
//! # Crate layout
//!
//! One shared engine over two slot stores, one public trait:
//!
//! * [`engine`] — the generic multi-copy cuckoo core:
//!   [`Engine`](engine::Engine) holds the shared
//!   insert/lookup/remove/kick-walk/stash control flow, parameterised by
//!   a [`BucketLayout`](engine::BucketLayout) (slots per bucket, victim
//!   slot choice, the lookup's probe plan, the all-copies probe) and a
//!   slot store (plain, or
//!   the concurrent table's seqlocked cells),
//! * [`kick`] — the pluggable `KickPolicy` layer: random-walk, BFS, and
//!   bubbling displacement-chain planners the engine runs (configured
//!   via [`KickPolicyKind`], whose MinCounter variant guides the plain
//!   engine's walk by kick history),
//! * [`McCuckoo`] = `Engine<K, V, SingleLayout>` — the single-slot d-ary
//!   table (d = 3 in the paper) with partition-pruned lookups
//!   ([`single`]),
//! * [`BlockedMcCuckoo`] = `Engine<K, V, BlockedLayout>` — the
//!   multi-slot extension ("B-McCuckoo", §III.G; Algorithms 1–3) with
//!   Algorithm-2 lookups ([`blocked`]),
//! * [`McTable`] — the object-safe trait ([`table`]) implemented by both
//!   instantiations, [`ConcurrentMcCuckoo`], and the baseline tables, so
//!   harnesses and benchmarks drive every variant through one interface,
//! * [`counters`] — the packed on-chip counter array (both stores),
//! * [`stash`] — off-chip stash structures,
//! * [`concurrent`] — one-writer-many-readers table (§III.H): lock-free
//!   seqlock readers plus the engine as its one writer,
//! * [`shard`] — N-way sharded multi-writer serving layer with batched
//!   operations, built from independent [`concurrent`] shards,
//! * [`maint`] — cooperative background maintenance for the sharded
//!   layer: forwarding retirement, automated op-log compaction, managed
//!   snapshots,
//! * [`multiset`] — multiset indexing via an external record arena
//!   (§III.H),
//! * [`invariant`] — exhaustive structural validators used by the test
//!   suite (and after every mutation under the `paranoid` feature).
//!
//! # Quick start
//!
//! ```
//! use mccuckoo_core::{McConfig, McCuckoo};
//!
//! // 3 hash functions × 1024 buckets each, the paper's configuration.
//! let mut table: McCuckoo<u64, &str> = McCuckoo::new(McConfig::paper(1024, 42));
//! table.insert(7, "seven").unwrap();
//! assert_eq!(table.get(&7), Some(&"seven"));
//! assert_eq!(table.get(&8), None);
//! // The first item occupied all three candidate buckets:
//! assert_eq!(table.copy_count(&7), 3);
//! ```

#![deny(unsafe_code)]

pub mod blocked;
pub mod concurrent;
pub mod config;
pub mod counters;
pub mod engine;
pub mod invariant;
pub mod kick;
pub mod maint;
pub mod map;
pub mod multiset;
pub mod obs;
pub mod oplog;
pub mod pad;
pub mod persist;
// The prefetch hints and the huge-page advice: the crate's only `unsafe`.
#[allow(unsafe_code)]
pub mod prefetch;
pub mod rehash;
pub mod shard;
pub mod single;
pub mod stash;
mod store;
pub mod table;
#[cfg(feature = "testhooks")]
pub mod testhooks;

pub use blocked::{BlockedConfig, BlockedMcCuckoo};
pub use concurrent::ConcurrentMcCuckoo;
pub use config::{DeletionMode, KickPolicyKind, McConfig, StashPolicy};
pub use counters::CounterArray;
pub use engine::McFull;
pub use maint::{CompactReport, Compactor, MaintConfig, MaintHandle, Maintainer, ManagedSnapshot};
pub use map::{GrowError, McMap};
pub use multiset::MultisetIndex;
pub use obs::{Histogram, MaintStats, MigrationStats, OpStats, ShardStats, TableStats};
pub use oplog::{parse_log, LogSink, OpLog, OpRecord, RecoverError, VecSink};
pub use pad::CachePadded;
pub use persist::{BlockedSnapshot, SnapshotOverflow, TableSnapshot};
pub use rehash::{RehashOverflow, RehashReport};
pub use shard::{
    RetireReport, ShardedMcCuckoo, ShardedSnapshot, SplitError, SplitReport,
    SHARDED_SNAPSHOT_FORMAT,
};
pub use single::McCuckoo;
pub use store::Word;
pub use table::McTable;

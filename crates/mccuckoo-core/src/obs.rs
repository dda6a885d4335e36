//! Lock-free per-table statistics (the observability layer).
//!
//! Every table in the workspace exposes
//! [`McTable::stats`](crate::McTable::stats), which returns a plain-data
//! [`TableStats`] snapshot assembled from an [`Obs`] recorder embedded in
//! the table. The recorder is a set of monotonic relaxed atomics, striped
//! per thread so that each cell has one writer — safe to bump from the
//! concurrent table's lock-free read path and cheap enough to leave on
//! unconditionally:
//!
//! * **op counters** ([`OpStats`]): inserts / in-place updates / failed
//!   inserts / stash spills / lookup hits + misses / removes (hit and
//!   miss) / total kick-outs;
//! * **log-bucketed histograms** ([`Histogram`]): probe count per
//!   lookup, kick-walk length per fresh insert, and batch size for the
//!   batched entry points. Bucket 0 holds exact zeroes; bucket *i* ≥ 1
//!   holds values in `[2^(i-1), 2^i)`, with the last bucket open-ended.
//!
//! **Stripes.** A thread claims one of `STRIPES` process-wide stripe ids
//! on its first record (a bit in a static bitmap, claimed by CAS and
//! released when the thread exits). Each recorder holds one set of cells
//! per stripe id, made on the id owner's first record into that recorder
//! (the one allocation recording may make), and only that owner writes
//! them, with a plain load and store instead of a locked RMW. A thread
//! that finds every id taken, or records while its thread-locals are
//! being torn down, bumps the recorder's shared cells with `fetch_add`.
//! A snapshot sums the shared cells and every made stripe. Each cell only
//! grows, so each summed field does too. An id's next owner continues
//! from its last owner's counts: the release of the id (a `Release`
//! clear of its bit) happens before its next claim (an `Acquire` CAS).
//!
//! Counters are *monotonic for the lifetime of the table* — they are not
//! reset by [`clear`](crate::McTable::clear) — so differential harnesses
//! can take a baseline snapshot, run a workload, and reconcile the delta
//! against an oracle tally regardless of intervening clears.
//!
//! [`ShardedMcCuckoo`](crate::ShardedMcCuckoo) reports both the merged
//! aggregate and a per-shard breakdown ([`ShardStats`]), enabling
//! occupancy-skew and hot-shard detection
//! ([`TableStats::occupancy_skew`], [`TableStats::hottest_shard`]).
//!
//! All snapshot types serialise via `jsonlite`, so stats embed directly
//! in benchmark JSON reports.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use jsonlite::impl_json_struct;
use mem_model::{InsertOutcome, InsertReport};

use crate::pad::CachePadded;

/// Number of log2 buckets in each histogram. Bucket 0 is the exact-zero
/// bucket; bucket 15 is open-ended, so values up to `2^14 - 1` land in
/// their precise power-of-two band.
pub const HIST_BUCKETS: usize = 16;

/// Index of the log2 bucket that `value` falls into.
#[inline]
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// A fixed-size log2-bucketed histogram with relaxed-atomic cells. The
/// sample count is not stored: it is the sum of the buckets.
#[derive(Debug, Default)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl AtomicHistogram {
    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Plain-data snapshot of the current cell values.
    pub fn snapshot(&self) -> Histogram {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        Histogram {
            count: buckets.iter().sum(),
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of an [`AtomicHistogram`]: per-bucket sample counts plus the
/// total sample count and value sum (for exact means).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[0]` counts exact zeroes; `buckets[i]` (i ≥ 1) counts
    /// samples in `[2^(i-1), 2^i)`; the last bucket is open-ended.
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
}

impl_json_struct!(Histogram {
    buckets,
    count,
    sum
});

impl Histogram {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Accumulate `other` into `self`, bucket by bucket.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Monotonic operation counters of one table (or one shard).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Fresh keys placed in the main table.
    pub inserts: u64,
    /// Upserts that updated an existing key in place.
    pub updates: u64,
    /// Inserts that failed outright (no stash, walk exhausted).
    pub failed_inserts: u64,
    /// Inserts that spilled to the stash.
    pub stash_spills: u64,
    /// Lookups that found the key.
    pub lookup_hits: u64,
    /// Lookups that missed.
    pub lookup_misses: u64,
    /// Removes that deleted a present key.
    pub removes: u64,
    /// Removes of absent keys.
    pub remove_misses: u64,
    /// Total items relocated by kick-out walks.
    pub kicks: u64,
}

impl_json_struct!(OpStats {
    inserts,
    updates,
    failed_inserts,
    stash_spills,
    lookup_hits,
    lookup_misses,
    removes,
    remove_misses,
    kicks
});

impl OpStats {
    /// Total operations observed (insert attempts + lookups + removes).
    pub fn total_ops(&self) -> u64 {
        self.inserts
            + self.updates
            + self.failed_inserts
            + self.lookup_hits
            + self.lookup_misses
            + self.removes
            + self.remove_misses
    }

    /// Insert attempts of any outcome (fresh, update, spill, or failure).
    pub fn insert_attempts(&self) -> u64 {
        self.inserts + self.updates + self.failed_inserts
    }

    /// Accumulate `other` into `self`.
    pub fn merge(&mut self, other: &OpStats) {
        self.inserts += other.inserts;
        self.updates += other.updates;
        self.failed_inserts += other.failed_inserts;
        self.stash_spills += other.stash_spills;
        self.lookup_hits += other.lookup_hits;
        self.lookup_misses += other.lookup_misses;
        self.removes += other.removes;
        self.remove_misses += other.remove_misses;
        self.kicks += other.kicks;
    }
}

/// Per-shard breakdown reported by the sharded serving layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Shard index (router order).
    pub shard: usize,
    /// Distinct keys currently stored in the shard.
    pub len: usize,
    /// Slot capacity of the shard.
    pub capacity: usize,
    /// The shard's own op counters.
    pub ops: OpStats,
}

impl_json_struct!(ShardStats {
    shard,
    len,
    capacity,
    ops
});

impl ShardStats {
    /// Fraction of the shard's slots in use.
    pub fn load(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.len as f64 / self.capacity as f64
        }
    }
}

/// Counters for incremental shard-split migration (zero for tables
/// that never split). Monotonic, like every other observability cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MigrationStats {
    /// Shard splits begun (including resumed ones).
    pub splits_started: u64,
    /// Splits whose drain finished with forwarding fully retired.
    pub splits_completed: u64,
    /// Keys relocated from a parent shard to its split sibling.
    pub keys_moved: u64,
    /// Migration-cursor visits that found the key already gone
    /// (removed, or moved by a forwarded client upsert).
    pub keys_skipped: u64,
    /// Keys the sibling could not absorb (left in the parent behind a
    /// permanent forwarding entry), each counted once per drain.
    pub move_failures: u64,
    /// Operations that consulted the forwarding map and touched the
    /// parent side of an in-flight split.
    pub forwarding_hits: u64,
    /// Wall-clock duration of each completed `begin_split` call, in
    /// microseconds (log2 buckets).
    pub split_hist: Histogram,
}

impl_json_struct!(MigrationStats {
    splits_started,
    splits_completed,
    keys_moved,
    keys_skipped,
    move_failures,
    forwarding_hits,
    split_hist
});

impl MigrationStats {
    /// Accumulate `other` into `self`.
    pub fn merge(&mut self, other: &MigrationStats) {
        self.splits_started += other.splits_started;
        self.splits_completed += other.splits_completed;
        self.keys_moved += other.keys_moved;
        self.keys_skipped += other.keys_skipped;
        self.move_failures += other.move_failures;
        self.forwarding_hits += other.forwarding_hits;
        self.split_hist.merge(&other.split_hist);
    }
}

/// Relaxed-atomic recorder behind [`MigrationStats`] — one per sharded
/// table, bumped by the split cursor and the forwarding-aware routing
/// paths.
#[derive(Debug, Default)]
pub(crate) struct MigrationObs {
    splits_started: AtomicU64,
    splits_completed: AtomicU64,
    keys_moved: AtomicU64,
    keys_skipped: AtomicU64,
    move_failures: AtomicU64,
    forwarding_hits: AtomicU64,
    split_hist: AtomicHistogram,
}

impl MigrationObs {
    pub(crate) fn record_split_started(&self) {
        self.splits_started.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a finished drain: whether forwarding was fully retired,
    /// plus the split's wall-clock duration in microseconds.
    pub(crate) fn record_split_finished(&self, completed: bool, duration_us: u64) {
        if completed {
            self.splits_completed.fetch_add(1, Ordering::Relaxed);
        }
        self.split_hist.record(duration_us);
    }

    pub(crate) fn record_moved(&self) {
        self.keys_moved.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_skipped(&self) {
        self.keys_skipped.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_move_failure(&self) {
        self.move_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_forwarding_hit(&self) {
        self.forwarding_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> MigrationStats {
        MigrationStats {
            splits_started: self.splits_started.load(Ordering::Relaxed),
            splits_completed: self.splits_completed.load(Ordering::Relaxed),
            keys_moved: self.keys_moved.load(Ordering::Relaxed),
            keys_skipped: self.keys_skipped.load(Ordering::Relaxed),
            move_failures: self.move_failures.load(Ordering::Relaxed),
            forwarding_hits: self.forwarding_hits.load(Ordering::Relaxed),
            split_hist: self.split_hist.snapshot(),
        }
    }
}

/// Counters for the cooperative maintenance loop ([`crate::maint`]):
/// forwarding retirement, automated log compaction, managed snapshots.
/// All-zero for tables nobody maintains. Counters are monotonic except
/// the two labelled gauges, which report the state at snapshot time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MaintStats {
    /// Retirement drains attempted (one per live forwarding pair per
    /// [`retire_forwarding`](crate::ShardedMcCuckoo::retire_forwarding)
    /// pass).
    pub retirements_attempted: u64,
    /// Retirement drains that fully emptied and cleared their
    /// forwarding entries.
    pub retirements_succeeded: u64,
    /// **Gauge**: directory entries currently carrying a forwarding tag
    /// (0 = every split fully retired; lookups everywhere one-sided).
    pub forwarding_live: u64,
    /// Automated log compactions run (capture-position-then-truncate).
    pub compactions: u64,
    /// Op-log records dropped by compaction.
    pub records_truncated: u64,
    /// Op-log bytes dropped by compaction.
    pub bytes_truncated: u64,
    /// Managed snapshots taken (cadence snapshots plus the capture each
    /// compaction takes).
    pub snapshots_taken: u64,
    /// **Gauge**: maintenance ticks since the last managed snapshot
    /// (equals the current tick count while none has been taken).
    pub last_snapshot_age: u64,
}

impl_json_struct!(MaintStats {
    retirements_attempted,
    retirements_succeeded,
    forwarding_live,
    compactions,
    records_truncated,
    bytes_truncated,
    snapshots_taken,
    last_snapshot_age
});

impl MaintStats {
    /// Accumulate `other` into `self` (gauges are summed too — merging
    /// tables sums their live forwarding entries and takes the larger
    /// snapshot age as the staler of the two loops).
    pub fn merge(&mut self, other: &MaintStats) {
        self.retirements_attempted += other.retirements_attempted;
        self.retirements_succeeded += other.retirements_succeeded;
        self.forwarding_live += other.forwarding_live;
        self.compactions += other.compactions;
        self.records_truncated += other.records_truncated;
        self.bytes_truncated += other.bytes_truncated;
        self.snapshots_taken += other.snapshots_taken;
        self.last_snapshot_age = self.last_snapshot_age.max(other.last_snapshot_age);
    }
}

/// Relaxed-atomic recorder behind [`MaintStats`] — one per sharded
/// table, bumped by retirement passes and the [`crate::maint`] driver.
/// The `forwarding_live` gauge is *not* stored here: the table computes
/// it from the directory at snapshot time.
#[derive(Debug, Default)]
pub(crate) struct MaintObs {
    retirements_attempted: AtomicU64,
    retirements_succeeded: AtomicU64,
    compactions: AtomicU64,
    records_truncated: AtomicU64,
    bytes_truncated: AtomicU64,
    snapshots_taken: AtomicU64,
    /// Maintenance ticks seen so far (the driver's clock).
    ticks: AtomicU64,
    /// Tick of the most recent managed snapshot.
    last_snapshot_tick: AtomicU64,
}

impl MaintObs {
    pub(crate) fn record_retirement_attempt(&self) {
        self.retirements_attempted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_retirement_success(&self) {
        self.retirements_succeeded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_compaction(&self, records: u64, bytes: u64) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.records_truncated.fetch_add(records, Ordering::Relaxed);
        self.bytes_truncated.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_snapshot(&self) {
        self.snapshots_taken.fetch_add(1, Ordering::Relaxed);
        self.last_snapshot_tick
            .store(self.ticks.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    pub(crate) fn record_tick(&self) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> MaintStats {
        let ticks = self.ticks.load(Ordering::Relaxed);
        MaintStats {
            retirements_attempted: self.retirements_attempted.load(Ordering::Relaxed),
            retirements_succeeded: self.retirements_succeeded.load(Ordering::Relaxed),
            forwarding_live: 0,
            compactions: self.compactions.load(Ordering::Relaxed),
            records_truncated: self.records_truncated.load(Ordering::Relaxed),
            bytes_truncated: self.bytes_truncated.load(Ordering::Relaxed),
            snapshots_taken: self.snapshots_taken.load(Ordering::Relaxed),
            last_snapshot_age: ticks
                .saturating_sub(self.last_snapshot_tick.load(Ordering::Relaxed)),
        }
    }
}

/// Plain-data statistics snapshot returned by
/// [`McTable::stats`](crate::McTable::stats).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStats {
    /// Monotonic op counters (aggregate across shards, if any).
    pub ops: OpStats,
    /// Buckets probed per lookup.
    pub probe_hist: Histogram,
    /// Kick-walk length per fresh-insert attempt (0 = clean placement).
    pub kick_hist: Histogram,
    /// Batch sizes seen by the batched entry points (empty for tables
    /// without batch APIs).
    pub batch_hist: Histogram,
    /// Per-shard breakdown; empty for unsharded tables.
    pub shards: Vec<ShardStats>,
    /// Configured kick-walk policy label (`"random-walk"`, `"bfs"`,
    /// `"bubble"`); empty for tables without a kick policy (baselines).
    /// One table runs exactly one policy, so `kick_hist` *is* the
    /// per-policy kick-walk-length histogram — this label names it.
    pub kick_policy: String,
    /// Shard-split migration counters; all-zero for tables that never
    /// split (every unsharded table).
    pub migration: MigrationStats,
    /// Maintenance-loop counters (retirements, compactions, snapshot
    /// cadence); all-zero for tables without a maintenance loop.
    pub maint: MaintStats,
}

impl_json_struct!(TableStats {
    ops,
    probe_hist,
    kick_hist,
    batch_hist,
    shards,
    kick_policy,
    migration,
    maint
});

impl TableStats {
    /// Accumulate `other`'s counters and histograms into `self` (shard
    /// breakdowns are concatenated; the policy label is adopted from
    /// `other` when `self` has none).
    pub fn merge(&mut self, other: &TableStats) {
        self.ops.merge(&other.ops);
        self.probe_hist.merge(&other.probe_hist);
        self.kick_hist.merge(&other.kick_hist);
        self.batch_hist.merge(&other.batch_hist);
        self.shards.extend(other.shards.iter().cloned());
        if self.kick_policy.is_empty() {
            self.kick_policy = other.kick_policy.clone();
        }
        self.migration.merge(&other.migration);
        self.maint.merge(&other.maint);
    }

    /// Occupancy skew across shards: max shard load divided by mean
    /// shard load (1.0 = perfectly even; 0.0 when unsharded or empty).
    pub fn occupancy_skew(&self) -> f64 {
        if self.shards.is_empty() {
            return 0.0;
        }
        let loads: Vec<f64> = self.shards.iter().map(ShardStats::load).collect();
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        loads.iter().cloned().fold(0.0f64, f64::max) / mean
    }

    /// Index of the shard with the most observed operations, if sharded.
    pub fn hottest_shard(&self) -> Option<usize> {
        self.shards
            .iter()
            .max_by_key(|s| s.ops.total_ops())
            .map(|s| s.shard)
    }
}

/// Most threads that record with plain stores at once; later threads
/// share a recorder's `fetch_add` cells until an id is released.
const STRIPES: usize = 16;

/// Stripe ids held by live threads, one bit each.
static CLAIMED: AtomicU64 = AtomicU64::new(0);

/// A thread's hold on one stripe id (`None`: every id was taken), given
/// back when the thread exits.
struct Claim(Option<usize>);

impl Claim {
    /// Take the lowest free id, if any, by CAS.
    fn take() -> Self {
        let free = |held: u64| (!held & ((1 << STRIPES) - 1)).trailing_zeros() as usize;
        let claim = CLAIMED.fetch_update(Ordering::Acquire, Ordering::Relaxed, |held| {
            (free(held) < STRIPES).then(|| held | 1 << free(held))
        });
        Claim(claim.ok().map(free))
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            CLAIMED.fetch_and(!(1 << id), Ordering::Release);
        }
    }
}

thread_local! {
    static CLAIM: Claim = Claim::take();
}

/// The calling thread's stripe id, claimed on its first call; `None`
/// when every id is taken or the thread's locals are being torn down.
/// A batch resolves it once and hands it to [`Obs::at`] for every
/// recorder it touches.
pub(crate) fn stripe() -> Option<usize> {
    CLAIM.try_with(|c| c.0).ok().flatten()
}

/// One set of recorder cells: the shared set, or one stripe's.
#[derive(Debug, Default)]
struct Cells {
    inserts: AtomicU64,
    updates: AtomicU64,
    failed_inserts: AtomicU64,
    stash_spills: AtomicU64,
    lookup_hits: AtomicU64,
    lookup_misses: AtomicU64,
    removes: AtomicU64,
    remove_misses: AtomicU64,
    kicks: AtomicU64,
    probe_hist: AtomicHistogram,
    kick_hist: AtomicHistogram,
    batch_hist: AtomicHistogram,
}

/// One thread's cells in one recorder: its stripe's, which only it
/// writes, bumped with a plain load and store; or the shared cells,
/// bumped with `fetch_add`.
#[derive(Clone, Copy)]
pub(crate) struct Recorder<'a> {
    cells: &'a Cells,
    owned: bool,
}

impl Recorder<'_> {
    #[inline]
    fn add(&self, cell: &AtomicU64, n: u64) {
        if self.owned {
            cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        } else {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    fn sample(&self, hist: &AtomicHistogram, value: u64) {
        self.add(&hist.buckets[bucket_of(value)], 1);
        if value > 0 {
            self.add(&hist.sum, value);
        }
    }

    /// Count one insert/upsert outcome. An in-place update is not a
    /// walk, so only fresh placement attempts reach the kick histogram.
    #[inline]
    pub(crate) fn insert(&self, report: &InsertReport) {
        let c = self.cells;
        match report.outcome {
            InsertOutcome::Placed => self.add(&c.inserts, 1),
            InsertOutcome::Updated => return self.add(&c.updates, 1),
            InsertOutcome::Stashed => {
                self.add(&c.inserts, 1);
                self.add(&c.stash_spills, 1);
            }
            InsertOutcome::Failed => self.add(&c.failed_inserts, 1),
        }
        let kicks = u64::from(report.kickouts);
        self.sample(&c.kick_hist, kicks);
        if kicks > 0 {
            self.add(&c.kicks, kicks);
        }
    }

    /// Count one lookup and how many buckets it probed.
    #[inline]
    pub(crate) fn lookup(&self, hit: bool, probes: u64) {
        let c = self.cells;
        let outcome = if hit {
            &c.lookup_hits
        } else {
            &c.lookup_misses
        };
        self.add(outcome, 1);
        self.sample(&c.probe_hist, probes);
    }

    /// Count one remove.
    #[inline]
    pub(crate) fn remove(&self, hit: bool) {
        let c = self.cells;
        let outcome = if hit { &c.removes } else { &c.remove_misses };
        self.add(outcome, 1);
    }

    /// Count one batched call of `len` items.
    #[inline]
    pub(crate) fn batch(&self, len: usize) {
        self.sample(&self.cells.batch_hist, len as u64);
    }
}

/// The in-table recorder: one cell per counter per stripe, all relaxed
/// atomics.
///
/// Embed one per table; bump from the outermost public operations only
/// (internal re-insert paths — stash refresh, rehash, snapshot restore —
/// must go through unrecorded inner variants so one logical op is never
/// counted twice).
///
/// The cells are striped by thread (see the module docs): each stripe,
/// and the shared set, is padded to its own cacheline pairs, so threads
/// recording into one table never bounce each other's lines (and in the
/// sharded table, neighbouring shards' recorders do not share lines
/// either). A stripe is allocated on its owner's first record into this
/// recorder, so a table one thread uses pays for one stripe.
#[derive(Debug, Default)]
pub struct Obs {
    shared: CachePadded<Cells>,
    stripes: [OnceLock<Box<CachePadded<Cells>>>; STRIPES],
}

impl Obs {
    /// The cells `stripe`'s owner records into.
    #[inline]
    pub(crate) fn at(&self, stripe: Option<usize>) -> Recorder<'_> {
        match stripe {
            Some(id) => Recorder {
                cells: self.stripes[id].get_or_init(Box::default),
                owned: true,
            },
            None => Recorder {
                cells: &self.shared,
                owned: false,
            },
        }
    }

    /// The calling thread's cells.
    #[inline]
    pub(crate) fn local(&self) -> Recorder<'_> {
        self.at(stripe())
    }

    /// Record the outcome of one public insert/upsert call.
    pub fn record_insert(&self, report: &InsertReport) {
        self.local().insert(report);
    }

    /// Record one public lookup and how many buckets it probed.
    pub fn record_lookup(&self, hit: bool, probes: u64) {
        self.local().lookup(hit, probes);
    }

    /// Record one public remove.
    pub fn record_remove(&self, hit: bool) {
        self.local().remove(hit);
    }

    /// Record the size of one batched call.
    pub fn record_batch(&self, len: usize) {
        self.local().batch(len);
    }

    /// The shared cells and every stripe made so far.
    fn all_cells(&self) -> impl Iterator<Item = &Cells> {
        let stripes = self.stripes.iter().filter_map(|s| s.get());
        std::iter::once(&*self.shared).chain(stripes.map(|c| &***c))
    }

    /// Lookups recorded and the buckets they probed (the probe
    /// histogram's count and sum), for the concurrent table's meter.
    pub(crate) fn lookup_reads(&self) -> (u64, u64) {
        let h = self.snapshot().probe_hist;
        (h.count, h.sum)
    }

    /// Plain-data snapshot of every counter and histogram, summed over
    /// the shared cells and every stripe.
    pub fn snapshot(&self) -> TableStats {
        let mut s = TableStats::default();
        let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        for c in self.all_cells() {
            s.ops.merge(&OpStats {
                inserts: load(&c.inserts),
                updates: load(&c.updates),
                failed_inserts: load(&c.failed_inserts),
                stash_spills: load(&c.stash_spills),
                lookup_hits: load(&c.lookup_hits),
                lookup_misses: load(&c.lookup_misses),
                removes: load(&c.removes),
                remove_misses: load(&c.remove_misses),
                kicks: load(&c.kicks),
            });
            s.probe_hist.merge(&c.probe_hist.snapshot());
            s.kick_hist.merge(&c.kick_hist.snapshot());
            s.batch_hist.merge(&c.batch_hist.snapshot());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(1 << 14), 15);
        assert_eq!(bucket_of(u64::MAX), 15);
    }

    #[test]
    fn histogram_records_and_means() {
        let h = AtomicHistogram::default();
        h.record(0);
        h.record(1);
        h.record(5);
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 6);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[3], 1);
        assert!((snap.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn insert_report_routing() {
        let obs = Obs::default();
        obs.record_insert(&InsertReport::clean(3));
        obs.record_insert(&InsertReport {
            outcome: InsertOutcome::Updated,
            kickouts: 0,
            collision: false,
            copies_written: 1,
        });
        obs.record_insert(&InsertReport {
            outcome: InsertOutcome::Stashed,
            kickouts: 50,
            collision: true,
            copies_written: 0,
        });
        obs.record_insert(&InsertReport {
            outcome: InsertOutcome::Failed,
            kickouts: 50,
            collision: true,
            copies_written: 0,
        });
        let s = obs.snapshot();
        assert_eq!(s.ops.inserts, 2); // clean + stashed
        assert_eq!(s.ops.updates, 1);
        assert_eq!(s.ops.failed_inserts, 1);
        assert_eq!(s.ops.stash_spills, 1);
        assert_eq!(s.ops.kicks, 100);
        // Updated is excluded from the walk histogram.
        assert_eq!(s.kick_hist.count, 3);
    }

    #[test]
    fn merge_and_skew() {
        let mut a = TableStats::default();
        a.shards.push(ShardStats {
            shard: 0,
            len: 10,
            capacity: 100,
            ops: OpStats {
                lookup_hits: 5,
                ..OpStats::default()
            },
        });
        let mut b = TableStats::default();
        b.shards.push(ShardStats {
            shard: 1,
            len: 30,
            capacity: 100,
            ops: OpStats {
                lookup_hits: 50,
                ..OpStats::default()
            },
        });
        a.merge(&b);
        assert_eq!(a.shards.len(), 2);
        // mean load = 0.2, max = 0.3 → skew 1.5
        assert!((a.occupancy_skew() - 1.5).abs() < 1e-12);
        assert_eq!(a.hottest_shard(), Some(1));
    }

    #[test]
    fn json_roundtrip() {
        let obs = Obs::default();
        obs.record_insert(&InsertReport::clean(1));
        obs.record_lookup(true, 2);
        obs.record_batch(128);
        let mut snap = obs.snapshot();
        snap.shards.push(ShardStats {
            shard: 0,
            len: 1,
            capacity: 3,
            ops: snap.ops,
        });
        snap.kick_policy = "bfs".to_string();
        let s = jsonlite::to_string(&snap);
        let back: TableStats = jsonlite::from_str(&s).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn merge_adopts_policy_label_when_absent() {
        let mut a = TableStats::default();
        let b = TableStats {
            kick_policy: "bubble".to_string(),
            ..TableStats::default()
        };
        a.merge(&b);
        assert_eq!(a.kick_policy, "bubble");
        // An already-set label is kept.
        let c = TableStats {
            kick_policy: "bfs".to_string(),
            ..TableStats::default()
        };
        a.merge(&c);
        assert_eq!(a.kick_policy, "bubble");
    }
}

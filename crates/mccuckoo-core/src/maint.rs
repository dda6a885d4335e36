//! Cooperative background maintenance for [`ShardedMcCuckoo`]:
//! forwarding retirement, automated op-log compaction, and managed
//! snapshots.
//!
//! PR 9's growth layer left three runbook items that this module turns
//! into a loop:
//!
//! * **Forwarding retirement.** A split whose child placements overflow
//!   (or whose migrator crashes) leaves forwarding entries up, and every
//!   lookup on those routes pays a two-sided probe. Forwarding entries
//!   are fallback structures, like the paper's stash: they only
//!   preserve the O(1) lookup story if something actively bounds and
//!   retires them. [`Maintainer::tick`] re-runs
//!   [`ShardedMcCuckoo::retire_forwarding`] on a bounded backoff
//!   schedule until the directory carries no forwarding tags, turning a
//!   permanent degradation into a transient one. A crash mid-retirement
//!   leaves the table exactly as consistent and resumable as a crashed
//!   migrator.
//!
//! * **Automated log compaction.** [`Compactor`] wires
//!   [`ShardedMcCuckoo::snapshot_live`] and
//!   [`LogSink::truncate_front`] into the documented
//!   capture-position-then-truncate protocol, under the split lock so
//!   no `Split` record can straddle the boundary: capture the retained
//!   record count, snapshot (format 3 snapshots carry the split
//!   history, so the truncated `Split` records are not needed), then
//!   truncate everything before the capture. [`Maintainer::tick`] runs
//!   it whenever the retained record count crosses
//!   [`MaintConfig::compact_watermark`]. Recovery from the compaction
//!   snapshot plus the retained tail reproduces the live table exactly.
//!
//! * **Managed snapshots.** [`MaintConfig::snapshot_every`] takes a
//!   cadence snapshot every N ticks (compaction captures count too);
//!   the newest [`MaintConfig::retain`] are kept in a ring, each
//!   stamped with its absolute log position so the replay tail is
//!   well-defined.
//!
//! The loop is **cooperative**: the host calls [`Maintainer::tick`]
//! whenever it likes (an event loop turn, a timer, a request-count
//! threshold), or hands the maintainer to [`Maintainer::spawn`] for a
//! managed thread. Everything the loop does is observable through the
//! [`MaintStats`](crate::obs::MaintStats) block of
//! [`TableStats`](crate::TableStats).
//!
//! ```
//! use mccuckoo_core::maint::{MaintConfig, Maintainer};
//! use mccuckoo_core::oplog::{LogSink, OpLog, OpRecord, VecSink};
//! use mccuckoo_core::{McConfig, ShardedMcCuckoo};
//! use std::sync::Arc;
//!
//! let table = Arc::new(ShardedMcCuckoo::<u64, u64>::new(2, McConfig::paper(256, 9)));
//! let sink = VecSink::new();
//! let log = OpLog::new(sink.clone());
//! for k in 0..100u64 {
//!     table.insert(k, k).unwrap();
//!     log.record(&OpRecord::Insert { key: k, value: k });
//! }
//!
//! let mut maint = Maintainer::new(
//!     table.clone(),
//!     sink.clone(),
//!     MaintConfig {
//!         compact_watermark: 50,
//!         ..MaintConfig::default()
//!     },
//! );
//! let report = maint.tick();
//! assert!(report.compaction.is_some());
//! assert!(sink.record_count() < 50);
//! assert_eq!(table.stats().maint.compactions, 1);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hash_kit::KeyHash;

use crate::oplog::LogSink;
use crate::shard::{RetireReport, ShardedMcCuckoo, ShardedSnapshot};
use crate::store::Word;

/// Policy for the maintenance loop. All units are **ticks** — the loop
/// has no clock of its own; the host decides what a tick means by how
/// often it calls [`Maintainer::tick`] (or via the interval it hands to
/// [`Maintainer::spawn`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintConfig {
    /// Take a managed cadence snapshot every this-many ticks (0 =
    /// cadence snapshots off; compaction captures are still managed).
    pub snapshot_every: u64,
    /// How many managed snapshots to keep (oldest dropped first;
    /// treated as at least 1 so a compaction capture is never lost).
    pub retain: usize,
    /// Run a compaction when the sink retains at least this many
    /// records (0 = automated compaction off).
    pub compact_watermark: usize,
    /// Ticks to wait between retirement attempts while forwarding stays
    /// up: the first failure waits `retire_backoff[0]` ticks, the next
    /// `retire_backoff[1]`, …, staying at the last entry once the
    /// schedule is exhausted (an empty schedule retries every tick).
    /// The backoff resets as soon as the directory is clean.
    pub retire_backoff: Vec<u64>,
}

impl Default for MaintConfig {
    fn default() -> Self {
        Self {
            snapshot_every: 0,
            retain: 2,
            compact_watermark: 4096,
            retire_backoff: vec![1, 2, 4, 8, 16],
        }
    }
}

/// What one [`Compactor::compact`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Absolute log position of the capture: the snapshot reflects
    /// every record before this position; the retained tail starts
    /// here.
    pub log_pos: u64,
    /// Records truncated (everything before `log_pos`).
    pub records_dropped: usize,
    /// Serialised bytes those records occupied.
    pub bytes_dropped: u64,
}

/// One managed snapshot, stamped with when and where it was captured.
#[derive(Debug, Clone)]
pub struct ManagedSnapshot<K, V> {
    /// The maintenance tick that took it.
    pub at_tick: u64,
    /// Absolute log position of the capture; replay the records from
    /// this position onward to roll the snapshot forward.
    pub log_pos: u64,
    /// The capture itself.
    pub snapshot: ShardedSnapshot<K, V>,
}

impl<K, V> ManagedSnapshot<K, V> {
    /// Offset of this snapshot's replay tail inside the sink's retained
    /// records, given the sink's current
    /// [`first_record_index`](LogSink::first_record_index). `None` when
    /// a later compaction has truncated past the capture — the snapshot
    /// still restores, but only to its capture point.
    pub fn tail_offset(&self, first_record_index: u64) -> Option<usize> {
        self.log_pos
            .checked_sub(first_record_index)
            .map(|d| d as usize)
    }
}

/// The capture-position-then-truncate protocol as a value: snapshot the
/// table, then drop every log record the snapshot already covers.
///
/// The whole capture runs under the table's split lock, so a `Split`
/// record can never straddle the boundary (inserts and removes may —
/// they are idempotent on replay, so recovery converges regardless).
/// The truncation happens strictly *after* the snapshot exists; a crash
/// between the two (the `testhooks` feature's
/// `arm_panic_in_compaction` injects exactly that death) loses nothing
/// — the log is still intact and the previous baseline still replays.
pub struct Compactor<K, V, S: LogSink> {
    table: Arc<ShardedMcCuckoo<K, V>>,
    sink: S,
}

impl<K, V, S> Compactor<K, V, S>
where
    K: KeyHash + Eq + Word,
    V: Word,
    S: LogSink,
{
    /// Wire a table to its log sink.
    pub fn new(table: Arc<ShardedMcCuckoo<K, V>>, sink: S) -> Self {
        Self { table, sink }
    }

    /// The sink, for position queries.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Whether the sink's retained record count has reached `watermark`
    /// (0 = never).
    pub fn should_compact(&self, watermark: usize) -> bool {
        watermark > 0 && self.sink.record_count() >= watermark
    }

    /// Run one compaction: capture the retained record count and a live
    /// snapshot under the split lock, then truncate everything before
    /// the capture. Returns the snapshot (the caller owns durability)
    /// and the boundary report. Safe under concurrent writers: a record
    /// appended before the capture position is covered by the snapshot
    /// (its table effect happened-before the position read); records at
    /// or after it are retained and replay idempotently.
    pub fn compact(&self) -> (ShardedSnapshot<K, V>, CompactReport) {
        let _split = self.table.split_guard();
        let records = self.sink.record_count();
        let log_pos = self.sink.first_record_index() + records as u64;
        let snapshot = self.table.snapshot_live();
        #[cfg(feature = "testhooks")]
        crate::testhooks::fire_panic_in_compaction();
        let bytes = self.sink.truncate_front(records);
        self.table
            .maint_obs()
            .record_compaction(records as u64, bytes);
        (
            snapshot,
            CompactReport {
                log_pos,
                records_dropped: records,
                bytes_dropped: bytes,
            },
        )
    }
}

/// What one [`Maintainer::tick`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickReport {
    /// The tick number (1-based).
    pub tick: u64,
    /// The retirement pass this tick ran, if one was due.
    pub retire: Option<RetireReport>,
    /// The compaction this tick ran, if the watermark tripped.
    pub compaction: Option<CompactReport>,
    /// Whether a managed snapshot was taken (compaction capture or
    /// cadence snapshot).
    pub snapshot_taken: bool,
}

/// The cooperative maintenance driver: owns the policy, the retirement
/// backoff state, and the managed-snapshot ring. Drive it by calling
/// [`Self::tick`] from the host, or hand it to [`Self::spawn`] for a
/// managed thread.
pub struct Maintainer<K, V, S: LogSink> {
    compactor: Compactor<K, V, S>,
    table: Arc<ShardedMcCuckoo<K, V>>,
    config: MaintConfig,
    tick: u64,
    /// Index into `config.retire_backoff` for the *next* failed attempt.
    backoff_idx: usize,
    /// Earliest tick the next retirement attempt may run.
    next_retire_tick: u64,
    snapshots: VecDeque<ManagedSnapshot<K, V>>,
}

impl<K, V, S> Maintainer<K, V, S>
where
    K: KeyHash + Eq + Word,
    V: Word,
    S: LogSink,
{
    /// Wire a table, its log sink, and a policy into a driver.
    pub fn new(table: Arc<ShardedMcCuckoo<K, V>>, sink: S, config: MaintConfig) -> Self {
        Self {
            compactor: Compactor::new(table.clone(), sink),
            table,
            config,
            tick: 0,
            backoff_idx: 0,
            next_retire_tick: 0,
            snapshots: VecDeque::new(),
        }
    }

    /// The policy in force.
    pub fn config(&self) -> &MaintConfig {
        &self.config
    }

    /// The managed-snapshot ring, oldest first.
    pub fn snapshots(&self) -> impl Iterator<Item = &ManagedSnapshot<K, V>> {
        self.snapshots.iter()
    }

    /// The most recent managed snapshot.
    pub fn latest_snapshot(&self) -> Option<&ManagedSnapshot<K, V>> {
        self.snapshots.back()
    }

    /// One maintenance turn: retire forwarding if due, compact if the
    /// watermark tripped, take a cadence snapshot if one is due. Each
    /// leg is independent; an idle tick does nothing but advance the
    /// loop's clock.
    pub fn tick(&mut self) -> TickReport {
        self.tick += 1;
        self.table.maint_obs().record_tick();
        let mut report = TickReport {
            tick: self.tick,
            retire: None,
            compaction: None,
            snapshot_taken: false,
        };
        if self.table.forwarding_live() > 0 {
            if self.tick >= self.next_retire_tick {
                let r = self.table.retire_forwarding();
                if r.forwarding_live == 0 {
                    self.backoff_idx = 0;
                    self.next_retire_tick = 0;
                } else {
                    // Still degraded: back off along the schedule,
                    // staying at its last entry once exhausted.
                    let delay = self
                        .config
                        .retire_backoff
                        .get(self.backoff_idx)
                        .copied()
                        .unwrap_or(1);
                    if self.backoff_idx + 1 < self.config.retire_backoff.len() {
                        self.backoff_idx += 1;
                    }
                    self.next_retire_tick = self.tick + delay;
                }
                report.retire = Some(r);
            }
        } else {
            self.backoff_idx = 0;
            self.next_retire_tick = 0;
        }
        if self.compactor.should_compact(self.config.compact_watermark) {
            let (snapshot, cr) = self.compactor.compact();
            self.push_snapshot(snapshot, cr.log_pos);
            report.compaction = Some(cr);
            report.snapshot_taken = true;
        } else if self.config.snapshot_every > 0 && self.tick % self.config.snapshot_every == 0 {
            // Cadence snapshot: same capture discipline as the
            // compactor (position + snapshot under the split lock),
            // without the truncation.
            let (snapshot, log_pos) = {
                let _split = self.table.split_guard();
                let pos = self.compactor.sink().first_record_index()
                    + self.compactor.sink().record_count() as u64;
                (self.table.snapshot_live(), pos)
            };
            self.push_snapshot(snapshot, log_pos);
            report.snapshot_taken = true;
        }
        report
    }

    fn push_snapshot(&mut self, snapshot: ShardedSnapshot<K, V>, log_pos: u64) {
        self.table.maint_obs().record_snapshot();
        self.snapshots.push_back(ManagedSnapshot {
            at_tick: self.tick,
            log_pos,
            snapshot,
        });
        let retain = self.config.retain.max(1);
        while self.snapshots.len() > retain {
            self.snapshots.pop_front();
        }
    }
}

/// Control handle for a [`Maintainer::spawn`]ed thread.
pub struct MaintHandle<K, V, S: LogSink> {
    stop: Arc<AtomicBool>,
    join: JoinHandle<Maintainer<K, V, S>>,
}

impl<K, V, S: LogSink> MaintHandle<K, V, S> {
    /// Signal the thread to stop, wait for its current tick to finish,
    /// and hand the maintainer (with its snapshot ring) back.
    ///
    /// # Panics
    /// Panics if the maintenance thread itself panicked.
    pub fn stop(self) -> Maintainer<K, V, S> {
        self.stop.store(true, Ordering::Release);
        self.join.thread().unpark();
        self.join.join().expect("maintenance thread panicked")
    }
}

impl<K, V, S> Maintainer<K, V, S>
where
    K: KeyHash + Eq + Word + Send + 'static,
    V: Word + Send + 'static,
    S: LogSink + Send + 'static,
{
    /// The optional managed thread: tick every `interval` until
    /// [`MaintHandle::stop`] is called. For hosts that would rather own
    /// the cadence, call [`Self::tick`] directly instead.
    pub fn spawn(self, interval: Duration) -> MaintHandle<K, V, S> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let join = std::thread::spawn(move || {
            let mut maint = self;
            while !flag.load(Ordering::Acquire) {
                maint.tick();
                std::thread::park_timeout(interval);
            }
            maint
        });
        MaintHandle { stop, join }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::McConfig;
    use crate::oplog::{parse_log, OpLog, OpRecord, VecSink};

    fn logged_table(
        shards: usize,
        seed: u64,
    ) -> (Arc<ShardedMcCuckoo<u64, u64>>, VecSink, OpLog<VecSink>) {
        let t = Arc::new(ShardedMcCuckoo::new(shards, McConfig::paper(256, seed)));
        let sink = VecSink::new();
        let log = OpLog::new(sink.clone());
        (t, sink, log)
    }

    fn insert_logged(
        t: &ShardedMcCuckoo<u64, u64>,
        log: &OpLog<VecSink>,
        keys: impl Iterator<Item = u64>,
    ) {
        for k in keys {
            let v = k.wrapping_mul(3);
            t.insert(k, v).unwrap();
            log.record(&OpRecord::Insert { key: k, value: v });
        }
    }

    /// Recover from a managed snapshot plus the sink's retained tail
    /// and assert logical identity with the live table.
    fn assert_recovers_identically(
        t: &ShardedMcCuckoo<u64, u64>,
        sink: &VecSink,
        ms: &ManagedSnapshot<u64, u64>,
    ) {
        let offset = ms
            .tail_offset(sink.first_record_index())
            .expect("tail truncated past the capture");
        let lines = sink.lines();
        let ops = parse_log::<u64, u64>(&lines[offset..]).unwrap();
        let r = ShardedMcCuckoo::recover(ms.snapshot.clone(), &ops).unwrap();
        assert_eq!(r.len(), t.len());
        assert_eq!(r.shard_count(), t.shard_count());
        let mut a = t.to_snapshot().items;
        let mut b = r.to_snapshot().items;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "recovered items diverge from the writer");
        for &(k, _) in &a {
            assert_eq!(r.shard_of(&k), t.shard_of(&k), "routing diverged at {k}");
        }
        r.check_invariants().unwrap();
    }

    #[test]
    fn watermark_compaction_truncates_and_recovers_identically() {
        let (t, sink, log) = logged_table(2, 60);
        insert_logged(&t, &log, 0..120);
        t.begin_split(0).unwrap();
        log.record(&OpRecord::<u64, u64>::Split { shard: 0 });
        let mut maint = Maintainer::new(
            t.clone(),
            sink.clone(),
            MaintConfig {
                compact_watermark: 100,
                ..MaintConfig::default()
            },
        );
        let report = maint.tick();
        let cr = report.compaction.expect("watermark must trip");
        assert_eq!(cr.records_dropped, 121);
        assert_eq!(cr.log_pos, 121);
        assert!(cr.bytes_dropped > 0);
        assert_eq!(sink.record_count(), 0);
        assert_eq!(sink.first_record_index(), 121);
        assert!(report.snapshot_taken);

        // The capture is self-contained: it carries the split history.
        let ms = maint.latest_snapshot().unwrap();
        assert_eq!(ms.log_pos, 121);
        assert_eq!(ms.snapshot.splits, vec![0]);

        // Write across the boundary, then prove recovery is identical.
        insert_logged(&t, &log, 200..260);
        for k in 0..20u64 {
            t.remove(&k);
            log.record(&OpRecord::<u64, u64>::Remove { key: k });
        }
        t.begin_split(1).unwrap();
        log.record(&OpRecord::<u64, u64>::Split { shard: 1 });
        let ms = maint.latest_snapshot().unwrap().clone();
        assert_recovers_identically(&t, &sink, &ms);

        // A second tick below the watermark does nothing.
        let idle = maint.tick();
        assert!(idle.compaction.is_none() && !idle.snapshot_taken);
        let s = t.stats();
        assert_eq!(s.maint.compactions, 1);
        assert_eq!(s.maint.records_truncated, 121);
        assert!(s.maint.bytes_truncated > 0);
        assert_eq!(s.maint.snapshots_taken, 1);
    }

    #[test]
    fn cadence_snapshots_respect_retention_and_age() {
        let (t, sink, log) = logged_table(2, 61);
        insert_logged(&t, &log, 0..50);
        let mut maint = Maintainer::new(
            t.clone(),
            sink.clone(),
            MaintConfig {
                snapshot_every: 2,
                retain: 2,
                compact_watermark: 0,
                ..MaintConfig::default()
            },
        );
        for _ in 0..10 {
            maint.tick();
        }
        // Ticks 2,4,6,8,10 snapshotted; only the newest two are kept.
        let ticks: Vec<u64> = maint.snapshots().map(|s| s.at_tick).collect();
        assert_eq!(ticks, vec![8, 10]);
        // No compaction ran, so every tail is still replayable.
        for ms in maint.snapshots() {
            assert_recovers_identically(&t, &sink, ms);
        }
        let s = t.stats();
        assert_eq!(s.maint.snapshots_taken, 5);
        assert_eq!(s.maint.compactions, 0);
        assert_eq!(s.maint.last_snapshot_age, 0);
        maint.tick();
        assert_eq!(t.stats().maint.last_snapshot_age, 1);
    }

    #[test]
    fn managed_thread_ticks_and_hands_the_maintainer_back() {
        let (t, sink, log) = logged_table(2, 62);
        insert_logged(&t, &log, 0..80);
        let maint = Maintainer::new(
            t.clone(),
            sink.clone(),
            MaintConfig {
                compact_watermark: 10,
                ..MaintConfig::default()
            },
        );
        let handle = maint.spawn(Duration::from_millis(1));
        // Wait for the thread's loop to trip the watermark.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while t.stats().maint.compactions == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "managed thread never compacted"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let maint = handle.stop();
        assert!(maint.latest_snapshot().is_some());
        assert!(sink.record_count() < 10);
        let ms = maint.latest_snapshot().unwrap().clone();
        assert_recovers_identically(&t, &sink, &ms);
    }

    #[cfg(feature = "testhooks")]
    #[test]
    fn maintenance_loop_retires_a_failed_split_with_backoff() {
        let (t, sink, log) = logged_table(2, 63);
        insert_logged(&t, &log, 0..300);
        // Degrade a split: every child placement fails, forwarding
        // stays up for the whole slice.
        crate::testhooks::arm_fail_child_placement(u32::MAX);
        let degraded = t.begin_split(0).unwrap();
        log.record(&OpRecord::<u64, u64>::Split { shard: 0 });
        assert!(degraded.failed > 0 && !degraded.forwarding_cleared);
        assert!(t.forwarding_live() > 0);

        let mut maint = Maintainer::new(
            t.clone(),
            sink.clone(),
            MaintConfig {
                retire_backoff: vec![2, 4],
                compact_watermark: 0,
                ..MaintConfig::default()
            },
        );
        // Keep failing placements: tick 1 attempts and fails, then the
        // schedule spaces attempts at ticks 3 and 7.
        let mut attempts = Vec::new();
        for _ in 0..7 {
            let r = maint.tick();
            if r.retire.is_some() {
                attempts.push(r.tick);
            }
        }
        assert_eq!(attempts, vec![1, 3, 7]);
        assert!(t.forwarding_live() > 0);

        // Let placements succeed: the next due attempt retires fully.
        crate::testhooks::disarm();
        let mut retired = None;
        for _ in 0..5 {
            let r = maint.tick();
            if let Some(rr) = r.retire {
                retired = Some(rr);
                break;
            }
        }
        let rr = retired.expect("a retirement attempt must come due");
        assert_eq!(rr.forwarding_live, 0);
        assert!(rr.moved > 0);
        assert_eq!(t.forwarding_live(), 0);
        for k in 0..300u64 {
            assert_eq!(t.get(&k), Some(k.wrapping_mul(3)));
        }
        t.check_invariants().unwrap();
        let s = t.stats();
        assert_eq!(s.maint.retirements_attempted, 4);
        assert_eq!(s.maint.retirements_succeeded, 1);
        assert_eq!(s.maint.forwarding_live, 0);
        // And the post-retirement table still recovers identically
        // across a compaction boundary (retirement needs no log record
        // — it only changes physical placement, never logical state).
        let compactor = Compactor::new(t.clone(), sink.clone());
        let (snapshot, cr) = compactor.compact();
        let ms = ManagedSnapshot {
            at_tick: 0,
            log_pos: cr.log_pos,
            snapshot,
        };
        assert_recovers_identically(&t, &sink, &ms);
    }
}

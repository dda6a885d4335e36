//! Deterministic fault injection for the differential testkit.
//!
//! Only compiled under the `testhooks` feature. The hooks let a test
//! deliberately corrupt the multi-copy bookkeeping — e.g. skip the
//! counter reset of a deleted copy — to prove that the invariant
//! validators and the fuzzing harness actually catch and shrink real
//! violations. Production builds never enable this feature; when they
//! accidentally do, every hook is inert until armed.
//!
//! Hooks are thread-local so parallel tests cannot interfere.

use std::cell::Cell;
use std::thread::LocalKey;

thread_local! {
    /// How many upcoming deletions should skip the counter reset of
    /// their first copy location. `u32::MAX` means "every deletion".
    static SKIP_COUNTER_RESETS: Cell<u32> = const { Cell::new(0) };

    /// How many upcoming kick-walk executions should panic after the
    /// path is planned under the writer lock, but before any bucket
    /// is mutated. `u32::MAX` means "every kick walk".
    static PANIC_IN_KICK: Cell<u32> = const { Cell::new(0) };

    /// Countdown to a migration-cursor crash: the N-th key visit of a
    /// `begin_split` drain panics before that key is touched. 0 = inert.
    static PANIC_IN_MIGRATION: Cell<u32> = const { Cell::new(0) };

    /// How many upcoming child placements of a split drain should be
    /// forced to fail (reported as `MigrateOutcome::Failed`, the key
    /// staying in the parent behind forwarding). `u32::MAX` = all.
    static FAIL_CHILD_PLACEMENT: Cell<u32> = const { Cell::new(0) };

    /// Countdown to a compactor crash: the N-th compaction on this
    /// thread panics after its snapshot capture but before the log is
    /// truncated. 0 = inert.
    static PANIC_IN_COMPACTION: Cell<u32> = const { Cell::new(0) };

    /// The closures `at_point` scheduled, one per [`Point`].
    static AT_POINT: [Scheduled; 2] = const { [Cell::new(None), Cell::new(None)] };
}

/// A closure a test scheduled at a [`Point`], if any.
type Scheduled = Cell<Option<Box<dyn FnOnce()>>>;

/// A named point in the sharded table's write paths where a scheduled
/// test runs a closure (`at_point`): a race, replayed in one thread or
/// held open while a second thread runs.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Point {
    /// `write_routed`, right after its directory snapshot (every routed
    /// write passes it).
    RouteSnapshot,
    /// `insert_batch`'s stage 2, right after the pre-write `settled` check.
    BatchSettled,
}

/// This thread reached `point`: run the closure scheduled there, if any.
pub(crate) fn reach(point: Point) {
    if let Some(f) = AT_POINT.with(|a| a[point as usize].take()) {
        f();
    }
}

/// Arm the fault: the next `n` calls to `McCuckoo::remove` that find the
/// key will *not* reset the counter of the first copy location, leaving
/// a counter claiming a live copy in a vacated bucket. Pass `u32::MAX`
/// to keep the fault active for the rest of the thread (until
/// [`disarm`]).
pub fn arm_skip_counter_reset(n: u32) {
    SKIP_COUNTER_RESETS.with(|c| c.set(n));
}

/// Arm the fault: the next `n` kick-walk executions on this thread
/// panic mid-collision-resolution. In `ConcurrentMcCuckoo`'s insert
/// paths the panic fires while the writer lock is held, before any
/// bucket mutation — proving a dying writer releases the lock (RAII
/// guard) and leaves the table intact. In
/// the sequential engine it fires at the top of each random-walk hop,
/// and for the plan-first policies (BFS / bubbling) after the plan
/// succeeds but before the first mutation — proving a planned insert
/// that dies there is a strict physical no-op. Pass `u32::MAX` to keep
/// the fault active for the rest of the thread (until [`disarm`]).
pub fn arm_panic_in_kick(n: u32) {
    PANIC_IN_KICK.with(|c| c.set(n));
}

/// Arm the fault: the `n`-th upcoming key visit of a shard-split drain
/// (`ShardedMcCuckoo::begin_split`) on this thread panics before the
/// key is migrated — the migrator dies mid-split with the forwarding
/// map still active, proving readers and writers stay consistent and a
/// later `begin_split` resumes and finishes the drain. `n` counts down:
/// `1` crashes on the very next visited key.
pub fn arm_panic_in_migration(n: u32) {
    PANIC_IN_MIGRATION.with(|c| c.set(n));
}

/// Arm the fault: the next `n` child placements attempted by a split
/// drain (or a retirement pass) on this thread are forced to fail, as
/// if the child table overflowed — the key stays in the parent and the
/// split finishes degraded, with its forwarding entries live. This is
/// how tests manufacture the "permanent forwarding" state the
/// maintenance loop exists to retire. Pass `u32::MAX` to fail every
/// placement (until [`disarm`]).
pub fn arm_fail_child_placement(n: u32) {
    FAIL_CHILD_PLACEMENT.with(|c| c.set(n));
}

/// Arm the fault: the `n`-th upcoming compaction on this thread panics
/// after capturing its snapshot but *before* truncating the log — the
/// compactor dies at the worst point of the capture-then-truncate
/// protocol, proving a crashed compaction loses nothing (the log is
/// still intact and the previous baseline still replays). `n` counts
/// down: `1` crashes the very next compaction.
pub fn arm_panic_in_compaction(n: u32) {
    PANIC_IN_COMPACTION.with(|c| c.set(n));
}

/// Disarm all hooks on this thread.
pub fn disarm() {
    SKIP_COUNTER_RESETS.with(|c| c.set(0));
    PANIC_IN_KICK.with(|c| c.set(0));
    PANIC_IN_MIGRATION.with(|c| c.set(0));
    FAIL_CHILD_PLACEMENT.with(|c| c.set(0));
    PANIC_IN_COMPACTION.with(|c| c.set(0));
    AT_POINT.with(|a| a.iter().for_each(|c| drop(c.take())));
}

/// One use of a per-use hook (skip, kick panic, child failure): `true`
/// while armed; `u32::MAX` never runs out.
fn take(hook: &'static LocalKey<Cell<u32>>) -> bool {
    hook.with(|c| {
        let n = c.get();
        if n != 0 && n != u32::MAX {
            c.set(n - 1);
        }
        n != 0
    })
}

/// One visit of a countdown hook (migration, compaction): `true` on the
/// visit that reaches zero.
fn countdown(hook: &'static LocalKey<Cell<u32>>) -> bool {
    hook.with(|c| {
        let n = c.get();
        c.set(n.saturating_sub(1));
        n == 1
    })
}

/// Consumed by the deletion path: returns `true` if this deletion should
/// skip its first counter reset.
pub(crate) fn take_skip_counter_reset() -> bool {
    take(&SKIP_COUNTER_RESETS)
}

/// Consumed by the kick-walk paths (concurrent and sequential): panics
/// mid-operation if the hook is armed (the injected writer death).
pub(crate) fn fire_panic_in_kick() {
    if take(&PANIC_IN_KICK) {
        panic!("testhooks: injected panic mid-kick-walk");
    }
}

/// Consumed by the split drain's child-placement closure: returns
/// `true` if this placement should be reported as failed.
pub(crate) fn take_fail_child_placement() -> bool {
    take(&FAIL_CHILD_PLACEMENT)
}

/// Consumed by the compactor between snapshot capture and truncation:
/// panics when the armed countdown reaches zero (the injected compactor
/// death).
pub(crate) fn fire_panic_in_compaction() {
    if countdown(&PANIC_IN_COMPACTION) {
        panic!("testhooks: injected panic mid-compaction");
    }
}

/// Consumed once per key visit by the split drain: panics when the
/// armed countdown reaches zero (the injected migrator death).
pub(crate) fn fire_panic_in_migration() {
    if countdown(&PANIC_IN_MIGRATION) {
        panic!("testhooks: injected panic mid-migration");
    }
}

/// Run `f` once, the next time this thread reaches `point` (a test's
/// schedule).
#[cfg(test)]
pub(crate) fn at_point(point: Point, f: impl FnOnce() + 'static) {
    AT_POINT.with(|a| a[point as usize].set(Some(Box::new(f))));
}

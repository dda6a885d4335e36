//! Trait-conformance suite: every table in the workspace — the two
//! McCuckoo engine layouts (in both deletion modes), the lock-free
//! concurrent table, the sharded serving layer, and both baselines —
//! must honour the shared [`McTable`] contract. One generic driver
//! exercises insert / upsert / lookup / remove / clear / load semantics;
//! each table type gets its own `#[test]` so a failure names the
//! offender.
//!
//! There is no tolerated behavioural split any more: upsert of a present
//! key reports `Updated` and rewrites the value **in place** on every
//! implementor (the baselines used to emulate upsert as destructive
//! remove-then-insert; the concurrent table used to report `Placed`),
//! and a `Failed` insert leaves the table untouched. The storm drivers
//! at the bottom pin both properties down under near-full load.

use mccuckoo_suite::cuckoo_baselines::{Bcht, BchtConfig, CuckooConfig, DaryCuckoo};
use mccuckoo_suite::mccuckoo_core::{
    BlockedConfig, BlockedMcCuckoo, ConcurrentMcCuckoo, DeletionMode, KickPolicyKind, McConfig,
    McCuckoo, McTable, ShardedMcCuckoo, StashPolicy,
};
use mem_model::InsertOutcome;

const N: u64 = 200;

/// Drive the full `McTable` contract against `t`.
fn conformance<T: McTable<u64, u64>>(mut t: T) {
    // Fresh table.
    assert!(t.is_empty());
    assert_eq!(t.len(), 0);
    assert_eq!(t.lookup(&1), None);
    assert!(!t.contains(&1));
    assert_eq!(t.remove(&1), None);

    // Fill with distinct keys; every insert at this light load must land.
    for k in 0..N {
        let r = t.insert_new(k, k * 3);
        assert!(r.stored(), "insert_new({k}) failed: {:?}", r.outcome);
    }
    assert_eq!(t.len(), N as usize);
    assert!(!t.is_empty());
    assert!(t.load() > 0.0 && t.load() <= 1.0);
    for k in 0..N {
        assert_eq!(t.lookup(&k), Some(k * 3), "lookup({k}) after fill");
        assert!(t.contains(&k));
    }
    assert_eq!(t.lookup(&(N + 1)), None);

    // Upsert: value replaced, length unchanged, reported as an update.
    let r = t.insert(7, 777);
    assert_eq!(r.outcome, InsertOutcome::Updated, "upsert report");
    assert_eq!(t.lookup(&7), Some(777));
    assert_eq!(t.len(), N as usize);

    // Remove the even keys; odd keys must survive.
    for k in (0..N).step_by(2) {
        let expect = if k == 7 { 777 } else { k * 3 };
        assert_eq!(t.remove(&k), Some(expect), "remove({k})");
    }
    assert_eq!(t.len(), (N / 2) as usize);
    for k in 0..N {
        if k % 2 == 0 {
            assert_eq!(t.lookup(&k), None, "lookup({k}) after remove");
        } else {
            let expect = if k == 7 { 777 } else { k * 3 };
            assert_eq!(t.lookup(&k), Some(expect), "odd key {k} must survive");
        }
    }

    // Double-remove misses.
    assert_eq!(t.remove(&0), None);

    // Stash accessors are callable on every implementor (baselines
    // default to empty) and refresh never invents occupancy.
    let _ = t.stash_len();
    let drained = t.refresh_stash();
    assert!(drained <= N as usize);

    // Clear, then the table must be reusable from scratch. Clearing is
    // maintenance, not traffic: it meters nothing.
    let before_clear = t.mem_stats();
    t.clear();
    assert_eq!(t.mem_stats(), before_clear, "clear() metered accesses");
    assert!(t.is_empty());
    assert_eq!(t.len(), 0);
    assert_eq!(t.stash_len(), 0);
    for k in 0..N {
        assert_eq!(t.lookup(&k), None, "lookup({k}) after clear");
    }
    for k in 0..N {
        assert!(t.insert_new(k, k + 1).stored(), "reinsert({k}) after clear");
    }
    assert_eq!(t.len(), N as usize);
    assert_eq!(t.lookup(&42), Some(43));
}

#[test]
fn mccuckoo_reset_conforms() {
    conformance(McCuckoo::<u64, u64>::new(McConfig::paper_with_deletion(
        1024, 11,
    )));
}

#[test]
fn mccuckoo_tombstone_conforms() {
    conformance(McCuckoo::<u64, u64>::new(
        McConfig::paper(1024, 12).with_deletion(DeletionMode::Tombstone),
    ));
}

#[test]
fn blocked_two_slot_conforms() {
    conformance(BlockedMcCuckoo::<u64, u64>::new(BlockedConfig {
        base: McConfig::paper_with_deletion(512, 13),
        slots: 2,
    }));
}

#[test]
fn blocked_three_slot_tombstone_conforms() {
    conformance(BlockedMcCuckoo::<u64, u64>::new(BlockedConfig {
        base: McConfig::paper(512, 14).with_deletion(DeletionMode::Tombstone),
        slots: 3,
    }));
}

/// A blocked table of `slots` per bucket under both deleting modes.
fn blocked_width_conforms(slots: usize, buckets: usize, seed: u64) {
    for deletion in [DeletionMode::Reset, DeletionMode::Tombstone] {
        conformance(BlockedMcCuckoo::<u64, u64>::new(BlockedConfig {
            base: McConfig::paper(buckets, seed).with_deletion(deletion),
            slots,
        }));
    }
}

#[test]
fn blocked_one_slot_conforms() {
    blocked_width_conforms(1, 512, 23);
}

#[test]
fn blocked_eight_slot_conforms() {
    // The widest bucket. 48 buckets of 8 slots take every slot, the
    // last (hinted `S7`) included, once 128 keys hold three copies.
    blocked_width_conforms(8, 16, 24);
}

#[test]
fn concurrent_conforms() {
    conformance(ConcurrentMcCuckoo::<u64, u64>::new(McConfig::paper(
        1024, 15,
    )));
}

#[test]
fn sharded_conforms() {
    conformance(ShardedMcCuckoo::<u64, u64>::new(
        4,
        McConfig::paper(256, 18),
    ));
}

#[test]
fn bfs_and_bubble_policies_conform() {
    // The plan-first kick policies honour the same contract on both the
    // sequential engine and the concurrent table.
    for kind in [KickPolicyKind::Bfs, KickPolicyKind::Bubble] {
        conformance(McCuckoo::<u64, u64>::new(
            McConfig::paper_with_deletion(1024, 19).with_kick_policy(kind),
        ));
        conformance(BlockedMcCuckoo::<u64, u64>::new(BlockedConfig {
            base: McConfig::paper_with_deletion(512, 20).with_kick_policy(kind),
            slots: 2,
        }));
        conformance(ConcurrentMcCuckoo::<u64, u64>::new(
            McConfig::paper(1024, 21).with_kick_policy(kind),
        ));
    }
}

#[test]
fn dary_cuckoo_conforms() {
    conformance(DaryCuckoo::<u64, u64>::new(CuckooConfig::paper(1024, 16)));
}

#[test]
fn bcht_conforms() {
    conformance(Bcht::<u64, u64>::new(BchtConfig::paper(256, 17)));
}

// ---------------------------------------------------------------------
// Upsert regression storms (the destructive remove-then-insert bug)
// ---------------------------------------------------------------------

/// Fill `t` near its insertion limit, then hammer upserts of the live
/// keys. On every implementor the upserts must (a) report `Updated`,
/// never `Failed` — a destructive remove-then-insert emulation puts the
/// key at eviction risk exactly here — (b) keep every other key intact
/// with its newest value, and (c) cost at most `writes_bound` off-chip
/// writes each (`None` skips the meter check for unmetered tables). The
/// old baseline adapters paid 2 writes per upsert (remove + insert);
/// the multi-copy engine pays one write per stored copy, never more
/// than its `d = 3`.
fn near_full_upsert_storm<T: McTable<u64, u64>>(mut t: T, writes_bound: Option<u64>) {
    // Fill until the table pushes back (or a generous cap for tables
    // that stash instead of failing).
    let mut live: Vec<u64> = Vec::new();
    for k in 0..(t.capacity() as u64 * 2) {
        if !t.insert_new(k, k).stored() {
            break;
        }
        live.push(k);
    }
    assert!(
        t.load() > 0.5,
        "fill stalled at load {:.2}; the storm needs a crowded table",
        t.load()
    );

    for round in 1..=3u64 {
        for &k in &live {
            let before = t.mem_stats();
            let r = t.insert(k, k + round * 10_000);
            let delta = t.mem_stats() - before;
            assert_eq!(
                r.outcome,
                InsertOutcome::Updated,
                "round {round}: upsert of live key {k} must update in place"
            );
            if let Some(bound) = writes_bound {
                assert!(
                    delta.offchip_writes <= bound,
                    "round {round}: upsert of key {k} cost {} writes (bound {bound})",
                    delta.offchip_writes
                );
            }
        }
        assert_eq!(t.len(), live.len(), "round {round}: upserts changed len");
        for &k in &live {
            assert_eq!(
                t.lookup(&k),
                Some(k + round * 10_000),
                "round {round}: key {k} lost or stale after upsert storm"
            );
        }
    }
}

#[test]
fn near_full_upserts_mccuckoo() {
    near_full_upsert_storm(
        McCuckoo::<u64, u64>::new(McConfig::paper_with_deletion(128, 21)),
        Some(3),
    );
}

#[test]
fn near_full_upserts_blocked() {
    near_full_upsert_storm(
        BlockedMcCuckoo::<u64, u64>::new(BlockedConfig {
            base: McConfig::paper_with_deletion(64, 22),
            slots: 3,
        }),
        Some(3),
    );
}

#[test]
fn near_full_upserts_concurrent() {
    near_full_upsert_storm(
        ConcurrentMcCuckoo::<u64, u64>::new(McConfig::paper(128, 23)),
        None,
    );
}

#[test]
fn near_full_upserts_sharded() {
    near_full_upsert_storm(
        ShardedMcCuckoo::<u64, u64>::new(4, McConfig::paper(32, 24)),
        None,
    );
}

#[test]
fn near_full_upserts_dary() {
    // An in-place upsert is exactly one off-chip write; the destructive
    // adapter paid two (remove, then re-insert).
    near_full_upsert_storm(
        DaryCuckoo::<u64, u64>::new(CuckooConfig::paper(128, 25)),
        Some(1),
    );
}

#[test]
fn near_full_upserts_bcht() {
    near_full_upsert_storm(Bcht::<u64, u64>::new(BchtConfig::paper(48, 26)), Some(1));
}

/// A `Failed` insert must be a strict no-op: the offered key absent,
/// every stored key intact with its current value, `len` unchanged.
/// Before the unwind fix, the baselines' failed kick walks left the
/// offered key stored and a victim evicted.
fn failed_insert_noop_storm<T: McTable<u64, u64>>(mut t: T, attempts: u64) {
    let mut model: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut failures = 0u64;
    for k in 0..attempts {
        let r = t.insert(k, k ^ 0x5A5A);
        if r.stored() {
            model.insert(k, k ^ 0x5A5A);
        } else {
            failures += 1;
            assert!(!t.contains(&k), "rejected key {k} must not be stored");
            assert_eq!(t.len(), model.len(), "failed insert of {k} changed len");
            for (&mk, &mv) in &model {
                assert_eq!(
                    t.lookup(&mk),
                    Some(mv),
                    "failed insert of {k} damaged stored key {mk}"
                );
            }
        }
    }
    assert!(
        failures > 0,
        "storm never overflowed the table; shrink it or raise attempts"
    );
}

#[test]
fn failed_inserts_are_noops_dary() {
    failed_insert_noop_storm(
        DaryCuckoo::<u64, u64>::new(CuckooConfig {
            maxloop: 8,
            ..CuckooConfig::paper(4, 31)
        }),
        80,
    );
}

#[test]
fn failed_inserts_are_noops_bcht() {
    failed_insert_noop_storm(
        Bcht::<u64, u64>::new(BchtConfig {
            maxloop: 8,
            ..BchtConfig::paper(2, 32)
        }),
        80,
    );
}

#[test]
fn failed_inserts_are_noops_concurrent() {
    failed_insert_noop_storm(
        ConcurrentMcCuckoo::<u64, u64>::new(McConfig {
            maxloop: 8,
            ..McConfig::paper(4, 33)
        }),
        80,
    );
}

#[test]
fn failed_inserts_are_noops_sharded() {
    failed_insert_noop_storm(
        ShardedMcCuckoo::<u64, u64>::new(
            2,
            McConfig {
                maxloop: 8,
                ..McConfig::paper(4, 34)
            },
        ),
        120,
    );
}

/// Stronger than [`failed_insert_noop_storm`]: a plan-first policy's
/// failed insert must be a *physical* no-op — planning only reads, so a
/// failing attempt costs **zero off-chip writes** on top of leaving
/// every stored key intact. (The sequential random walk is exempt by
/// design: the paper's walk mutates as it goes and stashes the last
/// carried item on failure, so only BFS/bubbling engines and the
/// concurrent table — plan-first for every policy — qualify.)
fn failed_insert_physical_noop_storm<T: McTable<u64, u64>>(mut t: T, attempts: u64, label: &str) {
    let mut model: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut failures = 0u64;
    for k in 0..attempts {
        let before = t.mem_stats();
        let r = t.insert(k, k ^ 0x5A5A);
        if r.stored() {
            model.insert(k, k ^ 0x5A5A);
        } else {
            failures += 1;
            let delta = t.mem_stats() - before;
            assert_eq!(
                delta.offchip_writes, 0,
                "{label}: failed insert of {k} wrote off-chip"
            );
            assert!(!t.contains(&k), "{label}: rejected key {k} stored");
            assert_eq!(t.len(), model.len(), "{label}: failed insert changed len");
            for (&mk, &mv) in &model {
                assert_eq!(
                    t.lookup(&mk),
                    Some(mv),
                    "{label}: failed insert of {k} damaged stored key {mk}"
                );
            }
        }
    }
    assert!(
        failures > 0,
        "{label}: storm never overflowed the table; shrink it or raise attempts"
    );
}

#[test]
fn failed_inserts_are_physical_noops_planned_engines() {
    for kind in [KickPolicyKind::Bfs, KickPolicyKind::Bubble] {
        // StashPolicy::None so overflow surfaces as Failed instead of
        // being absorbed by the stash.
        failed_insert_physical_noop_storm(
            McCuckoo::<u64, u64>::new(
                McConfig::paper(4, 35)
                    .with_maxloop(8)
                    .with_stash(StashPolicy::None)
                    .with_kick_policy(kind),
            ),
            80,
            kind.label(),
        );
    }
}

#[test]
fn failed_inserts_are_physical_noops_concurrent_all_policies() {
    for kind in KickPolicyKind::ALL {
        failed_insert_physical_noop_storm(
            ConcurrentMcCuckoo::<u64, u64>::new(
                McConfig::paper(4, 36)
                    .with_maxloop(8)
                    .with_kick_policy(kind),
            ),
            80,
            kind.label(),
        );
    }
}

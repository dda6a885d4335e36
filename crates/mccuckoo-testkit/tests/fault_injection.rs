//! Acceptance: an injected bookkeeping fault is caught by the
//! differential harness and shrunk to a tiny replayable sequence.
//!
//! Requires `--features faults` (forwards `mccuckoo-core/testhooks`).
//! The fault: every deletion skips the counter reset of its first copy
//! location, leaving a counter that claims a live copy in a vacated
//! bucket — exactly the kind of silent corruption the validators exist
//! to catch.

#![cfg(feature = "faults")]

use mccuckoo_core::testhooks;
use mccuckoo_testkit::{fuzz_one, MixProfile, TableKind};

#[test]
fn skipped_counter_reset_is_caught_and_shrunk() {
    // Arm for the whole thread so every shrink replay sees the same
    // faulty table; the guard disarms on exit so other tests in this
    // binary are unaffected.
    testhooks::arm_skip_counter_reset(u32::MAX);
    let result = fuzz_one(TableKind::Single, MixProfile::DeleteHeavy, 0x5EED, 5_000);
    testhooks::disarm();

    let report = result.expect_err("the injected fault must be detected");
    // The fault needs one effective insert and one delete; the shrinker
    // must get close to that minimal pair.
    assert!(
        report.min_len <= 6,
        "expected a near-minimal sequence, got {} ops: {}",
        report.min_len,
        report.min_ops
    );
    let text = report.to_string();
    assert!(
        text.contains("replay:"),
        "report must carry a replay line: {text}"
    );
    assert!(
        text.contains("seed 0x5eed"),
        "report must name the seed: {text}"
    );

    // Replayability: the same case fails again while the fault is armed
    // and passes once it is disarmed.
    testhooks::arm_skip_counter_reset(u32::MAX);
    let again = fuzz_one(TableKind::Single, MixProfile::DeleteHeavy, 0x5EED, 5_000);
    testhooks::disarm();
    let again = again.expect_err("armed replay must fail again");
    assert_eq!(
        again.min_ops, report.min_ops,
        "shrinking must be deterministic"
    );

    fuzz_one(TableKind::Single, MixProfile::DeleteHeavy, 0x5EED, 5_000)
        .expect("disarmed run must be clean");
}

// Under `paranoid` the corrupting remove() panics immediately (which is
// the feature working as intended); the direct-validator flow below
// assumes the mutation completes, so it only runs without it.
#[cfg(not(feature = "paranoid"))]
#[test]
fn bounded_fault_hits_exactly_n_deletions() {
    // A single armed deletion corrupts one bucket; a direct validator
    // call sees it without the differential machinery.
    use mccuckoo_core::{DeletionMode, McConfig, McCuckoo};
    let mut t: McCuckoo<u64, u64> =
        McCuckoo::new(McConfig::paper(64, 9).with_deletion(DeletionMode::Reset));
    for k in 0..20u64 {
        t.insert_new(k, k).unwrap();
    }
    t.check_invariants().unwrap();
    testhooks::arm_skip_counter_reset(1);
    t.remove(&7);
    testhooks::disarm();
    let err = t
        .check_invariants()
        .expect_err("corruption must be visible");
    assert!(!err.is_empty());
}

#[test]
fn planned_engine_insert_dying_mid_kick_is_a_physical_noop() {
    // For the plan-first policies (BFS, bubbling) the injected panic
    // fires after the plan succeeds but before the first mutation, so a
    // sequential insert that dies there must leave the table *bit-for-
    // bit* untouched: same length, every stored key intact, and the
    // offered key absent.
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use mccuckoo_core::{KickPolicyKind, McConfig, McCuckoo, StashPolicy};

    for kind in [KickPolicyKind::Bfs, KickPolicyKind::Bubble] {
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(
            McConfig::paper(24, 41)
                .with_stash(StashPolicy::None)
                .with_kick_policy(kind),
        );
        let mut stored: Vec<u64> = Vec::new();
        testhooks::arm_panic_in_kick(u32::MAX);
        let mut died_at = None;
        for k in 0..10_000u64 {
            let len_before = t.len();
            match catch_unwind(AssertUnwindSafe(|| t.insert(k, k ^ 0xF00D).is_ok())) {
                Ok(true) => stored.push(k),
                Ok(false) => {} // overflow without a kick plan; keep going
                Err(_) => {
                    died_at = Some((k, len_before));
                    break;
                }
            }
        }
        testhooks::disarm();
        let (k, len_before) = died_at.unwrap_or_else(|| {
            panic!("{kind:?}: filling a 72-bucket table must reach a kick plan")
        });
        assert_eq!(t.len(), len_before, "{kind:?}: dying insert changed len");
        assert_eq!(t.get(&k), None, "{kind:?}: dying insert left its key");
        for &s in &stored {
            assert_eq!(t.get(&s), Some(&(s ^ 0xF00D)), "{kind:?}: key {s} damaged");
        }
        t.check_invariants().unwrap();
    }
}

#[test]
fn random_walk_engine_dying_mid_kick_stays_structurally_valid() {
    // The paper's mutate-as-you-walk random walk cannot promise a
    // physical no-op (relocations already made stay, and the carried
    // item is lost with the dying thread) — but the table must remain
    // structurally valid: counters consistent, every surviving key
    // findable.
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use mccuckoo_core::{McConfig, McCuckoo, StashPolicy};

    let mut t: McCuckoo<u64, u64> =
        McCuckoo::new(McConfig::paper(24, 42).with_stash(StashPolicy::None));
    testhooks::arm_panic_in_kick(u32::MAX);
    let mut died = false;
    for k in 0..10_000u64 {
        if catch_unwind(AssertUnwindSafe(|| t.insert(k, k).is_ok())).is_err() {
            died = true;
            break;
        }
    }
    testhooks::disarm();
    assert!(died, "filling a 72-bucket table must reach a kick walk");
    t.check_invariants().unwrap();
}

#[test]
fn writer_panic_mid_kick_releases_the_writer_lock_and_preserves_the_table() {
    // A writer dies *while holding the table's writer lock* (injected
    // panic fires after the kick path is planned, before any bucket
    // mutation). The RAII guard must release the lock on unwind, and —
    // the lock being unpoisonable — the table must
    // stay fully readable, writable and structurally valid for every
    // other thread.
    use std::sync::Arc;

    use mccuckoo_core::{ConcurrentMcCuckoo, McConfig};

    let t = Arc::new(ConcurrentMcCuckoo::<u64, u64>::new(McConfig::paper(64, 3)));
    let dead = {
        let t = Arc::clone(&t);
        std::thread::spawn(move || {
            // Thread-local: only this writer is sabotaged.
            testhooks::arm_panic_in_kick(u32::MAX);
            for k in 0..100_000u64 {
                let _ = t.insert(k, k);
            }
        })
    };
    let err = dead
        .join()
        .expect_err("filling a 192-bucket table must reach a kick walk");
    let msg = err
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_owned)
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        msg.contains("injected panic mid-kick-walk"),
        "writer died of the wrong cause: {msg:?}"
    );

    // Unwinding dropped the writer guard: the lock is free.
    assert!(t.writer_idle(), "a dead writer left the writer lock held");
    // The panic fired before any bucket mutation, so the table is intact.
    t.check_invariants().unwrap();

    // And it is still fully operational from an unarmed thread.
    let survivor = (0..100_000u64)
        .find(|k| t.get(k).is_some())
        .expect("keys inserted before the panic must survive");
    assert_eq!(t.insert(survivor, 424_242), Ok(true));
    assert_eq!(t.get(&survivor), Some(424_242));
    assert_eq!(t.remove(&survivor), Some(424_242));
    assert_eq!(t.get(&survivor), None);
    t.check_invariants().unwrap();
}

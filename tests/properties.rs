//! Property-based tests (proptest) over the core data structures.

use std::collections::HashMap;

use mccuckoo_core::{
    BlockedConfig, BlockedMcCuckoo, DeletionMode, McConfig, McCuckoo, StashPolicy,
};
use proptest::prelude::*;

/// A symbolic operation over a small key universe (small so that
/// deletes/updates actually collide with live keys).
#[derive(Debug, Clone, Copy)]
enum SymOp {
    Upsert(u16, u32),
    Remove(u16),
    Lookup(u16),
}

fn sym_op() -> impl Strategy<Value = SymOp> {
    prop_oneof![
        3 => (0u16..400, any::<u32>()).prop_map(|(k, v)| SymOp::Upsert(k, v)),
        1 => (0u16..400).prop_map(SymOp::Remove),
        2 => (0u16..400).prop_map(SymOp::Lookup),
    ]
}

/// Replay `ops` against table `$t` and a `HashMap` model, asserting
/// identical observable behaviour. (A macro rather than a function so it
/// monomorphises over both table types without borrow gymnastics.)
macro_rules! replay_against_model {
    ($t:ident, $ops:expr) => {{
        let mut model: HashMap<u16, u32> = HashMap::new();
        for &op in $ops {
            match op {
                SymOp::Upsert(k, v) => {
                    $t.insert(k, v).unwrap();
                    model.insert(k, v);
                }
                SymOp::Remove(k) => {
                    assert_eq!($t.remove(&k), model.remove(&k), "remove({k})");
                }
                SymOp::Lookup(k) => {
                    assert_eq!($t.get(&k).copied(), model.get(&k).copied(), "lookup({k})");
                }
            }
        }
        assert_eq!($t.len(), model.len());
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-slot McCuckoo behaves exactly like a map under arbitrary
    /// upsert/remove/lookup interleavings (Reset deletion).
    #[test]
    fn single_slot_is_a_map_reset(ops in prop::collection::vec(sym_op(), 1..600)) {
        let mut t: McCuckoo<u16, u32> =
            McCuckoo::new(McConfig::paper(512, 1).with_deletion(DeletionMode::Reset));
        replay_against_model!(t, &ops);
        t.check_invariants().unwrap();
    }

    /// Same with tombstone deletion.
    #[test]
    fn single_slot_is_a_map_tombstone(ops in prop::collection::vec(sym_op(), 1..600)) {
        let mut t: McCuckoo<u16, u32> =
            McCuckoo::new(McConfig::paper(512, 2).with_deletion(DeletionMode::Tombstone));
        replay_against_model!(t, &ops);
        t.check_invariants().unwrap();
    }

    /// Blocked McCuckoo behaves exactly like a map.
    #[test]
    fn blocked_is_a_map(ops in prop::collection::vec(sym_op(), 1..600)) {
        let mut t: BlockedMcCuckoo<u16, u32> = BlockedMcCuckoo::new(BlockedConfig {
            base: McConfig::paper_with_deletion(128, 3),
            slots: 3,
        });
        replay_against_model!(t, &ops);
        t.check_invariants().unwrap();
    }

    /// The hashed stash behaves exactly like a map even under heavy
    /// overload (tiny main table forces most keys into the stash).
    #[test]
    fn overloaded_table_with_hashed_stash_is_a_map(
        ops in prop::collection::vec(sym_op(), 1..400)
    ) {
        let mut t: McCuckoo<u16, u32> = McCuckoo::new(
            McConfig::paper(24, 4)
                .with_maxloop(10)
                .with_deletion(DeletionMode::Reset)
                .with_stash(StashPolicy::Hashed),
        );
        replay_against_model!(t, &ops);
        t.check_invariants().unwrap();
    }

    /// Lookup never reads more than d buckets off-chip (Theorem 3's
    /// consequence: pruning only ever shrinks the probe set).
    #[test]
    fn lookup_probe_bound(keys in prop::collection::hash_set(any::<u64>(), 1..300)) {
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper(256, 5));
        for &k in &keys {
            let _ = t.insert_new(k, k);
        }
        for &k in &keys {
            let before = t.meter().snapshot();
            let _ = t.get(&k);
            let delta = t.meter().snapshot() - before;
            prop_assert!(delta.offchip_reads <= 3, "{} reads", delta.offchip_reads);
            prop_assert_eq!(delta.offchip_writes, 0);
        }
    }

    /// Absent keys are never falsely reported present, and deletion
    /// leaves no trace findable (both modes).
    #[test]
    fn no_ghost_keys(
        present in prop::collection::hash_set(0u64..1000, 1..200),
        absent in prop::collection::hash_set(1000u64..2000, 1..200),
        mode in prop_oneof![Just(DeletionMode::Reset), Just(DeletionMode::Tombstone)],
    ) {
        let mut t: McCuckoo<u64, u64> =
            McCuckoo::new(McConfig::paper(512, 6).with_deletion(mode));
        for &k in &present {
            t.insert_new(k, k).unwrap();
        }
        for &k in &absent {
            prop_assert_eq!(t.get(&k), None);
        }
        for &k in &present {
            prop_assert_eq!(t.remove(&k), Some(k));
            prop_assert_eq!(t.get(&k), None, "deleted key resurfaced");
        }
    }

    /// Counter invariant under pure insertion: every candidate counter
    /// of a present key is non-zero, and copy counts never exceed d.
    #[test]
    fn bloom_and_copy_bounds(keys in prop::collection::hash_set(any::<u64>(), 1..400)) {
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper(256, 7));
        for &k in &keys {
            let _ = t.insert_new(k, k);
        }
        for &k in &keys {
            let c = t.copy_count(&k);
            prop_assert!(c <= 3);
            // Inserted keys live in the main table or the stash; either
            // way a lookup must succeed.
            prop_assert_eq!(t.get(&k).copied(), Some(k));
        }
        t.check_invariants().unwrap();
    }
}

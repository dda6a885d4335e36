//! Boundary-condition coverage across the public API.

use mccuckoo_core::{
    BlockedConfig, BlockedMcCuckoo, DeletionMode, McConfig, McCuckoo, StashPolicy,
};

/// The smallest legal table (d=2, one bucket per sub-table) still obeys
/// the full contract: two items fit, the third goes to the stash, and
/// everything stays findable.
#[test]
fn minimal_geometry() {
    let mut t: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper(1, 1).with_d(2).with_maxloop(4));
    t.insert_new(10, 100).unwrap();
    // First item takes both buckets (2 copies).
    assert_eq!(t.copy_count(&10), 2);
    t.insert_new(20, 200).unwrap();
    t.insert_new(30, 300).unwrap();
    assert!(t.stash_len() >= 1, "2 buckets cannot hold 3 items");
    for (k, v) in [(10, 100), (20, 200), (30, 300)] {
        assert_eq!(t.get(&k), Some(&v));
    }
    t.check_invariants().unwrap();
}

/// An empty table answers everything without panicking.
#[test]
fn empty_table_queries() {
    let mut t: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper_with_deletion(8, 2));
    assert!(t.is_empty());
    assert_eq!(t.get(&1), None);
    assert!(!t.contains(&2));
    assert_eq!(t.remove(&3), None);
    assert_eq!(t.copy_count(&4), 0);
    assert_eq!(t.iter().count(), 0);
    assert_eq!(t.refresh_stash(), 0);
    t.check_invariants().unwrap();
}

/// Insert/delete the same key repeatedly in both deletion modes; the
/// table must neither leak capacity nor corrupt counters.
#[test]
fn same_key_churn() {
    for mode in [DeletionMode::Reset, DeletionMode::Tombstone] {
        let mut t: McCuckoo<u64, String> =
            McCuckoo::new(McConfig::paper(64, 3).with_deletion(mode));
        for round in 0..500u64 {
            t.insert_new(42, format!("r{round}")).unwrap();
            assert_eq!(t.get(&42), Some(&format!("r{round}")));
            assert_eq!(t.remove(&42), Some(format!("r{round}")));
            assert_eq!(t.get(&42), None, "{mode:?} round {round}");
        }
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }
}

/// Tombstone saturation: delete everything, refill completely, repeat.
/// Tombstones must recycle without capacity loss.
#[test]
fn tombstone_full_cycles() {
    let n = 128;
    let mut t: McCuckoo<u64, u64> =
        McCuckoo::new(McConfig::paper(n, 4).with_deletion(DeletionMode::Tombstone));
    for cycle in 0..5u64 {
        let base = cycle * 1_000_000;
        let count = 3 * n / 2; // 50% load
        for i in 0..count as u64 {
            t.insert_new(base + i, i).unwrap();
        }
        assert_eq!(t.len(), count);
        for i in 0..count as u64 {
            assert_eq!(t.remove(&(base + i)), Some(i));
        }
        assert!(t.is_empty(), "cycle {cycle}");
        t.check_invariants().unwrap();
    }
}

/// `clear` resets a heavily loaded, stash-backed, deletion-scarred
/// table to a pristine state.
#[test]
fn clear_resets_everything() {
    let n = 64;
    let mut t: McCuckoo<u64, u64> = McCuckoo::new(
        McConfig::paper(n, 5)
            .with_maxloop(10)
            .with_deletion(DeletionMode::Reset),
    );
    for k in 0..(3 * n) as u64 {
        t.insert_new(k, k).unwrap();
    }
    for k in 0..(n / 2) as u64 {
        t.remove(&k);
    }
    t.clear();
    assert!(t.is_empty());
    assert_eq!(t.stash_len(), 0);
    assert_eq!(t.redundant_writes(), 0);
    // Fully usable afterwards.
    for k in 0..100u64 {
        t.insert_new(k, k + 1).unwrap();
    }
    for k in 0..100u64 {
        assert_eq!(t.get(&k), Some(&(k + 1)));
    }
    t.check_invariants().unwrap();
}

/// Zero-sized values work (set semantics).
#[test]
fn unit_values() {
    let mut t: McCuckoo<u64, ()> = McCuckoo::new(McConfig::paper(128, 6));
    for k in 0..200u64 {
        t.insert_new(k, ()).unwrap();
    }
    assert!(t.contains(&100));
    assert!(!t.contains(&1_000));
}

/// Large values move through kick-outs intact.
#[test]
fn large_values_survive_relocation() {
    let n = 256;
    let mut t: McCuckoo<u64, Vec<u8>> = McCuckoo::new(McConfig::paper(n, 7));
    let blob = |k: u64| vec![(k % 251) as u8; 512];
    let count = 3 * n * 85 / 100;
    for k in 0..count as u64 {
        t.insert_new(k, blob(k)).unwrap();
    }
    for k in 0..count as u64 {
        assert_eq!(t.get(&k), Some(&blob(k)));
    }
}

/// Blocked table with no stash surfaces failures but loses nothing
/// except the reported eviction.
#[test]
fn blocked_no_stash_overflow_accounting() {
    let mut t: BlockedMcCuckoo<u64, u64> = BlockedMcCuckoo::new(BlockedConfig {
        base: McConfig::paper(4, 8)
            .with_maxloop(8)
            .with_stash(StashPolicy::None),
        slots: 2,
    });
    let cap = t.capacity();
    let mut stored: Vec<u64> = Vec::new();
    let mut lost: Vec<u64> = Vec::new();
    for k in 0..(cap + 10) as u64 {
        match t.insert_new(k, k) {
            Ok(_) => stored.push(k),
            Err(full) => {
                let (ek, _) = full.evicted;
                // The inserted key may have displaced someone else.
                stored.push(k);
                stored.retain(|&x| x != ek);
                lost.push(ek);
            }
        }
    }
    assert!(!lost.is_empty(), "overfull table must overflow");
    assert_eq!(t.len(), stored.len());
    for k in &stored {
        assert_eq!(t.get(k), Some(k), "stored key lost");
    }
    for k in &lost {
        assert_eq!(t.get(k), None, "evicted key resurfaced");
    }
    t.check_invariants().unwrap();
}

/// Negative and extreme integer keys hash fine.
#[test]
fn extreme_keys() {
    let mut t: McCuckoo<i64, i64> = McCuckoo::new(McConfig::paper(64, 9));
    for k in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
        t.insert_new(k, k).unwrap();
    }
    for k in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
        assert_eq!(t.get(&k), Some(&k));
    }
    t.check_invariants().unwrap();
}

/// Byte-array keys (16-byte fingerprints) exercise the lookup3 path.
#[test]
fn fingerprint_keys() {
    let mut t: McCuckoo<[u8; 16], u64> = McCuckoo::new(McConfig::paper(256, 10));
    let fp = |i: u64| {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&i.to_le_bytes());
        b[8..].copy_from_slice(&i.wrapping_mul(0x9E37).to_le_bytes());
        b
    };
    for i in 0..400u64 {
        t.insert_new(fp(i), i).unwrap();
    }
    for i in 0..400u64 {
        assert_eq!(t.get(&fp(i)), Some(&i));
    }
    assert_eq!(t.get(&fp(10_000)), None);
}

//! Cross-crate differential testing: every scheme replayed against a
//! `HashMap` model under mixed operation streams from the `workloads`
//! crate.

use std::collections::HashMap;

use mccuckoo_bench::{AnyTable, Scheme};
use workloads::{Op, OpMix, OpStream};

fn drive(scheme: Scheme, mix: OpMix, ops: usize, seed: u64) {
    let mut t = AnyTable::build(scheme, 30_000, seed, 500, true);
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut stream = OpStream::new(mix, seed);
    for k in stream.preload(5_000) {
        t.insert_new(k, k ^ 0xA5);
        model.insert(k, k ^ 0xA5);
    }
    for _ in 0..ops {
        match stream.next_op() {
            Op::Insert(k) => {
                let r = t.insert_new(k, k ^ 0xA5);
                assert!(r.stored(), "{}: insert lost", scheme.label());
                model.insert(k, k ^ 0xA5);
            }
            Op::Update(k) => {
                // AnyTable has no upsert entry point; model the update
                // as read-modify-write via remove + insert.
                let old = t.remove(&k);
                assert_eq!(old, model.get(&k).copied(), "{}", scheme.label());
                t.insert_new(k, k ^ 0x5A);
                model.insert(k, k ^ 0x5A);
            }
            Op::LookupHit(k) => {
                assert_eq!(t.get(&k), model.get(&k).copied(), "{}", scheme.label());
            }
            Op::LookupMiss(k) => {
                assert_eq!(t.get(&k), None, "{}", scheme.label());
            }
            Op::Delete(k) => {
                assert_eq!(t.remove(&k), model.remove(&k), "{}", scheme.label());
            }
        }
    }
    assert_eq!(t.len(), model.len(), "{}", scheme.label());
    for (k, v) in &model {
        assert_eq!(t.get(k), Some(*v), "{}: final audit", scheme.label());
    }
}

#[test]
fn read_heavy_mix_all_schemes() {
    for scheme in Scheme::ALL {
        drive(scheme, OpMix::read_heavy(), 60_000, 500);
    }
}

#[test]
fn churn_mix_all_schemes() {
    for scheme in Scheme::ALL {
        drive(scheme, OpMix::churn(), 60_000, 510);
    }
}

#[test]
fn ycsb_mixes_all_schemes() {
    for scheme in Scheme::ALL {
        drive(scheme, OpMix::ycsb_a(), 40_000, 540);
        drive(scheme, OpMix::ycsb_b(), 40_000, 550);
    }
}

#[test]
fn delete_heavy_mix_all_schemes() {
    let mix = OpMix {
        insert: 25,
        update: 0,
        lookup_hit: 10,
        lookup_miss: 15,
        delete: 50,
    };
    for scheme in Scheme::ALL {
        drive(scheme, mix, 60_000, 520);
    }
}

/// Multi-copy invariants hold after long mixed streams (checked on the
/// concrete types, which expose the validators).
#[test]
fn invariants_after_churn() {
    use mccuckoo_core::{BlockedConfig, BlockedMcCuckoo, McConfig, McCuckoo};
    let mut single: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper_with_deletion(8_192, 530));
    let mut blocked: BlockedMcCuckoo<u64, u64> = BlockedMcCuckoo::new(BlockedConfig {
        base: McConfig::paper_with_deletion(2_730, 531),
        slots: 3,
    });
    let mut stream = OpStream::new(OpMix::churn(), 532);
    for k in stream.preload(4_000) {
        single.insert_new(k, k).unwrap();
        blocked.insert_new(k, k).unwrap();
    }
    for _ in 0..40_000 {
        match stream.next_op() {
            Op::Insert(k) => {
                single.insert_new(k, k).unwrap();
                blocked.insert_new(k, k).unwrap();
            }
            Op::Update(k) => {
                single.insert(k, k ^ 1).unwrap();
                blocked.insert(k, k ^ 1).unwrap();
            }
            Op::Delete(k) => {
                assert!(single.remove(&k).is_some());
                assert!(blocked.remove(&k).is_some());
            }
            Op::LookupHit(k) => {
                assert!(single.contains(&k));
                assert!(blocked.contains(&k));
            }
            Op::LookupMiss(k) => {
                assert!(!single.contains(&k));
                assert!(!blocked.contains(&k));
            }
        }
    }
    single.check_invariants().unwrap();
    blocked.check_invariants().unwrap();
}

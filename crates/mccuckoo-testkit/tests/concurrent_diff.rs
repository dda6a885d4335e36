//! Differential test for [`ConcurrentMcCuckoo`] under real parallelism.
//!
//! The table is single-writer/many-readers, so the strongest decidable
//! checks are:
//!
//! 1. **Writer differential** — a seeded op sequence applied by the
//!    writer thread while readers hammer the table must leave exactly
//!    the state the sequential oracle predicts (readers are pure).
//! 2. **Single-key linearizability** — for a key whose history is a
//!    monotone sequence of updates, every reader must observe a
//!    non-decreasing sequence of values: observing `v` then `v' < v`
//!    would order the writes backwards, which no linearization allows.
//! 3. **Absence is sticky** — after the writer removes a key and stops,
//!    no reader may resurrect it.
//!
//! Seeded schedules: the *op sequences* are deterministic per seed; the
//! thread interleaving varies, which is the point — assertions hold for
//! every interleaving.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hash_kit::SplitMix64;
use mccuckoo_core::{ConcurrentMcCuckoo, McConfig};

#[derive(Clone, Copy, Debug)]
enum WOp {
    Insert(u64, u64),
    Remove(u64),
}

/// Seeded writer schedule over a churn key set, plus periodic monotone
/// bumps of a designated key.
fn schedule(seed: u64, n: usize, churn_domain: u64) -> Vec<WOp> {
    let mut rng = SplitMix64::new(seed ^ 0x11EA_11CE_5EED_0001);
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        // Churn keys live above the monotone key (key 0).
        let k = 1 + rng.next_below(churn_domain);
        if rng.next_below(100) < 60 {
            ops.push(WOp::Insert(k, i as u64));
        } else {
            ops.push(WOp::Remove(k));
        }
    }
    ops
}

#[test]
fn writer_differential_with_reader_storm() {
    const MONOTONE_KEY: u64 = 0;
    for seed in [3u64, 21] {
        let t = Arc::new(ConcurrentMcCuckoo::<u64, u64>::new(McConfig::paper(
            512, seed,
        )));
        let ops = schedule(seed, 30_000, 600);
        let stop = Arc::new(AtomicBool::new(false));

        let violations = std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for r in 0..3 {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                readers.push(scope.spawn(move || {
                    // Check 2: monotone reads of the designated key.
                    let mut last_seen = 0u64;
                    let mut violations = 0usize;
                    let mut spin = r as u64;
                    while !stop.load(Ordering::Acquire) {
                        if let Some(v) = t.get(&MONOTONE_KEY) {
                            if v < last_seen {
                                violations += 1;
                            }
                            last_seen = v;
                        }
                        // Touch churn keys too, to keep the seqlock
                        // retry paths busy (result is unchecked: any
                        // value is legal mid-churn).
                        let _ = t.get(&(1 + spin % 600));
                        spin = spin.wrapping_add(1);
                    }
                    violations
                }));
            }

            // Writer: monotone bumps interleaved with seeded churn.
            let mut bump = 0u64;
            for (i, op) in ops.iter().enumerate() {
                if i % 64 == 0 {
                    bump += 1;
                    t.insert(MONOTONE_KEY, bump).unwrap();
                }
                match *op {
                    WOp::Insert(k, v) => {
                        let _ = t.insert(k, v);
                    }
                    WOp::Remove(k) => {
                        let _ = t.remove(&k);
                    }
                }
            }
            stop.store(true, Ordering::Release);
            readers
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum::<usize>()
        });
        assert_eq!(violations, 0, "seed {seed}: non-monotone single-key reads");

        // Check 1: final state equals the sequential oracle. Failed
        // inserts mutate nothing, so mirror them by probing the table.
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        let mut bump = 0u64;
        for (i, op) in ops.iter().enumerate() {
            if i % 64 == 0 {
                bump += 1;
                oracle.insert(MONOTONE_KEY, bump);
            }
            match *op {
                WOp::Insert(k, v) => {
                    // At ~40% net load the table never rejects; a reject
                    // would surface as an oracle divergence below.
                    oracle.insert(k, v);
                }
                WOp::Remove(k) => {
                    oracle.remove(&k);
                }
            }
        }
        t.check_invariants()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(t.len(), oracle.len(), "seed {seed}: distinct count");
        for (&k, &v) in &oracle {
            assert_eq!(t.get(&k), Some(v), "seed {seed}: key {k}");
        }

        // Check 3: removed keys stay gone once the writer is quiescent.
        for k in 1..=600u64 {
            if !oracle.contains_key(&k) {
                assert_eq!(t.get(&k), None, "seed {seed}: key {k} resurrected");
            }
        }
    }
}

#[test]
fn writer_differential_with_batched_reader_storm() {
    // The same three decidable checks as `writer_differential_with_
    // reader_storm`, but every reader goes through the *batched* read
    // path (`get_batch`): the batch machinery (shared hashing pass,
    // per-batch stat stripe, prefetch hints) must not weaken seqlock
    // reads. The monotone key is planted at several positions of each
    // batch; positions are resolved in order, so the observed sequence
    // across positions and batches must still be non-decreasing.
    use mccuckoo_core::McTable;

    const MONOTONE_KEY: u64 = 0;
    for seed in [9u64, 27] {
        let t = Arc::new(ConcurrentMcCuckoo::<u64, u64>::new(McConfig::paper(
            512, seed,
        )));
        let ops = schedule(seed, 30_000, 600);
        let stop = Arc::new(AtomicBool::new(false));

        let violations = std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for r in 0..3 {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                readers.push(scope.spawn(move || {
                    let mut last_seen = 0u64;
                    let mut violations = 0usize;
                    let mut spin = r as u64;
                    let mut batch = [0u64; 32];
                    while !stop.load(Ordering::Acquire) {
                        // Monotone key at positions 0, 10, 20, 30;
                        // churn keys everywhere else (unchecked).
                        for (j, slot) in batch.iter_mut().enumerate() {
                            *slot = if j % 10 == 0 {
                                MONOTONE_KEY
                            } else {
                                1 + (spin + j as u64) % 600
                            };
                        }
                        spin = spin.wrapping_add(31);
                        let got = t.get_batch(&batch);
                        for (j, v) in got.iter().enumerate() {
                            if j % 10 != 0 {
                                continue;
                            }
                            if let Some(v) = v {
                                if *v < last_seen {
                                    violations += 1;
                                }
                                last_seen = *v;
                            }
                        }
                    }
                    violations
                }));
            }

            let mut bump = 0u64;
            for (i, op) in ops.iter().enumerate() {
                if i % 64 == 0 {
                    bump += 1;
                    t.insert(MONOTONE_KEY, bump).unwrap();
                }
                match *op {
                    WOp::Insert(k, v) => {
                        let _ = t.insert(k, v);
                    }
                    WOp::Remove(k) => {
                        let _ = t.remove(&k);
                    }
                }
            }
            stop.store(true, Ordering::Release);
            readers
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum::<usize>()
        });
        assert_eq!(
            violations, 0,
            "seed {seed}: non-monotone batched reads of the designated key"
        );

        // Final state equals the sequential oracle — swept through the
        // batched path this time.
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        let mut bump = 0u64;
        for (i, op) in ops.iter().enumerate() {
            if i % 64 == 0 {
                bump += 1;
                oracle.insert(MONOTONE_KEY, bump);
            }
            match *op {
                WOp::Insert(k, v) => {
                    oracle.insert(k, v);
                }
                WOp::Remove(k) => {
                    oracle.remove(&k);
                }
            }
        }
        t.check_invariants()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(t.len(), oracle.len(), "seed {seed}: distinct count");
        let keys: Vec<u64> = (0..=600u64).collect();
        for (k, got) in keys.iter().zip(McTable::lookup_batch(&*t, &keys)) {
            assert_eq!(
                got,
                oracle.get(k).copied(),
                "seed {seed}: key {k} diverged through the batched sweep"
            );
        }
    }
}

#[test]
fn concurrent_matches_oracle_single_threaded_histories() {
    // Pure sequential differential at higher load, including update
    // histories per key — the linearizable single-key case degenerate
    // to one thread, where every observation is decidable.
    let t = ConcurrentMcCuckoo::<u64, u64>::new(McConfig::paper(256, 5));
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    let mut rng = SplitMix64::new(0xD1FF);
    for i in 0..40_000u64 {
        let k = rng.next_below(700);
        match rng.next_below(10) {
            0..=5 => {
                if t.insert(k, i).is_ok() {
                    oracle.insert(k, i);
                } else {
                    assert!(
                        !oracle.contains_key(&k),
                        "upsert of live key {k} must not fail"
                    );
                }
            }
            6..=7 => {
                assert_eq!(t.get(&k), oracle.get(&k).copied(), "get {k} at step {i}");
            }
            _ => {
                assert_eq!(t.remove(&k), oracle.remove(&k), "remove {k} at step {i}");
            }
        }
        if i % 1_024 == 0 {
            t.check_invariants().unwrap();
            assert_eq!(t.len(), oracle.len());
        }
    }
    t.check_invariants().unwrap();
    for (&k, &v) in &oracle {
        assert_eq!(t.get(&k), Some(v));
    }
}

#[test]
fn sharded_multi_writer_differential() {
    // Four writer threads over a 4-shard table, each owning a disjoint
    // key slice (keys of its residue class mod 4). Ownership makes the
    // final state decidable — each key's history is written by exactly
    // one thread — while the shard router spreads every thread's keys
    // across all shards, so the per-shard writer locks really are
    // contended by multiple threads. Writers use the batched entry
    // points; a reader storm uses lookup_batch (unchecked mid-churn).
    use mccuckoo_core::ShardedMcCuckoo;

    const WRITERS: u64 = 4;
    const DOMAIN: u64 = 2_400;
    for seed in [7u64, 35] {
        let t = Arc::new(ShardedMcCuckoo::<u64, u64>::new(
            4,
            McConfig::paper(256, seed),
        ));
        let stop = Arc::new(AtomicBool::new(false));

        let oracles: Vec<HashMap<u64, u64>> = std::thread::scope(|scope| {
            let reader = {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let keys: Vec<u64> = (0..64).collect();
                    while !stop.load(Ordering::Acquire) {
                        let _ = t.lookup_batch(&keys);
                    }
                })
            };
            let writers: Vec<_> = (0..WRITERS)
                .map(|tid| {
                    let t = Arc::clone(&t);
                    scope.spawn(move || {
                        let mut oracle: HashMap<u64, u64> = HashMap::new();
                        let mut rng = SplitMix64::new(seed ^ (tid << 32) ^ 0x5AA2);
                        for round in 0..150u64 {
                            // Keys of this thread's residue class only.
                            let batch: Vec<(u64, u64)> = (0..32)
                                .map(|j| {
                                    let k = rng.next_below(DOMAIN / WRITERS) * WRITERS + tid;
                                    (k, round * 1_000 + j)
                                })
                                .collect();
                            for (r, &(k, v)) in t.insert_batch(&batch).iter().zip(&batch) {
                                if r.is_ok() {
                                    oracle.insert(k, v);
                                }
                            }
                            let dels: Vec<u64> = (0..8)
                                .map(|_| rng.next_below(DOMAIN / WRITERS) * WRITERS + tid)
                                .collect();
                            for (r, &k) in t.remove_batch(&dels).iter().zip(&dels) {
                                assert_eq!(
                                    r.is_some(),
                                    oracle.remove(&k).is_some(),
                                    "seed {seed} writer {tid}: remove {k} diverged"
                                );
                            }
                        }
                        oracle
                    })
                })
                .collect();
            let oracles = writers.into_iter().map(|h| h.join().unwrap()).collect();
            stop.store(true, Ordering::Release);
            reader.join().unwrap();
            oracles
        });

        t.check_invariants()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let merged: HashMap<u64, u64> = oracles.into_iter().flatten().collect();
        assert_eq!(t.len(), merged.len(), "seed {seed}: distinct count");
        let keys: Vec<u64> = (0..DOMAIN).collect();
        for (k, got) in keys.iter().zip(t.lookup_batch(&keys)) {
            assert_eq!(
                got,
                merged.get(k).copied(),
                "seed {seed}: key {k} diverged from the merged oracle"
            );
        }
    }
}

#[test]
fn contended_multi_writer_differential_reconciles_obs() {
    // Three writer threads hammer ONE ConcurrentMcCuckoo, with every op
    // stream drawn from the testkit's Contended profile — so the writers
    // fight for the table's one writer lock on every op. Each writer
    // owns a disjoint key slice (decidable per-op oracle); afterwards the
    // obs deltas are reconciled against the merged tally: under real
    // interleaving the per-op counters must still add up exactly.
    use mccuckoo_testkit::{gen_ops, MixProfile, TableOp};

    const WRITERS: usize = 3;
    #[cfg(not(feature = "paranoid"))]
    const N_OPS: usize = 4_000;
    #[cfg(feature = "paranoid")]
    const N_OPS: usize = 600;

    #[derive(Default, Clone, Copy)]
    struct Tally {
        attempts: u64,
        lookups: u64,
        hits: u64,
        removes: u64,
        remove_misses: u64,
    }

    for seed in [11u64, 47] {
        let t = ConcurrentMcCuckoo::<u64, u64>::new(McConfig::paper(512, seed));
        let domain = MixProfile::Contended.key_domain(t.capacity());

        let (merged, tally) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WRITERS)
                .map(|tid| {
                    let t = &t;
                    // Writer `tid` owns the keys ≡ tid (mod WRITERS).
                    let key = move |gk: u64| gk * WRITERS as u64 + tid as u64;
                    scope.spawn(move || {
                        let ops = gen_ops(
                            seed.wrapping_add((tid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                            MixProfile::Contended,
                            N_OPS,
                            domain,
                        );
                        let mut oracle: HashMap<u64, u64> = HashMap::new();
                        let mut tl = Tally::default();
                        for op in ops {
                            match op {
                                TableOp::Insert(gk, v) => {
                                    let k = key(gk);
                                    tl.attempts += 1;
                                    if t.insert(k, v).is_ok() {
                                        oracle.insert(k, v);
                                    }
                                }
                                TableOp::InsertNew(gk, v) => {
                                    let k = key(gk);
                                    if let Entry::Vacant(slot) = oracle.entry(k) {
                                        tl.attempts += 1;
                                        if t.insert_new(k, v).is_ok() {
                                            slot.insert(v);
                                        }
                                    }
                                }
                                TableOp::Get(gk) => {
                                    let k = key(gk);
                                    tl.lookups += 1;
                                    let got = t.get(&k);
                                    assert_eq!(
                                        got,
                                        oracle.get(&k).copied(),
                                        "seed {seed} writer {tid}: get {k} diverged"
                                    );
                                    tl.hits += got.is_some() as u64;
                                }
                                TableOp::Contains(gk) => {
                                    let k = key(gk);
                                    tl.lookups += 1;
                                    let c = t.contains(&k);
                                    assert_eq!(
                                        c,
                                        oracle.contains_key(&k),
                                        "seed {seed} writer {tid}: contains {k} diverged"
                                    );
                                    tl.hits += c as u64;
                                }
                                TableOp::Remove(gk) => {
                                    let k = key(gk);
                                    let r = t.remove(&k);
                                    assert_eq!(
                                        r,
                                        oracle.remove(&k),
                                        "seed {seed} writer {tid}: remove {k} diverged"
                                    );
                                    if r.is_some() {
                                        tl.removes += 1;
                                    } else {
                                        tl.remove_misses += 1;
                                    }
                                }
                                TableOp::Clear | TableOp::RefreshStash => {
                                    unreachable!("Contended never emits these")
                                }
                            }
                        }
                        (oracle, tl)
                    })
                })
                .collect();
            let mut merged: HashMap<u64, u64> = HashMap::new();
            let mut sum = Tally::default();
            for h in handles {
                let (oracle, tl) = h.join().unwrap();
                merged.extend(oracle);
                sum.attempts += tl.attempts;
                sum.lookups += tl.lookups;
                sum.hits += tl.hits;
                sum.removes += tl.removes;
                sum.remove_misses += tl.remove_misses;
            }
            (merged, sum)
        });

        // Final contents match the merged per-writer oracles.
        t.check_invariants()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(t.len(), merged.len(), "seed {seed}: distinct count");
        for (&k, &v) in &merged {
            assert_eq!(t.get(&k), Some(v), "seed {seed}: key {k}");
        }

        // Obs reconciliation: with every op issued by exactly one tallied
        // writer, the table's counters must add up under interleaving.
        let snap = t.stats();
        let fin = snap.ops.inserts + snap.ops.updates + snap.ops.failed_inserts;
        assert_eq!(fin, tally.attempts, "seed {seed}: insert attempts");
        assert_eq!(
            snap.ops.lookup_hits + snap.ops.lookup_misses,
            tally.lookups + merged.len() as u64, // the final sweep above
            "seed {seed}: lookups"
        );
        assert_eq!(
            snap.ops.lookup_hits,
            tally.hits + merged.len() as u64,
            "seed {seed}: hits"
        );
        assert_eq!(snap.ops.removes, tally.removes, "seed {seed}: removes");
        assert_eq!(
            snap.ops.remove_misses, tally.remove_misses,
            "seed {seed}: remove misses"
        );
        assert_eq!(
            snap.probe_hist.count,
            tally.lookups + merged.len() as u64,
            "seed {seed}: probe histogram count"
        );
        assert_eq!(
            snap.kick_hist.count,
            snap.ops.inserts + snap.ops.failed_inserts,
            "seed {seed}: kick histogram counts fresh attempts only"
        );
    }
}

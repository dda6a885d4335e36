//! Tests pinning the reproduction's refinements and secondary findings
//! (EXPERIMENTS.md §Findings).

use mccuckoo_bench::harness::fill_sweep;
use mccuckoo_bench::{AnyTable, Scheme};
use mccuckoo_core::{BlockedConfig, DeletionMode, McConfig, McCuckoo};
use workloads::UniqueKeys;

/// Finding 3: the paper's "solely on-chip" counter maintenance is not
/// quite achievable — identifying a victim's sibling copies needs
/// verification reads when another item coincidentally shares the
/// counter value. With the creation-time hint bitmaps the exact
/// implementation keeps that overhead under ~8% of fill-time reads
/// (≈0.05–0.1 extra reads per insertion); without hints it was ~19%.
#[test]
fn verify_reads_are_bounded() {
    for scheme in [Scheme::McCuckoo, Scheme::BMcCuckoo] {
        let mut t = AnyTable::build(scheme, 45_000, 900, 500, false);
        let bands: Vec<f64> = (1..=17).map(|i| i as f64 * 0.05).collect();
        let stats = fill_sweep(&mut t, &bands, 901, |_, _| {});
        let s = t.snapshot();
        assert!(s.offchip_reads > 0);
        let frac = s.verify_reads as f64 / s.offchip_reads as f64;
        // Measured: ~6% for single-slot, ~13% for blocked (whose total
        // reads are much lower, inflating the fraction).
        let limit = if scheme == Scheme::McCuckoo {
            0.08
        } else {
            0.16
        };
        assert!(
            frac < limit,
            "{}: verify reads are {:.3}% of reads",
            scheme.label(),
            frac * 100.0
        );
        let inserts: u64 = stats.iter().map(|b| b.inserts).sum();
        let per_insert = s.verify_reads as f64 / inserts as f64;
        assert!(
            per_insert < 0.15,
            "{}: {per_insert:.3} verify reads per insertion",
            scheme.label()
        );
    }
}

/// Finding 1 (flow_table): under uniform access McCuckoo's hit lookups
/// beat standard cuckoo's, but for the *earliest-inserted* keys the
/// ordering inverts — standard cuckoo leaves them at their first
/// candidate while McCuckoo's surviving copy is positionally arbitrary.
#[test]
fn early_key_locality_inversion() {
    let n = 20_000;
    let mut mc = AnyTable::build(Scheme::McCuckoo, 3 * n, 910, 500, false);
    let mut cu = AnyTable::build(Scheme::Cuckoo, 3 * n, 910, 500, false);
    let mut keys = UniqueKeys::new(911);
    let all = keys.take_vec(3 * n * 81 / 100);
    for &k in &all {
        mc.insert_new(k, k);
        cu.insert_new(k, k);
    }
    let probe = |t: &AnyTable, ks: &[u64]| {
        let b = t.snapshot();
        for k in ks {
            assert_eq!(t.get(k), Some(*k));
        }
        (t.snapshot() - b).offchip_reads as f64 / ks.len() as f64
    };
    // Uniform sample: McCuckoo wins.
    assert!(probe(&mc, &all) < probe(&cu, &all), "uniform ordering");
    // Earliest tenth: standard cuckoo wins.
    let early = &all[..all.len() / 10];
    assert!(
        probe(&cu, early) < probe(&mc, early),
        "early-key ordering must invert"
    );
}

/// The blocked table works across its full supported geometry.
#[test]
fn blocked_geometry_sweep() {
    use mccuckoo_core::BlockedMcCuckoo;
    for d in [2usize, 3, 4] {
        for l in [1usize, 2, 4, 8] {
            let n = 256;
            let mut t: BlockedMcCuckoo<u64, u64> = BlockedMcCuckoo::new(BlockedConfig {
                base: McConfig::paper_with_deletion(n, 920).with_d(d),
                slots: l,
            });
            let cap = d * n * l;
            let target = cap / 2;
            let mut keys = UniqueKeys::new(921 + (d * 10 + l) as u64);
            let ks = keys.take_vec(target);
            for &k in &ks {
                t.insert_new(k, k).unwrap();
            }
            for &k in &ks {
                assert_eq!(t.get(&k), Some(&k), "d={d} l={l}");
            }
            for &k in ks.iter().take(target / 2) {
                assert_eq!(t.remove(&k), Some(k), "d={d} l={l}");
            }
            t.check_invariants()
                .unwrap_or_else(|e| panic!("d={d} l={l}: {e}"));
        }
    }
}

/// Rehash and growth compose with all deletion modes and the map
/// wrapper sustains interleaved growth + churn.
#[test]
fn growth_under_churn() {
    use mccuckoo_core::McMap;
    let mut m: McMap<u64, u64> = McMap::with_capacity(64);
    let mut keys = UniqueKeys::new(930);
    let mut live: Vec<u64> = Vec::new();
    let mut rng = hash_kit::SplitMix64::new(931);
    for _ in 0..40_000 {
        match rng.next_below(5) {
            0..=2 => {
                let k = keys.next_key();
                m.insert(k, k);
                live.push(k);
            }
            3 if !live.is_empty() => {
                let i = rng.next_below(live.len() as u64) as usize;
                let k = live.swap_remove(i);
                assert_eq!(m.remove(&k), Some(k));
            }
            _ if !live.is_empty() => {
                let i = rng.next_below(live.len() as u64) as usize;
                assert_eq!(m.get(&live[i]), Some(&live[i]));
            }
            _ => {}
        }
    }
    assert_eq!(m.len(), live.len());
    m.table().check_invariants().unwrap();
}

/// Tombstone-mode rule 1 stays sound across rehash (tombstones do not
/// survive a rehash — the rebuilt table starts scar-free).
#[test]
fn rehash_clears_tombstone_decay() {
    let mut t: McCuckoo<u64, u64> =
        McCuckoo::new(McConfig::paper(2_048, 940).with_deletion(DeletionMode::Tombstone));
    let mut keys = UniqueKeys::new(941);
    let ks = keys.take_vec(3_000);
    for &k in &ks {
        t.insert_new(k, k).unwrap();
    }
    for &k in ks.iter().take(1_500) {
        t.remove(&k);
    }
    // Decayed filter: misses now cost reads.
    let miss_reads = |t: &McCuckoo<u64, u64>, keys: &UniqueKeys| {
        let b = t.meter().snapshot();
        for j in 0..2_000 {
            assert_eq!(t.get(&keys.absent_key(j)), None);
        }
        (t.meter().snapshot() - b).offchip_reads as f64 / 2_000.0
    };
    let before = miss_reads(&t, &keys);
    t.rehash(None, 942).unwrap();
    let after = miss_reads(&t, &keys);
    assert!(
        after < before,
        "rehash must restore filter power: {after} ≥ {before}"
    );
    for &k in ks.iter().skip(1_500) {
        assert_eq!(t.get(&k), Some(&k));
    }
    t.check_invariants().unwrap();
}

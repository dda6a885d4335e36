//! CI smoke benchmark: one quick pass over every scheme (the paper's
//! four plus the sharded serving layer) through the shared
//! [`mccuckoo_core::McTable`] interface, emitting a machine-readable
//! JSON summary to `results/bench_smoke.json`.
//!
//! Unlike the figure/table binaries (which reproduce specific paper
//! artefacts), this run exists to catch performance-shape regressions
//! cheaply on every push: per-scheme insert/lookup access counts, wall
//! times and the table's own observability counters at a moderate load,
//! small enough to finish in seconds. The fill is timed as the best of
//! [`FILL_RUNS`] identical fills. The lookup throughput of the four
//! single-table schemes (the two whose batched path is gated and their
//! baselines, so the columns compare like for like) is measured on a
//! second, DRAM-resident fill ([`dram_lookup_mops`]); the sharded
//! table's stays on the smoke table. Scale is controlled by the usual
//! `MCB_*` environment knobs; `bench_gate` compares the output against
//! the committed baseline.

use std::time::Instant;

use mccuckoo_bench::harness::{
    fill_sweep, measure_lookup_hits, measure_lookup_misses, measure_lookup_throughput, Config,
};
use mccuckoo_bench::report::csv_path;
use mccuckoo_bench::smoke::{dram_lookup_bytes, SchemeSmoke, SmokeReport};
use mccuckoo_bench::{AnyTable, Scheme};

/// Identical fills timed per scheme; the insert rate comes from the
/// fastest. One smoke fill lasts 6–12 ms, inside its own run-to-run
/// noise, so a single cold fill cannot resolve the gate's 30 % bound;
/// the best of several, on an allocator and caches warmed by the
/// earlier ones, can.
const FILL_RUNS: usize = 5;

/// Timed passes per lookup mode on the DRAM-resident table; each pass
/// lasts milliseconds, so the best of several filters out a noisy spell
/// of a shared host.
const DRAM_RUNS: u64 = 5;

/// Rounds of [`measure_lookup_throughput`] on the cache-resident smoke
/// table (the sharded table's ungated columns), each column the best of
/// them. One CI-mode round times one 7,500-key pass per column, about
/// half a millisecond, so with one round a single descheduling decides
/// the batched/single ratio. Rounds reuse their keys, which costs
/// nothing on a table that stays in cache.
const SMOKE_LOOKUP_ROUNDS: usize = 15;

/// Bytes of one slot record of the sequential tables
/// (`Option<Entry<u64, u64>>`). Their flag and counter planes add more,
/// so a table of `bytes / SLOT_BYTES` slots holds at least `bytes`.
const SLOT_BYTES: usize = 24;

/// Single-key and batched lookup Mops of `scheme` on a fill of `bytes`
/// (see [`dram_lookup_bytes`]) to `load`, each the best of
/// [`DRAM_RUNS`] passes over keys no other pass touched.
fn dram_lookup_mops(scheme: Scheme, cfg: &Config, load: f64, bytes: usize) -> (f64, f64) {
    let seed = 0xD4A7;
    let mut t = AnyTable::build(
        scheme,
        bytes.div_ceil(SLOT_BYTES),
        0x57A7,
        cfg.maxloop,
        false,
    );
    fill_sweep(&mut t, &[load], seed, |_, _| {});
    measure_lookup_throughput(&t, seed, t.len() as u64, cfg.lookups, DRAM_RUNS)
}

fn main() {
    let cfg = Config::from_env();
    let target_load = 0.5;
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok();
    let dram_bytes = dram_lookup_bytes(l3.as_deref());
    let mut schemes = Vec::new();
    for scheme in Scheme::WITH_SHARDED {
        let fill_seed = 0xF111;
        // Every run builds and fills the same table from the same seeds,
        // so the last one's counts and stats are every run's.
        let mut fill_us = u64::MAX;
        let mut filled = None;
        for _ in 0..FILL_RUNS {
            let mut t = AnyTable::build(scheme, cfg.cap, 0x57A7, cfg.maxloop, false);
            let start = Instant::now();
            let before = t.snapshot();
            fill_sweep(&mut t, &[target_load], fill_seed, |_, _| {});
            fill_us = fill_us.min(start.elapsed().as_micros().max(1) as u64);
            let delta = t.snapshot() - before;
            filled = Some((t, delta));
        }
        let (t, fill_delta) = filled.expect("FILL_RUNS > 0");
        let inserted = t.len() as f64;
        let insert_mops = inserted / fill_us as f64;

        let hit_reads = measure_lookup_hits(&t, fill_seed, t.len() as u64, cfg.lookups);
        let (miss_reads, _) = measure_lookup_misses(&t, 0xD00D, cfg.lookups);
        let (lookup_mops, lookup_batch_mops) = if scheme != Scheme::Sharded {
            println!(
                "[smoke] {:<10} lookups on a {} MiB fill",
                scheme.label(),
                dram_bytes >> 20
            );
            dram_lookup_mops(scheme, &cfg, target_load, dram_bytes)
        } else {
            (0..SMOKE_LOOKUP_ROUNDS)
                .map(|_| {
                    measure_lookup_throughput(&t, fill_seed, t.len() as u64, cfg.lookups, cfg.runs)
                })
                .fold((0.0, 0.0), |(s, b), (s1, b1)| {
                    (f64::max(s, s1), f64::max(b, b1))
                })
        };

        schemes.push(SchemeSmoke {
            scheme: scheme.label().to_string(),
            capacity: t.capacity() as u64,
            load: t.load_ratio(),
            fill_ms: fill_us / 1_000,
            insert_mops,
            offchip_reads_per_insert: fill_delta.offchip_reads as f64 / inserted,
            offchip_writes_per_insert: fill_delta.offchip_writes as f64 / inserted,
            lookup_hit_reads: hit_reads,
            lookup_miss_reads: miss_reads,
            lookup_mops,
            lookup_batch_mops,
            stash_len: t.stash_len() as u64,
            stats: t.stats(),
        });
        let s = schemes.last().expect("just pushed");
        println!(
            "[smoke] {:<10} load {:.2} fill {} ms ({:.2} Mops), {:.2} r/ins {:.2} w/ins, \
             hit {:.2} miss {:.2} reads, lookup {:.2}/{:.2} Mops (single/batch), {} kicks",
            scheme.label(),
            t.load_ratio(),
            s.fill_ms,
            insert_mops,
            s.offchip_reads_per_insert,
            s.offchip_writes_per_insert,
            hit_reads,
            miss_reads,
            lookup_mops,
            lookup_batch_mops,
            s.stats.ops.kicks,
        );
    }
    let report = SmokeReport {
        cap_slots: cfg.cap as u64,
        target_load,
        lookups: cfg.lookups as u64,
        schemes,
    };
    // csv_path creates results/; reuse the directory for the JSON file.
    let path = csv_path("bench_smoke").with_extension("json");
    match std::fs::write(&path, jsonlite::to_string(&report)) {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => {
            eprintln!("[json] failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

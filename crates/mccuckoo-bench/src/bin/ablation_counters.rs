//! Ablation: what do the counters buy during collision resolution?
//!
//! Compares kick-outs and off-chip reads per insertion at high load for:
//! standard Cuckoo with random-walk, standard Cuckoo with BFS,
//! McCuckoo with random-walk (the paper's setup), and McCuckoo with
//! MinCounter victim selection (paper ref \[17\], the
//! `KickPolicyKind::MinCounter` policy).

use cuckoo_baselines::{CuckooConfig, DaryCuckoo, KickPolicy};
use mccuckoo_bench::harness::Config;
use mccuckoo_bench::report::{f4, write_csv, Table};
use mccuckoo_core::{KickPolicyKind, McConfig, McCuckoo};
use mem_model::MemStats;
use workloads::DocWordsLike;

/// (load, kick-outs/insert, reads/insert) series over the bands.
type Series = Vec<(f64, f64, f64)>;

fn run_baseline(policy: KickPolicy) -> impl Fn(&Config, u64, &[f64]) -> Series {
    move |cfg, seed, bands| {
        let mut t: DaryCuckoo<u64, u64> = DaryCuckoo::new(CuckooConfig {
            policy,
            maxloop: cfg.maxloop,
            ..CuckooConfig::paper(cfg.cap / 3, seed)
        });
        sweep(bands, cfg.cap, seed, |k| {
            let before = t.meter().snapshot();
            let kicks = t.insert(k, k).map(|r| r.kickouts).unwrap_or(cfg.maxloop);
            (kicks as u64, t.meter().snapshot() - before)
        })
    }
}

fn run_mc(policy: KickPolicyKind) -> impl Fn(&Config, u64, &[f64]) -> Series {
    move |cfg, seed, bands| {
        let mut t: McCuckoo<u64, u64> =
            McCuckoo::new(McConfig::paper(cfg.cap / 3, seed).with_kick_policy(policy));
        sweep(bands, cfg.cap, seed, |k| {
            let before = t.meter().snapshot();
            let kicks = t
                .insert_new(k, k)
                .map(|r| r.kickouts)
                .unwrap_or(cfg.maxloop);
            (kicks as u64, t.meter().snapshot() - before)
        })
    }
}

/// Drive the insert closure over the bands, aggregating per segment.
fn sweep(
    bands: &[f64],
    cap: usize,
    seed: u64,
    mut insert: impl FnMut(u64) -> (u64, MemStats),
) -> Series {
    let mut gen = DocWordsLike::nytimes_like(seed);
    let mut inserted = 0u64;
    let mut out = Vec::new();
    for &band in bands {
        let target = (band * cap as f64).round() as u64;
        let mut kicks = 0u64;
        let mut stats = MemStats::default();
        let segment = target - inserted;
        for _ in 0..segment {
            let (k, d) = insert(gen.next_key());
            kicks += k;
            stats += d;
        }
        inserted = target;
        out.push((
            band,
            kicks as f64 / segment as f64,
            stats.offchip_reads as f64 / segment as f64,
        ));
    }
    out
}

fn main() {
    let cfg = Config::from_env();
    let bands: Vec<f64> = [0.5f64, 0.6, 0.7, 0.8, 0.85, 0.88].to_vec();
    let runs: Vec<(&str, Series)> = vec![
        (
            "Cuckoo/random-walk",
            run_baseline(KickPolicy::RandomWalk)(&cfg, 210, &bands),
        ),
        (
            "Cuckoo/BFS",
            run_baseline(KickPolicy::Bfs)(&cfg, 210, &bands),
        ),
        (
            "McCuckoo/random-walk",
            run_mc(KickPolicyKind::RandomWalk)(&cfg, 210, &bands),
        ),
        (
            "McCuckoo/MinCounter",
            run_mc(KickPolicyKind::MinCounter)(&cfg, 210, &bands),
        ),
    ];
    let mut kicks_tbl = Table::new(
        "Ablation: kick-outs per insertion by resolution strategy",
        &["load", runs[0].0, runs[1].0, runs[2].0, runs[3].0],
    );
    let mut reads_tbl = Table::new(
        "Ablation: off-chip reads per insertion by resolution strategy",
        &["load", runs[0].0, runs[1].0, runs[2].0, runs[3].0],
    );
    for i in 0..bands.len() {
        kicks_tbl.row(
            std::iter::once(format!("{:.0}%", bands[i] * 100.0))
                .chain(runs.iter().map(|(_, v)| f4(v[i].1)))
                .collect(),
        );
        reads_tbl.row(
            std::iter::once(format!("{:.0}%", bands[i] * 100.0))
                .chain(runs.iter().map(|(_, v)| f4(v[i].2)))
                .collect(),
        );
    }
    kicks_tbl.print();
    println!();
    reads_tbl.print();
    write_csv("ablation_counters_kickouts", &kicks_tbl);
    write_csv("ablation_counters_reads", &reads_tbl);
}

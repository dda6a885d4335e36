//! Shared measurement machinery: fill sweeps, lookup/deletion sampling,
//! first-collision / first-failure detection.

use mem_model::{InsertOutcome, MemStats};
use workloads::DocWordsLike;

use crate::schemes::{AnyTable, Scheme};

/// Experiment-wide knobs, read from the environment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Total table capacity in slots.
    pub cap: usize,
    /// Repetitions averaged per point.
    pub runs: u64,
    /// Lookups sampled per measurement.
    pub lookups: usize,
    /// Relocation budget.
    pub maxloop: u32,
}

impl Config {
    /// Read `MCB_CAP`, `MCB_RUNS`, `MCB_LOOKUPS` from the environment.
    pub fn from_env() -> Self {
        fn env<T: std::str::FromStr>(name: &str, default: T) -> T {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        }
        Self {
            cap: env("MCB_CAP", 393_216),
            runs: env("MCB_RUNS", 5),
            lookups: env("MCB_LOOKUPS", 100_000),
            maxloop: env("MCB_MAXLOOP", 500),
        }
    }

    /// The load bands of the fill sweeps (5%…95% in 5% steps, clipped by
    /// the scheme's failure-free peak).
    pub fn bands(&self, scheme: Scheme) -> Vec<f64> {
        (1..=19)
            .map(|i| i as f64 * 0.05)
            .filter(|&b| b <= scheme.max_sweep_load() + 1e-9)
            .collect()
    }
}

/// Per-band measurements of one fill run.
#[derive(Debug, Clone, Copy)]
pub struct BandStats {
    /// Load ratio at the end of the band segment.
    pub load: f64,
    /// Mean kick-outs per insertion within the segment.
    pub kickouts_per_insert: f64,
    /// Mean off-chip reads per insertion within the segment.
    pub reads_per_insert: f64,
    /// Mean off-chip writes per insertion within the segment.
    pub writes_per_insert: f64,
    /// Raw meter delta of the segment.
    pub delta: MemStats,
    /// Insertions in the segment.
    pub inserts: u64,
    /// Items that went to the stash (or failed) in the segment.
    pub failures: u64,
}

/// Fill `table` band by band with DocWords-like keys, measuring each
/// segment. `on_band` fires after each band with the filled table
/// available for extra per-band sampling (lookups, deletions on the
/// side).
pub fn fill_sweep(
    table: &mut AnyTable,
    bands: &[f64],
    seed: u64,
    mut on_band: impl FnMut(&mut AnyTable, &BandStats),
) -> Vec<BandStats> {
    let mut gen = DocWordsLike::nytimes_like(seed);
    let cap = table.capacity();
    let mut inserted = 0u64;
    let mut out = Vec::with_capacity(bands.len());
    for &band in bands {
        let target = (band * cap as f64).round() as u64;
        let before = table.snapshot();
        let mut kicks = 0u64;
        let mut fails = 0u64;
        let segment = target.saturating_sub(inserted);
        for _ in 0..segment {
            let k = gen.next_key();
            let r = table.insert_new(k, k);
            kicks += r.kickouts as u64;
            if matches!(r.outcome, InsertOutcome::Stashed | InsertOutcome::Failed) {
                fails += 1;
            }
        }
        inserted = target;
        let delta = table.snapshot() - before;
        let stats = BandStats {
            load: band,
            kickouts_per_insert: kicks as f64 / segment.max(1) as f64,
            reads_per_insert: delta.offchip_reads as f64 / segment.max(1) as f64,
            writes_per_insert: delta.offchip_writes as f64 / segment.max(1) as f64,
            delta,
            inserts: segment,
            failures: fails,
        };
        on_band(table, &stats);
        out.push(stats);
    }
    out
}

/// Off-chip reads per lookup over `samples` *present* keys drawn from the
/// first `inserted` keys of the generator stream.
pub fn measure_lookup_hits(table: &AnyTable, seed: u64, inserted: u64, samples: usize) -> f64 {
    let mut gen = DocWordsLike::nytimes_like(seed);
    // Re-derive the inserted key stream, then sample it evenly.
    let step = (inserted as usize / samples.max(1)).max(1);
    let keys: Vec<u64> = (0..inserted).map(|_| gen.next_key()).collect();
    let before = table.snapshot();
    let mut n = 0u64;
    for k in keys.iter().step_by(step) {
        let got = table.get(k);
        assert_eq!(got, Some(*k), "present key must be found");
        n += 1;
    }
    let delta = table.snapshot() - before;
    delta.offchip_reads as f64 / n as f64
}

/// Full access-stats variant of [`measure_lookup_hits`]: returns the
/// meter delta and the number of lookups performed (for the latency
/// model, which also needs on-chip counts).
pub fn measure_lookup_hits_stats(
    table: &AnyTable,
    seed: u64,
    inserted: u64,
    samples: usize,
) -> (MemStats, u64) {
    let mut gen = DocWordsLike::nytimes_like(seed);
    let step = (inserted as usize / samples.max(1)).max(1);
    let keys: Vec<u64> = (0..inserted).map(|_| gen.next_key()).collect();
    let before = table.snapshot();
    let mut n = 0u64;
    for k in keys.iter().step_by(step) {
        assert_eq!(table.get(k), Some(*k));
        n += 1;
    }
    (table.snapshot() - before, n)
}

/// Off-chip reads per lookup over `samples` *absent* keys.
pub fn measure_lookup_misses(table: &AnyTable, seed: u64, samples: usize) -> (f64, MemStats) {
    let gen = DocWordsLike::nytimes_like(seed);
    let before = table.snapshot();
    for j in 0..samples as u64 {
        let got = table.get(&gen.absent_key(j));
        assert_eq!(got, None, "absent key must miss");
    }
    let delta = table.snapshot() - before;
    (delta.offchip_reads as f64 / samples as f64, delta)
}

/// Batch size for the batched lookup-throughput pass: large enough to
/// amortise dispatch and fill the prefetch pipeline, small enough that a
/// batch's candidate lines fit in L1/L2 together.
pub const LOOKUP_BATCH: usize = 256;

/// Wall-clock lookup throughput over present keys, in Mops:
/// `(single_key, batched)`, each the fastest of `runs` timed passes. The
/// single-key pass loops [`AnyTable::get`], the batched pass feeds
/// [`LOOKUP_BATCH`]-sized chunks to [`AnyTable::get_batch`]; the two
/// alternate, after one untimed pass of each. Every pass resolves its
/// own `samples` keys (fewer when the table holds too few), disjoint
/// from every other pass's and spread over the whole fill order, so no
/// timed pass finds lines an earlier one pulled into the cache: on a
/// table larger than the cache every probe misses to DRAM, as it would
/// in service.
pub fn measure_lookup_throughput(
    table: &AnyTable,
    seed: u64,
    inserted: u64,
    samples: usize,
    runs: u64,
) -> (f64, f64) {
    let passes = 2 * runs.max(1) as usize + 1;
    let per_pass = samples.min(inserted as usize / passes).max(1);
    let step = (inserted as usize / (per_pass * passes)).max(1);
    // Stride sample `i` goes to pass `i % passes`.
    let mut keys = vec![Vec::with_capacity(per_pass); passes];
    let mut gen = DocWordsLike::nytimes_like(seed);
    for i in 0..inserted as usize {
        let k = gen.next_key();
        if i % step == 0 && i / step < per_pass * passes {
            keys[i / step % passes].push(k);
        }
    }
    let time = |pass: &[u64], batched: bool| {
        let t0 = std::time::Instant::now();
        let hits = if batched {
            pass.chunks(LOOKUP_BATCH)
                .map(|chunk| {
                    let got = std::hint::black_box(table.get_batch(chunk));
                    got.iter().filter(|g| g.is_some()).count()
                })
                .sum()
        } else {
            pass.iter()
                .filter(|k| std::hint::black_box(table.get(k)).is_some())
                .count()
        };
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(hits, pass.len(), "present keys must all hit");
        pass.len() as f64 / secs.max(1e-9) / 1e6
    };
    time(&keys[0], false);
    time(&keys[0], true);
    let (mut single, mut batch) = (0f64, 0f64);
    for pair in keys[1..].chunks(2) {
        single = single.max(time(&pair[0], false));
        batch = batch.max(time(&pair[1], true));
    }
    (single, batch)
}

/// Reads and writes per deletion over `samples` present keys (destructive
/// — run on a sacrificial fill).
pub fn measure_deletions(
    table: &mut AnyTable,
    seed: u64,
    inserted: u64,
    samples: usize,
) -> (f64, f64) {
    let mut gen = DocWordsLike::nytimes_like(seed);
    let step = (inserted as usize / samples.max(1)).max(1);
    let keys: Vec<u64> = (0..inserted).map(|_| gen.next_key()).collect();
    let before = table.snapshot();
    let mut n = 0u64;
    for k in keys.iter().step_by(step) {
        let got = table.remove(k);
        assert_eq!(got, Some(*k), "present key must be deletable");
        n += 1;
    }
    let delta = table.snapshot() - before;
    (
        delta.offchip_reads as f64 / n as f64,
        delta.offchip_writes as f64 / n as f64,
    )
}

/// Fill until the first real collision; returns the load ratio at which
/// it occurred (Table I).
pub fn first_collision_load(table: &mut AnyTable, seed: u64) -> f64 {
    let mut gen = DocWordsLike::nytimes_like(seed);
    let cap = table.capacity();
    for i in 0..cap as u64 * 2 {
        let k = gen.next_key();
        let r = table.insert_new(k, k);
        if r.collision {
            return i as f64 / cap as f64;
        }
    }
    panic!("no collision up to 200% load — table misconfigured");
}

/// Fill until the first insertion failure (stash/fail); returns the load
/// ratio at which it occurred (Fig. 11).
pub fn first_failure_load(table: &mut AnyTable, seed: u64) -> f64 {
    let mut gen = DocWordsLike::nytimes_like(seed);
    let cap = table.capacity();
    for i in 0..cap as u64 * 2 {
        let k = gen.next_key();
        let r = table.insert_new(k, k);
        if matches!(r.outcome, InsertOutcome::Stashed | InsertOutcome::Failed) {
            return i as f64 / cap as f64;
        }
    }
    panic!("no failure up to 200% load — table misconfigured");
}

/// Mean of an iterator of f64s.
pub fn mean(vals: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for v in vals {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> Config {
        Config {
            cap: 9_000,
            runs: 1,
            lookups: 2_000,
            maxloop: 500,
        }
    }

    #[test]
    fn bands_are_clipped_per_scheme() {
        let cfg = small_cfg();
        let cuckoo = cfg.bands(Scheme::Cuckoo);
        let bmc = cfg.bands(Scheme::BMcCuckoo);
        assert!(cuckoo.last().unwrap() <= &0.88);
        assert!(bmc.last().unwrap() >= &0.95);
        assert!((cuckoo[0] - 0.05).abs() < 1e-12);
    }

    #[test]
    fn fill_sweep_reaches_each_band() {
        let cfg = small_cfg();
        let mut t = AnyTable::build(Scheme::McCuckoo, cfg.cap, 7, cfg.maxloop, false);
        let bands = [0.1, 0.3, 0.5];
        let stats = fill_sweep(&mut t, &bands, 7, |tab, s| {
            assert!((tab.load_ratio() - s.load).abs() < 0.01);
        });
        assert_eq!(stats.len(), 3);
        assert!((t.load_ratio() - 0.5).abs() < 0.01);
        // Multi-copy writes ~3 copies per insert at low load.
        assert!(stats[0].writes_per_insert > 2.0);
    }

    #[test]
    fn lookup_measurements_are_consistent() {
        let cfg = small_cfg();
        let mut t = AnyTable::build(Scheme::Cuckoo, cfg.cap, 9, cfg.maxloop, false);
        fill_sweep(&mut t, &[0.5], 9, |_, _| {});
        let inserted = (0.5 * cfg.cap as f64).round() as u64;
        let hits = measure_lookup_hits(&t, 9, inserted, 500);
        assert!((1.0..=3.0).contains(&hits), "hit reads {hits}");
        let (misses, _) = measure_lookup_misses(&t, 9, 500);
        assert!((misses - 3.0).abs() < 1e-9, "cuckoo miss must probe all 3");
    }

    #[test]
    fn mccuckoo_misses_cost_less_than_baseline() {
        let cfg = small_cfg();
        let mut base = AnyTable::build(Scheme::Cuckoo, cfg.cap, 11, cfg.maxloop, false);
        let mut mc = AnyTable::build(Scheme::McCuckoo, cfg.cap, 11, cfg.maxloop, false);
        fill_sweep(&mut base, &[0.5], 11, |_, _| {});
        fill_sweep(&mut mc, &[0.5], 11, |_, _| {});
        let (b, _) = measure_lookup_misses(&base, 11, 1_000);
        let (m, _) = measure_lookup_misses(&mc, 11, 1_000);
        assert!(m < b, "McCuckoo miss reads {m} ≥ baseline {b}");
    }

    #[test]
    fn first_collision_ordering_matches_table1() {
        let cfg = small_cfg();
        let mut loads = Vec::new();
        for scheme in Scheme::ALL {
            let l = mean((0..3).map(|r| {
                let mut t = AnyTable::build(scheme, cfg.cap, 100 + r, cfg.maxloop, false);
                first_collision_load(&mut t, 200 + r)
            }));
            loads.push(l);
        }
        // Table I order: Cuckoo < McCuckoo < BCHT < B-McCuckoo.
        assert!(
            loads[0] < loads[1],
            "Cuckoo {} < McCuckoo {}",
            loads[0],
            loads[1]
        );
        assert!(
            loads[1] < loads[2],
            "McCuckoo {} < BCHT {}",
            loads[1],
            loads[2]
        );
        assert!(
            loads[2] < loads[3],
            "BCHT {} < B-McCuckoo {}",
            loads[2],
            loads[3]
        );
    }

    #[test]
    fn deletion_measurement_runs() {
        let cfg = small_cfg();
        let mut t = AnyTable::build(Scheme::McCuckoo, cfg.cap, 13, cfg.maxloop, true);
        fill_sweep(&mut t, &[0.4], 13, |_, _| {});
        let inserted = (0.4 * cfg.cap as f64).round() as u64;
        let (reads, writes) = measure_deletions(&mut t, 13, inserted, 300);
        assert!(reads >= 1.0);
        assert_eq!(writes, 0.0, "multi-copy deletion never writes off-chip");
    }
}

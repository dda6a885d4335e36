//! The cross-scheme smoke report format plus the regression gate that
//! compares a fresh run against the committed baseline.
//!
//! `bench_smoke` writes a [`SmokeReport`] to `results/bench_smoke.json`;
//! `bench_gate` re-reads it, loads `results/bench_smoke_baseline.json`
//! and fails CI when a scheme regressed. Two kinds of metric are gated
//! differently:
//!
//! * **Access counts** (off-chip reads/writes per op) are deterministic
//!   for a given seed and scale, so any growth beyond the tolerance is a
//!   genuine algorithmic regression.
//! * **Wall-clock throughput** is machine-dependent, so it is gated on
//!   the ratio to the run's own reference scheme (standard Cuckoo):
//!   the machine's speed cancels out and only relative slowdowns trip.

use jsonlite::impl_json_struct;
use mccuckoo_core::TableStats;

/// Relative slack before a metric counts as regressed.
pub const GATE_TOLERANCE: f64 = 0.30;

/// One scheme's smoke measurements.
#[derive(Debug, Clone)]
pub struct SchemeSmoke {
    /// Scheme label ([`crate::Scheme::label`]).
    pub scheme: String,
    /// Total slot capacity of the table built.
    pub capacity: u64,
    /// Load ratio reached by the fill.
    pub load: f64,
    /// Wall time of the fill, milliseconds.
    pub fill_ms: u64,
    /// Million fresh inserts per second during the fill.
    pub insert_mops: f64,
    /// Off-chip reads per insert during the fill.
    pub offchip_reads_per_insert: f64,
    /// Off-chip writes per insert during the fill.
    pub offchip_writes_per_insert: f64,
    /// Off-chip reads per present-key lookup.
    pub lookup_hit_reads: f64,
    /// Off-chip reads per absent-key lookup.
    pub lookup_miss_reads: f64,
    /// Million single-key present lookups per second. For every scheme
    /// but the sharded table (the schemes [`gate_lookup_batch`] gates
    /// and their baselines), measured on a separate DRAM-resident fill
    /// of the same size ([`dram_lookup_bytes`]).
    pub lookup_mops: f64,
    /// Million present lookups per second through the batched
    /// (prefetch-interleaved) read path, on the same table as
    /// `lookup_mops`.
    pub lookup_batch_mops: f64,
    /// Stash occupancy after the fill.
    pub stash_len: u64,
    /// The table's own observability counters after the run.
    pub stats: TableStats,
}

/// The whole smoke run.
#[derive(Debug, Clone)]
pub struct SmokeReport {
    /// `MCB_CAP` the run used.
    pub cap_slots: u64,
    /// Fill target load.
    pub target_load: f64,
    /// `MCB_LOOKUPS` the run used.
    pub lookups: u64,
    /// Per-scheme measurements, reference scheme first.
    pub schemes: Vec<SchemeSmoke>,
}

impl_json_struct!(SchemeSmoke {
    scheme,
    capacity,
    load,
    fill_ms,
    insert_mops,
    offchip_reads_per_insert,
    offchip_writes_per_insert,
    lookup_hit_reads,
    lookup_miss_reads,
    lookup_mops,
    lookup_batch_mops,
    stash_len,
    stats
});
impl_json_struct!(SmokeReport {
    cap_slots,
    target_load,
    lookups,
    schemes
});

impl SmokeReport {
    /// The scheme every throughput figure is normalised against: the
    /// first entry of the run (standard Cuckoo in the stock sweep).
    fn reference_mops(&self) -> Option<f64> {
        self.schemes
            .first()
            .map(|s| s.insert_mops)
            .filter(|&m| m > 0.0)
    }
}

/// Bytes of the table the single-table schemes' lookup throughput is
/// measured on: twice the last-level cache named by `l3_size` (the text of
/// `/sys/devices/system/cpu/cpu0/cache/index3/size`, e.g. `"32768K"`),
/// so most probes miss to DRAM as in service, or 256 MiB when the size
/// is unknown. Batching exists to overlap DRAM misses; on a
/// cache-resident table it has none to overlap.
pub fn dram_lookup_bytes(l3_size: Option<&str>) -> usize {
    let parse = |s: &str| {
        let s = s.trim();
        let shift = match s.bytes().last() {
            Some(b'K') => 10,
            Some(b'M') => 20,
            Some(b'G') => 30,
            _ => 0,
        };
        let digits = if shift > 0 { &s[..s.len() - 1] } else { s };
        digits.parse::<usize>().ok().map(|n| n << shift)
    };
    l3_size
        .and_then(parse)
        .filter(|&b| b > 0)
        .map_or(256 << 20, |b| 2 * b)
}

/// Compare `fresh` against `baseline`; one message per regression (empty
/// means the gate passes).
pub fn gate_regressions(baseline: &SmokeReport, fresh: &SmokeReport) -> Vec<String> {
    let mut fails = Vec::new();
    if baseline.cap_slots != fresh.cap_slots || baseline.lookups != fresh.lookups {
        fails.push(format!(
            "scale mismatch: baseline ran cap={} lookups={}, fresh ran cap={} lookups={} \
             (regenerate the baseline at the gated scale)",
            baseline.cap_slots, baseline.lookups, fresh.cap_slots, fresh.lookups
        ));
        return fails;
    }
    let (base_ref, fresh_ref) = match (baseline.reference_mops(), fresh.reference_mops()) {
        (Some(b), Some(f)) => (b, f),
        _ => {
            fails.push("reference scheme has zero throughput; cannot normalise".into());
            return fails;
        }
    };
    for s in &fresh.schemes {
        let Some(b) = baseline.schemes.iter().find(|b| b.scheme == s.scheme) else {
            fails.push(format!(
                "{}: not in the baseline (regenerate results/bench_smoke_baseline.json)",
                s.scheme
            ));
            continue;
        };
        // Deterministic access counts: more off-chip traffic per op is a
        // regression regardless of the machine. The +0.01 absolute slack
        // keeps near-zero metrics (e.g. multi-copy delete writes) from
        // tripping on rounding.
        let access = [
            (
                "reads/insert",
                b.offchip_reads_per_insert,
                s.offchip_reads_per_insert,
            ),
            (
                "writes/insert",
                b.offchip_writes_per_insert,
                s.offchip_writes_per_insert,
            ),
            ("reads/hit-lookup", b.lookup_hit_reads, s.lookup_hit_reads),
            (
                "reads/miss-lookup",
                b.lookup_miss_reads,
                s.lookup_miss_reads,
            ),
        ];
        for (what, base, now) in access {
            if now > base * (1.0 + GATE_TOLERANCE) + 0.01 {
                fails.push(format!(
                    "{}: {what} regressed {base:.3} -> {now:.3} (>{:.0}% over baseline)",
                    s.scheme,
                    GATE_TOLERANCE * 100.0
                ));
            }
        }
        // Relative throughput: scheme speed vs the reference scheme of
        // the same run, compared across runs.
        let base_rel = b.insert_mops / base_ref;
        let fresh_rel = s.insert_mops / fresh_ref;
        if fresh_rel < base_rel * (1.0 - GATE_TOLERANCE) {
            fails.push(format!(
                "{}: relative insert throughput regressed {base_rel:.3}x -> {fresh_rel:.3}x \
                 of the reference scheme (>{:.0}% drop)",
                s.scheme,
                GATE_TOLERANCE * 100.0
            ));
        }
        // The embedded stats are part of the report contract: a scheme
        // whose counters stayed at zero has a broken obs hook-up.
        if s.stats.ops.inserts == 0 || s.stats.probe_hist.count == 0 {
            fails.push(format!(
                "{}: embedded stats are empty (inserts={}, probe samples={})",
                s.scheme, s.stats.ops.inserts, s.stats.probe_hist.count
            ));
        }
    }
    fails
}

/// Whether [`gate_lookup_batch`] gates the scheme labelled `scheme`.
pub fn lookup_gated(scheme: &str) -> bool {
    matches!(scheme, "McCuckoo" | "B-McCuckoo")
}

/// Gate the batched read path: for the single-writer multi-copy schemes,
/// batched lookups must reach `min_ratio ×` the single-key rate of the
/// *same run* (both passes resolve the same keys on the same machine, so
/// the ratio is machine-independent — the same normalisation trick as the
/// relative-throughput gate). Baselines (which fall back to the default
/// per-key loop) and the sharded table (whose batch path pays an extra
/// routing hash plus scatter/gather per key, so its ratio tracks shard
/// count and core count, not the probe engine) are exempt: their ratios
/// are reported informationally by `bench_gate`, not gated.
pub fn gate_lookup_batch(fresh: &SmokeReport, min_ratio: f64) -> Vec<String> {
    let mut fails = Vec::new();
    for s in &fresh.schemes {
        if !lookup_gated(&s.scheme) {
            continue;
        }
        if s.lookup_mops <= 0.0 || s.lookup_batch_mops <= 0.0 {
            fails.push(format!(
                "{}: lookup throughput columns missing (single={}, batched={}) — \
                 regenerate results/bench_smoke.json with the current bench_smoke",
                s.scheme, s.lookup_mops, s.lookup_batch_mops
            ));
            continue;
        }
        let ratio = s.lookup_batch_mops / s.lookup_mops;
        if ratio < min_ratio {
            fails.push(format!(
                "{}: batched lookups only {:.2}x single-key ({:.2} vs {:.2} Mops; \
                 gate requires ≥{min_ratio:.2}x)",
                s.scheme, ratio, s.lookup_batch_mops, s.lookup_mops
            ));
        }
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme(name: &str, mops: f64, hit_reads: f64) -> SchemeSmoke {
        let mut stats = TableStats::default();
        stats.ops.inserts = 100;
        stats.probe_hist.count = 1;
        stats.probe_hist.sum = 1;
        SchemeSmoke {
            scheme: name.to_string(),
            capacity: 9_000,
            load: 0.5,
            fill_ms: 10,
            insert_mops: mops,
            offchip_reads_per_insert: 3.0,
            offchip_writes_per_insert: 1.0,
            lookup_hit_reads: hit_reads,
            lookup_miss_reads: 3.0,
            lookup_mops: 10.0,
            lookup_batch_mops: 14.0,
            stash_len: 0,
            stats,
        }
    }

    fn report(schemes: Vec<SchemeSmoke>) -> SmokeReport {
        SmokeReport {
            cap_slots: 9_000,
            target_load: 0.5,
            lookups: 1_000,
            schemes,
        }
    }

    #[test]
    fn identical_runs_pass() {
        let base = report(vec![
            scheme("Cuckoo", 10.0, 1.5),
            scheme("McCuckoo", 8.0, 1.2),
        ]);
        assert!(gate_regressions(&base, &base.clone()).is_empty());
    }

    #[test]
    fn uniform_machine_slowdown_passes() {
        let base = report(vec![
            scheme("Cuckoo", 10.0, 1.5),
            scheme("McCuckoo", 8.0, 1.2),
        ]);
        // Half-speed machine: every scheme 2x slower, ratios unchanged.
        let fresh = report(vec![
            scheme("Cuckoo", 5.0, 1.5),
            scheme("McCuckoo", 4.0, 1.2),
        ]);
        assert!(gate_regressions(&base, &fresh).is_empty());
    }

    #[test]
    fn access_count_regression_fails() {
        let base = report(vec![
            scheme("Cuckoo", 10.0, 1.5),
            scheme("McCuckoo", 8.0, 1.2),
        ]);
        let fresh = report(vec![
            scheme("Cuckoo", 10.0, 1.5),
            scheme("McCuckoo", 8.0, 2.0),
        ]);
        let fails = gate_regressions(&base, &fresh);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("reads/hit-lookup"), "{}", fails[0]);
    }

    #[test]
    fn relative_throughput_regression_fails() {
        let base = report(vec![
            scheme("Cuckoo", 10.0, 1.5),
            scheme("McCuckoo", 8.0, 1.2),
        ]);
        // Reference unchanged but McCuckoo alone halved: a real slowdown.
        let fresh = report(vec![
            scheme("Cuckoo", 10.0, 1.5),
            scheme("McCuckoo", 4.0, 1.2),
        ]);
        let fails = gate_regressions(&base, &fresh);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(
            fails[0].contains("relative insert throughput"),
            "{}",
            fails[0]
        );
    }

    #[test]
    fn empty_stats_fail_the_gate() {
        let base = report(vec![scheme("Cuckoo", 10.0, 1.5)]);
        let mut fresh = base.clone();
        fresh.schemes[0].stats = TableStats::default();
        let fails = gate_regressions(&base, &fresh);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("stats are empty"), "{}", fails[0]);
    }

    #[test]
    fn scale_mismatch_is_reported_once() {
        let base = report(vec![scheme("Cuckoo", 10.0, 1.5)]);
        let mut fresh = base.clone();
        fresh.cap_slots = 90_000;
        let fails = gate_regressions(&base, &fresh);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("scale mismatch"), "{}", fails[0]);
    }

    #[test]
    fn lookup_gate_passes_at_the_stock_ratio() {
        let fresh = report(vec![
            scheme("Cuckoo", 10.0, 1.5),
            scheme("McCuckoo", 8.0, 1.2),
        ]);
        // Helper reports 14.0 batched vs 10.0 single: a 1.4x ratio.
        assert!(gate_lookup_batch(&fresh, 1.2).is_empty());
    }

    #[test]
    fn lookup_gate_fails_when_batching_does_not_pay() {
        let mut fresh = report(vec![scheme("McCuckoo", 8.0, 1.2)]);
        fresh.schemes[0].lookup_batch_mops = 10.5; // 1.05x < 1.2x
        let fails = gate_lookup_batch(&fresh, 1.2);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("batched lookups only"), "{}", fails[0]);
    }

    #[test]
    fn lookup_gate_ignores_baselines_and_flags_missing_columns() {
        let mut fresh = report(vec![
            scheme("Cuckoo", 10.0, 1.5),
            scheme("McCuckoo", 8.0, 1.2),
        ]);
        // Baseline scheme with a sub-ratio batched rate: not gated.
        fresh.schemes[0].lookup_batch_mops = 1.0;
        assert!(gate_lookup_batch(&fresh, 1.2).is_empty());
        // Missing columns (old report format) are a hard failure.
        fresh.schemes[1].lookup_mops = 0.0;
        let fails = gate_lookup_batch(&fresh, 1.2);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("columns missing"), "{}", fails[0]);
    }

    #[test]
    fn dram_lookup_table_is_twice_the_l3_or_256_mib() {
        assert_eq!(dram_lookup_bytes(Some("307200K\n")), 600 << 20);
        assert_eq!(dram_lookup_bytes(Some("32M")), 64 << 20);
        assert_eq!(dram_lookup_bytes(Some("1G")), 2 << 30);
        assert_eq!(dram_lookup_bytes(Some("1048576")), 2 << 20);
        for unknown in [None, Some(""), Some("0K"), Some("lots")] {
            assert_eq!(dram_lookup_bytes(unknown), 256 << 20, "{unknown:?}");
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let base = report(vec![
            scheme("Cuckoo", 10.0, 1.5),
            scheme("McCuckoo", 8.0, 1.2),
        ]);
        let s = jsonlite::to_string(&base);
        let back: SmokeReport = jsonlite::from_str(&s).expect("parse back");
        assert!(gate_regressions(&base, &back).is_empty());
        assert_eq!(back.schemes[1].stats.ops.inserts, 100);
    }
}

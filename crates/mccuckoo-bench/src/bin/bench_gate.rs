//! Benchmark gates: one table of `(flag, artifact, rule)`.
//!
//! Each CI job writes an artifact under `results/` (or `MCB_RESULTS`)
//! and then runs `bench_gate` with the flag of the gate that judges it;
//! no flag selects the smoke gate. Exit 0 passes, 1 fails a rule, 2
//! means the artifact is missing or lacks a column or row its rule
//! reads. CSV artifacts are read by header name, so column order does
//! not matter.
//!
//! | flag                   | artifact (producer)                                     | rule |
//! |------------------------|---------------------------------------------------------|------|
//! | (none)                 | `bench_smoke.json` (`bench_smoke`)                      | no scheme regressed beyond [`mccuckoo_bench::GATE_TOLERANCE`] against the committed baseline: deterministic access counts, insert throughput relative to the run's reference scheme, non-empty stats |
//! | `--lookup-only`        | `bench_smoke.json` (`bench_smoke`)                      | batched lookups ≥ [`LOOKUP_MIN`] × the single-key rate of the same run |
//! | `--scaling-only`       | `sharded_write_scaling.csv` (`concurrency_scaling --quick`) | best 8-shard/≥4-writer Mops ≥ [`scaling_min`] × the 1-shard/1-writer/per-op Mops |
//! | `--first-failure-only` | `fig11_kick_policies.csv` (`fig11_first_failure`)       | per scheme, the best planned policy's first-failure load ≥ [`FIRST_FAILURE_MIN`] × the random walk's, each averaged over the swept budgets |
//! | `--migration-only`     | `migration_pause.csv` (`migration_pause`)               | the per-row rules in [`MIGRATION`] |
//! | `--maint-only`         | `maintenance_pause.csv` (`maintenance_pause --features maint-faults`) | the per-row rules in [`MAINTENANCE`] |
//!
//! Every ratio is taken within one run, so machine speed cancels out.
//!
//! `MCB_BASELINE` overrides the smoke baseline's path. After an
//! intentional performance change, regenerate the baseline at the gated
//! scale (`MCB_SMOKE=1 ./run_all_benches.sh`), copy `bench_smoke.json`
//! over `bench_smoke_baseline.json` and commit it.

use std::fmt;
use std::process::exit;

use mccuckoo_bench::report::csv_path;
use mccuckoo_bench::smoke::{gate_lookup_batch, gate_regressions, SmokeReport};

/// Batched lookups of the single-writer multi-copy schemes must beat
/// their own per-key loop by this factor. Batching amortises dispatch
/// even where the prefetch shim is a no-op, so the margin holds on any
/// host.
const LOOKUP_MIN: f64 = 1.2;

/// Searching the eviction *tree* must never average worse than
/// sampling one path. Averaging over budgets is deliberate: at the
/// largest budgets every policy compresses into the saturation plateau
/// where differences are noise, while the planned policies' edge shows
/// across the whole curve. The sweep is seed-deterministic, so the gate
/// is stable for a given `MCB_CAP`/`MCB_RUNS`.
const FIRST_FAILURE_MIN: f64 = 1.0;

/// Policies that plan a whole chain before moving anything. The walk's
/// MinCounter variant (`min-counter`) is not one of them.
const PLANNED: [&str; 2] = ["bfs", "bubble"];

/// Minimum write-scaling ratio: 0.625 per core up to 4 cores, floored
/// at 1.0. A 4-core runner must show the full 2.5× that sharding (one
/// writer lock per shard) is built for; a 1-core sandbox, where only
/// batching amortisation survives, must still never fall below parity.
fn scaling_min() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (0.625 * cores.min(4) as f64).max(1.0)
}

/// The bound a per-row rule puts on its column.
#[derive(Debug, Clone, Copy)]
enum Bound {
    AtMost(f64),
    AtLeast(f64),
    Exactly(f64),
}
use Bound::{AtLeast, AtMost, Exactly};

impl Bound {
    fn holds(self, v: f64) -> bool {
        match self {
            AtMost(max) => v <= max,
            AtLeast(min) => v >= min,
            Exactly(want) => v == want,
        }
    }
}

/// `(phase, column, bound, meaning)`: rows of `phase` (every row when
/// `None`) must keep `column` within `bound`; `meaning` says what a
/// broken rule means. A scoped rule also requires a row of its phase.
#[derive(Debug)]
struct RowRule(Option<&'static str>, &'static str, Bound, &'static str);

/// Readers must never lose a key while shards split, nor block on the
/// migration (250 ms is far above scheduler noise on shared runners,
/// far below a reader stalled on a lock), and op-log replay must
/// rebuild the grown table exactly (DESIGN.md "Growth & persistence").
#[rustfmt::skip]
const MIGRATION: &[RowRule] = &[
    RowRule(None,          "lookup_errors",      AtMost(0.0),       "a stable key went missing"),
    RowRule(Some("split"), "max_pause_us",       AtMost(250_000.0), "readers block on migration"),
    RowRule(Some("split"), "recovery_identical", Exactly(1.0),      "log replay is not exact"),
];

/// Under live traffic the maintenance loop must retire a degraded
/// split's forwarding to zero without losing a read, must actually run
/// (one retirement pass and one compaction at least), and its newest
/// managed snapshot plus the retained log tail must recover exactly
/// (DESIGN.md "Background maintenance").
#[rustfmt::skip]
const MAINTENANCE: &[RowRule] = &[
    RowRule(None,          "lookup_errors",       AtMost(0.0),  "retirement dropped a live key"),
    RowRule(Some("maint"), "forwarding_live_end", Exactly(0.0), "retirement never converged"),
    RowRule(Some("maint"), "retirements",         AtLeast(1.0), "retirement never ran"),
    RowRule(Some("maint"), "compactions",         AtLeast(1.0), "compaction never ran"),
    RowRule(Some("maint"), "recovery_identical",  Exactly(1.0), "recovery is not exact"),
];

/// Named same-run ratios of an artifact.
type Ratios = fn(&Csv) -> Result<Vec<(String, f64)>, ArtifactError>;

/// How a gate judges its artifact.
enum Rule {
    /// Per-row thresholds.
    Rows(&'static [RowRule]),
    /// Every ratio must reach the minimum.
    MinRatio(Ratios, fn() -> f64),
    /// The smoke report against the committed baseline.
    SmokeBaseline,
    /// Batched against single-key lookups of the smoke report.
    SmokeLookup,
}

/// Every gate as `(flag, artifact, producer, rule)`. The first one,
/// with no flag, is the default.
#[rustfmt::skip]
const GATES: &[(&str, &str, &str, Rule)] = &[
    ("", "bench_smoke.json", "bench_smoke", Rule::SmokeBaseline),
    ("--lookup-only", "bench_smoke.json", "bench_smoke", Rule::SmokeLookup),
    ("--scaling-only", "sharded_write_scaling.csv", "concurrency_scaling --quick",
        Rule::MinRatio(|t| Ok(vec![("write scaling".into(), scaling_ratio(t)?)]), scaling_min)),
    ("--first-failure-only", "fig11_kick_policies.csv", "fig11_first_failure",
        Rule::MinRatio(first_failure_ratios, || FIRST_FAILURE_MIN)),
    ("--migration-only", "migration_pause.csv", "migration_pause", Rule::Rows(MIGRATION)),
    ("--maint-only", "maintenance_pause.csv", "maintenance_pause --features maint-faults",
        Rule::Rows(MAINTENANCE)),
];

/// Why an artifact could not be judged (exit 2).
#[derive(Debug)]
enum ArtifactError {
    /// The file is missing or is not valid JSON of the expected shape.
    Unreadable(String),
    /// A column a rule reads is not in the header.
    MissingColumn(String),
    /// No row of the phase a rule is scoped to.
    MissingPhase(&'static str),
    /// A row does not fit the header, a cell is not a number, or rows
    /// an aggregate rule needs are absent.
    Invalid(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::MissingColumn(c) => write!(f, "missing column {c:?}"),
            ArtifactError::MissingPhase(p) => write!(f, "no {p}-phase row"),
            ArtifactError::Unreadable(m) | ArtifactError::Invalid(m) => f.write_str(m),
        }
    }
}

/// A CSV artifact, read by header name.
struct Csv {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Csv {
    fn parse(text: &str) -> Result<Csv, ArtifactError> {
        let split = |line: &str| {
            line.trim()
                .split(',')
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        let mut lines = text.lines();
        let header = split(lines.next().unwrap_or(""));
        let mut rows = Vec::new();
        for (i, line) in lines.enumerate() {
            let row = split(line);
            if row.len() != header.len() {
                return Err(ArtifactError::Invalid(format!(
                    "line {}: expected {} fields, got {line:?}",
                    i + 2,
                    header.len()
                )));
            }
            rows.push(row);
        }
        Ok(Csv { header, rows })
    }

    fn column(&self, name: &str) -> Result<usize, ArtifactError> {
        self.header
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| ArtifactError::MissingColumn(name.to_owned()))
    }

    fn text(&self, row: usize, name: &str) -> Result<&str, ArtifactError> {
        Ok(&self.rows[row][self.column(name)?])
    }

    fn num(&self, row: usize, name: &str) -> Result<f64, ArtifactError> {
        let cell = self.text(row, name)?;
        cell.parse().map_err(|e| {
            ArtifactError::Invalid(format!("line {}: {name} = {cell:?}: {e}", row + 2))
        })
    }
}

/// One judged value, printed as is; `pass == false` fails the gate.
#[derive(Debug)]
struct Verdict {
    line: String,
    pass: bool,
}

/// Best (shards == 8, writers >= 4) Mops divided by the (1, 1, 1)
/// baseline Mops of `concurrency_scaling`'s curve.
fn scaling_ratio(t: &Csv) -> Result<f64, ArtifactError> {
    let mut baseline = None;
    let mut best: Option<f64> = None;
    for i in 0..t.rows.len() {
        let (shards, writers, mops) =
            (t.num(i, "shards")?, t.num(i, "writers")?, t.num(i, "Mops")?);
        if (shards, writers, t.num(i, "batch")?) == (1.0, 1.0, 1.0) {
            baseline = Some(mops);
        }
        if shards == 8.0 && writers >= 4.0 {
            best = Some(best.map_or(mops, |b| b.max(mops)));
        }
    }
    let incomplete = |m: &str| ArtifactError::Invalid(m.to_owned());
    let baseline = baseline.ok_or_else(|| incomplete("no (1,1,1) baseline row"))?;
    let best = best.ok_or_else(|| incomplete("no (8, >=4, *) row"))?;
    if baseline <= 0.0 {
        return Err(ArtifactError::Invalid(format!(
            "non-positive baseline {baseline}"
        )));
    }
    Ok(best / baseline)
}

/// Per scheme, the best [`PLANNED`] policy's first-failure load over
/// the random walk's, each policy first averaged over every swept
/// maxloop budget of `fig11_first_failure`'s sweep.
fn first_failure_ratios(t: &Csv) -> Result<Vec<(String, f64)>, ArtifactError> {
    if t.rows.is_empty() {
        return Err(ArtifactError::Invalid("no data rows".into()));
    }
    let rows = (0..t.rows.len())
        .map(|i| {
            Ok((
                t.text(i, "scheme")?,
                t.text(i, "policy")?,
                t.num(i, "load")?,
            ))
        })
        .collect::<Result<Vec<_>, ArtifactError>>()?;
    let mut schemes: Vec<&str> = Vec::new();
    for &(scheme, _, _) in &rows {
        if !schemes.contains(&scheme) {
            schemes.push(scheme);
        }
    }
    let mut out = Vec::new();
    for scheme in schemes {
        let mean = |policy: &str| {
            let loads: Vec<f64> = rows
                .iter()
                .filter(|r| r.0 == scheme && r.1 == policy)
                .map(|r| r.2)
                .collect();
            (!loads.is_empty()).then(|| loads.iter().sum::<f64>() / loads.len() as f64)
        };
        let missing = |what| ArtifactError::Invalid(format!("no {what} row for {scheme}"));
        let walk = mean("random-walk").ok_or_else(|| missing("random-walk"))?;
        let best = PLANNED
            .iter()
            .filter_map(|p| mean(p))
            .reduce(f64::max)
            .ok_or_else(|| missing("bfs/bubble"))?;
        if walk <= 0.0 {
            return Err(ArtifactError::Invalid(format!(
                "non-positive random-walk load {walk} for {scheme}"
            )));
        }
        out.push((scheme.to_owned(), best / walk));
    }
    Ok(out)
}

/// Judge every row by the rules that apply to its phase.
fn judge_rows(t: &Csv, rules: &[RowRule]) -> Result<Vec<Verdict>, ArtifactError> {
    t.column("phase")?;
    for RowRule(_, column, _, _) in rules {
        t.column(column)?;
    }
    let phase_of = |i| t.text(i, "phase");
    for &phase in rules.iter().filter_map(|r| r.0.as_ref()) {
        if !(0..t.rows.len()).any(|i| matches!(phase_of(i), Ok(p) if p == phase)) {
            return Err(ArtifactError::MissingPhase(phase));
        }
    }
    let mut out = Vec::new();
    for i in 0..t.rows.len() {
        let phase = phase_of(i)?;
        for &RowRule(scope, column, bound, meaning) in rules {
            if scope.is_some_and(|p| p != phase) {
                continue;
            }
            let v = t.num(i, column)?;
            let pass = bound.holds(v);
            let meaning = if pass { "" } else { meaning };
            out.push(Verdict {
                line: format!("{phase:<8} {column:<20} {v} (want {bound:?}) {meaning}"),
                pass,
            });
        }
    }
    Ok(out)
}

fn read(path: &std::path::Path) -> Result<String, ArtifactError> {
    std::fs::read_to_string(path)
        .map_err(|e| ArtifactError::Unreadable(format!("cannot read {}: {e}", path.display())))
}

fn smoke_report(text: &str) -> Result<SmokeReport, ArtifactError> {
    jsonlite::from_str(text)
        .map_err(|e| ArtifactError::Unreadable(format!("bad smoke report: {e}")))
}

/// Informational lines pass; each failure message fails.
fn verdicts(info: Vec<String>, fails: Vec<String>) -> Vec<Verdict> {
    let info = info.into_iter().map(|line| Verdict { line, pass: true });
    info.chain(fails.into_iter().map(|line| Verdict { line, pass: false }))
        .collect()
}

fn judge(rule: &Rule, text: &str) -> Result<Vec<Verdict>, ArtifactError> {
    match rule {
        Rule::Rows(rules) => judge_rows(&Csv::parse(text)?, rules),
        Rule::MinRatio(ratios, min) => {
            let min = min();
            let ratios = ratios(&Csv::parse(text)?)?;
            Ok(ratios
                .into_iter()
                .map(|(name, ratio)| Verdict {
                    line: format!("{name:<14} ratio {ratio:.4}x (minimum {min:.4}x)"),
                    pass: ratio >= min,
                })
                .collect())
        }
        Rule::SmokeBaseline => {
            let fresh = smoke_report(text)?;
            let base_path = std::env::var("MCB_BASELINE")
                .unwrap_or_else(|_| "results/bench_smoke_baseline.json".into());
            let baseline = smoke_report(&read(base_path.as_ref())?)?;
            let info = fresh.schemes.iter().map(|s| {
                let b = baseline.schemes.iter().find(|b| b.scheme == s.scheme);
                format!(
                    "{:<10} mops {:.3} (baseline {}), r/ins {:.2} (baseline {}), inserts {} kicks {}",
                    s.scheme,
                    s.insert_mops,
                    b.map_or("-".into(), |b| format!("{:.3}", b.insert_mops)),
                    s.offchip_reads_per_insert,
                    b.map_or("-".into(), |b| format!("{:.2}", b.offchip_reads_per_insert)),
                    s.stats.ops.inserts,
                    s.stats.ops.kicks,
                )
            });
            Ok(verdicts(
                info.collect(),
                gate_regressions(&baseline, &fresh),
            ))
        }
        Rule::SmokeLookup => {
            let fresh = smoke_report(text)?;
            let info = fresh.schemes.iter().map(|s| {
                let ratio = if s.lookup_mops > 0.0 {
                    s.lookup_batch_mops / s.lookup_mops
                } else {
                    0.0
                };
                format!(
                    "{:<10} lookup {:.2} Mops single, {:.2} Mops batched ({ratio:.2}x)",
                    s.scheme, s.lookup_mops, s.lookup_batch_mops
                )
            });
            Ok(verdicts(
                info.collect(),
                gate_lookup_batch(&fresh, LOOKUP_MIN),
            ))
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (_, artifact, producer, rule) = GATES[1..]
        .iter()
        .find(|g| args.iter().any(|a| a == g.0))
        .unwrap_or(&GATES[0]);
    let (stem, ext) = artifact.split_once('.').expect("artifact has an extension");
    let path = csv_path(stem).with_extension(ext);
    let judged = read(&path).and_then(|text| judge(rule, &text));
    let verdicts = judged.unwrap_or_else(|e| {
        eprintln!("[gate] {}: {e}", path.display());
        eprintln!("[gate] (re)run `{producer}` first");
        exit(2);
    });
    let mut failed = 0;
    for v in &verdicts {
        if v.pass {
            println!("[gate] {}", v.line);
        } else {
            eprintln!("[gate] FAIL: {}", v.line);
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("[gate] {failed} check(s) failed on {}", path.display());
        exit(1);
    }
    println!("[gate] pass: {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratio_of(csv: &str) -> Result<f64, ArtifactError> {
        scaling_ratio(&Csv::parse(csv)?)
    }

    fn ff_ratios(csv: &str) -> Result<Vec<(String, f64)>, ArtifactError> {
        first_failure_ratios(&Csv::parse(csv)?)
    }

    fn rows(csv: &str, rules: &[RowRule]) -> Result<Vec<Verdict>, ArtifactError> {
        judge_rows(&Csv::parse(csv)?, rules)
    }

    fn failures(csv: &str, rules: &[RowRule]) -> usize {
        rows(csv, rules).unwrap().iter().filter(|v| !v.pass).count()
    }

    #[test]
    fn scaling_ratio_takes_best_eight_shard_multi_writer_row() {
        let csv = "shards,writers,batch,Mops\n\
                   1,1,1,2.00\n\
                   8,2,256,9.00\n\
                   8,4,1,3.00\n\
                   8,4,256,5.00\n";
        // The 8-shard/2-writer row is ignored: the gate measures the
        // 4-writer configuration the acceptance curve is defined on.
        assert_eq!(ratio_of(csv).unwrap(), 2.5);
    }

    #[test]
    fn scaling_ratio_rejects_incomplete_curves() {
        assert!(ratio_of("shards,writers,batch,Mops\n1,1,1,2.0\n")
            .unwrap_err()
            .to_string()
            .contains("no (8, >=4, *) row"));
        assert!(ratio_of("shards,writers,batch,Mops\n8,4,1,2.0\n")
            .unwrap_err()
            .to_string()
            .contains("no (1,1,1) baseline row"));
        assert!(ratio_of("shards,writers,batch,Mops\nnot,a,row\n").is_err());
    }

    #[test]
    fn default_minimum_is_core_aware_with_a_parity_floor() {
        // Can't fake core count here, but the committed formula must
        // hold at both ends: 1 core floors at parity, >=4 cores demand
        // the full 2.5x.
        assert_eq!((0.625f64 * 1.0).max(1.0), 1.0);
        assert_eq!((0.625f64 * 4.0).max(1.0), 2.5);
        let min = scaling_min();
        assert!((1.0..=2.5).contains(&min), "default min {min} out of range");
    }

    #[test]
    fn first_failure_ratios_average_over_budgets_and_take_the_best_policy() {
        let csv = "maxloop,scheme,policy,load\n\
                   50,McCuckoo,random-walk,0.8000\n\
                   50,McCuckoo,bfs,0.7000\n\
                   50,McCuckoo,bubble,0.8200\n\
                   500,McCuckoo,random-walk,0.9000\n\
                   500,McCuckoo,bfs,0.9090\n\
                   500,McCuckoo,bubble,0.9000\n\
                   500,B-McCuckoo,random-walk,0.9900\n\
                   500,B-McCuckoo,bfs,0.9920\n\
                   500,B-McCuckoo,bubble,0.9940\n";
        // Each policy is averaged across its budget rows, then the best
        // of bfs/bubble is compared to the walk: bubble's mean 0.8600
        // beats bfs's 0.8045 and the walk's 0.8500 for McCuckoo.
        let ratios = ff_ratios(csv).unwrap();
        assert_eq!(ratios.len(), 2);
        assert_eq!(ratios[0].0, "McCuckoo");
        assert!((ratios[0].1 - 0.8600 / 0.8500).abs() < 1e-12);
        assert_eq!(ratios[1].0, "B-McCuckoo");
        assert!((ratios[1].1 - 0.9940 / 0.9900).abs() < 1e-12);
    }

    #[test]
    fn first_failure_ratios_reject_incomplete_sweeps() {
        assert!(ff_ratios("maxloop,scheme,policy,load\n")
            .unwrap_err()
            .to_string()
            .contains("no data rows"));
        assert!(
            ff_ratios("maxloop,scheme,policy,load\n500,McCuckoo,bfs,0.9\n")
                .unwrap_err()
                .to_string()
                .contains("no random-walk row")
        );
        assert!(
            ff_ratios("maxloop,scheme,policy,load\n500,McCuckoo,random-walk,0.9\n")
                .unwrap_err()
                .to_string()
                .contains("no bfs/bubble row")
        );
        assert!(ff_ratios("maxloop,scheme,policy,load\nnot,a,row\n").is_err());
    }

    #[test]
    fn min_counter_rows_never_count_as_planned() {
        // A min-counter row far above everything must not lift the best
        // planned policy, and alone it does not make one.
        let csv = "maxloop,scheme,policy,load\n\
                   500,McCuckoo,random-walk,0.9000\n\
                   500,McCuckoo,bfs,0.8100\n\
                   500,McCuckoo,min-counter,0.9900\n";
        let ratios = ff_ratios(csv).unwrap();
        assert!((ratios[0].1 - 0.8100 / 0.9000).abs() < 1e-12);
        let only_walks = "maxloop,scheme,policy,load\n\
                          500,McCuckoo,random-walk,0.9000\n\
                          500,McCuckoo,min-counter,0.9900\n";
        assert!(ff_ratios(only_walks)
            .unwrap_err()
            .to_string()
            .contains("no bfs/bubble row"));
    }

    #[test]
    fn first_failure_minimum_defaults_to_parity() {
        assert_eq!(FIRST_FAILURE_MIN, 1.0);
    }

    #[test]
    fn pause_rows_parse_both_phases() {
        let csv = "phase,splits,keys_moved,reader_ops,lookup_errors,max_pause_us,mean_pause_us,recovery_identical\n\
                   baseline,0,0,100000,0,120.50,0.60,1\n\
                   split,6,57000,90000,0,340.25,0.80,1\n";
        let t = Csv::parse(csv).unwrap();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.text(1, "phase").unwrap(), "split");
        assert_eq!(t.num(1, "lookup_errors").unwrap(), 0.0);
        assert_eq!(t.num(1, "max_pause_us").unwrap(), 340.25);
        assert_eq!(t.num(1, "recovery_identical").unwrap(), 1.0);
        assert_eq!(failures(csv, MIGRATION), 0);
    }

    #[test]
    fn pause_rows_reject_incomplete_sweeps() {
        let header = "phase,splits,keys_moved,reader_ops,lookup_errors,max_pause_us,mean_pause_us,recovery_identical\n";
        assert!(rows(header, MIGRATION)
            .unwrap_err()
            .to_string()
            .contains("no split-phase row"));
        let no_split = format!("{header}baseline,0,0,1,0,1.0,0.5,1\n");
        assert!(rows(&no_split, MIGRATION)
            .unwrap_err()
            .to_string()
            .contains("no split-phase row"));
        assert!(rows("phase,x\nsplit,broken\n", MIGRATION).is_err());
    }

    #[test]
    fn maint_rows_parse_the_maint_phase() {
        let csv = "phase,ticks,reader_ops,lookup_errors,retirements,compactions,records_truncated,forwarding_live_end,recovery_identical\n\
                   maint,310,480000,0,3,2,41000,0,1\n";
        let t = Csv::parse(csv).unwrap();
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.text(0, "phase").unwrap(), "maint");
        assert_eq!(t.num(0, "lookup_errors").unwrap(), 0.0);
        assert_eq!(t.num(0, "retirements").unwrap(), 3.0);
        assert_eq!(t.num(0, "compactions").unwrap(), 2.0);
        assert_eq!(t.num(0, "forwarding_live_end").unwrap(), 0.0);
        assert_eq!(t.num(0, "recovery_identical").unwrap(), 1.0);
        assert_eq!(failures(csv, MAINTENANCE), 0);
    }

    #[test]
    fn maint_rows_reject_incomplete_sweeps() {
        let header = "phase,ticks,reader_ops,lookup_errors,retirements,compactions,records_truncated,forwarding_live_end,recovery_identical\n";
        assert!(rows(header, MAINTENANCE)
            .unwrap_err()
            .to_string()
            .contains("no maint-phase row"));
        let wrong_phase = format!("{header}baseline,1,1,0,0,0,0,0,1\n");
        assert!(rows(&wrong_phase, MAINTENANCE)
            .unwrap_err()
            .to_string()
            .contains("no maint-phase row"));
        assert!(rows("phase,x\nmaint,broken\n", MAINTENANCE).is_err());
        let bad_field = format!("{header}maint,1,1,zero,0,0,0,0,1\n");
        assert!(rows(&bad_field, MAINTENANCE).is_err());
    }

    #[test]
    fn pause_maximum_defaults_to_a_quarter_second() {
        let pause = MIGRATION.iter().find(|r| r.1 == "max_pause_us").unwrap();
        assert!(matches!(pause.2, AtMost(v) if v == 250_000.0));
        assert_eq!(pause.0, Some("split"));
    }

    #[test]
    fn lookup_minimum_defaults_to_the_acceptance_margin() {
        assert_eq!(LOOKUP_MIN, 1.2);
    }

    #[test]
    fn row_rules_break_on_each_bound() {
        let header = "phase,splits,keys_moved,reader_ops,lookup_errors,max_pause_us,mean_pause_us,recovery_identical\n";
        let bad = format!(
            "{header}baseline,0,0,1,2,900000.0,0.5,0\n\
             split,1,1,1,1,250000.5,0.5,0\n"
        );
        // The baseline row breaks only the unscoped lookup-error rule;
        // the split row breaks all three.
        assert_eq!(failures(&bad, MIGRATION), 4);
        let edge = format!("{header}split,1,1,1,0,250000.0,0.5,1\n");
        assert_eq!(failures(&edge, MIGRATION), 0, "the bound is inclusive");
        let maint = "phase,ticks,reader_ops,lookup_errors,retirements,compactions,records_truncated,forwarding_live_end,recovery_identical\n\
                     maint,1,1,0,0,0,0,3,1\n";
        assert_eq!(failures(maint, MAINTENANCE), 3);
    }

    #[test]
    fn reordered_columns_give_the_same_verdicts() {
        let csv = "phase,splits,keys_moved,reader_ops,lookup_errors,max_pause_us,mean_pause_us,recovery_identical\n\
                   baseline,0,0,100,0,120.5,0.6,1\n\
                   split,6,57000,90,0,300000.0,0.8,1\n";
        let reordered = "recovery_identical,max_pause_us,phase,mean_pause_us,lookup_errors,reader_ops,keys_moved,splits\n\
                         1,120.5,baseline,0.6,0,100,0,0\n\
                         1,300000.0,split,0.8,0,90,57000,6\n";
        let verdict = |csv: &str| -> Vec<(String, bool)> {
            let mut v: Vec<_> = rows(csv, MIGRATION)
                .unwrap()
                .into_iter()
                .map(|v| (v.line, v.pass))
                .collect();
            v.sort();
            v
        };
        assert_eq!(verdict(csv), verdict(reordered));
        assert_eq!(failures(reordered, MIGRATION), 1);
        let scaling = "Mops,batch,writers,shards\n2.00,1,1,1\n5.00,256,4,8\n";
        assert_eq!(ratio_of(scaling).unwrap(), 2.5);
        let ff =
            "load,policy,scheme,maxloop\n0.9,random-walk,McCuckoo,50\n0.99,bubble,McCuckoo,50\n";
        assert!((ff_ratios(ff).unwrap()[0].1 - 0.99 / 0.9).abs() < 1e-12);
    }

    #[test]
    fn missing_columns_and_phases_are_typed_errors() {
        let no_pause = "phase,lookup_errors,recovery_identical\nsplit,0,1\n";
        assert!(matches!(
            rows(no_pause, MIGRATION),
            Err(ArtifactError::MissingColumn(c)) if c == "max_pause_us"
        ));
        let no_maint =
            "phase,lookup_errors,retirements,compactions,forwarding_live_end,recovery_identical\n\
                        baseline,0,1,1,0,1\n";
        assert!(matches!(
            rows(no_maint, MAINTENANCE),
            Err(ArtifactError::MissingPhase("maint"))
        ));
        assert!(matches!(
            ratio_of("shards,writers,Mops\n1,1,2.0\n"),
            Err(ArtifactError::MissingColumn(c)) if c == "batch"
        ));
        assert!(matches!(
            ff_ratios("maxloop,scheme,load\n50,McCuckoo,0.9\n"),
            Err(ArtifactError::MissingColumn(c)) if c == "policy"
        ));
    }

    #[test]
    fn every_flag_names_one_gate() {
        for (i, (flag, artifact, _, _)) in GATES.iter().enumerate() {
            assert_eq!(flag.is_empty(), i == 0, "only the default gate has no flag");
            assert!(GATES[..i].iter().all(|g| g.0 != *flag));
            assert!(artifact.contains('.'));
        }
    }
}

//! Concurrency scaling (§III.H): aggregate read throughput of the
//! one-writer-many-readers table as reader count grows, with and
//! without a concurrent writer churning the table — plus the write-side
//! sweep of the sharded serving layer: insert throughput across shard
//! count × writer threads, batched and per-op, against the
//! single-writer per-op baseline (shards = 1, writers = 1, batch = 1).
//!
//! Every read validates the availability guarantee (stable keys are
//! always found); throughput is wall-clock, so run with `--release`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use mccuckoo_bench::affinity::pin_worker;
use mccuckoo_bench::report::{f2, write_csv, Table};
use mccuckoo_core::{ConcurrentMcCuckoo, McConfig, ShardedMcCuckoo};
use workloads::UniqueKeys;

const TABLE_N: usize = 1 << 16;
const STABLE: usize = 120_000;
const RUN_MILLIS: u64 = 800;
/// Total buckets across all shards of a write-sweep table.
const WRITE_BUCKETS: usize = 1 << 16;
/// Fresh keys inserted per write-sweep run (~41% of total capacity, so
/// no insert is ever rejected and every run does identical work).
const WRITE_OPS: usize = 80_000;
/// Per-run insert count in `--quick` (CI) mode.
const WRITE_OPS_QUICK: usize = 30_000;

fn run(readers: usize, with_writer: bool) -> f64 {
    let table: Arc<ConcurrentMcCuckoo<u64, u64>> =
        Arc::new(ConcurrentMcCuckoo::new(McConfig::paper(TABLE_N, 31)));
    let mut keys = UniqueKeys::new(32);
    let stable: Arc<Vec<u64>> = Arc::new(keys.take_vec(STABLE));
    for &k in stable.iter() {
        table.insert(k, k ^ 0xF00D).expect("warmup");
    }
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for r in 0..readers {
            let table = table.clone();
            let stable = stable.clone();
            let stop = stop.clone();
            let reads = reads.clone();
            scope.spawn(move || {
                let mut i = r;
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = stable[i % stable.len()];
                    assert_eq!(table.get(&k), Some(k ^ 0xF00D), "availability violated");
                    local += 1;
                    i += 13;
                }
                reads.fetch_add(local, Ordering::Relaxed);
            });
        }
        if with_writer {
            let table = table.clone();
            let stop = stop.clone();
            scope.spawn(move || {
                let mut churn = UniqueKeys::new(33);
                let mut window: Vec<u64> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let k = churn.next_key();
                    if table.insert(k, k).is_ok() {
                        window.push(k);
                    }
                    if window.len() > 20_000 {
                        let victim = window.swap_remove(0);
                        table.remove(&victim);
                    }
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(RUN_MILLIS));
        stop.store(true, Ordering::Relaxed);
    });
    reads.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Best-of-N wrapper over [`run_write_once`]: wall-clock throughput on
/// a shared/frequency-scaled host is noisy in one direction only
/// (interference and cold clocks slow a run, nothing speeds it up), so
/// the max over `MCB_SCALING_RUNS` repetitions (default 3) is the
/// stable estimate of what the configuration can actually do.
fn run_write(shards: usize, writers: usize, batch: usize, ops: usize) -> f64 {
    let runs: usize = std::env::var("MCB_SCALING_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3);
    (0..runs)
        .map(|_| run_write_once(shards, writers, batch, ops))
        .fold(0.0, f64::max)
}

/// Insert `ops` fresh keys into a `shards`-way sharded table from
/// `writers` threads, `batch` keys per batched call (`batch == 1` uses
/// the per-op path), returning Mops. Keys are pre-partitioned round-robin
/// across writers, so every run inserts the same key set.
///
/// Every writer builds its key vector and pins itself (best-effort)
/// *before* a shared barrier; the timer starts only once the barrier
/// releases, so the measurement covers table work from genuinely
/// concurrent threads — not thread spawn or key generation.
fn run_write_once(shards: usize, writers: usize, batch: usize, ops: usize) -> f64 {
    let table: Arc<ShardedMcCuckoo<u64, u64>> = Arc::new(ShardedMcCuckoo::new(
        shards,
        McConfig::paper(WRITE_BUCKETS / shards, 41),
    ));
    let ready = Arc::new(Barrier::new(writers + 1));
    let elapsed = std::thread::scope(|scope| {
        for w in 0..writers {
            let table = table.clone();
            let ready = ready.clone();
            scope.spawn(move || {
                let keys: Vec<(u64, u64)> = (w..ops)
                    .step_by(writers)
                    .map(|i| (i as u64, i as u64 ^ 0xF00D))
                    .collect();
                pin_worker(w);
                ready.wait();
                if batch == 1 {
                    for &(k, v) in &keys {
                        table.insert(k, v).expect("40% load never rejects");
                    }
                } else {
                    for chunk in keys.chunks(batch) {
                        for r in table.insert_batch(chunk) {
                            r.expect("40% load never rejects");
                        }
                    }
                }
            });
        }
        ready.wait();
        // The scope joins every writer before returning, so the elapsed
        // window is barrier-release → last writer done.
        Instant::now()
    })
    .elapsed()
    .as_secs_f64();
    assert_eq!(table.len(), ops, "every key must land exactly once");
    ops as f64 / elapsed / 1e6
}

fn main() {
    // `--quick`: CI mode — skip the read sweep, run only the baseline
    // and the 8-shard rows with fewer ops, so the gate finishes in
    // seconds while still producing `results/sharded_write_scaling.csv`.
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    if !quick {
        let mut table = Table::new(
            "Concurrency scaling: validated read throughput (Mops)",
            &["readers", "read-only", "with writer churn"],
        );
        let mut counts = vec![1usize, 2, 4];
        if cores > 5 {
            counts.push(cores - 1);
        }
        for readers in counts {
            table.row(vec![
                readers.to_string(),
                f2(run(readers, false)),
                f2(run(readers, true)),
            ]);
        }
        table.print();
        write_csv("concurrency_scaling", &table);
    }

    // Write-side sweep: shard count × writer threads, batched (64 keys
    // per writer-lock acquisition) and per-op. Row one is the single-writer
    // per-op baseline the sharded layer must beat.
    let ops = if quick { WRITE_OPS_QUICK } else { WRITE_OPS };
    let sweep: &[(usize, usize)] = if quick {
        &[(8, 1), (8, 2), (8, 4)]
    } else {
        &[
            (2, 1),
            (2, 2),
            (2, 4),
            (4, 1),
            (4, 2),
            (4, 4),
            (8, 1),
            (8, 2),
            (8, 4),
        ]
    };
    let mut wtable = Table::new(
        "Sharded write scaling: insert throughput (Mops)",
        &["shards", "writers", "batch", "Mops"],
    );
    // Ramp the frequency governor until repeated probe runs stop
    // speeding up — on a cold clock the rows measured first would be
    // penalized by whole integer factors, garbling the curve.
    let mut last = run_write_once(1, 1, 1, ops);
    let warm_start = Instant::now();
    while warm_start.elapsed().as_secs_f64() < 8.0 {
        let probe = run_write_once(1, 1, 1, ops);
        if probe < last * 1.02 {
            break;
        }
        last = probe;
    }
    let baseline = run_write(1, 1, 1, ops);
    wtable.row(vec!["1".into(), "1".into(), "1".into(), f2(baseline)]);
    let mut best_multi = 0.0f64;
    for &(shards, writers) in sweep {
        for &batch in &[1usize, 64, 256] {
            let mops = run_write(shards, writers, batch, ops);
            if shards == 8 && writers >= 4 {
                best_multi = best_multi.max(mops);
            }
            wtable.row(vec![
                shards.to_string(),
                writers.to_string(),
                batch.to_string(),
                f2(mops),
            ]);
        }
    }
    wtable.print();
    write_csv("sharded_write_scaling", &wtable);
    println!(
        "(single-writer per-op baseline {} Mops; best 8-shard multi-writer {} Mops; \
         scaling {}x)",
        f2(baseline),
        f2(best_multi),
        f2(best_multi / baseline.max(1e-12)),
    );
    println!(
        "({cores} logical cores available; every read asserts the §III.H availability guarantee)"
    );
}

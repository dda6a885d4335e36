//! `lookup_batch_dram`: read-mostly batched traffic on a table far
//! larger than the last-level cache.
//!
//! 16 shards of `McConfig::paper`, ≥ 1 GiB resident, preloaded to 0.80
//! load. One closed-loop client sends 32-key requests: 90 %
//! `lookup_batch` (80 % hits, 20 % misses per key) and 10 %
//! `insert_batch` upserts of live keys. No op log, no maintenance.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hash_kit::SplitMix64;
use mccuckoo_core::{McConfig, ShardedMcCuckoo};
use mem_model::MemStats;
use workloads::UniqueKeys;

use crate::ladder::{self, LadderInput, LiveLayers};
use crate::report::{Checked, Report};
use crate::sys::{self, Reference, Samples};
use crate::trace::{Off, Overhead, Spans, Tracer, NONE, SLICES};
use crate::{below, val, Args};

pub const REQ: usize = 32;

// Per-key expectation classes, fixed when the stream is generated. The
// stream is replayed in passes; the upserts of pass `p` write
// generation `p + 1`, so a read's expected generation follows from
// whether its key is upserted before it in the cycle, only after it, or
// never.
const MISS: u8 = 0;
const STATIC: u8 = 1;
const WRITTEN_BEFORE: u8 = 2;
const WRITTEN_LATER: u8 = 3;
const WRITE: u8 = 4;

struct Geo {
    shards: usize,
    bpt: usize,
    load: f64,
    /// Requests per stream cycle (the count window is one cycle).
    cycle: usize,
    warmup: usize,
    setups: usize,
}

fn geo(args: &Args) -> Geo {
    if args.tiny() {
        Geo {
            shards: 16,
            bpt: 4_000,
            load: 0.80,
            cycle: 1 << 10,
            warmup: 1 << 7,
            setups: 3,
        }
    } else {
        // 16 × 3 × 680 000 buckets × 33 B (24 B cell + 8 B seqlock
        // version + 1 B counter) ≈ 1.08 GB resident.
        Geo {
            shards: 16,
            bpt: 680_000,
            load: 0.80,
            cycle: 1 << 17,
            warmup: 1 << 14,
            // One build and preload of 26 M keys takes ~22 s: a median of
            // several would not fit the run budget.
            setups: 1,
        }
    }
}

fn config(g: &Geo, seed: u64) -> McConfig {
    McConfig::paper(g.bpt, seed ^ 0xD7A1_0000)
}

fn preload_len(g: &Geo) -> u64 {
    (g.load * (g.shards * 3 * g.bpt) as f64) as u64
}

/// The generated op stream: `cycle` requests of `REQ` keys each.
struct Stream {
    keys: Vec<u64>,
    class: Vec<u8>,
}

impl Stream {
    fn is_write(&self, r: usize) -> bool {
        self.class[r * REQ] == WRITE
    }

    fn request(&self, r: usize) -> &[u64] {
        &self.keys[r * REQ..(r + 1) * REQ]
    }
}

fn generate(g: &Geo, seed: u64, keys: &UniqueKeys, corrupt: bool) -> Stream {
    let n = preload_len(g);
    let mut rng = SplitMix64::new(seed ^ 0x5EED_D7A1);
    let total = g.cycle * REQ;
    let mut out = Stream {
        keys: Vec::with_capacity(total),
        class: Vec::with_capacity(total),
    };
    let mut idx: Vec<u64> = Vec::with_capacity(total);
    let words = (n as usize).div_ceil(64);
    let mut written_any = vec![0u64; words];
    for _ in 0..g.cycle {
        let write = below(&mut rng, 10) == 0;
        for _ in 0..REQ {
            if write || below(&mut rng, 5) < 4 {
                let i = below(&mut rng, n);
                if write {
                    written_any[i as usize / 64] |= 1 << (i % 64);
                }
                idx.push(i);
                out.keys.push(keys.key_at(i));
                out.class.push(if write { WRITE } else { STATIC });
            } else {
                idx.push(u64::MAX);
                out.keys.push(keys.absent_key(rng.next_u64() >> 2));
                out.class.push(MISS);
            }
        }
    }
    let mut written_before = vec![0u64; words];
    for r in 0..g.cycle {
        let span = r * REQ..(r + 1) * REQ;
        if out.class[r * REQ] == WRITE {
            for &i in &idx[span] {
                written_before[i as usize / 64] |= 1 << (i % 64);
            }
            continue;
        }
        for k in span {
            if out.class[k] == MISS {
                continue;
            }
            let (w, b) = (idx[k] as usize / 64, 1u64 << (idx[k] % 64));
            out.class[k] = if written_before[w] & b != 0 {
                WRITTEN_BEFORE
            } else if written_any[w] & b != 0 {
                WRITTEN_LATER
            } else {
                STATIC
            };
        }
    }
    if corrupt {
        let k = out.class.iter().position(|&c| c == STATIC).expect("a hit");
        out.class[k] = MISS;
    }
    out
}

/// Preload rounds; the host-speed reference runs between them.
const ROUNDS: u64 = 16;

/// A set-up's wall time, raw and scaled to `sys::REF_NS`.
struct SetupTime {
    raw: f64,
    scaled: f64,
}

/// Build the table and preload keys `0..n` with two threads, each
/// owning half of the shards so every shard sees a fixed insert order.
/// The preload runs in `ROUNDS` rounds of consecutive keys; each round's
/// time is scaled by the reference runs at its two ends.
fn setup(
    g: &Geo,
    seed: u64,
    keys: &UniqueKeys,
    reference: &mut Reference,
) -> Checked<(Arc<ShardedMcCuckoo<u64, u64>>, SetupTime)> {
    let n = preload_len(g);
    let mut time = SetupTime {
        raw: 0.0,
        scaled: 0.0,
    };
    let mut ref_before = reference.run();
    let mut table = None;
    let mut rejected = 0u64;
    for round in 0..ROUNDS {
        let t0 = Instant::now();
        let table = &*table.get_or_insert_with(|| {
            Arc::new(ShardedMcCuckoo::<u64, u64>::new(g.shards, config(g, seed)))
        });
        let keys_in = n * round / ROUNDS..n * (round + 1) / ROUNDS;
        rejected += std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|t| {
                    let keys_in = keys_in.clone();
                    s.spawn(move || {
                        sys::pin(t);
                        let mut buf = Vec::with_capacity(4096);
                        let mut rejected = 0u64;
                        let mut flush = |buf: &mut Vec<(u64, u64)>| {
                            rejected += table
                                .insert_batch(buf)
                                .iter()
                                .filter(|r| r.is_err())
                                .count() as u64;
                            buf.clear();
                        };
                        for i in keys_in {
                            let k = keys.key_at(i);
                            if table.shard_of(&k) % 2 == t {
                                buf.push((k, val(k, 0)));
                                if buf.len() == buf.capacity() {
                                    flush(&mut buf);
                                }
                            }
                        }
                        flush(&mut buf);
                        rejected
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("preload thread panicked"))
                .sum::<u64>()
        });
        let secs = t0.elapsed().as_secs_f64();
        sys::pin(0);
        let ref_after = reference.run();
        time.raw += secs;
        time.scaled += secs * sys::REF_NS / ((ref_before + ref_after) / 2.0);
        ref_before = ref_after;
    }
    let table = table.expect("at least one round");
    if rejected > 0 || table.len() as u64 != n {
        return Err(format!(
            "preload rejected {rejected} of {n} keys (len {})",
            table.len()
        ));
    }
    Ok((table, time))
}

struct Cursor {
    req: usize,
    pass: u64,
}

struct Live {
    key_ops: u64,
    elapsed: f64,
    /// `mem_stats()` at the start and after exactly `window` requests.
    window: Option<(MemStats, MemStats)>,
}

/// The closed loop: one request at a time, each verified after its
/// timed call. Runs until `dur` has passed and at least `min_reqs`
/// requests completed (or a latency buffer fills).
#[allow(clippy::too_many_arguments)]
fn live<T: Tracer>(
    table: &ShardedMcCuckoo<u64, u64>,
    s: &Stream,
    cur: &mut Cursor,
    dur: Duration,
    min_reqs: usize,
    smp: &mut Samples,
    tr: &mut T,
) -> Checked<Live> {
    let cycle = s.class.len() / REQ;
    let mut buf = [(0u64, 0u64); REQ];
    let before = table.mem_stats();
    let mut window = None;
    let (mut key_ops, mut done) = (0u64, 0usize);
    smp.begin(dur);
    let start = Instant::now();
    let deadline = start + dur;
    loop {
        let r = cur.req;
        let keys = s.request(r);
        let (t0, t1);
        if s.is_write(r) {
            for (b, &k) in buf.iter_mut().zip(keys) {
                *b = (k, val(k, cur.pass + 1));
            }
            let sp = tr.open("shard.insert_batch", r as u32, NONE);
            t0 = Instant::now();
            let res = table.insert_batch(&buf);
            t1 = Instant::now();
            tr.close(sp);
            if !smp.w.push(sys::ns_since(t0, t1)) {
                break;
            }
            for (res, &k) in res.iter().zip(keys) {
                if *res != Ok(true) {
                    return Err(format!("upsert of live key {k:#x} returned {res:?}"));
                }
            }
        } else {
            let sp = tr.open("shard.lookup_batch", r as u32, NONE);
            t0 = Instant::now();
            let res = table.lookup_batch(keys);
            t1 = Instant::now();
            tr.close(sp);
            if !smp.r.push(sys::ns_since(t0, t1)) {
                break;
            }
            for (i, (got, &k)) in res.iter().zip(keys).enumerate() {
                let want = match s.class[r * REQ + i] {
                    MISS => None,
                    STATIC => Some(val(k, 0)),
                    WRITTEN_BEFORE => Some(val(k, cur.pass + 1)),
                    _ => Some(val(k, cur.pass)),
                };
                if *got != want {
                    return Err(format!("lookup of {k:#x}: got {got:?}, want {want:?}"));
                }
            }
        }
        key_ops += REQ as u64;
        smp.tick(t1, key_ops);
        done += 1;
        cur.req += 1;
        if cur.req == cycle {
            cur.req = 0;
            cur.pass += 1;
        }
        if done == min_reqs {
            window = Some((before, table.mem_stats()));
        }
        if t1 >= deadline && done >= min_reqs {
            break;
        }
    }
    let end = Instant::now();
    smp.end(end, key_ops);
    Ok(Live {
        key_ops,
        elapsed: (end - start).as_secs_f64(),
        window,
    })
}

pub fn run(args: &Args, rep: &mut Report) -> Checked<()> {
    let g = geo(args);
    let keys = UniqueKeys::new(args.seed);
    let n = preload_len(&g);
    let stream = generate(&g, args.seed, &keys, args.corrupt);

    // Set-up: build + preload, repeated; the last table is kept. The
    // RSS growth across the first build is the table's footprint.
    let mut reference = Reference::new();
    reference.run();
    let rss0 = sys::rss_bytes();
    let mut setup_times = Vec::new();
    let mut rss_growth = 0;
    let mut table = None;
    let setups = if args.trace { 1 } else { g.setups };
    for i in 0..setups {
        drop(table.take());
        let (t, time) = setup(&g, args.seed, &keys, &mut reference)?;
        table = Some(t);
        setup_times.push(time);
        if i == 0 {
            rss_growth = sys::rss_bytes().saturating_sub(rss0);
        }
    }
    let table = table.expect("at least one set-up");
    let resident = g.shards * 3 * g.bpt * 33;
    rep.info(&format!(
        "table: {} shards x 3 x {} buckets (~{:.0} MiB), {} keys preloaded (load {:.2})",
        g.shards,
        g.bpt,
        resident as f64 / (1 << 20) as f64,
        n,
        n as f64 / (g.shards * 3 * g.bpt) as f64
    ));

    let max_reqs = (args.seconds * 400_000.0) as usize + 2 * g.cycle;
    let mut cur = Cursor { req: 0, pass: 0 };
    {
        // Untimed warm-up: fixed request count, so the count window
        // that follows starts at the same stream position every run.
        let mut smp = Samples::new(g.warmup, g.warmup, 0);
        live(
            &table,
            &stream,
            &mut cur,
            Duration::ZERO,
            g.warmup,
            &mut smp,
            &mut Off,
        )?;
    }

    let dur = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let mut smp = Samples::new(max_reqs, max_reqs, sys::e2e_slices(args.seconds));
        let out = live(&table, &stream, &mut cur, dur, g.cycle, &mut smp, &mut Off)?;
        rep.ops(out.key_ops, 0);
        let (b, a) = out
            .window
            .ok_or("a latency buffer filled before the count window closed")?;
        let window_ops = (g.cycle * REQ) as f64;
        rep.info(&format!(
            "timed {:.2}s: {} key-ops in 32-key requests",
            out.elapsed, out.key_ops
        ));
        // An upsert of a live key cannot be rejected without failing the
        // run, so nothing counts as failed here.
        rep.info("failed_frac 0");
        rep.timing(&smp);
        rep.e2e(
            "offchip_reads_per_op",
            (a.offchip_reads - b.offchip_reads) as f64 / window_ops,
            "reads/op",
        );
        rep.e2e(
            "offchip_writes_per_op",
            (a.offchip_writes - b.offchip_writes) as f64 / window_ops,
            "writes/op",
        );
        rep.e2e("mem_bytes_per_key", rss_growth as f64 / n as f64, "B/key");
        let scaled: Vec<f64> = setup_times.iter().map(|t| t.scaled).collect();
        let raw: Vec<f64> = setup_times.iter().map(|t| t.raw).collect();
        rep.e2e("setup_s", sys::median(&scaled), "s");
        rep.info(&format!(
            "count window: {} requests from stream position {}; setup_s: median of {} set-ups \
             in {ROUNDS} rounds each, raw {:.3} s",
            g.cycle,
            g.warmup,
            scaled.len(),
            sys::median(&raw)
        ));
    } else {
        let slice = dur / (2 * SLICES);
        let mut smp = Samples::new(max_reqs, max_reqs, 0);
        let mut spans = Spans::new(max_reqs, 1);
        let mut overhead = Overhead::default();
        for _ in 0..SLICES {
            let a = live(&table, &stream, &mut cur, slice, 1, &mut smp, &mut Off)?;
            let b = live(&table, &stream, &mut cur, slice, 1, &mut smp, &mut spans)?;
            overhead.add(false, a.key_ops, a.elapsed);
            overhead.add(true, b.key_ops, b.elapsed);
            rep.ops(a.key_ops + b.key_ops, 0);
        }
        let stats1 = table.stats();
        spans.dump("lookup_batch_dram live");
        rep.layer("trace.overhead_frac", overhead.frac(), "frac");
        let prefix = 2048.min(g.cycle);
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        for r in 0..prefix {
            let dst = if stream.is_write(r) {
                &mut writes
            } else {
                &mut reads
            };
            dst.extend_from_slice(stream.request(r));
        }
        ladder::run(
            rep,
            LadderInput {
                config: config(&g, args.seed),
                shards: g.shards,
                keys: &keys,
                preload: n,
                read_keys: &reads,
                write_keys: &writes,
                stats: stats1,
                layers: LiveLayers::default(),
                live: Some(table),
            },
        )?;
    }
    Ok(())
}

//! `churn_logged_l2`: write-heavy single-key churn on a table that fits
//! the per-core L2.
//!
//! 2 shards of `McConfig::paper_with_deletion` with BFS kicks (≈ 1 MB,
//! half of one core's 2 MiB L2), held at 0.80 load. Mix: 25 % insert of fresh keys, 25 % remove,
//! 10 % update, 40 % `get` (a quarter of them miss). Every write is
//! appended to an `OpLog` over an in-memory `VecSink`; the client calls
//! `Maintainer::tick` every 4096 ops. The run ends with recoveries from
//! the newest managed snapshot plus the log tail.

use std::cmp::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hash_kit::SplitMix64;
use mccuckoo_core::{
    KickPolicyKind, LogSink, MaintConfig, Maintainer, McConfig, OpLog, OpRecord, ShardedMcCuckoo,
    VecSink,
};
use mem_model::MemStats;
use workloads::UniqueKeys;

use crate::ladder::{self, LadderInput};
use crate::report::{Checked, Report};
use crate::sys::{self, Samples};
use crate::trace::{Off, Overhead, Spans, Tracer, NONE, SLICES};
use crate::{below, val, Args};

const INSERT: u8 = 0;
const REMOVE: u8 = 1;
const UPDATE: u8 = 2;
const GET_HIT: u8 = 3;
const GET_MISS: u8 = 4;

/// Client ops between two `Maintainer::tick` calls.
pub const TICK_EVERY: usize = 4096;

struct Geo {
    shards: usize,
    bpt: usize,
    load: f64,
    watermark: usize,
    /// Ops in the count window that follows the warm-up.
    window: usize,
    warmup: usize,
    recoveries: usize,
}

fn geo(args: &Args) -> Geo {
    if args.tiny() {
        // Full-size table (the run length is what makes it tiny):
        // smaller tables start rejecting inserts at this load.
        Geo {
            shards: 2,
            bpt: 5_120,
            load: 0.80,
            watermark: 8_192,
            window: 1 << 15,
            warmup: 1 << 12,
            recoveries: 3,
        }
    } else {
        // 2 × 3 × 5 120 buckets × 33 B ≈ 1.0 MB: half of one core's
        // 2 MiB L2, leaving room for the op stream and the log buffer.
        // Smaller shards start rejecting inserts at this load.
        Geo {
            shards: 2,
            bpt: 5_120,
            load: 0.80,
            watermark: 32_768,
            window: 1 << 21,
            warmup: 1 << 18,
            recoveries: 7,
        }
    }
}

/// BFS kicks: the paper's random walk gives up when it walks into its
/// own chain and rejects fresh inserts the table has room for (the
/// `kick.rw_rejects_per_m_inserts` probe measures it), which a workload
/// that must not fail an op cannot carry at this load.
fn config(g: &Geo, seed: u64) -> McConfig {
    McConfig::paper_with_deletion(g.bpt, seed ^ 0xC4A2_0000).with_kick_policy(KickPolicyKind::Bfs)
}

fn live_len(g: &Geo) -> u64 {
    (g.load * (g.shards * 3 * g.bpt) as f64) as u64
}

/// The op generator. Its shadow (live keys and their write
/// generations) advances as ops are generated, so every op carries the
/// result the table must give. Generation can be resumed, so the stream
/// grows in segments, each made before it is replayed.
struct Gen {
    rng: SplitMix64,
    keys: UniqueKeys,
    live: Vec<u32>,
    /// The live-key count the stream holds.
    target: usize,
    gens: Vec<u32>,
    removed: Vec<u32>,
    next_fresh: u32,
    corrupt: bool,
}

struct Stream {
    kind: Vec<u8>,
    key: Vec<u64>,
    /// Value to write, or the value the op must return (0 for misses).
    value: Vec<u64>,
}

impl Gen {
    fn new(seed: u64, keys: UniqueKeys, live: u64, corrupt: bool) -> Self {
        Self {
            rng: SplitMix64::new(seed ^ 0x5EED_C4A2),
            keys,
            live: (0..live as u32).collect(),
            target: live as usize,
            gens: vec![0; live as usize],
            removed: Vec::new(),
            next_fresh: live as u32,
            corrupt,
        }
    }

    fn extend(&mut self, s: &mut Stream, n: usize) {
        s.kind.reserve(n);
        s.key.reserve(n);
        s.value.reserve(n);
        for _ in 0..n {
            let mut roll = below(&mut self.rng, 100);
            if roll < 50 {
                // A write that changes the key count inserts below the
                // target count and removes above it, so the load holds
                // instead of drifting as a random walk.
                roll = match self.live.len().cmp(&self.target) {
                    Ordering::Less => 0,
                    Ordering::Greater => 25,
                    Ordering::Equal => roll,
                };
            }
            let (kind, idx) = match roll {
                0..=24 => {
                    let i = self.next_fresh;
                    self.next_fresh += 1;
                    self.gens.push(1);
                    self.live.push(i);
                    (INSERT, i)
                }
                25..=49 => {
                    let p = below(&mut self.rng, self.live.len() as u64) as usize;
                    let i = self.live.swap_remove(p);
                    self.removed.push(i);
                    (REMOVE, i)
                }
                50..=59 => {
                    let i = self.live[below(&mut self.rng, self.live.len() as u64) as usize];
                    self.gens[i as usize] += 1;
                    (UPDATE, i)
                }
                60..=89 => {
                    let i = self.live[below(&mut self.rng, self.live.len() as u64) as usize];
                    (GET_HIT, i)
                }
                _ => {
                    // Misses probe recently removed keys (their counters
                    // were just reset) or, before any removal, keys from
                    // outside the stream.
                    let r = self.removed.len() as u64;
                    if r == 0 {
                        let k = self.keys.absent_key(self.rng.next_u64() >> 2);
                        s.kind.push(GET_MISS);
                        s.key.push(k);
                        s.value.push(0);
                        continue;
                    }
                    let back = below(&mut self.rng, r.min(4096));
                    (GET_MISS, self.removed[(r - 1 - back) as usize])
                }
            };
            let k = self.keys.key_at(idx as u64);
            let mut v = if kind == GET_MISS {
                0
            } else {
                val(k, self.gens[idx as usize] as u64)
            };
            if self.corrupt && kind == GET_HIT {
                v ^= 1;
                self.corrupt = false;
            }
            s.kind.push(kind);
            s.key.push(k);
            s.value.push(v);
        }
    }
}

type Table = ShardedMcCuckoo<u64, u64>;

fn setup(g: &Geo, seed: u64, keys: &UniqueKeys) -> Checked<Arc<Table>> {
    let t = Arc::new(Table::new(g.shards, config(g, seed)));
    let mut buf = Vec::with_capacity(1024);
    for i in 0..live_len(g) {
        let k = keys.key_at(i);
        buf.push((k, val(k, 0)));
        if buf.len() == buf.capacity() {
            if t.insert_batch(&buf).iter().any(|r| r.is_err()) {
                return Err("preload rejected a key".into());
            }
            buf.clear();
        }
    }
    if t.insert_batch(&buf).iter().any(|r| r.is_err()) {
        return Err("preload rejected a key".into());
    }
    Ok(t)
}

struct Serving {
    table: Arc<Table>,
    log: OpLog<VecSink>,
    sink: VecSink,
    maint: Maintainer<u64, u64, VecSink>,
    /// Keys whose fresh insert was rejected: later ops on them are
    /// skipped (the shadow assumed they were placed).
    lost: Vec<u64>,
    pos: usize,
}

struct Live {
    ops: u64,
    failed: u64,
    elapsed: f64,
    /// `mem_stats()` at the start and after exactly `min_ops` ops, and
    /// the rejected inserts by then.
    window: Option<(MemStats, MemStats, u64)>,
    compact_ns: Vec<f64>,
}

/// When a `live` loop stops.
#[derive(Clone, Copy)]
enum Stop {
    /// After `dur` and at least `min_ops` ops, ticking maintenance
    /// every `TICK_EVERY` ops; never past stream position `until`.
    Timed {
        dur: Duration,
        min_ops: usize,
        until: usize,
    },
    /// Without ticks, once the log holds exactly `records` records past
    /// absolute position `from`.
    Tail { from: u64, records: u64 },
}

/// Cuts between two set-ups timed inside the timed phase.
const SETUP_EVERY: usize = 5;

/// Set-ups timed between time slices of the timed phase (outside the
/// slices), so they sample the host across the whole run as the slices
/// do; each is scaled by the reference run at its cut.
struct SetupSamples<'a> {
    g: &'a Geo,
    seed: u64,
    keys: &'a UniqueKeys,
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

/// The closed loop over the pre-generated stream: each op is timed,
/// then checked against the value the shadow says it must return.
/// Also stops early if the stream or a latency buffer runs out.
fn live<T: Tracer>(
    sv: &mut Serving,
    s: &Stream,
    stop: Stop,
    smp: &mut Samples,
    mut setups: Option<&mut SetupSamples>,
    tr: &mut T,
) -> Checked<Live> {
    let (dur, min_ops) = match stop {
        Stop::Timed { dur, min_ops, .. } => (dur, min_ops),
        Stop::Tail { .. } => (Duration::MAX, usize::MAX),
    };
    let end = match stop {
        Stop::Timed { until, .. } => until.min(s.kind.len()),
        Stop::Tail { .. } => s.kind.len(),
    };
    let t = &*sv.table;
    let before = t.mem_stats();
    let mut out = Live {
        ops: 0,
        failed: 0,
        elapsed: 0.0,
        window: None,
        compact_ns: Vec::with_capacity(1024),
    };
    smp.begin(dur);
    let start = Instant::now();
    let deadline = start.checked_add(dur);
    let mut done = 0usize;
    while sv.pos < end {
        let i = sv.pos;
        let (kind, k, v) = (s.kind[i], s.key[i], s.value[i]);
        sv.pos += 1;
        if !sv.lost.is_empty() && sv.lost.contains(&k) {
            continue;
        }
        let req = i as u32;
        let t1 = match kind {
            GET_HIT | GET_MISS => {
                let sp = tr.open("shard.get", req, NONE);
                let t0 = Instant::now();
                let got = t.get(&k);
                let t1 = Instant::now();
                tr.close(sp);
                if !smp.r.push(sys::ns_since(t0, t1)) {
                    break;
                }
                let want = (kind == GET_HIT).then_some(v);
                if got != want {
                    return Err(format!("get {k:#x}: got {got:?}, want {want:?}"));
                }
                t1
            }
            _ => {
                let root = tr.open("client.write", req, NONE);
                let t0 = Instant::now();
                let res = if kind == REMOVE {
                    let sp = tr.open("shard.remove", req, root);
                    let got = t.remove(&k);
                    tr.close(sp);
                    let sp = tr.open("oplog.record", req, root);
                    sv.log.record(&OpRecord::<u64, u64>::Remove { key: k });
                    tr.close(sp);
                    (got != Some(v)).then(|| format!("remove {k:#x}: got {got:?}, want {v:#x}"))
                } else {
                    let sp = tr.open("shard.insert", req, root);
                    let got = t.insert(k, v);
                    tr.close(sp);
                    match got {
                        Ok(updated) if updated == (kind == UPDATE) => {
                            let sp = tr.open("oplog.record", req, root);
                            sv.log.record(&OpRecord::Insert { key: k, value: v });
                            tr.close(sp);
                            None
                        }
                        Err(_) if kind == INSERT => {
                            out.failed += 1;
                            sv.lost.push(k);
                            None
                        }
                        other => Some(format!("insert {k:#x} (kind {kind}): {other:?}")),
                    }
                };
                let t1 = Instant::now();
                tr.close(root);
                if let Some(e) = res {
                    return Err(e);
                }
                // A rejected insert is counted as failed, never timed
                // as a success.
                if sv.lost.last() != Some(&k) && !smp.w.push(sys::ns_since(t0, t1)) {
                    break;
                }
                t1
            }
        };
        out.ops += 1;
        if smp.tick(t1, out.ops) {
            let (cut, ref_ns) = smp.last_cut();
            if let Some(su) = setups.as_deref_mut().filter(|_| cut % SETUP_EVERY == 1) {
                let t0 = Instant::now();
                let spare = setup(su.g, su.seed, su.keys)?;
                let secs = t0.elapsed().as_secs_f64();
                drop(spare);
                if su.raw.len() < su.raw.capacity() {
                    su.raw.push(secs);
                    su.scaled.push(secs * sys::REF_NS / ref_ns);
                }
                smp.resume(Instant::now());
            }
        }
        done += 1;
        if let Stop::Tail { from, records } = stop {
            let pos = sv.sink.first_record_index() + sv.sink.record_count() as u64;
            if pos - from >= records {
                break;
            }
            continue;
        }
        if done % TICK_EVERY == 0 {
            // Ticks fall on multiples of TICK_EVERY, so sampled span
            // stores keep every one of them.
            let sp = tr.open("maint.tick", done as u32, NONE);
            let t0 = Instant::now();
            let report = sv.maint.tick();
            let d = t0.elapsed();
            tr.close(sp);
            if report.compaction.is_some() {
                out.compact_ns.push(d.as_nanos() as f64);
            }
        }
        if done == min_ops {
            out.window = Some((before, t.mem_stats(), out.failed));
        }
        if deadline.is_some_and(|d| t1 >= d) && done >= min_ops {
            break;
        }
    }
    let end = Instant::now();
    smp.end(end, out.ops);
    out.elapsed = (end - start).as_secs_f64();
    Ok(out)
}

pub fn run(args: &Args, rep: &mut Report) -> Checked<()> {
    let g = geo(args);
    let keys = UniqueKeys::new(args.seed);
    let n = live_len(&g);

    // The live table's set-up; `setup_s` comes from the set-ups timed
    // inside the timed phase. The RSS growth across it is the table's
    // footprint.
    let rss0 = sys::rss_bytes();
    let table = setup(&g, args.seed, &keys)?;
    let rss_growth = sys::rss_bytes().saturating_sub(rss0);
    rep.info(&format!(
        "table: {} shards x 3 x {} buckets (~{:.2} MiB), {} live keys (load {:.3})",
        g.shards,
        g.bpt,
        (g.shards * 3 * g.bpt * 33) as f64 / (1 << 20) as f64,
        n,
        n as f64 / (g.shards * 3 * g.bpt) as f64
    ));

    let sink = VecSink::new();
    let mut sv = Serving {
        table: table.clone(),
        log: OpLog::new(sink.clone()),
        sink: sink.clone(),
        maint: Maintainer::new(
            table.clone(),
            sink,
            MaintConfig {
                snapshot_every: 0,
                retain: 2,
                compact_watermark: g.watermark,
                retire_backoff: MaintConfig::default().retire_backoff,
            },
        ),
        lost: Vec::with_capacity(4096),
        pos: 0,
    };
    let mut gen = Gen::new(args.seed, keys.clone(), n, args.corrupt);
    let mut stream = Stream {
        kind: Vec::new(),
        key: Vec::new(),
        value: Vec::new(),
    };

    // Warm-up (fixed op count), which also calibrates how long a stream
    // the timed phase needs; the rest of the stream is generated before
    // the clock starts.
    gen.extend(&mut stream, g.warmup);
    let warm = {
        let mut smp = Samples::new(g.warmup, g.warmup, 0);
        let stop = Stop::Timed {
            dur: Duration::ZERO,
            min_ops: g.warmup,
            until: g.warmup,
        };
        live(&mut sv, &stream, stop, &mut smp, None, &mut Off)?
    };
    // The host's speed can double between the warm-up and the timed
    // phase; if the stream still runs out, the timed phase ends early
    // (reported below) and the ops `fill_tail` needs stay unused.
    let rate = warm.ops as f64 / warm.elapsed;
    let need = ((rate * args.seconds * 2.0) as usize).max(2 * g.window);
    gen.extend(&mut stream, need + 4 * tail_records(&g) as usize);
    drop(gen);
    let until = g.warmup + need;

    let dur = Duration::from_secs_f64(args.seconds);
    let m0 = table.stats().maint;
    if !args.trace {
        let slices = sys::e2e_slices(args.seconds) as usize;
        // The table lives in the L2, so the reference is timed warm.
        let mut smp = Samples::new(need, need, slices as u32).warm_reference();
        let mut setups = SetupSamples {
            g: &g,
            seed: args.seed,
            keys: &keys,
            raw: Vec::with_capacity(slices / SETUP_EVERY + 1),
            scaled: Vec::with_capacity(slices / SETUP_EVERY + 1),
        };
        let stop = Stop::Timed {
            dur,
            min_ops: g.window,
            until,
        };
        let out = live(
            &mut sv,
            &stream,
            stop,
            &mut smp,
            Some(&mut setups),
            &mut Off,
        )?;
        rep.ops(out.ops, out.failed);
        let m1 = table.stats().maint;
        let (b, a, window_failed) = out
            .window
            .ok_or("stream ran out before the count window closed")?;
        rep.info(&format!(
            "timed {:.2}s: {} ops; {} rejected inserts; {} compactions, {} records truncated",
            out.elapsed,
            out.ops,
            out.failed,
            m1.compactions - m0.compactions,
            m1.records_truncated - m0.records_truncated
        ));
        if sv.pos >= until {
            rep.info("the timed phase ended early: the pre-generated stream ran out");
        }
        rep.info(&format!(
            "failed_frac {:e} (rejected inserts in the {}-op count window)",
            window_failed as f64 / g.window as f64,
            g.window
        ));
        rep.timing(&smp);
        let window_ops = g.window as f64;
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
        rep.e2e("setup_s", sys::median(&setups.scaled), "s");
        fill_tail(&mut sv, &stream, tail_records(&g))?;
        let rec = ladder::recover_checked(&table, &sv.maint, &sv.sink, g.recoveries)?;
        rep.info(&format!(
            "recover_s {:.6} (median of {}: parse {:.6} s + replay {:.6} s, {} tail records, checked item for item)",
            rec.parse_s + rec.replay_s,
            g.recoveries,
            rec.parse_s,
            rec.replay_s,
            rec.tail
        ));
        let ffl = first_failure_load(&g, args.seed, &keys);
        rep.info(&format!("first_failure_load {ffl:.6}"));
        rep.info(&format!(
            "count window: {} ops from stream position {}; setup_s: median of {} set-ups, raw {:.6} s",
            g.window,
            g.warmup,
            setups.scaled.len(),
            sys::median(&setups.raw)
        ));
    } else {
        let slice = dur / (2 * SLICES);
        let mut smp = Samples::new(need, need, 0);
        let mut spans = Spans::new(1 << 21, 16);
        let mut overhead = Overhead::default();
        let mut compact_ns = Vec::new();
        let s1 = table.stats();
        let pos1 = sv.sink.first_record_index() + sv.sink.record_count() as u64;
        let bytes1 = sv.sink.byte_len() + s1.maint.bytes_truncated;
        for _ in 0..SLICES {
            let stop = Stop::Timed {
                dur: slice,
                min_ops: 1,
                until,
            };
            let a = live(&mut sv, &stream, stop, &mut smp, None, &mut Off)?;
            let b = live(&mut sv, &stream, stop, &mut smp, None, &mut spans)?;
            overhead.add(false, a.ops, a.elapsed);
            overhead.add(true, b.ops, b.elapsed);
            rep.ops(a.ops + b.ops, a.failed + b.failed);
            compact_ns.extend(a.compact_ns.into_iter().chain(b.compact_ns));
        }
        let s2 = table.stats();
        let pos2 = sv.sink.first_record_index() + sv.sink.record_count() as u64;
        let bytes2 = sv.sink.byte_len() + s2.maint.bytes_truncated;
        let (m1, m2) = (&s1.maint, &s2.maint);
        fill_tail(&mut sv, &stream, tail_records(&g))?;
        let rec = ladder::recover_checked(&table, &sv.maint, &sv.sink, g.recoveries)?;
        spans.dump("churn_logged_l2 live");
        rep.layer("trace.overhead_frac", overhead.frac(), "frac");
        let live_layers = ladder::LiveLayers {
            record_ns: spans.median_ns("oplog.record"),
            bytes_per_write: Some((bytes2 - bytes1) as f64 / (pos2 - pos1).max(1) as f64),
            tick_ns: spans.median_ns("maint.tick"),
            compact_ns: (!compact_ns.is_empty()).then(|| sys::median(&compact_ns)),
            compactions: Some((m2.compactions - m1.compactions) as f64),
            records_truncated: Some((m2.records_truncated - m1.records_truncated) as f64),
            recover: Some(rec),
        };
        let prefix = 1 << 15;
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        for i in 0..prefix.min(stream.kind.len()) {
            match stream.kind[i] {
                GET_HIT | GET_MISS => reads.push(stream.key[i]),
                INSERT | UPDATE => writes.push(stream.key[i]),
                _ => {}
            }
        }
        reads.truncate(reads.len() / 32 * 32);
        writes.truncate(writes.len() / 32 * 32);
        ladder::run(
            rep,
            LadderInput {
                config: config(&g, args.seed),
                shards: g.shards,
                keys: &keys,
                preload: n,
                read_keys: &reads,
                write_keys: &writes,
                live: None,
                stats: s2,
                layers: live_layers,
            },
        )?;
    }
    Ok(())
}

/// Log records every recovery replays. A compaction leaves fewer than
/// `watermark + TICK_EVERY` records, so any run can be brought to this.
fn tail_records(g: &Geo) -> u64 {
    (g.watermark + TICK_EVERY) as u64
}

/// Serve on (untimed, no ticks) until exactly `records` log records
/// follow the newest managed snapshot, so every run recovers the same
/// amount of log.
fn fill_tail(sv: &mut Serving, s: &Stream, records: u64) -> Checked<()> {
    let from = sv
        .maint
        .latest_snapshot()
        .ok_or("no compaction ran in the timed phase")?
        .log_pos;
    let mut smp = Samples::new(4 * records as usize, 4 * records as usize, 0);
    live(
        sv,
        s,
        Stop::Tail { from, records },
        &mut smp,
        None,
        &mut Off,
    )?;
    let pos = sv.sink.first_record_index() + sv.sink.record_count() as u64;
    if pos - from != records {
        return Err(format!(
            "log tail is {} records, want {records}",
            pos - from
        ));
    }
    Ok(())
}

/// Load at the first rejected insert when a fresh table of this
/// geometry is filled with the workload's key stream (single thread,
/// so it repeats exactly for a seed).
fn first_failure_load(g: &Geo, seed: u64, keys: &UniqueKeys) -> f64 {
    let t = Table::new(g.shards, config(g, seed));
    let cap = t.capacity() as f64;
    for i in 0.. {
        let k = keys.key_at(i);
        if t.insert(k, val(k, 0)).is_err() {
            return t.len() as f64 / cap;
        }
    }
    unreachable!("the fill ends at the first rejected insert")
}

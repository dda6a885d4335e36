//! The traced run's per-layer measurements.
//!
//! The layer ladder replays the same key sets up four rungs: the bare
//! `McCuckoo` engine → `ConcurrentMcCuckoo` → `ShardedMcCuckoo` with one
//! shard → with the workload's N shards. Each rung has the workload's
//! total geometry and fill; a layer's cost is its delta to the rung
//! below. Rung 2 is the one shard inside rung 3, so those two differ
//! only by the routing layer.
//!
//! Layers a workload does not drive live (the op log, maintenance and
//! recovery on the unlogged workload; splits on both) are measured by a
//! probe on one shard of the workload's geometry, so every workload
//! reports every per-layer metric of `BENCHMARK.json`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use hash_kit::splitmix::unmix64;
use hash_kit::BucketFamily;
use mccuckoo_core::obs::TableStats;
use mccuckoo_core::{
    parse_log, ConcurrentMcCuckoo, DeletionMode, LogSink, MaintConfig, Maintainer, McConfig,
    McCuckoo, OpLog, OpRecord, ShardedMcCuckoo, VecSink,
};
use mem_model::MemStats;
use workloads::UniqueKeys;

use crate::report::{Checked, Report};
use crate::sys::median;
use crate::trace::{Spans, Tracer, NONE};
use crate::val;

type Table = ShardedMcCuckoo<u64, u64>;

/// Generation the ladder writes (distinct from every workload's).
const LADDER_GEN: u64 = 0x001A_DDE4;

/// Median recovery cost from the newest managed snapshot plus the log
/// tail, over several recoveries.
#[derive(Clone, Copy)]
pub struct Recovery {
    pub parse_s: f64,
    pub replay_s: f64,
    pub tail: usize,
}

/// Per-layer figures the live traced run measured itself; `None` where
/// the workload does not drive that layer, so the probe supplies it.
#[derive(Default)]
pub struct LiveLayers {
    pub record_ns: Option<f64>,
    pub bytes_per_write: Option<f64>,
    pub tick_ns: Option<f64>,
    pub compact_ns: Option<f64>,
    pub compactions: Option<f64>,
    pub records_truncated: Option<f64>,
    pub recover: Option<Recovery>,
}

pub struct LadderInput<'a> {
    /// The workload's per-shard configuration.
    pub config: McConfig,
    pub shards: usize,
    pub keys: &'a UniqueKeys,
    /// Keys `0..preload` of the stream are live at the end of the run.
    pub preload: u64,
    /// A prefix of the workload's read keys (a multiple of 32).
    pub read_keys: &'a [u64],
    /// A prefix of the workload's written keys (a multiple of 32).
    pub write_keys: &'a [u64],
    /// The live N-shard table, used as rung 4 (built fresh if `None`).
    pub live: Option<Arc<Table>>,
    /// `stats()` of the live table at the end of the run.
    pub stats: TableStats,
    pub layers: LiveLayers,
}

/// Recover from the newest managed snapshot plus the retained log tail
/// `reps` times; the first recovery must match `table` item for item.
pub fn recover_checked(
    table: &Table,
    maint: &Maintainer<u64, u64, VecSink>,
    sink: &VecSink,
    reps: usize,
) -> Checked<Recovery> {
    let snap = maint
        .latest_snapshot()
        .ok_or("no managed snapshot to recover from")?;
    let off = snap
        .tail_offset(sink.first_record_index())
        .ok_or("the log was truncated past the newest snapshot")?;
    let lines = sink.lines();
    let tail = &lines[off..];
    let mut want = table.to_snapshot().items;
    want.sort_unstable();
    let (mut parse, mut replay) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        let snapshot = snap.snapshot.clone();
        let t0 = Instant::now();
        let ops = parse_log::<u64, u64>(tail).map_err(|e| format!("parse_log: {e:?}"))?;
        let t1 = Instant::now();
        let rec = Table::recover(snapshot, &ops).map_err(|e| format!("recover: {e}"))?;
        let t2 = Instant::now();
        parse.push((t1 - t0).as_secs_f64());
        replay.push((t2 - t1).as_secs_f64());
        if rep == 0 {
            let mut got = rec.to_snapshot().items;
            got.sort_unstable();
            if got != want {
                return Err(format!(
                    "recovered table differs from the live one ({} vs {} items)",
                    got.len(),
                    want.len()
                ));
            }
        }
    }
    Ok(Recovery {
        parse_s: median(&parse),
        replay_s: median(&replay),
        tail: tail.len(),
    })
}

/// One rung of the ladder, driven through its own public API.
trait Rung {
    fn put(&mut self, k: u64, v: u64) -> bool;
    fn get(&mut self, k: u64) -> Option<u64>;
    fn get_batch(&mut self, keys: &[u64]) -> Vec<Option<u64>>;
    fn put_batch(&mut self, items: &[(u64, u64)]) -> bool;
    fn del(&mut self, k: u64) -> Option<u64>;
    fn mem(&self) -> MemStats;
}

impl Rung for McCuckoo<u64, u64> {
    fn put(&mut self, k: u64, v: u64) -> bool {
        self.insert(k, v).is_ok()
    }
    fn get(&mut self, k: u64) -> Option<u64> {
        McCuckoo::get(self, &k).copied()
    }
    fn get_batch(&mut self, keys: &[u64]) -> Vec<Option<u64>> {
        self.lookup_batch(keys)
    }
    fn put_batch(&mut self, items: &[(u64, u64)]) -> bool {
        items.iter().all(|&(k, v)| self.insert(k, v).is_ok())
    }
    fn del(&mut self, k: u64) -> Option<u64> {
        self.remove(&k)
    }
    fn mem(&self) -> MemStats {
        self.meter().snapshot()
    }
}

struct Conc<'a>(&'a ConcurrentMcCuckoo<u64, u64>);

impl Rung for Conc<'_> {
    fn put(&mut self, k: u64, v: u64) -> bool {
        self.0.insert(k, v).is_ok()
    }
    fn get(&mut self, k: u64) -> Option<u64> {
        self.0.get(&k)
    }
    fn get_batch(&mut self, keys: &[u64]) -> Vec<Option<u64>> {
        self.0.get_batch(keys)
    }
    fn put_batch(&mut self, items: &[(u64, u64)]) -> bool {
        self.0.insert_batch(items).iter().all(|r| r.is_ok())
    }
    fn del(&mut self, k: u64) -> Option<u64> {
        self.0.remove(&k)
    }
    fn mem(&self) -> MemStats {
        self.0.mem_stats()
    }
}

struct Shard<'a>(&'a Table);

impl Rung for Shard<'_> {
    fn put(&mut self, k: u64, v: u64) -> bool {
        self.0.insert(k, v).is_ok()
    }
    fn get(&mut self, k: u64) -> Option<u64> {
        self.0.get(&k)
    }
    fn get_batch(&mut self, keys: &[u64]) -> Vec<Option<u64>> {
        self.0.lookup_batch(keys)
    }
    fn put_batch(&mut self, items: &[(u64, u64)]) -> bool {
        self.0.insert_batch(items).iter().all(|r| r.is_ok())
    }
    fn del(&mut self, k: u64) -> Option<u64> {
        self.0.remove(&k)
    }
    fn mem(&self) -> MemStats {
        self.0.mem_stats()
    }
}

/// Span names per rung: insert, get, lookup batch, insert batch, remove.
const NAMES: [[&str; 5]; 4] = [
    [
        "engine.insert",
        "engine.get",
        "engine.lookup_batch",
        "engine.insert_batch",
        "engine.remove",
    ],
    [
        "concurrent.insert",
        "concurrent.get",
        "concurrent.get_batch",
        "concurrent.insert_batch",
        "concurrent.remove",
    ],
    [
        "shard1.insert",
        "shard1.get",
        "shard1.lookup_batch",
        "shard1.insert_batch",
        "shard1.remove",
    ],
    [
        "shardN.insert",
        "shardN.get",
        "shardN.lookup_batch",
        "shardN.insert_batch",
        "shardN.remove",
    ],
];

/// Metered access counts of one rung.
#[derive(Default)]
struct RungCounts {
    reads_per_insert: f64,
    writes_per_insert: f64,
    reads_per_hit: f64,
    reads_per_miss: f64,
    onchip_per_get: f64,
    rejected: u64,
}

struct KeySets<'a> {
    keys: &'a UniqueKeys,
    fresh: Vec<u64>,
    absent: Vec<u64>,
    reads: &'a [u64],
    writes: Vec<(u64, u64)>,
}

impl KeySets<'_> {
    /// Whether `k` is one of the stream's keys `0..limit`.
    fn in_prefix(&self, k: u64, limit: u64) -> bool {
        self.keys.unpermute(unmix64(k)) < limit
    }
}

/// Fresh inserts, hit and miss gets, 32-key lookup and insert batches
/// and removes on one rung, each call in its own span; every result is
/// checked. Keys `0..live_limit` must be present when it starts.
fn climb<R: Rung>(
    rung: usize,
    r: &mut R,
    ks: &KeySets,
    live_limit: u64,
    spans: &mut Spans,
) -> Checked<RungCounts> {
    let [n_ins, n_get, n_lb, n_ib, n_rm] = NAMES[rung];
    let m = ks.fresh.len() as f64;
    let mut c = RungCounts::default();
    // A rejected fresh insert is counted, and the key is expected absent.
    let mut placed = vec![true; ks.fresh.len()];
    let a = r.mem();
    for (i, &k) in ks.fresh.iter().enumerate() {
        let sp = spans.open(n_ins, i as u32, NONE);
        placed[i] = r.put(k, val(k, LADDER_GEN));
        spans.close(sp);
    }
    c.rejected = placed.iter().filter(|&&p| !p).count() as u64;
    let b = r.mem();
    c.reads_per_insert = (b.offchip_reads - a.offchip_reads) as f64 / m;
    c.writes_per_insert = (b.offchip_writes - a.offchip_writes) as f64 / m;
    // Hits in the reverse of insertion order.
    for (i, (&k, &p)) in ks.fresh.iter().zip(&placed).enumerate().rev() {
        let sp = spans.open(n_get, i as u32, NONE);
        let got = r.get(k);
        spans.close(sp);
        if got != p.then(|| val(k, LADDER_GEN)) {
            return Err(format!("{n_get}: fresh key {k:#x} returned {got:?}"));
        }
    }
    let h = r.mem();
    for (i, &k) in ks.absent.iter().enumerate() {
        let sp = spans.open(n_get, i as u32, NONE);
        let got = r.get(k);
        spans.close(sp);
        if got.is_some() {
            return Err(format!("{n_get}: absent key {k:#x} returned {got:?}"));
        }
    }
    let e = r.mem();
    c.reads_per_hit = (h.offchip_reads - b.offchip_reads) as f64 / m;
    c.reads_per_miss = (e.offchip_reads - h.offchip_reads) as f64 / ks.absent.len() as f64;
    c.onchip_per_get = (e.onchip_reads - b.onchip_reads) as f64 / (m + ks.absent.len() as f64);
    for (i, batch) in ks.reads.chunks_exact(32).enumerate() {
        let sp = spans.open(n_lb, i as u32, NONE);
        let got = r.get_batch(batch);
        spans.close(sp);
        for (g, &k) in got.iter().zip(batch) {
            if g.is_some() != ks.in_prefix(k, live_limit) {
                return Err(format!("{n_lb}: key {k:#x} returned {g:?}"));
            }
        }
    }
    for (i, batch) in ks.writes.chunks_exact(32).enumerate() {
        let sp = spans.open(n_ib, i as u32, NONE);
        let ok = r.put_batch(batch);
        spans.close(sp);
        if !ok {
            return Err(format!("{n_ib}: a batch upsert was rejected"));
        }
    }
    for (i, (&k, &p)) in ks.fresh.iter().zip(&placed).enumerate() {
        let sp = spans.open(n_rm, i as u32, NONE);
        let got = r.del(k);
        spans.close(sp);
        if got != p.then(|| val(k, LADDER_GEN)) {
            return Err(format!("{n_rm}: remove {k:#x} returned {got:?}"));
        }
    }
    Ok(c)
}

fn fill_sharded(t: &Table, keys: &UniqueKeys, n: u64) -> Checked<()> {
    let mut buf = Vec::with_capacity(4096);
    for i in 0..n {
        let k = keys.key_at(i);
        buf.push((k, val(k, 0)));
        if buf.len() == buf.capacity() || i + 1 == n {
            if t.insert_batch(&buf).iter().any(|r| r.is_err()) {
                return Err("ladder fill rejected a key".into());
            }
            buf.clear();
        }
    }
    Ok(())
}

/// Op-log, maintenance, recovery and split figures from a probe on one
/// shard of the workload's geometry at the workload's load. Split
/// figures are medians over `SPLITS` splits of equal size, made with
/// no readers racing them.
struct Probe {
    record_ns: f64,
    bytes_per_write: f64,
    tick_ns: f64,
    compact_ns: f64,
    compactions: f64,
    records_truncated: f64,
    recover: Recovery,
    split_ms: f64,
    moved_per_s: f64,
}

fn probe(config: &McConfig, keys: &UniqueKeys, load: f64, spans: &mut Spans) -> Checked<Probe> {
    const OPS: usize = 1 << 16;
    const SPLITS: usize = 7;
    // At most ~2 MB, so recovering it stays a fraction of a second even
    // where the workload's shards are DRAM-sized.
    let config = McConfig {
        buckets_per_table: config.buckets_per_table.min(20_000),
        ..config.clone()
    };
    let table = Arc::new(Table::new(1, config.clone()));
    let live = (load * table.capacity() as f64) as u64;
    fill_sharded(&table, keys, live)?;
    let sink = VecSink::new();
    let log = OpLog::new(sink.clone());
    let mut maint = Maintainer::new(
        table.clone(),
        sink.clone(),
        MaintConfig {
            snapshot_every: 0,
            retain: 2,
            compact_watermark: OPS / 4,
            retire_backoff: MaintConfig::default().retire_backoff,
        },
    );
    let mut compact_ns = Vec::new();
    for i in 0..OPS as u64 {
        // Alternate removing the oldest live key and inserting a fresh
        // one, so the load holds while every op is logged.
        let rec = if i % 2 == 0 {
            let k = keys.key_at(i / 2);
            if table.remove(&k) != Some(val(k, 0)) {
                return Err(format!("probe: remove of live key {k:#x} failed"));
            }
            OpRecord::Remove { key: k }
        } else {
            let k = keys.key_at(live + i / 2);
            if table.insert(k, val(k, 0)) != Ok(false) {
                return Err(format!("probe: fresh insert of {k:#x} failed"));
            }
            OpRecord::Insert {
                key: k,
                value: val(k, 0),
            }
        };
        let sp = spans.open("oplog.record", i as u32, NONE);
        log.record(&rec);
        spans.close(sp);
        if (i + 1) % crate::churn::TICK_EVERY as u64 == 0 {
            let sp = spans.open("maint.tick", i as u32, NONE);
            let t0 = Instant::now();
            let r = maint.tick();
            let d = t0.elapsed().as_nanos() as f64;
            spans.close(sp);
            if r.compaction.is_some() {
                compact_ns.push(d);
            }
        }
    }
    let m = table.stats().maint;
    let recover = recover_checked(&table, &maint, &sink, 3)?;
    let bytes = sink.byte_len() + m.bytes_truncated;
    drop((maint, log, table));
    // Splits: one `begin_split` each on fresh one-shard tables filled
    // to the same load, so every split drains the same amount.
    let (mut split_ms, mut moved_per_s) = (Vec::new(), Vec::new());
    for _ in 0..SPLITS {
        let t = Table::new(1, config.clone());
        fill_sharded(&t, keys, live)?;
        let t0 = Instant::now();
        let split = t.begin_split(0).map_err(|e| format!("probe split: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        if t.len() as u64 != live {
            return Err(format!("probe split: {} keys after, want {live}", t.len()));
        }
        split_ms.push(secs * 1e3);
        moved_per_s.push(split.moved as f64 / secs);
    }
    Ok(Probe {
        record_ns: spans.median_ns("oplog.record").unwrap_or(f64::NAN),
        bytes_per_write: bytes as f64 / OPS as f64,
        tick_ns: spans.median_ns("maint.tick").unwrap_or(f64::NAN),
        compact_ns: median(&compact_ns),
        compactions: m.compactions as f64,
        records_truncated: m.records_truncated as f64,
        recover,
        split_ms: median(&split_ms),
        moved_per_s: median(&moved_per_s),
    })
}

/// Fresh inserts in the random-walk probe.
const RW_PROBE_INSERTS: u64 = 1 << 20;

/// Fresh inserts the paper's random-walk planner rejects on one shard of
/// 3 × 5 120 buckets (`paper_with_deletion`, the churn workload's shard
/// without its BFS kicks) held at 0.85 load: `RW_PROBE_INSERTS` times,
/// remove the oldest live key and insert a fresh one. A rejected key is offered
/// once more. Returns the rejections and how many second offers placed
/// the key. Single-threaded, so both repeat exactly for a seed.
fn rw_reject_probe(seed: u64, keys: &UniqueKeys) -> Checked<(u64, u64)> {
    let t = Table::new(1, McConfig::paper_with_deletion(5_120, seed ^ 0x5A1C_0000));
    let n = (0.85 * t.capacity() as f64) as usize;
    let mut live = std::collections::VecDeque::with_capacity(n + 1);
    let mut next = 0u64;
    // The fill skips a key the walk rejects; only the churn is counted.
    while live.len() < n {
        let k = keys.key_at(next);
        next += 1;
        if t.insert(k, val(k, 0)).is_ok() {
            live.push_back(k);
        }
    }
    let (mut rejected, mut placed) = (0, 0);
    for _ in 0..RW_PROBE_INSERTS {
        let k = live.pop_front().expect("the probe table is never empty");
        if t.remove(&k) != Some(val(k, 0)) {
            return Err(format!("rw probe: remove of live key {k:#x} failed"));
        }
        let k = keys.key_at(next);
        next += 1;
        match t.insert(k, val(k, 0)) {
            Ok(false) => live.push_back(k),
            Ok(true) => return Err(format!("rw probe: fresh key {k:#x} reported as updated")),
            Err(_) => {
                rejected += 1;
                if t.insert(k, val(k, 0)) == Ok(false) {
                    placed += 1;
                    live.push_back(k);
                }
            }
        }
    }
    if t.len() != live.len() {
        return Err(format!(
            "rw probe: {} keys stored, want {}",
            t.len(),
            live.len()
        ));
    }
    Ok((rejected, placed))
}

/// Mean keys a 32-key batch of `keys` hands each shard it touches
/// (`shard_of`): the batches rung 4 sends to `lookup_batch`.
fn sub_batch_keys(t: &Table, keys: &[u64]) -> f64 {
    let batches = keys.chunks_exact(32);
    let n = batches.len();
    let sum: f64 = batches
        .map(|b| {
            let mut seen = [false; 256];
            for k in b {
                seen[t.shard_of(k)] = true;
            }
            32.0 / seen.iter().filter(|&&s| s).count() as f64
        })
        .sum();
    sum / n as f64
}

/// `BucketFamily::bucket` for all d functions over the read keys: the
/// median over five passes, per key.
fn hash_ns_per_key(config: &McConfig, keys: &[u64]) -> f64 {
    let fam = BucketFamily::new(
        config.family,
        config.d,
        config.buckets_per_table,
        config.seed,
    );
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc = 0usize;
            for k in keys {
                for i in 0..config.d {
                    acc = acc.wrapping_add(fam.bucket(black_box(k), i));
                }
            }
            black_box(acc);
            t0.elapsed().as_nanos() as f64 / keys.len().max(1) as f64
        })
        .collect();
    median(&passes)
}

pub fn run(rep: &mut Report, input: LadderInput) -> Checked<()> {
    let LadderInput {
        config,
        shards,
        keys,
        preload,
        read_keys,
        write_keys,
        live,
        stats,
        layers,
    } = input;
    let m = (preload / 16).min(8192) as usize;
    let fill = preload - m as u64;
    let in_fill = |k: u64| keys.unpermute(unmix64(k)) < fill;
    // Upserts only of keys every rung holds, so no rung's key set
    // depends on which rungs ran before it.
    let mut writes: Vec<(u64, u64)> = write_keys
        .iter()
        .filter(|&&k| in_fill(k))
        .map(|&k| (k, val(k, LADDER_GEN)))
        .collect();
    writes.truncate(writes.len() / 32 * 32);
    let ks = KeySets {
        keys,
        fresh: (0..m as u64)
            .map(|j| keys.absent_key((1 << 62) + j))
            .collect(),
        absent: (0..m as u64)
            .map(|j| keys.absent_key((1 << 62) + (1 << 40) + j))
            .collect(),
        reads: read_keys,
        writes,
    };
    rep.layer(
        "hash_kit.ns_per_key",
        hash_ns_per_key(&config, read_keys),
        "ns/key",
    );

    let kh = &stats.kick_hist;
    let fresh_attempts = stats.ops.inserts + stats.ops.failed_inserts;
    rep.layer("kick.walk_len_mean", kh.mean(), "kicks/insert");
    rep.layer(
        "kick.kicked_insert_frac",
        (kh.count - kh.buckets.first().copied().unwrap_or(0)) as f64 / kh.count.max(1) as f64,
        "frac",
    );
    rep.layer(
        "kick.insert_fail_frac",
        stats.ops.failed_inserts as f64 / fresh_attempts.max(1) as f64,
        "frac",
    );
    let (rejected, placed) = rw_reject_probe(config.seed, keys)?;
    rep.info(&format!(
        "rw probe: {rejected} of {RW_PROBE_INSERTS} fresh inserts rejected by the random walk at 0.85 load; a second offer placed {placed}"
    ));
    rep.layer(
        "kick.rw_rejects_per_m_inserts",
        rejected as f64 * 1e6 / RW_PROBE_INSERTS as f64,
        "rejects/Minsert",
    );

    let mut spans = Spans::new(1 << 18, 1);
    // Rung 4 first: the live table (if any) is dropped before the
    // single-table rungs are built, so at most two tables are resident.
    let (top, keys_per_sub_batch) = match live {
        Some(t) => (
            climb(3, &mut Shard(&t), &ks, preload, &mut spans)?,
            sub_batch_keys(&t, read_keys),
        ),
        None => {
            let t = Table::new(shards, config.clone());
            fill_sharded(&t, keys, fill)?;
            (
                climb(3, &mut Shard(&t), &ks, fill, &mut spans)?,
                sub_batch_keys(&t, read_keys),
            )
        }
    };
    let whole = McConfig {
        buckets_per_table: config.buckets_per_table * shards,
        ..config.clone()
    };
    let engine = {
        let mut e = McCuckoo::<u64, u64>::new(whole.clone().with_deletion(DeletionMode::Reset));
        for i in 0..fill {
            let k = keys.key_at(i);
            e.insert_new(k, val(k, 0))
                .map_err(|_| "ladder engine fill rejected a key".to_string())?;
        }
        climb(0, &mut e, &ks, fill, &mut spans)?
    };
    let (conc, shard1) = {
        let t = Table::new(1, whole);
        fill_sharded(&t, keys, fill)?;
        let c = climb(1, &mut Conc(t.shard(0)), &ks, fill, &mut spans)?;
        (c, climb(2, &mut Shard(&t), &ks, fill, &mut spans)?)
    };
    for c in [&top, &engine, &conc, &shard1] {
        rep.ops(m as u64, c.rejected);
    }
    spans.dump("ladder");

    let med = |name: &str| spans.median_ns(name).unwrap_or(f64::NAN);
    rep.layer("engine.get_ns", med("engine.get"), "ns");
    rep.layer(
        "engine.lookup_batch_ns_per_key",
        med("engine.lookup_batch") / 32.0,
        "ns/key",
    );
    rep.layer(
        "engine.offchip_reads_per_hit",
        engine.reads_per_hit,
        "reads/op",
    );
    rep.layer(
        "engine.offchip_reads_per_miss",
        engine.reads_per_miss,
        "reads/op",
    );
    rep.layer(
        "engine.onchip_reads_per_op",
        engine.onchip_per_get,
        "reads/op",
    );
    rep.layer("engine.insert_ns", med("engine.insert"), "ns");
    rep.layer("engine.remove_ns", med("engine.remove"), "ns");
    rep.layer(
        "engine.offchip_reads_per_insert",
        engine.reads_per_insert,
        "reads/op",
    );
    rep.layer(
        "engine.offchip_writes_per_insert",
        engine.writes_per_insert,
        "writes/op",
    );
    rep.layer("concurrent.get_ns", med("concurrent.get"), "ns");
    rep.layer(
        "concurrent.get_batch_ns_per_key",
        med("concurrent.get_batch") / 32.0,
        "ns/key",
    );
    rep.layer("concurrent.insert_ns", med("concurrent.insert"), "ns");
    rep.layer("concurrent.remove_ns", med("concurrent.remove"), "ns");
    rep.layer(
        "concurrent.offchip_reads_per_insert",
        conc.reads_per_insert,
        "reads/op",
    );
    rep.layer(
        "shard1.lookup_batch_ns_per_key",
        med("shard1.lookup_batch") / 32.0,
        "ns/key",
    );
    rep.layer(
        "shardN.lookup_batch_ns_per_key",
        med("shardN.lookup_batch") / 32.0,
        "ns/key",
    );
    rep.layer(
        "shardN.insert_batch_ns_per_key",
        med("shardN.insert_batch") / 32.0,
        "ns/key",
    );

    rep.layer("shard.keys_per_sub_batch", keys_per_sub_batch, "keys");
    // No workload splits a shard while reads run, so forwarding probes
    // are never taken; the figure is left out rather than print a 0.
    rep.info(
        "shard.forwarding_hits_per_read not measured: no workload splits shards under live reads",
    );

    let load = preload as f64 / (shards * config.d * config.buckets_per_table) as f64;
    let mut probe_spans = Spans::new(1 << 18, 1);
    let p = probe(&config, keys, load.min(0.75), &mut probe_spans)?;
    rep.layer("shard.split_ms_p50", p.split_ms, "ms");
    rep.layer("shard.keys_moved_per_s", p.moved_per_s, "keys/s");
    let recover = layers.recover.unwrap_or(p.recover);
    rep.layer("shard.recover_replay_s", recover.replay_s, "s");
    rep.layer("oplog.parse_s", recover.parse_s, "s");
    rep.layer(
        "oplog.record_ns",
        layers.record_ns.unwrap_or(p.record_ns),
        "ns",
    );
    rep.layer(
        "oplog.bytes_per_write",
        layers.bytes_per_write.unwrap_or(p.bytes_per_write),
        "B/write",
    );
    rep.layer(
        "maint.tick_us_p50",
        layers.tick_ns.unwrap_or(p.tick_ns) / 1e3,
        "us",
    );
    rep.layer(
        "maint.compact_ms_p50",
        layers.compact_ns.unwrap_or(p.compact_ns) / 1e6,
        "ms",
    );
    rep.layer(
        "maint.compactions",
        layers.compactions.unwrap_or(p.compactions),
        "count",
    );
    rep.layer(
        "maint.records_truncated",
        layers.records_truncated.unwrap_or(p.records_truncated),
        "count",
    );
    probe_spans.dump("probe");
    Ok(())
}

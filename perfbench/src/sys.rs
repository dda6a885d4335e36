//! Process-level helpers: CPU pinning, resident memory, latency
//! sample buffers and order statistics.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
mod imp {
    /// glibc's `cpu_set_t`: 1024 bits of CPU mask.
    #[repr(C)]
    struct CpuSet {
        bits: [u64; 16],
    }

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        fn sysconf(name: i32) -> i64;
    }

    pub fn pin_to_cpu(cpu: usize) -> bool {
        if cpu >= 1024 {
            return false;
        }
        let mut set = CpuSet { bits: [0; 16] };
        set.bits[cpu / 64] = 1u64 << (cpu % 64);
        // SAFETY: the mask outlives the call and has the size we pass;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
    }

    /// Resident pages × page size, from `/proc/self/statm`.
    pub fn rss_bytes() -> u64 {
        const SC_PAGESIZE: i32 = 30;
        // SAFETY: sysconf has no memory-safety preconditions.
        let page = unsafe { sysconf(SC_PAGESIZE) }.max(0) as u64;
        std::fs::read_to_string("/proc/self/statm")
            .ok()
            .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
            .map_or(0, |pages| pages * page)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin_to_cpu(_cpu: usize) -> bool {
        false
    }

    pub fn rss_bytes() -> u64 {
        0
    }
}

/// Pin the calling thread to `cpu` (best effort: returns whether the
/// kernel accepted the mask). The client runs on CPU 0, so it is not
/// migrated mid-measurement; the preload's second thread uses CPU 1.
pub fn pin(cpu: usize) -> bool {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    imp::pin_to_cpu(cpu % cores)
}

/// Current resident set size of this process (0 where unknown).
pub fn rss_bytes() -> u64 {
    imp::rss_bytes()
}

/// Nanoseconds since `t0`, saturated into a latency sample.
#[inline]
pub fn ns_since(t0: Instant, t1: Instant) -> u32 {
    (t1 - t0).as_nanos().min(u32::MAX as u128) as u32
}

/// A preallocated buffer of per-request latencies in nanoseconds. The
/// timed loops push into it without allocating; a full buffer ends the
/// timed phase early instead of growing.
pub struct Lat {
    ns: Vec<u32>,
}

impl Lat {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            ns: Vec::with_capacity(n),
        }
    }

    /// Record one sample; false once the buffer is full.
    #[inline]
    pub fn push(&mut self, ns: u32) -> bool {
        if self.ns.len() == self.ns.capacity() {
            return false;
        }
        self.ns.push(ns);
        true
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }
}

/// Length of one time slice of an untraced timed phase.
pub const SLICE_S: f64 = 0.2;

/// Time slices for an untraced timed phase of `secs` seconds.
pub fn e2e_slices(secs: f64) -> u32 {
    ((secs / SLICE_S).round() as u32).max(1)
}

/// Steps of one reference run (2-4 ms on the machine in NOTES.md).
const REF_STEPS: u64 = 4_000;
/// Keys the reference map holds. With its line ring and array it
/// takes ~1.5 MiB: more than the L2 holds beside a workload's hot data,
/// so on the DRAM workload, which flushes the caches between two runs,
/// it also meets the memory latency that workload is bound by.
const REF_KEYS: u64 = 20_000;
/// Lines the reference keeps, and words of its array (a power of two).
const REF_LINES: u64 = 4_096;
const REF_WORDS: u64 = 1 << 16;

/// The duration of one reference run that figures are scaled to: each
/// time-based figure is reported as it would read on a host that runs
/// the reference in `REF_NS`.
pub const REF_NS: f64 = 2.5e6;

/// A fixed piece of CPU work that uses none of the repository's code.
/// Each step churns a std `HashMap` of 20 000 keys (insert, remove,
/// get), formats a JSON-style line into a fresh `String` kept in a ring
/// of 4096 behind a `Mutex` (allocation, free, locking), and does an
/// atomic `fetch_add` on two random words of a 512 KiB array: hashing,
/// cache-resident random loads, atomic stores, locking, formatting and
/// allocation, the mix the serving stack spends its time on.
/// Timed between the time slices of a phase, it measures how fast the
/// host runs at that moment: the machine is shared, and its speed moves
/// by tens of percent in spells of seconds to minutes (see NOTES.md).
pub struct Reference {
    map: HashMap<u64, u64>,
    lines: Mutex<VecDeque<String>>,
    words: Vec<AtomicU64>,
    n: u64,
}

/// SplitMix64's finaliser, kept local so the reference does not move
/// when the repository's hash code does.
fn scramble(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Reference {
    pub fn new() -> Self {
        let mut map = HashMap::with_capacity(2 * REF_KEYS as usize);
        for i in 1..=REF_KEYS {
            map.insert(scramble(i), i);
        }
        Self {
            map,
            lines: Mutex::new((0..REF_LINES).map(|i| i.to_string()).collect()),
            words: (0..REF_WORDS)
                .map(|i| AtomicU64::new(scramble(i)))
                .collect(),
            n: REF_KEYS,
        }
    }

    /// Run the reference once; its wall time in nanoseconds.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..REF_STEPS {
            self.n += 1;
            let k = scramble(self.n);
            self.map.insert(k, self.n);
            acc = acc.wrapping_add(self.map.remove(&scramble(self.n - REF_KEYS)).unwrap_or(0));
            acc = acc.wrapping_add(*self.map.get(&scramble(self.n - REF_KEYS / 3)).unwrap_or(&0));
            let line = format!("{{\"key\":{k},\"value\":{}}}", self.n);
            acc = acc.wrapping_add(line.len() as u64);
            {
                let mut lines = self.lines.lock().expect("reference ring lock poisoned");
                lines.pop_front();
                lines.push_back(line);
            }
            let mask = REF_WORDS as usize - 1;
            // One thread only: the ordering is there for its cost, the
            // kind of atomic a seqlock write pays.
            for w in [k as usize & mask, (k >> 32) as usize & mask] {
                acc ^= self.words[w].fetch_add(acc | 1, Ordering::AcqRel);
            }
        }
        std::hint::black_box(acc);
        t0.elapsed().as_nanos() as f64
    }
}

/// Latency buffers for reads and writes plus time-slice cuts. A timed
/// phase is cut into equal time slices, with one timed run of the
/// `Reference` at every cut (outside the slices). Each metric is taken
/// per slice, scaled to `REF_NS` by the mean of the reference runs at
/// the slice's two ends, and the median over slices is reported.
pub struct Samples {
    pub r: Lat,
    pub w: Lat,
    slices: u32,
    every: Duration,
    next: Option<Instant>,
    cuts: Vec<Cut>,
    reference: Option<Reference>,
    /// Time the reference warm (see `warm_reference`).
    warm: bool,
    /// Reference time at each cut, in nanoseconds.
    ref_ns: Vec<f64>,
}

#[derive(Clone, Copy)]
struct Cut {
    r: usize,
    w: usize,
    ops: u64,
    at: Instant,
}

/// Figures of a timed phase: medians over its slices, scaled to
/// `REF_NS`, and the unscaled medians beside them.
pub struct SliceStats {
    pub slices: usize,
    pub scaled: Figures,
    pub raw: Figures,
    /// Median reference time over the phase's cuts.
    pub ref_ns: f64,
}

pub struct Figures {
    pub ops_per_s: f64,
    pub read_p50: f64,
    pub read_p99: f64,
    pub write_p50: f64,
    pub write_p99: f64,
}

impl Samples {
    /// Buffers for `reads` and `writes` samples; `slices` = 0 records no
    /// cuts and runs no reference (warm-up and traced phases).
    pub fn new(reads: usize, writes: usize, slices: u32) -> Self {
        Self {
            r: Lat::with_capacity(reads),
            w: Lat::with_capacity(writes),
            slices,
            every: Duration::ZERO,
            next: None,
            cuts: Vec::with_capacity(slices as usize + 2),
            reference: (slices > 0).then(Reference::new),
            warm: false,
            ref_ns: Vec::with_capacity(slices as usize + 2),
        }
    }

    /// Run the reference twice at every cut and time the second run. The
    /// first run refills the caches the slice evicted; for a workload
    /// whose data stays in the caches, the warm run's time follows its
    /// speed across the host's spells more closely than the cold one.
    pub fn warm_reference(mut self) -> Self {
        self.warm = true;
        self
    }

    /// One timed reference run at a cut.
    fn time_reference(&mut self) {
        if let Some(reference) = self.reference.as_mut() {
            if self.warm {
                reference.run();
            }
            self.ref_ns.push(reference.run());
        }
    }

    /// Start cutting a phase of length `dur`: runs the reference, then
    /// opens the first slice.
    pub fn begin(&mut self, dur: Duration) {
        if self.reference.is_some() {
            self.ref_ns.clear();
            self.time_reference();
            let start = Instant::now();
            self.every = dur / self.slices;
            self.next = Some(start + self.every);
            self.cuts.clear();
            self.cuts.push(Cut {
                r: self.r.ns.len(),
                w: self.w.ns.len(),
                ops: 0,
                at: start,
            });
        }
    }

    /// Called after every request with the phase's op count so far;
    /// true when it closed a slice (and ran the reference).
    #[inline]
    pub fn tick(&mut self, now: Instant, ops: u64) -> bool {
        if let Some(next) = self.next {
            if now >= next && self.cuts.len() <= self.slices as usize {
                self.next = Some(next + self.every);
                self.cut(now, ops);
                return true;
            }
        }
        false
    }

    /// Slices closed so far, and the reference time at the latest cut.
    pub fn last_cut(&self) -> (usize, f64) {
        (
            self.cuts.len().saturating_sub(1),
            self.ref_ns.last().copied().unwrap_or(f64::NAN),
        )
    }

    /// Start the next slice at `now` instead of where the last one
    /// closed: work done in between is in no slice.
    pub fn resume(&mut self, now: Instant) {
        if let (Some(next), Some(last)) = (self.next.as_mut(), self.cuts.last_mut()) {
            *next += now - last.at;
            last.at = now;
        }
    }

    /// Close the phase: the last slice runs to `now`.
    pub fn end(&mut self, now: Instant, ops: u64) {
        if self.next.take().is_some() && self.cuts.last().is_some_and(|c| c.ops < ops) {
            self.cut(now, ops);
        }
    }

    /// Close a slice at `at`, run the reference, and open the next
    /// slice after it.
    fn cut(&mut self, at: Instant, ops: u64) {
        self.cuts.push(Cut {
            r: self.r.ns.len(),
            w: self.w.ns.len(),
            ops,
            at,
        });
        if self.reference.is_some() {
            self.time_reference();
            self.resume(Instant::now());
        }
    }

    /// Medians over the recorded slices, scaled and raw. A slice
    /// without reads (or writes) adds no read (write) figure.
    pub fn slice_stats(&self) -> SliceStats {
        let mut scaled = [(); 5].map(|_| Vec::new());
        let mut raw = [(); 5].map(|_| Vec::new());
        for (i, c) in self.cuts.windows(2).enumerate() {
            let (a, b) = (c[0], c[1]);
            // Seconds per reference run at the slice, in units of REF_NS.
            let speed = (self.ref_ns[i] + self.ref_ns[i + 1]) / 2.0 / REF_NS;
            let mut add = |j: usize, v: f64, time_like: bool| {
                raw[j].push(v);
                scaled[j].push(if time_like { v / speed } else { v * speed });
            };
            add(
                0,
                (b.ops - a.ops) as f64 / (b.at - a.at).as_secs_f64(),
                false,
            );
            if b.r > a.r {
                let r = sorted_us(&self.r.ns[a.r..b.r]);
                add(1, quantile(&r, 0.5), true);
                add(2, quantile(&r, 0.99), true);
            }
            if b.w > a.w {
                let w = sorted_us(&self.w.ns[a.w..b.w]);
                add(3, quantile(&w, 0.5), true);
                add(4, quantile(&w, 0.99), true);
            }
        }
        let figures = |v: &[Vec<f64>; 5]| Figures {
            ops_per_s: median(&v[0]),
            read_p50: median(&v[1]),
            read_p99: median(&v[2]),
            write_p50: median(&v[3]),
            write_p99: median(&v[4]),
        };
        SliceStats {
            slices: raw[0].len(),
            scaled: figures(&scaled),
            raw: figures(&raw),
            ref_ns: median(&self.ref_ns),
        }
    }
}

fn sorted_us(ns: &[u32]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1000.0).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0..=1) of an ascending slice, nearest rank.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

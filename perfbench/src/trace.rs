//! Spans recorded from the benchmark's own code around each call into a
//! layer of the stack. Kept in a preallocated buffer; summarised per
//! span name when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::sys::median;

/// Where the timed loops report layer boundaries. The untraced loops
/// are instantiated with [`Off`], whose calls compile to nothing.
pub trait Tracer {
    /// Open a span named `name` for request `req`, caused by span
    /// `parent` (`NONE` for a root). Returns its id.
    fn open(&mut self, name: &'static str, req: u32, parent: u32) -> u32;
    /// Close span `id`.
    fn close(&mut self, id: u32);
}

pub const NONE: u32 = u32::MAX;

/// Traced runs alternate this many untraced and traced slices, so a
/// drift in machine speed hits both sides alike.
pub const SLICES: u32 = 4;

/// Throughput with spans off (`[0]`) and on (`[1]`).
#[derive(Default)]
pub struct Overhead {
    ops: [f64; 2],
    secs: [f64; 2],
}

impl Overhead {
    pub fn add(&mut self, traced: bool, ops: u64, secs: f64) {
        self.ops[traced as usize] += ops as f64;
        self.secs[traced as usize] += secs;
    }

    /// Share of untraced throughput the spans cost.
    pub fn frac(&self) -> f64 {
        1.0 - (self.ops[1] / self.secs[1]) / (self.ops[0] / self.secs[0])
    }
}

pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn open(&mut self, _: &'static str, _: u32, _: u32) -> u32 {
        NONE
    }
    #[inline(always)]
    fn close(&mut self, _: u32) {}
}

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    req: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store. Every span is timed, so tracing costs the
/// same on every request; the spans of one request in `keep_every` are
/// stored, which bounds memory on workloads with tens of millions of
/// requests. A full buffer drops further spans (counted).
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    keep_every: u32,
    dropped: u64,
}

impl Spans {
    pub fn new(capacity: usize, keep_every: u32) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            keep_every: keep_every.max(1),
            dropped: 0,
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Span durations (ns) of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Median duration (ns) of spans named `name`, if any were recorded.
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        let d = self.durations(name);
        (!d.is_empty()).then(|| median(&d))
    }

    /// One line per span name: count, median, total and self time (the
    /// duration not covered by child spans), written to stderr.
    pub fn dump(&self, label: &str) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE && s.end_ns >= s.start_ns {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&str, (u64, Vec<f64>, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                continue;
            }
            let d = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1.push(d as f64);
            e.2 += d.saturating_sub(child_ns[i]) as f64;
        }
        let requests = self
            .spans
            .iter()
            .map(|s| s.req)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        eprintln!(
            "trace[{label}]: {} spans over {requests} requests ({} dropped)",
            self.spans.len(),
            self.dropped
        );
        for (name, (n, d, self_ns)) in by_name {
            let total: f64 = d.iter().sum();
            eprintln!(
                "  {name:<34} n={n:<9} p50={:>10.0}ns total={:>8.3}s self={:>8.3}s",
                median(&d),
                total / 1e9,
                self_ns / 1e9
            );
        }
    }
}

impl Tracer for Spans {
    #[inline]
    fn open(&mut self, name: &'static str, req: u32, parent: u32) -> u32 {
        let start_ns = self.now();
        if req % self.keep_every != 0 {
            return NONE;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NONE;
        }
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: 0,
        });
        (self.spans.len() - 1) as u32
    }

    #[inline]
    fn close(&mut self, id: u32) {
        let t = self.now();
        if id != NONE {
            self.spans[id as usize].end_ns = t;
        }
    }
}

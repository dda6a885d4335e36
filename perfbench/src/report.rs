//! Result collection and the output format: human-readable lines
//! first, then one JSON object as the last line of standard output.

use crate::sys::Samples;

/// A wrong result. The run stops and reports `"correct": false`.
pub type Checked<T> = Result<T, String>;

pub struct Report {
    /// Traced runs print per-layer metrics; untraced runs print the
    /// end-to-end ones.
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        Self {
            trace,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// An end-to-end metric (printed by untraced runs).
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        if !self.trace {
            self.metric(name, value, unit);
        }
    }

    /// A per-layer metric (printed by traced runs).
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        if self.trace {
            self.metric(name, value, unit);
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("{name:<40} {value:>16.6} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Throughput and per-request latency percentiles of a timed phase:
    /// medians over its slices, scaled to the host-speed reference (see
    /// `sys::Reference`), with the sample counts and the raw medians.
    pub fn timing(&mut self, smp: &Samples) {
        let st = smp.slice_stats();
        let raw = &st.raw;
        self.info(&format!(
            "timing: medians over {} time slices of {} s, scaled by the reference \
             (median {:.0} ns, scaled to {:.0} ns); {} read and {} write requests sampled",
            st.slices,
            crate::sys::SLICE_S,
            st.ref_ns,
            crate::sys::REF_NS,
            smp.r.len(),
            smp.w.len()
        ));
        self.info(&format!(
            "raw medians: ops_per_s {:.0}, read_p50_us {:.4}, read_p99_us {:.4}, \
             write_p50_us {:.4}, write_p99_us {:.4}",
            raw.ops_per_s, raw.read_p50, raw.read_p99, raw.write_p50, raw.write_p99
        ));
        let f = &st.scaled;
        self.e2e("ops_per_s", f.ops_per_s, "keys/s");
        self.e2e("read_p50_us", f.read_p50, "us");
        self.e2e("read_p99_us", f.read_p99, "us");
        self.e2e("write_p50_us", f.write_p50, "us");
        self.e2e("write_p99_us", f.write_p99, "us");
    }

    /// A line of context (sample counts, workload-specific figures).
    pub fn info(&self, line: &str) {
        println!("# {line}");
    }

    /// Count `n` attempted key-operations, `failed` of them rejected.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// A metric that is NaN or infinite (an empty sample set, a probe
    /// that measured nothing) fails the run rather than print a number.
    pub fn check_finite(&self) -> Checked<()> {
        match self.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
            Some((n, v, _)) => Err(format!("metric {n} is {v}, not a measurement")),
            None => Ok(()),
        }
    }

    /// The final result line. Non-finite values print as `null`; a run
    /// that has one is reported as not correct (see `check_finite`).
    pub fn json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

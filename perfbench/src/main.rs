//! End-to-end benchmark of the sharded McCuckoo serving stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale full|tiny] [--corrupt-expected]
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! print the per-layer metrics (spans around each call into a layer,
//! plus the layer ladder). Time-based end-to-end figures are scaled by
//! a host-speed reference timed beside them (`sys::Reference`), because
//! the shared machine's speed moves by tens of percent. See `NOTES.md`
//! for the workloads and the per-layer → end-to-end map.

mod churn;
mod dram;
mod ladder;
mod report;
mod sys;
mod trace;

use hash_kit::mix64;

use report::Report;

pub const WORKLOADS: [&str; 2] = ["lookup_batch_dram", "churn_logged_l2"];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// A few-MiB version of every workload for the self-test.
    Tiny,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Plant one wrong expected value in the op stream; the run must
    /// then report `"correct": false` (used by the self-test).
    pub corrupt: bool,
}

impl Args {
    pub fn tiny(&self) -> bool {
        self.scale == Scale::Tiny
    }
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        corrupt: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: usize| {
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", argv[i]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => a.workload = value(i)?,
            "--seed" => a.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value(i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--scale" => {
                a.scale = match value(i)?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale takes full or tiny, got {other}")),
                }
            }
            "--corrupt-expected" => {
                a.corrupt = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got '{}'",
            a.workload
        ));
    }
    Ok(a)
}

/// The value a key holds at write generation `gen` (0 = preload). Every
/// read is checked against this for the generation the op stream's
/// shadow says the key is at.
#[inline]
pub fn val(key: u64, gen: u64) -> u64 {
    mix64(key ^ gen.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Uniform draw in `0..n`.
#[inline]
pub fn below(rng: &mut hash_kit::SplitMix64, n: u64) -> u64 {
    ((rng.next_u64() as u128 * n as u128) >> 64) as u64
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut rep = Report::new(args.trace);
    sys::pin(0);
    let out = match args.workload.as_str() {
        "lookup_batch_dram" => dram::run(&args, &mut rep),
        _ => churn::run(&args, &mut rep),
    }
    .and_then(|()| rep.check_finite());
    match out {
        Ok(()) => println!("{}", rep.json(true)),
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            println!("{}", rep.json(false));
            std::process::exit(1);
        }
    }
}

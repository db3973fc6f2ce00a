//! The repo benchmark. One invocation measures one workload:
//!
//! ```text
//! inflog-benchmark --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (tracing off), `--trace 1`
//! the per-layer metrics of a traced replay; the last line of standard
//! output is the result object the driver reads. Without `--trace` it
//! runs the whole suite (every workload, untraced then traced) and writes
//! `out/result.json`;
//! `compare A.json B.json` applies the bounds to two such files.
//! See `benchmark/README.md`.

mod api;
mod gen;
mod inproc;
mod json;
mod layers;
mod oracle;
mod report;
mod serve_wl;
mod spec;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

/// Variables that change how the library evaluates, or arm its fault
/// injection. The harness removes them from its own environment and from
/// the `serve` child's, so a run measures the defaults a user gets.
pub const SCRUBBED_ENV: [&str; 6] = [
    "INFLOG_THREADS",
    "INFLOG_PARALLEL_THRESHOLD",
    "INFLOG_EXEC",
    "INFLOG_FAILPOINT",
    "INFLOG_SERVE_ABORT",
    "INFLOG_DUMP_IR",
];

/// One measured metric: a value per repetition (the reported value is
/// their median) and how many samples stand behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub reps: Vec<f64>,
    pub n: u64,
}

impl Metric {
    pub fn reps(name: &'static str, reps: Vec<f64>, n: u64) -> Metric {
        Metric { name, reps, n }
    }

    pub fn one(name: &'static str, value: f64, n: u64) -> Metric {
        Metric {
            name,
            reps: vec![value],
            n,
        }
    }

    pub fn value(&self) -> f64 {
        stats::median(&self.reps)
    }
}

/// What one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Transport errors, `ERR`, `OVERLOADED` and wrong answers.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: &'static str,
    pub seed: u64,
    /// Length of the measured window, over all repetitions.
    pub seconds: f64,
    /// The window is cut into this many repetitions of one seeded
    /// sequence, each in a fresh process; a metric's value is the median
    /// over them.
    pub reps: usize,
    /// `benchmark/out`: results, traces and `tmp/` store directories.
    pub out: PathBuf,
    pub serve_bin: PathBuf,
}

impl Params {
    /// Count-based replays are sized for a 10 s run: `n` scaled by
    /// `--seconds`, but never fewer than `at_least`.
    pub fn scaled(&self, n: usize, at_least: usize) -> usize {
        ((n as f64 * self.seconds / 10.0).ceil() as usize).max(at_least)
    }
}

pub const DEFAULT_SEED: u64 = 1988;

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--seed N] [--workload W] [--seconds S] [--reps R] \
         [--traced|--no-traced] [--smoke]\n       \
         run.sh --workload W --seed N --seconds S --trace 0|1\n       \
         run.sh compare A.json B.json\n\
         workloads: {}",
        spec::WORKLOADS.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // Single-threaded here, so editing the environment is sound.
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => report::compare(a.as_ref(), b.as_ref()),
            _ => usage(),
        };
    }

    let exe = std::env::current_exe().expect("own path");
    let mut p = Params {
        workload: "",
        seed: DEFAULT_SEED,
        seconds: 10.0,
        reps: 5,
        out: PathBuf::from("benchmark/out"),
        serve_bin: exe.with_file_name("serve"),
    };
    let mut workloads: Vec<&'static str> = Vec::new();
    let mut trace: Option<bool> = None;
    let mut traced_pass = true;
    let mut smoke = false;
    let mut rep_child = false;
    let mut it = args.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        // Flags without a value first; every other flag takes one.
        match flag {
            "--traced" => traced_pass = true,
            "--no-traced" => traced_pass = false,
            "--smoke" => smoke = true,
            "--rep" => rep_child = true,
            _ => {
                let parsed = it.next().and_then(|v| {
                    match flag {
                        "--workload" => workloads.push(spec::WORKLOADS.iter().find(|w| **w == v)?),
                        "--seed" => p.seed = v.parse().ok()?,
                        "--seconds" => p.seconds = v.parse().ok().filter(|s| *s > 0.0)?,
                        "--reps" => p.reps = v.parse().ok().filter(|r| *r > 0)?,
                        "--trace" => trace = Some(["0", "1"].iter().position(|t| *t == v)? == 1),
                        "--out" => p.out = PathBuf::from(v),
                        _ => return None,
                    }
                    Some(())
                });
                if parsed.is_none() {
                    eprintln!("inflog-benchmark: bad argument near {flag:?}");
                    return usage();
                }
            }
        }
    }
    if smoke {
        // Quick gate: one short repetition, every check on.
        p.seconds = p.seconds.min(0.3);
        p.reps = 1;
    }
    if std::fs::create_dir_all(&p.out).is_err() {
        eprintln!("inflog-benchmark: cannot create {}", p.out.display());
        return ExitCode::FAILURE;
    }
    match (trace, workloads.as_slice()) {
        (None, [w]) if rep_child => {
            p.workload = w;
            report::rep_child(&p)
        }
        (Some(traced), [w]) => {
            p.workload = w;
            report::single_run(&p, traced)
        }
        (Some(_), _) => usage(),
        (None, _) => {
            if workloads.is_empty() {
                workloads.extend(spec::WORKLOADS);
            }
            report::suite(&p, &workloads, traced_pass)
        }
    }
}

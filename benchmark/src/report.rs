//! Running and reporting: a run's fresh-process repetitions, its rows and
//! result line, the suite that writes `out/result.json`, and `compare`.

use crate::json::{escape, Json};
use crate::serve_wl::{self, Kind};
use crate::spec::{self, Better, MetricSpec};
use crate::{inproc, layers, stats, Metric, Outcome, Params};
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// One fresh repetition of a workload's end-to-end measurement.
fn measure_rep(p: &Params) -> std::io::Result<Outcome> {
    match p.workload {
        "serve_read" => serve_wl::run(Kind::Read, p),
        "serve_write" => serve_wl::run(Kind::Write, p),
        "serve_mixed" => serve_wl::run(Kind::Mixed, p),
        "eval_positive" | "eval_negation" => Ok(inproc::run_eval(p)),
        "maintain_churn" => Ok(inproc::run_churn(p)),
        other => unreachable!("unknown workload {other}"),
    }
}

/// `--rep`: measures one repetition and prints it as one JSON line for
/// the parent run to collect.
pub fn rep_child(p: &Params) -> ExitCode {
    match measure_rep(p) {
        Ok(o) => {
            let metrics: Vec<String> = o
                .metrics
                .iter()
                .map(|m| format!("\"{}\": [{}, {}]", m.name, m.value(), m.n))
                .collect();
            println!(
                "{{\"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                o.attempted,
                o.failed,
                metrics.join(", ")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("inflog-benchmark: {}: {e}", p.workload);
            ExitCode::FAILURE
        }
    }
}

/// The end-to-end measurement: `p.reps` repetitions of the same seeded
/// sequence, each in a **fresh child process** (and, for the TCP
/// workloads, against a fresh `serve` child) for `p.seconds / p.reps`.
/// A fresh process per repetition gives every run several samples of
/// set-up time and of peak memory, and averages out what one process's
/// memory layout happens to cost (measured: the same inputs peak at
/// 13.7 MiB in one process and 15.3 MiB in the next).
fn end_to_end(p: &Params) -> std::io::Result<Outcome> {
    let exe = std::env::current_exe()?;
    let mut total = Outcome::default();
    for _ in 0..p.reps {
        let output = Command::new(&exe)
            .arg("--rep")
            .args(["--workload", p.workload])
            .args(["--seed", &p.seed.to_string()])
            .args(["--seconds", &(p.seconds / p.reps as f64).to_string()])
            .arg("--out")
            .arg(&p.out)
            .stderr(Stdio::inherit())
            .output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let rep = stdout
            .lines()
            .last()
            .and_then(|l| Json::parse(l).ok())
            .filter(|_| output.status.success())
            .ok_or_else(|| std::io::Error::other("a repetition did not report a result"))?;
        total.attempted += rep.get("attempted").num() as u64;
        total.failed += rep.get("failed").num() as u64;
        for s in &spec::END_TO_END {
            let pair = rep.get("metrics").get(s.name).items();
            let [value, n] = pair else {
                return Err(std::io::Error::other(format!(
                    "repetition lacks {}",
                    s.name
                )));
            };
            match total.metrics.iter_mut().find(|m| m.name == s.name) {
                Some(m) => {
                    m.reps.push(value.num());
                    m.n += n.num() as u64;
                }
                None => total
                    .metrics
                    .push(Metric::one(s.name, value.num(), n.num() as u64)),
            }
        }
    }
    Ok(total)
}

struct Row {
    workload: &'static str,
    spec: &'static MetricSpec,
    value: f64,
    spread: f64,
    n: u64,
}

/// Measures one workload in one mode and prints a row per declared
/// metric: `workload metric value unit spread n`, where `spread` is
/// `(max − min) / median` over the repetitions.
fn run_mode(p: &Params, traced: bool) -> std::io::Result<(Outcome, Vec<Row>)> {
    let outcome = if traced {
        layers::run(p)?
    } else {
        end_to_end(p)?
    };
    let specs: &'static [MetricSpec] = if traced {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    for m in &outcome.metrics {
        assert!(
            specs.iter().any(|s| s.name == m.name),
            "{} is not a declared metric of this mode",
            m.name
        );
    }
    let mut rows = Vec::new();
    for s in specs {
        // A layer this workload bypasses spent no time and did no work.
        let zero = Metric::one(s.name, 0.0, 0);
        let m = outcome
            .metrics
            .iter()
            .find(|m| m.name == s.name)
            .unwrap_or(&zero);
        let row = Row {
            workload: p.workload,
            spec: s,
            value: m.value(),
            spread: stats::spread(&m.reps),
            n: m.n,
        };
        println!(
            "{} {} {} {} spread={:.4} n={}",
            row.workload, s.name, row.value, s.unit, row.spread, row.n
        );
        rows.push(row);
    }
    Ok((outcome, rows))
}

/// One workload, one mode: prints the rows, then the result line the
/// driver reads. Exits non-zero when anything failed or an oracle
/// disagreed.
pub fn single_run(p: &Params, traced: bool) -> ExitCode {
    let (outcome, rows) = match run_mode(p, traced) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("inflog-benchmark: {}: {e}", p.workload);
            return ExitCode::FAILURE;
        }
    };
    let members: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.spec.name, r.value, r.spec.unit
            )
        })
        .collect();
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        members.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "inflog-benchmark: {}: {} of {} operations failed or were answered wrongly",
            p.workload, outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every chosen workload, untraced and then traced, and
/// `out/result.json` with the environment stamped in.
pub fn suite(p: &Params, workloads: &[&'static str], traced_pass: bool) -> ExitCode {
    let mut rows: Vec<Row> = Vec::new();
    let mut runs = Vec::new();
    let mut all_ok = true;
    for w in workloads {
        for traced in [false, true] {
            if traced && !traced_pass {
                continue;
            }
            let p = Params {
                workload: w,
                ..p.clone()
            };
            let (attempted, failed) = match run_mode(&p, traced) {
                Ok((outcome, new_rows)) => {
                    rows.extend(new_rows);
                    (outcome.attempted, outcome.failed)
                }
                Err(e) => {
                    eprintln!("inflog-benchmark: {w}: {e}");
                    (0, 1)
                }
            };
            let ok = failed == 0;
            all_ok &= ok;
            println!(
                "# {w} trace={} correct={ok} attempted={attempted} failed={failed}",
                u8::from(traced)
            );
            runs.push(format!(
                "{{\"workload\": \"{w}\", \"trace\": {}, \"correct\": {ok}, \"attempted\": {attempted}, \"failed\": {failed}}}",
                u8::from(traced)
            ));
        }
    }

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"seed\": {},", p.seed);
    let _ = writeln!(out, "  \"seconds\": {},", p.seconds);
    let _ = writeln!(out, "  \"reps\": {},", p.reps);
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let _ = writeln!(out, "  \"nproc\": {nproc},");
    let commit = tool_line("git", &["rev-parse", "HEAD"]);
    let _ = writeln!(out, "  \"commit\": \"{}\",", escape(&commit));
    let rustc = tool_line("rustc", &["-V"]);
    let _ = writeln!(out, "  \"rustc\": \"{}\",", escape(&rustc));
    let _ = writeln!(out, "  \"runs\": [\n    {}\n  ],", runs.join(",\n    "));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let bound = r.spec.bound.map_or("null".to_string(), |b| b.to_string());
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}, \"spread\": {}, \"n\": {}}}",
            r.workload, r.spec.name, r.value, r.spec.unit, r.spec.better.as_str(), r.spread, r.n
        );
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    let path = p.out.join("result.json");
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("inflog-benchmark: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("# wrote {}", path.display());
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("inflog-benchmark: at least one workload failed its checks");
        ExitCode::FAILURE
    }
}

/// The verdict for one gated metric: `b` against `a` under `bound`, given
/// each side's spread over its repetitions.
pub fn verdict(better: Better, bound: f64, a: (f64, f64), b: (f64, f64)) -> &'static str {
    let ((va, spread_a), (vb, spread_b)) = (a, b);
    if spread_a > bound || spread_b > bound {
        return "unresolved";
    }
    let worsening = match better {
        Better::Lower => (vb - va) / va,
        Better::Higher => (va - vb) / va,
    };
    if worsening > bound {
        "regressed"
    } else if worsening < -bound {
        "improved"
    } else {
        "ok"
    }
}

fn load_rows(path: &Path) -> Result<Vec<(String, String, f64, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(json
        .get("rows")
        .items()
        .iter()
        .map(|r| {
            (
                r.get("workload").str().to_string(),
                r.get("metric").str().to_string(),
                r.get("value").num(),
                r.get("spread").num(),
            )
        })
        .collect())
}

/// `compare A.json B.json`: per (workload, metric), B against A under the
/// benchmark's own bounds. Exits non-zero if anything regressed.
pub fn compare(a: &Path, b: &Path) -> ExitCode {
    let (ra, rb) = match (load_rows(a), load_rows(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("inflog-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut regressed = 0;
    for (workload, metric, va, spread_a) in &ra {
        let Some((_, _, vb, spread_b)) = rb.iter().find(|r| r.0 == *workload && r.1 == *metric)
        else {
            continue;
        };
        let Some(s) = spec::find(metric) else {
            continue;
        };
        let change = if *va == 0.0 {
            0.0
        } else {
            (vb - va) / va * 100.0
        };
        let word = match s.bound {
            Some(bound) => verdict(s.better, bound, (*va, *spread_a), (*vb, *spread_b)),
            // Per-layer metrics are attribution, not gates.
            None => "layer",
        };
        regressed += usize::from(word == "regressed");
        println!(
            "{workload} {metric} {va} -> {vb} {} ({change:+.1}%) {word}",
            s.unit
        );
    }
    if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("inflog-benchmark: {regressed} metric(s) regressed beyond their bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let quiet = 0.01;
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(Better::Lower, 0.10, (100.0, quiet), (105.0, quiet)),
            "ok"
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, (100.0, quiet), (111.0, quiet)),
            "regressed"
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, (100.0, quiet), (80.0, quiet)),
            "improved"
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            verdict(Better::Higher, 0.10, (100.0, quiet), (80.0, quiet)),
            "regressed"
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, (100.0, quiet), (120.0, quiet)),
            "improved"
        );
        // A spread wider than the bound on either side settles nothing.
        assert_eq!(
            verdict(Better::Lower, 0.10, (100.0, 0.2), (150.0, quiet)),
            "unresolved"
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, (100.0, quiet), (150.0, 0.2)),
            "unresolved"
        );
    }
}

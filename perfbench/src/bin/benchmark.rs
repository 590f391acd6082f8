//! `benchmark --workload <name> [--seed n] [--seconds s] [--trace 0|1]`
//! runs one workload in this process, checks its outputs and prints its
//! metrics; the last line of standard output is the result object.
//! `--repeat N` instead runs the workload (or all of them) N times in
//! fresh child processes, each with another seed, and judges the spread
//! of every end-to-end metric against its bound in `BENCHMARK.json`.

use nexit_perfbench::run::{run, Options, Report};
use nexit_perfbench::stats;
use nexit_perfbench::workloads::{Ctx, Workload};
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: benchmark --workload <name>|all [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--repeat <n>]\nworkloads: pair_pipeline broker_clean \
                     broker_lossy churn_distance churn_bandwidth failure_sweep";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 11,
        seconds: 15.0,
        trace: false,
        repeat: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs".into());
                }
                args.repeat = Some(n);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if args.repeat.is_none() && args.workloads.len() != 1 {
        return Err("one process runs one workload; `all` needs --repeat".into());
    }
    Ok(args)
}

/// Where a traced run leaves its spans: beside the build, inside the
/// checkout.
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("benchmark")
}

fn result_line(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|(m, v)| {
            let fields = vec![
                ("value".to_string(), Value::Float(*v)),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
            ];
            (m.name.to_string(), Value::Object(fields))
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(report.correct)),
        ("attempted".to_string(), Value::Int(report.attempted as i64)),
        ("failed".to_string(), Value::Int(report.failed as i64)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("finite metrics serialise")
}

fn run_once(args: &Args) -> ExitCode {
    let workload = args.workloads[0];
    let report = run(&Options {
        workload,
        ctx: Ctx {
            seed: args.seed,
            mini: false,
        },
        seconds: args.seconds,
        trace: args.trace,
        trace_dir: args.trace.then(trace_dir),
    });
    for why in &report.failures {
        eprintln!("FAILED {why}");
    }
    let s = &report.summary;
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"ops\":{},\"passes\":{},\"setups\":{},\"tail_percentile\":{},\
         \"result_digest\":\"{:016x}\",\"raw_ops_per_s\":{},\"calib_ms_median\":{},\
         \"pass_spread\":{}}}",
        workload.name(),
        args.seed,
        s.ops,
        s.passes,
        s.setups,
        s.tail_percentile,
        report.result_digest,
        s.raw_ops_per_s,
        s.calib_ms_median,
        s.pass_spread
    );
    println!("{}", result_line(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A numeric field of a JSON object.
fn number(object: &Value, field: &str) -> Option<f64> {
    match object.get_field(field).ok()? {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Each end-to-end metric's bound, from `BENCHMARK.json` in the current
/// directory.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let json = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = serde_json::parse(&json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Ok(Value::Array(entries)) = doc.get_field("end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".into());
    };
    entries
        .iter()
        .map(
            |entry| match (entry.get_field("name"), number(entry, "bound")) {
                (Ok(Value::Str(name)), Some(bound)) => Ok((name.clone(), bound)),
                _ => Err("BENCHMARK.json: an end_to_end entry lacks a name or a bound".to_string()),
            },
        )
        .collect()
}

/// The named metric's value in a child's result line.
fn metric_value(line: &Value, name: &str) -> Option<f64> {
    number(
        line.get_field("metrics").ok()?.get_field(name).ok()?,
        "value",
    )
}

/// Run every chosen workload `n` times in child processes, seeds
/// `seed..seed+n`, and judge each metric's quartile spread (as a share
/// of its median — what the acceptance check computes) against its
/// bound. Non-zero exit when a spread exceeds its bound.
fn repeat(args: &Args, n: usize) -> Result<bool, String> {
    let bounds = bounds()?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut within = true;
    for workload in &args.workloads {
        let mut lines = Vec::new();
        let mut raw_ops = Vec::new();
        for i in 0..n {
            let seed = args.seed + i as u64;
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .output()
                .map_err(|e| format!("child: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut tail = stdout.lines().rev();
            let last = tail.next().unwrap_or_default();
            let info = tail.next().unwrap_or_default();
            if !output.status.success() {
                return Err(format!(
                    "{} seed {seed} exited with {}: {last}",
                    workload.name(),
                    output.status
                ));
            }
            lines.push(serde_json::parse(last).map_err(|e| format!("child output: {e}"))?);
            raw_ops.extend(
                serde_json::parse(info)
                    .ok()
                    .and_then(|v| number(&v, "raw_ops_per_s")),
            );
        }
        println!(
            "{} x{n}, seeds {}..{}",
            workload.name(),
            args.seed,
            args.seed + n as u64
        );
        for (name, bound) in &bounds {
            let values: Vec<f64> = lines
                .iter()
                .map(|l| metric_value(l, name).ok_or(format!("child printed no {name}")))
                .collect::<Result<_, _>>()?;
            let spread = stats::quartile_spread(&values);
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(0.0, f64::max);
            let median = stats::median(&values);
            let verdict = if spread <= bound / 3.0 {
                "ok"
            } else if spread <= *bound {
                "above a third of the bound"
            } else {
                within = false;
                "EXCEEDS THE BOUND"
            };
            println!(
                "  {name:<16} median {median:<12.6} quartile spread {:>6.2}%  \
                 max-min {:>6.2}%  bound {:>5.1}%  {verdict}",
                100.0 * spread,
                100.0 * (hi - lo) / median,
                100.0 * bound
            );
        }
        if raw_ops.len() == n {
            println!(
                "  (ops_per_s without normalisation: quartile spread {:.2}%)",
                100.0 * stats::quartile_spread(&raw_ops)
            );
        }
    }
    Ok(within)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.repeat {
        None => run_once(&args),
        Some(n) => match repeat(&args, n) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(why) => {
                eprintln!("{why}");
                ExitCode::from(2)
            }
        },
    }
}

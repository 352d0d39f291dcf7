//! The polyinv benchmark: time from a program to a proved verdict.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//! perfbench --smoke
//! perfbench --compare A.jsonl B.jsonl
//! ```
//!
//! A run serves its workload's inputs as a closed loop from one client —
//! one request at a time, the next after the verdict — for `--seconds`,
//! checks every synthesized verdict against the trace-falsification oracle,
//! and prints its metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
//! `--out FILE` appends the run's full record (environment, per-input
//! verdicts, oracle findings, layer times) as one JSON line; `--compare`
//! prints two such files side by side. See README.md.

mod compare;
mod oracle;
mod run;
mod stats;
mod workload;

use std::io::Write;
use std::process::ExitCode;

use polyinv_api::Json;

use crate::run::{RunConfig, RunResult};

const USAGE: &str = "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--out FILE]\n       perfbench --smoke [--out FILE]\n       perfbench \
                     --compare A.jsonl B.jsonl";

/// The workloads the smoke mode touches, one input each.
const SMOKE_WORKLOADS: &[&str] = &["tables-rung0", "tables-rung2-fixed", "fuzz-seeded"];

enum Mode {
    Run(RunConfig),
    Smoke,
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<(Mode, Option<String>), String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = None;
    let mut smoke = false;
    let mut compare = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => out = Some(value()?),
            "--smoke" => smoke = true,
            "--compare" => {
                let a = value()?;
                compare = Some((a, value()?));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let mode = if let Some((a, b)) = compare {
        Mode::Compare(a, b)
    } else if smoke {
        Mode::Smoke
    } else {
        let workload = workload.ok_or("--workload is required")?;
        if !workload::WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (one of {})",
                workload::WORKLOADS.join(", ")
            ));
        }
        Mode::Run(RunConfig {
            workload,
            seed,
            seconds,
            trace,
            smoke: false,
        })
    };
    Ok((mode, out))
}

/// The result line the benchmark ends its output with.
fn result_line(result: &RunResult) -> String {
    Json::object(vec![
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::Number(result.attempted as f64)),
        ("failed", Json::Number(result.failed as f64)),
        ("metrics", run::metrics_json(&result.metrics)),
    ])
    .to_string()
}

fn append_record(path: &str, record: &Json) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(file, "{record}").map_err(|e| format!("{path}: {e}"))
}

/// Runs and prints one workload; `Ok(correct)` once the result is out.
fn run_and_report(config: &RunConfig, out: Option<&str>) -> Result<bool, String> {
    let result = run::run(config)?;
    for line in &result.lines {
        println!("{line}");
    }
    if let Some(path) = out {
        append_record(path, &result.detail)?;
    }
    println!("{}", result_line(&result));
    Ok(result.correct)
}

fn main() -> ExitCode {
    // The program runs at one thread per core unless told otherwise. Set
    // before any thread starts, so every layer reads the same budget.
    if std::env::var_os("POLYINV_THREADS").is_none() {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var("POLYINV_THREADS", nproc.to_string());
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, out) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        // A printed result carries its own `correct` flag.
        Mode::Run(config) => run_and_report(&config, out.as_deref()).map(|_| true),
        Mode::Smoke => SMOKE_WORKLOADS.iter().try_fold(true, |ok, workload| {
            let config = RunConfig {
                workload: workload.to_string(),
                seed: 0,
                seconds: 0.0,
                trace: false,
                smoke: true,
            };
            Ok(run_and_report(&config, out.as_deref())? && ok)
        }),
        Mode::Compare(a, b) => compare::load(&a).and_then(|base| {
            let change = compare::load(&b)?;
            for line in compare::compare(&base, &change) {
                println!("{line}");
            }
            Ok(true)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(1)
        }
    }
}

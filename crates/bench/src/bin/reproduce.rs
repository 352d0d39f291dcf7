//! Regenerates the paper's evaluation tables.
//!
//! ```text
//! reproduce [table2|table3|ablations|baseline|all] [--solve] [--solve-cap SECONDS]
//!           [--validate] [--json [PATH]]
//! ```
//!
//! Without `--solve` only the reduction (Steps 1–3) is run and the table
//! reports `|V|`, `|S|` and the per-stage generation times (template
//! instantiation, constraint pairs, Putinar reduction) next to the paper's
//! numbers. With `--solve`, a weak-synthesis attempt (Step 4) is made for
//! **every** row under a per-row wall-clock budget (default 120 s, override
//! with `--solve-cap SECONDS`, `0` = unbudgeted); rows the budget cannot
//! certify report `failed` with real solver statistics.
//!
//! With `--validate`, every row's paper target assertion is checked against
//! ≥ 1000 seeded interpreter traces (the fast, always-on soundness gate on
//! the Table 2/3 encodings). Combined with `--solve`, each solved row's
//! synthesized invariant additionally goes through trace falsification and
//! the exact-rational inductiveness re-check. Any violation makes the
//! process exit non-zero — CI runs the `table2 --validate` gate.
//!
//! With `--json`, the measured rows are additionally written as a
//! machine-readable snapshot (default `BENCH_3.json`, override with
//! `--json PATH`): per benchmark `|S|`, unknowns, the per-stage timing
//! breakdown, and — under `--solve` — an explicit `solve` block on every
//! row: status `synthesized`/`failed`, a machine-readable reason for
//! failures, the orchestrator ladder history, and the solver statistics (iterations, restarts, nnz(J), nnz(L),
//! factor/solve wall-clock split). This is the file the perf trajectory
//! tracks across PRs; CI regenerates it for Table 2 with `--solve` and
//! gates on the synthesized-row count.

use std::path::PathBuf;
use std::time::Instant;

use polyinv::prelude::*;
use polyinv_api::ApiError;
use polyinv_bench::{
    baseline_status, engine_for_tables, format_table, format_validation, options_for, run_row_full,
    solve_policy_with_budget, write_bench_json, RowResult, DEFAULT_SOLVE_BUDGET_SECONDS,
};
use polyinv_farkas::FarkasBaseline;
use polyinv_lang::program::RUNNING_EXAMPLE_SOURCE;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let validate = args.iter().any(|a| a == "--validate");
    let solve = args.iter().any(|a| a == "--solve");
    let solve_cap_pos = args.iter().position(|a| a == "--solve-cap");
    let budget = match solve_cap_pos {
        Some(pos) => match args.get(pos + 1).and_then(|v| v.parse::<f64>().ok()) {
            Some(seconds) if seconds.is_finite() && seconds >= 0.0 => seconds,
            _ => {
                eprintln!("--solve-cap needs a non-negative number of seconds (0 = unbudgeted)");
                std::process::exit(1);
            }
        },
        None => DEFAULT_SOLVE_BUDGET_SECONDS,
    };
    let json_value_pos = args.iter().position(|a| a == "--json").and_then(|pos| {
        args.get(pos + 1)
            .filter(|next| !next.starts_with("--") && !is_experiment(next))
            .map(|_| pos + 1)
    });
    let json_out = args.iter().any(|a| a == "--json").then(|| {
        json_value_pos
            .map(|pos| PathBuf::from(&args[pos]))
            .unwrap_or_else(|| PathBuf::from("BENCH_3.json"))
    });
    // Positional arguments: at most one experiment name; anything else is a
    // usage error (exit 1), as before.
    let solve_cap_value_pos = solve_cap_pos.map(|pos| pos + 1);
    let positionals: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(index, arg)| {
            !arg.starts_with("--")
                && Some(*index) != json_value_pos
                && Some(*index) != solve_cap_value_pos
        })
        .map(|(_, arg)| arg)
        .collect();
    let what = match positionals.as_slice() {
        [] => "all".to_string(),
        [only] => (*only).clone(),
        _ => {
            eprintln!("expected at most one experiment, got {positionals:?}");
            std::process::exit(1);
        }
    };

    let mut tables: Vec<(&str, Vec<RowResult>)> = Vec::new();
    match what.as_str() {
        "table2" => tables.push(("table2", table2(solve, validate, budget))),
        "table3" => tables.push(("table3", table3(solve, validate, budget))),
        "ablations" => ablations(),
        "baseline" => baseline(),
        "all" => {
            tables.push(("table2", table2(solve, validate, budget)));
            tables.push(("table3", table3(solve, validate, budget)));
            ablations();
            baseline();
        }
        other => {
            eprintln!(
                "unknown experiment `{other}`; expected table2|table3|ablations|baseline|all"
            );
            std::process::exit(1);
        }
    }

    let validation_failures: Vec<&str> = tables
        .iter()
        .flat_map(|(_, rows)| rows.iter())
        .filter(|row| row.validate.as_ref().is_some_and(|v| !v.passed()))
        .map(|row| row.name.as_str())
        .collect();

    if let Some(path) = json_out {
        // Only table experiments produce rows; refuse to overwrite a
        // snapshot with an empty one (e.g. `ablations --json`).
        if tables.iter().all(|(_, rows)| rows.is_empty()) {
            eprintln!(
                "--json needs a row-producing experiment (table2|table3|all); \
                 refusing to write an empty snapshot"
            );
            std::process::exit(1);
        }
        let borrowed: Vec<(&str, &[RowResult])> = tables
            .iter()
            .map(|(name, rows)| (*name, rows.as_slice()))
            .collect();
        if let Err(error) = write_bench_json(&path, &borrowed) {
            eprintln!("{error}");
            std::process::exit(2);
        }
        eprintln!("wrote {}", path.display());
    }

    if !validation_failures.is_empty() {
        eprintln!("validation FAILED for: {}", validation_failures.join(", "));
        std::process::exit(1);
    }
}

fn is_experiment(arg: &str) -> bool {
    matches!(arg, "table2" | "table3" | "ablations" | "baseline" | "all")
}

fn table2(solve: bool, validate: bool, budget: f64) -> Vec<RowResult> {
    let engine = engine_for_tables();
    let rows: Vec<_> = polyinv_benchmarks::table2()
        .iter()
        .map(|b| {
            // Every row is attempted under the per-row wall-clock budget.
            run_row_full(
                &engine,
                b,
                solve_policy_with_budget(solve, budget),
                validate,
            )
        })
        .collect();
    println!(
        "{}",
        format_table(
            "Table 2 — non-recursive benchmarks (Rodríguez-Carbonell)",
            &rows
        )
    );
    if validate {
        println!("{}", format_validation("Table 2", &rows));
    }
    rows
}

fn table3(solve: bool, validate: bool, budget: f64) -> Vec<RowResult> {
    let engine = engine_for_tables();
    let rows: Vec<_> = polyinv_benchmarks::table3()
        .iter()
        .map(|b| {
            run_row_full(
                &engine,
                b,
                solve_policy_with_budget(solve, budget),
                validate,
            )
        })
        .collect();
    println!(
        "{}",
        format_table(
            "Table 3 — recursive and reinforcement-learning benchmarks",
            &rows
        )
    );
    if validate {
        println!("{}", format_validation("Table 3", &rows));
    }
    rows
}

/// Ablations called out in the paper: the technical parameter ϒ (Remark 3),
/// the bounded-reals augmentation (Remark 5) and the template degree,
/// measured on the running example.
fn ablations() {
    println!("## Ablations (running example, Figure 2)");
    let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
    let pre = Precondition::from_program(&program);
    println!(
        "{:<34} {:>10} {:>10} {:>12}",
        "configuration", "|S|", "unknowns", "gen-time"
    );
    let report = |name: &str, options: SynthesisOptions| {
        let start = Instant::now();
        let generated = polyinv_constraints::generate(&program, &pre, &options)
            .expect("ablation programs are call-free");
        println!(
            "{:<34} {:>10} {:>10} {:>10.3}s",
            name,
            generated.size(),
            generated.system.num_unknowns(),
            start.elapsed().as_secs_f64()
        );
    };
    for upsilon in [0, 2, 4] {
        report(
            &format!("Cholesky, d=2, upsilon={upsilon}"),
            SynthesisOptions::default().with_upsilon(upsilon),
        );
    }
    report(
        "Cholesky + bounded reals (c=1000)",
        SynthesisOptions::default().with_bounded_reals(polyinv_arith::Rational::from_int(1000)),
    );
    report(
        "Cholesky, d=1 (linear templates)",
        SynthesisOptions::default().with_degree(1),
    );
    println!();
}

/// The Table-1 comparison against the Colón et al. 2003 baseline: the
/// baseline handles the linear benchmarks but rejects every benchmark that
/// needs polynomial reasoning. Baseline inapplicability flows through the
/// unified [`ApiError`] story of `polyinv-api`.
fn baseline() {
    println!("## Baseline comparison (Colón et al. 2003, Farkas' lemma)");
    println!(
        "{:<26} {:>14} {:>40}",
        "benchmark", "putinar |S|", "baseline status"
    );
    for benchmark in polyinv_benchmarks::table2() {
        let program = benchmark.program().unwrap();
        let pre = benchmark.precondition().unwrap();
        let baseline = FarkasBaseline::default();
        let putinar = polyinv_constraints::generate(&program, &pre, &options_for(&benchmark))
            .expect("benchmark programs generate");
        let outcome = baseline
            .generate(&program, &pre)
            .map(|system| system.size())
            .map_err(ApiError::from);
        println!(
            "{:<26} {:>14} {:>40}",
            benchmark.name,
            putinar.size(),
            baseline_status(outcome)
        );
    }
    println!();
}

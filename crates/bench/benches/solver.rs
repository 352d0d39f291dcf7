//! Criterion benchmarks for the Step-4 solve stage.
//!
//! `lm_iteration` and `symbolic_setup` take a row's generated system with
//! every unknown free. The other solver groups take the problem the
//! orchestrator's lanes get on one rung of the row
//! (`probe::presolved_problem_at`, built by `Orchestrator::rung_problem`):
//! the row's target pinned, the template degree escalated to fit it,
//! presolve applied and every eliminated unknown pinned out.
//!
//! Eight groups:
//!
//! * `lm_iteration` — one damped normal-equations iteration (accumulate
//!   `JᵀJ`/`Jᵀr` from sparse rows, numeric LDLᵀ factor, triangular solves)
//!   on real Table 2 systems, for the sparse production path and — on
//!   cohendiv — the dense pre-rewrite oracle (dense `m×n` Jacobian, dense
//!   `JᵀJ`, `O(n³)` solve). The dense bench is what the ≥5× acceptance
//!   comparison reads against; expect two orders of magnitude. Both
//!   iteration shapes come from `polyinv_bench::probe`, shared with the
//!   `solver_comparison` example so every consumer measures the same
//!   algorithm.
//! * `lm_iteration_large` — the same single iteration on the ϒ = 2 lane
//!   problems of the formerly size-capped rows (euclidex1, merge-sort), at
//!   1/2/4/8 evaluation worker threads. The worker threads scale only the
//!   residual and `JᵀJ` evaluation; the numeric factorization and the
//!   solves are serial, so the serial/8-thread ratio is bounded by the
//!   evaluation's share of the iteration (the outputs stay byte-identical
//!   at every thread count).
//! * `normal_accumulate` — the residual pass scattering `JᵀJ`/`Jᵀr` alone
//!   (`residuals_and_normal`), on the ϒ = 2 lane problems of prodbin
//!   (7077 rows) and recursive-square-sum (3849 rows) at 1 and 2
//!   evaluation workers: the chunked path, with its per-chunk buffers and
//!   the merge.
//! * `ldl_factor` — the numeric LDLᵀ factorization alone, on the ϒ = 2
//!   lane problems of recursive-sum, recursive-square-sum and prodbin
//!   (fill-heavy: the supernodal layout) and the ϒ = 0 lane problem of
//!   cohendiv (the simplicial control).
//! * `lm_restarts` — the LM lane alone: `LmSolver` with the default plan's
//!   lane options (3 restarts, 400 iterations) on the ϒ = 0 lane problem
//!   of euclidex2 (1448 variables, 1503 rows), from the cold warm start
//!   `0.05`, with its restarts on the work queue's restart workers and one
//!   after the other. No restart reaches feasibility there, so all three
//!   run: the gap is what the queue gains over running them in turn.
//! * `penalty_lane` — the penalty lane alone: `AlmSolver` with the default
//!   plan's lane options on the ϒ = 0 lane problem of cohendiv (461
//!   variables, 512 rows), from the cold warm start `0.05` a first rung
//!   uses. Its restarts run on the thread budget's restart workers.
//! * `symbolic_setup` — the once-per-problem cost the sparse path amortizes
//!   (pattern construction + minimum-degree ordering + symbolic LDLᵀ).
//! * `weak_synthesis_e2e` — an end-to-end weak synthesis (Steps 1–4)
//!   through the Engine on a small program.
//!
//! CI smoke-compiles everything and short-runs the sparse iteration
//! benches (`cargo bench -p polyinv-bench --bench solver -- sparse`), the
//! accumulation group (`-- normal_accumulate`), the factorization group
//! (`-- ldl_factor`), the LM restarts (`-- lm_restarts`) and the penalty
//! lane (`-- penalty_lane`); the full runs — including the slow dense
//! oracle and the large-system scaling group — are for local perf work.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use polyinv_bench::probe::{
    dense_iteration, presolved_problem_at, presolved_table_problem, table_problem, SparseProbe,
};

fn lm_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("lm_iteration");
    group.sample_size(10);
    for name in ["freire1", "cohendiv", "mannadiv"] {
        let mut probe = SparseProbe::new(table_problem(name));
        let x = vec![0.05; probe.problem().num_vars];
        group.bench_function(format!("sparse/{name}"), |b| {
            b.iter(|| probe.iteration(&x, 1e-3))
        });
    }
    // The dense oracle on the cohendiv-scale system: the pre-rewrite cost
    // each LM iteration paid (dense J / Jᵀ / JᵀJ plus an O(n³) solve). One
    // iteration takes ~19 s, so the sample budget stays minimal; the point
    // of the bench is the ratio against `sparse/cohendiv`.
    let problem = table_problem("cohendiv");
    let x = vec![0.05; problem.num_vars];
    group.measurement_time(Duration::from_secs(60));
    group.bench_function("dense/cohendiv", |b| {
        b.iter(|| dense_iteration(&problem, &x, 1e-3))
    });
    group.finish();
}

fn lm_iteration_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("lm_iteration_large");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(30));
    // The ϒ = 2 lane problems of two formerly size-capped rows: what Step 4
    // actually receives once the orchestrator's presolve has run. Checksums
    // are asserted equal across thread counts so a run that loses bitwise
    // determinism fails loudly instead of publishing misleading numbers.
    for name in ["euclidex1", "merge-sort"] {
        let problem = presolved_table_problem(name);
        let x = vec![0.05; problem.num_vars];
        let mut reference = None;
        for threads in [1usize, 2, 4, 8] {
            let mut probe = SparseProbe::with_threads(problem.clone(), threads);
            let checksum = probe.iteration(&x, 1e-3);
            match reference {
                None => reference = Some(checksum),
                Some(expected) => assert_eq!(
                    expected.to_bits(),
                    checksum.to_bits(),
                    "{name}: iteration diverged at {threads} threads"
                ),
            }
            group.bench_function(format!("{name}/threads{threads}"), |b| {
                b.iter(|| probe.iteration(&x, 1e-3))
            });
        }
    }
    group.finish();
}

fn normal_accumulate(c: &mut Criterion) {
    let mut group = c.benchmark_group("normal_accumulate");
    group.sample_size(10);
    for name in ["prodbin", "recursive-square-sum"] {
        let problem = presolved_table_problem(name);
        let x = vec![0.05; problem.num_vars];
        let mut reference: Option<Vec<u64>> = None;
        for threads in [1usize, 2] {
            let probe = SparseProbe::with_threads(problem.clone(), threads);
            let mut eval = probe.evaluator();
            eval.residuals_and_normal(&x);
            // The accumulation must not depend on the worker count.
            let bits: Vec<u64> = eval.jtj_values().iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(expected) => assert!(
                    *expected == bits,
                    "{name}: JᵀJ diverged at {threads} threads"
                ),
            }
            group.bench_function(format!("{name}/threads{threads}"), |b| {
                b.iter(|| eval.residuals_and_normal(&x))
            });
        }
    }
    group.finish();
}

fn ldl_factor(c: &mut Criterion) {
    let mut group = c.benchmark_group("ldl_factor");
    group.sample_size(10);
    let systems = [
        ("recursive-sum", 2),
        ("recursive-square-sum", 2),
        ("prodbin", 2),
        ("cohendiv", 0),
    ];
    for (name, upsilon) in systems {
        let mut probe = SparseProbe::new(presolved_problem_at(name, upsilon));
        let x = vec![0.05; probe.problem().num_vars];
        let system = probe.damped_normal(&x, 1e-3);
        let layout = if probe.supernodes() > 0 {
            "supernodal"
        } else {
            "simplicial"
        };
        group.bench_function(format!("{name}/upsilon{upsilon}/{layout}"), |b| {
            b.iter(|| assert!(probe.factor(&system)))
        });
    }
    group.finish();
}

fn lm_restarts(c: &mut Criterion) {
    let mut group = c.benchmark_group("lm_restarts");
    group.sample_size(10);
    let problem = presolved_problem_at("euclidex2", 0);
    let lane = polyinv::SolvePlan::new(polyinv_constraints::SynthesisOptions::default()).lm;
    let warm = vec![0.05; problem.num_vars];
    for (label, parallel_restarts) in [("queued", true), ("sequential", false)] {
        let solver = polyinv_qcqp::LmSolver::new(polyinv_qcqp::LmOptions {
            parallel_restarts,
            ..lane.clone()
        });
        group.bench_function(format!("euclidex2/upsilon0/{label}"), |b| {
            b.iter(|| solver.solve(&problem, Some(&warm)).violation)
        });
    }
    group.finish();
}

fn penalty_lane(c: &mut Criterion) {
    let mut group = c.benchmark_group("penalty_lane");
    group.sample_size(10);
    let problem = presolved_problem_at("cohendiv", 0);
    let options = polyinv::SolvePlan::new(polyinv_constraints::SynthesisOptions::default())
        .penalty
        .expect("the default plan has a penalty lane");
    let solver = polyinv_qcqp::AlmSolver::new(options);
    let warm = vec![0.05; problem.num_vars];
    group.bench_function("cohendiv/upsilon0", |b| {
        b.iter(|| solver.solve(&problem, Some(&warm)).violation)
    });
    group.finish();
}

fn symbolic_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("symbolic_setup");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    for name in ["cohendiv", "mannadiv"] {
        let problem = table_problem(name);
        group.bench_function(name, |b| {
            b.iter(|| SparseProbe::new(problem.clone()).nnz_factor())
        });
    }
    group.finish();
}

fn weak_synthesis_e2e(c: &mut Criterion) {
    use polyinv_api::{ReportStatus, SynthesisRequest};
    let mut group = c.benchmark_group("weak_synthesis_e2e");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(20));
    let source = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../programs/inc.poly"),
    )
    .expect("inc.poly exists");
    let engine = polyinv_api::Engine::new();
    let request = SynthesisRequest::weak(source)
        .with_degree(1)
        .with_target("x + 1 > 0");
    group.bench_function("inc", |b| {
        b.iter(|| {
            let report = engine.run(&request).unwrap();
            assert_eq!(report.status, ReportStatus::Synthesized);
            report.solver.as_ref().map(|s| s.iterations)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    lm_iteration,
    lm_iteration_large,
    normal_accumulate,
    ldl_factor,
    lm_restarts,
    penalty_lane,
    symbolic_setup,
    weak_synthesis_e2e
);
criterion_main!(benches);

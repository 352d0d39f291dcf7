//! Criterion benchmarks for the exact-arithmetic layer (`Rational`).
//!
//! Two groups, both dominated by `Rational` additions, multiplications and
//! comparisons:
//!
//! * `exact_recheck_ladder` — the exact certificate on the ϒ = 2 system of
//!   prodbin (the rung-2 certificate of `tables-rung2-fixed`). The
//!   assignment is a fixed pseudo-random point that no rounding certifies,
//!   so every step of the snap ladder evaluates every term of the system
//!   in rational arithmetic (dyadic values, general coefficients).
//! * `falsify_traces` — the trace falsifier with 1000 valid seeded traces
//!   on the Table 2 row cohendiv, its target checked at the exit label
//!   (integer states, small constants).
//!
//! CI short-runs both (`cargo bench -p polyinv-bench --bench exact`).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use polyinv::weak::{fix_targets, TargetAssertion};
use polyinv::SolvePlan;
use polyinv_bench::{options_for, validation_for_tables};
use polyinv_constraints::exact_recheck_ladder;
use polyinv_lang::{InvariantMap, Postcondition, Precondition};
use polyinv_validate::falsify_traces;

/// A deterministic point in `[-1, 1)ⁿ` (splitmix64), so every run rechecks
/// the same rationals.
fn fixed_point(n: usize) -> Vec<f64> {
    let mut state = 0x5eed_u64;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64 * 2.0 - 1.0
        })
        .collect()
}

fn recheck_ladder(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_recheck_ladder");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    let benchmark = polyinv_benchmarks::by_name("prodbin").unwrap();
    let program = benchmark.program().unwrap();
    let pre = benchmark.precondition().unwrap();
    let mut options = options_for(&benchmark);
    let targets = match benchmark.target_polynomial(&program).unwrap() {
        Some(target) => {
            options.degree = options.degree.max(target.degree());
            vec![TargetAssertion::new(program.main().exit_label(), target)]
        }
        None => Vec::new(),
    };
    let generated = polyinv_constraints::generate(&program, &pre, &options).unwrap();
    let pins = fix_targets(&generated, &targets);
    let assignment = fixed_point(generated.system.num_unknowns());
    // The tolerance production certifies with, so the ladder runs the
    // rungs a rejected point walks in a solve.
    let config = SolvePlan::new(options.clone()).certificate;
    group.bench_function("prodbin_upsilon2", |b| {
        b.iter(|| {
            let report = exact_recheck_ladder(&generated.system, &assignment, &pins, &config);
            assert!(!report.passed());
            report.constraints
        })
    });
    group.finish();
}

fn trace_falsification(c: &mut Criterion) {
    let mut group = c.benchmark_group("falsify_traces");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    let benchmark = polyinv_benchmarks::by_name("cohendiv").unwrap();
    let program = benchmark.program().unwrap();
    let pre = Precondition::from_program(&program);
    let target = benchmark.target_polynomial(&program).unwrap().unwrap();
    let mut invariant = InvariantMap::new();
    invariant.add(program.main().exit_label(), target);
    let config = validation_for_tables().trace;
    group.bench_function("cohendiv_1000_traces", |b| {
        b.iter(|| {
            let report = falsify_traces(&program, &pre, &invariant, &Postcondition::new(), &config);
            assert!(report.passed());
            report.states_checked
        })
    });
    group.finish();
}

criterion_group!(benches, recheck_ladder, trace_falsification);
criterion_main!(benches);

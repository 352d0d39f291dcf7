//! Criterion benchmarks for the affine presolve engine.
//!
//! Two groups: `presolve_pass` times the presolve fixpoint itself on the
//! pinned ϒ = 0 systems of representative Table 2 rows (the exact input the
//! orchestrator's presolve sees), and `presolve_end_to_end` compares a
//! full weak synthesis with and without presolve on a small program, so a
//! regression in either the pass itself or its downstream payoff shows up
//! in the same report.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use polyinv::weak::{fix_targets, TargetAssertion};
use polyinv_api::{Engine, ReportStatus, SynthesisRequest};
use polyinv_bench::options_for;
use polyinv_constraints::{presolve, PresolveOptions};

fn presolve_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("presolve_pass");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(8));
    for name in ["cohendiv", "mannadiv", "sqrt", "freire1", "hard"] {
        let benchmark = polyinv_benchmarks::by_name(name).unwrap();
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
        // Setup (generation + target pinning) stays outside the timed loop:
        // the group measures the presolve fixpoint only.
        let generated =
            polyinv_constraints::generate(&program, &pre, &options.with_upsilon(0)).unwrap();
        let pins = fix_targets(&generated, &targets);
        group.bench_function(name, |b| {
            b.iter(|| {
                presolve(&generated.system, &pins, &PresolveOptions::default())
                    .stats
                    .size_after
            })
        });
    }
    group.finish();
}

fn presolve_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("presolve_end_to_end");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(20));
    let source = r#"
        inc(x) {
            @pre(x >= 0);
            while x <= 10 do
                x := x + 1
            od;
            return x
        }
    "#;
    let engine = Engine::new();
    let base = SynthesisRequest::weak(source)
        .with_degree(1)
        .with_target("x + 1 > 0");
    for (label, presolve_on) in [("with_presolve", true), ("without_presolve", false)] {
        let mut request = base.clone();
        request.options.presolve = presolve_on;
        group.bench_function(label, |b| {
            b.iter(|| {
                let report = engine.run(&request).expect("valid request");
                assert_eq!(report.status, ReportStatus::Synthesized);
                assert_eq!(report.presolve.is_some(), presolve_on);
                report.system_size
            })
        });
    }
    group.finish();
}

criterion_group!(benches, presolve_pass, presolve_end_to_end);
criterion_main!(benches);

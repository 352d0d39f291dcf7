//! Criterion benchmarks for the stages of the invariant-generation pipeline.
//!
//! Each group corresponds to an experiment listed in DESIGN.md §5:
//! the three constraint-generation steps (Steps 1–3) on the running
//! example, the Step-3 reduction of a large system at 1 and 2 workers
//! (`reduction_large`), generation for representative Table 2 / Table 3
//! rows, the ϒ ablation, the Farkas baseline, certificate checking and
//! end-to-end weak synthesis on a small program.
//!
//! `pipeline_stages/reduction` runs on the running example, which stays
//! below the size from which `reduce_pairs` translates pairs in parallel;
//! `reduction_large` (euclidex2 at ϒ = 2, |S| = 46,527) is above it. CI
//! short-runs it with `cargo bench -p polyinv-bench --bench pipeline --
//! reduction_large`.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use polyinv::prelude::*;
use polyinv_api::{Engine, ReportStatus, SynthesisRequest};
use polyinv_bench::baseline;
use polyinv_bench::options_for;
use polyinv_constraints::pairs::{generate_pairs, PairOptions};
use polyinv_constraints::template::TemplateSet;
use polyinv_constraints::{prepare, reduce_pairs, UnknownRegistry};
use polyinv_lang::program::RUNNING_EXAMPLE_SOURCE;
use polyinv_lang::Cfg;
use polyinv_poly::MonomialTable;

fn pipeline_stage_breakdown(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_stages");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
    let pre = Precondition::from_program(&program);
    let options = SynthesisOptions::default();
    // The bounded-reals-augmented pre-condition Steps 2 and 3 see.
    let (augmented, recursive) = prepare(&program, &pre, &options).unwrap();
    let cfg = Cfg::build(&program);
    // Step 1, Step 2 and their inputs; per-iteration setup stays untimed.
    let (degree, size) = (options.degree, options.size);
    let templates = || {
        let mut registry = UnknownRegistry::new();
        let mut table = MonomialTable::new();
        let set = TemplateSet::build(&program, &mut registry, degree, size, recursive, &mut table);
        (set, registry, table)
    };
    let pairs = |templates: &TemplateSet, table: &mut MonomialTable| {
        generate_pairs(
            &program,
            &cfg,
            &augmented,
            templates,
            PairOptions { recursive },
            table,
        )
        .unwrap()
    };
    group.bench_function("templates", |b| b.iter(|| templates().1.len()));
    group.bench_function("pairs", |b| {
        b.iter_batched(
            || {
                let (templates, _, table) = templates();
                (templates, table)
            },
            |(templates, mut table)| pairs(&templates, &mut table).len(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("reduction", |b| {
        b.iter_batched(
            || {
                let (templates, registry, mut table) = templates();
                let pairs = pairs(&templates, &mut table);
                (templates, registry, pairs, table)
            },
            |(templates, registry, pairs, table)| {
                reduce_pairs(
                    templates,
                    registry,
                    pairs,
                    &options,
                    recursive,
                    augmented.clone(),
                    table,
                )
                .unwrap()
                .size()
            },
            BatchSize::SmallInput,
        )
    });
    let pipeline = Pipeline::new(options.clone());
    group.bench_function("full_generation", |b| {
        b.iter(|| {
            let mut ctx = pipeline.context(&program, &pre);
            pipeline.generate(&mut ctx).unwrap().size()
        })
    });
    group.finish();
}

/// `reduce_pairs` on euclidex2 at ϒ = 2 (19 pairs, |S| = 46,527) at 1 and 2
/// workers. The worker count is `POLYINV_THREADS`, set here between
/// benchmarks: the harness runs one benchmark at a time and nothing else
/// reads the environment meanwhile. The two systems are asserted identical
/// before anything is timed.
fn reduction_large(c: &mut Criterion) {
    let benchmark = polyinv_benchmarks::by_name("euclidex2").unwrap();
    let program = benchmark.program().unwrap();
    let pre = benchmark.precondition().unwrap();
    let options = options_for(&benchmark);
    let (augmented, recursive) = prepare(&program, &pre, &options).unwrap();
    let cfg = Cfg::build(&program);
    let inputs = || {
        let mut registry = UnknownRegistry::new();
        let mut table = MonomialTable::new();
        let templates = TemplateSet::build(
            &program,
            &mut registry,
            options.degree,
            options.size,
            recursive,
            &mut table,
        );
        let pairs = generate_pairs(
            &program,
            &cfg,
            &augmented,
            &templates,
            PairOptions { recursive },
            &mut table,
        )
        .unwrap();
        (templates, registry, pairs, table)
    };
    let reduce = |(templates, registry, pairs, table)| {
        reduce_pairs(
            templates,
            registry,
            pairs,
            &options,
            recursive,
            augmented.clone(),
            table,
        )
        .unwrap()
    };
    let saved = std::env::var("POLYINV_THREADS").ok();
    let systems: Vec<_> = [1, 2]
        .into_iter()
        .map(|workers| {
            std::env::set_var("POLYINV_THREADS", workers.to_string());
            reduce(inputs()).system
        })
        .collect();
    let (serial, parallel) = (&systems[0], &systems[1]);
    assert_eq!(serial.size(), 46_527);
    assert_eq!(serial.equalities, parallel.equalities);
    assert_eq!(serial.inequalities, parallel.inequalities);
    assert!(serial.registry.iter().eq(parallel.registry.iter()));

    let mut group = c.benchmark_group("reduction_large");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    for workers in [1, 2] {
        std::env::set_var("POLYINV_THREADS", workers.to_string());
        group.bench_function(format!("euclidex2/upsilon2/workers{workers}"), |b| {
            b.iter_batched(inputs, |input| reduce(input).size(), BatchSize::SmallInput)
        });
    }
    group.finish();
    match saved {
        Some(value) => std::env::set_var("POLYINV_THREADS", value),
        None => std::env::remove_var("POLYINV_THREADS"),
    }
}

fn table_generation(c: &mut Criterion) {
    let table2: &[&str] = &[
        "sqrt",
        "freire1",
        "petter",
        "cohendiv",
        "mannadiv",
        "cohencu",
        "hard",
        "euclidex1",
    ];
    let table3: &[&str] = &["recursive-sum", "recursive-square-sum", "pw2"];
    for (group_name, rows) in [
        ("table2_system_generation", table2),
        ("table3_system_generation", table3),
    ] {
        let mut group = c.benchmark_group(group_name);
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(8));
        for &name in rows {
            let benchmark = polyinv_benchmarks::by_name(name).unwrap();
            let program = benchmark.program().unwrap();
            let pre = benchmark.precondition().unwrap();
            let options = options_for(&benchmark);
            group.bench_function(name, |b| {
                b.iter(|| {
                    polyinv_constraints::generate(&program, &pre, &options)
                        .unwrap()
                        .size()
                })
            });
        }
        group.finish();
    }
}

fn ablation_upsilon(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_upsilon");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
    let pre = Precondition::from_program(&program);
    for upsilon in [0u32, 2, 4] {
        let options = SynthesisOptions {
            upsilon,
            ..SynthesisOptions::default()
        };
        group.bench_function(format!("upsilon_{upsilon}"), |b| {
            b.iter(|| {
                polyinv_constraints::generate(&program, &pre, &options)
                    .unwrap()
                    .size()
            })
        });
    }
    group.finish();
}

fn baseline_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline_comparison");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(8));
    let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
    let pre = Precondition::from_program(&program);
    group.bench_function("farkas_linear", |b| {
        b.iter(|| baseline::generate(&program, &pre).unwrap().size())
    });
    group.bench_function("putinar_quadratic", |b| {
        b.iter(|| {
            polyinv_constraints::generate(&program, &pre, &SynthesisOptions::default())
                .unwrap()
                .size()
        })
    });
    group.finish();
}

fn certificate_checking(c: &mut Criterion) {
    let mut group = c.benchmark_group("certificate_check");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(10));
    let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
    let pre = Precondition::from_program(&program);
    // The margin-aware linear strengthening used in the test suite.
    let labels = program.main().labels().to_vec();
    let parse = |text: &str| parse_assertion(&program, "sum", text).unwrap().0;
    let mut invariant = InvariantMap::new();
    invariant.add(labels[0], parse("n > 0"));
    for (index, (i_term, combined)) in [
        ("8*i - 7", "4*i + 4*s - 3"),
        ("4*i - 3", "4*i + 4*s + 1"),
        ("4*i - 2", "4*i + 4*s + 2"),
        ("4*i - 1", "4*i + 4*s + 3"),
        ("4*i - 1", "4*i + 4*s + 3"),
        ("4*i - 0", "4*i + 4*s + 4"),
        ("4*i - 2", "4*i + 4*s + 2"),
        ("4*i - 1", "4*i + 4*s + 3"),
    ]
    .iter()
    .enumerate()
    {
        invariant.add(labels[index + 1], parse(&format!("{i_term} > 0")));
        invariant.add(labels[index + 1], parse(&format!("{combined} > 0")));
    }
    group.bench_function("running_example_strengthening", |b| {
        b.iter(|| {
            let report = check_inductive(
                &program,
                &pre,
                &invariant,
                &Postcondition::new(),
                &SynthesisOptions::default(),
            )
            .unwrap();
            assert!(report.all_certified());
        })
    });
    group.finish();
}

fn weak_synthesis_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("weak_synthesis");
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
    // End-to-end through the stable Engine surface: parse (cached), pin
    // the target, ladder, solve, report.
    let engine = Engine::new();
    let request = SynthesisRequest::weak(source)
        .with_degree(1)
        .with_target("x + 1 > 0");
    group.bench_function("bounded_counter_degree1", |b| {
        b.iter(|| {
            let report = engine.run(&request).expect("valid request");
            assert_eq!(report.status, ReportStatus::Synthesized);
            report.system_size
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    pipeline_stage_breakdown,
    reduction_large,
    table_generation,
    ablation_upsilon,
    baseline_comparison,
    certificate_checking,
    weak_synthesis_end_to_end
);
criterion_main!(benches);

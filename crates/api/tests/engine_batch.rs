//! Engine batch semantics: parallel execution with deterministic,
//! request-ordered output.

use polyinv_api::{ApiError, Engine, Mode, ReportStatus, SynthesisRequest};

const TICK: &str = r#"
    tick(x) {
        @pre(x >= 0);
        while x <= 2 do
            x := x + 1
        od;
        return x
    }
"#;

const DOUBLE: &str = r#"
    double(n) {
        @pre(n >= 0);
        x := 0;
        i := 0;
        while i < n do
            x := x + 2;
            i := i + 1
        od;
        return x
    }
"#;

/// A mixed batch: four generation runs over two distinct programs and two
/// option sets, plus a cheap certificate check and one failing request.
fn batch() -> Vec<SynthesisRequest> {
    vec![
        SynthesisRequest::generate_only(TICK).with_id("tick/d2"),
        SynthesisRequest::generate_only(TICK)
            .with_id("tick/d1")
            .with_degree(1),
        SynthesisRequest::generate_only(DOUBLE).with_id("double/d2"),
        SynthesisRequest::generate_only(DOUBLE)
            .with_id("double/d1")
            .with_degree(1)
            .with_upsilon(0),
        SynthesisRequest::check(TICK)
            .with_id("tick/check")
            .with_target("1 > 0"),
        SynthesisRequest::generate_only("f(x) { x := ; return x }").with_id("broken"),
    ]
}

#[test]
fn batches_run_at_least_four_requests_with_request_ordered_output() {
    let engine = Engine::new();
    let requests = batch();
    assert!(requests.len() >= 4);
    let outcomes = engine.run_batch(&requests);
    assert_eq!(outcomes.len(), requests.len());

    // Output order is request order, whatever the completion order was.
    for (request, outcome) in requests.iter().zip(&outcomes) {
        match outcome {
            Ok(report) => assert_eq!(report.id, request.id),
            Err(error) => {
                assert_eq!(request.id, "broken");
                assert!(matches!(error, ApiError::Parse { .. }));
            }
        }
    }
    let statuses: Vec<ReportStatus> = outcomes
        .iter()
        .filter_map(|o| o.as_ref().ok().map(|r| r.status))
        .collect();
    assert_eq!(
        statuses,
        vec![
            ReportStatus::Generated,
            ReportStatus::Generated,
            ReportStatus::Generated,
            ReportStatus::Generated,
            ReportStatus::Certified,
        ]
    );

    // The degree-1 reduction is strictly smaller than the degree-2 one.
    let size = |index: usize| outcomes[index].as_ref().unwrap().system_size;
    assert!(size(1) < size(0));
    assert!(size(3) < size(2));

    // Two sources were parsed despite six requests: the cache deduplicates
    // per-source (the broken request never caches).
    assert_eq!(engine.cached_programs(), 2);
}

#[test]
fn identical_batches_serialize_to_identical_json() {
    let engine = Engine::new();
    let requests = batch();

    let serialize = |outcomes: Vec<Result<polyinv_api::SynthesisReport, ApiError>>| -> String {
        outcomes
            .into_iter()
            .map(|outcome| match outcome {
                // `canonical()` zeroes the wall-clock timings — the one
                // field two identical runs legitimately disagree on.
                Ok(report) => report.canonical().to_json_string(),
                Err(error) => error.to_json().to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n")
    };

    let first = serialize(engine.run_batch(&requests));
    let second = serialize(engine.run_batch(&requests));
    assert_eq!(first, second, "batch output must be byte-identical");

    // A fresh engine (cold cache) also produces the same bytes.
    let third = serialize(Engine::new().run_batch(&requests));
    assert_eq!(first, third);
}

#[test]
fn identical_requests_produce_byte_identical_reports_through_the_interned_core() {
    // The interned monomial core allocates MonoIds in discovery order; two
    // runs of the same request must still serialize identically (canonical
    // graded-lexicographic order is restored at every conversion boundary).
    // The recursive benchmark exercises the call/post-condition paths.
    let benchmark = polyinv_benchmarks::by_name("recursive-sum").unwrap();
    let request = SynthesisRequest::generate_only(benchmark.source).with_id("det");
    let engine = Engine::new();
    let first = engine.run(&request).unwrap().canonical().to_json_string();
    let second = engine.run(&request).unwrap().canonical().to_json_string();
    assert_eq!(first, second);
    // A fresh engine (cold parse cache, fresh monomial table) too.
    let third = Engine::new()
        .run(&request)
        .unwrap()
        .canonical()
        .to_json_string();
    assert_eq!(first, third);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "solver-bound; run with `cargo test --release`"
)]
fn sparse_weak_solves_produce_byte_identical_canonical_reports() {
    // The sparse LM back-end fans its restarts out over worker threads but
    // keeps the restart-winner policy deterministic, so two full weak-mode
    // solves of the same golden scenario must serialize to the same
    // canonical JSON — solver statistics included (their wall-clock split
    // is the one non-deterministic part and is zeroed by `canonical()`).
    let source = include_str!("../../../programs/inc.poly");
    let request = SynthesisRequest::weak(source)
        .with_id("det-solve")
        .with_degree(1)
        .with_target("x + 1 > 0");
    let engine = Engine::new();
    let first = engine.run(&request).unwrap();
    assert_eq!(first.status, ReportStatus::Synthesized);
    let solver = first.solver.as_ref().expect("weak runs report stats");
    assert!(solver.iterations > 0);
    // Sparse-factorization counters only exist on the LM lane; the penalty
    // fallback lane can legitimately win with dense statistics.
    if first.backend == "lm" {
        assert!(solver.nnz_jacobian > 0);
        assert!(solver.nnz_factor > 0);
    }
    let first = first.canonical().to_json_string();
    let second = engine.run(&request).unwrap().canonical().to_json_string();
    assert_eq!(first, second);
    // A fresh engine (cold caches, new restart threads) too.
    let third = Engine::new()
        .run(&request)
        .unwrap()
        .canonical()
        .to_json_string();
    assert_eq!(first, third);
}

#[test]
fn batch_requests_can_pick_their_own_backend() {
    let engine = Engine::new();
    let requests = vec![
        SynthesisRequest::generate_only(TICK).with_id("default"),
        SynthesisRequest::generate_only(TICK)
            .with_id("lm")
            .with_backend("lm"),
        SynthesisRequest::generate_only(TICK)
            .with_id("penalty")
            .with_backend("penalty"),
        SynthesisRequest::generate_only(TICK)
            .with_id("bogus")
            .with_backend("loqo"),
    ];
    let outcomes = engine.run_batch(&requests);
    assert!(outcomes[0].is_ok());
    assert!(outcomes[1].is_ok());
    // The penalty lane runs only as LM's fallback: its name is unknown.
    for (outcome, expected) in outcomes[2..].iter().zip(["penalty", "loqo"]) {
        assert!(matches!(
            outcome,
            Err(ApiError::UnknownBackend { name }) if name == expected
        ));
    }
    assert_eq!(engine.backend_name(), "lm");
}

#[test]
fn strong_and_check_requests_reject_backend_overrides() {
    let engine = Engine::new();
    for request in [
        SynthesisRequest::strong(TICK).with_backend("penalty"),
        SynthesisRequest::check(TICK)
            .with_target("1 > 0")
            .with_backend("lm"),
    ] {
        assert!(matches!(
            engine.run(&request),
            Err(ApiError::InvalidRequest { .. })
        ));
    }
}

#[test]
fn one_shared_engine_serves_eight_threads_deterministically() {
    // The serving layer drives one `Arc<Engine>` from a worker pool; the
    // shared parse cache must neither corrupt programs nor perturb output.
    // Eight threads race a mixed request set and every canonical report must
    // be byte-identical to a sequential run of the same request.
    use std::sync::Arc;

    let requests: Vec<SynthesisRequest> = (0..4)
        .flat_map(|k| {
            [
                SynthesisRequest::generate_only(TICK)
                    .with_id(format!("tick/{k}"))
                    .with_degree(1 + (k % 2) as u32),
                SynthesisRequest::generate_only(DOUBLE)
                    .with_id(format!("double/{k}"))
                    .with_upsilon((k % 3) as u32),
                SynthesisRequest::check(TICK)
                    .with_id(format!("check/{k}"))
                    .with_target("1 > 0"),
            ]
        })
        .collect();

    let sequential: Vec<String> = {
        let engine = Engine::new();
        requests
            .iter()
            .map(|request| engine.run(request).unwrap().canonical().to_json_string())
            .collect()
    };

    let engine = Arc::new(Engine::new());
    let threads = 8;
    let handles: Vec<_> = (0..threads)
        .map(|thread| {
            let engine = Arc::clone(&engine);
            let requests = requests.clone();
            std::thread::spawn(move || {
                // Each thread walks the request list from a different
                // offset, so distinct sources hit the parse cache at the
                // same time.
                (0..requests.len())
                    .map(|step| {
                        let index = (step + thread * 5) % requests.len();
                        let report = engine.run(&requests[index]).unwrap();
                        (index, report.canonical().to_json_string())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for handle in handles {
        for (index, json) in handle.join().unwrap() {
            assert_eq!(
                json, sequential[index],
                "concurrent report diverged from the sequential run (request {index})"
            );
        }
    }
    // Two distinct sources were parsed, however many threads raced.
    assert_eq!(engine.cached_programs(), 2);
}

#[test]
fn empty_batches_are_fine() {
    let engine = Engine::new();
    assert!(engine.run_batch(&[]).is_empty());
}

#[test]
fn modes_echo_through_reports() {
    let engine = Engine::new();
    let report = engine.run(&SynthesisRequest::generate_only(TICK)).unwrap();
    assert_eq!(report.mode, Mode::GenerateOnly);
}

//! Canonical reports must be byte-identical across worker-thread counts.
//!
//! The chunked parallel evaluator promises bitwise-identical numerics at
//! any `POLYINV_THREADS` (the LDLᵀ factorization and solves are serial, in
//! an order fixed by the pattern), and
//! `SynthesisReport::canonical` normalizes the two report fields that
//! legitimately vary with the environment (wall-clock timings and the
//! recorded worker count). Together that makes the canonical JSON a stable
//! fingerprint of a solve — which is exactly what the CI determinism gate
//! compares between `POLYINV_THREADS=1` and `POLYINV_THREADS=8` runs.

use polyinv_api::{Engine, ReportStatus, SynthesisRequest};

const SOURCE: &str = r#"
inc(x) {
    @pre(x >= 0);
    while x <= 10 do
        x := x + 1
    od;
    return x
}
"#;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; run with `cargo test --release`"
)]
fn canonical_reports_are_byte_identical_across_polyinv_threads() {
    let request = SynthesisRequest::weak(SOURCE)
        .with_id("canonical-threads")
        .with_degree(1)
        .with_target("x + 1 > 0");
    let mut snapshots: Vec<(String, String)> = Vec::new();
    for threads in ["1", "4", "8"] {
        // The env var is read once per solve; each run gets a fresh Engine
        // so no cached state leaks between thread configurations.
        std::env::set_var("POLYINV_THREADS", threads);
        let report = Engine::new().run(&request).unwrap();
        assert_eq!(report.status, ReportStatus::Synthesized);
        snapshots.push((threads.to_string(), report.canonical().to_json().pretty()));
    }
    std::env::remove_var("POLYINV_THREADS");
    let (_, reference) = &snapshots[0];
    for (threads, snapshot) in &snapshots[1..] {
        assert_eq!(
            snapshot, reference,
            "canonical report diverged at POLYINV_THREADS={threads}"
        );
    }
}

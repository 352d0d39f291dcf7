//! Golden snapshots: canonical-JSON `SynthesisReport`s for every
//! `programs/*.poly` scenario, compared byte-for-byte against
//! `tests/golden/<stem>.json`.
//!
//! The reports are generation-only runs (Steps 1–3) with the benchmark's
//! paper configuration (template size `n`, degree `d`) when the file
//! corresponds to a Table 2/3 row, and default options otherwise, with
//! timings zeroed through `SynthesisReport::canonical()` — so the bytes pin
//! `|S|`, unknown counts, stage structure, diagnostics and the JSON writer
//! itself across refactors. Three solved reports sit next to them: the weak
//! solve of `programs/inc.poly` (`solve/inc.json`), a weak solve of it with
//! an unprovable target, on which the penalty fallback runs
//! (`solve/inc_fallback.json`), and the validated report of
//! `programs/freire1.poly` (`validate/freire1.json`).
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! POLYINV_REGEN_GOLDEN=1 cargo test --release -p polyinv-bench --test golden_reports
//! ```

use std::path::PathBuf;

use polyinv_api::{Engine, SynthesisRequest};
use polyinv_bench::options_for;

fn workspace_path(relative: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(relative)
}

fn golden_report_json(engine: &Engine, path: &PathBuf) -> String {
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .expect("utf-8 stem")
        .to_string();
    let source = std::fs::read_to_string(path).expect("readable program");
    let mut request = SynthesisRequest::generate_only(source).with_id(stem.clone());
    if let Some(benchmark) = polyinv_benchmarks::by_name(&stem.replace('_', "-")) {
        request = request.with_options(options_for(&benchmark));
    }
    let report = engine
        .run(&request)
        .unwrap_or_else(|e| panic!("{stem}: generation failed: {e}"))
        .canonical();
    let mut text = report.to_json().pretty();
    text.push('\n');
    text
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "generation over all 29 scenarios is slow unoptimized; run with `cargo test --release`"
)]
fn golden_reports_are_byte_stable() {
    let regen = std::env::var("POLYINV_REGEN_GOLDEN").is_ok_and(|v| v == "1");
    let golden_dir = workspace_path("tests/golden");
    if regen {
        std::fs::create_dir_all(&golden_dir).expect("create golden dir");
    }

    let mut programs: Vec<PathBuf> = std::fs::read_dir(workspace_path("programs"))
        .expect("programs/ exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("poly"))
        .collect();
    programs.sort();
    assert!(programs.len() >= 29, "expected ≥ 29 programs");

    let engine = Engine::new();
    let mut mismatches = Vec::new();
    for path in &programs {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap();
        let actual = golden_report_json(&engine, path);
        let golden_path = golden_dir.join(format!("{stem}.json"));
        if regen {
            std::fs::write(&golden_path, &actual).expect("write golden");
            continue;
        }
        let expected = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot {} ({e}); regenerate with POLYINV_REGEN_GOLDEN=1",
                golden_path.display()
            )
        });
        if actual != expected {
            mismatches.push(stem.to_string());
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden reports changed for {mismatches:?}; if intentional, regenerate with \
         POLYINV_REGEN_GOLDEN=1 cargo test --release -p polyinv-bench --test golden_reports"
    );
}

#[test]
fn golden_snapshots_parse_as_reports() {
    // Cheap structural guard that runs in debug too: every committed golden
    // parses back into a SynthesisReport with generation metrics.
    let golden_dir = workspace_path("tests/golden");
    let mut count = 0;
    for entry in std::fs::read_dir(&golden_dir).expect("tests/golden exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable golden");
        let report = polyinv_api::SynthesisReport::from_json_str(&text)
            .unwrap_or_else(|e| panic!("{} is not a report: {e}", path.display()));
        assert!(report.system_size > 0, "{}: empty system", path.display());
        assert_eq!(report.status, polyinv_api::ReportStatus::Generated);
        count += 1;
    }
    assert!(count >= 29, "expected ≥ 29 golden snapshots, found {count}");
}

/// Compares a solved report's canonical JSON with the golden file at
/// `relative` (or rewrites it under `POLYINV_REGEN_GOLDEN=1`).
fn assert_matches_golden(relative: &str, report: polyinv_api::SynthesisReport) {
    let mut actual = report.canonical().to_json().pretty();
    actual.push('\n');
    let golden_path = workspace_path(relative);
    if std::env::var("POLYINV_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(golden_path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&golden_path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {relative} ({e}); regenerate with POLYINV_REGEN_GOLDEN=1")
    });
    assert!(
        actual == expected,
        "{relative} changed:\n{actual}\nif intentional, regenerate with \
         POLYINV_REGEN_GOLDEN=1 cargo test -p polyinv-bench --test golden_reports"
    );
}

#[test]
fn solve_blocks_are_byte_stable() {
    // The generation-only goldens carry `null` solver, presolve and
    // orchestrator blocks; this one pins their JSON on a real weak solve —
    // the request of the CLI's `synth programs/inc.poly --target "x + 1 > 0"
    // --degree 1 --canonical`, whose output it equals byte for byte.
    let source =
        std::fs::read_to_string(workspace_path("programs/inc.poly")).expect("readable program");
    let request = SynthesisRequest::weak(source)
        .with_id("programs/inc.poly")
        .with_target("x + 1 > 0")
        .with_degree(1);
    let report = Engine::new().run(&request).expect("weak synthesis runs");
    assert_matches_golden("tests/golden/solve/inc.json", report);
}

#[test]
fn fallback_solves_are_byte_stable() {
    // The canonical `polyinv synth programs/inc.poly --target "x - 1000 > 0"
    // --degree 1 --upsilon 0`: no point certifies the target, so the LM
    // lane's polished point fails its certificate, the penalty fallback
    // runs, wins `pick_winner` and is polished and certified in turn.
    let source =
        std::fs::read_to_string(workspace_path("programs/inc.poly")).expect("readable program");
    let request = SynthesisRequest::weak(source)
        .with_id("programs/inc.poly")
        .with_target("x - 1000 > 0")
        .with_degree(1)
        .with_upsilon(0);
    let report = Engine::new().run(&request).expect("weak synthesis runs");
    assert_matches_golden("tests/golden/solve/inc_fallback.json", report);
}

#[test]
fn validated_reports_are_byte_stable() {
    // The canonical `polyinv validate programs/freire1.poly --target
    // "a_in + 2 - ret > 0"` report: the weak solve's blocks plus the
    // `validate` record of its trace falsification and certificate.
    let source =
        std::fs::read_to_string(workspace_path("programs/freire1.poly")).expect("readable program");
    let request = SynthesisRequest::weak(source)
        .with_id("programs/freire1.poly")
        .with_target("a_in + 2 - ret > 0");
    let config = polyinv_validate::ValidationConfig::default();
    let report = polyinv_validate::run_validated(&Engine::new(), &request, &config)
        .expect("validated synthesis runs");
    assert_matches_golden("tests/golden/validate/freire1.json", report);
}

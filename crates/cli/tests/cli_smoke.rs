//! Smoke tests driving the compiled `polyinv` binary end-to-end via
//! `std::process::Command`, on the program sources under `programs/`.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use polyinv_api::Json;

fn polyinv(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_polyinv"))
        .args(args)
        .output()
        .expect("the polyinv binary runs")
}

fn program(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../programs")
        .join(name);
    path.to_str().expect("utf-8 path").to_string()
}

fn stdout_json(output: &Output) -> Json {
    let text = String::from_utf8(output.stdout.clone()).expect("utf-8 stdout");
    Json::parse(&text).unwrap_or_else(|error| panic!("invalid JSON output: {error}\n{text}"))
}

#[test]
fn parse_reports_the_program_shape_as_json() {
    let output = polyinv(&["parse", &program("running_example.poly"), "--json"]);
    assert!(output.status.success(), "exit: {:?}", output.status);
    let doc = stdout_json(&output);
    let functions = doc.get("functions").unwrap().as_array().unwrap();
    assert_eq!(functions.len(), 1);
    assert_eq!(functions[0].get("name").unwrap().as_str(), Some("sum"));
    assert_eq!(functions[0].get("labels").unwrap().as_usize(), Some(9));
    assert_eq!(doc.get("recursive").unwrap().as_bool(), Some(false));
}

#[test]
fn synth_generate_only_emits_a_machine_readable_report() {
    let output = polyinv(&[
        "synth",
        &program("running_example.poly"),
        "--generate-only",
        "--json",
    ]);
    assert!(output.status.success(), "exit: {:?}", output.status);
    let doc = stdout_json(&output);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("generated"));
    assert!(doc.get("system_size").unwrap().as_usize().unwrap() > 500);
    // Per-stage timings are present for every generation stage.
    let timings = doc.get("timings").unwrap().as_object().unwrap();
    let stages: Vec<&str> = timings.iter().map(|(stage, _)| stage.as_str()).collect();
    assert_eq!(stages, vec!["templates", "pairs", "reduction"]);
}

#[test]
fn a_closed_stdout_is_not_a_panic() {
    // `polyinv … | head` closes the pipe before the report is written: the
    // command keeps its own exit code instead of panicking on the write.
    let mut child = Command::new(env!("CARGO_BIN_EXE_polyinv"))
        .args([
            "synth",
            &program("inc.poly"),
            "--target",
            "x + 1 > 0",
            "--degree",
            "1",
            "--json",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the polyinv binary runs");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("the polyinv binary exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn parse_errors_exit_3_with_a_span() {
    let dir = std::env::temp_dir().join("polyinv-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.poly");
    std::fs::write(&path, "inc(x) {\n    x : 1\n}\n").unwrap();
    let output = polyinv(&["parse", path.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(3));
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("line 2"), "stderr: {stderr}");
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    let output = polyinv(&["synth", &program("inc.poly"), "--loqo"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("USAGE"), "stderr: {stderr}");
    // And so do missing files, but with the input-error code.
    let output = polyinv(&["synth", "no-such-file.poly"]);
    assert_eq!(output.status.code(), Some(3));
}

#[test]
fn check_certifies_the_trivial_invariant() {
    let output = polyinv(&[
        "check",
        &program("inc.poly"),
        "--invariant",
        "1 > 0",
        "--json",
    ]);
    assert!(output.status.success(), "exit: {:?}", output.status);
    let doc = stdout_json(&output);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("certified"));
    let total = doc.get("pairs_total").unwrap().as_usize().unwrap();
    assert_eq!(doc.get("pairs_certified").unwrap().as_usize(), Some(total));
}

#[test]
fn check_honours_upsilon() {
    // `y + 1 > 0` at l1 needs a degree-2 multiplier for `x²`.
    let dir = std::env::temp_dir().join("polyinv-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sq.poly");
    std::fs::write(
        &path,
        "sq(x) {\n    @pre(x >= 0);\n    y := x * x;\n    return y\n}\n",
    )
    .unwrap();
    let check = |extra: &[&str]| {
        let mut args = vec![
            "check",
            path.to_str().unwrap(),
            "--invariant-at",
            "1",
            "y + 1 > 0",
            "--invariant",
            "y + 2 > 0",
        ];
        args.extend_from_slice(extra);
        polyinv(&args).status.code()
    };
    assert_eq!(check(&[]), Some(0));
    assert_eq!(check(&["--upsilon", "0"]), Some(1));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "drives a full weak synthesis; run with `cargo test --release`"
)]
fn synth_closes_the_bounded_counter_and_batch_runs_it_four_times() {
    // Full weak synthesis through the binary.
    let output = polyinv(&[
        "synth",
        &program("inc.poly"),
        "--target",
        "x + 1 > 0",
        "--degree",
        "1",
        "--json",
    ]);
    assert!(output.status.success(), "exit: {:?}", output.status);
    let doc = stdout_json(&output);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("synthesized"));
    assert!(!doc
        .get("invariants")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());
    assert!(doc.get("timings").unwrap().get("solve").is_some());
    // Presolve ran and never grows the system.
    let presolve = doc.get("presolve").expect("weak reports carry presolve");
    let before = presolve.get("size_before").unwrap().as_usize().unwrap();
    let after = presolve.get("size_after").unwrap().as_usize().unwrap();
    assert!(after <= before, "presolve grew |S|: {before} -> {after}");

    // `--no-presolve` drops the block and still synthesizes.
    let output = polyinv(&[
        "synth",
        &program("inc.poly"),
        "--target",
        "x + 1 > 0",
        "--degree",
        "1",
        "--no-presolve",
        "--json",
    ]);
    assert!(output.status.success(), "exit: {:?}", output.status);
    let doc = stdout_json(&output);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("synthesized"));
    assert!(doc.get("presolve").is_none() || doc.get("presolve") == Some(&Json::Null));

    // The same request four times over, through `polyinv batch`.
    let source = std::fs::read_to_string(program("inc.poly")).unwrap();
    let requests: Vec<Json> = (0..4)
        .map(|k| {
            polyinv_api::SynthesisRequest::weak(source.clone())
                .with_id(format!("inc-{k}"))
                .with_degree(1)
                .with_target("x + 1 > 0")
                .to_json()
        })
        .collect();
    let dir = std::env::temp_dir().join("polyinv-cli-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let batch_path = dir.join("batch.json");
    std::fs::write(&batch_path, Json::Array(requests).to_string()).unwrap();
    let output = polyinv(&["batch", batch_path.to_str().unwrap(), "--json"]);
    assert!(output.status.success(), "exit: {:?}", output.status);
    let doc = stdout_json(&output);
    let entries = doc.as_array().unwrap();
    assert_eq!(entries.len(), 4);
    for (k, entry) in entries.iter().enumerate() {
        let report = entry.get("ok").expect("every entry succeeded");
        assert_eq!(
            report.get("id").unwrap().as_str(),
            Some(format!("inc-{k}").as_str())
        );
        assert_eq!(report.get("status").unwrap().as_str(), Some("synthesized"));
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "drives synthesis + validation; run with `cargo test --release`"
)]
fn validate_closes_and_validates_the_bounded_counter() {
    let output = polyinv(&[
        "validate",
        &program("inc.poly"),
        "--target",
        "x + 1 > 0",
        "--degree",
        "1",
        "--trace-runs",
        "300",
        "--json",
    ]);
    assert!(output.status.success(), "exit: {:?}", output.status);
    let doc = stdout_json(&output);
    assert_eq!(doc.get("status").unwrap().as_str(), Some("synthesized"));
    let record = doc.get("validate").expect("validate block present");
    assert_eq!(record.get("passed").unwrap().as_bool(), Some(true));
    assert_eq!(record.get("trace_runs").unwrap().as_usize(), Some(300));
    assert_eq!(record.get("trace_violations").unwrap().as_usize(), Some(0));
    let exact = record.get("exact").expect("exact re-check ran");
    assert_eq!(exact.get("passed").unwrap().as_bool(), Some(true));
    assert!(exact
        .get("worst_violation")
        .unwrap()
        .as_str()
        .unwrap()
        .contains('/'));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "drives synthesis + validation; run with `cargo test --release`"
)]
fn fuzz_smoke_runs_clean_and_writes_artifacts_only_on_failure() {
    let dir = std::env::temp_dir().join("polyinv-cli-smoke-fuzz");
    let _ = std::fs::remove_dir_all(&dir);
    let output = polyinv(&[
        "fuzz",
        "--seed",
        "7",
        "--count",
        "5",
        "--trace-runs",
        "200",
        "--artifacts",
        dir.to_str().unwrap(),
        "--json",
    ]);
    assert!(output.status.success(), "exit: {:?}", output.status);
    let doc = stdout_json(&output);
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("polyinv-fuzz/v1"));
    assert_eq!(doc.get("passed").unwrap().as_bool(), Some(true));
    assert_eq!(doc.get("cases").unwrap().as_usize(), Some(5));
    assert!(doc.get("failures").unwrap().as_array().unwrap().is_empty());
    // No failures → no artifact files.
    let artifacts = std::fs::read_dir(&dir)
        .map(|entries| entries.count())
        .unwrap_or(0);
    assert_eq!(artifacts, 0);
}

#[test]
fn fuzz_rejects_an_input_file_with_usage() {
    let output = polyinv(&["fuzz", &program("inc.poly")]);
    assert_eq!(output.status.code(), Some(2));
}

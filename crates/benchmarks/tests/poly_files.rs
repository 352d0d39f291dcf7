//! Every program under `programs/` parses.
//!
//! The Table 2/3 benchmarks embed their `.poly` files at compile time (a
//! missing file fails the build); the files double as fuzzer seeds and CLI
//! scenarios, and the directory also holds non-benchmark scenarios.

use std::path::PathBuf;

use polyinv_lang::parse_program;

fn programs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../programs")
}

#[test]
fn every_poly_file_parses() {
    // Includes the non-benchmark scenarios (inc, running_example).
    let mut count = 0;
    for entry in std::fs::read_dir(programs_dir()).expect("programs/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("poly") {
            continue;
        }
        let source = std::fs::read_to_string(&path).expect("readable file");
        parse_program(&source).unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        count += 1;
    }
    // 27 benchmarks + inc + running_example.
    assert!(
        count >= 29,
        "expected at least 29 .poly files, found {count}"
    );
}

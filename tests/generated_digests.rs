//! Digests of the generated quadratic systems: one line per Table 2/3 row
//! and ϒ-ladder rung with `|S|`, the unknown count and an FNV-1a digest over
//! the `Debug` form of every equality, inequality and registry kind, in
//! order — compared against `tests/golden/generated_digests.txt`.
//!
//! The canonical reports pin only the sizes; these lines pin the rows
//! themselves (unknown ids, term order, coefficients), so any change to
//! what Steps 1–3 emit shows up here. The generated system must not depend
//! on the thread count, so run this test at several `POLYINV_THREADS`
//! values (each in its own process; the environment is process-global):
//!
//! ```text
//! POLYINV_THREADS=1 cargo test --release -p polyinv-bench --test generated_digests
//! POLYINV_THREADS=8 cargo test --release -p polyinv-bench --test generated_digests
//! ```
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! POLYINV_REGEN_GOLDEN=1 cargo test --release -p polyinv-bench --test generated_digests
//! ```

use std::fmt::{self, Write as _};
use std::path::PathBuf;

use polyinv_bench::options_for;
use polyinv_constraints::generate;

/// A streaming 64-bit FNV-1a hasher behind `fmt::Write`, so a `Debug` form
/// is hashed without being materialized.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        for byte in text.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest_lines() -> String {
    let mut lines = String::new();
    for benchmark in polyinv_benchmarks::all() {
        let program = benchmark.program().expect("row parses");
        let pre = benchmark.precondition().expect("row pre-condition parses");
        let options = options_for(&benchmark);
        for upsilon in options.upsilon_ladder() {
            let generated = generate(&program, &pre, &options.clone().with_upsilon(upsilon))
                .unwrap_or_else(|e| panic!("{} at ϒ = {upsilon}: {e}", benchmark.name));
            let system = &generated.system;
            let mut fnv = Fnv::new();
            for row in system.equalities.iter().chain(&system.inequalities) {
                write!(fnv, "{row:?};").expect("hashing never fails");
            }
            for (_, kind) in system.registry.iter() {
                write!(fnv, "{kind:?};").expect("hashing never fails");
            }
            writeln!(
                lines,
                "{} upsilon={upsilon} size={} unknowns={} digest={:016x}",
                benchmark.name,
                system.size(),
                system.num_unknowns(),
                fnv.0
            )
            .expect("writing to a String never fails");
        }
    }
    lines
}

#[test]
fn generated_systems_match_their_digests() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("tests/golden/generated_digests.txt");
    let actual = digest_lines();
    if std::env::var("POLYINV_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with POLYINV_REGEN_GOLDEN=1",
            path.display()
        )
    });
    let changed: Vec<&str> = actual
        .lines()
        .zip(expected.lines())
        .filter(|(a, e)| a != e)
        .map(|(a, _)| a)
        .collect();
    assert!(
        actual == expected,
        "generated systems changed: {changed:?}; if intentional, regenerate with \
         POLYINV_REGEN_GOLDEN=1 cargo test --release -p polyinv-bench --test generated_digests"
    );
}

//! The benchmark suite of the paper's evaluation (Tables 2 and 3), with the
//! paper-reported metadata used by the reproduction harness.
//!
//! Each [`Benchmark`] bundles a program in the mini-language, its synthesis
//! configuration (template size `n` and degree `d`), the numbers reported in
//! the paper (`|V|`, `|S|`, runtime) and, where applicable, a target
//! assertion at the endpoint of the main function.
//!
//! # Example
//!
//! ```
//! use polyinv_benchmarks::{table2, table3};
//!
//! assert_eq!(table2().len(), 19);
//! assert_eq!(table3().len(), 8);
//! let sqrt = table2().into_iter().find(|b| b.name == "sqrt").unwrap();
//! let program = sqrt.program()?;
//! assert_eq!(program.main().name(), "sqrt");
//! # Ok::<(), polyinv_lang::Error>(())
//! ```
//!
//! # The programs
//!
//! Each source is the repository's `programs/<name>.poly` file (hyphens in
//! the row name become underscores), embedded at compile time, so the CLI,
//! the fuzzer seeds and the harness read one copy. They are written in the
//! mini-language of Figure 5:
//!
//! * Table 2: the non-recursive programs of the Rodríguez-Carbonell
//!   collection ("some programs that need polynomial invariants in order to
//!   be verified"). The loop structure and variable counts follow the
//!   published descriptions of these classical algorithms; branching on data
//!   we cannot express (e.g. array contents) is replaced by non-determinism,
//!   exactly as the paper does for merge-sort.
//! * Table 3: the recursive benchmarks of Appendix B.2 plus synthetic
//!   stand-ins for the three reinforcement-learning controllers of Zhu et
//!   al. 2019 (see DESIGN.md §4 — the relevant behaviour is a polynomial
//!   plant of degree ≤ 4 with a linear safety envelope).

use polyinv_lang::{parse_assertion, parse_program, Error, Precondition, Program};
use polyinv_poly::Polynomial;

/// Which table of the paper a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Table 2: non-recursive programs from the Rodríguez-Carbonell
    /// collection.
    NonRecursive,
    /// Table 3, first block: reinforcement-learning controllers
    /// (Zhu et al. 2019).
    ReinforcementLearning,
    /// Table 3, second block: classical recursive examples (Appendix B.2).
    Recursive,
}

/// The numbers reported by the paper for one benchmark row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// Template size `n` (number of conjuncts per label).
    pub n: usize,
    /// Template degree `d`.
    pub d: u32,
    /// Number of program variables `|V|`.
    pub vars: usize,
    /// Size `|S|` of the generated quadratic system.
    pub system_size: usize,
    /// Reported runtime in seconds.
    pub runtime_secs: f64,
}

/// One benchmark of the evaluation.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// The row name used in the paper.
    pub name: &'static str,
    /// Which table/block the benchmark belongs to.
    pub category: Category,
    /// The program source in the mini-language (`programs/<name>.poly`).
    pub source: &'static str,
    /// The numbers reported in the paper.
    pub paper: PaperRow,
    /// A target assertion (comparison over the main function's variables,
    /// `ret` and `*_in` shadows) required at the endpoint label, if the
    /// benchmark has a natural inequality target.
    pub target: Option<&'static str>,
}

impl Benchmark {
    /// Parses and resolves the benchmark program.
    ///
    /// # Errors
    ///
    /// Returns an error if the embedded source fails to parse (a bug caught
    /// by the crate's tests).
    pub fn program(&self) -> Result<Program, Error> {
        parse_program(self.source)
    }

    /// The pre-condition of the benchmark (from its `@pre` annotations plus
    /// the implicit entry assertions).
    ///
    /// # Errors
    ///
    /// Returns an error if the program fails to parse.
    pub fn precondition(&self) -> Result<Precondition, Error> {
        Ok(Precondition::from_program(&self.program()?))
    }

    /// The target assertion parsed against `program`, if any.
    ///
    /// # Errors
    ///
    /// Returns an error if the target text does not parse in the scope of
    /// the main function.
    pub fn target_polynomial(&self, program: &Program) -> Result<Option<Polynomial>, Error> {
        match self.target {
            None => Ok(None),
            Some(text) => {
                let (poly, _) = parse_assertion(program, program.main().name(), text)?;
                Ok(Some(poly))
            }
        }
    }
}

/// The 19 non-recursive benchmarks of Table 2.
pub fn table2() -> Vec<Benchmark> {
    let row = |n, d, vars, system_size, runtime_secs| PaperRow {
        n,
        d,
        vars,
        system_size,
        runtime_secs,
    };
    vec![
        Benchmark {
            name: "cohendiv",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/cohendiv.poly"),
            paper: row(1, 1, 6, 622, 15.236),
            target: Some("x_in + 1 - ret * y_in > 0"),
        },
        Benchmark {
            name: "divbin",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/divbin.poly"),
            paper: row(1, 1, 5, 738, 5.399),
            target: Some("x_in + 1 - ret * y_in > 0"),
        },
        Benchmark {
            name: "hard",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/hard.poly"),
            paper: row(1, 2, 6, 8324, 27.952),
            target: Some("x_in + 1 - ret * d_in > 0"),
        },
        Benchmark {
            name: "mannadiv",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/mannadiv.poly"),
            paper: row(1, 2, 5, 2561, 18.222),
            target: Some("x1_in + 1 - ret * x2_in > 0"),
        },
        Benchmark {
            name: "wensely",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/wensely.poly"),
            paper: row(1, 2, 7, 9422, 20.051),
            target: Some("q_in + 1 - ret * q_in > 0"),
        },
        Benchmark {
            name: "sqrt",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/sqrt.poly"),
            paper: row(1, 2, 4, 2030, 5.808),
            target: Some("n_in + 1 - ret * ret > 0"),
        },
        Benchmark {
            name: "dijkstra",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/dijkstra.poly"),
            paper: row(1, 2, 5, 5072, 12.776),
            target: Some("n_in + 1 - ret * ret > 0"),
        },
        Benchmark {
            name: "z3sqrt",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/z3sqrt.poly"),
            paper: row(1, 2, 6, 4692, 12.944),
            target: Some("x_in + 1 - ret > 0"),
        },
        Benchmark {
            name: "freire1",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/freire1.poly"),
            paper: row(1, 2, 3, 1210, 26.474),
            target: Some("a_in + 2 - ret > 0"),
        },
        Benchmark {
            name: "freire2",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/freire2.poly"),
            paper: row(1, 2, 4, 1016, 10.670),
            target: Some("a_in + 4 - ret > 0"),
        },
        Benchmark {
            name: "euclidex1",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/euclidex1.poly"),
            paper: row(1, 2, 11, 11191, 97.493),
            target: Some("x_in + y_in + 1 - ret > 0"),
        },
        Benchmark {
            name: "euclidex2",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/euclidex2.poly"),
            paper: row(1, 2, 8, 11156, 39.323),
            target: Some("x_in + y_in + 1 - ret > 0"),
        },
        Benchmark {
            name: "euclidex3",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/euclidex3.poly"),
            paper: row(1, 2, 13, 36228, 203.110),
            target: Some("x_in + y_in + 1 - ret > 0"),
        },
        Benchmark {
            name: "lcm1",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/lcm1.poly"),
            paper: row(1, 2, 6, 6589, 17.851),
            target: Some("a_in * b_in + 1 - ret > 0"),
        },
        Benchmark {
            name: "lcm2",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/lcm2.poly"),
            paper: row(1, 2, 6, 6176, 18.714),
            target: Some("a_in * b_in + 1 - ret > 0"),
        },
        Benchmark {
            name: "prodbin",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/prodbin.poly"),
            paper: row(1, 2, 5, 5038, 12.125),
            target: Some("a_in * b_in + 1 - ret > 0"),
        },
        Benchmark {
            name: "prod4br",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/prod4br.poly"),
            paper: row(1, 2, 6, 10522, 43.205),
            target: Some("x_in * y_in + 1 - ret > 0"),
        },
        Benchmark {
            name: "cohencu",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/cohencu.poly"),
            paper: row(1, 2, 5, 3424, 11.778),
            target: Some("ret + 1 > 0"),
        },
        Benchmark {
            name: "petter",
            category: Category::NonRecursive,
            source: include_str!("../../../programs/petter.poly"),
            paper: row(1, 2, 3, 1080, 20.390),
            target: Some("ret + 1 > 0"),
        },
    ]
}

/// The 8 recursive / reinforcement-learning benchmarks of Table 3.
pub fn table3() -> Vec<Benchmark> {
    let row = |n, d, vars, system_size, runtime_secs| PaperRow {
        n,
        d,
        vars,
        system_size,
        runtime_secs,
    };
    vec![
        Benchmark {
            name: "inverted-pendulum",
            category: Category::ReinforcementLearning,
            source: include_str!("../../../programs/inverted_pendulum.poly"),
            paper: row(1, 3, 7, 9951, 496.093),
            target: Some("2 - ret > 0"),
        },
        Benchmark {
            name: "strict-inverted-pendulum",
            category: Category::ReinforcementLearning,
            source: include_str!("../../../programs/strict_inverted_pendulum.poly"),
            paper: row(4, 2, 7, 14390, 587.783),
            target: Some("2 - ret > 0"),
        },
        Benchmark {
            name: "oscillator",
            category: Category::ReinforcementLearning,
            source: include_str!("../../../programs/oscillator.poly"),
            paper: row(1, 2, 7, 3552, 39.749),
            target: Some("2 - ret > 0"),
        },
        Benchmark {
            name: "recursive-sum",
            category: Category::Recursive,
            source: include_str!("../../../programs/recursive_sum.poly"),
            paper: row(1, 2, 3, 1700, 10.919),
            target: Some("0.5 * n_in * n_in + 0.5 * n_in + 1 - ret > 0"),
        },
        Benchmark {
            name: "recursive-square-sum",
            category: Category::Recursive,
            source: include_str!("../../../programs/recursive_square_sum.poly"),
            paper: row(1, 3, 3, 1121, 17.438),
            target: Some(
                "0.34 * n_in * n_in * n_in + 0.5 * n_in * n_in + 0.17 * n_in + 1 - ret > 0",
            ),
        },
        Benchmark {
            name: "recursive-cube-sum",
            category: Category::Recursive,
            source: include_str!("../../../programs/recursive_cube_sum.poly"),
            paper: row(1, 4, 3, 15840, 221.211),
            target: Some("0.25 * n_in * n_in * (n_in + 1) * (n_in + 1) + 1 - ret > 0"),
        },
        Benchmark {
            name: "pw2",
            category: Category::Recursive,
            source: include_str!("../../../programs/pw2.poly"),
            paper: row(2, 1, 3, 430, 5.438),
            target: Some("x_in + 1 - ret > 0"),
        },
        Benchmark {
            name: "merge-sort",
            category: Category::Recursive,
            source: include_str!("../../../programs/merge_sort.poly"),
            paper: row(1, 2, 13, 33002, 78.093),
            target: Some("0.5 * (e_in - s_in) * (e_in - s_in + 1) + 1 - ret > 0"),
        },
    ]
}

/// All benchmarks (Table 2 followed by Table 3).
pub fn all() -> Vec<Benchmark> {
    let mut benchmarks = table2();
    benchmarks.extend(table3());
    benchmarks
}

/// Looks up a benchmark by its paper row name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    all().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_sizes_match_the_paper() {
        assert_eq!(table2().len(), 19);
        assert_eq!(table3().len(), 8);
        assert_eq!(all().len(), 27);
    }

    #[test]
    fn every_benchmark_parses_and_targets_resolve() {
        for benchmark in all() {
            let program = benchmark
                .program()
                .unwrap_or_else(|e| panic!("{} fails to parse: {e}", benchmark.name));
            let target = benchmark
                .target_polynomial(&program)
                .unwrap_or_else(|e| panic!("{} target fails to resolve: {e}", benchmark.name));
            if benchmark.target.is_some() {
                assert!(target.is_some());
            }
            // The pre-condition always contains atoms at the entry label.
            let pre = benchmark.precondition().unwrap();
            assert!(!pre.get(program.main().entry_label()).is_empty());
        }
    }

    #[test]
    fn variable_counts_are_in_the_paper_ballpark() {
        // Our |V^f| counts the paper's program variables plus the shadow
        // parameters and the return variable (arity + 1 extra), plus at most
        // two helper temporaries where simultaneous updates had to be
        // sequentialized (e.g. the swaps in euclidex2).
        for benchmark in all() {
            let program = benchmark.program().unwrap();
            let ours = program.main().vars().len();
            let extra = program.main().params().len() + 1 + 2;
            assert!(
                ours <= benchmark.paper.vars + extra,
                "{}: ours {} vs paper {} (+{})",
                benchmark.name,
                ours,
                benchmark.paper.vars,
                extra
            );
        }
    }

    #[test]
    fn categories_partition_the_tables() {
        assert!(table2()
            .iter()
            .all(|b| b.category == Category::NonRecursive));
        assert_eq!(
            table3()
                .iter()
                .filter(|b| b.category == Category::ReinforcementLearning)
                .count(),
            3
        );
        assert_eq!(
            table3()
                .iter()
                .filter(|b| b.category == Category::Recursive)
                .count(),
            5
        );
        assert!(by_name("sqrt").is_some());
        assert!(by_name("nonexistent").is_none());
    }
}

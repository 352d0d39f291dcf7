//! The fuzz driver: generate → round-trip → synthesize → validate.
//!
//! Every case runs the full soundness loop on a freshly generated program:
//!
//! 1. the generated source must parse, and the pretty-printed program must
//!    re-parse to the same canonical form (pinning `Display` to the
//!    parser);
//! 2. weak synthesis runs with no targets (any feasible point of the
//!    quadratic system claims to be an inductive invariant);
//! 3. when the solver claims feasibility, the claim is attacked with trace
//!    falsification and the exact-rational re-check.
//!
//! A solver that fails to converge is *not* a violation (the guarantee is
//! one-directional); a feasible claim refuted by either check is. The
//! summary carries everything needed to reproduce a failing case: the seed,
//! the source and the minimized counterexample.

use polyinv::SolvePlan;
use polyinv_constraints::SynthesisOptions;
use polyinv_lang::{parse_program, Precondition};
use polyinv_qcqp::LmOptions;

use crate::generate::{generate_program, GenConfig};
use crate::{synthesize_and_validate, ValidationConfig, ValidationReport};

/// Configuration of a fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base seed: case `k` is generated from `seed + k`.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub count: usize,
    /// Program-generator bounds.
    pub gen: GenConfig,
    /// Reduction options of the synthesis attempt. The default keeps the
    /// systems small (degree 1, one conjunct, constant multipliers) so a
    /// 200-case smoke run finishes in CI time.
    pub options: SynthesisOptions,
    /// Validation settings for feasible claims.
    pub validation: ValidationConfig,
    /// Solver settings of the synthesis attempt.
    pub solver: LmOptions,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            count: 100,
            gen: GenConfig::default(),
            options: SynthesisOptions::with_degree_and_size(1, 1).with_upsilon(0),
            validation: ValidationConfig::default(),
            solver: LmOptions {
                max_iterations: 120,
                restarts: 2,
                ..LmOptions::default()
            },
        }
    }
}

/// The outcome of one fuzz case.
#[derive(Debug, Clone)]
pub enum CaseStatus {
    /// The printed program did not re-parse to the same canonical form.
    RoundTripMismatch {
        /// First print of the parsed program.
        printed: String,
        /// Print of the re-parsed program (differs).
        reprinted: String,
    },
    /// The constraint generator rejected the program (a generator bug —
    /// generated programs are well-formed by construction).
    GenerationError(String),
    /// The solver did not reach feasibility; nothing to validate.
    Unsolved {
        /// The solver's best violation.
        violation: f64,
    },
    /// Feasibility was claimed and survived both checks.
    Sound {
        /// Valid traces checked.
        trace_runs: usize,
        /// States checked across those traces.
        trace_states: usize,
        /// The exact re-check's worst violation (float rendering).
        exact_violation: f64,
    },
    /// Feasibility was claimed and refuted — a soundness violation.
    Violation(Box<ValidationReport>),
}

impl CaseStatus {
    /// `true` for outcomes that falsify the soundness guarantee (or the
    /// printer/parser agreement).
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            CaseStatus::Violation(_)
                | CaseStatus::RoundTripMismatch { .. }
                | CaseStatus::GenerationError(_)
        )
    }

    /// Stable one-word label for summaries.
    pub fn label(&self) -> &'static str {
        match self {
            CaseStatus::RoundTripMismatch { .. } => "round-trip-mismatch",
            CaseStatus::GenerationError(_) => "generation-error",
            CaseStatus::Unsolved { .. } => "unsolved",
            CaseStatus::Sound { .. } => "sound",
            CaseStatus::Violation(_) => "violation",
        }
    }
}

/// One fuzz case: the program and what happened to it.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Case index within the campaign.
    pub index: usize,
    /// The generation seed (reproduces the program exactly).
    pub seed: u64,
    /// The generated source.
    pub source: String,
    /// What happened.
    pub status: CaseStatus,
}

/// The result of a fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzSummary {
    /// Every case, in order.
    pub cases: Vec<FuzzCase>,
}

impl FuzzSummary {
    /// The failing cases (soundness violations, round-trip mismatches,
    /// generation errors).
    pub fn failures(&self) -> Vec<&FuzzCase> {
        self.cases
            .iter()
            .filter(|case| case.status.is_failure())
            .collect()
    }

    /// `true` when no case failed.
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }

    /// Number of cases with a given status label.
    pub fn count(&self, label: &str) -> usize {
        self.cases
            .iter()
            .filter(|case| case.status.label() == label)
            .count()
    }
}

/// Runs one fuzz case (exposed so the CLI can parallelize / stream).
pub fn run_case(index: usize, config: &FuzzConfig) -> FuzzCase {
    let seed = config.seed.wrapping_add(index as u64);
    let generated = generate_program(seed, &config.gen);
    let source = generated.source;
    let status = check_case(&source, config);
    FuzzCase {
        index,
        seed,
        source,
        status,
    }
}

fn check_case(source: &str, config: &FuzzConfig) -> CaseStatus {
    // Generated programs are well-formed by construction; a parse error
    // here is a generator bug and panics loudly with the source.
    let program = parse_program(source)
        .unwrap_or_else(|e| panic!("generated program does not parse: {e}\n{source}"));

    // 1. Printer/parser agreement.
    let printed = program.to_string();
    let reparsed = match parse_program(&printed) {
        Ok(reparsed) => reparsed,
        Err(error) => {
            return CaseStatus::RoundTripMismatch {
                printed,
                reprinted: format!("(does not parse: {error})"),
            }
        }
    };
    let reprinted = reparsed.to_string();
    if printed != reprinted {
        return CaseStatus::RoundTripMismatch { printed, reprinted };
    }

    // 2. Synthesis with no targets: any feasible point claims soundness.
    // The fuzz loop keeps the orchestrator lean — the configured LM lane
    // only, no polish — so a campaign's cost profile matches the old
    // single-solver loop; the point is attacking claims, not winning
    // certificates.
    let pre = Precondition::from_program(&program);
    let mut plan = SolvePlan::new(config.options.clone());
    plan.lm = config.solver.clone();
    plan.penalty = None;
    plan.polish_rounds = 0;
    let (outcome, validation) =
        match synthesize_and_validate(&program, &pre, &[], &plan, &config.validation) {
            Ok(result) => result,
            Err(error) => return CaseStatus::GenerationError(error.to_string()),
        };
    if !outcome.feasible {
        return CaseStatus::Unsolved {
            violation: outcome.violation,
        };
    }

    // 3. The claim was validated inside synthesize_and_validate.
    let validation = validation.expect("feasible outcomes validate");
    if validation.sound() {
        CaseStatus::Sound {
            trace_runs: validation.trace.valid_runs,
            trace_states: validation.trace.states_checked,
            exact_violation: validation.exact.worst_violation.to_f64(),
        }
    } else {
        CaseStatus::Violation(Box::new(validation))
    }
}

impl FuzzCase {
    /// Serializes the case — including the source and, for violations, the
    /// full counterexample — as a JSON object (the CI artifact format).
    pub fn to_json(&self) -> polyinv_api::Json {
        use polyinv_api::Json;
        let mut fields = vec![
            ("index".to_string(), Json::Number(self.index as f64)),
            ("seed".to_string(), Json::string(self.seed.to_string())),
            ("status".to_string(), Json::string(self.status.label())),
            ("source".to_string(), Json::string(self.source.clone())),
        ];
        match &self.status {
            CaseStatus::RoundTripMismatch { printed, reprinted } => {
                fields.push(("printed".to_string(), Json::string(printed.clone())));
                fields.push(("reprinted".to_string(), Json::string(reprinted.clone())));
            }
            CaseStatus::GenerationError(message) => {
                fields.push(("error".to_string(), Json::string(message.clone())));
            }
            CaseStatus::Unsolved { violation } => {
                fields.push(("violation".to_string(), Json::Number(*violation)));
            }
            CaseStatus::Sound {
                trace_runs,
                trace_states,
                exact_violation,
            } => {
                fields.push(("trace_runs".to_string(), Json::Number(*trace_runs as f64)));
                fields.push((
                    "trace_states".to_string(),
                    Json::Number(*trace_states as f64),
                ));
                fields.push((
                    "exact_violation".to_string(),
                    Json::Number(*exact_violation),
                ));
            }
            CaseStatus::Violation(report) => {
                fields.push(("validation".to_string(), report.to_json()));
            }
        }
        Json::Object(fields)
    }
}

impl FuzzSummary {
    /// Serializes the campaign: per-status counts plus the failing cases in
    /// full (sound/unsolved cases are summarized by count only).
    pub fn to_json(&self) -> polyinv_api::Json {
        use polyinv_api::Json;
        let counts = Json::object(
            [
                "sound",
                "unsolved",
                "violation",
                "round-trip-mismatch",
                "generation-error",
            ]
            .iter()
            .map(|&label| (label, Json::Number(self.count(label) as f64)))
            .collect::<Vec<_>>(),
        );
        Json::object(vec![
            ("schema", Json::string("polyinv-fuzz/v1")),
            ("cases", Json::Number(self.cases.len() as f64)),
            ("passed", Json::Bool(self.passed())),
            ("counts", counts),
            (
                "failures",
                Json::Array(self.failures().iter().map(|case| case.to_json()).collect()),
            ),
        ])
    }
}

/// Runs a full fuzz campaign.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzSummary {
    let cases = (0..config.count)
        .map(|index| run_case(index, config))
        .collect();
    FuzzSummary { cases }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_cases_round_trip_without_solving() {
        // Solver-free slice of the fuzz loop: parse + print round-trip over
        // many generated programs (the solving path is exercised by the
        // release-mode e2e test below and the CI smoke job).
        let config = FuzzConfig::default();
        for index in 0..50 {
            let seed = config.seed.wrapping_add(index as u64);
            let generated = generate_program(seed, &config.gen);
            let program = parse_program(&generated.source).unwrap();
            let printed = program.to_string();
            let reparsed = parse_program(&printed)
                .unwrap_or_else(|e| panic!("round-trip failed: {e}\n{printed}"));
            assert_eq!(printed, reparsed.to_string(), "seed {seed}");
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; run with `cargo test --release`"
    )]
    fn small_fuzz_campaign_finds_no_soundness_violation() {
        let config = FuzzConfig {
            count: 10,
            validation: ValidationConfig {
                trace: crate::TraceCheckConfig {
                    runs: 200,
                    ..crate::TraceCheckConfig::default()
                },
            },
            ..FuzzConfig::default()
        };
        let summary = run_fuzz(&config);
        assert_eq!(summary.cases.len(), 10);
        assert!(
            summary.passed(),
            "failures: {:?}",
            summary
                .failures()
                .iter()
                .map(|c| (c.seed, c.status.label()))
                .collect::<Vec<_>>()
        );
        // The cheap configuration should solve at least some cases, so the
        // soundness loop actually runs.
        assert!(summary.count("sound") > 0, "no case reached validation");
    }
}

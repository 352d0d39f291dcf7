//! The serializable request side of the API.

use polyinv_arith::{Rational, RationalError};
use polyinv_constraints::SynthesisOptions;

use crate::error::ApiError;
use crate::json::Json;

/// What the Engine should do with a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `WeakInvSynth` / `RecWeakInvSynth`: synthesize one inductive
    /// invariant containing the request's target assertions.
    Weak,
    /// `StrongInvSynth` / `RecStrongInvSynth`: enumerate a representative
    /// set of distinct inductive invariants.
    Strong,
    /// Certify a *given* candidate invariant (the request's assertions) by
    /// searching for the sum-of-squares certificate of every constraint
    /// pair.
    Check,
    /// Run Steps 1–3 only and report the generated system's metrics.
    GenerateOnly,
}

impl Mode {
    /// The stable string form used in JSON and on the CLI.
    pub fn as_str(&self) -> &'static str {
        match self {
            Mode::Weak => "weak",
            Mode::Strong => "strong",
            Mode::Check => "check",
            Mode::GenerateOnly => "generate-only",
        }
    }
}

impl std::str::FromStr for Mode {
    type Err = ApiError;

    fn from_str(text: &str) -> Result<Mode, ApiError> {
        match text {
            "weak" => Ok(Mode::Weak),
            "strong" => Ok(Mode::Strong),
            "check" => Ok(Mode::Check),
            "generate-only" => Ok(Mode::GenerateOnly),
            other => Err(ApiError::InvalidRequest {
                message: format!(
                    "unknown mode `{other}` (expected weak|strong|check|generate-only)"
                ),
            }),
        }
    }
}

/// A polynomial assertion (`text` parses to `p > 0` / `p ≥ 0`) attached to a
/// program point.
///
/// In [`Mode::Weak`] these are the target assertions the synthesized
/// invariant must contain; in [`Mode::Check`] they form the candidate
/// invariant (and, via [`AssertionSpec::postcondition`], the candidate
/// post-conditions of recursive programs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssertionSpec {
    /// Index into the main function's label list; `None` means the exit
    /// label.
    pub label: Option<usize>,
    /// For recursive checking: attach the assertion to this function's
    /// post-condition instead of a label.
    pub function: Option<String>,
    /// The assertion text, e.g. `"0.5*n_in*n_in + 0.5*n_in + 1 - ret > 0"`.
    pub text: String,
}

impl AssertionSpec {
    /// An assertion at the main function's exit label.
    pub fn at_exit(text: impl Into<String>) -> Self {
        AssertionSpec {
            label: None,
            function: None,
            text: text.into(),
        }
    }

    /// An assertion at the label with the given index (into the main
    /// function's label list).
    pub fn at(label: usize, text: impl Into<String>) -> Self {
        AssertionSpec {
            label: Some(label),
            function: None,
            text: text.into(),
        }
    }

    /// A post-condition assertion for `function` (checking recursive
    /// programs).
    pub fn postcondition(function: impl Into<String>, text: impl Into<String>) -> Self {
        AssertionSpec {
            label: None,
            function: Some(function.into()),
            text: text.into(),
        }
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            (
                "label",
                match self.label {
                    Some(index) => Json::Number(index as f64),
                    None => Json::Null,
                },
            ),
            (
                "function",
                match &self.function {
                    Some(name) => Json::string(name.clone()),
                    None => Json::Null,
                },
            ),
            ("text", Json::string(self.text.clone())),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, ApiError> {
        Ok(AssertionSpec {
            label: match json.get("label") {
                Some(Json::Null) | None => None,
                Some(value) => Some(value.as_usize().ok_or_else(|| invalid("label"))?),
            },
            function: match json.get("function") {
                Some(Json::Null) | None => None,
                Some(value) => Some(
                    value
                        .as_str()
                        .ok_or_else(|| invalid("function"))?
                        .to_string(),
                ),
            },
            text: json
                .get("text")
                .and_then(Json::as_str)
                .ok_or_else(|| invalid("text"))?
                .to_string(),
        })
    }
}

/// One unit of work for the [`Engine`](crate::Engine): a program source, a
/// mode, reduction options and the mode's assertions.
#[derive(Debug, Clone)]
pub struct SynthesisRequest {
    /// Caller-chosen identifier, echoed into the report (useful for batch
    /// requests).
    pub id: String,
    /// The program in the paper's mini-language.
    pub source: String,
    /// What to do.
    pub mode: Mode,
    /// Reduction options (degree, conjuncts, ϒ, …). [`Mode::Check`] reads
    /// `upsilon`, `epsilon_lower`, `bounded_reals` and `force_recursive`.
    pub options: SynthesisOptions,
    /// Target assertions ([`Mode::Weak`]) or candidate invariant atoms
    /// ([`Mode::Check`]).
    pub assertions: Vec<AssertionSpec>,
    /// Solver back-end by stable name (`"lm"`, `"penalty"`); `None` uses the
    /// Engine's default.
    pub backend: Option<String>,
    /// Number of multi-start attempts for [`Mode::Strong`]; `None` uses the
    /// enumeration default (8).
    pub attempts: Option<usize>,
    /// Wall-clock budget for the whole solve ([`Mode::Weak`] and
    /// [`Mode::Strong`]), in seconds. `0.0` (the default) means unbudgeted: the orchestrator runs
    /// its full ladder. A positive budget still always attempts the first
    /// rung, so every request produces a real verdict.
    pub solve_budget_seconds: f64,
}

impl SynthesisRequest {
    /// A request with the given mode and program source and default options.
    pub fn new(mode: Mode, source: impl Into<String>) -> Self {
        SynthesisRequest {
            id: String::new(),
            source: source.into(),
            mode,
            options: SynthesisOptions::default(),
            assertions: Vec::new(),
            backend: None,
            attempts: None,
            solve_budget_seconds: 0.0,
        }
    }

    /// A weak-synthesis request.
    pub fn weak(source: impl Into<String>) -> Self {
        SynthesisRequest::new(Mode::Weak, source)
    }

    /// A strong-synthesis (enumeration) request.
    pub fn strong(source: impl Into<String>) -> Self {
        SynthesisRequest::new(Mode::Strong, source)
    }

    /// A certificate-check request.
    pub fn check(source: impl Into<String>) -> Self {
        SynthesisRequest::new(Mode::Check, source)
    }

    /// A generation-only (Steps 1–3) request.
    pub fn generate_only(source: impl Into<String>) -> Self {
        SynthesisRequest::new(Mode::GenerateOnly, source)
    }

    /// Sets the request id (builder style).
    pub fn with_id(mut self, id: impl Into<String>) -> Self {
        self.id = id.into();
        self
    }

    /// Adds a target/invariant assertion at the exit label (builder style).
    pub fn with_target(mut self, text: impl Into<String>) -> Self {
        self.assertions.push(AssertionSpec::at_exit(text));
        self
    }

    /// Adds a target/invariant assertion at a label index (builder style).
    pub fn with_target_at(mut self, label: usize, text: impl Into<String>) -> Self {
        self.assertions.push(AssertionSpec::at(label, text));
        self
    }

    /// Adds an assertion spec (builder style).
    pub fn with_assertion(mut self, spec: AssertionSpec) -> Self {
        self.assertions.push(spec);
        self
    }

    /// Replaces the reduction options (builder style).
    pub fn with_options(mut self, options: SynthesisOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the template degree (builder style).
    pub fn with_degree(mut self, degree: u32) -> Self {
        self.options = self.options.with_degree(degree);
        self
    }

    /// Sets the technical parameter ϒ (builder style).
    pub fn with_upsilon(mut self, upsilon: u32) -> Self {
        self.options = self.options.with_upsilon(upsilon);
        self
    }

    /// Selects the solver back-end by stable name (builder style).
    pub fn with_backend(mut self, name: impl Into<String>) -> Self {
        self.backend = Some(name.into());
        self
    }

    /// Sets the number of strong-synthesis attempts (builder style).
    pub fn with_attempts(mut self, attempts: usize) -> Self {
        self.attempts = Some(attempts);
        self
    }

    /// Sets the wall-clock solve budget in seconds (builder style).
    /// Non-positive or non-finite values mean unbudgeted.
    pub fn with_solve_budget(mut self, seconds: f64) -> Self {
        self.solve_budget_seconds = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        self
    }

    /// Serializes the request as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("id", Json::string(self.id.clone())),
            ("mode", Json::string(self.mode.as_str())),
            ("source", Json::string(self.source.clone())),
            ("options", options_to_json(&self.options)),
            (
                "assertions",
                Json::Array(self.assertions.iter().map(AssertionSpec::to_json).collect()),
            ),
            (
                "backend",
                match &self.backend {
                    Some(name) => Json::string(name.clone()),
                    None => Json::Null,
                },
            ),
            (
                "attempts",
                match self.attempts {
                    Some(n) => Json::Number(n as f64),
                    None => Json::Null,
                },
            ),
            (
                "solve_budget_seconds",
                if self.solve_budget_seconds > 0.0 {
                    Json::Number(self.solve_budget_seconds)
                } else {
                    Json::Null
                },
            ),
        ])
    }

    /// Reads a request back from its JSON object form.
    pub fn from_json(json: &Json) -> Result<Self, ApiError> {
        let mode: Mode = json
            .get("mode")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid("mode"))?
            .parse()?;
        let source = json
            .get("source")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid("source"))?
            .to_string();
        let mut request = SynthesisRequest::new(mode, source);
        if let Some(id) = json.get("id").and_then(Json::as_str) {
            request.id = id.to_string();
        }
        if let Some(options) = json.get("options") {
            if !options.is_null() {
                request.options = options_from_json(options)?;
            }
        }
        if let Some(assertions) = json.get("assertions").and_then(Json::as_array) {
            request.assertions = assertions
                .iter()
                .map(AssertionSpec::from_json)
                .collect::<Result<_, _>>()?;
        }
        if let Some(backend) = json.get("backend") {
            if !backend.is_null() {
                request.backend = Some(
                    backend
                        .as_str()
                        .ok_or_else(|| invalid("backend"))?
                        .to_string(),
                );
            }
        }
        if let Some(attempts) = json.get("attempts") {
            if !attempts.is_null() {
                request.attempts = Some(attempts.as_usize().ok_or_else(|| invalid("attempts"))?);
            }
        }
        // Absent or null means unbudgeted — old request snapshots predate
        // the solve budget.
        if let Some(budget) = json.get("solve_budget_seconds") {
            if !budget.is_null() {
                request = request.with_solve_budget(
                    budget
                        .as_f64()
                        .ok_or_else(|| invalid("solve_budget_seconds"))?,
                );
            }
        }
        Ok(request)
    }

    /// Parses a request from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, ApiError> {
        SynthesisRequest::from_json(&Json::parse(text)?)
    }
}

fn invalid(field: &str) -> ApiError {
    ApiError::InvalidRequest {
        message: format!("missing or ill-typed field `{field}`"),
    }
}

/// A non-negative integer field that must fit in `u32`: a larger value is
/// rejected instead of being truncated to its low 32 bits.
fn u32_field(json: &Json, field: &str) -> Result<u32, ApiError> {
    let value = json.as_usize().ok_or_else(|| invalid(field))?;
    u32::try_from(value).map_err(|_| ApiError::InvalidRequest {
        message: format!("field `{field}` is {value}, above the limit {}", u32::MAX),
    })
}

fn rational_to_json(value: &Rational) -> Json {
    // i128 numerators/denominators do not fit in a JSON number, so both
    // parts travel as decimal strings.
    Json::object(vec![
        ("numer", Json::string(value.numer().to_string())),
        ("denom", Json::string(value.denom().to_string())),
    ])
}

fn rational_from_json(json: &Json, field: &str) -> Result<Rational, ApiError> {
    let part = |name: &str| -> Result<i128, ApiError> {
        json.get(name)
            .and_then(Json::as_str)
            .and_then(|s| s.parse::<i128>().ok())
            .ok_or_else(|| invalid(name))
    };
    Rational::checked_new(part("numer")?, part("denom")?).map_err(|error| {
        ApiError::InvalidRequest {
            message: match error {
                RationalError::DivisionByZero => format!("field `{field}` has a zero denominator"),
                RationalError::Overflow => format!("field `{field}` is out of the i128 range"),
            },
        }
    })
}

/// A rational field that must be strictly positive: `epsilon_lower` (the
/// witness has to be ε > 0) and `bounded_reals` (a bound c ≤ 0 makes the
/// pre-condition unsatisfiable).
fn positive_rational_field(json: &Json, field: &str) -> Result<Rational, ApiError> {
    let value = rational_from_json(json, field)?;
    if !value.is_positive() {
        return Err(ApiError::InvalidRequest {
            message: format!("field `{field}` is {value}, but it must be positive"),
        });
    }
    Ok(value)
}

/// Serializes [`SynthesisOptions`] (shared by requests and reports).
pub(crate) fn options_to_json(options: &SynthesisOptions) -> Json {
    Json::object(vec![
        ("degree", Json::Number(options.degree as f64)),
        ("size", Json::Number(options.size as f64)),
        ("upsilon", Json::Number(options.upsilon as f64)),
        (
            "bounded_reals",
            match &options.bounded_reals {
                Some(bound) => rational_to_json(bound),
                None => Json::Null,
            },
        ),
        ("epsilon_lower", rational_to_json(&options.epsilon_lower)),
        ("force_recursive", Json::Bool(options.force_recursive)),
        ("presolve", Json::Bool(options.presolve)),
    ])
}

/// Reads [`SynthesisOptions`] back from JSON; absent fields keep defaults.
pub(crate) fn options_from_json(json: &Json) -> Result<SynthesisOptions, ApiError> {
    let mut options = SynthesisOptions::default();
    if let Some(degree) = json.get("degree") {
        options.degree = u32_field(degree, "degree")?;
    }
    if let Some(size) = json.get("size") {
        options.size = size.as_usize().ok_or_else(|| invalid("size"))?;
    }
    if let Some(upsilon) = json.get("upsilon") {
        options.upsilon = u32_field(upsilon, "upsilon")?;
    }
    // Cholesky is the only sum-of-squares encoding. Older requests always
    // carry `"encoding": "cholesky"`, which stays accepted as a no-op.
    if let Some(encoding) = json.get("encoding") {
        if encoding.as_str() != Some("cholesky") {
            return Err(ApiError::InvalidRequest {
                message: format!(
                    "unsupported encoding {encoding}: the Gram encoding was removed, \
                     cholesky is the only sum-of-squares encoding"
                ),
            });
        }
    }
    if let Some(bound) = json.get("bounded_reals") {
        if !bound.is_null() {
            options.bounded_reals = Some(positive_rational_field(bound, "bounded_reals")?);
        }
    }
    if let Some(epsilon) = json.get("epsilon_lower") {
        if !epsilon.is_null() {
            options.epsilon_lower = positive_rational_field(epsilon, "epsilon_lower")?;
        }
    }
    if let Some(force) = json.get("force_recursive") {
        options.force_recursive = force.as_bool().ok_or_else(|| invalid("force_recursive"))?;
    }
    // Absent means the default (enabled): old request snapshots predate the
    // presolve and ran the raw system through exactly this code path.
    if let Some(presolve) = json.get("presolve") {
        options.presolve = presolve.as_bool().ok_or_else(|| invalid("presolve"))?;
    }
    Ok(options)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let request = SynthesisRequest::weak("f(x) { return x }")
            .with_id("r1")
            .with_degree(1)
            .with_upsilon(0)
            .with_target("x + 1 > 0")
            .with_backend("penalty");
        assert_eq!(request.id, "r1");
        assert_eq!(request.options.degree, 1);
        assert_eq!(request.options.upsilon, 0);
        assert_eq!(request.assertions.len(), 1);
        assert_eq!(request.backend.as_deref(), Some("penalty"));
    }

    #[test]
    fn requests_round_trip_through_json() {
        let request = SynthesisRequest::check("f(x) { return x }")
            .with_id("chk")
            .with_target_at(3, "x > 0")
            .with_assertion(AssertionSpec::postcondition("f", "ret >= 0"))
            .with_options(
                SynthesisOptions::with_degree_and_size(3, 2)
                    .with_bounded_reals(Rational::new(1000, 1))
                    .with_epsilon_lower(Rational::new(1, 7)),
            )
            .with_attempts(5)
            .with_solve_budget(90.0);
        let text = request.to_json().to_string();
        let reparsed = SynthesisRequest::from_json_str(&text).unwrap();
        assert_eq!(reparsed.solve_budget_seconds, 90.0);
        assert_eq!(reparsed.id, request.id);
        assert_eq!(reparsed.mode, request.mode);
        assert_eq!(reparsed.source, request.source);
        assert_eq!(reparsed.assertions, request.assertions);
        assert_eq!(reparsed.attempts, request.attempts);
        assert_eq!(reparsed.options.degree, 3);
        assert_eq!(reparsed.options.size, 2);
        assert_eq!(reparsed.options.bounded_reals, Some(Rational::new(1000, 1)));
        assert_eq!(reparsed.options.epsilon_lower, Rational::new(1, 7));
    }

    #[test]
    fn presolve_round_trips_and_defaults_on_for_old_snapshots() {
        let request = SynthesisRequest::weak("f(x) { return x }")
            .with_options(SynthesisOptions::default().with_presolve(false));
        let reparsed = SynthesisRequest::from_json_str(&request.to_json().to_string()).unwrap();
        assert!(!reparsed.options.presolve);
        // A pre-presolve snapshot without the field keeps the default.
        let old = r#"{"mode":"weak","source":"f(x) { return x }","options":{"degree":1}}"#;
        assert!(
            SynthesisRequest::from_json_str(old)
                .unwrap()
                .options
                .presolve
        );
    }

    #[test]
    fn encoding_other_than_cholesky_is_rejected() {
        let request = |encoding: &str| {
            SynthesisRequest::from_json_str(&format!(
                r#"{{"mode":"weak","source":"f(x) {{ return x }}","options":{{"encoding":{encoding}}}}}"#
            ))
        };
        assert!(request(r#""cholesky""#).is_ok());
        for encoding in [r#""gram""#, r#""sdp""#, "1"] {
            match request(encoding) {
                Err(ApiError::InvalidRequest { message }) => {
                    assert!(message.contains("Gram encoding was removed"), "{message}")
                }
                other => panic!("encoding {encoding} accepted: {other:?}"),
            }
        }
        // Requests no longer write the key at all.
        let text = SynthesisRequest::weak("f(x) { return x }")
            .to_json()
            .to_string();
        assert!(!text.contains("encoding"), "{text}");
    }

    #[test]
    fn degree_and_upsilon_above_u32_are_rejected() {
        let request = |field: &str, value: u64| {
            SynthesisRequest::from_json_str(&format!(
                r#"{{"mode":"weak","source":"f(x) {{ return x }}","options":{{"{field}":{value}}}}}"#
            ))
        };
        for field in ["degree", "upsilon"] {
            // 2³² + 1 used to be truncated to 1.
            match request(field, u64::from(u32::MAX) + 2) {
                Err(ApiError::InvalidRequest { message }) => {
                    assert!(message.contains(field), "{message}")
                }
                other => panic!("{field} accepted: {other:?}"),
            }
            assert!(request(field, u64::from(u32::MAX)).is_ok());
        }
    }

    #[test]
    fn non_positive_or_zero_denominator_rationals_are_rejected() {
        let request = |field: &str, numer: &str, denom: &str| {
            SynthesisRequest::from_json_str(&format!(
                r#"{{"mode":"weak","source":"f(x) {{ return x }}","options":{{"{field}":{{"numer":"{numer}","denom":"{denom}"}}}}}}"#
            ))
        };
        let rejected = |field: &str, numer: &str, denom: &str, reason: &str| match request(
            field, numer, denom,
        ) {
            Err(ApiError::InvalidRequest { message }) => {
                assert!(message.contains(field), "{message}");
                assert!(message.contains(reason), "{message}");
            }
            other => panic!("{field} = {numer}/{denom} accepted: {other:?}"),
        };
        for field in ["epsilon_lower", "bounded_reals"] {
            // A zero denominator used to panic in `Rational::new`.
            rejected(field, "1", "0", "zero denominator");
            rejected(field, &i128::MIN.to_string(), "-1", "out of the i128 range");
            rejected(field, "0", "1", "must be positive");
            rejected(field, "-1", "1", "must be positive");
            rejected(field, "1", "-3", "must be positive");
            assert!(request(field, "1", "100").is_ok());
            assert!(request(field, "-1", "-100").is_ok());
        }
    }

    #[test]
    fn mode_strings_are_stable() {
        for mode in [Mode::Weak, Mode::Strong, Mode::Check, Mode::GenerateOnly] {
            assert_eq!(mode.as_str().parse::<Mode>().unwrap(), mode);
        }
        assert!("loqo".parse::<Mode>().is_err());
    }
}

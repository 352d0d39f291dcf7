//! The one exhaustive error type of the API surface.
//!
//! Every failure mode of the Engine — front-end parse errors (with source
//! spans), unresolvable requests, unknown back-ends, baseline
//! inapplicability and JSON/IO problems — is a variant of [`ApiError`]. A
//! solve that runs but does not converge or certify is not an error: it is a
//! report status. Callers below the API keep their precise error
//! types (`polyinv_lang::Error`, `polyinv_farkas::Inapplicability`); the
//! conversions here are the single place where they meet.

use std::fmt;

use crate::json::{Json, JsonError};

/// Everything that can go wrong when serving a
/// [`SynthesisRequest`](crate::SynthesisRequest).
#[derive(Debug, Clone, PartialEq)]
pub enum ApiError {
    /// The program source did not lex, parse or resolve.
    Parse {
        /// The front-end's message.
        message: String,
        /// 1-based source line, when known.
        line: Option<usize>,
        /// 1-based source column, when known.
        column: Option<usize>,
    },
    /// A target / invariant assertion did not parse in the scope of the
    /// program's main function.
    Assertion {
        /// The assertion text as given in the request.
        text: String,
        /// The front-end's message.
        message: String,
        /// 1-based line within the assertion text, when known.
        line: Option<usize>,
        /// 1-based column within the assertion text, when known.
        column: Option<usize>,
    },
    /// The request named a solver back-end the Engine does not know.
    UnknownBackend {
        /// The unrecognized name.
        name: String,
    },
    /// An assertion referenced a label index outside the main function.
    UnknownLabel {
        /// The requested label index.
        index: usize,
        /// The number of labels the main function has.
        available: usize,
    },
    /// The request is structurally invalid (wrong mode/field combination,
    /// target degree above the template degree, …).
    InvalidRequest {
        /// What is wrong.
        message: String,
    },
    /// The program contains function calls but the run was configured
    /// without the recursive variants of the algorithm, so the call has no
    /// post-condition template to abstract with. Carries the call's source
    /// span.
    RecursionRequired {
        /// The callee of the offending call.
        callee: String,
        /// The label of the call statement.
        label: String,
        /// 1-based source line of the call statement, when known.
        line: Option<usize>,
    },
    /// A baseline or algorithm rejected the program as out of scope (e.g.
    /// the Farkas baseline on a non-linear program).
    Inapplicable {
        /// The reason reported by the rejecting component.
        reason: String,
    },
    /// A JSON document (batch file, serialized request/report) was invalid.
    Json {
        /// What is wrong.
        message: String,
        /// Byte offset into the document.
        offset: usize,
    },
    /// A file could not be read or written (CLI only).
    Io {
        /// The offending path.
        path: String,
        /// The OS error message.
        message: String,
    },
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Parse {
                message,
                line,
                column,
            } => {
                write!(f, "parse error")?;
                write_span(f, *line, *column)?;
                write!(f, ": {message}")
            }
            ApiError::Assertion {
                text,
                message,
                line,
                column,
            } => {
                write!(f, "invalid assertion `{text}`")?;
                write_span(f, *line, *column)?;
                write!(f, ": {message}")
            }
            ApiError::UnknownBackend { name } => {
                write!(f, "unknown solver back-end `{name}` (expected `lm`)")
            }
            ApiError::UnknownLabel { index, available } => write!(
                f,
                "label index {index} out of range (the main function has {available} labels)"
            ),
            ApiError::InvalidRequest { message } => write!(f, "invalid request: {message}"),
            ApiError::RecursionRequired {
                callee,
                label,
                line,
            } => {
                write!(f, "call to `{callee}` at {label}")?;
                write_span(f, *line, None)?;
                write!(
                    f,
                    " requires recursive synthesis; the run was configured without it"
                )
            }
            ApiError::Inapplicable { reason } => write!(f, "not applicable: {reason}"),
            ApiError::Json { message, offset } => {
                write!(f, "invalid JSON at byte {offset}: {message}")
            }
            ApiError::Io { path, message } => write!(f, "cannot access `{path}`: {message}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<polyinv_lang::Error> for ApiError {
    fn from(error: polyinv_lang::Error) -> Self {
        ApiError::Parse {
            line: error.line(),
            column: error.column(),
            message: error.message().to_string(),
        }
    }
}

impl From<polyinv_constraints::ConstraintError> for ApiError {
    fn from(error: polyinv_constraints::ConstraintError) -> Self {
        match &error {
            polyinv_constraints::ConstraintError::CallsRequireRecursiveMode {
                label,
                callee,
                line,
            } => ApiError::RecursionRequired {
                callee: callee.clone(),
                label: label.to_string(),
                line: *line,
            },
            other => ApiError::InvalidRequest {
                message: other.to_string(),
            },
        }
    }
}

impl From<polyinv_farkas::Inapplicability> for ApiError {
    fn from(reason: polyinv_farkas::Inapplicability) -> Self {
        ApiError::Inapplicable {
            reason: reason.to_string(),
        }
    }
}

impl From<JsonError> for ApiError {
    fn from(error: JsonError) -> Self {
        ApiError::Json {
            message: error.message,
            offset: error.offset,
        }
    }
}

impl ApiError {
    /// A short stable identifier for the variant (used as the `error` field
    /// of the JSON form).
    pub fn kind(&self) -> &'static str {
        match self {
            ApiError::Parse { .. } => "parse",
            ApiError::Assertion { .. } => "assertion",
            ApiError::UnknownBackend { .. } => "unknown-backend",
            ApiError::UnknownLabel { .. } => "unknown-label",
            ApiError::InvalidRequest { .. } => "invalid-request",
            ApiError::RecursionRequired { .. } => "recursion-required",
            ApiError::Inapplicable { .. } => "inapplicable",
            ApiError::Json { .. } => "json",
            ApiError::Io { .. } => "io",
        }
    }

    /// Serializes the error as a JSON object (`{"error": kind, "message":
    /// human-readable}` plus the variant's structured fields).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("error".to_string(), Json::string(self.kind())),
            ("message".to_string(), Json::string(self.to_string())),
        ];
        match self {
            ApiError::Parse { line, column, .. } | ApiError::Assertion { line, column, .. } => {
                fields.push(("line".to_string(), opt_number(*line)));
                fields.push(("column".to_string(), opt_number(*column)));
            }
            ApiError::UnknownLabel { index, available } => {
                fields.push(("index".to_string(), Json::Number(*index as f64)));
                fields.push(("available".to_string(), Json::Number(*available as f64)));
            }
            ApiError::RecursionRequired {
                callee,
                label,
                line,
            } => {
                fields.push(("callee".to_string(), Json::string(callee.clone())));
                fields.push(("label".to_string(), Json::string(label.clone())));
                fields.push(("line".to_string(), opt_number(*line)));
            }
            _ => {}
        }
        Json::Object(fields)
    }
}

fn write_span(
    f: &mut fmt::Formatter<'_>,
    line: Option<usize>,
    column: Option<usize>,
) -> fmt::Result {
    match (line, column) {
        (Some(l), Some(c)) => write!(f, " at line {l}, column {c}"),
        (Some(l), None) => write!(f, " at line {l}"),
        _ => Ok(()),
    }
}

fn opt_number(value: Option<usize>) -> Json {
    match value {
        Some(v) => Json::Number(v as f64),
        None => Json::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_spans_when_known() {
        let error = ApiError::from(polyinv_lang::Error::at("expected `)`", 3, 14));
        assert_eq!(
            error.to_string(),
            "parse error at line 3, column 14: expected `)`"
        );
        let error = ApiError::from(polyinv_lang::Error::new("empty program"));
        assert_eq!(error.to_string(), "parse error: empty program");
    }

    #[test]
    fn implements_std_error_end_to_end() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        let error = ApiError::UnknownBackend {
            name: "loqo".to_string(),
        };
        assert_error(&error);
        assert_eq!(error.kind(), "unknown-backend");
    }

    #[test]
    fn constraint_errors_convert_with_the_call_span() {
        let error: ApiError = polyinv_constraints::ConstraintError::CallsRequireRecursiveMode {
            label: polyinv_lang::Label::new(4),
            callee: "rsum".to_string(),
            line: Some(7),
        }
        .into();
        match &error {
            ApiError::RecursionRequired {
                callee,
                label,
                line,
            } => {
                assert_eq!(callee, "rsum");
                assert_eq!(label, "l4");
                assert_eq!(*line, Some(7));
            }
            other => panic!("expected RecursionRequired, got {other:?}"),
        }
        assert_eq!(error.kind(), "recursion-required");
        assert!(error.to_string().contains("line 7"));
        let json = error.to_json();
        assert_eq!(json.get("callee").unwrap().as_str(), Some("rsum"));
        assert_eq!(json.get("line").unwrap().as_usize(), Some(7));
    }

    #[test]
    fn inapplicability_converts() {
        let reason = polyinv_farkas::Inapplicability::Recursive;
        let error: ApiError = reason.into();
        assert!(matches!(error, ApiError::Inapplicable { .. }));
        assert!(error.to_string().contains("recursive"));
    }

    #[test]
    fn json_form_carries_structured_fields() {
        let error = ApiError::UnknownLabel {
            index: 9,
            available: 4,
        };
        let json = error.to_json();
        assert_eq!(json.get("error").unwrap().as_str(), Some("unknown-label"));
        assert_eq!(json.get("index").unwrap().as_usize(), Some(9));
        assert_eq!(json.get("available").unwrap().as_usize(), Some(4));
    }
}

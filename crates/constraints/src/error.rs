//! Typed errors of constraint generation.

use std::fmt;

use polyinv_lang::Label;

/// A structural problem detected while generating constraint pairs.
///
/// Constraint generation used to abort the process on these; they are now
/// ordinary errors so that long-running services built on `polyinv-api` can
/// surface them as diagnostics instead of dying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintError {
    /// The program contains a function-call transition but the recursive
    /// variants of the algorithm (Steps 1.a, 2.a and 2.b) were not enabled,
    /// so the callee has no post-condition template to abstract the call
    /// with.
    CallsRequireRecursiveMode {
        /// The label of the call statement.
        label: Label,
        /// The callee's name.
        callee: String,
        /// 1-based source line of the call statement, when known.
        line: Option<usize>,
    },
    /// A call transition references a callee the program does not define.
    /// The resolver rejects such programs, so reaching this variant means
    /// the caller assembled inconsistent inputs (e.g. a CFG from a different
    /// program).
    UnknownCallee {
        /// The label of the call statement.
        label: Label,
        /// The unresolved callee name.
        callee: String,
    },
    /// A call transition's callee has no post-condition template even though
    /// recursive mode is on — the template set was built for a different
    /// program or with `recursive = false`.
    MissingPostcondition {
        /// The label of the call statement.
        label: Label,
        /// The callee missing a post-condition template.
        callee: String,
    },
    /// Exact rational arithmetic left the `i128` range while building the
    /// constraints: the program's or the request's constants are too large
    /// for the exact reduction.
    ArithmeticOverflow {
        /// What was being generated, e.g. `the transition l1 -> l2`.
        context: String,
    },
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintError::CallsRequireRecursiveMode {
                label,
                callee,
                line,
            } => {
                write!(f, "call to `{callee}` at {label}")?;
                if let Some(line) = line {
                    write!(f, " (line {line})")?;
                }
                write!(
                    f,
                    " requires recursive synthesis (Steps 1.a/2.a/2.b); \
                     the pairs were generated with recursive mode off"
                )
            }
            ConstraintError::UnknownCallee { label, callee } => {
                write!(
                    f,
                    "call at {label} references undefined function `{callee}`"
                )
            }
            ConstraintError::MissingPostcondition { label, callee } => write!(
                f,
                "call to `{callee}` at {label} has no post-condition template; \
                 the template set was not built for recursive synthesis"
            ),
            ConstraintError::ArithmeticOverflow { context } => write!(
                f,
                "exact arithmetic overflowed i128 while generating {context}; \
                 the constants are too large for the exact reduction"
            ),
        }
    }
}

impl std::error::Error for ConstraintError {}

impl ConstraintError {
    /// The 1-based source line associated with the error, when known.
    pub fn line(&self) -> Option<usize> {
        match self {
            ConstraintError::CallsRequireRecursiveMode { line, .. } => *line,
            _ => None,
        }
    }

    /// The label the error is anchored at, when any.
    pub fn label(&self) -> Option<Label> {
        match self {
            ConstraintError::CallsRequireRecursiveMode { label, .. }
            | ConstraintError::UnknownCallee { label, .. }
            | ConstraintError::MissingPostcondition { label, .. } => Some(*label),
            ConstraintError::ArithmeticOverflow { .. } => None,
        }
    }
}

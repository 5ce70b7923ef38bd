//! Errors raised while binding a minic model to the TDF kernel.

use std::error::Error;
use std::fmt;

/// Errors from constructing or resolving an interpreted TDF model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The translation unit has no `model::processing()` function.
    MissingProcessing {
        /// The model name looked up.
        model: String,
    },
    /// An identifier in the body is neither a declared local, a port nor a
    /// member of the interface.
    UnknownIdentifier {
        /// Model name.
        model: String,
        /// The unresolved name.
        name: String,
        /// Source line of the first occurrence.
        line: u32,
    },
    /// The interface declares the same name twice.
    DuplicateName {
        /// Model name.
        model: String,
        /// The duplicated name.
        name: String,
    },
    /// Code writes an input port (or reads a write-only construct).
    WriteToInput {
        /// Model name.
        model: String,
        /// Port name.
        name: String,
        /// Source line.
        line: u32,
    },
    /// An interface port has a rate other than 1: interpreted models are
    /// single-rate (use native components for multirate blocks).
    NonUnitRate {
        /// Model name.
        model: String,
        /// Port name.
        port: String,
        /// The declared rate.
        rate: usize,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::MissingProcessing { model } => {
                write!(f, "no processing() function found for model `{model}`")
            }
            InterpError::UnknownIdentifier { model, name, line } => write!(
                f,
                "unknown identifier `{name}` in model `{model}` (line {line}); declare it as a local, port or member"
            ),
            InterpError::DuplicateName { model, name } => {
                write!(f, "name `{name}` declared twice in interface of `{model}`")
            }
            InterpError::WriteToInput { model, name, line } => write!(
                f,
                "model `{model}` writes input port `{name}` (line {line})"
            ),
            InterpError::NonUnitRate { model, port, rate } => write!(
                f,
                "port `{port}` of model `{model}` has rate {rate}; interpreted models are single-rate"
            ),
        }
    }
}

impl Error for InterpError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, InterpError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_culprit() {
        let e = InterpError::UnknownIdentifier {
            model: "TS".into(),
            name: "tmrp".into(),
            line: 9,
        };
        let s = e.to_string();
        assert!(s.contains("tmrp") && s.contains("TS") && s.contains('9'));
    }

    #[test]
    fn is_std_error() {
        fn check<E: Error + Send + Sync>(_: E) {}
        check(InterpError::MissingProcessing { model: "x".into() });
    }
}

//! Error type of the DFT core.

use std::error::Error;
use std::fmt;

/// Errors raised by the data-flow-testing pipeline. [`Design::new`]
/// raises the design-shape ones (`MissingSource`, `DuplicateDefinition`,
/// and `Sim` for a netlist that lists a module twice).
///
/// [`Design::new`]: crate::Design::new
#[derive(Debug)]
pub enum DftError {
    /// A model listed in the netlist as user code has no source in the
    /// translation unit.
    MissingSource {
        /// The model name.
        model: String,
    },
    /// A model is defined twice: two model definitions name it, or the
    /// translation unit implements one of its functions twice.
    DuplicateDefinition {
        /// The model name.
        model: String,
        /// The repeated function; `None` when the model definition repeats.
        function: Option<String>,
    },
    /// Source failed to parse.
    Parse(minic::MinicError),
    /// Simulation failed.
    Sim(tdf_sim::TdfError),
    /// Interpreter binding failed.
    Interp(tdf_interp::InterpError),
}

impl fmt::Display for DftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DftError::MissingSource { model } => {
                write!(f, "no processing() source for user-code model `{model}`")
            }
            DftError::DuplicateDefinition {
                model,
                function: None,
            } => write!(f, "model `{model}` is defined twice"),
            DftError::DuplicateDefinition {
                model,
                function: Some(function),
            } => write!(f, "function `{model}::{function}()` is defined twice"),
            DftError::Parse(e) => write!(f, "{e}"),
            DftError::Sim(e) => write!(f, "{e}"),
            DftError::Interp(e) => write!(f, "{e}"),
        }
    }
}

impl Error for DftError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DftError::Parse(e) => Some(e),
            DftError::Sim(e) => Some(e),
            DftError::Interp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<minic::MinicError> for DftError {
    fn from(e: minic::MinicError) -> Self {
        DftError::Parse(e)
    }
}

impl From<tdf_sim::TdfError> for DftError {
    fn from(e: tdf_sim::TdfError) -> Self {
        DftError::Sim(e)
    }
}

impl From<tdf_interp::InterpError> for DftError {
    fn from(e: tdf_interp::InterpError) -> Self {
        DftError::Interp(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, DftError>;

/// Render a `catch_unwind` payload as a message. Panics raised via
/// `panic!("…")` carry `&str` or `String`; anything else gets a
/// placeholder rather than being re-thrown.
pub(crate) fn panic_payload_str(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sources() {
        let e = DftError::from(tdf_sim::TdfError::UnknownModule { name: "x".into() });
        assert!(e.source().is_some());
        assert!(e.to_string().contains("unknown module"));
    }

    #[test]
    fn missing_source_message() {
        let e = DftError::MissingSource { model: "TS".into() };
        assert!(e.to_string().contains("TS"));
        assert!(e.source().is_none());
    }
}

//! Error types for the core library.

use std::fmt;

use crate::var::VarId;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the core monitoring library.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// An update arrived for a variable the condition does not watch.
    ///
    /// The paper assumes the CE subscribes only to the variables in the
    /// condition's variable set `V`; receiving anything else indicates a
    /// wiring bug, so the evaluator surfaces it instead of silently
    /// dropping the update.
    UnknownVariable(VarId),
    /// An update arrived out of order (its sequence number is not greater
    /// than the newest one already in the history).
    ///
    /// Front links are required to deliver in order (§2.1); the evaluator
    /// enforces this defensively.
    OutOfOrderUpdate {
        /// Variable the stale update belongs to.
        var: VarId,
        /// Sequence number of the offending update.
        got: u64,
        /// Newest sequence number already incorporated.
        newest: u64,
    },
    /// A condition expression failed to parse.
    Parse(crate::condition::expr::ParseError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownVariable(v) => {
                write!(f, "update for variable {v} not in the condition's variable set")
            }
            Error::OutOfOrderUpdate { var, got, newest } => write!(
                f,
                "out-of-order update for variable {var}: got seqno {got}, newest is {newest}"
            ),
            Error::Parse(e) => write!(f, "condition expression parse error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::condition::expr::ParseError> for Error {
    fn from(e: crate::condition::expr::ParseError) -> Self {
        Error::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_unpunctuated() {
        let e = Error::UnknownVariable(VarId::new(3));
        let s = e.to_string();
        assert!(s.starts_with("update for variable"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn out_of_order_mentions_both_seqnos() {
        let e = Error::OutOfOrderUpdate { var: VarId::new(0), got: 3, newest: 7 };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('7'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}

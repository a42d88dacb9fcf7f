//! Unified error type for the workspace.

use crate::ids::ServerId;
use std::fmt;

/// Convenience result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, QccError>;

/// Errors surfaced by any layer of the federated system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QccError {
    /// SQL text could not be tokenized or parsed.
    Parse(String),
    /// A query referenced an unknown table or nickname.
    UnknownTable(String),
    /// A query referenced an unknown column.
    UnknownColumn(String),
    /// An unqualified column reference matched more than one column.
    AmbiguousColumn(String),
    /// A value had the wrong type for an operation.
    TypeMismatch(String),
    /// The planner could not produce a plan.
    Planning(String),
    /// A runtime execution failure.
    Execution(String),
    /// A remote server was unavailable when contacted.
    ServerUnavailable(ServerId),
    /// A remote server failed the request in a (simulated) transient way;
    /// the paper's reliability factor is fed from these.
    ServerFault {
        /// The server that failed the request.
        server: ServerId,
        /// What the server reported.
        message: String,
    },
    /// The federation layer found no usable global plan (e.g. every source
    /// of a nickname is down).
    NoViablePlan(String),
    /// Invalid configuration.
    Config(String),
    /// The admission layer rejected the query before any work was done
    /// (queue full, queue deadline expired, or no token-admissible plan).
    Shed(String),
    /// The query's execution deadline expired mid-flight; the remaining
    /// retry budget is forfeited.
    DeadlineExceeded(String),
}

impl fmt::Display for QccError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QccError::Parse(m) => write!(f, "parse error: {m}"),
            QccError::UnknownTable(t) => write!(f, "unknown table or nickname: {t}"),
            QccError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            QccError::AmbiguousColumn(c) => write!(f, "ambiguous column reference: {c}"),
            QccError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            QccError::Planning(m) => write!(f, "planning error: {m}"),
            QccError::Execution(m) => write!(f, "execution error: {m}"),
            QccError::ServerUnavailable(s) => write!(f, "server {s} is unavailable"),
            QccError::ServerFault { server, message } => {
                write!(f, "server {server} fault: {message}")
            }
            QccError::NoViablePlan(m) => write!(f, "no viable global plan: {m}"),
            QccError::Config(m) => write!(f, "configuration error: {m}"),
            QccError::Shed(m) => write!(f, "query shed by admission control: {m}"),
            QccError::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
        }
    }
}

impl std::error::Error for QccError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = QccError::ServerUnavailable(ServerId::new("S1"));
        assert!(e.to_string().contains("S1"));
        let e = QccError::Parse("unexpected token".into());
        assert!(e.to_string().contains("unexpected token"));
    }
}

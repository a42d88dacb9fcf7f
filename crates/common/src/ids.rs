//! Lightweight identifier newtypes.

use std::fmt;
use std::sync::Arc;

/// Identifier of a remote server (e.g. `"S1"`, `"R2"`). Cheap to clone.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(Arc<str>);

impl ServerId {
    /// Create a server id from a name.
    pub fn new(name: impl AsRef<str>) -> Self {
        ServerId(Arc::from(name.as_ref()))
    }

    /// The server name.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The server name as the id holds it (a journal field shares it).
    pub(crate) fn shared_name(&self) -> Arc<str> {
        Arc::clone(&self.0)
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for ServerId {
    fn from(s: &str) -> Self {
        ServerId::new(s)
    }
}

/// Identifier assigned by the query patroller to each federated query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// Identifier of a query fragment within a federated query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FragmentId {
    /// The owning federated query.
    pub query: QueryId,
    /// Fragment ordinal within the query.
    pub index: u32,
}

impl FragmentId {
    /// Fragment `index` of query `query`.
    pub fn new(query: QueryId, index: u32) -> Self {
        FragmentId { query, index }
    }
}

impl fmt::Display for FragmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:F{}", self.query, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn server_id_equality_and_hash() {
        let a = ServerId::new("S1");
        let b: ServerId = "S1".into();
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&b));
        assert_eq!(a.to_string(), "S1");
    }

    #[test]
    fn fragment_display() {
        let f = FragmentId::new(QueryId(7), 2);
        assert_eq!(f.to_string(), "Q7:F2");
    }
}

//! Nickname definitions.
//!
//! A *nickname* is the local name of a remote table (paper §1). A nickname
//! may map to several sources — the original server and its replicas — and
//! the choice among them is exactly what load-aware routing decides.

use qcc_common::{QccError, Result, Schema, ServerId};
use std::collections::BTreeMap;

/// One source that can answer a nickname.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceMapping {
    /// The remote server.
    pub server: ServerId,
    /// The table name at that server.
    pub remote_table: String,
}

/// A nickname: schema plus its sources.
#[derive(Debug, Clone)]
pub struct NicknameDef {
    /// Nickname (lowercased).
    pub name: String,
    /// The relational schema all sources of this nickname share.
    pub schema: Schema,
    /// Sources, in registration order (the first is the "origin", the
    /// rest replicas — the distinction only matters for display). At most
    /// one per server.
    pub sources: Vec<SourceMapping>,
    /// server → its position in `sources`.
    by_server: BTreeMap<ServerId, usize>,
}

impl NicknameDef {
    /// The source of this nickname at `server`, if it has one.
    pub fn source_at(&self, server: &ServerId) -> Option<&SourceMapping> {
        self.by_server.get(server).map(|&i| &self.sources[i])
    }
}

/// The integrator's nickname catalog.
#[derive(Debug, Clone, Default)]
pub struct NicknameCatalog {
    defs: BTreeMap<String, NicknameDef>,
}

impl NicknameCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        NicknameCatalog::default()
    }

    /// Define a nickname with its schema. Replaces an existing definition.
    pub fn define(&mut self, name: impl Into<String>, schema: Schema) {
        let name = name.into().to_ascii_lowercase();
        self.defs.insert(
            name.clone(),
            NicknameDef {
                name,
                schema,
                sources: Vec::new(),
                by_server: BTreeMap::new(),
            },
        );
    }

    /// Register a source (origin or replica) for a nickname. A nickname
    /// has one source per server: registering a server again replaces the
    /// remote table it maps to and keeps the server's position.
    pub fn add_source(
        &mut self,
        nickname: &str,
        server: ServerId,
        remote_table: impl Into<String>,
    ) -> Result<()> {
        let def = self
            .defs
            .get_mut(&nickname.to_ascii_lowercase())
            .ok_or_else(|| QccError::UnknownTable(nickname.to_owned()))?;
        let remote_table = remote_table.into().to_ascii_lowercase();
        match def.by_server.get(&server) {
            Some(&i) => def.sources[i].remote_table = remote_table,
            None => {
                def.by_server.insert(server.clone(), def.sources.len());
                def.sources.push(SourceMapping {
                    server,
                    remote_table,
                });
            }
        }
        Ok(())
    }

    /// Look up a nickname.
    pub fn get(&self, name: &str) -> Result<&NicknameDef> {
        self.defs
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| QccError::UnknownTable(name.to_owned()))
    }

    /// All nickname names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.defs.keys().map(String::as_str).collect()
    }

    /// Servers that host *all* of the given nicknames (candidate executors
    /// for a fragment touching exactly those nicknames).
    pub fn common_servers(&self, nicknames: &[&str]) -> Result<Vec<ServerId>> {
        let mut iter = nicknames.iter();
        let Some(first) = iter.next() else {
            return Ok(vec![]);
        };
        let mut servers: Vec<ServerId> = self
            .get(first)?
            .sources
            .iter()
            .map(|s| s.server.clone())
            .collect();
        for nick in iter {
            let def = self.get(nick)?;
            servers.retain(|s| def.source_at(s).is_some());
        }
        Ok(servers)
    }

    /// The remote table name for `nickname` at `server`.
    pub fn remote_table(&self, nickname: &str, server: &ServerId) -> Result<&str> {
        let def = self.get(nickname)?;
        def.source_at(server)
            .map(|m| m.remote_table.as_str())
            .ok_or_else(|| {
                QccError::Planning(format!(
                    "nickname {nickname} has no source at server {server}"
                ))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![Column::new("id", DataType::Int)])
    }

    fn catalog() -> NicknameCatalog {
        let mut c = NicknameCatalog::new();
        c.define("accounts", schema());
        c.define("branches", schema());
        c.add_source("accounts", ServerId::new("S1"), "acct")
            .unwrap();
        c.add_source("accounts", ServerId::new("R1"), "acct")
            .unwrap();
        c.add_source("branches", ServerId::new("S1"), "branch")
            .unwrap();
        c.add_source("branches", ServerId::new("S2"), "branch")
            .unwrap();
        c
    }

    #[test]
    fn define_and_lookup() {
        let c = catalog();
        assert_eq!(c.get("ACCOUNTS").unwrap().sources.len(), 2);
        assert!(c.get("missing").is_err());
        assert_eq!(c.names(), vec!["accounts", "branches"]);
    }

    #[test]
    fn common_servers_intersects() {
        let c = catalog();
        let common = c.common_servers(&["accounts", "branches"]).unwrap();
        assert_eq!(common, vec![ServerId::new("S1")]);
        let only_acct = c.common_servers(&["accounts"]).unwrap();
        assert_eq!(only_acct.len(), 2);
    }

    #[test]
    fn remote_table_translation() {
        let c = catalog();
        assert_eq!(
            c.remote_table("accounts", &ServerId::new("R1")).unwrap(),
            "acct"
        );
        assert!(c.remote_table("accounts", &ServerId::new("S2")).is_err());
    }

    #[test]
    fn duplicate_source_ignored() {
        let mut c = catalog();
        c.add_source("accounts", ServerId::new("S1"), "acct")
            .unwrap();
        assert_eq!(c.get("accounts").unwrap().sources.len(), 2);
    }

    /// A nickname maps a server to one remote table: the pair used to be
    /// the de-duplication key, so a second table for the same server was
    /// appended — the server listed (and EXPLAINed) twice, the older name
    /// still the one `remote_table` answered.
    #[test]
    fn second_source_for_a_server_replaces_its_remote_table() {
        let mut c = catalog();
        c.add_source("accounts", ServerId::new("S1"), "acct_v2")
            .unwrap();
        let d = crate::decompose("SELECT id FROM accounts", &c).unwrap();
        assert_eq!(
            d.fragments[0].candidate_servers,
            vec![ServerId::new("S1"), ServerId::new("R1")],
            "S1 once, at its original position"
        );
        let s1 = ServerId::new("S1");
        assert_eq!(c.remote_table("accounts", &s1).unwrap(), "acct_v2");
        let sql = d.fragments[0].sql_for_server(&c, &s1).unwrap();
        assert!(sql.contains("acct_v2"), "{sql}");
        assert_eq!(c.common_servers(&["accounts", "branches"]).unwrap(), [s1]);
    }

    #[test]
    fn add_source_unknown_nickname_errors() {
        let mut c = catalog();
        assert!(c.add_source("nope", ServerId::new("S1"), "t").is_err());
    }
}

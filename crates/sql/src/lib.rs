//! SQL subset parser for the federated query router.
//!
//! Supports the select-project-join-aggregate dialect the paper's workload
//! needs (§5.2): inner joins (explicit `JOIN ... ON` and comma-style),
//! arithmetic and boolean predicates, `BETWEEN` / `IN` / `LIKE` / `IS NULL`,
//! `GROUP BY` + `HAVING`, the five standard aggregates, `ORDER BY`, and
//! `LIMIT`. Statements print back to SQL (`Display`), which is how the
//! federation layer ships fragments to remote servers.

pub mod ast;
pub mod parser;
pub mod token;

/// The seeded statement mutator shared with `qcc-federation`'s fuzz test.
#[cfg(test)]
#[path = "../../../tests/support/mutate.rs"]
mod mutate;

pub use ast::{
    AggFunc, BinaryOp, Expr, JoinClause, OrderItem, SelectItem, SelectStmt, TableRef, UnaryOp,
};
pub use parser::parse_select;
pub use token::{tokenize, Token};

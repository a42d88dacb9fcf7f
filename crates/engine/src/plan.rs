//! Physical plan trees.
//!
//! Plans are built by the planner with column references already compiled
//! to row positions and with cardinality estimates (`est_rows`) attached at
//! build time — the cost model turns structure + estimates into the
//! first-tuple / next-tuple costs the federation layer consumes.

use crate::expr::CompiledExpr;
use qcc_common::{QccError, Result, Schema, Value};
use qcc_sql::AggFunc;
use qcc_storage::catalog::CatalogEntry;
use std::fmt;
use std::ops::Bound;

/// Predicate pushed into an index scan.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexPredicate {
    /// `col = value`
    Eq(Value),
    /// Range with optional inclusive/exclusive bounds.
    Range {
        /// Lower bound and whether it is inclusive.
        lo: Option<(Value, bool)>,
        /// Upper bound and whether it is inclusive.
        hi: Option<(Value, bool)>,
    },
}

impl fmt::Display for IndexPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexPredicate::Eq(v) => write!(f, "= {v}"),
            IndexPredicate::Range { lo, hi } => {
                match lo {
                    Some((v, true)) => write!(f, ">= {v}")?,
                    Some((v, false)) => write!(f, "> {v}")?,
                    None => {}
                }
                if lo.is_some() && hi.is_some() {
                    write!(f, " AND ")?;
                }
                match hi {
                    Some((v, true)) => write!(f, "<= {v}")?,
                    Some((v, false)) => write!(f, "< {v}")?,
                    None => {}
                }
                Ok(())
            }
        }
    }
}

/// Probe the index on `table.column`: the positions of the rows `pred`
/// selects, in index order, borrowed from the index.
pub(crate) fn index_positions<'a>(
    entry: &'a CatalogEntry,
    table: &str,
    column: &str,
    pred: &IndexPredicate,
) -> Result<&'a [u32]> {
    fn bound(b: &Option<(Value, bool)>) -> Bound<&Value> {
        match b {
            Some((v, true)) => Bound::Included(v),
            Some((v, false)) => Bound::Excluded(v),
            None => Bound::Unbounded,
        }
    }
    let index = entry
        .indexes
        .iter()
        .find(|i| i.column_name().eq_ignore_ascii_case(column))
        .ok_or_else(|| QccError::Execution(format!("index on {table}.{column} disappeared")))?;
    Ok(match pred {
        IndexPredicate::Eq(v) => index.lookup_eq(v),
        IndexPredicate::Range { lo, hi } => index.lookup_range(bound(lo), bound(hi)),
    })
}

/// One aggregate output of a hash-aggregate node.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Aggregate function.
    pub func: AggFunc,
    /// Input expression (`None` for `COUNT(*)`).
    pub arg: Option<CompiledExpr>,
    /// DISTINCT aggregation.
    pub distinct: bool,
}

/// A physical plan node.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Full table scan with an optional pushed-down predicate.
    SeqScan {
        /// Base table name.
        table: String,
        /// Binding (alias) name used to qualify output columns.
        binding: String,
        /// Output schema (qualified by `binding`).
        schema: Schema,
        /// Pushed-down predicate (compiled against the table schema).
        predicate: Option<CompiledExpr>,
        /// Estimated output rows.
        est_rows: f64,
    },
    /// Index access with an optional residual predicate.
    IndexScan {
        /// Base table name.
        table: String,
        /// Binding (alias) name.
        binding: String,
        /// Output schema (qualified by `binding`).
        schema: Schema,
        /// Indexed column name.
        column: String,
        /// Index probe predicate.
        pred: IndexPredicate,
        /// Residual predicate applied after the probe.
        residual: Option<CompiledExpr>,
        /// Estimated output rows.
        est_rows: f64,
    },
    /// Hash join on equality keys with an optional residual predicate
    /// (compiled against the concatenated schema).
    HashJoin {
        /// Build side.
        left: Box<PlanNode>,
        /// Probe side.
        right: Box<PlanNode>,
        /// Equality keys from the left schema.
        left_keys: Vec<CompiledExpr>,
        /// Equality keys from the right schema.
        right_keys: Vec<CompiledExpr>,
        /// Residual predicate over the joined row.
        residual: Option<CompiledExpr>,
        /// Joined schema (left ++ right).
        schema: Schema,
        /// Estimated output rows.
        est_rows: f64,
    },
    /// Nested-loop join (used when no equality keys exist).
    NestedLoopJoin {
        /// Outer side.
        left: Box<PlanNode>,
        /// Inner side.
        right: Box<PlanNode>,
        /// Join predicate over the joined row (None = cross join).
        predicate: Option<CompiledExpr>,
        /// Joined schema (left ++ right).
        schema: Schema,
        /// Estimated output rows.
        est_rows: f64,
    },
    /// Residual filter.
    Filter {
        /// Input plan.
        input: Box<PlanNode>,
        /// Predicate over the input schema.
        predicate: CompiledExpr,
        /// Estimated output rows.
        est_rows: f64,
    },
    /// Projection.
    Project {
        /// Input plan.
        input: Box<PlanNode>,
        /// Output expressions.
        exprs: Vec<CompiledExpr>,
        /// Output schema.
        schema: Schema,
    },
    /// Hash aggregation (grouped or global).
    HashAggregate {
        /// Input plan.
        input: Box<PlanNode>,
        /// Group-by key expressions (empty = single global group).
        group_by: Vec<CompiledExpr>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
        /// Output schema: group keys then aggregates.
        schema: Schema,
        /// Estimated output rows (groups).
        est_rows: f64,
    },
    /// Sort.
    Sort {
        /// Input plan.
        input: Box<PlanNode>,
        /// Sort keys with a descending flag.
        keys: Vec<(CompiledExpr, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<PlanNode>,
        /// Maximum rows.
        n: u64,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<PlanNode>,
        /// Estimated output rows.
        est_rows: f64,
    },
}

impl PlanNode {
    /// The node's output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            PlanNode::SeqScan { schema, .. }
            | PlanNode::IndexScan { schema, .. }
            | PlanNode::HashJoin { schema, .. }
            | PlanNode::NestedLoopJoin { schema, .. }
            | PlanNode::Project { schema, .. }
            | PlanNode::HashAggregate { schema, .. } => schema,
            PlanNode::Filter { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. }
            | PlanNode::Distinct { input, .. } => input.schema(),
        }
    }

    /// The node's estimated output cardinality.
    pub fn est_rows(&self) -> f64 {
        match self {
            PlanNode::SeqScan { est_rows, .. }
            | PlanNode::IndexScan { est_rows, .. }
            | PlanNode::HashJoin { est_rows, .. }
            | PlanNode::NestedLoopJoin { est_rows, .. }
            | PlanNode::Filter { est_rows, .. }
            | PlanNode::HashAggregate { est_rows, .. }
            | PlanNode::Distinct { est_rows, .. } => *est_rows,
            PlanNode::Project { input, .. } | PlanNode::Sort { input, .. } => input.est_rows(),
            PlanNode::Limit { input, n } => input.est_rows().min(*n as f64),
        }
    }

    /// Base tables referenced by the plan, in access order.
    pub fn base_tables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    /// `(table, column)` pairs of every index access in the plan. The
    /// remote-server load model uses these to charge index contention
    /// (B-tree pages hammered by a concurrent update workload).
    pub fn index_scans(&self) -> Vec<(&str, &str)> {
        let mut out = Vec::new();
        self.collect_index_scans(&mut out);
        out
    }

    fn collect_index_scans<'a>(&'a self, out: &mut Vec<(&'a str, &'a str)>) {
        match self {
            PlanNode::IndexScan { table, column, .. } => out.push((table, column)),
            PlanNode::SeqScan { .. } => {}
            PlanNode::HashJoin { left, right, .. }
            | PlanNode::NestedLoopJoin { left, right, .. } => {
                left.collect_index_scans(out);
                right.collect_index_scans(out);
            }
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::HashAggregate { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. }
            | PlanNode::Distinct { input, .. } => input.collect_index_scans(out),
        }
    }

    fn collect_tables<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            PlanNode::SeqScan { table, .. } | PlanNode::IndexScan { table, .. } => {
                out.push(table);
            }
            PlanNode::HashJoin { left, right, .. }
            | PlanNode::NestedLoopJoin { left, right, .. } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::HashAggregate { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. }
            | PlanNode::Distinct { input, .. } => input.collect_tables(out),
        }
    }

    /// A canonical one-line signature identifying the plan *shape* (used by
    /// the QCC to decide whether two fragment plans are identical and hence
    /// interchangeable for fragment-level load balancing, paper §4.1).
    pub fn signature(&self) -> String {
        match self {
            PlanNode::SeqScan {
                table, predicate, ..
            } => format!(
                "seqscan({table}{})",
                if predicate.is_some() { ",pred" } else { "" }
            ),
            PlanNode::IndexScan {
                table,
                column,
                pred,
                ..
            } => {
                // Shape only — literal probe values are excluded so that
                // different instances of the same query template share a
                // signature (and hence calibration history).
                let kind = match pred {
                    IndexPredicate::Eq(_) => "eq",
                    IndexPredicate::Range { .. } => "range",
                };
                format!("idxscan({table}.{column} {kind})")
            }
            PlanNode::HashJoin { left, right, .. } => {
                format!("hj({},{})", left.signature(), right.signature())
            }
            PlanNode::NestedLoopJoin { left, right, .. } => {
                format!("nlj({},{})", left.signature(), right.signature())
            }
            PlanNode::Filter { input, .. } => format!("filter({})", input.signature()),
            PlanNode::Project { input, .. } => format!("proj({})", input.signature()),
            PlanNode::HashAggregate {
                input, group_by, ..
            } => format!("agg[{}]({})", group_by.len(), input.signature()),
            PlanNode::Sort { input, .. } => format!("sort({})", input.signature()),
            PlanNode::Limit { input, n } => format!("limit[{n}]({})", input.signature()),
            PlanNode::Distinct { input, .. } => format!("distinct({})", input.signature()),
        }
    }

    fn fmt_indent(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            PlanNode::SeqScan {
                table,
                binding,
                predicate,
                est_rows,
                ..
            } => {
                write!(f, "{pad}SeqScan {table}")?;
                if binding != table {
                    write!(f, " AS {binding}")?;
                }
                if predicate.is_some() {
                    write!(f, " [filtered]")?;
                }
                writeln!(f, " (est {est_rows:.0} rows)")
            }
            PlanNode::IndexScan {
                table,
                column,
                pred,
                residual,
                est_rows,
                ..
            } => {
                write!(f, "{pad}IndexScan {table}.{column} {pred}")?;
                if residual.is_some() {
                    write!(f, " [residual]")?;
                }
                writeln!(f, " (est {est_rows:.0} rows)")
            }
            PlanNode::HashJoin {
                left,
                right,
                left_keys,
                est_rows,
                ..
            } => {
                writeln!(
                    f,
                    "{pad}HashJoin on {} key(s) (est {est_rows:.0} rows)",
                    left_keys.len()
                )?;
                left.fmt_indent(f, indent + 1)?;
                right.fmt_indent(f, indent + 1)
            }
            PlanNode::NestedLoopJoin {
                left,
                right,
                predicate,
                est_rows,
                ..
            } => {
                writeln!(
                    f,
                    "{pad}NestedLoopJoin{} (est {est_rows:.0} rows)",
                    if predicate.is_some() { "" } else { " [cross]" }
                )?;
                left.fmt_indent(f, indent + 1)?;
                right.fmt_indent(f, indent + 1)
            }
            PlanNode::Filter {
                input, est_rows, ..
            } => {
                writeln!(f, "{pad}Filter (est {est_rows:.0} rows)")?;
                input.fmt_indent(f, indent + 1)
            }
            PlanNode::Project { input, exprs, .. } => {
                writeln!(f, "{pad}Project [{} exprs]", exprs.len())?;
                input.fmt_indent(f, indent + 1)
            }
            PlanNode::HashAggregate {
                input,
                group_by,
                aggs,
                est_rows,
                ..
            } => {
                writeln!(
                    f,
                    "{pad}HashAggregate [{} keys, {} aggs] (est {est_rows:.0} groups)",
                    group_by.len(),
                    aggs.len()
                )?;
                input.fmt_indent(f, indent + 1)
            }
            PlanNode::Sort { input, keys } => {
                writeln!(f, "{pad}Sort [{} keys]", keys.len())?;
                input.fmt_indent(f, indent + 1)
            }
            PlanNode::Limit { input, n } => {
                writeln!(f, "{pad}Limit {n}")?;
                input.fmt_indent(f, indent + 1)
            }
            PlanNode::Distinct { input, .. } => {
                writeln!(f, "{pad}Distinct")?;
                input.fmt_indent(f, indent + 1)
            }
        }
    }
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indent(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{Column, DataType};

    fn scan(table: &str, est: f64) -> PlanNode {
        PlanNode::SeqScan {
            table: table.into(),
            binding: table.into(),
            schema: Schema::new(vec![Column::qualified(table, "a", DataType::Int)]),
            predicate: None,
            est_rows: est,
        }
    }

    #[test]
    fn schema_delegation() {
        let s = scan("t", 10.0);
        let lim = PlanNode::Limit {
            input: Box::new(s),
            n: 3,
        };
        assert_eq!(lim.schema().len(), 1);
        assert_eq!(lim.est_rows(), 3.0, "limit caps estimate");
    }

    #[test]
    fn base_tables_in_order() {
        let j = PlanNode::NestedLoopJoin {
            schema: scan("a", 1.0).schema().join(scan("b", 1.0).schema()),
            left: Box::new(scan("a", 1.0)),
            right: Box::new(scan("b", 1.0)),
            predicate: None,
            est_rows: 1.0,
        };
        assert_eq!(j.base_tables(), vec!["a", "b"]);
    }

    #[test]
    fn signatures_distinguish_access_paths() {
        let seq = scan("t", 10.0);
        let idx = PlanNode::IndexScan {
            table: "t".into(),
            binding: "t".into(),
            schema: Schema::new(vec![Column::qualified("t", "a", DataType::Int)]),
            column: "a".into(),
            pred: IndexPredicate::Eq(Value::Int(5)),
            residual: None,
            est_rows: 1.0,
        };
        assert_ne!(seq.signature(), idx.signature());
    }

    #[test]
    fn display_renders_tree() {
        let j = PlanNode::HashJoin {
            schema: scan("a", 1.0).schema().join(scan("b", 1.0).schema()),
            left: Box::new(scan("a", 100.0)),
            right: Box::new(scan("b", 200.0)),
            left_keys: vec![CompiledExpr::Column(0)],
            right_keys: vec![CompiledExpr::Column(0)],
            residual: None,
            est_rows: 150.0,
        };
        let text = j.to_string();
        assert!(text.contains("HashJoin"));
        assert!(text.contains("SeqScan a"));
        assert!(text.contains("SeqScan b"));
    }
}

//! Cost estimation.
//!
//! Costs are expressed in "optimizer units"; the simulation layers define
//! one unit as one virtual millisecond on an unloaded server of speed 1.0.
//! Every estimate is decomposed into the paper's first-tuple / next-tuple /
//! cardinality triple so the federation layer and the QCC can calibrate
//! the same quantities DB2 II exposes (§3).

use crate::plan::{IndexPredicate, PlanNode};
use qcc_common::{Cost, Schema};
use qcc_sql::{BinaryOp, Expr};
use qcc_storage::{Catalog, TableStats};

/// Tunable per-operation work constants. The defaults are chosen so a full
/// scan of a 100 000-row table costs ≈ 25 units (≈ 25 virtual ms unloaded).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Per-row sequential scan cost.
    pub scan_row: f64,
    /// Per-predicate-node evaluation cost (per row).
    pub pred_node: f64,
    /// Per-row hash table build cost.
    pub hash_build_row: f64,
    /// Per-row hash table probe cost.
    pub hash_probe_row: f64,
    /// Per-output-row materialization cost.
    pub output_row: f64,
    /// Per-row aggregation cost.
    pub agg_row: f64,
    /// Sort cost multiplier (applied to n·log2 n).
    pub sort_row_log: f64,
    /// Fixed cost of an index probe.
    pub index_probe: f64,
    /// Per-matched-row index fetch cost.
    pub index_match_row: f64,
    /// Fixed plan startup cost (dispatch, latching, buffer setup).
    pub startup: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            scan_row: 0.00025,
            pred_node: 0.00003,
            hash_build_row: 0.0005,
            hash_probe_row: 0.0003,
            output_row: 0.0002,
            agg_row: 0.0004,
            sort_row_log: 0.00006,
            index_probe: 0.05,
            index_match_row: 0.0006,
            startup: 0.5,
        }
    }
}

/// Default selectivity for predicates the estimator cannot analyze.
pub const DEFAULT_SELECTIVITY: f64 = 0.33;
/// Default selectivity of a LIKE predicate.
pub const LIKE_SELECTIVITY: f64 = 0.1;

/// Estimate the selectivity of a single conjunct over one table, given the
/// table's statistics and its (unqualified) base schema.
pub fn conjunct_selectivity(expr: &Expr, stats: &TableStats, schema: &Schema) -> f64 {
    match expr {
        Expr::Binary { op, left, right } if op.is_comparison() => {
            // Normalize to column <op> literal.
            let (col, lit, op) = match (&**left, &**right) {
                (Expr::Column { name, .. }, Expr::Literal(v)) => (name, v, *op),
                (Expr::Literal(v), Expr::Column { name, .. }) => (name, v, flip(*op)),
                _ => return DEFAULT_SELECTIVITY,
            };
            let Ok(idx) = schema.resolve(None, col) else {
                return DEFAULT_SELECTIVITY;
            };
            let cstats = &stats.columns[idx];
            match op {
                BinaryOp::Eq => cstats.selectivity_eq(stats.row_count),
                BinaryOp::NotEq => 1.0 - cstats.selectivity_eq(stats.row_count),
                BinaryOp::Lt | BinaryOp::LtEq => match (&cstats.histogram, lit.as_f64()) {
                    (Some(h), Some(x)) => h.selectivity_le(x),
                    _ => DEFAULT_SELECTIVITY,
                },
                BinaryOp::Gt | BinaryOp::GtEq => match (&cstats.histogram, lit.as_f64()) {
                    (Some(h), Some(x)) => 1.0 - h.selectivity_le(x),
                    _ => DEFAULT_SELECTIVITY,
                },
                _ => DEFAULT_SELECTIVITY,
            }
        }
        Expr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => conjunct_selectivity(left, stats, schema) * conjunct_selectivity(right, stats, schema),
        Expr::Binary {
            op: BinaryOp::Or,
            left,
            right,
        } => {
            let a = conjunct_selectivity(left, stats, schema);
            let b = conjunct_selectivity(right, stats, schema);
            (a + b - a * b).clamp(0.0, 1.0)
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            if let (Expr::Column { name, .. }, Expr::Literal(lo), Expr::Literal(hi)) =
                (&**expr, &**low, &**high)
            {
                if let Ok(idx) = schema.resolve(None, name) {
                    if let Some(h) = &stats.columns[idx].histogram {
                        return h.selectivity_range(lo.as_f64(), hi.as_f64());
                    }
                }
            }
            DEFAULT_SELECTIVITY
        }
        Expr::InList { expr, list, .. } => {
            if let Expr::Column { name, .. } = &**expr {
                if let Ok(idx) = schema.resolve(None, name) {
                    let per_value = stats.columns[idx].selectivity_eq(stats.row_count);
                    return (per_value * list.len() as f64).clamp(0.0, 1.0);
                }
            }
            DEFAULT_SELECTIVITY
        }
        Expr::Like { .. } => LIKE_SELECTIVITY,
        Expr::IsNull { expr, negated } => {
            if let Expr::Column { name, .. } = &**expr {
                if let Ok(idx) = schema.resolve(None, name) {
                    if stats.row_count > 0 {
                        let frac = stats.columns[idx].null_count as f64 / stats.row_count as f64;
                        return if *negated { 1.0 - frac } else { frac };
                    }
                }
            }
            DEFAULT_SELECTIVITY
        }
        Expr::Unary {
            op: qcc_sql::UnaryOp::Not,
            expr,
        } => 1.0 - conjunct_selectivity(expr, stats, schema),
        _ => DEFAULT_SELECTIVITY,
    }
}

fn flip(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// Estimated selectivity of an index predicate (used for index-path costing).
pub fn index_pred_selectivity(pred: &IndexPredicate, stats: &TableStats, col_idx: usize) -> f64 {
    let cstats = &stats.columns[col_idx];
    match pred {
        IndexPredicate::Eq(_) => cstats.selectivity_eq(stats.row_count),
        IndexPredicate::Range { lo, hi } => match &cstats.histogram {
            Some(h) => {
                let lo_f = lo.as_ref().and_then(|(v, _)| v.as_f64());
                let hi_f = hi.as_ref().and_then(|(v, _)| v.as_f64());
                h.selectivity_range(lo_f, hi_f)
            }
            None => DEFAULT_SELECTIVITY,
        },
    }
}

/// Estimate the cost of a physical plan. The estimates rely on the
/// cardinalities (`est_rows`) the planner attached at build time; actual
/// executions can and do diverge — which is precisely the signal the QCC
/// calibrates on.
pub fn estimate_plan(plan: &PlanNode, catalog: &Catalog, m: &CostModel) -> Cost {
    let c = cost_rec(plan, catalog, m);
    // Charge plan startup once, at the root.
    Cost {
        first_tuple: c.first_tuple + m.startup,
        ..c
    }
}

fn pred_cost(nodes: usize, m: &CostModel) -> f64 {
    nodes as f64 * m.pred_node
}

fn cost_rec(plan: &PlanNode, catalog: &Catalog, m: &CostModel) -> Cost {
    match plan {
        PlanNode::SeqScan {
            table,
            predicate,
            est_rows,
            ..
        } => {
            let base_rows = catalog
                .entry(table)
                .map(|e| e.stats.row_count as f64)
                .unwrap_or(0.0);
            let per_row = m.scan_row
                + predicate
                    .as_ref()
                    .map_or(0.0, |p| pred_cost(p.node_count(), m));
            // The scan reads every base row; output cardinality is est_rows.
            let total_work = base_rows * per_row + est_rows * m.output_row;
            let card = est_rows.max(1.0);
            Cost {
                first_tuple: 0.0,
                next_tuple: total_work / card,
                cardinality: *est_rows,
            }
        }
        PlanNode::IndexScan {
            residual, est_rows, ..
        } => {
            let per_match = m.index_match_row
                + residual
                    .as_ref()
                    .map_or(0.0, |p| pred_cost(p.node_count(), m))
                + m.output_row;
            Cost {
                first_tuple: m.index_probe,
                next_tuple: per_match,
                cardinality: *est_rows,
            }
        }
        PlanNode::HashJoin {
            left,
            right,
            residual,
            est_rows,
            ..
        } => {
            let lc = cost_rec(left, catalog, m);
            let rc = cost_rec(right, catalog, m);
            let build = left.est_rows() * m.hash_build_row;
            let probe = right.est_rows() * m.hash_probe_row;
            let residual_work = residual
                .as_ref()
                .map_or(0.0, |p| est_rows * pred_cost(p.node_count(), m));
            let emit = est_rows * m.output_row;
            // Build side is consumed before the first output tuple.
            let first = lc.total() + build + rc.first_tuple;
            let tail = rc.total() - rc.first_tuple + probe + residual_work + emit;
            let card = est_rows.max(1.0);
            Cost {
                first_tuple: first,
                next_tuple: tail.max(0.0) / card,
                cardinality: *est_rows,
            }
        }
        PlanNode::NestedLoopJoin {
            left,
            right,
            predicate,
            est_rows,
            ..
        } => {
            let lc = cost_rec(left, catalog, m);
            let rc = cost_rec(right, catalog, m);
            let pairs = left.est_rows() * right.est_rows();
            let pair_work = pairs
                * (m.hash_probe_row
                    + predicate
                        .as_ref()
                        .map_or(0.0, |p| pred_cost(p.node_count(), m)));
            let emit = est_rows * m.output_row;
            let first = lc.total() + rc.total();
            let card = est_rows.max(1.0);
            Cost {
                first_tuple: first,
                next_tuple: (pair_work + emit) / card,
                cardinality: *est_rows,
            }
        }
        PlanNode::Filter {
            input,
            predicate,
            est_rows,
        } => {
            let ic = cost_rec(input, catalog, m);
            let work = input.est_rows() * pred_cost(predicate.node_count(), m);
            let card = est_rows.max(1.0);
            Cost {
                first_tuple: ic.first_tuple,
                next_tuple: (ic.next_tuple * ic.cardinality.max(1.0) + work) / card,
                cardinality: *est_rows,
            }
        }
        PlanNode::Project { input, exprs, .. } => {
            let ic = cost_rec(input, catalog, m);
            let nodes: usize = exprs.iter().map(|e| e.node_count()).sum();
            Cost {
                first_tuple: ic.first_tuple,
                next_tuple: ic.next_tuple + pred_cost(nodes, m),
                cardinality: ic.cardinality,
            }
        }
        PlanNode::HashAggregate {
            input,
            aggs,
            est_rows,
            ..
        } => {
            let ic = cost_rec(input, catalog, m);
            let per_row = m.agg_row * (1 + aggs.len()) as f64;
            // Aggregation is blocking: everything happens before tuple one.
            let first = ic.total() + input.est_rows() * per_row;
            let card = est_rows.max(1.0);
            Cost {
                first_tuple: first,
                next_tuple: m.output_row,
                cardinality: card,
            }
        }
        PlanNode::Sort { input, .. } => {
            let ic = cost_rec(input, catalog, m);
            let n = input.est_rows().max(2.0);
            let first = ic.total() + m.sort_row_log * n * n.log2();
            Cost {
                first_tuple: first,
                next_tuple: m.output_row,
                cardinality: ic.cardinality,
            }
        }
        PlanNode::Limit { input, n } => {
            let ic = cost_rec(input, catalog, m);
            let card = (ic.cardinality).min(*n as f64);
            Cost {
                first_tuple: ic.first_tuple,
                next_tuple: ic.next_tuple,
                cardinality: card,
            }
        }
        PlanNode::Distinct { input, est_rows } => {
            let ic = cost_rec(input, catalog, m);
            let first = ic.total() + input.est_rows() * m.hash_build_row;
            Cost {
                first_tuple: first,
                next_tuple: m.output_row,
                cardinality: *est_rows,
            }
        }
    }
}

/// Estimated number of groups for an aggregation, following the classic
/// "product of distinct counts, capped by half the input" rule.
pub fn estimate_groups(input_rows: f64, key_distincts: &[f64]) -> f64 {
    if key_distincts.is_empty() {
        return 1.0;
    }
    let product: f64 = key_distincts.iter().product();
    product.min(input_rows / 2.0).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{Column, DataType, Row, Value};
    use qcc_storage::Table;

    fn catalog_with(rows: i64) -> Catalog {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("v", DataType::Int),
            ]),
        );
        for i in 0..rows {
            t.insert(Row::new(vec![Value::Int(i), Value::Int(i % 10)]))
                .unwrap();
        }
        let mut c = Catalog::new();
        c.register(t);
        c
    }

    fn scan(catalog: &Catalog, est: f64) -> PlanNode {
        let schema = catalog.entry("t").unwrap().table.schema().qualify("t");
        PlanNode::SeqScan {
            table: "t".into(),
            binding: "t".into(),
            schema,
            predicate: None,
            est_rows: est,
        }
    }

    #[test]
    fn scan_cost_scales_with_base_rows() {
        let small = catalog_with(100);
        let large = catalog_with(10_000);
        let m = CostModel::default();
        let cs = estimate_plan(&scan(&small, 100.0), &small, &m);
        let cl = estimate_plan(&scan(&large, 10_000.0), &large, &m);
        // Compare the data-dependent part (startup is charged equally).
        assert!(cl.total() - m.startup > (cs.total() - m.startup) * 10.0);
    }

    #[test]
    fn startup_charged_once_at_root() {
        let c = catalog_with(10);
        let m = CostModel::default();
        let inner = scan(&c, 10.0);
        let lim = PlanNode::Limit {
            input: Box::new(inner.clone()),
            n: 5,
        };
        let base = estimate_plan(&inner, &c, &m);
        let with_limit = estimate_plan(&lim, &c, &m);
        // Limit reduces cardinality but does not double the startup.
        assert!(with_limit.first_tuple < base.first_tuple + m.startup);
        assert_eq!(with_limit.cardinality, 5.0);
    }

    #[test]
    fn index_scan_cheaper_when_selective() {
        let c = catalog_with(100_000);
        let m = CostModel::default();
        let seq = scan(&c, 10.0);
        let schema = c.entry("t").unwrap().table.schema().qualify("t");
        let idx = PlanNode::IndexScan {
            table: "t".into(),
            binding: "t".into(),
            schema,
            column: "id".into(),
            pred: IndexPredicate::Eq(Value::Int(5)),
            residual: None,
            est_rows: 10.0,
        };
        let seq_cost = estimate_plan(&seq, &c, &m);
        let idx_cost = estimate_plan(&idx, &c, &m);
        assert!(
            idx_cost.total() < seq_cost.total() / 10.0,
            "idx {idx_cost} vs seq {seq_cost}"
        );
    }

    #[test]
    fn aggregation_is_blocking() {
        let c = catalog_with(1000);
        let m = CostModel::default();
        let agg = PlanNode::HashAggregate {
            input: Box::new(scan(&c, 1000.0)),
            group_by: vec![],
            aggs: vec![],
            schema: Schema::empty(),
            est_rows: 1.0,
        };
        let cost = estimate_plan(&agg, &c, &m);
        // First-tuple cost dominates: nearly everything happens up front.
        assert!(cost.first_tuple > 0.9 * cost.total());
    }

    #[test]
    fn eq_selectivity_via_stats() {
        let c = catalog_with(1000);
        let entry = c.entry("t").unwrap();
        let sel = conjunct_selectivity(
            &Expr::binary(BinaryOp::Eq, Expr::col("v"), Expr::lit(3i64)),
            &entry.stats,
            entry.table.schema(),
        );
        assert!((sel - 0.1).abs() < 0.01, "10 distinct values, sel {sel}");
    }

    #[test]
    fn range_selectivity_via_histogram() {
        let c = catalog_with(1000);
        let entry = c.entry("t").unwrap();
        let sel = conjunct_selectivity(
            &Expr::binary(BinaryOp::Gt, Expr::col("id"), Expr::lit(500i64)),
            &entry.stats,
            entry.table.schema(),
        );
        assert!((sel - 0.5).abs() < 0.1, "sel {sel}");
        // Flipped literal-first form.
        let sel2 = conjunct_selectivity(
            &Expr::binary(BinaryOp::Gt, Expr::lit(500i64), Expr::col("id")),
            &entry.stats,
            entry.table.schema(),
        );
        assert!((sel2 - 0.5).abs() < 0.1, "flipped sel {sel2}");
        assert!((sel + sel2 - 1.0).abs() < 0.05, "complementary");
    }

    #[test]
    fn and_or_combinators() {
        let c = catalog_with(1000);
        let entry = c.entry("t").unwrap();
        let eq = Expr::binary(BinaryOp::Eq, Expr::col("v"), Expr::lit(3i64));
        let and = Expr::binary(BinaryOp::And, eq.clone(), eq.clone());
        let or = Expr::binary(BinaryOp::Or, eq.clone(), eq.clone());
        let s_eq = conjunct_selectivity(&eq, &entry.stats, entry.table.schema());
        let s_and = conjunct_selectivity(&and, &entry.stats, entry.table.schema());
        let s_or = conjunct_selectivity(&or, &entry.stats, entry.table.schema());
        assert!(s_and < s_eq && s_eq < s_or + 1e-12);
    }

    #[test]
    fn estimate_groups_caps() {
        assert_eq!(estimate_groups(1000.0, &[]), 1.0);
        assert_eq!(estimate_groups(1000.0, &[10.0]), 10.0);
        assert_eq!(
            estimate_groups(1000.0, &[100.0, 100.0]),
            500.0,
            "capped at half"
        );
    }
}

//! Row-at-a-time executor (the pre-columnar engine), kept as a reference
//! implementation.
//!
//! [`execute_rows`] materializes a `Vec<Row>` at every plan node, exactly
//! as the engine did before the vectorized executor in [`crate::exec`]
//! replaced it on the serving path. It remains here for two reasons:
//!
//! * the row-vs-columnar equivalence property (`engine_vs_naive_prop`)
//!   asserts both engines produce identical rows *and* bit-identical
//!   [`Work`] records on random plans, pinning the virtual-time contract;
//! * the `columnar_speedup` bench measures the wall-clock gap between the
//!   two executors over the same columnar storage.
//!
//! The operator algorithms here share nothing with `exec.rs`. What must
//! agree to the bit is shared instead: the charge formulas
//! ([`crate::work`]), the scalar evaluator ([`crate::vexpr`]) and the index
//! probe. The order of the ledger calls below is the normative one.

use crate::cost::CostModel;
use crate::expr::{AggAccumulator, CompiledExpr};
use crate::plan::{index_positions, AggSpec, PlanNode};
use crate::work::{Ledger, Work};
use qcc_common::{QccError, Result, Row, Value};
use qcc_storage::Catalog;
use std::collections::HashMap;

/// Execute a plan row-at-a-time against a catalog.
pub fn execute_rows(plan: &PlanNode, catalog: &Catalog, m: &CostModel) -> Result<(Vec<Row>, Work)> {
    let mut work = Ledger::start(m);
    let rows = exec_node(plan, catalog, &mut work)?;
    let result_bytes = rows.iter().map(|r| r.byte_width() as u64).sum();
    let work = work.finish(rows.len() as u64, result_bytes);
    Ok((rows, work))
}

fn exec_node(plan: &PlanNode, catalog: &Catalog, work: &mut Ledger<'_>) -> Result<Vec<Row>> {
    match plan {
        PlanNode::SeqScan {
            table, predicate, ..
        } => {
            let entry = catalog.entry(table)?;
            let base = entry.table.rows();
            work.seq_scan(base.len(), predicate.as_ref().map(CompiledExpr::node_count));
            let out: Vec<Row> = match predicate {
                None => base,
                Some(p) => base.into_iter().filter(|r| p.eval_predicate(r)).collect(),
            };
            work.emit(out.len());
            Ok(out)
        }
        PlanNode::IndexScan {
            table,
            column,
            pred,
            residual,
            ..
        } => {
            let entry = catalog.entry(table)?;
            work.index_probe();
            let positions = index_positions(entry, table, column, pred)?;
            work.index_matches(positions.len());
            let mut out = Vec::with_capacity(positions.len());
            for pos in positions {
                let row = entry.table.row_at(pos as usize).ok_or_else(|| {
                    QccError::Execution(format!("index position {pos} out of range"))
                })?;
                if let Some(p) = residual {
                    work.residual_check(p.node_count());
                    if !p.eval_predicate(&row) {
                        continue;
                    }
                }
                out.push(row);
            }
            work.emit(out.len());
            Ok(out)
        }
        PlanNode::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            ..
        } => {
            let build = exec_node(left, catalog, work)?;
            let probe = exec_node(right, catalog, work)?;
            work.hash_join_sides(build.len(), probe.len());
            let mut table: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
            for row in &build {
                let key: Vec<Value> = left_keys.iter().map(|k| k.eval(row)).collect();
                if key.iter().any(Value::is_null) {
                    continue; // NULL keys never join.
                }
                table.entry(key).or_default().push(row);
            }
            let mut out = Vec::new();
            for row in &probe {
                let key: Vec<Value> = right_keys.iter().map(|k| k.eval(row)).collect();
                if key.iter().any(Value::is_null) {
                    continue;
                }
                if let Some(matches) = table.get(&key) {
                    for b in matches {
                        let joined = b.join(row);
                        if let Some(p) = residual {
                            work.residual_check(p.node_count());
                            if !p.eval_predicate(&joined) {
                                continue;
                            }
                        }
                        work.emit(1);
                        out.push(joined);
                    }
                }
            }
            Ok(out)
        }
        PlanNode::NestedLoopJoin {
            left,
            right,
            predicate,
            ..
        } => {
            let outer = exec_node(left, catalog, work)?;
            let inner = exec_node(right, catalog, work)?;
            work.nested_loop_pairs(
                outer.len(),
                inner.len(),
                predicate.as_ref().map(CompiledExpr::node_count),
            );
            let mut out = Vec::new();
            for l in &outer {
                for r in &inner {
                    let joined = l.join(r);
                    let keep = predicate.as_ref().is_none_or(|p| p.eval_predicate(&joined));
                    if keep {
                        work.emit(1);
                        out.push(joined);
                    }
                }
            }
            Ok(out)
        }
        PlanNode::Filter {
            input, predicate, ..
        } => {
            let rows = exec_node(input, catalog, work)?;
            work.filter(rows.len(), predicate.node_count());
            Ok(rows
                .into_iter()
                .filter(|r| predicate.eval_predicate(r))
                .collect())
        }
        PlanNode::Project { input, exprs, .. } => {
            let rows = exec_node(input, catalog, work)?;
            let nodes: usize = exprs.iter().map(CompiledExpr::node_count).sum();
            work.project(rows.len(), nodes);
            Ok(rows
                .iter()
                .map(|r| Row::new(exprs.iter().map(|e| e.eval(r)).collect()))
                .collect())
        }
        PlanNode::HashAggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            let rows = exec_node(input, catalog, work)?;
            work.aggregate_input(rows.len(), aggs.len());
            exec_aggregate(&rows, group_by, aggs, work)
        }
        PlanNode::Sort { input, keys } => {
            let mut rows = exec_node(input, catalog, work)?;
            work.sort(rows.len());
            rows.sort_by(|a, b| {
                for (k, desc) in keys {
                    let va = k.eval(a);
                    let vb = k.eval(b);
                    let ord = va.total_cmp(&vb);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(rows)
        }
        PlanNode::Limit { input, n } => {
            let mut rows = exec_node(input, catalog, work)?;
            rows.truncate(*n as usize);
            Ok(rows)
        }
        PlanNode::Distinct { input, .. } => {
            let rows = exec_node(input, catalog, work)?;
            work.distinct(rows.len());
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for r in rows {
                if seen.insert(r.clone()) {
                    out.push(r); // Order-preserving: first occurrence wins.
                }
            }
            Ok(out)
        }
    }
}

fn exec_aggregate(
    rows: &[Row],
    group_by: &[CompiledExpr],
    aggs: &[AggSpec],
    work: &mut Ledger<'_>,
) -> Result<Vec<Row>> {
    // Group rows preserving first-seen key order for determinism.
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Vec<AggAccumulator>> = HashMap::new();
    let make_accs = || -> Vec<AggAccumulator> {
        aggs.iter()
            .map(|a| AggAccumulator::new(a.func, a.distinct))
            .collect()
    };

    if group_by.is_empty() {
        // Global aggregation always yields exactly one row.
        let mut accs = make_accs();
        for row in rows {
            feed(&mut accs, aggs, row);
        }
        let values: Vec<Value> = accs.iter().map(AggAccumulator::finish).collect();
        work.emit(1);
        return Ok(vec![Row::new(values)]);
    }

    for row in rows {
        let key: Vec<Value> = group_by.iter().map(|k| k.eval(row)).collect();
        let accs = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            make_accs()
        });
        feed(accs, aggs, row);
    }
    work.emit(order.len());
    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let accs = groups
            .remove(&key)
            .ok_or_else(|| QccError::Execution("aggregation group vanished".into()))?;
        let mut values = key;
        values.extend(accs.iter().map(AggAccumulator::finish));
        out.push(Row::new(values));
    }
    Ok(out)
}

fn feed(accs: &mut [AggAccumulator], aggs: &[AggSpec], row: &Row) {
    for (acc, spec) in accs.iter_mut().zip(aggs) {
        match &spec.arg {
            None => acc.push(None),
            Some(e) => {
                let v = e.eval(row);
                acc.push(Some(&v));
            }
        }
    }
}

//! Query planner: AST → candidate physical plans.
//!
//! The planner performs predicate pushdown, greedy join ordering by
//! estimated cardinality, and access-path enumeration (sequential vs index
//! scan). It returns *multiple* candidate plans when alternative access
//! paths exist, because the paper's wrappers expose several execution plans
//! per query fragment to the federated optimizer (`QF1_p1`, `QF1_p2`, ...).

use crate::cost::{conjunct_selectivity, estimate_groups, index_pred_selectivity};
use crate::expr::{compile, CompiledExpr};
use crate::plan::{AggSpec, IndexPredicate, PlanNode};
use qcc_common::{Column, DataType, QccError, Result, Schema};
use qcc_sql::{BinaryOp, Expr, SelectItem, SelectStmt};
use std::collections::BTreeSet;

/// Most candidate plans one statement offers.
const MAX_PLANS: usize = 6;

/// One bound FROM-list table.
#[derive(Debug, Clone)]
struct Binding {
    /// Binding (alias) name — qualifies output columns.
    name: String,
    /// Underlying base table.
    table: String,
    /// Schema qualified by the binding name.
    schema: Schema,
}

/// An equi-join edge between two bindings.
#[derive(Debug, Clone)]
struct JoinEdge {
    left_binding: String,
    left_col: Expr,
    right_binding: String,
    right_col: Expr,
}

/// Plan a query, returning candidate plans (unsorted; the engine ranks them
/// by estimated cost).
pub fn plan_query(stmt: &SelectStmt, catalog: &qcc_storage::Catalog) -> Result<Vec<PlanNode>> {
    let bindings = bind_tables(stmt, catalog)?;

    // Gather and qualify all conjuncts from WHERE and JOIN ... ON.
    let mut conjuncts: Vec<Expr> = Vec::new();
    if let Some(w) = &stmt.where_clause {
        split_and(w, &mut conjuncts);
    }
    for j in &stmt.joins {
        split_and(&j.on, &mut conjuncts);
    }
    let conjuncts: Vec<Expr> = conjuncts
        .iter()
        .map(|c| qualify_expr(c, &bindings))
        .collect::<Result<_>>()?;

    // Classify conjuncts.
    let mut table_preds: Vec<Vec<Expr>> = vec![Vec::new(); bindings.len()];
    let mut edges: Vec<JoinEdge> = Vec::new();
    let mut residuals: Vec<Expr> = Vec::new();
    for c in conjuncts {
        let refs = binding_refs(&c);
        if let Some(target) = refs.iter().next().filter(|_| refs.len() == 1) {
            let b = bindings
                .iter()
                .position(|bd| bd.name.eq_ignore_ascii_case(target))
                .ok_or_else(|| {
                    QccError::Planning(format!("predicate references unbound table '{target}'"))
                })?;
            table_preds[b].push(c);
        } else if let Some(edge) = as_equi_edge(&c) {
            edges.push(edge);
        } else {
            residuals.push(c);
        }
    }

    // Enumerate access-path combinations.
    let paths: Vec<Vec<AccessPath>> = bindings
        .iter()
        .enumerate()
        .map(|(i, b)| access_paths(b, &table_preds[i], catalog))
        .collect::<Result<_>>()?;
    let combos = path_combinations(&paths, MAX_PLANS);

    let mut plans = Vec::with_capacity(combos.len());
    for combo in combos {
        let scans: Vec<PlanNode> = combo.into_iter().map(|p| p.plan).collect();
        let joined = join_order(scans, &bindings, &edges, &residuals, catalog)?;
        let full = finish_plan(stmt, joined, &bindings, catalog)?;
        plans.push(full);
    }
    Ok(plans)
}

// ---------------------------------------------------------------------------
// Binding and qualification
// ---------------------------------------------------------------------------

fn bind_tables(stmt: &SelectStmt, catalog: &qcc_storage::Catalog) -> Result<Vec<Binding>> {
    let mut bindings = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for t in stmt.tables() {
        let entry = catalog.entry(&t.name)?;
        let name = t.binding_name().to_owned();
        if !seen.insert(name.to_ascii_lowercase()) {
            return Err(QccError::Planning(format!(
                "duplicate table binding '{name}'"
            )));
        }
        bindings.push(Binding {
            schema: entry.table.schema().qualify(&name),
            name,
            table: t.name.clone(),
        });
    }
    Ok(bindings)
}

/// Rewrite every column reference to its fully-qualified form, erroring on
/// unknown or ambiguous names.
fn qualify_expr(expr: &Expr, bindings: &[Binding]) -> Result<Expr> {
    Ok(match expr {
        Expr::Column { table, name } => {
            let mut matched: Option<&Binding> = None;
            for b in bindings {
                let hit = match table {
                    Some(t) => b.name.eq_ignore_ascii_case(t),
                    None => b.schema.resolve(None, name).is_ok(),
                };
                if hit {
                    if table.is_none() && matched.is_some() {
                        return Err(QccError::AmbiguousColumn(name.clone()));
                    }
                    matched = Some(b);
                    if table.is_some() {
                        break;
                    }
                }
            }
            let b = matched.ok_or_else(|| QccError::UnknownColumn(name.clone()))?;
            // Verify the column really exists under that binding.
            b.schema.resolve(Some(&b.name), name)?;
            Expr::Column {
                table: Some(b.name.clone()),
                name: name.clone(),
            }
        }
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(qualify_expr(left, bindings)?),
            right: Box::new(qualify_expr(right, bindings)?),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(qualify_expr(expr, bindings)?),
        },
        Expr::Agg {
            func,
            arg,
            distinct,
        } => Expr::Agg {
            func: *func,
            arg: match arg {
                Some(a) => Some(Box::new(qualify_expr(a, bindings)?)),
                None => None,
            },
            distinct: *distinct,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(qualify_expr(expr, bindings)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(qualify_expr(expr, bindings)?),
            list: list
                .iter()
                .map(|e| qualify_expr(e, bindings))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(qualify_expr(expr, bindings)?),
            low: Box::new(qualify_expr(low, bindings)?),
            high: Box::new(qualify_expr(high, bindings)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(qualify_expr(expr, bindings)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
    })
}

/// The set of binding names a (qualified) expression references.
fn binding_refs(expr: &Expr) -> BTreeSet<String> {
    let mut cols = Vec::new();
    expr.collect_columns(&mut cols);
    cols.into_iter()
        .filter_map(|(t, _)| t.as_ref().map(|s| s.to_ascii_lowercase()))
        .collect()
}

fn split_and(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            split_and(left, out);
            split_and(right, out);
        }
        other => out.push(other.clone()),
    }
}

fn as_equi_edge(expr: &Expr) -> Option<JoinEdge> {
    if let Expr::Binary {
        op: BinaryOp::Eq,
        left,
        right,
    } = expr
    {
        if let (
            Expr::Column {
                table: Some(lt), ..
            },
            Expr::Column {
                table: Some(rt), ..
            },
        ) = (&**left, &**right)
        {
            if !lt.eq_ignore_ascii_case(rt) {
                return Some(JoinEdge {
                    left_binding: lt.to_ascii_lowercase(),
                    left_col: (**left).clone(),
                    right_binding: rt.to_ascii_lowercase(),
                    right_col: (**right).clone(),
                });
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Access paths
// ---------------------------------------------------------------------------

struct AccessPath {
    plan: PlanNode,
}

fn access_paths(
    binding: &Binding,
    preds: &[Expr],
    catalog: &qcc_storage::Catalog,
) -> Result<Vec<AccessPath>> {
    let entry = catalog.entry(&binding.table)?;
    let stats = &entry.stats;
    let base_schema = entry.table.schema();

    // Selectivity of all pushed predicates combined.
    let sel: f64 = preds
        .iter()
        .map(|p| conjunct_selectivity(p, stats, base_schema))
        .product();
    let est_rows = (stats.row_count as f64 * sel).max(0.0);

    let combined = combine_and(preds);
    let compiled = match &combined {
        Some(p) => Some(compile(p, &binding.schema)?),
        None => None,
    };

    let mut out = vec![AccessPath {
        plan: PlanNode::SeqScan {
            table: binding.table.clone(),
            binding: binding.name.clone(),
            schema: binding.schema.clone(),
            predicate: compiled.clone(),
            est_rows,
        },
    }];

    for index in &entry.indexes {
        if let Some(pred) = sargable_pred(preds, index.column_name()) {
            let col_idx = base_schema.resolve(None, index.column_name())?;
            let idx_sel = index_pred_selectivity(&pred, stats, col_idx);
            // The residual re-applies all pushed conjuncts (cheap and
            // keeps the executor simple); output estimate matches the
            // sequential path since the same predicates apply.
            out.push(AccessPath {
                plan: PlanNode::IndexScan {
                    table: binding.table.clone(),
                    binding: binding.name.clone(),
                    schema: binding.schema.clone(),
                    column: index.column_name().to_owned(),
                    pred,
                    residual: compiled.clone(),
                    est_rows: est_rows.min(stats.row_count as f64 * idx_sel),
                },
            });
            break; // One index alternative per table keeps the space small.
        }
    }
    Ok(out)
}

/// Find an index-sargable conjunct on `column` among a table's pushed
/// predicates.
fn sargable_pred(preds: &[Expr], column: &str) -> Option<IndexPredicate> {
    for p in preds {
        match p {
            Expr::Binary { op, left, right } if op.is_comparison() => {
                let (col, lit, op) = match (&**left, &**right) {
                    (Expr::Column { name, .. }, Expr::Literal(v)) => (name, v, *op),
                    (Expr::Literal(v), Expr::Column { name, .. }) => (name, v, flip(*op)),
                    _ => continue,
                };
                if !col.eq_ignore_ascii_case(column) || lit.is_null() {
                    continue;
                }
                let pred = match op {
                    BinaryOp::Eq => IndexPredicate::Eq(lit.clone()),
                    BinaryOp::Lt => IndexPredicate::Range {
                        lo: None,
                        hi: Some((lit.clone(), false)),
                    },
                    BinaryOp::LtEq => IndexPredicate::Range {
                        lo: None,
                        hi: Some((lit.clone(), true)),
                    },
                    BinaryOp::Gt => IndexPredicate::Range {
                        lo: Some((lit.clone(), false)),
                        hi: None,
                    },
                    BinaryOp::GtEq => IndexPredicate::Range {
                        lo: Some((lit.clone(), true)),
                        hi: None,
                    },
                    _ => continue,
                };
                return Some(pred);
            }
            Expr::Between {
                expr,
                low,
                high,
                negated: false,
            } => {
                if let (Expr::Column { name, .. }, Expr::Literal(lo), Expr::Literal(hi)) =
                    (&**expr, &**low, &**high)
                {
                    if name.eq_ignore_ascii_case(column) && !lo.is_null() && !hi.is_null() {
                        return Some(IndexPredicate::Range {
                            lo: Some((lo.clone(), true)),
                            hi: Some((hi.clone(), true)),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    None
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

fn combine_and(preds: &[Expr]) -> Option<Expr> {
    let mut it = preds.iter().cloned();
    let first = it.next()?;
    Some(it.fold(first, |acc, p| acc.and(p)))
}

/// All combinations of per-table access paths, capped at `max`.
fn path_combinations(paths: &[Vec<AccessPath>], max: usize) -> Vec<Vec<AccessPath>> {
    let mut combos: Vec<Vec<AccessPath>> = vec![vec![]];
    for table_paths in paths {
        let mut next = Vec::new();
        for combo in &combos {
            for p in table_paths {
                if next.len() >= max {
                    break;
                }
                let mut c: Vec<AccessPath> = combo
                    .iter()
                    .map(|ap| AccessPath {
                        plan: ap.plan.clone(),
                    })
                    .collect();
                c.push(AccessPath {
                    plan: p.plan.clone(),
                });
                next.push(c);
            }
        }
        combos = next;
        if combos.len() >= max {
            combos.truncate(max);
        }
    }
    combos
}

// ---------------------------------------------------------------------------
// Join ordering
// ---------------------------------------------------------------------------

fn join_order(
    scans: Vec<PlanNode>,
    bindings: &[Binding],
    edges: &[JoinEdge],
    residuals: &[Expr],
    catalog: &qcc_storage::Catalog,
) -> Result<PlanNode> {
    debug_assert_eq!(scans.len(), bindings.len());
    let n = scans.len();
    let mut remaining: Vec<Option<PlanNode>> = scans.into_iter().map(Some).collect();

    // Start from the smallest scan.
    let est = |slot: &Option<PlanNode>| slot.as_ref().map_or(f64::INFINITY, PlanNode::est_rows);
    let start = (0..n)
        .min_by(|&a, &b| est(&remaining[a]).total_cmp(&est(&remaining[b])))
        .ok_or_else(|| QccError::Planning("empty FROM list".into()))?;
    let mut current = remaining[start]
        .take()
        .ok_or_else(|| QccError::Planning("join start scan missing".into()))?;
    let mut in_tree: BTreeSet<String> = BTreeSet::new();
    in_tree.insert(bindings[start].name.to_ascii_lowercase());

    let mut used_edges: BTreeSet<usize> = BTreeSet::new();
    let mut pending_residuals: Vec<Expr> = residuals.to_vec();

    while in_tree.len() < n {
        // Candidate next tables: connected ones preferred.
        let mut best: Option<(usize, f64, bool)> = None; // (idx, est_out, connected)
        for (i, b) in bindings.iter().enumerate() {
            let Some(scan) = remaining[i].as_ref() else {
                continue;
            };
            let key = b.name.to_ascii_lowercase();
            let connected = edges
                .iter()
                .enumerate()
                .any(|(ei, e)| !used_edges.contains(&ei) && edge_joins(e, &in_tree, &key));
            let est = join_estimate(&current, scan, bindings, edges, &in_tree, &key, catalog);
            let better = match &best {
                None => true,
                Some((_, best_est, best_conn)) => {
                    (connected && !best_conn) || (connected == *best_conn && est < *best_est)
                }
            };
            if better {
                best = Some((i, est, connected));
            }
        }
        let Some((next_idx, est_out, _)) = best else {
            return Err(QccError::Planning(
                "join enumeration stalled with tables remaining".into(),
            ));
        };
        let next_scan = remaining[next_idx]
            .take()
            .ok_or_else(|| QccError::Planning("chosen join input already consumed".into()))?;
        let next_key = bindings[next_idx].name.to_ascii_lowercase();

        // Collect the join keys from unused edges between the tree and next.
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        for (ei, e) in edges.iter().enumerate() {
            if used_edges.contains(&ei) || !edge_joins(e, &in_tree, &next_key) {
                continue;
            }
            let (tree_col, next_col) = if e.right_binding == next_key {
                (&e.left_col, &e.right_col)
            } else {
                (&e.right_col, &e.left_col)
            };
            left_keys.push(compile(tree_col, current.schema())?);
            right_keys.push(compile(next_col, next_scan.schema())?);
            used_edges.insert(ei);
        }

        let joined_schema = current.schema().join(next_scan.schema());
        in_tree.insert(next_key);

        // Residual conjuncts now fully bound attach to this join.
        let mut now_bound = Vec::new();
        pending_residuals.retain(|r| {
            let refs = binding_refs(r);
            if refs.iter().all(|b| in_tree.contains(b)) {
                now_bound.push(r.clone());
                false
            } else {
                true
            }
        });
        let residual_expr = combine_and(&now_bound);
        let residual = match &residual_expr {
            Some(r) => Some(compile(r, &joined_schema)?),
            None => None,
        };

        current = if left_keys.is_empty() {
            PlanNode::NestedLoopJoin {
                est_rows: est_out,
                left: Box::new(current),
                right: Box::new(next_scan),
                predicate: residual,
                schema: joined_schema,
            }
        } else {
            PlanNode::HashJoin {
                est_rows: est_out,
                left: Box::new(current),
                right: Box::new(next_scan),
                left_keys,
                right_keys,
                residual,
                schema: joined_schema,
            }
        };
    }

    // Any residuals referencing a single table (possible when a predicate
    // could not be pushed) or anything left: apply as a final filter.
    if let Some(rest) = combine_and(&pending_residuals) {
        let predicate = compile(&rest, current.schema())?;
        let est = (current.est_rows() * 0.33).max(1.0);
        current = PlanNode::Filter {
            input: Box::new(current),
            predicate,
            est_rows: est,
        };
    }
    Ok(current)
}

fn edge_joins(e: &JoinEdge, in_tree: &BTreeSet<String>, next: &str) -> bool {
    (in_tree.contains(&e.left_binding) && e.right_binding == next)
        || (in_tree.contains(&e.right_binding) && e.left_binding == next)
}

/// Estimated output cardinality of joining `next` into the current tree.
fn join_estimate(
    current: &PlanNode,
    next: &PlanNode,
    bindings: &[Binding],
    edges: &[JoinEdge],
    in_tree: &BTreeSet<String>,
    next_key: &str,
    catalog: &qcc_storage::Catalog,
) -> f64 {
    let mut est = current.est_rows().max(1.0) * next.est_rows().max(1.0);
    for e in edges {
        if !edge_joins(e, in_tree, next_key) {
            continue;
        }
        let nd_l = column_distinct(&e.left_col, bindings, catalog);
        let nd_r = column_distinct(&e.right_col, bindings, catalog);
        est /= nd_l.max(nd_r).max(1.0);
    }
    est.max(1.0)
}

fn column_distinct(col: &Expr, bindings: &[Binding], catalog: &qcc_storage::Catalog) -> f64 {
    if let Expr::Column {
        table: Some(t),
        name,
    } = col
    {
        if let Some(b) = bindings.iter().find(|b| b.name.eq_ignore_ascii_case(t)) {
            if let Ok(entry) = catalog.entry(&b.table) {
                if let Ok(idx) = entry.table.schema().resolve(None, name) {
                    return (entry.stats.columns[idx].distinct as f64).max(1.0);
                }
            }
        }
    }
    1.0
}

// ---------------------------------------------------------------------------
// Aggregation / projection / ordering
// ---------------------------------------------------------------------------

/// Internal name of group key `i` in the aggregate output schema.
fn key_col(i: usize) -> String {
    format!("__key{i}")
}

/// Internal name of aggregate `i` in the aggregate output schema.
fn agg_col(i: usize) -> String {
    format!("__agg{i}")
}

fn finish_plan(
    stmt: &SelectStmt,
    joined: PlanNode,
    bindings: &[Binding],
    catalog: &qcc_storage::Catalog,
) -> Result<PlanNode> {
    let has_agg = !stmt.group_by.is_empty()
        || stmt.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Wildcard => false,
        })
        || stmt.having.as_ref().is_some_and(Expr::contains_aggregate);

    let mut plan = joined;

    // Qualified forms of the clause expressions.
    let group_by_q: Vec<Expr> = stmt
        .group_by
        .iter()
        .map(|g| qualify_expr(g, bindings))
        .collect::<Result<_>>()?;

    if has_agg {
        plan = build_aggregate_pipeline(stmt, plan, bindings, &group_by_q, catalog)?;
    } else {
        if stmt.having.is_some() {
            return Err(QccError::Planning(
                "HAVING without aggregation is not supported".into(),
            ));
        }
        plan = build_scalar_pipeline(stmt, plan, bindings)?;
    }

    if let Some(n) = stmt.limit {
        plan = PlanNode::Limit {
            input: Box::new(plan),
            n,
        };
    }
    Ok(plan)
}

/// Derive the output column name of a select item.
fn item_name(expr: &Expr, alias: &Option<String>, ordinal: usize) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    match expr {
        Expr::Column { name, .. } => name.clone(),
        _ => format!("col{ordinal}"),
    }
}

/// Infer a (best-effort) output type for a projected expression.
fn item_type(expr: &Expr, schema: &Schema) -> DataType {
    match expr {
        Expr::Column { table, name } => schema
            .resolve(table.as_deref(), name)
            .map(|i| schema.column(i).ty)
            .unwrap_or(DataType::Float),
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Int),
        Expr::Agg { func, arg, .. } => match func {
            qcc_sql::AggFunc::Count => DataType::Int,
            qcc_sql::AggFunc::Avg => DataType::Float,
            _ => arg
                .as_ref()
                .map(|a| item_type(a, schema))
                .unwrap_or(DataType::Float),
        },
        Expr::Binary { op, left, right } if !op.is_comparison() => {
            match (item_type(left, schema), item_type(right, schema)) {
                (DataType::Int, DataType::Int) => DataType::Int,
                _ => DataType::Float,
            }
        }
        Expr::Unary { expr, .. } => item_type(expr, schema),
        _ => DataType::Int, // Boolean-ish.
    }
}

fn build_scalar_pipeline(
    stmt: &SelectStmt,
    mut plan: PlanNode,
    bindings: &[Binding],
) -> Result<PlanNode> {
    // ORDER BY runs against the pre-projection schema; aliases referencing
    // select expressions are resolved by substitution.
    let alias_map: Vec<(String, Expr)> = stmt
        .items
        .iter()
        .filter_map(|i| match i {
            SelectItem::Expr {
                expr,
                alias: Some(a),
            } => Some((a.clone(), expr.clone())),
            _ => None,
        })
        .collect();

    if !stmt.order_by.is_empty() {
        let mut keys = Vec::new();
        for o in &stmt.order_by {
            let resolved = substitute_aliases(&o.expr, &alias_map);
            let q = qualify_expr(&resolved, bindings)?;
            keys.push((compile(&q, plan.schema())?, o.desc));
        }
        plan = PlanNode::Sort {
            input: Box::new(plan),
            keys,
        };
    }

    // Projection (skipped for a bare `SELECT *`).
    let bare_wildcard = stmt.items.len() == 1 && matches!(stmt.items[0], SelectItem::Wildcard);
    if !bare_wildcard {
        let mut exprs = Vec::new();
        let mut cols = Vec::new();
        for (i, item) in stmt.items.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for (ci, c) in plan.schema().columns().iter().enumerate() {
                        exprs.push(CompiledExpr::Column(ci));
                        cols.push(c.clone());
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let q = qualify_expr(expr, bindings)?;
                    let ty = item_type(&q, plan.schema());
                    exprs.push(compile(&q, plan.schema())?);
                    cols.push(Column::new(item_name(expr, alias, i), ty));
                }
            }
        }
        plan = PlanNode::Project {
            input: Box::new(plan),
            exprs,
            schema: Schema::new(cols),
        };
    }

    if stmt.distinct {
        let est = (plan.est_rows() * 0.7).max(1.0);
        plan = PlanNode::Distinct {
            input: Box::new(plan),
            est_rows: est,
        };
    }
    Ok(plan)
}

fn substitute_aliases(expr: &Expr, aliases: &[(String, Expr)]) -> Expr {
    if let Expr::Column { table: None, name } = expr {
        if let Some((_, e)) = aliases.iter().find(|(a, _)| a.eq_ignore_ascii_case(name)) {
            return e.clone();
        }
    }
    expr.clone()
}

fn build_aggregate_pipeline(
    stmt: &SelectStmt,
    input: PlanNode,
    bindings: &[Binding],
    group_by_q: &[Expr],
    catalog: &qcc_storage::Catalog,
) -> Result<PlanNode> {
    let pre_schema = input.schema().clone();

    // Select-list aliases, usable from ORDER BY.
    let alias_map: Vec<(String, Expr)> = stmt
        .items
        .iter()
        .filter_map(|i| match i {
            SelectItem::Expr {
                expr,
                alias: Some(a),
            } => Some((a.clone(), expr.clone())),
            _ => None,
        })
        .collect();

    // Collect distinct aggregate calls from SELECT, HAVING and ORDER BY.
    let mut agg_calls: Vec<Expr> = Vec::new();
    let mut collect_aggs = |e: &Expr| -> Result<()> {
        let q = qualify_expr(e, bindings)?;
        collect_agg_calls(&q, &mut agg_calls);
        Ok(())
    };
    for item in &stmt.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect_aggs(expr)?;
        } else {
            return Err(QccError::Planning(
                "SELECT * is not valid in an aggregate query".into(),
            ));
        }
    }
    if let Some(h) = &stmt.having {
        collect_aggs(h)?;
    }
    for o in &stmt.order_by {
        collect_aggs(&substitute_aliases(&o.expr, &alias_map))?;
    }

    // Build the aggregate node.
    let mut group_exprs = Vec::new();
    let mut out_cols = Vec::new();
    for (i, g) in group_by_q.iter().enumerate() {
        group_exprs.push(compile(g, &pre_schema)?);
        out_cols.push(Column::new(key_col(i), item_type(g, &pre_schema)));
    }
    let mut agg_specs = Vec::new();
    for (i, a) in agg_calls.iter().enumerate() {
        let Expr::Agg {
            func,
            arg,
            distinct,
        } = a
        else {
            unreachable!("collect_agg_calls only collects Agg nodes");
        };
        let compiled_arg = match arg {
            Some(e) => Some(compile(e, &pre_schema)?),
            None => None,
        };
        agg_specs.push(AggSpec {
            func: *func,
            arg: compiled_arg,
            distinct: *distinct,
        });
        out_cols.push(Column::new(agg_col(i), item_type(a, &pre_schema)));
    }
    let agg_schema = Schema::new(out_cols);

    // Estimate group count from key distinct counts.
    let key_distincts: Vec<f64> = group_by_q
        .iter()
        .map(|g| column_distinct(g, bindings, catalog))
        .collect();
    let est_groups = estimate_groups(input.est_rows(), &key_distincts);

    let mut plan = PlanNode::HashAggregate {
        input: Box::new(input),
        group_by: group_exprs,
        aggs: agg_specs,
        schema: agg_schema.clone(),
        est_rows: est_groups,
    };

    // Rewrite helper: map group-key / aggregate subexpressions to the
    // aggregate output columns.
    let rewrite = |e: &Expr| -> Result<Expr> {
        let q = qualify_expr(e, bindings)?;
        rewrite_post_agg(&q, group_by_q, &agg_calls)
    };

    if let Some(h) = &stmt.having {
        let rewritten = rewrite(h)?;
        let predicate = compile(&rewritten, &agg_schema)?;
        let est = (plan.est_rows() * 0.5).max(1.0);
        plan = PlanNode::Filter {
            input: Box::new(plan),
            predicate,
            est_rows: est,
        };
    }

    if !stmt.order_by.is_empty() {
        // ORDER BY may reference select-list aliases (e.g. `ORDER BY t` for
        // `SUM(x) AS t`); substitute them before the post-agg rewrite.
        let mut keys = Vec::new();
        for o in &stmt.order_by {
            let resolved = substitute_aliases(&o.expr, &alias_map);
            let rewritten = rewrite(&resolved)?;
            keys.push((compile(&rewritten, &agg_schema)?, o.desc));
        }
        plan = PlanNode::Sort {
            input: Box::new(plan),
            keys,
        };
    }

    // Final projection of the select items over the aggregate schema.
    let mut exprs = Vec::new();
    let mut cols = Vec::new();
    for (i, item) in stmt.items.iter().enumerate() {
        let SelectItem::Expr { expr, alias } = item else {
            unreachable!("wildcard rejected above");
        };
        let rewritten = rewrite(expr)?;
        let ty = item_type(&rewritten, &agg_schema);
        exprs.push(compile(&rewritten, &agg_schema)?);
        cols.push(Column::new(item_name(expr, alias, i), ty));
    }
    let project_schema = Schema::new(cols);
    plan = PlanNode::Project {
        input: Box::new(plan),
        exprs,
        schema: project_schema,
    };

    if stmt.distinct {
        let est = (plan.est_rows() * 0.7).max(1.0);
        plan = PlanNode::Distinct {
            input: Box::new(plan),
            est_rows: est,
        };
    }
    Ok(plan)
}

fn collect_agg_calls(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Agg { .. } => {
            if !out.contains(expr) {
                out.push(expr.clone());
            }
        }
        Expr::Binary { left, right, .. } => {
            collect_agg_calls(left, out);
            collect_agg_calls(right, out);
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => {
            collect_agg_calls(expr, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_agg_calls(expr, out);
            for e in list {
                collect_agg_calls(e, out);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_agg_calls(expr, out);
            collect_agg_calls(low, out);
            collect_agg_calls(high, out);
        }
        Expr::Column { .. } | Expr::Literal(_) => {}
    }
}

/// Rewrite a post-aggregation expression: group-key subexpressions become
/// `__keyN` references, aggregate calls become `__aggN` references. Any
/// remaining bare column reference is an ungrouped column — an error.
fn rewrite_post_agg(expr: &Expr, group_by: &[Expr], aggs: &[Expr]) -> Result<Expr> {
    if let Some(i) = group_by.iter().position(|g| g == expr) {
        return Ok(Expr::col(key_col(i)));
    }
    if let Some(i) = aggs.iter().position(|a| a == expr) {
        return Ok(Expr::col(agg_col(i)));
    }
    Ok(match expr {
        Expr::Column { name, .. } => {
            return Err(QccError::Planning(format!(
                "column '{name}' must appear in GROUP BY or inside an aggregate"
            )))
        }
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(rewrite_post_agg(left, group_by, aggs)?),
            right: Box::new(rewrite_post_agg(right, group_by, aggs)?),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite_post_agg(expr, group_by, aggs)?),
        },
        Expr::Agg { .. } => {
            return Err(QccError::Planning(
                "aggregate call not collected during planning".into(),
            ))
        }
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite_post_agg(expr, group_by, aggs)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(rewrite_post_agg(expr, group_by, aggs)?),
            list: list
                .iter()
                .map(|e| rewrite_post_agg(e, group_by, aggs))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(rewrite_post_agg(expr, group_by, aggs)?),
            low: Box::new(rewrite_post_agg(low, group_by, aggs)?),
            high: Box::new(rewrite_post_agg(high, group_by, aggs)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(rewrite_post_agg(expr, group_by, aggs)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{Row, Value};
    use qcc_sql::parse_select;
    use qcc_storage::{Catalog, Table};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut orders = Table::new(
            "orders",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("cust", DataType::Int),
                Column::new("total", DataType::Float),
            ]),
        );
        for i in 0..1000i64 {
            orders
                .insert(Row::new(vec![
                    Value::Int(i),
                    Value::Int(i % 100),
                    Value::Float((i % 50) as f64),
                ]))
                .unwrap();
        }
        c.register(orders);
        let mut cust = Table::new(
            "cust",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Str),
            ]),
        );
        for i in 0..100i64 {
            cust.insert(Row::new(vec![Value::Int(i), Value::Str(format!("c{i}"))]))
                .unwrap();
        }
        c.register(cust);
        c.create_index("orders", "id").unwrap();
        c
    }

    fn plan_one(sql: &str) -> PlanNode {
        let stmt = parse_select(sql).unwrap();
        let plans = plan_query(&stmt, &catalog()).unwrap();
        plans.into_iter().next().unwrap()
    }

    fn plan_all(sql: &str) -> Vec<PlanNode> {
        let stmt = parse_select(sql).unwrap();
        plan_query(&stmt, &catalog()).unwrap()
    }

    #[test]
    fn pushdown_into_scan() {
        let p = plan_one("SELECT * FROM orders WHERE total > 25.0");
        match p {
            PlanNode::SeqScan {
                predicate,
                est_rows,
                ..
            } => {
                assert!(predicate.is_some());
                assert!(est_rows < 1000.0 && est_rows > 100.0, "est {est_rows}");
            }
            other => panic!("expected SeqScan, got {other}"),
        }
    }

    #[test]
    fn index_alternative_offered() {
        let plans = plan_all("SELECT * FROM orders WHERE id = 5");
        assert_eq!(plans.len(), 2, "seq + index path");
        assert!(plans
            .iter()
            .any(|p| matches!(p, PlanNode::IndexScan { .. })));
    }

    #[test]
    fn no_index_path_without_sarg() {
        let plans = plan_all("SELECT * FROM orders WHERE total > 1.0");
        assert_eq!(plans.len(), 1, "no index on total");
    }

    #[test]
    fn equi_join_becomes_hash_join() {
        let p = plan_one("SELECT * FROM orders o, cust c WHERE o.cust = c.id");
        assert!(matches!(p, PlanNode::HashJoin { .. }), "got {p}");
        if let PlanNode::HashJoin { left, .. } = &p {
            // The smaller table (cust, 100 rows) is the build side.
            assert_eq!(left.base_tables(), vec!["cust"]);
        }
    }

    #[test]
    fn explicit_join_syntax_equivalent() {
        let a = plan_one("SELECT * FROM orders o JOIN cust c ON o.cust = c.id");
        let b = plan_one("SELECT * FROM orders o, cust c WHERE o.cust = c.id");
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn cross_join_when_no_edge() {
        let p = plan_one("SELECT * FROM orders o, cust c");
        assert!(matches!(p, PlanNode::NestedLoopJoin { .. }));
    }

    #[test]
    fn non_equi_predicate_as_residual() {
        let p = plan_one("SELECT * FROM orders o, cust c WHERE o.cust < c.id");
        match &p {
            PlanNode::NestedLoopJoin { predicate, .. } => assert!(predicate.is_some()),
            other => panic!("expected NLJ with residual, got {other}"),
        }
    }

    #[test]
    fn aggregate_pipeline_shape() {
        let p = plan_one(
            "SELECT c.name, SUM(o.total) AS t FROM orders o JOIN cust c ON o.cust = c.id \
             GROUP BY c.name HAVING COUNT(*) > 2 ORDER BY t DESC LIMIT 5",
        );
        // Limit(Sort? ...) — verify the spine contains the operators.
        let text = p.to_string();
        assert!(text.contains("Limit 5"));
        assert!(text.contains("Project"));
        assert!(text.contains("Sort"));
        assert!(text.contains("Filter"));
        assert!(text.contains("HashAggregate"));
        assert!(text.contains("HashJoin"));
    }

    #[test]
    fn ungrouped_column_rejected() {
        let stmt = parse_select("SELECT total, COUNT(*) FROM orders GROUP BY cust").unwrap();
        assert!(plan_query(&stmt, &catalog()).is_err());
    }

    #[test]
    fn wildcard_in_aggregate_rejected() {
        let stmt = parse_select("SELECT * FROM orders GROUP BY cust").unwrap();
        assert!(plan_query(&stmt, &catalog()).is_err());
    }

    #[test]
    fn having_without_aggregate_rejected() {
        let stmt = parse_select("SELECT id FROM orders HAVING id > 1").unwrap();
        assert!(plan_query(&stmt, &catalog()).is_err());
    }

    #[test]
    fn unknown_table_rejected() {
        let stmt = parse_select("SELECT * FROM nothere").unwrap();
        assert!(matches!(
            plan_query(&stmt, &catalog()),
            Err(QccError::UnknownTable(_))
        ));
    }

    #[test]
    fn duplicate_alias_rejected() {
        let stmt = parse_select("SELECT * FROM orders x, cust x").unwrap();
        assert!(plan_query(&stmt, &catalog()).is_err());
    }

    #[test]
    fn ambiguous_column_rejected() {
        let stmt = parse_select("SELECT id FROM orders o, cust c WHERE o.cust = c.id").unwrap();
        assert!(matches!(
            plan_query(&stmt, &catalog()),
            Err(QccError::AmbiguousColumn(_))
        ));
    }

    #[test]
    fn order_by_alias_resolves() {
        let p = plan_one("SELECT total AS t FROM orders ORDER BY t");
        assert!(p.to_string().contains("Sort"));
    }

    #[test]
    fn max_plans_respected() {
        // A sargable predicate offers the index path beside the scan; a
        // two-table cross product of those paths is cut to the limit.
        let stmt = parse_select("SELECT * FROM orders WHERE id = 5").unwrap();
        let plans = plan_query(&stmt, &catalog()).unwrap();
        assert_eq!(plans.len(), 2);
        let paths = || {
            plans
                .iter()
                .map(|p| AccessPath { plan: p.clone() })
                .collect()
        };
        let tables: Vec<Vec<AccessPath>> = vec![paths(), paths()];
        assert_eq!(path_combinations(&tables, MAX_PLANS).len(), 4);
        assert_eq!(path_combinations(&tables, 1).len(), 1);
    }

    #[test]
    fn three_way_join_connected_order() {
        let mut c = catalog();
        let mut items = Table::new(
            "items",
            Schema::new(vec![
                Column::new("oid", DataType::Int),
                Column::new("qty", DataType::Int),
            ]),
        );
        for i in 0..2000i64 {
            items
                .insert(Row::new(vec![Value::Int(i % 1000), Value::Int(i % 7)]))
                .unwrap();
        }
        c.register(items);
        let stmt = parse_select(
            "SELECT * FROM orders o, cust c, items i \
             WHERE o.cust = c.id AND i.oid = o.id",
        )
        .unwrap();
        let plans = plan_query(&stmt, &c).unwrap();
        let p = &plans[0];
        // All joins should be hash joins (connected graph — no cross joins).
        assert!(!p.signature().contains("nlj"), "{}", p.signature());
        assert_eq!(p.base_tables().len(), 3);
    }
}

//! Reference evaluator (test support: `#[path]`-included by the suites
//! that use it, linked by no library crate).
//!
//! A deliberately simple (and slow) implementation of the same SQL subset:
//! cross-join all FROM tables, filter, group, project, sort — an AST
//! interpreter with no planner, no plan tree and no operators, which is
//! what makes it an oracle for the engine's. Scalar expressions are the
//! engine's own (`qcc_engine::expr`): SQL scalar semantics have one
//! definition, and this file does not re-derive them. Aggregates are this
//! oracle's own ([`accumulator`]), independent of the engine's typed state.

#[path = "accumulator.rs"]
mod accumulator;

use accumulator::AggAccumulator;
use qcc_common::{QccError, Result, Row, Schema, Value};
use qcc_engine::expr::{compile, truth, CompiledExpr};
use qcc_sql::{Expr, SelectItem, SelectStmt};
use qcc_storage::Catalog;

/// Evaluate a query the slow, obviously-correct way.
pub fn evaluate(stmt: &SelectStmt, catalog: &Catalog) -> Result<Vec<Row>> {
    // 1. Cross join every FROM table (qualified schemas).
    let mut schema = Schema::empty();
    let mut rows: Vec<Row> = vec![Row::new(vec![])];
    for t in stmt.tables() {
        let entry = catalog.entry(&t.name)?;
        let tschema = entry.table.schema().qualify(t.binding_name());
        let trows = entry.table.rows();
        let mut next = Vec::new();
        for left in &rows {
            for right in &trows {
                next.push(left.join(right));
            }
        }
        schema = schema.join(&tschema);
        rows = next;
    }

    // 2. Filter on WHERE plus every JOIN ... ON condition.
    let mut predicate: Option<Expr> = stmt.where_clause.clone();
    for j in &stmt.joins {
        predicate = Some(match predicate {
            Some(p) => p.and(j.on.clone()),
            None => j.on.clone(),
        });
    }
    if let Some(p) = &predicate {
        let compiled = compile(p, &schema)?;
        rows.retain(|r| compiled.eval_predicate(r));
    }

    let has_agg = !stmt.group_by.is_empty()
        || stmt.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Wildcard => false,
        })
        || stmt.having.as_ref().is_some_and(Expr::contains_aggregate);

    let mut out: Vec<Row>;

    if has_agg {
        out = aggregate(stmt, &schema, &rows)?;
    } else {
        if stmt.having.is_some() {
            return Err(QccError::Planning("HAVING without aggregation".into()));
        }
        // ORDER BY before projection (aliases substituted).
        let aliases: Vec<(String, Expr)> = stmt
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
            let keys: Vec<(CompiledExpr, bool)> = stmt
                .order_by
                .iter()
                .map(|o| {
                    let e = substitute(&o.expr, &aliases);
                    compile(&e, &schema).map(|c| (c, o.desc))
                })
                .collect::<Result<_>>()?;
            sort_rows(&mut rows, &keys);
        }
        let bare_wildcard = stmt.items.len() == 1 && matches!(stmt.items[0], SelectItem::Wildcard);
        if bare_wildcard {
            out = rows;
        } else {
            let mut exprs = Vec::new();
            for item in &stmt.items {
                match item {
                    SelectItem::Wildcard => {
                        for i in 0..schema.len() {
                            exprs.push(CompiledExpr::Column(i));
                        }
                    }
                    SelectItem::Expr { expr, .. } => exprs.push(compile(expr, &schema)?),
                }
            }
            out = rows
                .iter()
                .map(|r| Row::new(exprs.iter().map(|e| e.eval(r)).collect()))
                .collect();
        }
    }

    if stmt.distinct {
        let mut seen = std::collections::HashSet::new();
        out.retain(|r| seen.insert(r.clone()));
    }
    if let Some(n) = stmt.limit {
        out.truncate(n as usize);
    }
    Ok(out)
}

fn substitute(expr: &Expr, aliases: &[(String, Expr)]) -> Expr {
    if let Expr::Column { table: None, name } = expr {
        if let Some((_, e)) = aliases.iter().find(|(a, _)| a.eq_ignore_ascii_case(name)) {
            return e.clone();
        }
    }
    expr.clone()
}

fn sort_rows(rows: &mut [Row], keys: &[(CompiledExpr, bool)]) {
    rows.sort_by(|a, b| {
        for (k, desc) in keys {
            let ord = k.eval(a).total_cmp(&k.eval(b));
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

/// Rows of each group, keyed by the group's key values.
type GroupMap = std::collections::HashMap<Vec<Value>, Vec<Row>>;

/// Grouped / global aggregation, HAVING, ORDER BY and projection for the
/// aggregate case. Returns projected rows.
fn aggregate(stmt: &SelectStmt, schema: &Schema, rows: &[Row]) -> Result<Vec<Row>> {
    let group_exprs: Vec<CompiledExpr> = stmt
        .group_by
        .iter()
        .map(|g| compile(g, schema))
        .collect::<Result<_>>()?;

    // Group rows (first-seen order).
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: GroupMap = std::collections::HashMap::new();
    if group_exprs.is_empty() {
        order.push(vec![]);
        groups.insert(vec![], rows.to_vec());
    } else {
        for r in rows {
            let key: Vec<Value> = group_exprs.iter().map(|k| k.eval(r)).collect();
            groups
                .entry(key.clone())
                .or_insert_with(|| {
                    order.push(key);
                    Vec::new()
                })
                .push(r.clone());
        }
    }

    // Evaluate a post-aggregation expression for one group.
    fn eval_group(
        expr: &Expr,
        stmt: &SelectStmt,
        schema: &Schema,
        key: &[Value],
        members: &[Row],
    ) -> Result<Value> {
        // Group key match?
        for (i, g) in stmt.group_by.iter().enumerate() {
            if g == expr {
                return Ok(key[i].clone());
            }
        }
        match expr {
            Expr::Agg {
                func,
                arg,
                distinct,
            } => {
                let mut acc = AggAccumulator::new(*func, *distinct);
                match arg {
                    None => {
                        for _ in members {
                            acc.push(None);
                        }
                    }
                    Some(a) => {
                        let compiled = compile(a, schema)?;
                        for m in members {
                            let v = compiled.eval(m);
                            acc.push(Some(&v));
                        }
                    }
                }
                Ok(acc.finish())
            }
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Binary { op, left, right } => {
                let l = eval_group(left, stmt, schema, key, members)?;
                let r = eval_group(right, stmt, schema, key, members)?;
                // Reuse the row-expression machinery on a synthetic row.
                let synth = Row::new(vec![l, r]);
                let e = CompiledExpr::Binary {
                    op: *op,
                    left: Box::new(CompiledExpr::Column(0)),
                    right: Box::new(CompiledExpr::Column(1)),
                };
                Ok(e.eval(&synth))
            }
            Expr::Unary { op, expr } => {
                let v = eval_group(expr, stmt, schema, key, members)?;
                let synth = Row::new(vec![v]);
                let e = CompiledExpr::Unary {
                    op: *op,
                    expr: Box::new(CompiledExpr::Column(0)),
                };
                Ok(e.eval(&synth))
            }
            Expr::Column { name, .. } => Err(QccError::Planning(format!(
                "column '{name}' must appear in GROUP BY or inside an aggregate"
            ))),
            other => Err(QccError::Planning(format!(
                "unsupported post-aggregation expression {other}"
            ))),
        }
    }

    // HAVING.
    let mut kept: Vec<(&Vec<Value>, &Vec<Row>)> = Vec::new();
    for key in &order {
        let members = groups
            .get(key)
            .ok_or_else(|| QccError::Execution("aggregation group vanished".into()))?;
        if let Some(h) = &stmt.having {
            let v = eval_group(h, stmt, schema, key, members)?;
            if truth(&v) != Some(true) {
                continue;
            }
        }
        kept.push((key, members));
    }

    // ORDER BY over groups.
    if !stmt.order_by.is_empty() {
        // Alias substitution first.
        let aliases: Vec<(String, Expr)> = stmt
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
        type Keyed<'a> = (Vec<Value>, (&'a Vec<Value>, &'a Vec<Row>));
        let mut keyed: Vec<Keyed> = Vec::new();
        for (key, members) in kept {
            let mut sort_key = Vec::new();
            for o in &stmt.order_by {
                let e = substitute(&o.expr, &aliases);
                sort_key.push(eval_group(&e, stmt, schema, key, members)?);
            }
            keyed.push((sort_key, (key, members)));
        }
        keyed.sort_by(|a, b| {
            for (i, o) in stmt.order_by.iter().enumerate() {
                let ord = a.0[i].total_cmp(&b.0[i]);
                let ord = if o.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        kept = keyed.into_iter().map(|(_, g)| g).collect();
    }

    // Projection.
    let mut out = Vec::with_capacity(kept.len());
    for (key, members) in kept {
        let mut values = Vec::with_capacity(stmt.items.len());
        for item in &stmt.items {
            let SelectItem::Expr { expr, .. } = item else {
                return Err(QccError::Planning(
                    "SELECT * is not valid in an aggregate query".into(),
                ));
            };
            values.push(eval_group(expr, stmt, schema, key, members)?);
        }
        out.push(Row::new(values));
    }
    Ok(out)
}

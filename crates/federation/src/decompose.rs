//! Query decomposition: federated statement → per-source fragments plus a
//! merge statement for the integrator.
//!
//! Mirrors the paper's compile-time step 2: *"II looks up the nickname
//! definitions in the user query and breaks (i.e. rewrites) the query into
//! multiple sub-queries"*. Nicknames that share a hosting server are
//! grouped into one fragment so joins run remotely when possible; joins
//! across fragments (and all aggregation in the multi-fragment case)
//! execute at the integrator.

use crate::nickname::NicknameCatalog;
use qcc_common::{QccError, Result, Schema, ServerId, Value};
use qcc_sql::{parse_select, BinaryOp, Expr, JoinClause, SelectItem, SelectStmt, TableRef};
use std::collections::{BTreeMap, BTreeSet};

/// One output column of a (non-full-pushdown) fragment.
#[derive(Debug, Clone)]
pub struct FragmentColumn {
    /// Binding the column came from.
    pub binding: String,
    /// Column name at the source.
    pub column: String,
    /// Column name in the fragment's output (`c0`, `c1`, ...).
    pub out_name: String,
    /// Column type.
    pub ty: qcc_common::DataType,
}

/// A fragment of a decomposed federated query.
#[derive(Debug, Clone)]
pub struct FragmentSpec {
    /// Fragment ordinal within the query.
    pub index: u32,
    /// Nicknames this fragment reads (lowercased), in binding order.
    pub nicknames: Vec<String>,
    /// Binding (alias) names, parallel to `nicknames`.
    pub bindings: Vec<String>,
    /// The fragment statement, in nickname space.
    pub stmt: SelectStmt,
    /// Servers that can execute this fragment (host every nickname).
    pub candidate_servers: Vec<ServerId>,
    /// Output columns (empty when `full_pushdown`, where the fragment
    /// returns the final query result directly).
    pub output: Vec<FragmentColumn>,
    /// True when this single fragment *is* the whole query.
    pub full_pushdown: bool,
}

impl FragmentSpec {
    /// The fragment SQL translated for a specific server (nicknames
    /// replaced by that server's remote table names, bindings preserved
    /// as aliases).
    pub fn sql_for_server(&self, catalog: &NicknameCatalog, server: &ServerId) -> Result<String> {
        let mut stmt = self.stmt.clone();
        let translate = |t: &mut TableRef| -> Result<()> {
            let binding = t.binding_name().to_owned();
            let remote = catalog.remote_table(&t.name, server)?;
            t.name = remote.to_owned();
            t.alias = Some(binding);
            Ok(())
        };
        translate(&mut stmt.from)?;
        for t in &mut stmt.from_rest {
            translate(t)?;
        }
        for j in &mut stmt.joins {
            translate(&mut j.table)?;
        }
        Ok(stmt.to_string())
    }

    /// Schema of the fragment's shipped result (what the merge step
    /// checks the result against and plans it under). Only meaningful
    /// when `!full_pushdown`.
    pub fn output_schema(&self) -> Schema {
        Schema::new(
            self.output
                .iter()
                .map(|c| qcc_common::Column::new(c.out_name.clone(), c.ty))
                .collect(),
        )
    }
}

/// How the integrator combines fragment results.
#[derive(Debug, Clone)]
pub enum MergeSpec {
    /// Single full-pushdown fragment: its rows are the final answer.
    Passthrough,
    /// Execute this statement over the fragment results, read as tables
    /// `__frag0`, `__frag1`, ... (boxed: the statement is much larger than
    /// the other variant).
    Merge {
        /// The merge statement. The integrator costs and plans this AST as
        /// it stands (`Engine::explain_stmt`); it is never printed and
        /// parsed back.
        stmt: Box<SelectStmt>,
    },
}

/// A decomposed federated query: a pure function of the statement text and
/// the nickname catalog, which is why the integrator computes it once per
/// text and shares it by `Arc` (its compiled template, DESIGN.md §16).
#[derive(Debug, Clone)]
pub struct DecomposedQuery {
    /// The original statement, fully qualified.
    pub stmt: SelectStmt,
    /// The fragments.
    pub fragments: Vec<FragmentSpec>,
    /// The integration step.
    pub merge: MergeSpec,
    /// Template signature: the statement with literals blanked, used by
    /// the QCC to group "similar queries" (§4).
    pub template_signature: String,
}

/// Name the merge statement reads fragment `i`'s result under at the
/// integrator: the slot its batches are bound to.
pub fn frag_table(i: usize) -> String {
    format!("__frag{i}")
}

/// Decompose a federated SQL statement.
pub fn decompose(sql: &str, catalog: &NicknameCatalog) -> Result<DecomposedQuery> {
    let stmt = parse_select(sql)?;

    // Bindings: (binding name, nickname, qualified schema).
    struct Binding {
        name: String,
        nickname: String,
        schema: Schema,
    }
    let mut bindings: Vec<Binding> = Vec::new();
    let mut seen = BTreeSet::new();
    for t in stmt.tables() {
        let def = catalog.get(&t.name)?;
        let name = t.binding_name().to_ascii_lowercase();
        if !seen.insert(name.clone()) {
            return Err(QccError::Planning(format!("duplicate binding '{name}'")));
        }
        bindings.push(Binding {
            schema: def.schema.qualify(&name),
            name,
            nickname: def.name.clone(),
        });
    }

    // Qualify every expression in the statement.
    let resolve = |table: Option<&str>, name: &str| -> Result<String> {
        let mut found: Option<&Binding> = None;
        for b in &bindings {
            let hit = match table {
                Some(t) => b.name.eq_ignore_ascii_case(t),
                None => b.schema.resolve(None, name).is_ok(),
            };
            if hit {
                if table.is_none() && found.is_some() {
                    return Err(QccError::AmbiguousColumn(name.to_owned()));
                }
                found = Some(b);
                if table.is_some() {
                    break;
                }
            }
        }
        let b = found.ok_or_else(|| QccError::UnknownColumn(name.to_owned()))?;
        b.schema.resolve(Some(&b.name), name)?;
        Ok(b.name.clone())
    };
    let qualified = qualify_stmt(&stmt, &resolve)?;

    // Group bindings by shared hosting servers (greedy, FROM order). A
    // group's host list keeps the order of its first nickname's sources;
    // joining a group filters it by membership in the newcomer's sources.
    let mut groups: Vec<(Vec<usize>, Vec<ServerId>)> = Vec::new();
    for (bi, b) in bindings.iter().enumerate() {
        let def = catalog.get(&b.nickname)?;
        if def.sources.is_empty() {
            return Err(QccError::NoViablePlan(format!(
                "nickname {} has no sources",
                b.nickname
            )));
        }
        let hosts = |s: &ServerId| def.source_at(s).is_some();
        match groups
            .iter_mut()
            .find(|(_, common)| common.iter().any(hosts))
        {
            Some((members, common)) => {
                members.push(bi);
                common.retain(hosts);
            }
            None => {
                let servers = def.sources.iter().map(|s| s.server.clone());
                groups.push((vec![bi], servers.collect()));
            }
        }
    }

    let template_signature = template_signature(&qualified);

    // Single group: full pushdown.
    if groups.len() == 1 {
        let (members, candidate_servers) = groups.remove(0);
        let frag = FragmentSpec {
            index: 0,
            nicknames: members
                .iter()
                .map(|&bi| bindings[bi].nickname.clone())
                .collect(),
            bindings: members
                .iter()
                .map(|&bi| bindings[bi].name.clone())
                .collect(),
            stmt: qualified.clone(),
            candidate_servers,
            output: vec![],
            full_pushdown: true,
        };
        return Ok(DecomposedQuery {
            stmt: qualified,
            fragments: vec![frag],
            merge: MergeSpec::Passthrough,
            template_signature,
        });
    }

    // Multi-group: build per-group fragments and the merge statement.
    let binding_group: BTreeMap<String, usize> = groups
        .iter()
        .enumerate()
        .flat_map(|(gi, (members, _))| members.iter().map(move |&bi| (bi, gi)).collect::<Vec<_>>())
        .map(|(bi, gi)| (bindings[bi].name.clone(), gi))
        .collect();
    // Collect conjuncts.
    let mut conjuncts = Vec::new();
    if let Some(w) = &qualified.where_clause {
        split_and(w, &mut conjuncts);
    }
    for j in &qualified.joins {
        split_and(&j.on, &mut conjuncts);
    }

    // Classify conjuncts as local (all refs in one group) or cross-group.
    let refs_of = |e: &Expr| -> BTreeSet<String> {
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        cols.into_iter()
            .filter_map(|(t, _)| t.as_ref().map(|s| s.to_ascii_lowercase()))
            .collect()
    };
    let group_of_refs = |refs: &BTreeSet<String>| -> Option<usize> {
        let gs: BTreeSet<usize> = refs
            .iter()
            .filter_map(|b| binding_group.get(b).copied())
            .collect();
        if gs.len() == 1 {
            gs.into_iter().next()
        } else {
            None
        }
    };
    let mut local_conjuncts: Vec<Vec<Expr>> = vec![Vec::new(); groups.len()];
    let mut cross_conjuncts: Vec<Expr> = Vec::new();
    for c in &conjuncts {
        let refs = refs_of(c);
        match group_of_refs(&refs) {
            Some(g) if !refs.is_empty() => local_conjuncts[g].push(c.clone()),
            _ => cross_conjuncts.push(c.clone()),
        }
    }

    // Columns each fragment must ship: every column referenced outside the
    // fragment's local conjuncts (select list, cross conjuncts, group by,
    // having, order by) — or all columns on a bare wildcard.
    let mut needed: BTreeSet<(String, String)> = BTreeSet::new();
    let mut note = |e: &Expr| {
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        for (t, c) in cols {
            if let Some(t) = t {
                needed.insert((t.to_ascii_lowercase(), c.to_ascii_lowercase()));
            }
        }
    };
    let mut wildcard = false;
    for item in &qualified.items {
        match item {
            SelectItem::Wildcard => wildcard = true,
            SelectItem::Expr { expr, .. } => note(expr),
        }
    }
    for c in &cross_conjuncts {
        note(c);
    }
    for g in &qualified.group_by {
        note(g);
    }
    if let Some(h) = &qualified.having {
        note(h);
    }
    for o in &qualified.order_by {
        note(&o.expr);
    }
    if wildcard {
        for b in &bindings {
            for col in b.schema.columns() {
                needed.insert((b.name.clone(), col.name.to_ascii_lowercase()));
            }
        }
    }

    // Build fragments.
    let mut fragments = Vec::with_capacity(groups.len());
    // (binding, column) -> (frag table binding, out column name)
    let mut rewrite_map: BTreeMap<(String, String), (String, String)> = BTreeMap::new();
    for (gi, (members, candidate_servers)) in groups.into_iter().enumerate() {
        let mut output = Vec::new();
        let mut items = Vec::new();
        for &bi in &members {
            let b = &bindings[bi];
            // Ship needed columns in schema order for determinism.
            for col in b.schema.columns() {
                let key = (b.name.clone(), col.name.to_ascii_lowercase());
                if !needed.contains(&key) {
                    continue;
                }
                let out_name = format!("c{}", output.len());
                rewrite_map.insert(key, (frag_table(gi), out_name.clone()));
                items.push(SelectItem::Expr {
                    expr: Expr::qcol(b.name.clone(), col.name.clone()),
                    alias: Some(out_name.clone()),
                });
                output.push(FragmentColumn {
                    binding: b.name.clone(),
                    column: col.name.clone(),
                    out_name,
                    ty: col.ty,
                });
            }
        }
        if items.is_empty() {
            // A fragment must ship at least one column (e.g. for COUNT(*)
            // across a cross-group join); ship the first column.
            let b = &bindings[members[0]];
            let col = b.schema.column(0);
            let out_name = "c0".to_string();
            rewrite_map.insert(
                (b.name.clone(), col.name.to_ascii_lowercase()),
                (frag_table(gi), out_name.clone()),
            );
            items.push(SelectItem::Expr {
                expr: Expr::qcol(b.name.clone(), col.name.clone()),
                alias: Some(out_name.clone()),
            });
            output.push(FragmentColumn {
                binding: b.name.clone(),
                column: col.name.clone(),
                out_name,
                ty: col.ty,
            });
        }

        // FROM list over nicknames with binding aliases.
        let mut member_tables: Vec<TableRef> = members
            .iter()
            .map(|&bi| TableRef {
                name: bindings[bi].nickname.clone(),
                alias: Some(bindings[bi].name.clone()),
            })
            .collect();
        let from = member_tables.remove(0);
        let where_clause = combine_and(&local_conjuncts[gi]);

        fragments.push(FragmentSpec {
            index: gi as u32,
            nicknames: members
                .iter()
                .map(|&bi| bindings[bi].nickname.clone())
                .collect(),
            bindings: members
                .iter()
                .map(|&bi| bindings[bi].name.clone())
                .collect(),
            stmt: SelectStmt {
                distinct: false,
                items,
                from,
                from_rest: member_tables,
                joins: vec![],
                where_clause,
                group_by: vec![],
                having: None,
                order_by: vec![],
                limit: None,
            },
            candidate_servers,
            output,
            full_pushdown: false,
        });
    }

    // Build the merge statement over __frag tables.
    let rw = |e: &Expr| rewrite_expr(e, &rewrite_map);
    let merge_items: Vec<SelectItem> = if wildcard && qualified.items.len() == 1 {
        // Expand * to all shipped columns, in fragment order.
        fragments
            .iter()
            .enumerate()
            .flat_map(|(gi, f)| {
                f.output.iter().map(move |c| SelectItem::Expr {
                    expr: Expr::qcol(frag_table(gi), c.out_name.clone()),
                    alias: Some(format!("{}_{}", c.binding, c.column)),
                })
            })
            .collect()
    } else {
        qualified
            .items
            .iter()
            .map(|item| match item {
                SelectItem::Wildcard => Err(QccError::Planning(
                    "mixed wildcard in multi-source aggregate query".into(),
                )),
                SelectItem::Expr { expr, alias } => Ok(SelectItem::Expr {
                    expr: rw(expr)?,
                    alias: alias.clone(),
                }),
            })
            .collect::<Result<_>>()?
    };

    let mut frag_tables: Vec<TableRef> = (0..fragments.len())
        .map(|i| TableRef::new(frag_table(i)))
        .collect();
    let merge_from = frag_tables.remove(0);
    let merge_where = cross_conjuncts
        .iter()
        .map(rw)
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .reduce(Expr::and);

    let merge_stmt = SelectStmt {
        distinct: qualified.distinct,
        items: merge_items,
        from: merge_from,
        from_rest: frag_tables,
        joins: vec![],
        where_clause: merge_where,
        group_by: qualified.group_by.iter().map(rw).collect::<Result<_>>()?,
        having: qualified.having.as_ref().map(rw).transpose()?,
        order_by: qualified
            .order_by
            .iter()
            .map(|o| {
                // ORDER BY may reference select aliases, which survive the
                // rewrite untouched; otherwise rewrite the columns.
                let expr = match rw(&o.expr) {
                    Ok(e) => e,
                    Err(_) => o.expr.clone(),
                };
                Ok(qcc_sql::OrderItem { expr, desc: o.desc })
            })
            .collect::<Result<Vec<_>>>()?,
        limit: qualified.limit,
    };

    Ok(DecomposedQuery {
        stmt: qualified,
        fragments,
        merge: MergeSpec::Merge {
            stmt: Box::new(merge_stmt),
        },
        template_signature,
    })
}

// ---------------------------------------------------------------------------
// Expression utilities
// ---------------------------------------------------------------------------

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

fn combine_and(preds: &[Expr]) -> Option<Expr> {
    preds.iter().cloned().reduce(Expr::and)
}

/// Rewrite fully-qualified column refs through the fragment output map.
fn rewrite_expr(expr: &Expr, map: &BTreeMap<(String, String), (String, String)>) -> Result<Expr> {
    Ok(match expr {
        Expr::Column {
            table: Some(t),
            name,
        } => {
            let key = (t.to_ascii_lowercase(), name.to_ascii_lowercase());
            let (frag, out) = map.get(&key).ok_or_else(|| {
                QccError::Planning(format!("column {t}.{name} not shipped by any fragment"))
            })?;
            Expr::qcol(frag.clone(), out.clone())
        }
        Expr::Column { table: None, name } => {
            return Err(QccError::Planning(format!(
                "unqualified column {name} after qualification"
            )))
        }
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(rewrite_expr(left, map)?),
            right: Box::new(rewrite_expr(right, map)?),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(rewrite_expr(expr, map)?),
        },
        Expr::Agg {
            func,
            arg,
            distinct,
        } => Expr::Agg {
            func: *func,
            arg: match arg {
                Some(a) => Some(Box::new(rewrite_expr(a, map)?)),
                None => None,
            },
            distinct: *distinct,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite_expr(expr, map)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(rewrite_expr(expr, map)?),
            list: list
                .iter()
                .map(|e| rewrite_expr(e, map))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(rewrite_expr(expr, map)?),
            low: Box::new(rewrite_expr(low, map)?),
            high: Box::new(rewrite_expr(high, map)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(rewrite_expr(expr, map)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
    })
}

/// Qualify every column reference in a statement via `resolve`.
fn qualify_stmt(
    stmt: &SelectStmt,
    resolve: &dyn Fn(Option<&str>, &str) -> Result<String>,
) -> Result<SelectStmt> {
    let q = |e: &Expr| qualify_expr(e, resolve);
    Ok(SelectStmt {
        distinct: stmt.distinct,
        items: stmt
            .items
            .iter()
            .map(|i| match i {
                SelectItem::Wildcard => Ok(SelectItem::Wildcard),
                SelectItem::Expr { expr, alias } => Ok(SelectItem::Expr {
                    expr: q(expr)?,
                    alias: alias.clone(),
                }),
            })
            .collect::<Result<_>>()?,
        from: stmt.from.clone(),
        from_rest: stmt.from_rest.clone(),
        joins: stmt
            .joins
            .iter()
            .map(|j| {
                Ok(JoinClause {
                    table: j.table.clone(),
                    on: q(&j.on)?,
                })
            })
            .collect::<Result<_>>()?,
        where_clause: stmt.where_clause.as_ref().map(&q).transpose()?,
        group_by: stmt.group_by.iter().map(&q).collect::<Result<_>>()?,
        having: stmt.having.as_ref().map(&q).transpose()?,
        order_by: stmt
            .order_by
            .iter()
            .map(|o| {
                // Alias references stay unqualified (resolved later).
                let expr = match q(&o.expr) {
                    Ok(e) => e,
                    Err(QccError::UnknownColumn(_)) => o.expr.clone(),
                    Err(e) => return Err(e),
                };
                Ok(qcc_sql::OrderItem { expr, desc: o.desc })
            })
            .collect::<Result<Vec<_>>>()?,
        limit: stmt.limit,
    })
}

fn qualify_expr(
    expr: &Expr,
    resolve: &dyn Fn(Option<&str>, &str) -> Result<String>,
) -> Result<Expr> {
    Ok(match expr {
        Expr::Column { table, name } => {
            let binding = resolve(table.as_deref(), name)?;
            Expr::Column {
                table: Some(binding),
                name: name.clone(),
            }
        }
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(qualify_expr(left, resolve)?),
            right: Box::new(qualify_expr(right, resolve)?),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(qualify_expr(expr, resolve)?),
        },
        Expr::Agg {
            func,
            arg,
            distinct,
        } => Expr::Agg {
            func: *func,
            arg: match arg {
                Some(a) => Some(Box::new(qualify_expr(a, resolve)?)),
                None => None,
            },
            distinct: *distinct,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(qualify_expr(expr, resolve)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(qualify_expr(expr, resolve)?),
            list: list
                .iter()
                .map(|e| qualify_expr(e, resolve))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(qualify_expr(expr, resolve)?),
            low: Box::new(qualify_expr(low, resolve)?),
            high: Box::new(qualify_expr(high, resolve)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(qualify_expr(expr, resolve)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
    })
}

/// Statement signature with literals blanked out: identifies a query
/// *template* so calibration and round-robin state generalize over
/// parameter values (the paper runs "10 different query instances" per
/// type — same template, different parameters).
pub fn template_signature(stmt: &SelectStmt) -> String {
    let mut s = stmt.clone();
    fn blank(e: &mut Expr) {
        match e {
            Expr::Literal(v) => *v = Value::Str("?".into()),
            Expr::Column { .. } => {}
            Expr::Binary { left, right, .. } => {
                blank(left);
                blank(right);
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => blank(expr),
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    blank(a);
                }
            }
            Expr::InList { expr, list, .. } => {
                blank(expr);
                for i in list {
                    blank(i);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                blank(expr);
                blank(low);
                blank(high);
            }
            Expr::Like { expr, pattern, .. } => {
                blank(expr);
                *pattern = "?".into();
            }
        }
    }
    for item in &mut s.items {
        if let SelectItem::Expr { expr, .. } = item {
            blank(expr);
        }
    }
    for j in &mut s.joins {
        blank(&mut j.on);
    }
    if let Some(w) = &mut s.where_clause {
        blank(w);
    }
    for g in &mut s.group_by {
        blank(g);
    }
    if let Some(h) = &mut s.having {
        blank(h);
    }
    for o in &mut s.order_by {
        blank(&mut o.expr);
    }
    s.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_common::{Column, DataType};

    fn catalog() -> NicknameCatalog {
        let mut c = NicknameCatalog::new();
        c.define(
            "accounts",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("balance", DataType::Float),
                Column::new("branch_id", DataType::Int),
            ]),
        );
        c.define(
            "branches",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("city", DataType::Str),
            ]),
        );
        // accounts on S1 and replica R1; branches on S2 and replica R2.
        c.add_source("accounts", ServerId::new("S1"), "accounts")
            .unwrap();
        c.add_source("accounts", ServerId::new("R1"), "accounts")
            .unwrap();
        c.add_source("branches", ServerId::new("S2"), "branches")
            .unwrap();
        c.add_source("branches", ServerId::new("R2"), "branches")
            .unwrap();
        c
    }

    fn colocated_catalog() -> NicknameCatalog {
        let mut c = catalog();
        // Also host branches on S1 so single-fragment pushdown is possible.
        c.add_source("branches", ServerId::new("S1"), "branches")
            .unwrap();
        c
    }

    #[test]
    fn single_source_full_pushdown() {
        let d = decompose(
            "SELECT SUM(balance) FROM accounts WHERE id > 100",
            &catalog(),
        )
        .unwrap();
        assert_eq!(d.fragments.len(), 1);
        assert!(d.fragments[0].full_pushdown);
        assert!(matches!(d.merge, MergeSpec::Passthrough));
        assert_eq!(d.fragments[0].candidate_servers.len(), 2, "S1 and R1");
    }

    #[test]
    fn colocated_join_pushes_down() {
        let d = decompose(
            "SELECT a.id, b.city FROM accounts a JOIN branches b ON a.branch_id = b.id",
            &colocated_catalog(),
        )
        .unwrap();
        assert_eq!(d.fragments.len(), 1, "S1 hosts both");
        assert_eq!(d.fragments[0].candidate_servers, vec![ServerId::new("S1")]);
    }

    #[test]
    fn cross_source_join_splits() {
        let d = decompose(
            "SELECT a.id, b.city FROM accounts a JOIN branches b ON a.branch_id = b.id \
             WHERE a.balance > 50.0",
            &catalog(),
        )
        .unwrap();
        assert_eq!(d.fragments.len(), 2);
        let f0 = &d.fragments[0];
        assert!(!f0.full_pushdown);
        // Local predicate pushed into accounts fragment.
        assert!(f0.stmt.where_clause.is_some());
        let f0_sql = f0.stmt.to_string();
        assert!(f0_sql.contains("balance"), "{f0_sql}");
        // branch_id shipped for the merge join.
        assert!(f0.output.iter().any(|c| c.column == "branch_id"));
        // Merge statement joins the temp tables.
        match &d.merge {
            MergeSpec::Merge { stmt } => {
                let sql = stmt.to_string();
                assert!(sql.contains("__frag0"), "{sql}");
                assert!(sql.contains("__frag1"), "{sql}");
                assert!(sql.contains("="), "join predicate preserved: {sql}");
            }
            MergeSpec::Passthrough => panic!("expected merge"),
        }
    }

    #[test]
    fn fragment_translation_to_server_tables() {
        let mut c = catalog();
        c.add_source("accounts", ServerId::new("S9"), "acct_backup")
            .unwrap();
        let d = decompose("SELECT id FROM accounts", &c).unwrap();
        let sql = d.fragments[0]
            .sql_for_server(&c, &ServerId::new("S9"))
            .unwrap();
        assert!(sql.contains("acct_backup"), "{sql}");
        assert!(sql.contains("accounts"), "alias keeps binding name: {sql}");
    }

    #[test]
    fn aggregate_over_split_sources_runs_at_ii() {
        let d = decompose(
            "SELECT b.city, COUNT(*) AS n FROM accounts a JOIN branches b \
             ON a.branch_id = b.id GROUP BY b.city ORDER BY n DESC LIMIT 3",
            &catalog(),
        )
        .unwrap();
        assert_eq!(d.fragments.len(), 2);
        // Fragments carry no aggregation.
        for f in &d.fragments {
            assert!(f.stmt.group_by.is_empty());
            assert!(f.stmt.limit.is_none());
        }
        match &d.merge {
            MergeSpec::Merge { stmt } => {
                assert!(!stmt.group_by.is_empty());
                assert_eq!(stmt.limit, Some(3));
                assert_eq!(stmt.order_by.len(), 1);
            }
            MergeSpec::Passthrough => panic!("expected merge"),
        }
    }

    #[test]
    fn wildcard_ships_all_columns() {
        let d = decompose(
            "SELECT * FROM accounts a, branches b WHERE a.branch_id = b.id",
            &catalog(),
        )
        .unwrap();
        let total: usize = d.fragments.iter().map(|f| f.output.len()).sum();
        assert_eq!(total, 5, "3 account + 2 branch columns");
    }

    #[test]
    fn template_signature_blanks_literals() {
        let c = catalog();
        let a = decompose("SELECT id FROM accounts WHERE balance > 10.0", &c).unwrap();
        let b = decompose("SELECT id FROM accounts WHERE balance > 99.5", &c).unwrap();
        assert_eq!(a.template_signature, b.template_signature);
        let c2 = decompose("SELECT id FROM accounts WHERE balance < 10.0", &c).unwrap();
        assert_ne!(a.template_signature, c2.template_signature);
    }

    /// The greedy grouping as it stood before the position index — host
    /// lists intersected by `Vec::contains` — kept as the reference for the
    /// property below. `sources[i]` are binding `i`'s hosts in registration
    /// order; returns each group's members and common hosts.
    fn reference_groups(sources: &[Vec<ServerId>]) -> Vec<(Vec<usize>, Vec<ServerId>)> {
        let mut groups: Vec<(Vec<usize>, Vec<ServerId>)> = Vec::new();
        for (bi, servers) in sources.iter().enumerate() {
            let mut placed = false;
            for (members, common) in groups.iter_mut() {
                let intersection: Vec<ServerId> = common
                    .iter()
                    .filter(|s| servers.contains(s))
                    .cloned()
                    .collect();
                if !intersection.is_empty() {
                    members.push(bi);
                    *common = intersection;
                    placed = true;
                    break;
                }
            }
            if !placed {
                groups.push((vec![bi], servers.clone()));
            }
        }
        groups
    }

    /// Seeded property: over generated nickname catalogs (1–4 nicknames,
    /// overlapping host sets registered in scrambled order) every fragment
    /// lists the candidates the `contains` filter listed, element for
    /// element, and they are its nicknames' common servers.
    #[test]
    fn grouping_equals_the_reference_on_generated_catalogs() {
        let mut rng = qcc_common::Pcg32::seed_from(0xdec0);
        let mut multi_group = 0;
        for case in 0..600 {
            let fleet = rng.range_u64(1, 13);
            let tables = rng.range_u64(1, 5) as usize;
            let mut catalog = NicknameCatalog::new();
            let mut sources: Vec<Vec<ServerId>> = Vec::new();
            for t in 0..tables {
                let columns = vec![Column::new(format!("k{t}"), DataType::Int)];
                catalog.define(format!("t{t}"), Schema::new(columns));
                let mut hosts: Vec<ServerId> = (0..fleet)
                    .filter(|_| rng.range_u64(0, 3) > 0)
                    .map(|i| ServerId::new(format!("S{i}")))
                    .collect();
                if hosts.is_empty() {
                    hosts.push(ServerId::new("S0"));
                }
                rng.shuffle(&mut hosts);
                for host in &hosts {
                    let added = catalog.add_source(&format!("t{t}"), host.clone(), format!("r{t}"));
                    added.expect("defined above");
                }
                sources.push(hosts);
            }
            let from: Vec<String> = (0..tables).map(|t| format!("T{t}")).collect();
            let sql = format!("SELECT * FROM {}", from.join(", "));
            let d = decompose(&sql, &catalog).unwrap_or_else(|e| panic!("case {case}: {e}"));
            let expected = reference_groups(&sources);
            assert_eq!(d.fragments.len(), expected.len(), "case {case}: {sql}");
            for (frag, (members, servers)) in d.fragments.iter().zip(&expected) {
                let nicknames: Vec<String> = members.iter().map(|t| format!("t{t}")).collect();
                assert_eq!(frag.nicknames, nicknames, "case {case}");
                assert_eq!(&frag.candidate_servers, servers, "case {case}");
                let names: Vec<&str> = nicknames.iter().map(String::as_str).collect();
                let common: BTreeSet<ServerId> = catalog
                    .common_servers(&names)
                    .unwrap()
                    .into_iter()
                    .collect();
                assert_eq!(common, servers.iter().cloned().collect(), "case {case}");
            }
            multi_group += usize::from(expected.len() > 1);
        }
        assert!(multi_group > 50, "only {multi_group} multi-fragment cases");
    }

    /// The paper's five tables: `big_a`, `big_b` on S1–S3, `big_c`,
    /// `small_s` on S4–S6, `big_d` on S3–S4 (it can join either side).
    fn paper_catalog() -> NicknameCatalog {
        let mut c = NicknameCatalog::new();
        let tables: [(&str, &[(&str, DataType)], &[&str]); 5] = [
            (
                "big_a",
                &[
                    ("id", DataType::Int),
                    ("grp", DataType::Int),
                    ("val", DataType::Float),
                    ("sel", DataType::Int),
                ],
                &["S1", "S2", "S3"],
            ),
            (
                "big_d",
                &[
                    ("id", DataType::Int),
                    ("grp", DataType::Int),
                    ("val", DataType::Float),
                    ("sel", DataType::Int),
                ],
                &["S3", "S4"],
            ),
            (
                "big_b",
                &[
                    ("id", DataType::Int),
                    ("a_id", DataType::Int),
                    ("qty", DataType::Int),
                ],
                &["S1", "S2", "S3"],
            ),
            (
                "big_c",
                &[
                    ("id", DataType::Int),
                    ("b_id", DataType::Int),
                    ("flag", DataType::Int),
                ],
                &["S4", "S5", "S6"],
            ),
            (
                "small_s",
                &[
                    ("id", DataType::Int),
                    ("cat", DataType::Str),
                    ("bonus", DataType::Float),
                ],
                &["S4", "S5", "S6"],
            ),
        ];
        for (name, columns, hosts) in tables {
            let columns = columns.iter().map(|(n, ty)| Column::new(*n, *ty)).collect();
            c.define(name, Schema::new(columns));
            for host in hosts {
                c.add_source(name, ServerId::new(host), format!("r_{name}"))
                    .unwrap();
            }
        }
        c
    }

    /// Seeded mutation fuzz of the decomposer, the second thing a
    /// statement nobody has seen before meets: it never panics, it rejects
    /// with a `QccError`, and every statement it builds — the qualified
    /// original, each fragment, each translation, the merge — prints to
    /// text that parses back to the same AST.
    #[test]
    fn mutated_statements_never_panic_and_what_is_built_round_trips() {
        let catalog = paper_catalog();
        let seeds = crate::mutate::seed_statements();
        for sql in &seeds {
            decompose(sql, &catalog).unwrap_or_else(|e| panic!("seed `{sql}`: {e}"));
        }
        let round_trip = |stmt: &SelectStmt, sql: &str| {
            let printed = stmt.to_string();
            let reparsed = parse_select(&printed)
                .unwrap_or_else(|e| panic!("`{sql}` builds `{printed}`: {e}"));
            assert_eq!(stmt, &reparsed, "`{sql}` builds `{printed}`");
        };
        let mut rng = qcc_common::Pcg32::seed_from(0xdec0de);
        let (mut accepted, mut split) = (0, 0);
        for _ in 0..24_000 {
            let sql = crate::mutate::mutant(&mut rng, &seeds);
            let result: Result<DecomposedQuery> =
                std::panic::catch_unwind(|| decompose(&sql, &catalog))
                    .unwrap_or_else(|_| panic!("decompose panicked on `{sql}`"));
            let Ok(d) = result else {
                continue;
            };
            accepted += 1;
            round_trip(&d.stmt, &sql);
            for frag in &d.fragments {
                round_trip(&frag.stmt, &sql);
                assert!(!frag.candidate_servers.is_empty(), "`{sql}`");
                for server in &frag.candidate_servers {
                    let translated = frag.sql_for_server(&catalog, server).unwrap();
                    parse_select(&translated)
                        .unwrap_or_else(|e| panic!("`{sql}` ships `{translated}`: {e}"));
                }
            }
            if let MergeSpec::Merge { stmt } = &d.merge {
                round_trip(stmt, &sql);
                split += 1;
            }
        }
        assert!(
            accepted > 1_000 && split > 300,
            "{accepted} accepted, {split} split"
        );
    }

    #[test]
    fn unknown_nickname_rejected() {
        assert!(decompose("SELECT * FROM nope", &catalog()).is_err());
    }

    #[test]
    fn ambiguous_column_rejected() {
        assert!(matches!(
            decompose(
                "SELECT id FROM accounts a, branches b WHERE a.branch_id = b.id",
                &catalog()
            ),
            Err(QccError::AmbiguousColumn(_))
        ));
    }
}

//! Vectorized executor with CPU-work accounting.
//!
//! Operators consume and produce columnar [`Chunk`]s — `Arc`-shared column
//! vectors plus a selection vector — instead of materializing a `Vec<Row>`
//! at every plan node. Scans are zero-copy views of table storage, filters
//! only narrow the selection, and zone maps (per-chunk min/max summaries)
//! skip whole chunks that cannot match a pushed-down predicate.
//!
//! Execution returns the result batches and a [`Work`] record of how much
//! CPU work was *accounted*. The formulas live in [`crate::work`]; this
//! executor's half of the virtual-time contract is to call the ledger in
//! the same operator order as the row reference in [`crate::rowexec`],
//! with operator-level totals or per-match events only — so chunk pruning
//! changes wall-clock time but never virtual time.

use crate::cost::CostModel;
use crate::expr::{AggAccumulator, CompiledExpr};
use crate::plan::{index_positions, AggSpec, PlanNode};
use crate::vexpr::{cmp_holds, eval_cells, eval_predicate_cells, PairView, RowView};
use crate::work::{Ledger, Work};
use qcc_common::{CellRef, ColumnBatch, ColumnSummary, ColumnVector, QccError, Result, Row, Value};
use qcc_sql::BinaryOp;
use qcc_storage::Catalog;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// FNV-1a hasher for the executor's hot maps (join build tables,
/// aggregation groups, distinct sets). Engine-internal keys only, so
/// DoS resistance is irrelevant; map iteration order never reaches the
/// output (first-seen order vectors, probe order), so swapping the
/// hasher cannot change results.
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
}

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;
type FnvSet<K> = HashSet<K, BuildHasherDefault<FnvHasher>>;

/// Which rows of a chunk are live.
enum Sel {
    /// Every physical row.
    All,
    /// The listed physical rows, in order.
    Ids(Vec<u32>),
}

/// A unit of columnar data flowing between operators: shared column
/// vectors of `len` physical rows, narrowed by a selection.
struct Chunk {
    cols: Vec<Arc<ColumnVector>>,
    len: usize,
    sel: Sel,
}

enum SelIter<'a> {
    All(std::ops::Range<usize>),
    Ids(std::slice::Iter<'a, u32>),
}

impl Iterator for SelIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            SelIter::All(r) => r.next(),
            SelIter::Ids(it) => it.next().map(|&i| i as usize),
        }
    }
}

impl Chunk {
    fn n_selected(&self) -> usize {
        match &self.sel {
            Sel::All => self.len,
            Sel::Ids(v) => v.len(),
        }
    }

    fn selected(&self) -> SelIter<'_> {
        match &self.sel {
            Sel::All => SelIter::All(0..self.len),
            Sel::Ids(v) => SelIter::Ids(v.iter()),
        }
    }
}

fn total_selected(chunks: &[Chunk]) -> usize {
    chunks.iter().map(Chunk::n_selected).sum()
}

/// Execute a plan against a catalog, returning columnar batches.
pub fn execute_batches(
    plan: &PlanNode,
    catalog: &Catalog,
    m: &CostModel,
) -> Result<(Vec<ColumnBatch>, Work)> {
    let mut work = Ledger::start(m);
    let chunks = exec_node(plan, catalog, &mut work)?;
    let mut batches = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let n = chunk.n_selected();
        if n == 0 {
            continue;
        }
        match chunk.sel {
            Sel::All => batches.push(ColumnBatch::new(chunk.cols, chunk.len)),
            Sel::Ids(ids) => {
                let cols: Vec<Arc<ColumnVector>> = chunk
                    .cols
                    .iter()
                    .map(|c| {
                        let mut b = c.empty_like();
                        for &i in &ids {
                            b.push_cell(c.cell(i as usize));
                        }
                        Arc::new(b)
                    })
                    .collect();
                batches.push(ColumnBatch::new(cols, n));
            }
        }
    }
    let rows_output = batches.iter().map(|b| b.n_rows() as u64).sum();
    let result_bytes = batches.iter().map(ColumnBatch::byte_size).sum();
    Ok((batches, work.finish(rows_output, result_bytes)))
}

/// Execute a plan against a catalog, materializing rows (the `Row`
/// compatibility boundary for row-oriented callers).
pub fn execute(plan: &PlanNode, catalog: &Catalog, m: &CostModel) -> Result<(Vec<Row>, Work)> {
    let (batches, work) = execute_batches(plan, catalog, m)?;
    let mut rows = Vec::with_capacity(work.rows_output as usize);
    for b in &batches {
        rows.extend(b.to_rows());
    }
    Ok((rows, work))
}

fn exec_node(plan: &PlanNode, catalog: &Catalog, work: &mut Ledger<'_>) -> Result<Vec<Chunk>> {
    match plan {
        PlanNode::SeqScan {
            table, predicate, ..
        } => {
            let entry = catalog.entry(table)?;
            let total = entry.table.row_count();
            work.seq_scan(total, predicate.as_ref().map(CompiledExpr::node_count));
            let mut out: Vec<Chunk> = Vec::new();
            match predicate {
                None => {
                    for ch in entry.table.chunks() {
                        if ch.is_empty() {
                            continue;
                        }
                        out.push(Chunk {
                            cols: ch.columns().to_vec(),
                            len: ch.len(),
                            sel: Sel::All,
                        });
                    }
                }
                Some(p) => {
                    let fast = simple_cmp(p);
                    for ch in entry.table.chunks() {
                        if ch.is_empty() {
                            continue;
                        }
                        match zone_verdict(p, ch.summaries()) {
                            Verdict::SkipAll => {}
                            Verdict::KeepAll => out.push(Chunk {
                                cols: ch.columns().to_vec(),
                                len: ch.len(),
                                sel: Sel::All,
                            }),
                            Verdict::Eval => {
                                let ids: Vec<u32> = match fast {
                                    Some((op, i, lit)) => {
                                        let col = &ch.columns()[i];
                                        let lit = CellRef::of(lit);
                                        (0..ch.len())
                                            .filter(|&r| cmp_keep(op, col.cell(r), lit))
                                            .map(|r| r as u32)
                                            .collect()
                                    }
                                    None => {
                                        let cols = ch.columns();
                                        (0..ch.len())
                                            .filter(|&r| {
                                                eval_predicate_cells(p, &RowView { cols, row: r })
                                            })
                                            .map(|r| r as u32)
                                            .collect()
                                    }
                                };
                                if !ids.is_empty() {
                                    out.push(Chunk {
                                        cols: ch.columns().to_vec(),
                                        len: ch.len(),
                                        sel: Sel::Ids(ids),
                                    });
                                }
                            }
                        }
                    }
                }
            }
            work.emit(total_selected(&out));
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
            let chunks = entry.table.chunks();
            let mut picks: Vec<(usize, usize)> = Vec::with_capacity(positions.len());
            for pos in positions {
                let (ci, pi) = entry.table.locate(pos as usize).ok_or_else(|| {
                    QccError::Execution(format!("index position {pos} out of range"))
                })?;
                if let Some(p) = residual {
                    work.residual_check(p.node_count());
                    let view = RowView {
                        cols: chunks[ci].columns(),
                        row: pi,
                    };
                    if !eval_predicate_cells(p, &view) {
                        continue;
                    }
                }
                picks.push((ci, pi));
            }
            work.emit(picks.len());
            if picks.is_empty() {
                return Ok(Vec::new());
            }
            let arity = chunks[picks[0].0].columns().len();
            let mut builders: Vec<ColumnVector> = (0..arity)
                .map(|j| chunks[picks[0].0].columns()[j].empty_like())
                .collect();
            for &(ci, pi) in &picks {
                for (j, b) in builders.iter_mut().enumerate() {
                    b.push_cell(chunks[ci].columns()[j].cell(pi));
                }
            }
            Ok(vec![Chunk {
                cols: builders.into_iter().map(Arc::new).collect(),
                len: picks.len(),
                sel: Sel::All,
            }])
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
            work.hash_join_sides(total_selected(&build), total_selected(&probe));
            // The scratch key is reused across rows (slice lookup via
            // `Borrow<[Value]>`); it is cloned only when a build key is
            // first inserted, never on the probe side.
            let mut table: FnvMap<Vec<Value>, Vec<(u32, u32)>> = FnvMap::default();
            let mut key: Vec<Value> = Vec::with_capacity(left_keys.len());
            for (ci, ch) in build.iter().enumerate() {
                for pi in ch.selected() {
                    let view = RowView {
                        cols: &ch.cols,
                        row: pi,
                    };
                    key.clear();
                    for k in left_keys {
                        key.push(eval_cells(k, &view).to_value());
                    }
                    if key.iter().any(Value::is_null) {
                        continue; // NULL keys never join.
                    }
                    match table.get_mut(key.as_slice()) {
                        Some(hits) => hits.push((ci as u32, pi as u32)),
                        None => {
                            table.insert(key.clone(), vec![(ci as u32, pi as u32)]);
                        }
                    }
                }
            }
            let mut lpicks: Vec<(u32, u32)> = Vec::new();
            let mut rpicks: Vec<(u32, u32)> = Vec::new();
            for (ci, ch) in probe.iter().enumerate() {
                for pi in ch.selected() {
                    let view = RowView {
                        cols: &ch.cols,
                        row: pi,
                    };
                    key.clear();
                    for k in right_keys {
                        key.push(eval_cells(k, &view).to_value());
                    }
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    if let Some(matches) = table.get(key.as_slice()) {
                        for &(bci, bpi) in matches {
                            if let Some(p) = residual {
                                work.residual_check(p.node_count());
                                let pair = PairView {
                                    left: &build[bci as usize].cols,
                                    lrow: bpi as usize,
                                    right: &ch.cols,
                                    rrow: pi,
                                };
                                if !eval_predicate_cells(p, &pair) {
                                    continue;
                                }
                            }
                            work.emit(1);
                            lpicks.push((bci, bpi));
                            rpicks.push((ci as u32, pi as u32));
                        }
                    }
                }
            }
            Ok(join_output(&build, &lpicks, &probe, &rpicks))
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
                total_selected(&outer),
                total_selected(&inner),
                predicate.as_ref().map(CompiledExpr::node_count),
            );
            let mut lpicks: Vec<(u32, u32)> = Vec::new();
            let mut rpicks: Vec<(u32, u32)> = Vec::new();
            for (oci, och) in outer.iter().enumerate() {
                for opi in och.selected() {
                    for (ici, ich) in inner.iter().enumerate() {
                        for ipi in ich.selected() {
                            let keep = predicate.as_ref().is_none_or(|p| {
                                let pair = PairView {
                                    left: &och.cols,
                                    lrow: opi,
                                    right: &ich.cols,
                                    rrow: ipi,
                                };
                                eval_predicate_cells(p, &pair)
                            });
                            if keep {
                                work.emit(1);
                                lpicks.push((oci as u32, opi as u32));
                                rpicks.push((ici as u32, ipi as u32));
                            }
                        }
                    }
                }
            }
            Ok(join_output(&outer, &lpicks, &inner, &rpicks))
        }
        PlanNode::Filter {
            input, predicate, ..
        } => {
            let chunks = exec_node(input, catalog, work)?;
            work.filter(total_selected(&chunks), predicate.node_count());
            let mut out = Vec::with_capacity(chunks.len());
            for ch in chunks {
                let ids: Vec<u32> = ch
                    .selected()
                    .filter(|&r| {
                        eval_predicate_cells(
                            predicate,
                            &RowView {
                                cols: &ch.cols,
                                row: r,
                            },
                        )
                    })
                    .map(|r| r as u32)
                    .collect();
                if !ids.is_empty() {
                    out.push(Chunk {
                        cols: ch.cols,
                        len: ch.len,
                        sel: Sel::Ids(ids),
                    });
                }
            }
            Ok(out)
        }
        PlanNode::Project {
            input,
            exprs,
            schema,
        } => {
            let chunks = exec_node(input, catalog, work)?;
            let nodes: usize = exprs.iter().map(CompiledExpr::node_count).sum();
            work.project(total_selected(&chunks), nodes);
            let mut out = Vec::with_capacity(chunks.len());
            for ch in &chunks {
                let k = ch.n_selected();
                if k == 0 {
                    continue;
                }
                let mut builders: Vec<ColumnVector> = (0..exprs.len())
                    .map(|j| ColumnVector::new_for(schema.columns().get(j).map(|c| c.ty)))
                    .collect();
                for r in ch.selected() {
                    let view = RowView {
                        cols: &ch.cols,
                        row: r,
                    };
                    for (j, e) in exprs.iter().enumerate() {
                        builders[j].push_cell(eval_cells(e, &view));
                    }
                }
                out.push(Chunk {
                    cols: builders.into_iter().map(Arc::new).collect(),
                    len: k,
                    sel: Sel::All,
                });
            }
            Ok(out)
        }
        PlanNode::HashAggregate {
            input,
            group_by,
            aggs,
            schema,
            ..
        } => {
            let chunks = exec_node(input, catalog, work)?;
            work.aggregate_input(total_selected(&chunks), aggs.len());
            exec_aggregate(&chunks, group_by, aggs, schema, work)
        }
        PlanNode::Sort { input, keys } => {
            let chunks = exec_node(input, catalog, work)?;
            let picks: Vec<(u32, u32)> = chunks
                .iter()
                .enumerate()
                .flat_map(|(ci, ch)| ch.selected().map(move |pi| (ci as u32, pi as u32)))
                .collect();
            work.sort(picks.len());
            if picks.is_empty() {
                return Ok(Vec::new());
            }
            // Evaluate each sort key once per row into key columns, then
            // stably sort the row indices. The comparator is identical to
            // the row engine's, and both sorts are stable, so the
            // permutation matches row-at-a-time execution exactly.
            let mut keycols: Vec<ColumnVector> = keys
                .iter()
                .map(|_| ColumnVector::Mixed(Vec::new()))
                .collect();
            for &(ci, pi) in &picks {
                let view = RowView {
                    cols: &chunks[ci as usize].cols,
                    row: pi as usize,
                };
                for ((k, _), col) in keys.iter().zip(keycols.iter_mut()) {
                    col.push(eval_cells(k, &view).to_value());
                }
            }
            let mut order: Vec<u32> = (0..picks.len() as u32).collect();
            order.sort_by(|&a, &b| {
                for ((_, desc), col) in keys.iter().zip(&keycols) {
                    let ord = col.cell(a as usize).total_cmp(col.cell(b as usize));
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            let permuted: Vec<(u32, u32)> = order.iter().map(|&i| picks[i as usize]).collect();
            let cols = gather_columns(&chunks, &permuted);
            Ok(vec![Chunk {
                cols,
                len: permuted.len(),
                sel: Sel::All,
            }])
        }
        PlanNode::Limit { input, n } => {
            let chunks = exec_node(input, catalog, work)?;
            let mut remaining = *n as usize;
            let mut out = Vec::new();
            for ch in chunks {
                if remaining == 0 {
                    break;
                }
                let k = ch.n_selected();
                if k <= remaining {
                    remaining -= k;
                    out.push(ch);
                } else {
                    let ids: Vec<u32> = ch.selected().take(remaining).map(|r| r as u32).collect();
                    out.push(Chunk {
                        cols: ch.cols,
                        len: ch.len,
                        sel: Sel::Ids(ids),
                    });
                    remaining = 0;
                }
            }
            Ok(out)
        }
        PlanNode::Distinct { input, .. } => {
            let chunks = exec_node(input, catalog, work)?;
            work.distinct(total_selected(&chunks));
            let mut seen: FnvSet<Vec<Value>> = FnvSet::default();
            let mut out = Vec::with_capacity(chunks.len());
            for ch in chunks {
                // Order-preserving: first occurrence wins.
                let ids: Vec<u32> = ch
                    .selected()
                    .filter(|&r| {
                        let key: Vec<Value> = ch.cols.iter().map(|c| c.value(r)).collect();
                        seen.insert(key)
                    })
                    .map(|r| r as u32)
                    .collect();
                if !ids.is_empty() {
                    out.push(Chunk {
                        cols: ch.cols,
                        len: ch.len,
                        sel: Sel::Ids(ids),
                    });
                }
            }
            Ok(out)
        }
    }
}

/// Gather picked rows of `chunks` into fresh columns, one per source
/// column, preserving pick order.
fn gather_columns(chunks: &[Chunk], picks: &[(u32, u32)]) -> Vec<Arc<ColumnVector>> {
    let Some(&(c0, _)) = picks.first() else {
        return Vec::new();
    };
    let arity = chunks[c0 as usize].cols.len();
    let mut out = Vec::with_capacity(arity);
    for j in 0..arity {
        let mut b = chunks[c0 as usize].cols[j].empty_like();
        for &(ci, pi) in picks {
            b.push_cell(chunks[ci as usize].cols[j].cell(pi as usize));
        }
        out.push(Arc::new(b));
    }
    out
}

/// Materialize a join result: left-side columns then right-side columns.
fn join_output(
    left: &[Chunk],
    lpicks: &[(u32, u32)],
    right: &[Chunk],
    rpicks: &[(u32, u32)],
) -> Vec<Chunk> {
    if lpicks.is_empty() {
        return Vec::new();
    }
    let mut cols = gather_columns(left, lpicks);
    cols.extend(gather_columns(right, rpicks));
    vec![Chunk {
        cols,
        len: lpicks.len(),
        sel: Sel::All,
    }]
}

/// What a chunk's zone map says about a pushed-down predicate.
enum Verdict {
    /// Must evaluate row by row.
    Eval,
    /// No row can satisfy the predicate.
    SkipAll,
    /// Every row definitely satisfies the predicate.
    KeepAll,
}

/// Decide whether a chunk can be skipped or kept wholesale from its
/// per-column min/max summaries. Sound for WHERE semantics (`NULL`
/// rejects): `SkipAll` requires every row's predicate truth to be false or
/// unknown, `KeepAll` requires definite truth for every row (hence zero
/// nulls in the tested column).
fn zone_verdict(p: &CompiledExpr, sums: &[ColumnSummary]) -> Verdict {
    match p {
        CompiledExpr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => match (zone_verdict(left, sums), zone_verdict(right, sums)) {
            (Verdict::SkipAll, _) | (_, Verdict::SkipAll) => Verdict::SkipAll,
            (Verdict::KeepAll, Verdict::KeepAll) => Verdict::KeepAll,
            _ => Verdict::Eval,
        },
        CompiledExpr::Binary {
            op: BinaryOp::Or,
            left,
            right,
        } => match (zone_verdict(left, sums), zone_verdict(right, sums)) {
            (Verdict::KeepAll, _) | (_, Verdict::KeepAll) => Verdict::KeepAll,
            (Verdict::SkipAll, Verdict::SkipAll) => Verdict::SkipAll,
            _ => Verdict::Eval,
        },
        _ => match simple_cmp(p) {
            Some((op, i, lit)) => cmp_zone(op, &sums[i], lit),
            None => Verdict::Eval,
        },
    }
}

fn cmp_zone(op: BinaryOp, s: &ColumnSummary, lit: &Value) -> Verdict {
    if lit.is_null() {
        // Comparison with NULL is unknown for every row; WHERE rejects.
        return Verdict::SkipAll;
    }
    let (Some(min), Some(max)) = (&s.min, &s.max) else {
        // All cells are NULL (or the chunk is empty): nothing matches.
        return Verdict::SkipAll;
    };
    let no_nulls = s.null_count == 0;
    // min/max are extremes under the same total order `sql_cmp` uses for
    // non-null values, so range reasoning below is sound for any mix of
    // types (including NaN, which the total order places deterministically).
    let lo = min.total_cmp(lit);
    let hi = max.total_cmp(lit);
    use Ordering::*;
    match op {
        BinaryOp::Eq => {
            if hi == Less || lo == Greater {
                Verdict::SkipAll
            } else if lo == Equal && hi == Equal && no_nulls {
                Verdict::KeepAll
            } else {
                Verdict::Eval
            }
        }
        BinaryOp::NotEq => {
            if lo == Equal && hi == Equal {
                Verdict::SkipAll
            } else if (hi == Less || lo == Greater) && no_nulls {
                Verdict::KeepAll
            } else {
                Verdict::Eval
            }
        }
        BinaryOp::Lt => {
            if lo != Less {
                Verdict::SkipAll
            } else if hi == Less && no_nulls {
                Verdict::KeepAll
            } else {
                Verdict::Eval
            }
        }
        BinaryOp::LtEq => {
            if lo == Greater {
                Verdict::SkipAll
            } else if hi != Greater && no_nulls {
                Verdict::KeepAll
            } else {
                Verdict::Eval
            }
        }
        BinaryOp::Gt => {
            if hi != Greater {
                Verdict::SkipAll
            } else if lo == Greater && no_nulls {
                Verdict::KeepAll
            } else {
                Verdict::Eval
            }
        }
        BinaryOp::GtEq => {
            if hi == Less {
                Verdict::SkipAll
            } else if lo != Less && no_nulls {
                Verdict::KeepAll
            } else {
                Verdict::Eval
            }
        }
        _ => Verdict::Eval,
    }
}

/// Recognize `column <cmp> literal` (either operand order), the shape that
/// gets both a zone-map verdict and a tight evaluation loop.
fn simple_cmp(p: &CompiledExpr) -> Option<(BinaryOp, usize, &Value)> {
    let CompiledExpr::Binary { op, left, right } = p else {
        return None;
    };
    use BinaryOp::*;
    if !matches!(op, Eq | NotEq | Lt | LtEq | Gt | GtEq) {
        return None;
    }
    match (&**left, &**right) {
        (CompiledExpr::Column(i), CompiledExpr::Literal(v)) => Some((*op, *i, v)),
        (CompiledExpr::Literal(v), CompiledExpr::Column(i)) => Some((flip(*op), *i, v)),
        _ => None,
    }
}

fn flip(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// WHERE-keep decision for `cell <cmp> lit`: the comparison as the
/// expression tree evaluates it, unknown rejecting.
fn cmp_keep(op: BinaryOp, c: CellRef<'_>, lit: CellRef<'_>) -> bool {
    c.sql_cmp(lit).is_some_and(|ord| cmp_holds(op, ord))
}

fn exec_aggregate(
    chunks: &[Chunk],
    group_by: &[CompiledExpr],
    aggs: &[AggSpec],
    schema: &qcc_common::Schema,
    work: &mut Ledger<'_>,
) -> Result<Vec<Chunk>> {
    // Group rows preserving first-seen key order for determinism.
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: FnvMap<Vec<Value>, usize> = FnvMap::default();
    let make_accs = || -> Vec<AggAccumulator> {
        aggs.iter()
            .map(|a| AggAccumulator::new(a.func, a.distinct))
            .collect()
    };
    let arity = group_by.len() + aggs.len();
    let mut builders: Vec<ColumnVector> = (0..arity)
        .map(|j| ColumnVector::new_for(schema.columns().get(j).map(|c| c.ty)))
        .collect();

    if group_by.is_empty() {
        // Global aggregation always yields exactly one row.
        let mut accs = make_accs();
        for ch in chunks {
            for r in ch.selected() {
                let view = RowView {
                    cols: &ch.cols,
                    row: r,
                };
                feed(&mut accs, aggs, &view);
            }
        }
        work.emit(1);
        for (b, acc) in builders.iter_mut().zip(&accs) {
            b.push(acc.finish());
        }
        return Ok(vec![Chunk {
            cols: builders.into_iter().map(Arc::new).collect(),
            len: 1,
            sel: Sel::All,
        }]);
    }

    // Accumulators live in a dense per-group vector; the map only holds
    // key → group index. The scratch key is reused across rows (slice
    // lookup via `Borrow<[Value]>`), so steady-state rows hash without
    // allocating — keys are cloned once per distinct group, not per row.
    let mut group_accs: Vec<Vec<AggAccumulator>> = Vec::new();
    let mut key: Vec<Value> = Vec::with_capacity(group_by.len());
    for ch in chunks {
        for r in ch.selected() {
            let view = RowView {
                cols: &ch.cols,
                row: r,
            };
            key.clear();
            for k in group_by {
                key.push(eval_cells(k, &view).to_value());
            }
            let gi = match groups.get(key.as_slice()) {
                Some(&gi) => gi,
                None => {
                    let gi = group_accs.len();
                    groups.insert(key.clone(), gi);
                    order.push(key.clone());
                    group_accs.push(make_accs());
                    gi
                }
            };
            feed(&mut group_accs[gi], aggs, &view);
        }
    }
    work.emit(order.len());
    let n = order.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    for (key, accs) in order.into_iter().zip(group_accs) {
        for (j, v) in key.into_iter().enumerate() {
            builders[j].push(v);
        }
        for (j, acc) in accs.iter().enumerate() {
            builders[group_by.len() + j].push(acc.finish());
        }
    }
    Ok(vec![Chunk {
        cols: builders.into_iter().map(Arc::new).collect(),
        len: n,
        sel: Sel::All,
    }])
}

fn feed<C: crate::vexpr::Cells>(accs: &mut [AggAccumulator], aggs: &[AggSpec], view: &C) {
    for (acc, spec) in accs.iter_mut().zip(aggs) {
        match &spec.arg {
            None => acc.push_cell(None),
            Some(e) => acc.push_cell(Some(eval_cells(e, view))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use qcc_common::{Column, DataType, Schema};
    use qcc_storage::Table;

    fn engine() -> Engine {
        let mut c = Catalog::new();
        let mut t = Table::new(
            "sales",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("region", DataType::Str),
                Column::new("amount", DataType::Int),
            ]),
        );
        let regions = ["east", "west", "north"];
        for i in 0..300i64 {
            t.insert(Row::new(vec![
                Value::Int(i),
                Value::from(regions[(i % 3) as usize]),
                Value::Int(i % 10),
            ]))
            .unwrap();
        }
        c.register(t);
        c.create_index("sales", "id").unwrap();
        let mut r = Table::new(
            "regions",
            Schema::new(vec![
                Column::new("name", DataType::Str),
                Column::new("manager", DataType::Str),
            ]),
        );
        for (n, mgr) in [("east", "alice"), ("west", "bob"), ("north", "carol")] {
            r.insert(Row::new(vec![Value::from(n), Value::from(mgr)]))
                .unwrap();
        }
        c.register(r);
        Engine::new(c)
    }

    #[test]
    fn simple_filter_scan() {
        let (rows, work) = engine()
            .execute_sql("SELECT * FROM sales WHERE amount >= 8")
            .unwrap();
        assert_eq!(rows.len(), 60);
        assert_eq!(work.rows_scanned, 300);
        assert!(work.cpu_units > 0.0);
    }

    #[test]
    fn index_scan_reads_fewer_rows() {
        let e = engine();
        let plans = e.explain("SELECT * FROM sales WHERE id = 42").unwrap();
        let idx_plan = plans
            .iter()
            .find(|p| matches!(p.plan, PlanNode::IndexScan { .. }))
            .expect("index plan offered");
        let (rows, work) = e.execute_plan(&idx_plan.plan).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(work.rows_scanned, 1, "index probe touches one row");
    }

    #[test]
    fn hash_join_matches() {
        let (rows, _) = engine()
            .execute_sql(
                "SELECT s.id, r.manager FROM sales s JOIN regions r ON s.region = r.name \
                 WHERE s.amount = 9",
            )
            .unwrap();
        assert_eq!(rows.len(), 30);
        // Every row must carry a manager.
        assert!(rows.iter().all(|r| !r.get(1).is_null()));
    }

    #[test]
    fn aggregation_group_by() {
        let (rows, _) = engine()
            .execute_sql(
                "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM sales GROUP BY region",
            )
            .unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.get(1), &Value::Int(100));
            assert_eq!(r.get(2), &Value::Int(100 / 10 * 45));
        }
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let (rows, _) = engine()
            .execute_sql("SELECT COUNT(*), SUM(amount) FROM sales WHERE amount > 100")
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int(0));
        assert_eq!(rows[0].get(1), &Value::Null, "SUM of nothing is NULL");
    }

    #[test]
    fn grouped_aggregate_on_empty_input_is_empty() {
        let (rows, _) = engine()
            .execute_sql("SELECT region, COUNT(*) FROM sales WHERE amount > 100 GROUP BY region")
            .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn having_filters_groups() {
        let (rows, _) = engine()
            .execute_sql(
                "SELECT amount, COUNT(*) AS n FROM sales GROUP BY amount HAVING amount >= 5",
            )
            .unwrap();
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn order_by_and_limit() {
        let (rows, _) = engine()
            .execute_sql("SELECT id FROM sales ORDER BY id DESC LIMIT 3")
            .unwrap();
        let ids: Vec<i64> = rows.iter().map(|r| r.get(0).as_i64().unwrap()).collect();
        assert_eq!(ids, vec![299, 298, 297]);
    }

    #[test]
    fn order_by_on_aggregate_alias() {
        let (rows, _) = engine()
            .execute_sql(
                "SELECT region, SUM(amount) AS t FROM sales GROUP BY region ORDER BY t DESC, region",
            )
            .unwrap();
        assert_eq!(rows.len(), 3);
        // All sums are equal, so ties break on region ascending.
        assert_eq!(rows[0].get(0), &Value::from("east"));
    }

    #[test]
    fn distinct_dedups_preserving_order() {
        let (rows, _) = engine()
            .execute_sql("SELECT DISTINCT region FROM sales")
            .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get(0), &Value::from("east"), "first-seen order");
    }

    #[test]
    fn projection_expressions() {
        let (rows, _) = engine()
            .execute_sql("SELECT id * 2 + 1 AS x FROM sales WHERE id < 3 ORDER BY id")
            .unwrap();
        let xs: Vec<i64> = rows.iter().map(|r| r.get(0).as_i64().unwrap()).collect();
        assert_eq!(xs, vec![1, 3, 5]);
    }

    #[test]
    fn null_keys_do_not_join() {
        let mut c = Catalog::new();
        let mut a = Table::new("a", Schema::new(vec![Column::new("k", DataType::Int)]));
        a.insert(Row::new(vec![Value::Null])).unwrap();
        a.insert(Row::new(vec![Value::Int(1)])).unwrap();
        c.register(a);
        let mut b = Table::new("b", Schema::new(vec![Column::new("k", DataType::Int)]));
        b.insert(Row::new(vec![Value::Null])).unwrap();
        b.insert(Row::new(vec![Value::Int(1)])).unwrap();
        c.register(b);
        let e = Engine::new(c);
        let (rows, _) = e.execute_sql("SELECT * FROM a, b WHERE a.k = b.k").unwrap();
        assert_eq!(rows.len(), 1, "NULL = NULL must not match");
    }

    #[test]
    fn work_scales_with_data() {
        let e = engine();
        let (_, w1) = e.execute_sql("SELECT * FROM sales WHERE id < 10").unwrap();
        let (_, w2) = e.execute_sql("SELECT * FROM sales").unwrap();
        assert!(w2.cpu_units > w1.cpu_units);
        assert!(w2.result_bytes > w1.result_bytes);
    }

    #[test]
    fn estimated_vs_actual_same_ballpark() {
        // On a query with sane statistics the estimate should be within an
        // order of magnitude of the actual work (no load, no network).
        let e = engine();
        let plans = e.explain("SELECT * FROM sales WHERE amount >= 5").unwrap();
        let best = &plans[0];
        let (_, work) = e.execute_plan(&best.plan).unwrap();
        let est = best.cost.total();
        let actual = work.cpu_units;
        assert!(
            est / actual < 10.0 && actual / est < 10.0,
            "estimate {est} vs actual {actual}"
        );
    }

    /// Every plan the optimizer offers must produce the same rows, in the
    /// same order, with a bit-identical `Work` record through the
    /// vectorized executor as through the row-at-a-time reference.
    #[test]
    fn batches_match_row_reference_bit_exact() {
        let e = engine();
        let queries = [
            "SELECT * FROM sales WHERE amount >= 8",
            "SELECT * FROM sales WHERE id = 42",
            "SELECT * FROM sales WHERE id >= 100 AND id < 110",
            "SELECT s.id, r.manager FROM sales s JOIN regions r ON s.region = r.name",
            "SELECT region, COUNT(*) AS n, SUM(amount) AS t FROM sales GROUP BY region",
            "SELECT COUNT(*), AVG(amount) FROM sales",
            "SELECT DISTINCT region FROM sales ORDER BY region DESC LIMIT 2",
            "SELECT id * 2 + 1 AS x FROM sales WHERE id < 5 ORDER BY x DESC",
        ];
        for sql in queries {
            for planned in e.explain(sql).unwrap() {
                let (brows, bwork) = e.execute_plan(&planned.plan).unwrap();
                let (rrows, rwork) =
                    crate::rowexec::execute_rows(&planned.plan, e.catalog(), e.cost_model())
                        .unwrap();
                assert_eq!(brows, rrows, "rows for {sql}");
                assert_eq!(bwork, rwork, "work for {sql}");
            }
        }
    }

    /// Both executors charge through one ledger (`work.rs`), so the
    /// `exec == rowexec` checks above cannot see a changed formula. These
    /// values can: `(plan signature, cpu_units bits, rows_scanned,
    /// rows_output, result_bytes)` for every plan `explain` offers,
    /// recorded at the last commit where each executor added its own
    /// charges by hand. The last three statements cover the per-match
    /// charging sites: a residual hash join, a nested-loop join and an
    /// index range scan with a residual.
    #[test]
    fn work_is_pinned_for_every_offered_plan() {
        type Pin = (&'static str, u64, u64, u64, u64);
        let pinned: [(&str, &[Pin]); 11] = [
            (
                "SELECT * FROM sales WHERE amount >= 8",
                &[("seqscan(sales,pred)", 0x3fe3a5e353f7ced9, 300, 60, 1220)],
            ),
            (
                "SELECT * FROM sales WHERE id = 42",
                &[
                    ("idxscan(sales.id eq)", 0x3fe1a0e410b630aa, 1, 1, 20),
                    ("seqscan(sales,pred)", 0x3fe34538ef34d6a1, 300, 1, 20),
                ],
            ),
            (
                "SELECT * FROM sales WHERE id >= 100 AND id < 110",
                &[
                    ("idxscan(sales.id range)", 0x3fe6d916872b025b, 200, 10, 203),
                    ("seqscan(sales,pred)", 0x3fe47ae147ae147a, 300, 10, 203),
                ],
            ),
            (
                "SELECT s.id, r.manager FROM sales s JOIN regions r ON s.region = r.name",
                &[(
                    "proj(hj(seqscan(regions),seqscan(sales)))",
                    0x3fe9c985f06f6909,
                    303,
                    300,
                    3700,
                )],
            ),
            (
                "SELECT region, COUNT(*) AS n, SUM(amount) AS t FROM sales GROUP BY region",
                &[(
                    "proj(agg[1](seqscan(sales)))",
                    0x3fefde2ac3222921,
                    300,
                    3,
                    61,
                )],
            ),
            (
                "SELECT COUNT(*), AVG(amount) FROM sales",
                &[(
                    "proj(agg[0](seqscan(sales)))",
                    0x3fefd92b7fe08af0,
                    300,
                    1,
                    16,
                )],
            ),
            (
                "SELECT DISTINCT region FROM sales ORDER BY region DESC LIMIT 2",
                &[(
                    "limit[2](distinct(proj(sort(seqscan(sales)))))",
                    0x3fee25d6313d2792,
                    300,
                    2,
                    9,
                )],
            ),
            (
                "SELECT id * 2 + 1 AS x FROM sales WHERE id < 5 ORDER BY x DESC",
                &[
                    (
                        "proj(sort(idxscan(sales.id range)))",
                        0x3fe1c9e79f09dfbe,
                        5,
                        5,
                        40,
                    ),
                    (
                        "proj(sort(seqscan(sales,pred)))",
                        0x3fe357a059d0f087,
                        300,
                        5,
                        40,
                    ),
                ],
            ),
            (
                "SELECT s.id FROM sales s JOIN regions r ON s.region = r.name \
                 AND (s.amount > 5 OR r.manager = 'bob')",
                &[(
                    "proj(hj(seqscan(regions),seqscan(sales)))",
                    0x3feaa1cac08312c0,
                    303,
                    180,
                    1440,
                )],
            ),
            (
                "SELECT s.id, r.manager FROM sales s, regions r \
                 WHERE s.id < 5 AND r.name > s.region",
                &[
                    (
                        "proj(nlj(seqscan(regions),idxscan(sales.id range)))",
                        0x3fe203afb7e90ffb,
                        8,
                        5,
                        59,
                    ),
                    (
                        "proj(nlj(seqscan(regions),seqscan(sales,pred)))",
                        0x3fe3916872b020c4,
                        303,
                        5,
                        59,
                    ),
                ],
            ),
            (
                "SELECT * FROM sales WHERE id >= 100 AND id < 150 AND amount > 5",
                &[
                    ("idxscan(sales.id range)", 0x3fe7ae147ae1480d, 200, 20, 407),
                    ("seqscan(sales,pred)", 0x3fe5b22d0e560418, 300, 20, 407),
                ],
            ),
        ];
        let e = engine();
        for (sql, plans) in pinned {
            let offered = e.explain(sql).unwrap();
            let got: Vec<(String, u64, u64, u64, u64)> = offered
                .iter()
                .map(|p| {
                    let (_, w) = e.execute_plan(&p.plan).unwrap();
                    (
                        p.plan.signature(),
                        w.cpu_units.to_bits(),
                        w.rows_scanned,
                        w.rows_output,
                        w.result_bytes,
                    )
                })
                .collect();
            let want: Vec<(String, u64, u64, u64, u64)> = plans
                .iter()
                .map(|&(sig, cpu, scanned, out, bytes)| (sig.to_owned(), cpu, scanned, out, bytes))
                .collect();
            assert_eq!(got, want, "{sql}");
        }
    }

    /// Zone maps over a clustered column prune most chunks without
    /// changing results or accounting.
    #[test]
    fn zone_pruning_is_transparent() {
        let mut c = Catalog::new();
        let mut t = Table::new(
            "seq",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("v", DataType::Int),
            ]),
        );
        for i in 0..5000i64 {
            t.insert(Row::new(vec![Value::Int(i), Value::Int(i % 7)]))
                .unwrap();
        }
        c.register(t);
        let e = Engine::new(c);
        for sql in [
            "SELECT * FROM seq WHERE id > 4950",
            "SELECT * FROM seq WHERE id >= 0",
            "SELECT * FROM seq WHERE id < 0",
            "SELECT COUNT(*) FROM seq WHERE id BETWEEN 1000 AND 1010 AND v = 3",
        ] {
            for planned in e.explain(sql).unwrap() {
                let (brows, bwork) = e.execute_plan(&planned.plan).unwrap();
                let (rrows, rwork) =
                    crate::rowexec::execute_rows(&planned.plan, e.catalog(), e.cost_model())
                        .unwrap();
                assert_eq!(brows, rrows, "rows for {sql}");
                assert_eq!(bwork, rwork, "work for {sql}");
            }
        }
    }
}

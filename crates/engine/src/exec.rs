//! Vectorized executor with CPU-work accounting.
//!
//! Operators consume and produce columnar `Chunk`s — `Arc`-shared column
//! vectors plus a selection vector — instead of materializing a `Vec<Row>`
//! at every plan node. Scans are zero-copy views of table storage, filters
//! only narrow the selection, and zone maps (per-chunk min/max summaries)
//! skip whole chunks that cannot match a pushed-down predicate. Hash join,
//! hash aggregate and DISTINCT share one row-id hash table
//! (`crate::rowtable`), and an operator that copies rows (join output,
//! index-scan and sort gathers) copies only the columns its parent reads
//! (`required_columns`). A hash aggregate straight over a hash join
//! runs as one groupjoin (`GroupJoin`): the join's matches feed the
//! aggregate, and there is no join output.
//!
//! The per-row loops of the paper's join and aggregate do not branch on
//! the data. An `Int` column against an `Int` literal writes every row id
//! and advances past it by `!null & holds`. A dense or code join probe
//! first writes each probe row with its chain's head, advancing only past
//! a non-empty one, then walks those chains (`RowTable::probe_chunk`).
//! `COUNT`, `SUM` and `AVG` keep typed per-group state — counts and
//! `NumericSum`s — fed from `Int` / `Float` payloads in one loop per
//! aggregate and chunk, and `MIN` / `MAX` the position of each group's
//! extreme input (`AggState`). A `DISTINCT` aggregate feeds its state
//! the first row of each (group, argument) pair, found through a row-id
//! table.
//!
//! Execution returns the result batches and a [`Work`] record of how much
//! CPU work was *accounted*. The formulas live in [`crate::work`]; this
//! executor's half of the virtual-time contract is the order of its ledger
//! calls, which is normative (the pinned digests of rows and `Work` in the
//! tests were recorded while a row-at-a-time executor agreed with it to
//! the bit), with operator-level totals or per-match events only — so
//! chunk pruning changes wall-clock time but never virtual time — and the
//! list of output chunks, which the remote cursor turns into offsets. The
//! branch-free loops keep that half: they keep the same rows in the same
//! order (a probe's matches, and with them its per-match `emit(1)` and
//! residual calls, in probe order × build order), and each group's state
//! sees its inputs in row order, so float sums keep their bits.
//!
//! A plan's scans read a catalog's tables ([`execute_batches`]) or named
//! slots of batches ([`execute_over`], the integrator's merge over the
//! gathered fragment results). A slot has no zone maps, so its scan
//! evaluates the predicate on every chunk — the same rows and `Work`,
//! since a zone-map verdict only ever short-cuts that evaluation — and no
//! index.

use crate::cost::CostModel;
use crate::expr::CompiledExpr;
use crate::plan::{index_positions, AggSpec, PlanNode};
use crate::rowtable::{KeyChunk, RowTable, Rows};
use crate::vexpr::{cmp_holds, eval_cells, eval_predicate_cells, PairView, RowView};
use crate::work::{Ledger, Work};
use qcc_common::{
    CellRef, ColumnBatch, ColumnSummary, ColumnVector, DataType, QccError, Result, Row, Schema,
    Value,
};
use qcc_sql::{AggFunc, BinaryOp};
use qcc_storage::catalog::CatalogEntry;
use qcc_storage::Catalog;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

/// Which rows of a chunk are live.
enum Sel {
    /// Every physical row.
    All,
    /// The listed physical rows, in order.
    Ids(Vec<u32>),
}

/// A unit of columnar data flowing between operators: shared column
/// vectors of `len` physical rows, narrowed by a selection. A column the
/// parent operator does not read may be an empty placeholder.
struct Chunk {
    cols: Vec<Arc<ColumnVector>>,
    len: usize,
    sel: Sel,
}

impl Chunk {
    fn n_selected(&self) -> usize {
        self.rows().len()
    }

    /// The live rows' physical indices, in order.
    fn selected(&self) -> impl Iterator<Item = usize> + '_ {
        let rows = self.rows();
        (0..rows.len()).map(move |i| rows.get(i))
    }

    fn rows(&self) -> Rows<'_> {
        match &self.sel {
            Sel::All => Rows::All(self.len),
            Sel::Ids(v) => Rows::Ids(v),
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
    run(plan, Tables::Catalog(catalog), m, required_columns)
}

/// Execute a plan against a catalog, materializing rows (the `Row`
/// compatibility boundary for row-oriented callers).
pub fn execute(plan: &PlanNode, catalog: &Catalog, m: &CostModel) -> Result<(Vec<Row>, Work)> {
    Ok(to_rows(execute_batches(plan, catalog, m)?))
}

/// Execute a plan whose scans read named slots of batches instead of
/// catalog tables, materializing rows: a `SeqScan` of `table` reads the
/// batches of the slot of that name (case-insensitive, as a catalog
/// looks names up), and an `IndexScan` is an error, a slot having no
/// index. The rows, their order and the `Work` are those of
/// [`execute`] over a catalog holding each slot's batches as a table.
/// The batches are not checked against the plan: the caller checks them
/// against the schemas the plan was made for
/// ([`qcc_storage::check_batches`]).
pub fn execute_over(
    plan: &PlanNode,
    slots: &[(&str, &[ColumnBatch])],
    m: &CostModel,
) -> Result<(Vec<Row>, Work)> {
    let batches = run(plan, Tables::Slots(slots), m, required_columns)?;
    Ok(to_rows(batches))
}

fn to_rows((batches, work): (Vec<ColumnBatch>, Work)) -> (Vec<Row>, Work) {
    let mut rows = Vec::with_capacity(work.rows_output as usize);
    for b in &batches {
        rows.extend(b.to_rows());
    }
    (rows, work)
}

/// Given the output columns of `plan` its parent reads (`needed`, one
/// flag per column), the columns each child must therefore produce: what
/// passes through `plan`, plus what `plan` itself evaluates. One entry per
/// child, build/outer side first; none for a scan. Column positions never
/// change — an operator that copies rows leaves an empty placeholder where
/// a column is not needed — so plans execute as compiled.
fn required_columns(plan: &PlanNode, needed: &[bool]) -> Vec<Vec<bool>> {
    fn marked<'e>(
        mut used: Vec<bool>,
        exprs: impl IntoIterator<Item = &'e CompiledExpr>,
    ) -> Vec<bool> {
        exprs.into_iter().for_each(|e| e.mark_columns(&mut used));
        used
    }
    let none_of = |input: &PlanNode| vec![false; input.schema().len()];
    // A join's condition is compiled against left ++ right, its keys
    // against their own side.
    let join = |left: &PlanNode,
                condition: &Option<CompiledExpr>,
                left_keys: &[CompiledExpr],
                right_keys: &[CompiledExpr]| {
        let mut l = marked(needed.to_vec(), condition);
        let r = l.split_off(left.schema().len());
        vec![marked(l, left_keys), marked(r, right_keys)]
    };
    match plan {
        PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. } => Vec::new(),
        PlanNode::HashJoin {
            left,
            left_keys,
            right_keys,
            residual,
            ..
        } => join(left, residual, left_keys, right_keys),
        PlanNode::NestedLoopJoin {
            left, predicate, ..
        } => join(left, predicate, &[], &[]),
        PlanNode::Filter { predicate, .. } => vec![marked(needed.to_vec(), [predicate])],
        PlanNode::Project { input, exprs, .. } => vec![marked(none_of(input), exprs)],
        PlanNode::HashAggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            let args = aggs.iter().filter_map(|a| a.arg.as_ref());
            vec![marked(none_of(input), group_by.iter().chain(args))]
        }
        PlanNode::Sort { keys, .. } => {
            vec![marked(needed.to_vec(), keys.iter().map(|(k, _)| k))]
        }
        PlanNode::Limit { .. } => vec![needed.to_vec()],
        // Two rows are duplicates only if every column agrees.
        PlanNode::Distinct { input, .. } => vec![vec![true; input.schema().len()]],
    }
}

/// [`required_columns`]' signature.
type ChildNeeds = fn(&PlanNode, &[bool]) -> Vec<Vec<bool>>;

/// Where a plan's scans find their tables.
#[derive(Clone, Copy)]
enum Tables<'a> {
    /// A catalog's: stored chunks with zone maps, and indexes.
    Catalog(&'a Catalog),
    /// Named slots of batches ([`execute_over`]): neither.
    Slots(&'a [(&'a str, &'a [ColumnBatch])]),
}

/// A scanned table, as [`Exec::lookup`] resolves it.
#[derive(Clone, Copy)]
enum Scanned<'a> {
    Entry(&'a CatalogEntry),
    Slot(&'a [ColumnBatch]),
}

/// One chunk of a scanned table: its columns, its row count and, where
/// the table keeps them, its zone maps.
type ScanChunk<'a> = (&'a [Arc<ColumnVector>], usize, Option<&'a [ColumnSummary]>);

impl<'a> Scanned<'a> {
    fn row_count(self) -> usize {
        match self {
            Scanned::Entry(entry) => entry.table.row_count(),
            Scanned::Slot(batches) => batches.iter().map(ColumnBatch::n_rows).sum(),
        }
    }

    /// The chunks in row order: one of the two sources is empty.
    fn chunks(self) -> impl Iterator<Item = ScanChunk<'a>> {
        let (stored, batches) = match self {
            Scanned::Entry(entry) => (entry.table.chunks(), &[][..]),
            Scanned::Slot(batches) => (&[][..], batches),
        };
        let stored = stored
            .iter()
            .map(|c| (c.columns(), c.len(), Some(c.summaries())));
        stored.chain(batches.iter().map(|b| (b.columns(), b.n_rows(), None)))
    }
}

/// One execution: where the data is, the `Work` so far, and how column
/// requirements flow down the plan.
struct Exec<'a> {
    tables: Tables<'a>,
    work: Ledger<'a>,
    /// [`required_columns`], except in the test that pins it against
    /// requiring everything.
    child_needs: ChildNeeds,
    /// Stands in for every column nobody reads. It is empty, so a read
    /// that should not happen fails instead of returning stale cells.
    pruned: Arc<ColumnVector>,
}

fn run(
    plan: &PlanNode,
    tables: Tables<'_>,
    m: &CostModel,
    child_needs: ChildNeeds,
) -> Result<(Vec<ColumnBatch>, Work)> {
    let mut exec = Exec {
        tables,
        work: Ledger::start(m),
        child_needs,
        pruned: Arc::new(ColumnVector::Mixed(Vec::new())),
    };
    // The caller reads every column of the root.
    let chunks = exec.node(plan, &vec![true; plan.schema().len()])?;
    let mut batches = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let n = chunk.n_selected();
        if n == 0 {
            continue;
        }
        match chunk.sel {
            Sel::All => batches.push(ColumnBatch::new(chunk.cols, chunk.len)),
            Sel::Ids(ids) => {
                let cols = chunk
                    .cols
                    .iter()
                    .map(|c| {
                        let picks = ids.iter().map(|&i| (0, i as usize));
                        Arc::new(ColumnVector::gather(&[c], picks))
                    })
                    .collect();
                batches.push(ColumnBatch::new(cols, n));
            }
        }
    }
    let rows_output = batches.iter().map(|b| b.n_rows() as u64).sum();
    let result_bytes = batches.iter().map(ColumnBatch::byte_size).sum();
    Ok((batches, exec.work.finish(rows_output, result_bytes)))
}

/// `expr` evaluated at each `(columns, row)`, as a typed column.
fn evaluated<'c>(
    expr: &CompiledExpr,
    rows: impl Iterator<Item = (&'c [Arc<ColumnVector>], usize)>,
) -> ColumnVector {
    let mut col = None;
    for (cols, row) in rows {
        let view = RowView { cols, row };
        let cell = eval_cells(expr, &view);
        col.get_or_insert_with(|| builder_for(cell)).push_cell(cell);
    }
    col.unwrap_or_else(|| ColumnVector::new_for(None))
}

/// `expr` over every physical row of `ch`, as a column: the chunk's own
/// column for a bare column reference (the usual key), a freshly
/// evaluated one otherwise.
fn eval_column<'a>(expr: &CompiledExpr, ch: &'a Chunk) -> Cow<'a, ColumnVector> {
    match expr {
        CompiledExpr::Column(i) => Cow::Borrowed(&ch.cols[*i]),
        _ => Cow::Owned(evaluated(expr, (0..ch.len).map(|r| (&ch.cols[..], r)))),
    }
}

fn eval_columns<'a>(exprs: &[CompiledExpr], ch: &'a Chunk) -> Vec<Cow<'a, ColumnVector>> {
    exprs.iter().map(|e| eval_column(e, ch)).collect()
}

fn borrowed<'a>(cols: &'a [Cow<'_, ColumnVector>]) -> Vec<&'a ColumnVector> {
    cols.iter().map(|c| &**c).collect()
}

/// [`eval_columns`] over every chunk.
fn eval_keys<'a>(exprs: &[CompiledExpr], chunks: &'a [Chunk]) -> Vec<Vec<Cow<'a, ColumnVector>>> {
    chunks.iter().map(|ch| eval_columns(exprs, ch)).collect()
}

/// Each chunk's key columns (from [`eval_keys`]) with its live rows: what
/// a row-id table picks its layout from.
fn key_chunks<'a>(
    keys: &'a [Vec<Cow<'_, ColumnVector>>],
    chunks: &'a [Chunk],
) -> Vec<KeyChunk<'a>> {
    keys.iter()
        .zip(chunks)
        .map(|(k, ch)| (borrowed(k), ch.rows()))
        .collect()
}

/// An empty vector of the representation that holds `first`. (`Int` for
/// NULL; a later cell of another type demotes it, as for any column.)
fn builder_for(first: CellRef<'_>) -> ColumnVector {
    ColumnVector::new_for(Some(match first {
        CellRef::Float(_) => DataType::Float,
        CellRef::Str(_) => DataType::Str,
        CellRef::Int(_) | CellRef::Null => DataType::Int,
    }))
}

impl<'a> Exec<'a> {
    /// The table a scan of `name` reads.
    fn lookup(&self, name: &str) -> Result<Scanned<'a>> {
        match self.tables {
            Tables::Catalog(catalog) => catalog.entry(name).map(Scanned::Entry),
            Tables::Slots(slots) => slots
                .iter()
                .find(|(slot, _)| slot.eq_ignore_ascii_case(name))
                .map(|&(_, batches)| Scanned::Slot(batches))
                .ok_or_else(|| QccError::UnknownTable(name.to_owned())),
        }
    }

    /// Run `plan`, producing at least the output columns flagged in
    /// `needed`.
    fn node(&mut self, plan: &PlanNode, needed: &[bool]) -> Result<Vec<Chunk>> {
        let needs = (self.child_needs)(plan, needed);
        match plan {
            PlanNode::SeqScan {
                table, predicate, ..
            } => {
                let scanned = self.lookup(table)?;
                self.work.seq_scan(
                    scanned.row_count(),
                    predicate.as_ref().map(CompiledExpr::node_count),
                );
                let fast = predicate.as_ref().and_then(simple_cmp);
                let mut out: Vec<Chunk> = Vec::new();
                for (cols, len, zones) in scanned.chunks() {
                    if len == 0 {
                        continue;
                    }
                    // Without zone maps every chunk is evaluated; a verdict
                    // only ever short-cuts that, so rows and `Work` agree.
                    let sel = match predicate {
                        None => Sel::All,
                        Some(p) => match zones.map_or(Verdict::Eval, |z| zone_verdict(p, z)) {
                            Verdict::SkipAll => continue,
                            Verdict::KeepAll => Sel::All,
                            Verdict::Eval => {
                                let ids: Vec<u32> = match fast {
                                    Some((op, i, lit)) => cmp_rows(op, &cols[i], lit),
                                    None => (0..len)
                                        .filter(|&r| {
                                            eval_predicate_cells(p, &RowView { cols, row: r })
                                        })
                                        .map(|r| r as u32)
                                        .collect(),
                                };
                                if ids.is_empty() {
                                    continue;
                                }
                                Sel::Ids(ids)
                            }
                        },
                    };
                    out.push(Chunk {
                        cols: cols.to_vec(),
                        len,
                        sel,
                    });
                }
                self.work.emit(total_selected(&out));
                Ok(out)
            }
            PlanNode::IndexScan {
                table,
                column,
                pred,
                residual,
                ..
            } => {
                let Scanned::Entry(entry) = self.lookup(table)? else {
                    return Err(QccError::Execution(format!(
                        "index scan of {table}: a slot has no index"
                    )));
                };
                self.work.index_probe();
                let positions = index_positions(entry, table, column, pred)?;
                self.work.index_matches(positions.len());
                let chunks = entry.table.chunks();
                let mut picks: Vec<(u32, u32)> = Vec::with_capacity(positions.len());
                for &pos in positions {
                    let (ci, pi) = entry.table.locate(pos as usize).ok_or_else(|| {
                        QccError::Execution(format!("index position {pos} out of range"))
                    })?;
                    if let Some(p) = residual {
                        self.work.residual_check(p.node_count());
                        let view = RowView {
                            cols: chunks[ci].columns(),
                            row: pi,
                        };
                        if !eval_predicate_cells(p, &view) {
                            continue;
                        }
                    }
                    picks.push((ci as u32, pi as u32));
                }
                self.work.emit(picks.len());
                if picks.is_empty() {
                    return Ok(Vec::new());
                }
                let column = |j: usize| chunks.iter().map(|c| &*c.columns()[j]).collect();
                Ok(vec![Chunk {
                    cols: self.gather_columns(needed, column, &picks),
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
                let (build, probe) = self.join_inputs(left, right, &needs)?;
                let probe_keys = eval_keys(right_keys, &probe);
                let probe_keys = key_chunks(&probe_keys, &probe);
                let (mut table, build_rows) = build_table(left_keys, &build, &probe_keys);
                let mut picks = Picks {
                    build_rows: &build_rows,
                    left: Vec::new(),
                    right: Vec::new(),
                };
                let sides = JoinSides {
                    build: &build,
                    build_rows: &build_rows,
                    probe: &probe,
                    probe_keys: &probe_keys,
                    residual: residual.as_ref(),
                };
                self.probe(&mut table, &sides, &mut picks);
                Ok(self.join_output(&build, &picks.left, &probe, &picks.right, needed))
            }
            PlanNode::NestedLoopJoin {
                left,
                right,
                predicate,
                ..
            } => {
                let outer = self.node(left, &needs[0])?;
                let inner = self.node(right, &needs[1])?;
                self.work.nested_loop_pairs(
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
                                    self.work.emit(1);
                                    lpicks.push((oci as u32, opi as u32));
                                    rpicks.push((ici as u32, ipi as u32));
                                }
                            }
                        }
                    }
                }
                Ok(self.join_output(&outer, &lpicks, &inner, &rpicks, needed))
            }
            PlanNode::Filter {
                input, predicate, ..
            } => {
                let chunks = self.node(input, &needs[0])?;
                self.work
                    .filter(total_selected(&chunks), predicate.node_count());
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
                let chunks = self.node(input, &needs[0])?;
                let nodes: usize = exprs.iter().map(CompiledExpr::node_count).sum();
                self.work.project(total_selected(&chunks), nodes);
                let mut out = Vec::with_capacity(chunks.len());
                for ch in &chunks {
                    let k = ch.n_selected();
                    if k == 0 {
                        continue;
                    }
                    // A bare column is the chunk's own vector, or its live
                    // rows gathered (a string column as codes, the
                    // dictionary shared); anything else is evaluated row
                    // by row into a vector of its declared type.
                    let cols = exprs.iter().zip(builders_for(schema, exprs.len()));
                    let cols = cols.map(|(e, mut col)| match (e, &ch.sel) {
                        (CompiledExpr::Column(i), Sel::All) => Arc::clone(&ch.cols[*i]),
                        (CompiledExpr::Column(i), Sel::Ids(ids)) => {
                            let picks = ids.iter().map(|&r| (0, r as usize));
                            Arc::new(ColumnVector::gather(&[&ch.cols[*i]], picks))
                        }
                        _ => {
                            for r in ch.selected() {
                                let view = RowView {
                                    cols: &ch.cols,
                                    row: r,
                                };
                                col.push_cell(eval_cells(e, &view));
                            }
                            Arc::new(col)
                        }
                    });
                    out.push(Chunk {
                        cols: cols.collect(),
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
                if let Some(args) = groupjoin_args(input, group_by, aggs) {
                    return self.group_join(input, &needs[0], group_by, aggs, &args, schema);
                }
                let chunks = self.node(input, &needs[0])?;
                self.work
                    .aggregate_input(total_selected(&chunks), aggs.len());
                Ok(self.aggregate(&chunks, group_by, aggs, schema))
            }
            PlanNode::Sort { input, keys } => {
                let chunks = self.node(input, &needs[0])?;
                let picks: Vec<(u32, u32)> = chunks
                    .iter()
                    .enumerate()
                    .flat_map(|(ci, ch)| ch.selected().map(move |pi| (ci as u32, pi as u32)))
                    .collect();
                self.work.sort(picks.len());
                if picks.is_empty() {
                    return Ok(Vec::new());
                }
                // Evaluate each sort key once per row into a typed key
                // column, then stably sort the row indices. The comparator
                // is identical to the row engine's, and both sorts are
                // stable, so the permutation matches row-at-a-time
                // execution exactly.
                let keycols: Vec<ColumnVector> = keys
                    .iter()
                    .map(|(k, _)| match k {
                        CompiledExpr::Column(j) => ColumnVector::gather(
                            &column(&chunks, *j),
                            picks.iter().map(|&(c, r)| (c as usize, r as usize)),
                        ),
                        _ => evaluated(
                            k,
                            picks
                                .iter()
                                .map(|&(c, r)| (&chunks[c as usize].cols[..], r as usize)),
                        ),
                    })
                    .collect();
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
                Ok(vec![Chunk {
                    cols: self.gather_columns(needed, |j| column(&chunks, j), &permuted),
                    len: permuted.len(),
                    sel: Sel::All,
                }])
            }
            PlanNode::Limit { input, n } => {
                let chunks = self.node(input, &needs[0])?;
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
                        let ids: Vec<u32> =
                            ch.selected().take(remaining).map(|r| r as u32).collect();
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
                let chunks = self.node(input, &needs[0])?;
                self.work.distinct(total_selected(&chunks));
                // The row-id table keyed on every column: ids are handed
                // out in first-seen order, so the row that introduces the
                // next unseen id is a first occurrence.
                let keys: Vec<KeyChunk> = chunks
                    .iter()
                    .map(|ch| (ch.cols.iter().map(|c| &**c).collect(), ch.rows()))
                    .collect();
                let mut table = RowTable::for_groups(&keys);
                let mut group = Vec::new();
                let mut out = Vec::with_capacity(chunks.len());
                for (ch, (cols, rows)) in chunks.iter().zip(&keys) {
                    let mut unseen = table.len() as u32;
                    table.group_ids(cols, *rows, &mut group);
                    let ids: Vec<u32> = ch
                        .selected()
                        .zip(&group)
                        .filter(|&(_, &g)| {
                            let first = g == unseen;
                            unseen += u32::from(first);
                            first
                        })
                        .map(|(r, _)| r as u32)
                        .collect();
                    if !ids.is_empty() {
                        out.push(Chunk {
                            cols: ch.cols.clone(),
                            len: ch.len,
                            sel: Sel::Ids(ids),
                        });
                    }
                }
                Ok(out)
            }
        }
    }

    /// A hash join's two inputs, build (left) side first, given what each
    /// must produce.
    fn join_inputs(
        &mut self,
        left: &PlanNode,
        right: &PlanNode,
        needs: &[Vec<bool>],
    ) -> Result<(Vec<Chunk>, Vec<Chunk>)> {
        let build = self.node(left, &needs[0])?;
        let probe = self.node(right, &needs[1])?;
        self.work
            .hash_join_sides(total_selected(&build), total_selected(&probe));
        Ok((build, probe))
    }

    /// A hash join's probe: each probe chunk's matches in probe row ×
    /// build chain order, each charged the residual's check (where there
    /// is one) and, if it passes, `emit(1)`, and handed to `m`.
    fn probe(&mut self, table: &mut RowTable, sides: &JoinSides<'_>, m: &mut impl Matches) {
        for (ci, (ch, (keys, rows))) in sides.probe.iter().zip(sides.probe_keys).enumerate() {
            table.probe_chunk(
                keys,
                *rows,
                m,
                |m, n| m.reserve(n),
                #[inline(always)]
                |m, id, pi| {
                    if let Some(p) = sides.residual {
                        self.work.residual_check(p.node_count());
                        let (bci, bpi) = sides.build_rows[id as usize];
                        let pair = PairView {
                            left: &sides.build[bci as usize].cols,
                            lrow: bpi as usize,
                            right: &ch.cols,
                            rrow: pi,
                        };
                        if !eval_predicate_cells(p, &pair) {
                            return;
                        }
                    }
                    self.work.emit(1);
                    m.push(id, ci as u32, pi as u32);
                },
            );
            m.chunk_done(ci);
        }
    }

    /// A `HashAggregate` over the hash join `join`, its arguments the
    /// columns `args` ([`groupjoin_args`]), run as one [`GroupJoin`]: the
    /// join's ledger calls, then the aggregate's, as the two operators
    /// make them.
    fn group_join(
        &mut self,
        join: &PlanNode,
        needed: &[bool],
        group_by: &[CompiledExpr],
        aggs: &[AggSpec],
        args: &[Option<usize>],
        schema: &Schema,
    ) -> Result<Vec<Chunk>> {
        let PlanNode::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            ..
        } = join
        else {
            unreachable!("groupjoin_args admits hash joins only");
        };
        let needs = (self.child_needs)(join, needed);
        let (build, probe) = self.join_inputs(left, right, &needs)?;
        let probe_keys = eval_keys(right_keys, &probe);
        let probe_keys = key_chunks(&probe_keys, &probe);
        let (mut table, build_rows) = build_table(left_keys, &build, &probe_keys);
        let group_keys = eval_keys(group_by, &build);
        // A build-side argument is gathered by table row id; a probe-side
        // one is read from the probe chunks' own columns.
        let width = left.schema().len();
        let table_rows = build_rows.iter().map(|&(c, r)| (c as usize, r as usize));
        let gathered: Vec<Option<ColumnVector>> = args
            .iter()
            .map(|&arg| {
                let j = arg.filter(|&j| j < width)?;
                Some(ColumnVector::gather(&column(&build, j), table_rows.clone()))
            })
            .collect();
        let (slot_of, slots) = group_slots(&group_keys, &build_rows, group_by.is_empty());
        // No more groups than keys, nor than table rows (but a global one).
        let groups = slots.min(build_rows.len().max(1));
        let mut gj = GroupJoin {
            slot_of,
            group_of: vec![NONE; slots],
            firsts: Vec::new(),
            aggs: aggs
                .iter()
                .zip(args)
                .zip(&gathered)
                .map(|((spec, &arg), gathered)| FedAgg {
                    state: AggState::new(spec, groups),
                    args: match (arg, gathered) {
                        (_, Some(col)) => vec![col],
                        (Some(j), None) => column(&probe, j - width),
                        (None, None) => Vec::new(),
                    },
                    build_side: gathered.is_some(),
                })
                .collect(),
            group: Vec::new(),
            probe_rows: Vec::new(),
            table_rows: Vec::new(),
            reads_build: gathered.iter().any(Option::is_some),
            matches: 0,
        };
        let sides = JoinSides {
            build: &build,
            build_rows: &build_rows,
            probe: &probe,
            probe_keys: &probe_keys,
            residual: residual.as_ref(),
        };
        self.probe(&mut table, &sides, &mut gj);

        self.work.aggregate_input(gj.matches, aggs.len());
        let n = if group_by.is_empty() {
            1
        } else {
            gj.firsts.len()
        };
        self.work.emit(n);
        if n == 0 {
            return Ok(Vec::new());
        }
        // Each group's key cells are its first match's.
        let firsts = gj.firsts.iter().map(|&id| {
            let (c, r) = build_rows[id as usize];
            (c as usize, r as usize)
        });
        let mut cols: Vec<Arc<ColumnVector>> = (0..group_by.len())
            .map(|j| {
                let srcs: Vec<&ColumnVector> = group_keys.iter().map(|k| &*k[j]).collect();
                Arc::new(ColumnVector::gather(&srcs, firsts.clone()))
            })
            .collect();
        let results = builders_for(schema, group_by.len() + aggs.len());
        let results = results.into_iter().skip(group_by.len()).zip(aggs);
        for ((mut col, spec), mut fed) in results.zip(gj.aggs) {
            fed.state.truncate(n);
            fed.state.finish(spec, &fed.args, &mut col);
            cols.push(Arc::new(col));
        }
        Ok(vec![Chunk {
            cols,
            len: n,
            sel: Sel::All,
        }])
    }

    /// One output column per flag of `needed`: the picked `(chunk, row)`
    /// cells of the column's `sources` (one vector per chunk) where the
    /// parent reads it, the placeholder where it does not.
    fn gather_columns<'c>(
        &self,
        needed: &[bool],
        sources: impl Fn(usize) -> Vec<&'c ColumnVector>,
        picks: &[(u32, u32)],
    ) -> Vec<Arc<ColumnVector>> {
        needed
            .iter()
            .enumerate()
            .map(|(j, &read)| {
                if !read {
                    return Arc::clone(&self.pruned);
                }
                let picks = picks.iter().map(|&(c, r)| (c as usize, r as usize));
                Arc::new(ColumnVector::gather(&sources(j), picks))
            })
            .collect()
    }

    /// Materialize a join result: left-side columns then right-side columns.
    fn join_output(
        &self,
        left: &[Chunk],
        lpicks: &[(u32, u32)],
        right: &[Chunk],
        rpicks: &[(u32, u32)],
        needed: &[bool],
    ) -> Vec<Chunk> {
        let Some(&(l0, _)) = lpicks.first() else {
            return Vec::new();
        };
        let (lneeded, rneeded) = needed.split_at(left[l0 as usize].cols.len());
        let mut cols = self.gather_columns(lneeded, |j| column(left, j), lpicks);
        cols.extend(self.gather_columns(rneeded, |j| column(right, j), rpicks));
        vec![Chunk {
            cols,
            len: lpicks.len(),
            sel: Sel::All,
        }]
    }

    fn aggregate(
        &mut self,
        chunks: &[Chunk],
        group_by: &[CompiledExpr],
        aggs: &[AggSpec],
        schema: &Schema,
    ) -> Vec<Chunk> {
        // groups[ci]: the group of each live row of chunk ci. Groups are
        // numbered by the row-id table in first-seen key order; a global
        // aggregation is one group that exists whatever the input.
        let global = group_by.is_empty();
        let keys = eval_keys(group_by, if global { &[] } else { chunks });
        let keys = key_chunks(&keys, chunks);
        let mut table = RowTable::for_groups(&keys);
        let groups: Vec<Vec<u32>> = if global {
            chunks.iter().map(|ch| vec![0; ch.n_selected()]).collect()
        } else {
            let group_ids = |(cols, rows): &KeyChunk| {
                let mut ids = Vec::with_capacity(rows.len());
                table.group_ids(cols, *rows, &mut ids);
                ids
            };
            keys.iter().map(group_ids).collect()
        };
        let n = if global { 1 } else { table.len() };
        self.work.emit(n);
        if n == 0 {
            return Vec::new();
        }
        let mut cols: Vec<Arc<ColumnVector>> =
            table.into_keys().into_iter().map(Arc::new).collect();
        let results = builders_for(schema, group_by.len() + aggs.len());
        for (mut col, spec) in results.into_iter().skip(group_by.len()).zip(aggs) {
            // One aggregate at a time, chunks and rows in order, so float
            // sums keep their bits. `args` is empty for `COUNT(*)`.
            let args: Vec<Cow<ColumnVector>> = match &spec.arg {
                Some(e) => chunks.iter().map(|ch| eval_column(e, ch)).collect(),
                None => Vec::new(),
            };
            let args: Vec<&ColumnVector> = args.iter().map(|c| &**c).collect();
            let mut state = AggState::new(spec, n);
            if spec.distinct && !args.is_empty() {
                for (ci, (rows, group)) in first_pairs(chunks, &groups, &args).iter().enumerate() {
                    state.feed(ci, group, Rows::Ids(rows), &args);
                }
            } else {
                for (ci, (ch, group)) in chunks.iter().zip(&groups).enumerate() {
                    state.feed(ci, group, ch.rows(), &args);
                }
            }
            state.finish(spec, &args, &mut col);
            cols.push(Arc::new(col));
        }
        vec![Chunk {
            cols,
            len: n,
            sel: Sel::All,
        }]
    }
}

/// For a `DISTINCT` aggregate over `args`: the live rows of each chunk
/// whose (group, argument) pair no earlier row has, NULL arguments
/// skipped, each with its group. The pairs are keys of a row-id table, so
/// two arguments are one input where `Value` says they are equal (`Int(3)`
/// and `Float(3.0)`), and the row that introduces the next unseen id is
/// the pair's first occurrence.
fn first_pairs(
    chunks: &[Chunk],
    groups: &[Vec<u32>],
    args: &[&ColumnVector],
) -> Vec<(Vec<u32>, Vec<u32>)> {
    // Per chunk: its groups as a key column beside its argument, and the
    // rows that hold a non-NULL argument, each with its group.
    let mut group_cols = Vec::with_capacity(chunks.len());
    let mut live = Vec::with_capacity(chunks.len());
    for ((ch, group), arg) in chunks.iter().zip(groups).zip(args) {
        let mut data = vec![0; ch.len];
        let mut rows = Vec::with_capacity(group.len());
        let mut rows_group = Vec::with_capacity(group.len());
        grouped_cells(ch.rows(), group, arg, |g, r, c| {
            data[r] = g as i64;
            if !c.is_null() {
                rows.push(r as u32);
                rows_group.push(g as u32);
            }
        });
        let nulls = vec![false; ch.len];
        group_cols.push(ColumnVector::Int { data, nulls });
        live.push((rows, rows_group));
    }
    let keys: Vec<KeyChunk> = group_cols
        .iter()
        .zip(args)
        .zip(&live)
        .map(|((g, arg), (rows, _))| (vec![g, *arg], Rows::Ids(rows)))
        .collect();
    let mut table = RowTable::for_groups(&keys);
    let mut ids = Vec::new();
    keys.iter()
        .zip(&live)
        .map(|((cols, rows), (live_rows, live_group))| {
            let mut unseen = table.len() as u32;
            table.group_ids(cols, *rows, &mut ids);
            let mut firsts = (Vec::new(), Vec::new());
            for ((&id, &r), &g) in ids.iter().zip(live_rows).zip(live_group) {
                if id == unseen {
                    unseen += 1;
                    firsts.0.push(r);
                    firsts.1.push(g);
                }
            }
            firsts
        })
        .collect()
}

/// A hash join's table built and its inputs in hand, for its probe.
struct JoinSides<'a> {
    build: &'a [Chunk],
    /// Table row id → the build row it stands for.
    build_rows: &'a [(u32, u32)],
    probe: &'a [Chunk],
    probe_keys: &'a [KeyChunk<'a>],
    residual: Option<&'a CompiledExpr>,
}

/// The join table on `build`'s keys `left_keys`, to be probed by
/// `probe_keys`, and each table row id's build `(chunk, row)`.
fn build_table(
    left_keys: &[CompiledExpr],
    build: &[Chunk],
    probe_keys: &[KeyChunk<'_>],
) -> (RowTable, Vec<(u32, u32)>) {
    let mut build_rows = Vec::with_capacity(total_selected(build));
    let build_keys = eval_keys(left_keys, build);
    let table = RowTable::build(
        &key_chunks(&build_keys, build),
        probe_keys,
        #[inline(always)]
        |ci, pi| build_rows.push((ci as u32, pi as u32)),
    );
    (table, build_rows)
}

/// Where a hash join's probe sends the matches that pass its residual.
trait Matches {
    /// At least `n` more matches of the probe chunk in hand are coming.
    fn reserve(&mut self, n: usize);
    /// Table row `id` matches row `pi` of probe chunk `ci`.
    fn push(&mut self, id: u32, ci: u32, pi: u32);
    /// Probe chunk `ci` has no more matches.
    fn chunk_done(&mut self, ci: usize);
}

/// A join's output rows as `(chunk, row)` picks: build side, probe side.
struct Picks<'a> {
    build_rows: &'a [(u32, u32)],
    left: Vec<(u32, u32)>,
    right: Vec<(u32, u32)>,
}

impl Matches for Picks<'_> {
    fn reserve(&mut self, n: usize) {
        self.left.reserve(n);
        self.right.reserve(n);
    }

    #[inline(always)]
    fn push(&mut self, id: u32, ci: u32, pi: u32) {
        self.left.push(self.build_rows[id as usize]);
        self.right.push((ci, pi));
    }

    fn chunk_done(&mut self, _ci: usize) {}
}

/// Whether a `HashAggregate` of `group_by` and `aggs` over `input` runs as
/// a [`GroupJoin`], and if so each aggregate's argument column (`None` for
/// `COUNT(*)`). It does where `input` is a hash join, no group key reads
/// the join's probe side, every argument is a bare column, and no
/// aggregate is `DISTINCT`. A probe-side key would need its slot found
/// per probe row, which is the unfused aggregate's group-id pass; an
/// argument expression is evaluated per joined row, which the join's
/// output holds; a `DISTINCT` aggregate finds each group's first inputs
/// through a table over all of them, which the unfused path builds.
fn groupjoin_args(
    input: &PlanNode,
    group_by: &[CompiledExpr],
    aggs: &[AggSpec],
) -> Option<Vec<Option<usize>>> {
    let PlanNode::HashJoin { left, .. } = input else {
        return None;
    };
    let mut used = vec![false; input.schema().len()];
    group_by.iter().for_each(|e| e.mark_columns(&mut used));
    if used[left.schema().len()..].contains(&true) {
        return None;
    }
    aggs.iter()
        .map(|a| match &a.arg {
            _ if a.distinct => None,
            None => Some(None),
            Some(CompiledExpr::Column(j)) => Some(Some(*j)),
            Some(_) => None,
        })
        .collect()
}

/// Each table row's group-key slot, by row id, and the number of slots
/// ([`RowTable::key_slots`]). A global aggregation is one slot.
fn group_slots(
    group_keys: &[Vec<Cow<'_, ColumnVector>>],
    build_rows: &[(u32, u32)],
    global: bool,
) -> (Vec<u32>, usize) {
    if global {
        return (vec![0; build_rows.len()], 1);
    }
    // Each build chunk's rows in the table, in order: the table numbers
    // them chunk by chunk.
    let rows: Vec<u32> = build_rows.iter().map(|&(_, r)| r).collect();
    let mut end = 0;
    let keys: Vec<KeyChunk> = group_keys
        .iter()
        .enumerate()
        .map(|(c, k)| {
            let start = end;
            end += build_rows[start..]
                .iter()
                .take_while(|&&(bc, _)| bc as usize == c)
                .count();
            (borrowed(k), Rows::Ids(&rows[start..end]))
        })
        .collect();
    let mut slot_of = Vec::with_capacity(build_rows.len());
    let slots = RowTable::key_slots(&keys, &mut slot_of);
    (slot_of, slots)
}

/// A `HashAggregate` fed by the hash join under it, match by match, with
/// no join output: the groupjoin of Moerkotte and Neumann ("Accelerating
/// Queries with Group-By and Join by Groupjoin", VLDB 2011), taken at
/// execution time only. Every group key reads the build side, so each
/// table row's key has a slot once the table is built ([`group_slots`]);
/// a slot becomes an output group at its first match. Groups are so
/// numbered first-seen in the order the join emits its rows, and keep
/// that first row's key cells. The matches of each probe chunk are the
/// aggregate's input for the chunk: a group and a probe row per match (and
/// its table row, where an argument is a build column), fed to each
/// aggregate's typed state in match order, so each group sees its inputs
/// in the order the unfused aggregate sees them.
struct GroupJoin<'a> {
    /// Table row id → its key's slot.
    slot_of: Vec<u32>,
    /// Slot → its output group, `NONE` before its first match.
    group_of: Vec<u32>,
    /// Output group → the table row id of its first match.
    firsts: Vec<u32>,
    aggs: Vec<FedAgg<'a>>,
    /// The probe chunk in hand's matches: group, probe row, and — where
    /// an argument `reads_build` — table row id.
    group: Vec<u32>,
    probe_rows: Vec<u32>,
    table_rows: Vec<u32>,
    reads_build: bool,
    /// Matches so far.
    matches: usize,
}

/// One aggregate of a [`GroupJoin`]: its state, and its argument's
/// columns (none for `COUNT(*)`) — one per probe chunk, or, where
/// `build_side`, one by table row id.
struct FedAgg<'a> {
    state: AggState,
    args: Vec<&'a ColumnVector>,
    build_side: bool,
}

impl Matches for GroupJoin<'_> {
    fn reserve(&mut self, n: usize) {
        self.group.reserve(n);
        self.probe_rows.reserve(n);
        self.table_rows.reserve(n);
    }

    #[inline(always)]
    fn push(&mut self, id: u32, _ci: u32, pi: u32) {
        let group = &mut self.group_of[self.slot_of[id as usize] as usize];
        if *group == NONE {
            *group = self.firsts.len() as u32;
            self.firsts.push(id);
        }
        self.group.push(*group);
        self.probe_rows.push(pi);
        if self.reads_build {
            self.table_rows.push(id);
        }
    }

    fn chunk_done(&mut self, ci: usize) {
        self.matches += self.group.len();
        for fed in &mut self.aggs {
            let (ci, rows) = if fed.build_side {
                (0, &self.table_rows)
            } else {
                (ci, &self.probe_rows)
            };
            fed.state.feed(ci, &self.group, Rows::Ids(rows), &fed.args);
        }
        self.group.clear();
        self.probe_rows.clear();
        self.table_rows.clear();
    }
}

/// One aggregate's state, an entry per group: a count for `COUNT`, a
/// [`NumericSum`] for `SUM` / `AVG`, and for `MIN` / `MAX` where the
/// extreme input is.
enum AggState {
    Count(Vec<u64>),
    Sum(Vec<NumericSum>),
    /// Each group's extreme input so far, as `(chunk, row)` of the
    /// argument columns (`NONE` before the first), and the side of it a
    /// new input must fall on to replace it: `Less` for `MIN`, `Greater`
    /// for `MAX`.
    Extreme(Vec<(u32, u32)>, Ordering),
}

/// [`AggState::Extreme`]'s chunk before a group's first input.
const NONE: u32 = u32::MAX;

impl AggState {
    /// The state of no input, for groups `0..n`.
    fn new(spec: &AggSpec, n: usize) -> AggState {
        match spec.func {
            AggFunc::Count => AggState::Count(vec![0; n]),
            AggFunc::Sum | AggFunc::Avg => AggState::Sum(vec![NumericSum::EMPTY; n]),
            AggFunc::Min => AggState::Extreme(vec![(NONE, 0); n], Ordering::Less),
            AggFunc::Max => AggState::Extreme(vec![(NONE, 0); n], Ordering::Greater),
        }
    }

    /// Feed chunk `ci`: its argument `args[ci]` (none for `COUNT(*)`) at
    /// each of its live `rows`, in order, into the entry of its group in
    /// `group`. The state and the argument's representation are matched
    /// once; counts and sums are fed from `Int` / `Float` payloads in a
    /// loop that does not branch on a cell, any other column cell by cell.
    /// NULL is no input. An extreme is replaced only by an input on its
    /// `replaces` side in the total order — numbers exactly across `Int`
    /// and `Float`, NaN above +∞, strings by content — so a tie keeps the
    /// first.
    fn feed(&mut self, ci: usize, group: &[u32], rows: Rows<'_>, args: &[&ColumnVector]) {
        match (self, args.get(ci)) {
            (AggState::Count(counts), None) => group.iter().for_each(|&g| counts[g as usize] += 1),
            (
                AggState::Count(counts),
                Some(ColumnVector::Int { nulls, .. } | ColumnVector::Float { nulls, .. }),
            ) => grouped_rows(rows, group, |g, r| counts[g] += u64::from(!nulls[r])),
            (AggState::Count(counts), Some(col)) => grouped_cells(rows, group, col, |g, _, c| {
                counts[g] += u64::from(!c.is_null())
            }),
            (AggState::Sum(sums), Some(ColumnVector::Int { data, nulls })) => {
                grouped_rows(rows, group, |g, r| sums[g].add_int(data[r], !nulls[r]))
            }
            (AggState::Sum(sums), Some(ColumnVector::Float { data, nulls })) => {
                grouped_rows(rows, group, |g, r| sums[g].add_float(data[r], !nulls[r]))
            }
            (AggState::Sum(sums), Some(col)) => grouped_cells(rows, group, col, |g, _, c| {
                if !c.is_null() {
                    sums[g].add(c);
                }
            }),
            (AggState::Extreme(best, replaces), Some(col)) => grouped_cells(
                rows,
                group,
                col,
                #[inline(always)]
                |g, r, c| {
                    let (bc, br) = best[g];
                    if !c.is_null()
                        && (bc == NONE || cmp_cell(c, args[bc as usize], br as usize) == *replaces)
                    {
                        best[g] = (ci as u32, r as u32);
                    }
                },
            ),
            // A row marker is no number to add or compare.
            (AggState::Sum(_) | AggState::Extreme(..), None) => {}
        }
    }

    /// Keep the entries of groups `0..n` only.
    fn truncate(&mut self, n: usize) {
        match self {
            AggState::Count(counts) => counts.truncate(n),
            AggState::Sum(sums) => sums.truncate(n),
            AggState::Extreme(best, _) => best.truncate(n),
        }
    }

    /// Append each group's value to `col`, in group order: an extreme is
    /// its input's own cell.
    fn finish(self, spec: &AggSpec, args: &[&ColumnVector], col: &mut ColumnVector) {
        match self {
            AggState::Count(counts) => counts.iter().for_each(|&n| col.push(Value::Int(n as i64))),
            AggState::Sum(sums) => {
                let avg = spec.func == AggFunc::Avg;
                sums.iter().for_each(|s| col.push(s.finish(avg)));
            }
            AggState::Extreme(best, _) => {
                best.iter().for_each(|&(c, r)| match args.get(c as usize) {
                    Some(arg) => col.push_cell(arg.cell(r as usize)),
                    None => col.push(Value::Null),
                })
            }
        }
    }
}

/// Running sum of the numeric inputs, exact in `i64` until it overflows
/// (or meets a float) and widens to the `f64` kept alongside.
#[derive(Debug, Clone)]
pub(crate) struct NumericSum {
    count: u64,
    sum: f64,
    int_sum: i64,
    is_int: bool,
}

impl NumericSum {
    /// The sum of no input.
    pub(crate) const EMPTY: NumericSum = NumericSum {
        count: 0,
        sum: 0.0,
        int_sum: 0,
        is_int: true,
    };

    /// Add a non-NULL cell.
    pub(crate) fn add(&mut self, c: CellRef<'_>) {
        self.count += 1;
        match c {
            CellRef::Int(i) => {
                self.sum += i as f64;
                match self.int_sum.checked_add(i) {
                    Some(s) => self.int_sum = s,
                    None => self.is_int = false,
                }
            }
            CellRef::Float(f) => {
                self.sum += f;
                self.is_int = false;
            }
            _ => {}
        }
    }

    /// [`NumericSum::add`] of `CellRef::Int(v)` where `live`, and nothing
    /// where not (a NULL cell, whose payload `v` is unspecified), without
    /// branching on either: a dead cell adds `0`, which leaves both sums
    /// as they are (the `f64` one starts at `+0.0` and so is never `-0.0`,
    /// the one value `+ 0.0` changes).
    #[inline(always)]
    pub(crate) fn add_int(&mut self, v: i64, live: bool) {
        let v = if live { v } else { 0 };
        self.count += u64::from(live);
        self.sum += v as f64;
        match self.int_sum.checked_add(v) {
            Some(s) => self.int_sum = s,
            None => self.is_int = false,
        }
    }

    /// [`NumericSum::add_int`] for `CellRef::Float(x)`.
    #[inline(always)]
    pub(crate) fn add_float(&mut self, x: f64, live: bool) {
        self.count += u64::from(live);
        self.sum += if live { x } else { 0.0 };
        self.is_int &= !live;
    }

    /// `SUM` of the inputs (`avg`: `AVG`); NULL if there were none.
    pub(crate) fn finish(&self, avg: bool) -> Value {
        match self {
            s if s.count == 0 => Value::Null,
            s if avg => Value::Float(s.sum / s.count as f64),
            s if s.is_int => Value::Int(s.int_sum),
            s => Value::Float(s.sum),
        }
    }
}

/// `c` against the non-NULL cell `row` of `col`, as [`CellRef::total_cmp`]
/// orders them; two `Int`s or two `Float`s without reading a cell.
#[inline(always)]
fn cmp_cell(c: CellRef<'_>, col: &ColumnVector, row: usize) -> Ordering {
    match (c, col) {
        (CellRef::Int(a), ColumnVector::Int { data, .. }) => a.cmp(&data[row]),
        (CellRef::Float(a), ColumnVector::Float { data, .. }) => a.total_cmp(&data[row]),
        _ => c.total_cmp(col.cell(row)),
    }
}

/// Call `f(group, row)` for each live row of `rows` in order: its group id
/// from `group`, and its physical index.
#[inline(always)]
fn grouped_rows(rows: Rows<'_>, group: &[u32], mut f: impl FnMut(usize, usize)) {
    match rows {
        Rows::All(n) => group[..n]
            .iter()
            .enumerate()
            .for_each(|(r, &g)| f(g as usize, r)),
        Rows::Ids(ids) => ids
            .iter()
            .zip(group)
            .for_each(|(&r, &g)| f(g as usize, r as usize)),
    }
}

/// [`grouped_rows`] with `col`'s cell at each row.
#[inline(always)]
fn grouped_cells<'c>(
    rows: Rows<'_>,
    group: &[u32],
    col: &'c ColumnVector,
    mut f: impl FnMut(usize, usize, CellRef<'c>),
) {
    let mut i = 0;
    rows.cells(
        col,
        #[inline(always)]
        |c| {
            f(group[i] as usize, rows.get(i), c);
            i += 1;
        },
    );
}

/// Column `j` of every chunk.
fn column(chunks: &[Chunk], j: usize) -> Vec<&ColumnVector> {
    chunks.iter().map(|c| &*c.cols[j]).collect()
}

/// Empty output vectors for the first `arity` columns of `schema`, typed
/// as declared.
fn builders_for(schema: &Schema, arity: usize) -> Vec<ColumnVector> {
    (0..arity)
        .map(|j| ColumnVector::new_for(schema.columns().get(j).map(|c| c.ty)))
        .collect()
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

/// The rows of `col` that WHERE keeps for `cell <op> lit`: the comparison
/// as the expression tree evaluates it, unknown rejecting.
fn cmp_rows(op: BinaryOp, col: &ColumnVector, lit: &Value) -> Vec<u32> {
    match (col, lit) {
        // The paper's filters: the operator is matched once, and the loop
        // over the payload and the null mask does not branch on them.
        (ColumnVector::Int { data, nulls }, &Value::Int(k)) => match op {
            BinaryOp::Eq => int_rows(data, nulls, |v| v == k),
            BinaryOp::NotEq => int_rows(data, nulls, |v| v != k),
            BinaryOp::Lt => int_rows(data, nulls, |v| v < k),
            BinaryOp::LtEq => int_rows(data, nulls, |v| v <= k),
            BinaryOp::Gt => int_rows(data, nulls, |v| v > k),
            BinaryOp::GtEq => int_rows(data, nulls, |v| v >= k),
            _ => Vec::new(),
        },
        _ => {
            let mut ids = Vec::new();
            let lit = CellRef::of(lit);
            let mut r = 0;
            col.for_each_cell(0..col.len(), |c| {
                if c.sql_cmp(lit).is_some_and(|ord| cmp_holds(op, ord)) {
                    ids.push(r);
                }
                r += 1;
            });
            ids
        }
    }
}

/// The rows of an `Int` column whose non-NULL payload `holds`. Every row
/// id is written, and the count advances past it by `!null & holds`, so
/// the loop takes the same path whichever rows pass.
#[inline(always)]
fn int_rows(data: &[i64], nulls: &[bool], holds: impl Fn(i64) -> bool) -> Vec<u32> {
    let mut ids = vec![0; data.len()];
    let mut n = 0;
    for (r, (&v, &null)) in data.iter().zip(nulls).enumerate() {
        ids[n] = r as u32;
        n += usize::from(!null & holds(v));
    }
    ids.truncate(n);
    ids
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

    /// [`crate::digest::run_digest`] over every plan `explain` offers for
    /// `sql`, in order.
    fn offered_digest(e: &Engine, sql: &str) -> u64 {
        e.explain(sql)
            .unwrap()
            .iter()
            .fold(crate::digest::EMPTY, |h, p| {
                let (rows, w) = e.execute_plan(&p.plan).unwrap();
                let work = [
                    w.cpu_units.to_bits(),
                    w.rows_scanned,
                    w.rows_output,
                    w.result_bytes,
                ];
                crate::digest::run_digest(h, &p.plan.signature(), work, &rows)
            })
    }

    /// Every plan the optimizer offers for the first eight of
    /// [`PINNED_STATEMENTS`] returns the rows, in order, and the `Work`
    /// that the batch executor and the row-at-a-time reference both
    /// returned, bit for bit, when the reference was deleted: one digest
    /// per statement.
    #[test]
    fn batches_match_row_reference_bit_exact() {
        let pinned: [u64; 8] = [
            0xe8e714229ea7054b,
            0xdd5eb00146d654ec,
            0xcff34f631ec46a27,
            0xc0f762f79ae040bf,
            0x6f82e0f600c58aba,
            0x51b06ed69bf2c2df,
            0x98f7a3f61c696434,
            0xc8ee2ceb7e52d222,
        ];
        let e = engine();
        for (sql, digest) in PINNED_STATEMENTS.iter().zip(pinned) {
            assert_eq!(offered_digest(&e, sql), digest, "{sql}");
        }
    }

    /// `(plan signature, cpu_units bits, rows_scanned, rows_output,
    /// result_bytes)` for every plan `explain` offers, recorded at the
    /// last commit where each executor added its own charges by hand. The
    /// last three statements cover the per-match charging sites: a
    /// residual hash join, a nested-loop join and an index range scan
    /// with a residual.
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

    /// The statements of `work_is_pinned_for_every_offered_plan`.
    const PINNED_STATEMENTS: [&str; 11] = [
        "SELECT * FROM sales WHERE amount >= 8",
        "SELECT * FROM sales WHERE id = 42",
        "SELECT * FROM sales WHERE id >= 100 AND id < 110",
        "SELECT s.id, r.manager FROM sales s JOIN regions r ON s.region = r.name",
        "SELECT region, COUNT(*) AS n, SUM(amount) AS t FROM sales GROUP BY region",
        "SELECT COUNT(*), AVG(amount) FROM sales",
        "SELECT DISTINCT region FROM sales ORDER BY region DESC LIMIT 2",
        "SELECT id * 2 + 1 AS x FROM sales WHERE id < 5 ORDER BY x DESC",
        "SELECT s.id FROM sales s JOIN regions r ON s.region = r.name \
         AND (s.amount > 5 OR r.manager = 'bob')",
        "SELECT s.id, r.manager FROM sales s, regions r \
         WHERE s.id < 5 AND r.name > s.region",
        "SELECT * FROM sales WHERE id >= 100 AND id < 150 AND amount > 5",
    ];

    /// Whether each `HashAggregate` of `plan`, top down, runs as a
    /// [`GroupJoin`].
    fn groupjoins(plan: &PlanNode) -> Vec<bool> {
        let mut out = Vec::new();
        let mut node = Some(plan);
        while let Some(p) = node {
            node = match p {
                PlanNode::HashAggregate {
                    input,
                    group_by,
                    aggs,
                    ..
                } => {
                    out.push(groupjoin_args(input, group_by, aggs).is_some());
                    Some(input)
                }
                PlanNode::Project { input, .. }
                | PlanNode::Filter { input, .. }
                | PlanNode::Sort { input, .. }
                | PlanNode::Limit { input, .. }
                | PlanNode::Distinct { input, .. } => Some(input),
                _ => None,
            };
        }
        out
    }

    /// Every plan offered for QT1–QT4 over the paper's tables at the scale
    /// `paper_phases` runs (40 000 / 1 000 rows, the scenario's indexes)
    /// is an aggregate straight over a hash join that runs as a
    /// [`GroupJoin`]. So does one whose join has a residual; one with a
    /// `DISTINCT` aggregate, a group key from the probe side or an
    /// expression argument keeps the join output.
    #[test]
    fn paper_query_types_run_as_groupjoins() {
        use qcc_storage::{ColumnSpec, TableSpec};
        let (large, small) = (40_000, 1_000);
        let int = |name: &str, hi: u64| ColumnSpec::IntUniform {
            name: name.into(),
            lo: 0,
            hi: hi as i64,
        };
        let serial = || ColumnSpec::Serial { name: "id".into() };
        let val = || ColumnSpec::FloatUniform {
            name: "val".into(),
            lo: 0.0,
            hi: 100.0,
        };
        let big = || vec![serial(), int("grp", small), val(), int("sel", 10_000)];
        let specs = [
            ("big_a", large, big()),
            ("big_d", large, big()),
            (
                "big_b",
                large,
                vec![serial(), int("a_id", large), int("qty", 100)],
            ),
            (
                "big_c",
                large,
                vec![serial(), int("b_id", large), int("flag", 200)],
            ),
            (
                "small_s",
                small,
                vec![
                    serial(),
                    ColumnSpec::StrPool {
                        name: "cat".into(),
                        pool_size: 10,
                    },
                    ColumnSpec::FloatUniform {
                        name: "bonus".into(),
                        lo: 0.0,
                        hi: 100.0,
                    },
                ],
            ),
        ];
        let mut c = Catalog::new();
        for (name, rows, cols) in specs {
            c.register(TableSpec::new(name, rows, cols).generate(1));
        }
        for (table, column) in [
            ("big_a", "sel"),
            ("big_a", "id"),
            ("big_d", "sel"),
            ("big_c", "flag"),
        ] {
            c.create_index(table, column).unwrap();
        }
        let e = Engine::new(c);
        let fused = [
            "SELECT a.grp, COUNT(*) AS n, SUM(b.qty) AS total \
             FROM big_a a JOIN big_b b ON b.a_id = a.id WHERE a.sel > 2000 GROUP BY a.grp",
            "SELECT s.cat, COUNT(*) AS n, AVG(a.val) AS avg_val \
             FROM big_a a JOIN small_s s ON a.grp = s.id WHERE s.bonus > 20 GROUP BY s.cat",
            "SELECT d.grp, COUNT(*) AS n, MIN(d.val) AS lo \
             FROM big_d d JOIN big_b b ON b.a_id = d.id WHERE d.sel > 9900 GROUP BY d.grp",
            "SELECT COUNT(*) AS n, SUM(b.qty) AS total FROM big_a a \
             JOIN big_b b ON b.a_id = a.id JOIN big_c c ON c.b_id = b.id WHERE c.flag = 100",
            "SELECT s.cat, COUNT(*) AS n FROM big_a a JOIN small_s s \
             ON a.grp = s.id AND a.val > s.bonus WHERE s.bonus > 20 GROUP BY s.cat",
        ];
        let unfused = [
            "SELECT s.cat, COUNT(DISTINCT a.sel) AS n \
             FROM big_a a JOIN small_s s ON a.grp = s.id WHERE s.bonus > 20 GROUP BY s.cat",
            "SELECT a.sel, COUNT(*) AS n \
             FROM big_a a JOIN small_s s ON a.grp = s.id WHERE s.bonus > 20 GROUP BY a.sel",
            "SELECT s.cat, SUM(a.val * 2) AS t \
             FROM big_a a JOIN small_s s ON a.grp = s.id WHERE s.bonus > 20 GROUP BY s.cat",
        ];
        for (sqls, want) in [(&fused[..], true), (&unfused[..], false)] {
            for sql in sqls {
                let offered = e.explain(sql).unwrap();
                for p in &offered {
                    assert_eq!(groupjoins(&p.plan), [want], "{}: {sql}", p.plan.signature());
                }
            }
        }
    }

    /// An operator's output chunk list is part of the virtual-time
    /// contract: `RemoteServer::execute_stream` derives cursor offsets and
    /// resume points from the root batch list. Per-batch row counts of
    /// every plan offered for the pinned statements, in `explain` order,
    /// recorded at the commit before the row-id hash table and column
    /// pruning went in (`tests/engine_vs_naive_prop.rs` pins multi-batch
    /// roots at scenario scale).
    #[test]
    fn batch_row_counts_are_pinned_for_every_offered_plan() {
        let pinned: [&[&[usize]]; 11] = [
            &[&[60]],
            &[&[1], &[1]],
            &[&[10], &[10]],
            &[&[300]],
            &[&[3]],
            &[&[1]],
            &[&[2]],
            &[&[5], &[5]],
            &[&[180]],
            &[&[5], &[5]],
            &[&[20], &[20]],
        ];
        let e = engine();
        for (sql, want) in PINNED_STATEMENTS.iter().zip(pinned) {
            let got: Vec<Vec<usize>> = e
                .explain(sql)
                .unwrap()
                .iter()
                .map(|p| {
                    let (batches, _) = e.execute_plan_batches(&p.plan).unwrap();
                    batches.iter().map(ColumnBatch::n_rows).collect()
                })
                .collect();
            assert_eq!(got, want, "{sql}");
        }
    }

    /// Column requirements that prune nothing: every child produces every
    /// column, as it did before `required_columns` existed.
    fn every_column(plan: &PlanNode, _needed: &[bool]) -> Vec<Vec<bool>> {
        let children: Vec<&PlanNode> = match plan {
            PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. } => vec![],
            PlanNode::HashJoin { left, right, .. }
            | PlanNode::NestedLoopJoin { left, right, .. } => vec![left, right],
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::HashAggregate { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. }
            | PlanNode::Distinct { input, .. } => vec![input],
        };
        children
            .iter()
            .map(|c| vec![true; c.schema().len()])
            .collect()
    }

    /// A pruned column is an empty placeholder, so an operator that read
    /// one would panic or lose cells. For every plan offered for the
    /// pinned statements and for the equivalence suites' corpus — NULL
    /// keys, FLOAT = INT and string keys, two keys, residuals, several
    /// chunks per table — execution with pruning returns the batches and
    /// the `Work` of execution with every column required.
    #[test]
    fn pruning_equals_requiring_every_column() {
        use crate::corpus;
        use qcc_common::Pcg32;
        let mut plans_checked = 0;
        let mut check = |e: &Engine, sql: &str| {
            for p in e.explain(sql).unwrap() {
                let run_with = |needs: ChildNeeds| {
                    let tables = Tables::Catalog(e.catalog());
                    let (batches, work) = run(&p.plan, tables, e.cost_model(), needs).unwrap();
                    // `Debug`, not `==`: `Value` equality is numeric
                    // across `Int` and `Float`.
                    let batches: Vec<String> = batches
                        .iter()
                        .map(|b| format!("{:?}", b.to_rows()))
                        .collect();
                    (batches, work)
                };
                assert_eq!(
                    run_with(required_columns),
                    run_with(every_column),
                    "{} for {sql}",
                    p.plan.signature()
                );
                plans_checked += 1;
            }
        };
        let e = engine();
        for sql in PINNED_STATEMENTS {
            check(&e, sql);
        }
        let mut rng = Pcg32::seed_from(304);
        for _ in 0..64 {
            let e = Engine::new(corpus::random_catalog(&mut rng));
            check(&e, &corpus::random_query(&mut rng));
        }
        for _ in 0..64 {
            let (rows_a, rows_b) = (rng.range_u64(0, 60), rng.range_u64(0, 60));
            let e = Engine::new(corpus::nullable_catalog(&mut rng, rows_a, rows_b));
            check(&e, &corpus::nullable_query(&mut rng));
        }
        let (rows_a, rows_b) = (
            corpus::multi_chunk_rows(&mut rng),
            corpus::multi_chunk_rows(&mut rng),
        );
        let e = Engine::new(corpus::nullable_catalog(&mut rng, rows_a, rows_b));
        for _ in 0..24 {
            check(&e, &corpus::nullable_query(&mut rng));
        }
        assert!(plans_checked > 150, "{plans_checked}");
    }

    /// Zone maps over a clustered column prune most chunks without
    /// changing results or accounting: the rows and `Work` of every
    /// offered plan are those the row-at-a-time reference, which has no
    /// zone maps, returned too (digests as in
    /// `batches_match_row_reference_bit_exact`).
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
        for (sql, digest) in [
            ("SELECT * FROM seq WHERE id > 4950", 0xe3aac3d977f778fd),
            ("SELECT * FROM seq WHERE id >= 0", 0xa00440e50b16ef8c),
            ("SELECT * FROM seq WHERE id < 0", 0x045f817632318d81),
            (
                "SELECT COUNT(*) FROM seq WHERE id BETWEEN 1000 AND 1010 AND v = 3",
                0xa408909d4e4aceeb,
            ),
        ] {
            assert_eq!(offered_digest(&e, sql), digest, "{sql}");
        }
    }

    /// A value by its bits: `Debug`, but a float as its bit pattern.
    fn bits(v: &Value) -> String {
        match v {
            Value::Float(f) => format!("Float({:#x})", f.to_bits()),
            v => format!("{v:?}"),
        }
    }

    /// Seeded property: `Exec::aggregate`'s typed state gives each group
    /// the value, to the bit, that the oracle's `AggAccumulator` gives when
    /// fed the group's inputs row by row. Every function — `COUNT(*)`, and
    /// `COUNT(x)`, `SUM`, `AVG`, `MIN` and `MAX` with and without
    /// `DISTINCT` — over `Int`, `Float`, `Str` and `Mixed` arguments, a
    /// tenth of them NULL; several chunks, selected in full or in part; a
    /// group (key 4) whose every argument is NULL; `Int` sums near
    /// `i64::MAX` that overflow and widen to float; grouped and global;
    /// `DISTINCT` arguments repeated within a group.
    #[test]
    fn typed_aggregate_state_equals_the_reference_accumulator() {
        use crate::accumulator::AggAccumulator;
        use qcc_common::Pcg32;
        let aggs: Vec<AggSpec> = std::iter::once((AggFunc::Count, None, false))
            .chain(
                [
                    AggFunc::Count,
                    AggFunc::Sum,
                    AggFunc::Avg,
                    AggFunc::Min,
                    AggFunc::Max,
                ]
                .into_iter()
                .flat_map(|f| {
                    [
                        (f, Some(CompiledExpr::Column(1)), false),
                        (f, Some(CompiledExpr::Column(1)), true),
                    ]
                }),
            )
            .map(|(func, arg, distinct)| AggSpec {
                func,
                arg,
                distinct,
            })
            .collect();
        let m = CostModel::default();
        let mut rng = Pcg32::seed_from(3_000);
        let (mut null_only, mut overflowed, mut selected) = (0, 0, 0);
        // Inputs a `DISTINCT` aggregate skips as repeats; those of `Mixed`
        // arguments.
        let (mut repeats, mut mixed_repeats) = (0, 0);
        for case in 0..600 {
            let ty = *rng.choose(&[DataType::Int, DataType::Float, DataType::Str]);
            let mixed = rng.range_u64(0, 4) == 0;
            let huge = rng.range_u64(0, 4) == 0;
            let cell = |rng: &mut Pcg32, ty: DataType| match ty {
                DataType::Int if huge => Value::Int(i64::MAX - rng.range_i64(0, 1_000)),
                DataType::Int => Value::Int(rng.range_i64(-50, 50)),
                DataType::Float => {
                    Value::Float(*rng.choose(&[0.1, -0.0, 0.7, 1e16, -2.5, f64::NAN, 3.0]))
                }
                DataType::Str => Value::Str(format!("s{}", rng.range_u64(0, 5))),
            };
            let chunks: Vec<Chunk> = (0..rng.range_u64(1, 5))
                .map(|_| {
                    let len = rng.range_u64(0, 40) as usize;
                    let mut keys = ColumnVector::new_for(Some(DataType::Int));
                    let mut args = Vec::with_capacity(len);
                    for _ in 0..len {
                        let k = rng.range_i64(0, 5);
                        keys.push(Value::Int(k));
                        args.push(if k == 4 || rng.range_u64(0, 10) == 0 {
                            Value::Null
                        } else if mixed {
                            let ty = *rng.choose(&[DataType::Int, DataType::Float, DataType::Str]);
                            cell(&mut rng, ty)
                        } else {
                            cell(&mut rng, ty)
                        });
                    }
                    let args = if mixed {
                        ColumnVector::Mixed(args)
                    } else {
                        let mut col = ColumnVector::new_for(Some(ty));
                        args.into_iter().for_each(|v| col.push(v));
                        col
                    };
                    let sel = if rng.next_f64() < 0.5 {
                        Sel::Ids((0..len as u32).filter(|_| rng.next_f64() < 0.7).collect())
                    } else {
                        Sel::All
                    };
                    Chunk {
                        cols: vec![Arc::new(keys), Arc::new(args)],
                        len,
                        sel,
                    }
                })
                .collect();
            let global = rng.range_u64(0, 5) == 0;
            let group_by = if global {
                Vec::new()
            } else {
                vec![CompiledExpr::Column(0)]
            };

            // The reference: groups in first-seen key order, each
            // aggregate's accumulator fed row by row.
            let mut groups: Vec<(Value, Vec<AggAccumulator>)> = Vec::new();
            let fresh = || -> Vec<AggAccumulator> {
                aggs.iter()
                    .map(|a| AggAccumulator::new(a.func, a.distinct))
                    .collect()
            };
            if global {
                groups.push((Value::Null, fresh()));
            }
            for ch in &chunks {
                for r in ch.selected() {
                    let key = if global {
                        Value::Null
                    } else {
                        ch.cols[0].value(r)
                    };
                    let g = match groups.iter().position(|(k, _)| k.total_cmp(&key).is_eq()) {
                        Some(g) => g,
                        None => {
                            groups.push((key, fresh()));
                            groups.len() - 1
                        }
                    };
                    let arg = ch.cols[1].value(r);
                    for (acc, spec) in groups[g].1.iter_mut().zip(&aggs) {
                        acc.push(spec.arg.as_ref().map(|_| &arg));
                    }
                }
            }
            let want: Vec<Vec<String>> = groups
                .iter()
                .map(|(key, accs)| {
                    let key = (!global).then(|| bits(key));
                    key.into_iter()
                        .chain(accs.iter().map(|a| bits(&a.finish())))
                        .collect()
                })
                .collect();

            let mut exec = Exec {
                tables: Tables::Slots(&[]),
                work: Ledger::start(&m),
                child_needs: required_columns,
                pruned: Arc::new(ColumnVector::Mixed(Vec::new())),
            };
            let out = exec.aggregate(&chunks, &group_by, &aggs, &Schema::new(Vec::new()));
            let got: Vec<Vec<String>> = out
                .iter()
                .flat_map(|ch| {
                    (0..ch.len).map(|r| ch.cols.iter().map(|c| bits(&c.value(r))).collect())
                })
                .collect();
            assert_eq!(got, want, "case {case}: {ty:?}, mixed {mixed}");

            null_only += usize::from(!global && groups.iter().any(|(k, _)| *k == Value::Int(4)));
            overflowed += usize::from(
                ty == DataType::Int
                    && !mixed
                    && groups
                        .iter()
                        .any(|(_, a)| matches!(a[3].finish(), Value::Float(_))),
            );
            selected += usize::from(
                chunks.len() > 1 && chunks.iter().any(|ch| matches!(ch.sel, Sel::Ids(_))),
            );
            // COUNT(x) − COUNT(DISTINCT x), per group.
            let case_repeats: i64 = groups
                .iter()
                .map(|(_, a)| match (a[1].finish(), a[2].finish()) {
                    (Value::Int(all), Value::Int(distinct)) => all - distinct,
                    _ => 0,
                })
                .sum();
            repeats += case_repeats;
            mixed_repeats += if mixed { case_repeats } else { 0 };
        }
        assert!(
            null_only > 200 && overflowed > 20 && selected > 200,
            "{null_only} / {overflowed} / {selected}"
        );
        assert!(
            repeats > 3_000 && mixed_repeats > 500,
            "{repeats} / {mixed_repeats} repeated DISTINCT inputs"
        );
    }
}

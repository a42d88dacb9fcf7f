//! The `Work` ledger: the one definition of accounted CPU work.
//!
//! An execution returns a [`Work`] record in the optimizer units the cost
//! model estimates; the remote-server simulation divides it by the
//! server's speed and multiplies by its load slowdown to get the virtual
//! response time the meta-wrapper observes. Every table and figure rests
//! on that number, so every formula that feeds it lives here, once.
//!
//! The executor ([`crate::exec`]) holds a [`Ledger`] and calls one method
//! per accounting event. `f64` addition is order-sensitive, so the
//! contract has two halves: the formulas (this file) and the executor's
//! call order, which is normative. The `Work` constants of
//! `exec::tests::work_is_pinned_for_every_offered_plan` and the pinned
//! digests of rows and `Work` (`exec::tests`, `engine_vs_naive_prop`)
//! hold both. All charges use operator-level totals or per-match events,
//! never per-chunk ones, so chunking and zone-map pruning change
//! wall-clock time but never virtual time. `ci.sh` rejects a `cpu_units`
//! add anywhere else in this crate.

use crate::cost::CostModel;

/// Actual work performed by an execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    /// CPU work in optimizer units.
    pub cpu_units: f64,
    /// Rows read from base tables.
    pub rows_scanned: u64,
    /// Rows produced at the plan root.
    pub rows_output: u64,
    /// Approximate bytes of the produced result (for transfer costing).
    pub result_bytes: u64,
}

/// A [`Work`] record being accumulated under one cost model.
pub(crate) struct Ledger<'m> {
    m: &'m CostModel,
    work: Work,
}

impl<'m> Ledger<'m> {
    /// Open the ledger with the plan's fixed start-up charge.
    #[inline]
    pub(crate) fn start(m: &'m CostModel) -> Self {
        Ledger {
            m,
            work: Work {
                cpu_units: m.startup,
                ..Work::default()
            },
        }
    }

    /// A sequential scan read `total` base rows, evaluating a pushed-down
    /// predicate of `pred_nodes` nodes on each.
    #[inline]
    pub(crate) fn seq_scan(&mut self, total: usize, pred_nodes: Option<usize>) {
        self.work.rows_scanned += total as u64;
        self.work.cpu_units += total as f64 * self.m.scan_row;
        if let Some(nodes) = pred_nodes {
            self.evaluate(total, nodes);
        }
    }

    /// `rows` rows each walked an expression of `nodes` nodes.
    #[inline]
    fn evaluate(&mut self, rows: usize, nodes: usize) {
        self.work.cpu_units += rows as f64 * nodes as f64 * self.m.pred_node;
    }

    /// An operator materialized `n` output rows. Per-match sites call
    /// this with 1 per match (`1.0 * x` is exact) rather than once with
    /// the total, which would re-associate the sum.
    #[inline]
    pub(crate) fn emit(&mut self, n: usize) {
        self.work.cpu_units += n as f64 * self.m.output_row;
    }

    /// One index descent.
    #[inline]
    pub(crate) fn index_probe(&mut self) {
        self.work.cpu_units += self.m.index_probe;
    }

    /// The probe matched `n` positions, each fetched from the base table.
    #[inline]
    pub(crate) fn index_matches(&mut self, n: usize) {
        self.work.rows_scanned += n as u64;
        self.work.cpu_units += n as f64 * self.m.index_match_row;
    }

    /// One residual predicate of `nodes` nodes checked on one candidate
    /// (an index match or a hash-join match).
    #[inline]
    pub(crate) fn residual_check(&mut self, nodes: usize) {
        self.work.cpu_units += nodes as f64 * self.m.pred_node;
    }

    /// A hash join built over `build` rows and probed with `probe` rows.
    #[inline]
    pub(crate) fn hash_join_sides(&mut self, build: usize, probe: usize) {
        self.work.cpu_units += build as f64 * self.m.hash_build_row;
        self.work.cpu_units += probe as f64 * self.m.hash_probe_row;
    }

    /// A nested-loop join visited every `outer` × `inner` pair, checking
    /// a predicate of `pred_nodes` nodes on each.
    #[inline]
    pub(crate) fn nested_loop_pairs(
        &mut self,
        outer: usize,
        inner: usize,
        pred_nodes: Option<usize>,
    ) {
        let pairs = outer as f64 * inner as f64;
        self.work.cpu_units += pairs
            * (self.m.hash_probe_row + pred_nodes.map_or(0.0, |n| n as f64 * self.m.pred_node));
    }

    /// A filter evaluated a predicate of `nodes` nodes on `rows` rows.
    #[inline]
    pub(crate) fn filter(&mut self, rows: usize, nodes: usize) {
        self.evaluate(rows, nodes);
    }

    /// A projection evaluated expressions totalling `nodes` nodes on
    /// `rows` rows.
    #[inline]
    pub(crate) fn project(&mut self, rows: usize, nodes: usize) {
        self.evaluate(rows, nodes);
    }

    /// A hash aggregate consumed `rows` input rows into `n_aggs`
    /// aggregates (plus the grouping itself).
    #[inline]
    pub(crate) fn aggregate_input(&mut self, rows: usize, n_aggs: usize) {
        self.work.cpu_units += rows as f64 * (1 + n_aggs) as f64 * self.m.agg_row;
    }

    /// A sort of `rows` rows (n·log2 n, floored at n = 2).
    #[inline]
    pub(crate) fn sort(&mut self, rows: usize) {
        let n = rows.max(2) as f64;
        self.work.cpu_units += self.m.sort_row_log * n * n.log2();
    }

    /// Duplicate elimination hashed `rows` rows.
    #[inline]
    pub(crate) fn distinct(&mut self, rows: usize) {
        self.work.cpu_units += rows as f64 * self.m.hash_build_row;
    }

    /// Close the ledger with what the plan root produced.
    #[inline]
    pub(crate) fn finish(mut self, rows_output: u64, result_bytes: u64) -> Work {
        self.work.rows_output = rows_output;
        self.work.result_bytes = result_bytes;
        self.work
    }
}

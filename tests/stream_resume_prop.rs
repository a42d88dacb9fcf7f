//! Randomized test: resumable streamed execution, forcibly cancelled and
//! resumed at *every* chunk boundary, must reconstruct exactly the one-shot
//! result — byte-identical rows and a bit-identical [`Work`] record — on
//! randomly generated plans. This pins the cursor protocol the mid-query
//! reroute path relies on: a remainder picked up at cursor `k` (possibly at
//! a later virtual time) contributes precisely the chunks `k..` and never
//! distorts the work accounting the calibrator would see.
//!
//! Driven by the workspace's deterministic `Pcg32` so the suite runs
//! offline and failures reproduce from the fixed seed.

use load_aware_federation::common::{
    Column, DataType, Pcg32, Row, Schema, SimDuration, SimTime, Value,
};
use load_aware_federation::remote::{RemoteServer, RemoteStreamStatus, ServerProfile};
use load_aware_federation::storage::{Catalog, Table};

/// One random table `t(a, b, s)`, sized well past a single columnar batch
/// so most plans stream multiple chunks.
fn random_catalog(rng: &mut Pcg32) -> Catalog {
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
            Column::new("s", DataType::Str),
        ]),
    );
    let n = rng.range_u64(1500, 4000);
    for _ in 0..n {
        t.insert(Row::new(vec![
            Value::Int(rng.range_i64(0, 1000)),
            Value::Int(rng.range_i64(-50, 50)),
            Value::Str((*rng.choose(b"abcde") as char).to_string()),
        ]))
        .unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.register(t);
    catalog.create_index("t", "a").unwrap();
    catalog
}

/// Random queries biased toward wide results (multi-chunk streams), with a
/// few narrow shapes mixed in so the trivial single-chunk resume is covered
/// too.
fn random_query(rng: &mut Pcg32) -> String {
    match rng.range_u64(0, 6) {
        0 => format!("SELECT * FROM t WHERE t.a < {}", rng.range_i64(400, 1000)),
        1 => format!(
            "SELECT t.a, t.b FROM t WHERE t.b >= {} ORDER BY t.a, t.b, t.s",
            rng.range_i64(-50, 0)
        ),
        2 => format!(
            "SELECT t.a, t.s FROM t WHERE t.a BETWEEN {} AND {}",
            rng.range_i64(0, 200),
            rng.range_i64(500, 1000)
        ),
        3 => "SELECT t.a, t.b, t.s FROM t ORDER BY t.a, t.b, t.s".to_string(),
        4 => format!(
            "SELECT t.s, COUNT(*) AS n, SUM(t.b) AS tot FROM t WHERE t.a > {} \
             GROUP BY t.s ORDER BY t.s",
            rng.range_i64(0, 500)
        ),
        _ => format!(
            "SELECT t.a FROM t WHERE t.a = {} OR t.b = {}",
            rng.range_i64(0, 1000),
            rng.range_i64(-50, 50)
        ),
    }
}

#[test]
fn cancel_resume_at_every_boundary_matches_one_shot() {
    let mut rng = Pcg32::seed_from(401);
    let mut multi_chunk_cases = 0usize;
    for case in 0..48 {
        let catalog = random_catalog(&mut rng);
        let server = RemoteServer::new(ServerProfile::new("S1"), catalog);
        let sql = random_query(&mut rng);
        let plans = server
            .explain(&sql, SimTime::ZERO)
            .unwrap_or_else(|e| panic!("case {case}: explain failed on {sql}: {e}"));
        let plan = &plans[0].descriptor;

        // The one-shot stream at cursor 0 is the reference for both rows
        // and the Work record (f64 accounting is order-sensitive, so this
        // is a bit-level contract, not an approximate one).
        let full = server
            .execute_stream(plan, SimTime::ZERO, 0, false)
            .unwrap_or_else(|e| panic!("case {case}: stream failed on {sql}: {e}"));
        assert_eq!(full.status, RemoteStreamStatus::Complete);
        if full.total_chunks > 1 {
            multi_chunk_cases += 1;
        }

        // Force a cancel at every chunk boundary: each resume call asks
        // for the remainder at cursor `k` but only the first chunk is
        // accepted before the next forced cancel. Resumes happen at
        // strictly increasing virtual times, as a rerouted remainder
        // would.
        let mut streamed_rows: Vec<Row> = Vec::new();
        let mut at = SimTime::ZERO;
        for cursor in 0..full.total_chunks {
            let rest = server
                .execute_stream(plan, at, cursor, false)
                .unwrap_or_else(|e| panic!("case {case}: resume at {cursor} failed: {e}"));
            assert_eq!(rest.status, RemoteStreamStatus::Complete);
            assert_eq!(rest.cursor, cursor, "case {case}: cursor echo");
            assert_eq!(
                rest.total_chunks, full.total_chunks,
                "case {case}: chunk count must be cursor-invariant"
            );
            assert_eq!(
                rest.delivered(),
                full.total_chunks - cursor,
                "case {case}: remainder size at cursor {cursor}"
            );
            // Every resumed execution reports the full plan's Work —
            // streaming chunks never splits or inflates the accounting.
            assert_eq!(
                rest.work.cpu_units.to_bits(),
                full.work.cpu_units.to_bits(),
                "case {case}: cpu_units at cursor {cursor} for {sql}"
            );
            assert_eq!(rest.work.rows_scanned, full.work.rows_scanned);
            assert_eq!(rest.work.rows_output, full.work.rows_output);
            assert_eq!(rest.work.result_bytes, full.work.result_bytes);
            streamed_rows.extend(rest.chunks[0].batch.to_rows());
            at = at + SimDuration::from_millis(1.0 + rest.elapsed.as_millis() / 2.0);
        }

        assert_eq!(
            format!("{streamed_rows:?}"),
            format!("{:?}", full.rows()),
            "case {case}: boundary-resumed rows diverge from the one-shot stream for {sql}"
        );
    }
    assert!(
        multi_chunk_cases >= 24,
        "generator regressed: only {multi_chunk_cases}/48 cases streamed more than one chunk"
    );
}

#[test]
fn resume_past_end_is_rejected_and_at_end_is_empty() {
    let mut rng = Pcg32::seed_from(402);
    let catalog = random_catalog(&mut rng);
    let server = RemoteServer::new(ServerProfile::new("S1"), catalog);
    let plans = server
        .explain("SELECT * FROM t WHERE t.a < 900", SimTime::ZERO)
        .unwrap();
    let plan = &plans[0].descriptor;
    let full = server
        .execute_stream(plan, SimTime::ZERO, 0, false)
        .unwrap();
    assert!(full.total_chunks >= 2, "need a multi-chunk result");
    // Cursor exactly at the end: a legal, empty, zero-remainder stream.
    let done = server
        .execute_stream(plan, SimTime::ZERO, full.total_chunks, false)
        .unwrap();
    assert_eq!(done.delivered(), 0);
    assert_eq!(done.elapsed.as_millis(), 0.0);
    // Cursor past the end: a protocol error, not a silent truncation.
    assert!(server
        .execute_stream(plan, SimTime::ZERO, full.total_chunks + 1, false)
        .is_err());
}

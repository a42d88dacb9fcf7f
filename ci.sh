#!/usr/bin/env bash
# Local CI gate. Everything here runs offline — the workspace has no
# registry dependencies (see DESIGN.md §1 "Dependencies").
set -euo pipefail
cd "$(dirname "$0")"

# Outputs compared or grepped below go to a private directory, so two
# checkouts can run this script at once.
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo doc (every public item documented, every intra-doc link resolves)"
RUSTDOCFLAGS="-D warnings -D missing_docs" cargo doc --no-deps --offline --workspace

echo "==> boundaries: one engine reachable from library code, one Work ledger, one open-loop driver, one merge execution path"
# The AST oracle lives in tests/support/naive.rs: no library source names it.
if grep -rn 'naive::' crates/*/src; then
    echo "boundary: library code names the oracle" >&2
    exit 1
fi
# Every charge goes through the ledger (DESIGN.md §2 "The Work ledger").
if grep -rnE 'cpu_units[[:space:]]*[-+]=' crates/engine/src | grep -v '^crates/engine/src/work\.rs:'; then
    echo "boundary: cpu_units is charged outside crates/engine/src/work.rs" >&2
    exit 1
fi
# One string representation (DESIGN.md §10 "One string representation"):
# only the column module names the fields of ColumnVector::Str — the
# row-id table reads codes through ColumnVector::str_codes — while a
# `{ .. }` type check is fine anywhere.
if grep -rnE 'ColumnVector::Str[[:space:]]*\{[[:space:]]*([a-z_]|$)' crates src tests examples \
    | grep -v '^crates/common/src/column\.rs:'; then
    echo "boundary: a file other than crates/common/src/column.rs names the fields of ColumnVector::Str" >&2
    exit 1
fi
# One open-loop driver (DESIGN.md §9 "Why open-loop"): only it takes
# rounds off the admission queue and hands the federation their deadline
# budgets.
if grep -rnE 'dequeue_batch\(|submit_batch_with_budgets\(' crates/*/src \
    | grep -vE '^crates/(admission|federation)/src/|^crates/workload/src/openloop\.rs:'; then
    echo "boundary: a second open-loop driver outside crates/workload/src/openloop.rs" >&2
    exit 1
fi
# One merge execution path (DESIGN.md §12): hot and cold merges run the
# plan over the gathered batches (execute_over); the integrator's merge
# neither executes through a catalog nor registers the batches as tables.
if grep -nE 'execute_plan\(|register_virtual\(' crates/federation/src/federation/merge.rs; then
    echo "boundary: the merge executes through a catalog instead of over the gathered batches" >&2
    exit 1
fi

# `default-members` makes these the whole workspace: every crate's unit
# tests (the lint's fixture suite in xtask among them) and the root
# package's integration tests.
echo "==> cargo test -q (QCC_THREADS=1)"
QCC_THREADS=1 cargo test -q --offline

echo "==> cargo test -q (QCC_THREADS=8)"
QCC_THREADS=8 cargo test -q --offline

echo "==> golden observability snapshots (QCC_THREADS=1 vs 8)"
QCC_THREADS=1 cargo test -q --offline --test obs_determinism
QCC_THREADS=8 cargo test -q --offline --test obs_determinism

echo "==> golden admission snapshots (QCC_THREADS=1 vs 8)"
QCC_THREADS=1 cargo test -q --offline --test admission_determinism
QCC_THREADS=8 cargo test -q --offline --test admission_determinism

echo "==> cargo xtask lint (workspace, all rules, <5s wall-clock budget)"
cargo xtask lint --budget-ms 5000

echo "==> lint --json schema check + byte determinism"
cargo xtask lint --json > "$out"/lint-1.json
cargo xtask lint --json > "$out"/lint-2.json
cmp "$out"/lint-1.json "$out"/lint-2.json
grep -q '"schema_version":2' "$out"/lint-1.json
grep -q '"violation_count":0' "$out"/lint-1.json

echo "==> lint single-rule filter smoke (--rule L8)"
cargo xtask lint --rule L8

echo "==> sim smoke: fixed seeds under QCC_THREADS=1 and 8, byte-compared"
# Each check already runs every scenario at 1 and 8 scatter threads
# internally (the thread_determinism oracle); running the whole explorer
# under both QCC_THREADS values additionally pins its *report* output.
QCC_THREADS=1 cargo xtask sim --seeds 36 > "$out"/sim-t1.out
QCC_THREADS=8 cargo xtask sim --seeds 36 > "$out"/sim-t8.out
cmp "$out"/sim-t1.out "$out"/sim-t8.out

echo "==> sim corpus replay"
cargo xtask sim --replay-corpus tests/corpus

echo "==> sim fleet-scale replay (hundreds of servers, QCC_THREADS=1 vs 8 byte-compared)"
# The corpus replay above already runs this pinned scenario (1-vs-8
# scatter threads are byte-compared internally by the thread_determinism
# oracle); running it under both QCC_THREADS values additionally pins
# the explorer's *report* output at fleet scale.
FLEET_LINE='sim(seed: 901, servers: [], large_rows: 80, small_rows: 16, arrivals: 12, rate_per_ms: 0.08, retry_limit: 2, fleet: 120, replication: 3, faults: [crash(7, 40.0, 120.0)])'
QCC_THREADS=1 cargo xtask sim --replay "$FLEET_LINE" > "$out"/fleet-t1.out
QCC_THREADS=8 cargo xtask sim --replay "$FLEET_LINE" > "$out"/fleet-t8.out
cmp "$out"/fleet-t1.out "$out"/fleet-t8.out

echo "==> sim hedge replay (a tight execution deadline, QCC_THREADS=1 vs 8 byte-compared)"
# Generated seed 3 draws the tight deadline: 13 fragments hedge, 10 hedges
# win (a crash and a flaky window on S1), and hedge_soundness checks each.
HEDGE_LINE='sim(seed: 3, servers: [(1.4316686437757775, 0.08752923837856535), (1.979664884131227, 0.16365930842337112)], large_rows: 401, small_rows: 76, arrivals: 87, rate_per_ms: 0.12718109035091446, retry_limit: 2, reroute: 5.43392279477715, exec_deadline_ms: 4.0, faults: [spike(1, 320.18272288043715, 523.0594349383097, 0.8656389755396561), flaky(0, 372.58753232586184, 552.5134178861566, 0.6552334897573793), spike(1, 198.3612760961319, 364.13732276257394, 0.40019953504876765), crash(0, 204.09047517665786, 393.39168965706244)])'
QCC_THREADS=1 cargo xtask sim --replay "$HEDGE_LINE" > "$out"/hedge-t1.out
QCC_THREADS=8 cargo xtask sim --replay "$HEDGE_LINE" > "$out"/hedge-t8.out
cmp "$out"/hedge-t1.out "$out"/hedge-t8.out

echo "==> mid-query reroute e2e (cut -> stall -> re-dispatch -> resume -> merge, QCC_THREADS=1 vs 8)"
QCC_THREADS=1 cargo test -q --offline --test midquery_reroute_e2e
QCC_THREADS=8 cargo test -q --offline --test midquery_reroute_e2e

echo "==> stream cancel/resume property (byte-identical rows + bit-exact Work)"
cargo test -q --offline --test stream_resume_prop

echo "==> engine vs oracle property, and pinned digests of rows + bit-exact Work"
cargo test -q --offline --test engine_vs_naive_prop

echo "==> bench targets compile"
cargo bench --no-run --offline -p qcc-bench

echo "==> paper: every table and figure in one run; each line of an EXPERIMENTS.md text block is a line it prints"
# Compared without trailing spaces: a table's empty last cells leave
# them, and a Markdown editor strips them.
cargo bench -q --offline -p qcc-bench --bench paper | sed 's/[[:space:]]*$//' > "$out"/paper.out
awk '/^```text$/ { quoted = 1; next } /^```$/ { quoted = 0 } quoted' EXPERIMENTS.md \
    | sed 's/[[:space:]]*$//' > "$out"/quoted.txt
test -s "$out"/quoted.txt
while IFS= read -r line; do
    if ! grep -qxF -- "$line" "$out"/paper.out; then
        echo "EXPERIMENTS.md quotes a line the paper bench does not print: '$line'" >&2
        exit 1
    fi
done < "$out"/quoted.txt

# Each gated bench ends in one verdict line and exits 1 on a violation, so
# `set -e` with pipefail fails the step; the grep checks the verdict ran.
echo "==> bench smoke: columnar_speedup (tiny scale; digest must equal its pin, hashing operators must not allocate per row)"
QCC_LARGE_ROWS=2000 QCC_SMALL_ROWS=100 \
    cargo bench -q --offline -p qcc-bench --bench columnar_speedup \
    | tee "$out"/colspeed.out
if grep -q unpinned "$out"/colspeed.out; then
    echo "columnar_speedup: no digest is pinned at this scale" >&2
    exit 1
fi
grep -q "columnar allocations: OK" "$out"/colspeed.out

echo "==> bench smoke: admission_overload (default scale; admission-on must dominate)"
cargo bench -q --offline -p qcc-bench --bench admission_overload \
    | tee "$out"/admission.out
grep -q "goodput dominance: OK" "$out"/admission.out

echo "==> bench smoke: federation_scale (pruned fan-out within bound, winners identical, decompose + select_sources allocations flat in the fleet)"
QCC_FLEETS=50,250 cargo bench -q --offline -p qcc-bench --bench federation_scale \
    | tee "$out"/fedscale.out
grep -q "scale pruning: OK" "$out"/fedscale.out

echo "==> bench smoke: midquery_reroute (remainder re-dispatch recovers exact rows within 2x fault-free)"
cargo bench -q --offline -p qcc-bench --bench midquery_reroute \
    | tee "$out"/reroute.out
grep -q "reroute recovery: OK" "$out"/reroute.out

echo "==> bench smoke: query_path (a warm statement adds no parse, decompose, merge-cost EXPLAIN, merge plan or wrapper EXPLAIN; a warm merge, a cold 3-replica fan-out submit and the paper world's image build stay within their allocation bounds)"
cargo bench -q --offline -p qcc-bench --bench query_path \
    | tee "$out"/querypath.out
grep -q "query path: OK" "$out"/querypath.out

echo "==> benchmark package: builds against the workspace, unit tests, four smoke workloads"
# qcc-perf/ is its own workspace, so nothing above compiles it: deleting
# public API it uses would otherwise only surface in the benchmark driver.
cargo test -q --offline --manifest-path qcc-perf/Cargo.toml
for w in paper_phases coordinator_hot fleet_adhoc overload_faults; do
    cargo run --release --offline -q --manifest-path qcc-perf/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 15 --smoke | tail -n 1 > "$out"/perf-smoke.json
    if ! grep -q '"correct": true' "$out"/perf-smoke.json; then
        echo "qcc-perf $w: smoke run did not report \"correct\": true" >&2
        exit 1
    fi
    # --check-repeat prints its own verdict line instead of the JSON and
    # exits non-zero when an exact metric differs between two runs.
    cargo run --release --offline -q --manifest-path qcc-perf/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 15 --smoke --check-repeat
done
# The probe ladder (--trace 1) calls the replica catalog's select_sources
# and the EXPLAIN chain directly; run it where the catalog and the fault
# windows are on, where its submits go through the warm merge, and where
# it replays Engine::execute_plan_batches on the paper's winning plans.
for w in paper_phases coordinator_hot fleet_adhoc overload_faults; do
    cargo run --release --offline -q --manifest-path qcc-perf/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 15 --smoke --trace 1 | tail -n 1 > "$out"/perf-trace.json
    if ! grep -q '"correct": true' "$out"/perf-trace.json; then
        echo "qcc-perf $w --trace 1: smoke run did not report \"correct\": true" >&2
        exit 1
    fi
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "ci: all gates green"

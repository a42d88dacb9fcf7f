//! The coordinator's memory is a function of the state routing needs, not
//! of the number of queries it has served (ROADMAP "Bounded coordinator
//! state"). With the journal off, a warmed-up coordinator repeating the
//! paper's forty statements must not grow its live heap at all; with the
//! journal on, the journal is the only thing that grows. The same holds for
//! a stream of statements nobody has seen before: the three caches and the
//! load balancer's per-template state fill up and then turn over.
//!
//! A world's servers share one table image, so a built world grows by a
//! server's own state, not by a copy of every table, per server added.
//!
//! This binary wraps the system allocator in a live-byte counter, so the
//! assertions are on bytes actually held, not on RSS.

use load_aware_federation::qcc::QccConfig;
use load_aware_federation::workload::{Routing, Scenario, ScenarioConfig, ALL_QUERY_TYPES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const WARMUP: usize = 1_000;
const MEASURED: usize = 2_000;

/// Live-heap growth allowed per query with the journal off. Measured:
/// 0.0 B. With the record store, the patroller log, the explain table and
/// the per-template II windows still in place this world grew by 1 090 B
/// per query.
const MAX_GROWTH_OBS_OFF: f64 = 16.0;

/// Live-heap growth allowed per query with the journal on. The journal
/// alone measures 131 B per query here: each event is encoded into a
/// fixed-size byte segment, and a string field is an id into a table of
/// shared allocations (the statement with the template cache, servers
/// with their ids, plan signatures interned). It measured 1 736 B when it
/// held each event as a struct with owned strings in one doubling `Vec`,
/// and 1 082 B as segments of event heads and 40-byte fields. The bound
/// fails if fields are stored decoded again, or a per-event string copy
/// or a per-query history reappears.
const MAX_GROWTH_OBS_ON: f64 = 200.0;

/// Live heap a `scale(n)` world gains per added server. Measured:
/// ≈ 1 330 B (its profile, load, link, wrapper, nickname sources and replica
/// catalog entry). Every server shares one table image; when each built
/// its own copy, a server added 124 545 B, so a per-server image fails
/// this bound by 30×.
const MAX_BYTES_PER_ADDED_SERVER: f64 = 4_096.0;

/// `LoadBalancer`'s private `TEMPLATE_STATE_CAPACITY`, and the number of
/// never-repeating statements that fills it, the plan cache (4 096
/// entries, three per statement here) and the template cache (128).
const BALANCER_CAPACITY: usize = 4_096;

/// The system allocator, counting live bytes.
struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic that
// publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The two tests share the process-wide counter, so they take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Live-heap bytes gained per query over `MEASURED` submits of the forty
/// paper statements (QT1–QT4 × 10 instances), after `WARMUP` submits of
/// the same, on the coordinator-bound world of `qcc-perf`'s
/// `coordinator_hot`: six servers, partitioned nicknames, trivial tables.
fn growth_per_query(obs_enabled: bool) -> f64 {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let scenario = Scenario::build_partitioned(
        QccConfig::default(),
        ScenarioConfig {
            obs_enabled,
            replication_factor: 0,
            ..ScenarioConfig::scale(6)
        },
    );
    let statements: Vec<String> = ALL_QUERY_TYPES
        .iter()
        .flat_map(|qt| (0..10).map(move |i| qt.sql(i)))
        .collect();
    let submit = |n: usize| {
        for sql in statements.iter().cycle().take(n) {
            scenario.federation.submit(sql).expect("statement answers");
        }
    };
    submit(WARMUP);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    submit(MEASURED);
    let after = LIVE_BYTES.load(Ordering::Relaxed);
    (after as f64 - before as f64) / MEASURED as f64
}

#[test]
fn distinct_templates_fill_the_bounded_state_and_then_stop_growing() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let scenario = Scenario::build_partitioned(
        QccConfig::default(),
        ScenarioConfig {
            obs_enabled: false,
            ..ScenarioConfig::scale(6)
        },
    );
    // The alias is part of the template signature; its width is fixed so
    // an entry that replaces an evicted one is the same size.
    let submit = |range: std::ops::Range<usize>| {
        for i in range {
            let sql = format!("SELECT a.id AS x{i:06} FROM big_a a WHERE a.sel < 5");
            scenario.federation.submit(&sql).expect("statement answers");
        }
    };
    let full = BALANCER_CAPACITY + 200;
    submit(0..full);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    submit(full..full + MEASURED);
    let after = LIVE_BYTES.load(Ordering::Relaxed);
    let growth = (after as f64 - before as f64) / MEASURED as f64;
    println!("live heap growth, distinct templates, journal off: {growth:.1} B/query");
    let balancer = &scenario.qcc.as_ref().expect("QCC routing").load_balancer;
    assert_eq!(balancer.tracked_templates(), BALANCER_CAPACITY);
    assert!(
        growth <= MAX_GROWTH_OBS_OFF,
        "state grows with distinct templates served: {growth:.1} B/query"
    );
}

#[test]
fn journal_off_a_warm_coordinator_does_not_grow() {
    let growth = growth_per_query(false);
    println!("live heap growth, journal off: {growth:.1} B/query");
    assert!(
        growth <= MAX_GROWTH_OBS_OFF,
        "coordinator state grows with queries served: {growth:.1} B/query"
    );
}

#[test]
fn journal_on_only_the_journal_grows() {
    let growth = growth_per_query(true);
    println!("live heap growth, journal on: {growth:.1} B/query");
    assert!(
        growth <= MAX_GROWTH_OBS_ON,
        "something besides the journal keeps a per-query history: {growth:.1} B/query"
    );
}

/// Live-heap bytes held by a built `scale(n)` world (baseline routing).
fn world_bytes(n: usize) -> usize {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let scenario = Scenario::build_with(Routing::Baseline, ScenarioConfig::scale(n));
    let after = LIVE_BYTES.load(Ordering::Relaxed);
    drop(scenario);
    after - before
}

#[test]
fn world_heap_is_one_image_not_one_per_server() {
    let (few, many) = (6, 60);
    let (small, large) = (world_bytes(few), world_bytes(many));
    let per_server = (large - small) as f64 / (many - few) as f64;
    println!(
        "world heap: {small} B at {few} servers, {large} B at {many}: \
         {per_server:.0} B per added server"
    );
    assert!(
        per_server <= MAX_BYTES_PER_ADDED_SERVER,
        "each server holds its own table image: {per_server:.0} B per added server"
    );
}

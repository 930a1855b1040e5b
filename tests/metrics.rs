//! End-to-end gates for the always-on metrics registry (DESIGN.md §9):
//! deterministic snapshots across the execution-shape matrix, the
//! `SHOW METRICS` statement, query fingerprints on every surface, and
//! the per-fingerprint stats and slow-query read APIs.

use std::sync::Arc;

use bypass::datagen::rst;
use bypass::{
    fingerprint_sql, format_fingerprint, validate_prometheus, Database, MetricValue, MetricsHub,
    Response, RunLimits, Strategy,
};

/// The paper's Q1 (disjunctive linking).
const Q1: &str = "SELECT DISTINCT * FROM r \
                  WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) \
                     OR a4 > 1500";

/// Q2 — disjunctive correlation inside the nested block.
const Q2: &str = "SELECT DISTINCT * FROM r \
                  WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500)";

/// Combined linking + correlation disjunction.
const Q_COMBINED: &str = "SELECT DISTINCT * FROM r \
                          WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500) \
                             OR a4 > 2700";

fn rst_database(hub: Arc<MetricsHub>) -> Database {
    let mut db = Database::new().with_metrics_hub(hub);
    rst::register(db.catalog_mut(), &rst::generate(0.05, 0.05, 42)).unwrap();
    db
}

/// Run the workload — every statement of the seven-strategy matrix —
/// into a fresh, isolated hub, spreading the statements round-robin
/// over `threads` concurrent sessions, and return the hub.
fn run_workload(threads: usize) -> Arc<MetricsHub> {
    let hub = Arc::new(MetricsHub::new());
    let db = rst_database(Arc::clone(&hub));
    let statements: Vec<(&str, Strategy)> = [Q1, Q2, Q_COMBINED]
        .into_iter()
        .flat_map(|sql| Strategy::all().map(move |strategy| (sql, strategy)))
        .collect();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (db, statements) = (&db, &statements);
            scope.spawn(move || {
                for &(sql, strategy) in statements.iter().skip(t).step_by(threads) {
                    db.run_governed(sql, strategy, &RunLimits::default())
                        .unwrap_or_else(|e| panic!("{strategy}: {e}"));
                }
            });
        }
    });
    hub
}

/// The timing-free registry snapshot of the *full* seven-strategy
/// matrix is bit-identical whether the statements run one after another
/// or concurrently from four sessions — counters fold by sum, gauges by
/// max, histogram buckets elementwise, independent of thread schedule.
#[test]
fn deterministic_snapshot_is_execution_shape_independent() {
    let expected = run_workload(1).snapshot().deterministic();
    let got = run_workload(4).snapshot().deterministic();
    assert_eq!(
        got, expected,
        "deterministic snapshot differs across 4 sessions"
    );
    // The snapshot actually observed the workload: 3 queries × 7
    // strategies fired the per-strategy counters.
    let canonical = expected
        .get("bypass_queries_total", &[("strategy", "canonical")])
        .expect("per-strategy query counter registered");
    assert_eq!(canonical, &MetricValue::Counter(3));
    match expected.get("bypass_rows_total", &[]) {
        Some(MetricValue::Counter(n)) => assert!(*n > 0, "no rows counted"),
        other => panic!("bypass_rows_total: {other:?}"),
    }
}

/// `SHOW METRICS` is a real statement: it renders the database's hub
/// as Prometheus text exposition that passes the in-tree validator and
/// carries the required metric families.
#[test]
fn show_metrics_round_trips_valid_prometheus() {
    let hub = Arc::new(MetricsHub::new());
    let mut db = rst_database(Arc::clone(&hub));
    db.execute_sql(Q1).unwrap();
    db.execute_sql(Q2).unwrap();

    let text = match db.execute_sql("SHOW METRICS") {
        Ok(Response::Metrics(text)) => text,
        other => panic!("SHOW METRICS must return Metrics, got {other:?}"),
    };
    validate_prometheus(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    for family in [
        "bypass_queries_total",
        "bypass_rows_total",
        "bypass_query_latency_nanos",
        "bypass_phase_nanos",
        "bypass_disjunct_evals_total",
        "bypass_peak_memory_bytes",
    ] {
        assert!(text.contains(family), "missing family {family} in:\n{text}");
    }
    // And `into_text` treats it like any other textual response.
    let again = db.execute_sql("SHOW METRICS").unwrap().into_text().unwrap();
    assert!(again.contains("bypass_queries_total"));
}

/// Fingerprints hash the *normalized* AST: literal values are erased,
/// so parameter drift maps to the same query shape, while structural
/// changes (different disjuncts, different nesting) do not.
#[test]
fn fingerprint_is_literal_insensitive_and_shape_sensitive() {
    let base = fingerprint_sql(Q1).expect("Q1 parses");
    let other_literal = fingerprint_sql(
        "SELECT DISTINCT * FROM r \
         WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 99",
    )
    .unwrap();
    assert_eq!(
        base, other_literal,
        "literals must not affect the fingerprint"
    );

    let different_shape = fingerprint_sql(Q2).unwrap();
    assert_ne!(base, different_shape, "distinct shapes must not collide");

    // Whitespace and case of keywords are normalization noise too.
    let reformatted = fingerprint_sql(
        "select distinct * from r \
         where a1 = (select count(distinct *) from s where a2 = b2) or a4 > 1500",
    )
    .unwrap();
    assert_eq!(base, reformatted);

    // EXPLAIN wraps a query: same fingerprint as the query itself.
    assert_eq!(fingerprint_sql(&format!("EXPLAIN {Q1}")), Some(base));
    // Non-query statements have no fingerprint.
    assert_eq!(fingerprint_sql("CREATE TABLE z (a INT)"), None);
}

/// The fingerprint is surfaced on EXPLAIN ANALYZE output and matches
/// the standalone `fingerprint_sql` of the same text.
#[test]
fn explain_analyze_prints_the_fingerprint() {
    let hub = Arc::new(MetricsHub::new());
    let mut db = rst_database(hub);
    let text = db
        .execute_sql(&format!("EXPLAIN ANALYZE {Q1}"))
        .unwrap()
        .into_text()
        .unwrap();
    let expected = format_fingerprint(fingerprint_sql(Q1).unwrap());
    let line = format!("-- fingerprint: {expected}");
    assert!(text.contains(&line), "missing `{line}` in:\n{text}");
}

/// Every SQL-text execution path lands in the per-fingerprint stats
/// table and the slow-query ring; repeated executions accumulate.
#[test]
fn query_table_and_slow_ring_track_executions() {
    let hub = Arc::new(MetricsHub::new());
    let mut db = rst_database(Arc::clone(&hub));
    let fp = fingerprint_sql(Q1).unwrap();

    db.execute_sql(Q1).unwrap();
    db.sql_with(Q1, Strategy::Canonical, None).unwrap();
    let rows = db.sql_with(Q1, Strategy::Unnested, None).unwrap().len() as u64;

    let stats = hub.query_stats(fp).expect("Q1 must be in the query table");
    assert_eq!(stats.fingerprint, fp);
    assert_eq!(stats.execs, 3);
    assert_eq!(stats.rows, 3 * rows);
    assert_eq!(stats.strategy, "unnested", "last strategy wins");
    assert_eq!(stats.sql, Q1, "first-seen SQL text is kept");
    assert_eq!(stats.latency.count, 3, "every exec observed a latency");

    // The table lists exactly the executed shape; the ring holds its
    // slowest execution, keyed by the same fingerprint.
    let table = hub.query_table();
    assert_eq!(table.len(), 1);
    let slow = hub.slow_queries();
    assert_eq!(slow.len(), 1);
    assert_eq!(slow[0].fingerprint, fp);
    assert!(slow[0].total_nanos > 0);
    assert_eq!(slow[0].rows, rows);
}

/// A prepared statement knows its fingerprint, and executing it feeds
/// the same stats entry as the ad-hoc paths.
#[test]
fn prepared_statements_share_the_fingerprint() {
    let hub = Arc::new(MetricsHub::new());
    let db = rst_database(Arc::clone(&hub));
    let fp = fingerprint_sql(Q1).unwrap();

    let prepared = db.prepare(Q1, Strategy::Unnested).unwrap();
    assert_eq!(prepared.fingerprint(), fp);
    prepared.execute().unwrap();
    prepared.execute().unwrap();

    let stats = hub.query_stats(fp).unwrap();
    assert_eq!(stats.execs, 2);
}

/// Every public run surface goes through the same compile and
/// execute-and-record steps: Q1 run once through each of five surfaces
/// lands five executions under one fingerprint, and every run adds
/// the same rows and governor checkpoints.
#[test]
fn every_run_surface_records_one_identical_execution() {
    let hub = Arc::new(MetricsHub::new());
    let mut db = rst_database(Arc::clone(&hub)).with_default_strategy(Strategy::Unnested);
    let fp = fingerprint_sql(Q1).unwrap();
    // (execs, rows, checkpoints) accumulated under Q1's fingerprint.
    let stats = || {
        hub.query_stats(fp)
            .map_or((0, 0, 0), |s| (s.execs, s.rows, s.checkpoints))
    };
    type Surface = (&'static str, fn(&mut Database));
    let surfaces: [Surface; 5] = [
        ("execute_sql", |db| drop(db.execute_sql(Q1).unwrap())),
        ("sql_with", |db| {
            db.sql_with(Q1, Strategy::Unnested, None).unwrap();
        }),
        ("run_governed", |db| {
            db.run_governed(Q1, Strategy::Unnested, &RunLimits::default())
                .unwrap();
        }),
        ("Prepared::execute", |db| {
            db.prepare(Q1, Strategy::Unnested)
                .unwrap()
                .execute()
                .unwrap();
        }),
        ("profile", |db| {
            drop(db.profile(Q1, Strategy::Unnested).unwrap())
        }),
    ];
    let mut runs = Vec::new();
    for (surface, run) in surfaces {
        let before = stats();
        run(&mut db);
        let after = stats();
        runs.push((
            surface,
            after.0 - before.0,
            after.1 - before.1,
            after.2 - before.2,
        ));
    }
    assert_eq!(stats().0, 5, "{runs:?}");
    let (_, _, rows, checkpoints) = runs[0];
    assert!(rows > 0 && checkpoints > 0, "{runs:?}");
    for (surface, execs, r, c) in &runs {
        assert_eq!(
            (*execs, *r, *c),
            (1, rows, checkpoints),
            "{surface}: {runs:?}"
        );
    }
}

/// `EXPLAIN` drains the unnest-outcome tally into its own database's
/// hub: nothing it rewrote leaks into the next run on the same thread,
/// even when that run records into another database's hub.
#[test]
fn explain_does_not_leak_unnest_outcomes() {
    let hub_a = Arc::new(MetricsHub::new());
    let hub_b = Arc::new(MetricsHub::new());
    let db_a = rst_database(Arc::clone(&hub_a));
    let db_b = rst_database(Arc::clone(&hub_b));
    let chain = |hub: &MetricsHub| {
        let labels = [("outcome", "bypass:chain")];
        hub.snapshot()
            .counter("bypass_unnest_outcomes_total", &labels)
    };

    db_a.explain(Q1, Strategy::Unnested).unwrap();
    assert!(chain(&hub_a) > 0, "EXPLAIN's own rewrite is recorded");
    db_b.sql_with(Q1, Strategy::Canonical, None).unwrap();
    assert_eq!(chain(&hub_b), 0, "EXPLAIN's outcome leaked into hub B");
}

/// Hubs are isolated: a database built with its own hub does not leak
/// observations into another, and `Database::metrics()` snapshots the
/// right one.
#[test]
fn metrics_hubs_are_isolated_per_database() {
    let hub_a = Arc::new(MetricsHub::new());
    let hub_b = Arc::new(MetricsHub::new());
    let mut db_a = rst_database(Arc::clone(&hub_a));
    let db_b = rst_database(Arc::clone(&hub_b));

    db_a.execute_sql(Q1).unwrap();

    let snap_a = db_a.metrics();
    assert!(snap_a
        .get("bypass_queries_total", &[("strategy", "unnested")])
        .is_some());
    assert!(
        hub_b.query_table().is_empty(),
        "hub B must not see hub A's runs"
    );
    assert!(db_b
        .metrics()
        .get("bypass_queries_total", &[("strategy", "unnested")])
        .is_none());
    assert!(Arc::ptr_eq(db_a.metrics_hub(), &hub_a));
}

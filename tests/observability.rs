//! End-to-end observability gates: the `EXPLAIN ANALYZE` statement
//! through the full SQL frontend, the Chrome-trace export of an
//! instrumented query run, and the per-run isolation of the execution
//! counters under concurrent queries.

use std::sync::Mutex;
use std::time::Duration;

use bypass::datagen::rst;
use bypass::{CancelToken, Database, Error, Response, RunLimits, Strategy};

/// The trace collector is process-global; tests that enable, disable or
/// drain it must not interleave.
static TRACE_GATE: Mutex<()> = Mutex::new(());

/// The paper's Q1 (disjunctive linking) — the query every acceptance
/// criterion of the observability work is phrased against.
const Q1: &str = "SELECT DISTINCT * FROM r \
                  WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) \
                     OR a4 > 1500";

fn q1_database(strategy: Strategy) -> Database {
    let mut db = Database::new().with_default_strategy(strategy);
    rst::register(db.catalog_mut(), &rst::generate(0.05, 0.05, 42)).unwrap();
    db
}

/// `EXPLAIN ANALYZE <query>` is a real statement: parsed by the SQL
/// frontend, executed, and rendered with phase timings, per-operator
/// rows/time annotations and — under `Unnested` — nonzero dual-stream
/// counts on the bypass selection.
#[test]
fn explain_analyze_statement_reports_bypass_streams_under_unnested() {
    let mut db = q1_database(Strategy::Unnested);
    let text = match db.execute_sql(&format!("EXPLAIN ANALYZE {Q1}")) {
        Ok(Response::Explained(text)) => text,
        other => panic!("EXPLAIN ANALYZE must return Explained, got {other:?}"),
    };
    assert!(text.contains("EXPLAIN ANALYZE (unnested)"), "{text}");
    // Phase timings of the whole pipeline.
    for phase in ["parse=", "translate=", "unnest=", "optimize=", "execute="] {
        assert!(text.contains(phase), "missing phase {phase}:\n{text}");
    }
    // Per-operator metric annotations.
    assert!(text.contains("rows="), "{text}");
    assert!(text.contains("ms"), "{text}");
    // The bypass selection reports its dual-stream cardinalities, and
    // the negative stream is nonzero (Q1 splits the outer table).
    assert!(text.contains("pos="), "{text}");
    let neg: u64 = text
        .split("neg=")
        .nth(1)
        .and_then(|t| t.split_whitespace().next())
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("neg= count present:\n{text}"));
    assert!(neg > 0, "negative stream must be nonzero for Q1:\n{text}");
    assert!(text.contains("-- bypass: 1 node(s)"), "{text}");
    assert!(text.contains("split="), "{text}");
    assert!(text.contains("-- memo:"), "{text}");
}

/// The same statement under the canonical strategy: no bypass
/// operators, but the subquery memo counters and phase timings are
/// still reported.
#[test]
fn explain_analyze_statement_under_canonical_reports_memo() {
    let mut db = q1_database(Strategy::Canonical);
    let text = match db.execute_sql(&format!("EXPLAIN ANALYZE {Q1}")) {
        Ok(Response::Explained(text)) => text,
        other => panic!("EXPLAIN ANALYZE must return Explained, got {other:?}"),
    };
    assert!(text.contains("EXPLAIN ANALYZE (canonical)"), "{text}");
    assert!(!text.contains("-- bypass:"), "canonical has no σ±:\n{text}");
    // Canonical Q1 carries an uncorrelated... no — Q1's subquery is
    // correlated, so the memo line reports zero probes; the line itself
    // must still be present (the counter glossary promises it).
    assert!(text.contains("-- memo: uncorrelated"), "{text}");
    // Both strategies return the same answer; EXPLAIN ANALYZE reports
    // the output cardinality it actually produced.
    let unnested = q1_database(Strategy::Unnested).sql(Q1).unwrap();
    let rows: usize = text
        .split("), ")
        .nth(1)
        .and_then(|t| t.split(' ').next())
        .and_then(|t| t.parse().ok())
        .expect("output rows in header");
    assert_eq!(rows, unnested.len(), "{text}");
}

/// Plain `EXPLAIN <query>` renders the logical + physical plans without
/// executing; it must also round-trip through the parser (lowercase,
/// extra whitespace).
#[test]
fn explain_statement_renders_plans_without_executing() {
    let mut db = q1_database(Strategy::Unnested);
    let text = match db.execute_sql(&format!("explain   {Q1}")) {
        Ok(Response::Explained(text)) => text,
        other => panic!("EXPLAIN must return Explained, got {other:?}"),
    };
    assert!(
        text.contains("σ±"),
        "unnested plan shows bypass ops:\n{text}"
    );
    // No metrics: the query did not run.
    assert!(!text.contains("pos="), "{text}");
}

/// Tracing end to end: enable the collector, run Q1 unnested, export a
/// Chrome trace. The export must be valid JSON and contain the pipeline
/// spans — including the per-equivalence span with its outcome tag.
#[test]
fn chrome_trace_export_covers_the_pipeline() {
    let _gate = TRACE_GATE.lock().unwrap();
    let db = q1_database(Strategy::Unnested);
    bypass::trace::clear();
    bypass::trace::set_enabled(true);
    let rows = db.sql_with(Q1, Strategy::Unnested, None);
    bypass::trace::set_enabled(false);
    let chrome = bypass::trace::export_chrome_and_clear();
    rows.unwrap();
    bypass::trace::json::validate(&chrome)
        .unwrap_or_else(|e| panic!("chrome export must be valid JSON: {e}"));
    for span in [
        "sql.parse",
        "translate.query",
        "unnest.drive",
        "unnest.attach",
    ] {
        assert!(chrome.contains(span), "span {span} missing from trace");
    }
    assert!(
        chrome.contains("eqv1:gamma-outerjoin"),
        "Q1's correlated COUNT attaches via Eqv. 1: {chrome}"
    );
    assert!(chrome.contains("\"ph\":\"M\""), "thread metadata present");
}

/// The cost-based choice rewrites every candidate, so it belongs to
/// the unnest phase: under `CostBased`, every `unnest.attach` span of
/// a run, a profile and an EXPLAIN nests inside the pipeline's
/// `unnest` span.
#[test]
fn cost_based_choice_is_traced_inside_the_unnest_phase() {
    let _gate = TRACE_GATE.lock().unwrap();
    let db = q1_database(Strategy::CostBased);
    bypass::trace::clear();
    bypass::trace::set_enabled(true);
    let runs = (
        db.sql_with(Q1, Strategy::CostBased, None),
        db.profile(Q1, Strategy::CostBased),
        db.explain(Q1, Strategy::CostBased),
    );
    bypass::trace::set_enabled(false);
    let mut events = bypass::trace::take_events();
    runs.0.unwrap();
    runs.1.unwrap();
    runs.2.unwrap();

    // Rebuild each thread's span tree: sorted by start (parents first
    // on ties), a span's ancestors are the open spans of lower depth.
    events.retain(|e| e.phase == 'X');
    events.sort_by_key(|e| (e.tid, e.ts_us, e.depth));
    let mut stack: Vec<&bypass::trace::Event> = Vec::new();
    let mut attaches = 0;
    for e in &events {
        while stack
            .last()
            .is_some_and(|p| p.tid != e.tid || p.depth >= e.depth)
        {
            stack.pop();
        }
        if e.name == "unnest.attach" {
            attaches += 1;
            assert!(
                stack.iter().any(|p| p.name == "unnest"),
                "unnest.attach outside the unnest phase, under {:?}",
                stack.iter().map(|p| &p.name).collect::<Vec<_>>()
            );
        }
        stack.push(e);
    }
    assert!(attaches > 0, "the candidates attempted no attachment");
}

/// Tracing off (the default) must leave no residue: queries run with
/// the collector disabled record nothing.
#[test]
fn disabled_tracing_records_no_events_for_queries() {
    let _gate = TRACE_GATE.lock().unwrap();
    let db = q1_database(Strategy::Unnested);
    bypass::trace::clear();
    assert!(!bypass::trace::enabled());
    db.sql(Q1).unwrap();
    let events = bypass::trace::take_events();
    assert!(
        events.is_empty(),
        "disabled tracing recorded {} events",
        events.len()
    );
}

/// The span stack must rebalance after **every** error category the
/// engine can produce — parse, plan, type, execution, all three
/// resource guards and cancellation. Every span is an RAII guard, so
/// `?`-propagation unwinds it; this test pins that property across the
/// whole error surface, then proves the collector is still usable by
/// exporting a valid trace of a clean follow-up run.
///
/// (`Error::Rewrite` is absent: the current rewrite pipeline rejects
/// by falling back to canonical plans and has no reachable constructor
/// for it — see `unnest`'s completeness tests.)
#[test]
fn span_stack_rebalances_after_every_error_category() {
    let _gate = TRACE_GATE.lock().unwrap();
    let db = q1_database(Strategy::Unnested);
    bypass::trace::clear();
    bypass::trace::set_enabled(true);
    assert_eq!(bypass::trace::current_depth(), 0);

    let cancelled = CancelToken::new();
    cancelled.cancel();
    type Check = fn(&Error) -> bool;
    let matrix: Vec<(&str, &str, RunLimits, Check)> = vec![
        (
            "parse",
            "SELEC DISTINCT * FROM r",
            RunLimits::default(),
            (|e| matches!(e, Error::Parse(_))) as Check,
        ),
        ("plan", "SELECT nosuch FROM r", RunLimits::default(), |e| {
            matches!(e, Error::Plan(_))
        }),
        (
            "catalog",
            "SELECT * FROM nosuch",
            RunLimits::default(),
            |e| matches!(e, Error::Plan(_) | Error::Catalog(_)),
        ),
        (
            "type",
            "SELECT * FROM r WHERE a1 + 'x' = 1",
            RunLimits::default(),
            |e| matches!(e, Error::Type(_)),
        ),
        (
            "execution",
            "SELECT * FROM r WHERE a1 = (SELECT b1 FROM s)",
            RunLimits::default(),
            |e| matches!(e, Error::Execution(_)),
        ),
        (
            "resource: memory",
            Q1,
            RunLimits {
                max_memory_bytes: Some(64),
                ..Default::default()
            },
            |e| {
                matches!(
                    e,
                    Error::ResourceExhausted {
                        resource: bypass::ResourceKind::Memory,
                        ..
                    }
                )
            },
        ),
        (
            "resource: time",
            Q1,
            RunLimits {
                timeout: Some(Duration::ZERO),
                ..Default::default()
            },
            |e| {
                matches!(
                    e,
                    Error::ResourceExhausted {
                        resource: bypass::ResourceKind::Time,
                        ..
                    }
                )
            },
        ),
        (
            "cancelled",
            Q1,
            RunLimits {
                cancel: Some(cancelled.clone()),
                ..Default::default()
            },
            |e| matches!(e, Error::Cancelled),
        ),
    ];
    for strategy in [Strategy::Canonical, Strategy::Unnested] {
        for (label, sql, limits, expected) in &matrix {
            let err = db
                .run_governed(sql, strategy, limits)
                .expect_err(&format!("{label} under {strategy} must fail"));
            assert!(
                expected(&err),
                "{label} under {strategy}: wrong category: {err}"
            );
            assert_eq!(
                bypass::trace::current_depth(),
                0,
                "{label} under {strategy} left the span stack unbalanced"
            );
        }
    }

    // The collector survived eight error unwinds per strategy: a clean
    // run afterwards still produces a valid, complete Chrome trace.
    let _balanced = bypass::trace::take_events();
    db.run_governed(Q1, Strategy::Unnested, &RunLimits::default())
        .unwrap();
    bypass::trace::set_enabled(false);
    let chrome = bypass::trace::export_chrome_and_clear();
    bypass::trace::json::validate(&chrome)
        .unwrap_or_else(|e| panic!("chrome export must stay valid after errors: {e}"));
    assert!(chrome.contains("execute"), "{chrome}");
}

/// Execution counters are per-run state, not process globals: profiling
/// the same query from many threads concurrently yields exactly the
/// counters of a sequential run — no cross-thread bleed, no loss.
#[test]
fn profile_counters_are_identical_across_concurrent_workers() {
    let db = q1_database(Strategy::Unnested);
    let reference = db.profile(Q1, Strategy::Unnested).unwrap();
    let ref_counters = reference.counters;
    let ref_bypass = reference.bypass_totals();
    for workers in [2usize, 4, 8] {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let p = db.profile(Q1, Strategy::Unnested).unwrap();
                        (p.counters, p.bypass_totals(), p.rows)
                    })
                })
                .collect();
            for h in handles {
                let (counters, bypass, rows) = h.join().unwrap();
                assert_eq!(counters, ref_counters, "workers={workers}");
                assert_eq!(bypass, ref_bypass, "workers={workers}");
                assert_eq!(rows, reference.rows, "workers={workers}");
            }
        });
    }
}

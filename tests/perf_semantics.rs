//! Semantics gate for the zero-clone executor core: the rebuilt data
//! plane (shared-row tuples, FxHash join/aggregate/memo kernels,
//! `Arc`-shared scans) must be invisible to query results.
//!
//! Three angles:
//!
//! 1. **Bag equality across the strategy matrix** — ≥200 grammar-
//!    generated nested queries on random NULL-heavy instances, every
//!    strategy bag-compared against canonical nested-loop evaluation
//!    (the same oracle as `tests/differential.rs`, driven through the
//!    parallel front end).
//! 2. **Thread-count independence of the oracle driver** — the parallel
//!    oracle driver must produce the *identical* report (and, for
//!    planted bugs, the identical lowest-index mismatch) for every
//!    worker count. This is the determinism contract of
//!    `bypass_types::par`: results return in input order and the lowest
//!    failing index wins.
//! 3. **Worker-count and morsel-size independence of morsel-driven
//!    execution** — one query executed at 1, 2 and 8 intra-query workers
//!    and at morsel sizes 2, 3 and the default must produce the
//!    identical row sequence, `ExecCounters`, `QueryProfile` counters
//!    and (timing-stripped) EXPLAIN ANALYZE report. This is the
//!    determinism contract of the morsel executor (DESIGN.md §7):
//!    in-order merge, per-worker governor record/replay with block
//!    carries (3-row morsels end inside 256-row blocks), and
//!    worker-count-independent metric totals.

use bypass::datagen::rst;
use bypass::{Database, RunLimits};
use bypass_check::{
    run_differential, run_differential_parallel, BrokenUnnestExecutor, DefaultExecutor,
    OracleConfig,
};
use bypass_core::Strategy;

/// ≥200 cases through the parallel driver: every strategy agrees with
/// canonical on every case, and the report is identical to the
/// sequential run for all tested worker counts.
#[test]
fn parallel_oracle_matches_sequential_across_thread_counts() {
    let cfg = OracleConfig::default();
    assert!(cfg.cases >= 200, "oracle budget must stay at ≥200 cases");
    let sequential = run_differential(&cfg).unwrap_or_else(|m| panic!("{m}"));
    assert_eq!(sequential.cases, cfg.cases);
    for threads in [1, 2, 4, 8] {
        let parallel = run_differential_parallel(&cfg, &DefaultExecutor, threads)
            .unwrap_or_else(|m| panic!("threads={threads}: {m}"));
        assert_eq!(
            parallel, sequential,
            "oracle report must not depend on the worker count (threads={threads})"
        );
    }
}

/// The planted-bug self-test under parallel execution: a broken rewrite
/// must not only be *caught* on every thread count, it must be reported
/// as the **same** minimized failing case — otherwise failure replays
/// would depend on scheduling.
#[test]
fn parallel_oracle_reports_identical_mismatch_on_every_thread_count() {
    let cfg = OracleConfig {
        cases: 100,
        strategies: vec![Strategy::Unnested],
        ..OracleConfig::default()
    };
    let reference = run_differential_parallel(&cfg, &BrokenUnnestExecutor, 1)
        .expect_err("flipped bypass streams must be detected");
    for threads in [2, 3, 8] {
        let mismatch = run_differential_parallel(&cfg, &BrokenUnnestExecutor, threads)
            .expect_err("detection must not depend on the worker count");
        assert_eq!(mismatch.case, reference.case, "threads={threads}");
        assert_eq!(mismatch.case_seed, reference.case_seed, "threads={threads}");
        assert_eq!(mismatch.strategy, reference.strategy, "threads={threads}");
        assert_eq!(mismatch.sql, reference.sql, "threads={threads}");
        assert_eq!(
            mismatch.minimized_sql, reference.minimized_sql,
            "threads={threads}"
        );
        assert_eq!(mismatch.instance, reference.instance, "threads={threads}");
    }
}

/// `threads = 0` means "honour `BYPASS_THREADS` / machine parallelism";
/// whatever that resolves to, the report still matches a serial run.
#[test]
fn parallel_oracle_default_thread_count_is_equivalent() {
    let cfg = OracleConfig {
        cases: 60,
        ..OracleConfig::default()
    };
    let serial =
        run_differential_parallel(&cfg, &DefaultExecutor, 1).unwrap_or_else(|m| panic!("{m}"));
    let auto =
        run_differential_parallel(&cfg, &DefaultExecutor, 0).unwrap_or_else(|m| panic!("{m}"));
    assert_eq!(auto, serial);
}

// ---------------------------------------------------------------------------
// Angle 3: worker-count and morsel-size independence of morsel execution.
// ---------------------------------------------------------------------------

/// The paper's Q1 (disjunctive linking) — exercises the bypass chain
/// under `Unnested`, binary grouping under the fallback strategies, and
/// memoized nested-loop evaluation under `Canonical`.
const Q1: &str = "SELECT DISTINCT * FROM r \
                  WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) \
                     OR a4 > 1500";

/// Q1 with a total order and a LIMIT: covers the sort/limit tail and
/// pins the exact row *sequence*, not just the bag.
const Q1_ORDERED: &str = "SELECT DISTINCT * FROM r \
                          WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) \
                             OR a4 > 1500 \
                          ORDER BY a1, a2, a3, a4 LIMIT 50";

fn morsel_database() -> Database {
    let mut db = Database::new();
    rst::register(db.catalog_mut(), &rst::generate(0.05, 0.05, 42)).unwrap();
    db
}

/// `RunLimits` that pin the intra-query worker count and the morsel
/// size (`Some(2)` splits even tiny inputs; 3 does not divide the
/// 256-row block, so morsels end inside blocks; `None` keeps the
/// default).
fn worker_limits(threads: usize, morsel_rows: Option<usize>) -> RunLimits {
    RunLimits {
        threads: Some(threads),
        morsel_rows,
        ..RunLimits::default()
    }
}

/// Every parallel execution shape compared against the serial run.
fn parallel_shapes() -> impl Iterator<Item = (usize, Option<usize>)> {
    [2, 8]
        .into_iter()
        .flat_map(|threads| [Some(2), Some(3), None].map(move |m| (threads, m)))
}

/// Replace every `<digits>.<digits>ms` timing token with `_ms` so
/// EXPLAIN ANALYZE reports can be compared across runs. Everything else
/// (calls, rows, bypass splits, memo and governor counters) must be
/// bit-identical.
fn strip_timings(report: &str) -> String {
    let b = report.as_bytes();
    let mut out = String::with_capacity(report.len());
    let mut i = 0;
    while i < b.len() {
        let mut j = i;
        while j < b.len() && b[j].is_ascii_digit() {
            j += 1;
        }
        if j > i && j < b.len() && b[j] == b'.' {
            let mut k = j + 1;
            while k < b.len() && b[k].is_ascii_digit() {
                k += 1;
            }
            if k > j + 1 && report[k..].starts_with("ms") {
                out.push_str("_ms");
                i = k + 2;
                continue;
            }
        }
        let ch = report[i..].chars().next().unwrap();
        out.push(ch);
        i += ch.len_utf8();
    }
    out
}

/// The exact row sequence and the full `ExecCounters` snapshot are
/// independent of the worker count and morsel size, for every strategy:
/// morsels merge in input order, block carries keep checkpoints and
/// bytes on the serial blocks, and per-worker counters fold into totals
/// that do not depend on how the input was partitioned.
#[test]
fn executor_rows_and_counters_are_worker_count_independent() {
    let db = morsel_database();
    for strategy in Strategy::all() {
        for sql in [Q1, Q1_ORDERED] {
            let (ref_rows, ref_counters) = db
                .run_governed(sql, strategy, &worker_limits(1, None))
                .unwrap();
            for (threads, morsel) in parallel_shapes() {
                let (rows, counters) = db
                    .run_governed(sql, strategy, &worker_limits(threads, morsel))
                    .unwrap();
                assert_eq!(
                    rows.rows(),
                    ref_rows.rows(),
                    "row sequence must not depend on the execution shape \
                     ({strategy}, threads={threads}, morsel={morsel:?})"
                );
                assert_eq!(
                    counters, ref_counters,
                    "ExecCounters must not depend on the execution shape \
                     ({strategy}, threads={threads}, morsel={morsel:?})"
                );
            }
        }
    }
}

/// `QueryProfile` is execution-shape independent in everything but
/// wall time: output cardinality, query-wide counters, dual-stream
/// totals, and the per-operator calls/rows/pos/neg/disjunct multiset.
#[test]
fn query_profiles_are_worker_count_independent() {
    // The per-node metric map is keyed by plan-node pointer, which
    // differs across runs; compare the sorted multiset of counter
    // tuples instead.
    // Disjunct counters ride along so the adaptive ordering is proven
    // identical across shapes, not just the output.
    #[allow(clippy::type_complexity)]
    fn metric_multiset(p: &bypass::QueryProfile) -> Vec<(u64, u64, u64, u64, Vec<(u64, u64)>)> {
        let mut v: Vec<_> = p
            .metrics
            .values()
            .map(|m| {
                (
                    m.calls,
                    m.rows,
                    m.pos_rows,
                    m.neg_rows,
                    m.disjuncts.iter().map(|d| (d.evals, d.hits)).collect(),
                )
            })
            .collect();
        v.sort_unstable();
        v
    }
    let db = morsel_database();
    for strategy in Strategy::all() {
        let reference = db
            .profile_governed(Q1, strategy, &worker_limits(1, None))
            .unwrap();
        for (threads, morsel) in parallel_shapes() {
            let profile = db
                .profile_governed(Q1, strategy, &worker_limits(threads, morsel))
                .unwrap();
            let shape = format!("{strategy}, threads={threads}, morsel={morsel:?}");
            assert_eq!(profile.strategy, reference.strategy);
            assert_eq!(profile.rows, reference.rows, "output cardinality ({shape})");
            assert_eq!(
                profile.counters, reference.counters,
                "profile counters ({shape})"
            );
            assert_eq!(
                profile.bypass_totals(),
                reference.bypass_totals(),
                "dual-stream totals ({shape})"
            );
            assert_eq!(
                metric_multiset(&profile),
                metric_multiset(&reference),
                "per-operator counters ({shape})"
            );
        }
    }
}

/// The rendered EXPLAIN ANALYZE report — plan shape, per-operator
/// calls/rows, bypass splits, memo hit rates, governor peak bytes and
/// checkpoint count — is identical at 1, 2 and 8 workers and at every
/// morsel size once timing tokens are stripped.
#[test]
fn explain_analyze_snapshots_are_worker_count_independent() {
    let db = morsel_database();
    for strategy in Strategy::all() {
        for sql in [Q1, Q1_ORDERED] {
            let reference = strip_timings(
                &db.profile_governed(sql, strategy, &worker_limits(1, None))
                    .unwrap()
                    .render(),
            );
            assert!(
                reference.contains("calls=") && reference.contains("peak_memory="),
                "snapshot must carry counters:\n{reference}"
            );
            for (threads, morsel) in parallel_shapes() {
                let snapshot = strip_timings(
                    &db.profile_governed(sql, strategy, &worker_limits(threads, morsel))
                        .unwrap()
                        .render(),
                );
                assert_eq!(
                    snapshot, reference,
                    "EXPLAIN ANALYZE must not depend on the execution shape \
                     ({strategy}, threads={threads}, morsel={morsel:?})"
                );
            }
        }
    }
}

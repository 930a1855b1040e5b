//! Semantics gate for the zero-clone executor core: the rebuilt data
//! plane (shared-row tuples, FxHash join/aggregate/memo kernels,
//! `Arc`-shared scans) must be invisible to query results.
//!
//! Two angles:
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

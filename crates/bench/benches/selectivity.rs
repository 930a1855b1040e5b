//! Adaptive-ordering convergence gate: a skewed-disjunct sweep
//! recording the per-disjunct reach/decide counters as timing-free
//! `/counters/` baseline entries.
//!
//! No timing groups — the disjunct counters are deterministic (rank
//! epochs are fixed row counts), so they gate exactly via
//! `scripts/bench.sh compare`. Two facets of the adaptive BestD
//! ordering (DESIGN.md §8):
//!
//! * **Kernel skew** — `a4 > T OR a3 > 0` puts the barely-deciding
//!   term syntactically first. The planner keeps plain disjuncts in
//!   syntactic order, so only the *adaptive* reorder can fix it: after
//!   the first rank epoch the high-selectivity `a3 > 0` term runs
//!   first and the `a4 > T` term only sees the rows it leaves behind.
//!   The skew `T` sweeps the first term from moderately to barely
//!   selective.
//! * **Subquery skew** — Q1's disjunction with the correlated COUNT
//!   subquery written first or last. The static rank ordering already
//!   normalizes the subquery term last; the adaptive order must *keep*
//!   that order (rank churn would re-hoist the 4096-cost term), so the
//!   subquery's eval count stays far below the kernel's either way.

use bypass_bench::timing::{criterion_group, criterion_main, record, Criterion};

use bypass_bench::rst_database;
use bypass_core::{Database, Strategy};

/// 500 outer rows at this scale: two rank epochs, enough for the
/// converged order to dominate the counters, small enough that the
/// canonical correlated subquery stays fast.
const SF: (f64, f64) = (0.05, 0.05);
const SEED: u64 = 42;

/// Per-disjunct counters of the one operator carrying them.
fn disjunct_counters(db: &Database, sql: &str) -> Vec<(u64, u64)> {
    let profile = db
        .profile(sql, Strategy::Canonical)
        .expect("sweep query profiles");
    profile
        .metrics
        .values()
        .find(|m| !m.disjuncts.is_empty())
        .map(|m| m.disjuncts.iter().map(|d| (d.evals, d.hits)).collect())
        .expect("adaptive chain surfaces disjunct counters")
}

fn record_disjuncts(prefix: &str, disjuncts: &[(u64, u64)]) {
    for (i, (evals, hits)) in disjuncts.iter().enumerate() {
        record(format!("{prefix}/d{i}_evals"), *evals as f64);
        record(format!("{prefix}/d{i}_hits"), *hits as f64);
    }
    let cells: Vec<String> = disjuncts
        .iter()
        .enumerate()
        .map(|(i, (e, h))| format!("d{i} evals {e} hits {h}"))
        .collect();
    println!("{prefix:<52} {}", cells.join("  "));
}

fn bench_selectivity(_c: &mut Criterion) {
    let db = rst_database(SF.0, SF.1, SEED);

    // Facet 1: kernel skew, barely-deciding term syntactically first.
    for threshold in [1500i64, 2900] {
        let sql = format!("SELECT DISTINCT * FROM r WHERE a4 > {threshold} OR a3 > 0");
        let d = disjunct_counters(&db, &sql);
        assert_eq!(d.len(), 2, "two top-level terms");
        // Convergence: once the rank flips the order, the skewed first
        // term only sees epoch 0 plus the rows `a3 > 0` leaves
        // undecided — strictly fewer than the hoisted term sees.
        assert!(
            d[0].0 < d[1].0,
            "t={threshold}: skewed term evals {} not below hoisted term evals {}",
            d[0].0,
            d[1].0
        );
        record_disjuncts(&format!("selectivity/counters/kernel_t{threshold}"), &d);
    }

    // Facet 2: subquery skew, both syntactic orders.
    for (order, sql) in [
        (
            "expensive_first",
            "SELECT DISTINCT * FROM r \
             WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 1500",
        ),
        (
            "cheap_first",
            "SELECT DISTINCT * FROM r \
             WHERE a4 > 1500 OR a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2)",
        ),
    ] {
        let d = disjunct_counters(&db, sql);
        assert_eq!(d.len(), 2, "two top-level terms");
        // The static rank ordering plans the subquery term last
        // (position 1); the adaptive order must keep it there, so the
        // 4096-cost term evaluates on strictly fewer rows than the
        // cheap kernel regardless of how the SQL was written.
        assert!(
            d[1].0 < d[0].0,
            "{order}: subquery evals {} not below kernel evals {}",
            d[1].0,
            d[0].0
        );
        record_disjuncts(&format!("selectivity/counters/subquery_{order}"), &d);
    }
}

criterion_group!(benches, bench_selectivity);
criterion_main!(benches);

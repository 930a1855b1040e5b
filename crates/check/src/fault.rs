//! The deterministic fault-point injection oracle.
//!
//! The executor's resource governor numbers every checkpoint (one per
//! operator block or one-shot charge) with an index that depends only
//! on plan + data — never on timing or thread scheduling. That makes error paths
//! *enumerable*: a clean run of a query under a strategy reports its
//! checkpoint count `N`, and re-running with
//! [`InjectedFault::new(k, kind)`] for any `k ∈ 1..=N` fails at
//! **exactly** that point, every time, on every machine.
//!
//! For every sampled `(query, strategy, checkpoint, kind)` the campaign
//! asserts the **trifecta**:
//!
//! 1. **Typed error, never a panic** — the run (under `catch_unwind`)
//!    returns the `Err` matching the injected kind:
//!    [`FaultKind::Memory`] → `ResourceExhausted { Memory }`,
//!    [`FaultKind::Deadline`] → `ResourceExhausted { Time }`,
//!    [`FaultKind::Cancel`] → [`Error::Cancelled`].
//! 2. **Balanced span stack** — `bypass_trace::current_depth()` is
//!    unchanged after the error unwinds, so a governed production run
//!    can keep tracing across failed queries without corrupting its
//!    Chrome trace.
//! 3. **Clean re-run** — executing the same query on the same
//!    [`Database`] immediately afterwards succeeds and agrees with the
//!    canonical reference (no residue in catalog, memo or metrics
//!    state survives a mid-flight abort).
//!
//! Queries and instances come from the differential oracle's grammar
//! ([`materialize_case`]); per query the campaign covers the full
//! strategy matrix and samples the first, last and one random interior
//! checkpoint for each fault kind. Failures report a seed replayable
//! via `BYPASS_CHECK_FAULT_SEED`.

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bypass_core::{
    Database, Error, FaultKind, InjectedFault, Relation, ResourceKind, RunLimits, Strategy,
};

use crate::oracle::{
    case_seed, env_seed, materialize_case, results_agree, trace_gate, OracleConfig, OrderSpec,
};
use crate::prop::DEFAULT_SEED;
use crate::rng::{split_mix64, Rng};

/// Configuration of a fault-injection campaign.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Number of grammar-generated queries (each paired with a random
    /// RST instance). Queries the canonical engine rejects are skipped
    /// and do not count toward this total's injections.
    pub queries: u32,
    /// Run seed (`BYPASS_CHECK_FAULT_SEED` overrides) — deliberately a
    /// *separate* stream from `BYPASS_CHECK_SEED`, so the fault oracle
    /// explores different queries than the differential oracle under
    /// default CI pinning.
    pub seed: u64,
    /// Strategies to inject faults under (default: the full matrix).
    pub strategies: Vec<Strategy>,
    /// Grammar/instance parameters (rows, domain, NULL ratio) for
    /// [`materialize_case`].
    pub oracle: OracleConfig,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            queries: 16,
            seed: env_seed("BYPASS_CHECK_FAULT_SEED").unwrap_or(DEFAULT_SEED),
            strategies: Strategy::all().to_vec(),
            oracle: OracleConfig::default(),
        }
    }
}

/// Statistics of a clean fault campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// Queries whose canonical run succeeded (injection targets).
    pub queries: u32,
    /// Queries skipped because canonical evaluation rejected them (the
    /// generator intentionally wanders to the grammar's edges).
    pub skipped_queries: u32,
    /// Clean `(query, strategy)` runs used to count checkpoints.
    pub strategy_runs: u64,
    /// Total injections that survived the trifecta.
    pub injections: u64,
    /// Injections per fault kind (`memory` / `deadline` / `cancel`).
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Largest checkpoint count observed on any clean run — how deep
    /// the sampled error paths reach.
    pub max_checkpoints: u64,
}

/// One injection whose trifecta failed, with everything needed to
/// replay it.
#[derive(Debug, Clone)]
pub struct FaultFailure {
    /// Seed of the failing query (replay: `BYPASS_CHECK_FAULT_SEED=…`
    /// with `queries = 1`).
    pub case_seed: u64,
    /// Query index within the campaign.
    pub query: u32,
    /// The strategy the fault was injected under.
    pub strategy: Strategy,
    /// The generated SQL.
    pub sql: String,
    /// Normalized-AST fingerprint of the query (0 if it does not
    /// parse) — the key to look the shape up in the metrics hub.
    pub fingerprint: u64,
    /// The targeted governor checkpoint (0 when the failure happened
    /// before any injection, e.g. on the clean baseline run).
    pub checkpoint: u64,
    /// The injected fault kind, if an injection was in flight.
    pub kind: Option<FaultKind>,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for FaultFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fault trifecta violated under `{}` (query {})",
            self.strategy, self.query
        )?;
        writeln!(
            f,
            "  reproduce: BYPASS_CHECK_FAULT_SEED={:#x}",
            self.case_seed
        )?;
        writeln!(f, "  query:     {}", self.sql)?;
        writeln!(
            f,
            "  fingerprint: {}",
            bypass_core::format_fingerprint(self.fingerprint)
        )?;
        match self.kind {
            Some(kind) => writeln!(
                f,
                "  injected:  {} fault at checkpoint {}",
                kind_name(kind),
                self.checkpoint
            )?,
            None => writeln!(f, "  injected:  (none — clean baseline run)")?,
        }
        write!(f, "  detail:    {}", self.detail)
    }
}

fn kind_name(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Memory => "memory",
        FaultKind::Deadline => "deadline",
        FaultKind::Cancel => "cancel",
    }
}

/// Run a fault-injection campaign.
///
/// Tracing is force-enabled for the duration (behind the process-wide
/// trace gate shared with the fingerprint scheduler) so the
/// span-balance leg of the trifecta actually observes live spans; the
/// events themselves are drained and dropped on exit and the previous
/// enable state is restored.
pub fn run_fault_campaign(cfg: &FaultConfig) -> Result<FaultReport, Box<FaultFailure>> {
    let _guard = trace_gate();
    let was_enabled = bypass_trace::enabled();
    bypass_trace::set_enabled(true);
    let _stale = bypass_trace::take_events();
    let out = campaign(cfg);
    let _campaign_events = bypass_trace::take_events();
    bypass_trace::set_enabled(was_enabled);
    out
}

fn campaign(cfg: &FaultConfig) -> Result<FaultReport, Box<FaultFailure>> {
    let mut report = FaultReport {
        queries: 0,
        skipped_queries: 0,
        strategy_runs: 0,
        injections: 0,
        by_kind: BTreeMap::new(),
        max_checkpoints: 0,
    };
    for query in 0..cfg.queries {
        let seed = case_seed(cfg.seed, query);
        let (spec, db) = materialize_case(seed, &cfg.oracle);
        let sql = spec.sql();
        // Canonical reference; queries the engine rejects are skipped,
        // mirroring the differential oracle.
        let reference = match db.run_governed(&sql, Strategy::Canonical, &RunLimits::default()) {
            Ok((rel, _)) => rel,
            Err(_) => {
                report.skipped_queries += 1;
                continue;
            }
        };
        report.queries += 1;
        let fail = |strategy, checkpoint, kind, detail| {
            Box::new(FaultFailure {
                case_seed: seed,
                query,
                strategy,
                sql: sql.clone(),
                fingerprint: bypass_core::fingerprint_sql(&sql).unwrap_or(0),
                checkpoint,
                kind,
                detail,
            })
        };
        // Interior-checkpoint sampling keys off the case seed so the
        // campaign is deterministic per query regardless of how many
        // earlier queries were skipped.
        let mut salt = seed ^ 0xFA_17_0B_5E_55_10_4A_11;
        let mut rng = Rng::seed_from_u64(split_mix64(&mut salt));
        for &strategy in &cfg.strategies {
            // Clean baseline: counts the governor checkpoints N and
            // cross-checks the strategy against canonical (the
            // differential oracle's job, but a free sanity leg here).
            let (clean, counters) = match db.run_governed(&sql, strategy, &RunLimits::default()) {
                Ok(x) => x,
                Err(e) => {
                    return Err(fail(
                        strategy,
                        0,
                        None,
                        format!("fails where canonical succeeds: {e}"),
                    ))
                }
            };
            if let Some(d) = results_agree(&reference, &clean, spec.order()) {
                return Err(fail(strategy, 0, None, format!("baseline diverges: {d}")));
            }
            report.strategy_runs += 1;
            let n = counters.checkpoints;
            report.max_checkpoints = report.max_checkpoints.max(n);
            if n == 0 {
                // Degenerate plan (empty instance) with nothing to
                // materialize: no checkpoint to fault.
                continue;
            }
            for kind in [FaultKind::Memory, FaultKind::Deadline, FaultKind::Cancel] {
                // First, last and one random interior checkpoint.
                let mut ks = vec![1, n, rng.gen_range(1..=n)];
                ks.sort_unstable();
                ks.dedup();
                for k in ks {
                    inject(&db, &sql, spec.order(), &reference, strategy, k, kind)
                        .map_err(|detail| fail(strategy, k, Some(kind), detail))?;
                    report.injections += 1;
                    *report.by_kind.entry(kind_name(kind)).or_default() += 1;
                }
            }
        }
    }
    Ok(report)
}

/// One injection: run with the fault armed and assert the trifecta.
/// Returns the violation description on failure.
fn inject(
    db: &Database,
    sql: &str,
    order: Option<&OrderSpec>,
    reference: &Relation,
    strategy: Strategy,
    checkpoint: u64,
    kind: FaultKind,
) -> Result<(), String> {
    let limits = RunLimits {
        fault: Some(InjectedFault::new(checkpoint, kind)),
        ..RunLimits::default()
    };
    let depth_before = bypass_trace::current_depth();

    // Leg 1: typed error, never a panic.
    let outcome = catch_unwind(AssertUnwindSafe(|| db.run_governed(sql, strategy, &limits)));
    let result = match outcome {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            return Err(format!("panicked instead of returning Err: {msg}"));
        }
    };
    match result {
        Ok(_) => return Err("injected fault did not surface: run succeeded".to_string()),
        Err(e) => {
            let matches = match kind {
                FaultKind::Memory => matches!(
                    e,
                    Error::ResourceExhausted {
                        resource: ResourceKind::Memory,
                        ..
                    }
                ),
                FaultKind::Deadline => matches!(
                    e,
                    Error::ResourceExhausted {
                        resource: ResourceKind::Time,
                        ..
                    }
                ),
                FaultKind::Cancel => matches!(e, Error::Cancelled),
            };
            if !matches {
                return Err(format!(
                    "wrong error for injected {} fault: {e}",
                    kind_name(kind)
                ));
            }
        }
    }

    // Leg 2: the tracing span stack unwound cleanly with the error.
    let depth_after = bypass_trace::current_depth();
    if depth_after != depth_before {
        return Err(format!(
            "span stack unbalanced after fault: depth {depth_before} -> {depth_after}"
        ));
    }

    // Leg 3: a clean re-run on the same Database reproduces canonical.
    match db.run_governed(sql, strategy, &RunLimits::default()) {
        Ok((rel, _)) => {
            if let Some(d) = results_agree(reference, &rel, order) {
                return Err(format!("post-fault re-run diverges: {d}"));
            }
        }
        Err(e) => return Err(format!("post-fault re-run fails: {e}")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small campaign over the full strategy matrix survives the
    /// trifecta and actually injects at every kind.
    #[test]
    fn small_campaign_is_clean() {
        let cfg = FaultConfig {
            queries: 3,
            seed: 0xFA17,
            ..FaultConfig::default()
        };
        let report = run_fault_campaign(&cfg).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(report.queries + report.skipped_queries, 3);
        if report.queries > 0 {
            assert!(report.injections > 0, "{report:?}");
            for kind in ["memory", "deadline", "cancel"] {
                assert!(
                    report.by_kind.get(kind).copied().unwrap_or(0) > 0,
                    "no {kind} injections: {report:?}"
                );
            }
        }
    }

    /// The campaign is deterministic: same seed, same report.
    #[test]
    fn campaign_is_deterministic() {
        let cfg = FaultConfig {
            queries: 2,
            seed: 0xBEEF,
            ..FaultConfig::default()
        };
        let a = run_fault_campaign(&cfg).unwrap_or_else(|f| panic!("{f}"));
        let b = run_fault_campaign(&cfg).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(a, b);
    }

    /// Failure reports carry the replay seed.
    #[test]
    fn failure_display_has_reproduce_line() {
        let f = FaultFailure {
            case_seed: 0xABCD,
            query: 3,
            strategy: Strategy::Unnested,
            sql: "SELECT * FROM r".to_string(),
            fingerprint: bypass_core::fingerprint_sql("SELECT * FROM r").unwrap(),
            checkpoint: 17,
            kind: Some(FaultKind::Cancel),
            detail: "span stack unbalanced".to_string(),
        };
        let text = f.to_string();
        assert!(text.contains("BYPASS_CHECK_FAULT_SEED=0xabcd"), "{text}");
        assert!(text.contains("cancel fault at checkpoint 17"), "{text}");
    }
}

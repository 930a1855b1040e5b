//! The fault-injection oracle as a CI gate.
//!
//! For every sampled `(query, strategy, checkpoint, kind)` — queries
//! from the differential grammar, the full strategy matrix, the first /
//! last / one random interior governor checkpoint, all three fault
//! kinds (memory-budget trip, deadline trip, cancellation) — the gate
//! asserts the trifecta:
//!
//! 1. the run returns the matching typed error and never panics,
//! 2. the tracing span stack is balanced after the error unwinds,
//! 3. a clean re-run on the same `Database` reproduces canonical
//!    results (no residue survives a mid-flight abort).
//!
//! Fails on any violation, or when fewer than the floor of injections
//! actually executed (so a generator regression can't silently hollow
//! out the gate).
//!
//! Environment:
//!
//! * `BYPASS_CHECK_FAULT_SEED`    — run seed (decimal or 0x-hex; pin in CI)
//! * `BYPASS_CHECK_FAULT_QUERIES` — generated queries      (default 16)
//! * `BYPASS_CHECK_FAULT_MIN`     — injection-count floor  (default 500)

use std::process::ExitCode;

use bypass_check::{run_fault_campaign, FaultConfig};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

fn main() -> ExitCode {
    let queries = env_u64("BYPASS_CHECK_FAULT_QUERIES", 16) as u32;
    let min_injections = env_u64("BYPASS_CHECK_FAULT_MIN", 500);
    let cfg = FaultConfig {
        queries,
        ..FaultConfig::default()
    };
    eprintln!(
        "fault oracle: {} queries x {} strategies x 3 fault kinds, seed {:#x}",
        cfg.queries,
        cfg.strategies.len(),
        cfg.seed,
    );
    let report = match run_fault_campaign(&cfg) {
        Ok(r) => r,
        Err(f) => {
            eprintln!("fault oracle: TRIFECTA VIOLATION\n{f}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "queries {} (skipped {})  strategy runs {}  injections {}  \
         deepest plan {} checkpoints",
        report.queries,
        report.skipped_queries,
        report.strategy_runs,
        report.injections,
        report.max_checkpoints,
    );
    for (kind, n) in &report.by_kind {
        println!("  {kind:<8} {n:>6}");
    }
    if report.injections < min_injections {
        eprintln!(
            "fault oracle: only {} injections executed (need >= {min_injections}); \
             raise BYPASS_CHECK_FAULT_QUERIES",
            report.injections
        );
        return ExitCode::FAILURE;
    }
    println!(
        "fault oracle: OK ({} fault points survived the trifecta)",
        report.injections
    );
    ExitCode::SUCCESS
}

//! Standalone corpus runner: `slt_runner [--workers N] [PATH...]`.
//!
//! Each PATH is a `.slt` file or a directory searched recursively
//! (default: `tests/slt` under the current directory). Files run in
//! parallel across `N` workers (default 1 — each file already runs its
//! queries under every strategy), and a per-file pass table is
//! printed. Exit status 1 if any file fails.

use std::path::PathBuf;
use std::process::ExitCode;

use bypass_slt::{discover, run_path};
use bypass_types::par::scoped_map;

fn main() -> ExitCode {
    let mut workers = 1usize;
    let mut roots: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" | "-j" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n >= 1);
                match n {
                    Some(n) => workers = n,
                    None => {
                        eprintln!("slt_runner: --workers needs a positive integer");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                println!("usage: slt_runner [--workers N] [PATH...]");
                println!("  PATH  .slt file or directory (default: tests/slt)");
                return ExitCode::SUCCESS;
            }
            other => roots.push(PathBuf::from(other)),
        }
    }
    if roots.is_empty() {
        roots.push(PathBuf::from("tests/slt"));
    }

    let mut files: Vec<(PathBuf, PathBuf)> = Vec::new(); // (file, base for naming)
    for root in &roots {
        if root.is_dir() {
            match discover(root) {
                Ok(found) => files.extend(found.into_iter().map(|f| (f, root.clone()))),
                Err(e) => {
                    eprintln!("slt_runner: cannot search {}: {e}", root.display());
                    return ExitCode::FAILURE;
                }
            }
        } else {
            let base = root.parent().map(PathBuf::from).unwrap_or_default();
            files.push((root.clone(), base));
        }
    }
    if files.is_empty() {
        eprintln!("slt_runner: no .slt files found");
        return ExitCode::FAILURE;
    }

    let reports = scoped_map(&files, workers, |_, (file, base)| run_path(file, base));

    let name_width = reports
        .iter()
        .map(|r| match r {
            Ok(rep) => rep.name.len(),
            Err(e) => e.name.len(),
        })
        .max()
        .unwrap_or(0)
        .max(4);
    println!(
        "{:<name_width$}  {:>7}  {:>10}  result",
        "file", "queries", "executions"
    );
    let mut failed = 0usize;
    let mut total_execs = 0usize;
    for report in &reports {
        match report {
            Ok(rep) if rep.passed() => {
                total_execs += rep.executions;
                println!(
                    "{:<name_width$}  {:>7}  {:>10}  PASS",
                    rep.name, rep.queries, rep.executions
                );
            }
            Ok(rep) => {
                failed += 1;
                total_execs += rep.executions;
                println!(
                    "{:<name_width$}  {:>7}  {:>10}  FAIL",
                    rep.name, rep.queries, rep.executions
                );
                for f in &rep.failures {
                    println!("    {}: {f}", rep.name);
                }
            }
            Err(e) => {
                failed += 1;
                println!(
                    "{:<name_width$}  {:>7}  {:>10}  PARSE ERROR",
                    e.name, "-", "-"
                );
                println!("    {e}");
            }
        }
    }
    println!(
        "{} file(s), {} failed, {} engine execution(s), {} worker(s)",
        reports.len(),
        failed,
        total_execs,
        workers
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

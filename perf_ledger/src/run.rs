//! Set-up, the closed-loop measurement windows, and output checking.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bypass_core::{Database, ExecCounters, QueryProfile, RunLimits, Strategy};
use bypass_service::{QueryService, ServiceConfig, SessionQuotas};

use crate::host::{fnv64, process_cpu};
use crate::outcome::Outcome;
use crate::stats::median;
use crate::workload::{
    build_data, classes, reference_strategy, Class, Kind, StmtGen, STATEMENT_CAP,
};

/// Fewest statements a measurement window completes; with 100 samples
/// the pooled p90 still has ten samples beyond it.
pub const MIN_STATEMENTS: usize = 100;

/// Service clients of the ad-hoc workload (one session each).
pub const CLIENTS: u64 = 2;

/// Shortest slice of a window. Throughput and CPU per statement are
/// medians over slices, so a burst of interference on a shared host
/// moves them less than a whole-window total would; a slice also spans
/// enough 10 ms CPU ticks to resolve CPU time to about 1%.
pub const SLICE: Duration = Duration::from_secs(1);

/// One slice of a measurement window.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub stmts: usize,
    pub secs: f64,
    pub cpu_s: f64,
}

/// Cuts a window into slices of at least [`SLICE`].
struct Slicer {
    start: Instant,
    cpu: Duration,
    stmts: usize,
}

impl Slicer {
    fn new(stmts: usize) -> Slicer {
        Slicer {
            start: Instant::now(),
            cpu: process_cpu(),
            stmts,
        }
    }

    /// Close the slice if it has run long enough; `stmts` is the
    /// window's running statement total.
    fn cut(&mut self, stmts: usize, out: &mut Vec<Slice>) {
        if self.start.elapsed() >= SLICE {
            let cpu = process_cpu();
            out.push(Slice {
                stmts: stmts - self.stmts,
                secs: self.start.elapsed().as_secs_f64(),
                cpu_s: (cpu - self.cpu).as_secs_f64(),
            });
            *self = Slicer {
                start: Instant::now(),
                cpu,
                stmts,
            };
        }
    }
}

/// Exact, host-independent work counts of one statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub checkpoints: u64,
    pub peak_bytes: u64,
    pub rows: u64,
    pub disjunct_evals: u64,
    pub pos_rows: u64,
    pub neg_rows: u64,
}

impl Counts {
    fn of_profile(p: &QueryProfile) -> Counts {
        let (_, pos_rows, neg_rows) = p.bypass_totals();
        Counts {
            pos_rows,
            neg_rows,
            ..Counts::of_run(p.rows, &p.counters)
        }
    }

    /// The counts an un-profiled run reports (no bypass stream split).
    fn of_run(rows: usize, c: &ExecCounters) -> Counts {
        Counts {
            checkpoints: c.checkpoints,
            peak_bytes: c.peak_memory_bytes,
            rows: rows as u64,
            disjunct_evals: c.disjunct_evals,
            pos_rows: 0,
            neg_rows: 0,
        }
    }

    /// Do an un-profiled run's counts repeat these exactly?
    fn same_run(&self, other: &Counts) -> bool {
        (
            self.checkpoints,
            self.peak_bytes,
            self.rows,
            self.disjunct_evals,
        ) == (
            other.checkpoints,
            other.peak_bytes,
            other.rows,
            other.disjunct_evals,
        )
    }

    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("checkpoints", self.checkpoints),
            ("peak_bytes", self.peak_bytes),
            ("rows", self.rows),
            ("disjunct_evals", self.disjunct_evals),
            ("bypass_pos_rows", self.pos_rows),
            ("bypass_neg_rows", self.neg_rows),
        ]
    }
}

/// A workload instance ready to measure.
pub struct Setup {
    pub kind: Kind,
    pub seed: u64,
    pub dbs: Vec<Arc<Database>>,
    pub classes: Vec<Class>,
    /// Per class and database of the class, the warm-up run's exact
    /// counts (`None` when the statement raised an error).
    pub counts: Vec<Vec<Option<Counts>>>,
    pub datagen_s: f64,
    pub warmup_s: f64,
}

/// Generate and register the tables, then run every statement class
/// once, profiled, to warm caches and take the exact-count snapshot.
pub fn setup(kind: Kind, seed: u64) -> Setup {
    let t = Instant::now();
    let dbs = build_data(kind, seed);
    let datagen_s = t.elapsed().as_secs_f64();
    let classes = classes(kind, seed);
    let t = Instant::now();
    let counts = classes
        .iter()
        .map(|c| {
            c.dbs
                .iter()
                .map(|&db| {
                    dbs[db]
                        .profile(&c.sql, c.strategy)
                        .ok()
                        .map(|p| Counts::of_profile(&p))
                })
                .collect()
        })
        .collect();
    Setup {
        kind,
        seed,
        dbs,
        classes,
        counts,
        datagen_s,
        warmup_s: t.elapsed().as_secs_f64(),
    }
}

/// What one measurement window observed.
#[derive(Debug, Default)]
pub struct Window {
    pub elapsed_s: f64,
    pub cpu_s: f64,
    /// `(class index, latency ms)` per statement, in completion order.
    pub samples: Vec<(usize, f64)>,
    /// Per `(class, database, statement hash)`: how often each outcome
    /// occurred.
    pub outcomes: HashMap<(usize, usize, u64), HashMap<Outcome, u64>>,
    /// Statement text by hash.
    pub texts: HashMap<u64, String>,
    /// Statements whose exact counts differed from an earlier run of
    /// the same statement.
    pub count_mismatches: u64,
    pub notes: Vec<String>,
    /// Service counters at the end of the window (service workload).
    pub service: Option<bypass_service::CountersSnapshot>,
    pub slices: Vec<Slice>,
}

impl Window {
    fn record(&mut self, class: usize, db: usize, sql: &str, ms: f64, outcome: Outcome) {
        let h = fnv64(sql.as_bytes());
        self.texts.entry(h).or_insert_with(|| sql.to_string());
        self.samples.push((class, ms));
        *self
            .outcomes
            .entry((class, db, h))
            .or_default()
            .entry(outcome)
            .or_default() += 1;
    }

    fn merge(&mut self, other: Window) {
        self.samples.extend(other.samples);
        for (k, outs) in other.outcomes {
            let mine = self.outcomes.entry(k).or_default();
            for (o, n) in outs {
                *mine.entry(o).or_default() += n;
            }
        }
        self.texts.extend(other.texts);
        self.count_mismatches += other.count_mismatches;
        self.notes.extend(other.notes);
    }

    pub fn statements(&self) -> usize {
        self.samples.len()
    }

    /// Median of `f` over the slices `keep` selects (whole-window figure
    /// when none does).
    fn per_slice(&self, keep: fn(&Slice) -> bool, f: fn(&Slice) -> f64) -> f64 {
        let whole = Slice {
            stmts: self.statements(),
            secs: self.elapsed_s,
            cpu_s: self.cpu_s,
        };
        let v: Vec<f64> = self.slices.iter().filter(|s| keep(s)).map(f).collect();
        median(&v).unwrap_or_else(|| f(&whole))
    }

    /// Statements completed per second. A slice in which no statement
    /// completed counts as 0, so a stall longer than a slice shows.
    pub fn rate(&self) -> f64 {
        self.per_slice(|_| true, |s| s.stmts as f64 / s.secs)
    }

    /// Process CPU milliseconds per statement, over the slices in which
    /// statements completed.
    pub fn cpu_ms_per_stmt(&self) -> f64 {
        self.per_slice(|s| s.stmts > 0, |s| s.cpu_s * 1e3 / s.stmts as f64)
    }
}

/// Run the workload's closed loop for `budget` (and at least
/// [`MIN_STATEMENTS`] statements).
pub fn measure(setup: &Setup, budget: Duration) -> Window {
    let cpu0 = process_cpu();
    let start = Instant::now();
    let mut w = match setup.kind {
        Kind::AdhocService => service_loop(setup, budget),
        _ => direct_loop(setup, budget),
    };
    w.elapsed_s = start.elapsed().as_secs_f64();
    w.cpu_s = (process_cpu() - cpu0).as_secs_f64();
    w
}

/// One client, round robin over the classes in whole passes; a slice
/// ends at a pass boundary.
fn direct_loop(setup: &Setup, budget: Duration) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    let mut slicer = Slicer::new(0);
    let mut pass = 0;
    while start.elapsed() < budget || w.statements() < MIN_STATEMENTS {
        for (i, c) in setup.classes.iter().enumerate() {
            let turn = pass % c.dbs.len();
            let db = c.dbs[turn];
            let t = Instant::now();
            let res = setup.dbs[db].run_governed(&c.sql, c.strategy, &RunLimits::default());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if let (Ok((rel, counters)), Some(expected)) = (&res, &setup.counts[i][turn]) {
                if !expected.same_run(&Counts::of_run(rel.len(), counters)) {
                    w.count_mismatches += 1;
                    w.notes
                        .push(format!("{}: counts differ from warm-up", c.name));
                }
            }
            w.record(i, db, &c.sql, ms, Outcome::of(&res.map(|(rel, _)| rel)));
        }
        pass += 1;
        slicer.cut(w.statements(), &mut w.slices);
    }
    w
}

/// [`CLIENTS`] closed-loop clients, one session each, through a
/// cost-based query service that runs one statement at a time.
fn service_loop(setup: &Setup, budget: Duration) -> Window {
    let cfg = ServiceConfig {
        max_concurrency: 1,
        ..ServiceConfig::default()
    };
    let svc = QueryService::new(Arc::clone(&setup.dbs[0]), Strategy::CostBased, cfg);
    let start = Instant::now();
    let done = AtomicUsize::new(0);
    let running = |done: &AtomicUsize| {
        start.elapsed() < budget || done.load(Ordering::Relaxed) < MIN_STATEMENTS
    };
    let mut w = Window::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (svc, done, running) = (&svc, &done, &running);
                scope.spawn(move || {
                    let session = svc.session(SessionQuotas {
                        max_statement_bytes: Some(STATEMENT_CAP),
                        ..SessionQuotas::default()
                    });
                    let mut gen = StmtGen::new(setup.seed, client);
                    let mut w = Window::default();
                    let mut seen: HashMap<u64, Counts> = HashMap::new();
                    while running(done) {
                        let (template, sql) = gen.next_stmt();
                        let t = Instant::now();
                        let res = session.execute(&sql);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if let Ok(resp) = &res {
                            let counts = Counts::of_run(resp.rows.len(), &resp.counters);
                            let first = *seen.entry(fnv64(sql.as_bytes())).or_insert(counts);
                            if !first.same_run(&counts) {
                                w.count_mismatches += 1;
                                w.notes.push(format!("{sql}: counts differ between runs"));
                            }
                        }
                        w.record(template, 0, &sql, ms, Outcome::of(&res.map(|r| r.rows)));
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    w
                })
            })
            .collect();
        // This thread only samples: one slice per whole second while the
        // clients run.
        let mut slicer = Slicer::new(0);
        let mut slices = Vec::new();
        let mut k = 1;
        while running(&done) {
            if let Some(wait) = (start + SLICE * k).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            slicer.cut(done.load(Ordering::Relaxed), &mut slices);
            k += 1;
        }
        w.slices = slices;
        for h in handles {
            w.merge(h.join().expect("service client thread panicked"));
        }
    });
    w.service = Some(svc.counters());
    w
}

/// Expected outcomes, computed outside the measurement windows and
/// memoized by statement and reference strategy.
#[derive(Default)]
pub struct References {
    cache: HashMap<(u64, usize, String), Outcome>,
}

impl References {
    /// Check every outcome a window observed; returns the number of
    /// statements whose outcome was not the expected one.
    pub fn check(&mut self, setup: &Setup, w: &Window, notes: &mut Vec<String>) -> u64 {
        let mut failed = 0;
        let mut keys: Vec<_> = w.outcomes.keys().copied().collect();
        keys.sort_unstable();
        for (ci, db, h) in keys {
            let c = &setup.classes[ci];
            let sql = &w.texts[&h];
            let expected = match c.expect_error {
                // The session cap rejects before the engine sees the
                // text; no strategy can produce this outcome itself.
                Some(class @ "StatementTooLarge") => Outcome::Error(class.to_string()),
                _ => {
                    let rs = reference_strategy(setup.kind, c);
                    self.cache
                        .entry((h, db, rs.to_string()))
                        .or_insert_with(|| {
                            let res = setup.dbs[db].run_governed(sql, rs, &RunLimits::default());
                            Outcome::of(&res.map(|(rel, _)| rel))
                        })
                        .clone()
                }
            };
            let declared_ok = c
                .expect_error
                .is_none_or(|e| expected == Outcome::Error(e.to_string()));
            for (outcome, n) in &w.outcomes[&(ci, db, h)] {
                if *outcome != expected || !declared_ok {
                    failed += n;
                    notes.push(format!(
                        "{}: got {} x{n}, expected {}{}",
                        c.name,
                        outcome.render(),
                        expected.render(),
                        c.expect_error
                            .map(|e| format!(" (declared error {e})"))
                            .unwrap_or_default()
                    ));
                }
            }
        }
        failed + w.count_mismatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(slices: &[(usize, f64)]) -> Window {
        Window {
            slices: slices
                .iter()
                .map(|&(stmts, cpu_s)| Slice {
                    stmts,
                    secs: 1.0,
                    cpu_s,
                })
                .collect(),
            ..Window::default()
        }
    }

    #[test]
    fn a_stall_lowers_the_rate_but_not_cpu_per_statement() {
        let steady = window(&[(100, 1.0), (100, 1.0), (100, 1.0)]);
        assert_eq!(steady.rate(), 100.0);
        // One statement runs for two whole slices.
        let stalled = window(&[(100, 1.0), (0, 1.0), (1, 1.0), (0, 1.0)]);
        assert_eq!(stalled.rate(), 0.5);
        assert_eq!(stalled.cpu_ms_per_stmt(), 505.0);
        assert_eq!(steady.cpu_ms_per_stmt(), 10.0);
    }
}

//! The traced run's per-layer figures: a layer pass that times each
//! layer's public entry point per statement class, and the analysis of
//! the spans the engine records while tracing is on.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use bypass_core::{
    Catalog, Database, ExecObservation, LogicalPlan, MetricsHub, RunLimits, Strategy,
};
use bypass_exec::{physical_plan, ExecContext, NodeMetrics, PhysNode};
use bypass_trace::{ArgValue, Event};

use crate::run::Setup;
use crate::stats::median;

/// Operators whose self time the ledger reports: metric label and
/// EXPLAIN name.
pub const OPERATORS: [(&str, &str); 10] = [
    ("HashAggregate", "HashAggregate"),
    ("HashOuterJoin", "HashOuterJoin"),
    ("HashJoin", "HashJoin"),
    ("BypassFilter", "BypassFilter"),
    ("NLJoin", "NLJoin"),
    ("Map", "Map"),
    ("Distinct", "Distinct"),
    ("Filter", "Filter"),
    ("Scan", "Scan"),
    ("BinaryGroupEq", "BinaryGroup(eq)"),
];

/// One class's timings (µs) and exact execution figures from one
/// layer-pass repetition.
#[derive(Debug, Clone, Default)]
pub struct ClassLayers {
    /// `Database::logical_plan`: parse + translate.
    pub logical_us: f64,
    /// Cost-based choice (if any) + `Strategy::prepare`.
    pub unnest_us: f64,
    /// `physical_plan`.
    pub plan_us: f64,
    /// `ExecContext::eval_plan`.
    pub exec_us: f64,
    /// `MetricsHub::record_execution` on a private hub.
    pub record_us: f64,
    /// The same statement end to end through `Database::run_governed`
    /// under the measured strategy (cost-based choice included).
    pub wall_us: f64,
    /// Self time per reported operator (µs).
    pub op_self_us: BTreeMap<&'static str, f64>,
    pub plan_nodes: u64,
    pub logical_nodes: u64,
    pub operator_rows: u64,
    pub output_rows: u64,
    pub subplan_calls: u64,
    pub checkpoints: u64,
    pub peak_bytes: u64,
    pub memo_hits: u64,
    pub memo_probes: u64,
    pub disjunct_evals: u64,
    pub disjunct_hits: u64,
    pub pos_rows: u64,
    pub neg_rows: u64,
}

/// Catalog statistics for the cost-based choice, read through the
/// catalog's public table API.
struct Stats<'a>(&'a Catalog);

impl bypass_unnest::cost::StatsSource for Stats<'_> {
    fn table_rows(&self, table: &str) -> Option<f64> {
        self.0.get(table).ok().map(|t| t.row_count() as f64)
    }

    fn column_distinct(&self, table: &str, column: &str) -> Option<f64> {
        let t = self.0.get(table).ok()?;
        let idx = t.schema().find(None, column)?;
        t.stats().columns.get(idx).map(|c| c.distinct as f64)
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn count_logical(plan: &Arc<LogicalPlan>) -> u64 {
    1 + plan.children().into_iter().map(count_logical).sum::<u64>()
}

/// Every distinct node of a physical plan, nested subplans included,
/// and the set of subplan roots.
fn walk(root: &Arc<PhysNode>) -> (Vec<&Arc<PhysNode>>, HashSet<usize>) {
    let mut seen = HashSet::new();
    let mut subplan_roots = HashSet::new();
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        if !seen.insert(Arc::as_ptr(n) as usize) {
            continue;
        }
        out.push(n);
        stack.extend(n.children());
        for sub in n.expr_subplans() {
            subplan_roots.insert(Arc::as_ptr(sub) as usize);
            stack.push(sub);
        }
    }
    (out, subplan_roots)
}

/// Time one statement class through each layer's public entry point.
/// `None` when the statement does not plan or run (error templates).
fn time_class(
    db: &Database,
    sql: &str,
    strategy: Strategy,
    hub: &MetricsHub,
) -> Option<ClassLayers> {
    // Run the statement once untimed, so the layered calls below and the
    // timed end-to-end run at the end both follow a run of the same
    // statement: otherwise whichever comes first pays for cold caches.
    db.run_governed(sql, strategy, &RunLimits::default()).ok()?;
    let mut l = ClassLayers::default();
    let t = Instant::now();
    let canonical = db.logical_plan(sql).ok()?;
    l.logical_us = us(t);

    let t = Instant::now();
    let measured = strategy;
    let strategy = match strategy {
        Strategy::CostBased => {
            Strategy::choose_by_cost(&canonical, &Stats(db.catalog()))
                .ok()?
                .0
        }
        s => s,
    };
    let logical = strategy.prepare(&canonical).ok()?;
    l.unnest_us = us(t);
    bypass_unnest::take_outcomes();
    l.logical_nodes = count_logical(&logical);

    let t = Instant::now();
    let physical = physical_plan(&logical, db.catalog()).ok()?;
    l.plan_us = us(t);

    let t = Instant::now();
    let mut ctx = ExecContext::new(strategy.exec_options());
    let rel = ctx.eval_plan(&physical).ok()?;
    l.exec_us = us(t);
    let counters = ctx.counters();
    drop(ctx);
    // Operator figures come from a second, profiled run: per-operator
    // timing would inflate the execute time measured above.
    let mut profiled = ExecContext::new(strategy.exec_options()).with_metrics();
    profiled.eval_plan(&physical).ok()?;
    let metrics: HashMap<usize, NodeMetrics> = profiled.take_metrics();

    let obs = ExecObservation {
        fingerprint: 0,
        sql: sql.to_string(),
        strategy: strategy.to_string(),
        total_nanos: (l.exec_us * 1e3) as u64,
        rows: rel.len() as u64,
        peak_memory_bytes: counters.peak_memory_bytes,
        checkpoints: counters.checkpoints,
        disjunct_evals: counters.disjunct_evals,
        disjunct_hits: counters.disjunct_hits,
        ..ExecObservation::default()
    };
    let t = Instant::now();
    hub.record_execution(&obs);
    l.record_us = us(t);

    let t = Instant::now();
    db.run_governed(sql, measured, &RunLimits::default()).ok()?;
    l.wall_us = us(t);

    let root = Arc::as_ptr(&physical) as usize;
    let (nodes, subplan_roots) = walk(&physical);
    l.plan_nodes = nodes.len() as u64;
    for n in nodes {
        let key = Arc::as_ptr(n) as usize;
        let Some(m) = metrics.get(&key) else { continue };
        if let Some((label, _)) = OPERATORS.iter().find(|(_, name)| *name == n.name()) {
            *l.op_self_us.entry(label).or_default() += m.self_nanos as f64 / 1e3;
        }
        if key != root {
            l.operator_rows += m.rows;
        }
        if subplan_roots.contains(&key) {
            l.subplan_calls += m.calls;
        }
        l.pos_rows += m.pos_rows;
        l.neg_rows += m.neg_rows;
    }
    l.output_rows = rel.len() as u64;
    l.checkpoints = counters.checkpoints;
    l.peak_bytes = counters.peak_memory_bytes;
    l.memo_hits = counters.memo_uncorr_hits + counters.memo_corr_hits;
    l.memo_probes = l.memo_hits + counters.memo_uncorr_misses + counters.memo_corr_misses;
    l.disjunct_evals = counters.disjunct_evals;
    l.disjunct_hits = counters.disjunct_hits;
    Some(l)
}

/// Invocations of nested subplan roots when `sql` runs under `strategy`
/// on `db`, from a profiled run. `None` when the statement fails.
pub fn subplan_calls(db: &Database, sql: &str, strategy: Strategy) -> Option<u64> {
    let logical = strategy.prepare(&db.logical_plan(sql).ok()?).ok()?;
    let physical = physical_plan(&logical, db.catalog()).ok()?;
    let mut ctx = ExecContext::new(strategy.exec_options()).with_metrics();
    ctx.eval_plan(&physical).ok()?;
    let metrics = ctx.take_metrics();
    let (_, subplan_roots) = walk(&physical);
    Some(
        subplan_roots
            .iter()
            .filter_map(|root| metrics.get(root))
            .map(|m| m.calls)
            .sum(),
    )
}

/// Repetitions of the layer pass: at least this many, and more until
/// the pass has run for [`PASS_MIN_S`] seconds.
const PASS_MIN_REPS: usize = 3;
const PASS_MAX_REPS: usize = 50;
const PASS_MIN_S: f64 = 4.0;

/// Run every class through the layers repeatedly; per class, each
/// timing is the median over repetitions (counts repeat exactly).
pub fn layer_pass(setup: &Setup) -> Vec<Option<ClassLayers>> {
    let hub = MetricsHub::new();
    let start = Instant::now();
    let mut reps: Vec<Vec<Option<ClassLayers>>> = Vec::new();
    while reps.len() < PASS_MIN_REPS
        || (start.elapsed().as_secs_f64() < PASS_MIN_S && reps.len() < PASS_MAX_REPS)
    {
        reps.push(
            setup
                .classes
                .iter()
                .map(|c| time_class(&setup.dbs[c.dbs[0]], &c.sql, c.strategy, &hub))
                .collect(),
        );
    }
    (0..setup.classes.len())
        .map(|i| {
            let runs: Vec<&ClassLayers> = reps.iter().filter_map(|r| r[i].as_ref()).collect();
            let first = (*runs.first()?).clone();
            let med = |f: fn(&ClassLayers) -> f64| {
                median(&runs.iter().map(|l| f(l)).collect::<Vec<_>>()).unwrap_or(0.0)
            };
            let op_self_us = first
                .op_self_us
                .keys()
                .map(|&k| {
                    let v: Vec<f64> = runs
                        .iter()
                        .map(|l| l.op_self_us.get(k).copied().unwrap_or(0.0))
                        .collect();
                    (k, median(&v).unwrap_or(0.0))
                })
                .collect();
            Some(ClassLayers {
                logical_us: med(|l| l.logical_us),
                unnest_us: med(|l| l.unnest_us),
                plan_us: med(|l| l.plan_us),
                exec_us: med(|l| l.exec_us),
                record_us: med(|l| l.record_us),
                wall_us: med(|l| l.wall_us),
                op_self_us,
                ..first
            })
        })
        .collect()
}

/// Span totals by name over one traced window.
#[derive(Debug, Default)]
pub struct SpanSummary {
    pub count: HashMap<String, u64>,
    pub total_us: HashMap<String, f64>,
    pub self_us: HashMap<String, f64>,
    /// Durations of `service.admit` spans (ms): time waiting for a slot.
    pub admit_wait_ms: Vec<f64>,
    pub attach_attempts: u64,
    pub attach_fired: u64,
}

/// Fold complete (`X`) span events into per-name totals and self times.
/// A span's self time is its duration minus its direct children's;
/// spans nest per thread, and a child sits one level deeper.
pub fn summarize(events: &[Event]) -> SpanSummary {
    let mut s = SpanSummary::default();
    let mut by_tid: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.phase == 'X') {
        by_tid.entry(e.tid).or_default().push(e);
    }
    for spans in by_tid.values_mut() {
        spans.sort_by_key(|e| (e.ts_us, e.depth));
        let mut child_us = vec![0f64; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, e) in spans.iter().enumerate() {
            while stack.last().is_some_and(|&p| spans[p].depth >= e.depth) {
                stack.pop();
            }
            if let Some(&p) = stack.last() {
                if spans[p].depth + 1 == e.depth {
                    child_us[p] += e.dur_us as f64;
                }
            }
            stack.push(i);
        }
        for (i, e) in spans.iter().enumerate() {
            let dur = e.dur_us as f64;
            *s.count.entry(e.name.clone()).or_default() += 1;
            *s.total_us.entry(e.name.clone()).or_default() += dur;
            *s.self_us.entry(e.name.clone()).or_default() += (dur - child_us[i]).max(0.0);
            match e.name.as_str() {
                "service.admit" => s.admit_wait_ms.push(dur / 1e3),
                "unnest.attach" => {
                    s.attach_attempts += 1;
                    let fired = e.args.iter().any(|(k, v)| {
                        k == "outcome"
                            && matches!(v, ArgValue::Str(o) if !o.starts_with("rejected"))
                    });
                    s.attach_fired += fired as u64;
                }
                _ => {}
            }
        }
    }
    s
}

impl SpanSummary {
    pub fn count(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }

    pub fn total_us(&self, name: &str) -> f64 {
        self.total_us.get(name).copied().unwrap_or(0.0)
    }

    pub fn self_us(&self, name: &str) -> f64 {
        self.self_us.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, ts: u64, dur: u64, depth: u32) -> Event {
        Event {
            name: name.into(),
            phase: 'X',
            ts_us: ts,
            dur_us: dur,
            tid: 1,
            depth,
            args: vec![],
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let events = vec![
            span("outer", 0, 100, 0),
            // Starts at the same microsecond as its parent.
            span("mid", 0, 60, 1),
            span("leaf", 10, 20, 2),
            span("mid", 70, 20, 1),
            span("outer", 200, 10, 0),
        ];
        let s = summarize(&events);
        assert_eq!(s.count("outer"), 2);
        assert_eq!(s.self_us("outer"), 100.0 - 80.0 + 10.0);
        assert_eq!(s.self_us("mid"), 40.0 + 20.0);
        assert_eq!(s.self_us("leaf"), 20.0);
        assert_eq!(s.total_us("mid"), 80.0);
    }

    #[test]
    fn attach_outcomes_split_fired_from_rejected() {
        let mut fired = span("unnest.attach", 0, 1, 0);
        fired.args = vec![("outcome".into(), ArgValue::Str("eqv1:gamma".into()))];
        let mut rejected = span("unnest.attach", 5, 1, 0);
        rejected.args = vec![("outcome".into(), ArgValue::Str("rejected:x".into()))];
        let s = summarize(&[fired, rejected]);
        assert_eq!((s.attach_fired, s.attach_attempts), (1, 2));
    }
}

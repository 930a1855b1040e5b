//! The repository benchmark ("perf ledger").
//!
//! ```text
//! cargo run --release --manifest-path perf_ledger/Cargo.toml -- \
//!     --workload unnested_sf1 --seed 1 --seconds 15 --trace 0
//! cargo run --release --manifest-path perf_ledger/Cargo.toml -- \
//!     --compare perf_ledger/out/a.tsv perf_ledger/out/b.tsv
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` measures the per-layer metrics (an untraced and a traced
//! half window plus a layer pass). Every run checks each statement's
//! outcome against a reference strategy, prints every metric with its
//! unit, writes a host-stamped ledger file under `perf_ledger/out/`,
//! and ends with one JSON line: `correct`, `attempted`, `failed`,
//! `metrics`. See `perf_ledger/README.md`.

mod host;
mod layers;
mod outcome;
mod run;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use host::{HostStamp, Ledger, OUT_DIR};
use layers::{layer_pass, summarize, ClassLayers, SpanSummary, OPERATORS};
use run::{measure, setup, References, Setup, Window};
use stats::{geomean, median, percentile, sorted};
use workload::Kind;

/// Set-ups per run: at least 3, and more (up to 25) until they have
/// taken 2 s; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_MIN_S: f64 = 2.0;

/// Per-thread trace ring capacity for the traced window (events).
const TRACE_CAPACITY: usize = 1 << 20;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        kv.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or(format!("missing {k}"));
    let kind = Kind::parse(get("--workload")?)
        .ok_or("unknown --workload (unnested_sf1 | fig7_grid | adhoc_service)")?;
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        kind,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// Metrics of one run, in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.as_slice() {
            [_, a, b] => match host::compare(Path::new(a), Path::new(b)) {
                Ok((report, counts_equal)) => {
                    print!("{report}");
                    if counts_equal {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("usage: --compare <ledger-a> <ledger-b>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            eprintln!(
                "usage: --workload <unnested_sf1|fig7_grid|adhoc_service> --seed <n> \
                 --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    run_benchmark(&args)
}

fn run_benchmark(args: &Args) -> ExitCode {
    let host = HostStamp::current();
    println!(
        "perf_ledger {} seed={} seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    for (k, v) in host.lines() {
        println!("  host.{k}: {v}");
    }

    // Set-up, several times; the last instance is measured.
    let mut notes = Vec::new();
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let mut current: Option<Setup> = None;
    let mut reps_agree = true;
    let started = std::time::Instant::now();
    while setups.len() < SETUP_MIN_REPS
        || (started.elapsed().as_secs_f64() < SETUP_MIN_S && setups.len() < SETUP_MAX_REPS)
    {
        let previous = current.take().map(|s| s.counts);
        let s = setup(args.kind, args.seed);
        if previous.is_some_and(|p| p != s.counts) {
            reps_agree = false;
            notes.push("exact counts differ between set-ups of one run".to_string());
        }
        setups.push((s.datagen_s, s.warmup_s));
        current = Some(s);
    }
    let setup = current.expect("at least one set-up");
    let datagen_s = median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()).unwrap_or(0.0);
    let warmup_s = median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()).unwrap_or(0.0);
    let setup_s = median(&setups.iter().map(|s| s.0 + s.1).collect::<Vec<_>>()).unwrap_or(0.0);

    let snapshot = count_snapshot(&setup);
    let counts_ok = check_snapshot(args, &host, &snapshot, &mut notes) && reps_agree;

    let mut refs = References::default();
    let budget = Duration::from_secs(args.seconds);
    let mut metrics = Metrics::default();
    let mut claims_hold = true;
    let (attempted, failed) = if args.trace {
        traced_run(
            args,
            &setup,
            budget,
            &mut refs,
            &mut metrics,
            &mut notes,
            &mut claims_hold,
            datagen_s,
            warmup_s,
        )
    } else {
        let w = measure(&setup, budget);
        let peak_rss = host::peak_rss_mb();
        let failed = refs.check(&setup, &w, &mut notes);
        end_to_end(&setup, &w, setup_s, peak_rss, &mut metrics);
        print_latency_detail(&setup, &w);
        (w.statements() as u64, failed)
    };

    let correct = failed == 0 && counts_ok && claims_hold;
    println!("checks: {attempted} statements, {failed} not as expected");
    println!(
        "  failed_frac: {} (fraction)",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "  exact-count snapshot: {}",
        if counts_ok { "repeats" } else { "DIFFERS" }
    );
    if !claims_hold {
        println!("  a claim of the traced run does not hold");
    }
    notes.sort();
    notes.dedup();
    for n in notes.iter().take(20) {
        println!("  note: {n}");
    }
    println!("metrics:");
    for (name, value, unit) in &metrics.0 {
        println!("  {name:44} {value:>16.6} {unit}");
    }

    let ledger = Ledger {
        host: host.lines(),
        metrics: metrics
            .0
            .iter()
            .map(|(n, v, u)| (n.clone(), *v, u.to_string()))
            .collect(),
        counts: snapshot,
    };
    let file = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.tsv",
        args.kind.name(),
        args.seed,
        args.trace as u8
    );
    match std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&file, ledger.render())) {
        Ok(()) => println!("ledger: {file}"),
        Err(e) => println!("ledger not written: {e}"),
    }

    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The exact-count snapshot of the warm-up pass, one line per class
/// and counter.
fn count_snapshot(setup: &Setup) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (c, per_db) in setup.classes.iter().zip(&setup.counts) {
        for (&db, counts) in c.dbs.iter().zip(per_db) {
            let key = format!("{}@db{db}", c.name);
            match counts {
                Some(counts) => {
                    for (field, v) in counts.fields() {
                        out.push((format!("{key}.{field}"), v));
                    }
                }
                None => out.push((format!("{key}.error"), 1)),
            }
        }
    }
    out
}

/// Compare the snapshot with the one an earlier run of this binary on
/// the same workload and seed left behind (or leave one).
fn check_snapshot(
    args: &Args,
    host: &HostStamp,
    snapshot: &[(String, u64)],
    notes: &mut Vec<String>,
) -> bool {
    let file = format!(
        "{OUT_DIR}/counts-{}-seed{}-{}.tsv",
        args.kind.name(),
        args.seed,
        host.binary
    );
    let text: String = snapshot
        .iter()
        .map(|(k, v)| format!("{k}\t{v}\n"))
        .collect();
    match std::fs::read_to_string(&file) {
        Ok(previous) if previous == text => true,
        Ok(_) => {
            notes.push(format!("exact counts differ from {file}"));
            false
        }
        Err(_) => {
            let _ = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&file, text));
            true
        }
    }
}

/// Median latency (ms) of each class that ran, by class index.
fn class_medians(setup: &Setup, w: &Window) -> Vec<Option<f64>> {
    (0..setup.classes.len())
        .map(|i| {
            let v: Vec<f64> = w.samples.iter().filter(|s| s.0 == i).map(|s| s.1).collect();
            median(&v)
        })
        .collect()
}

fn end_to_end(setup: &Setup, w: &Window, setup_s: f64, peak_rss: f64, m: &mut Metrics) {
    let lat = sorted(&w.samples.iter().map(|s| s.1).collect::<Vec<_>>());
    let medians: Vec<f64> = class_medians(setup, w).into_iter().flatten().collect();
    m.put("setup_s", setup_s, "s");
    m.put("stmts_per_s", w.rate(), "1/s");
    m.put("query_geomean_ms", geomean(&medians).unwrap_or(0.0), "ms");
    m.put("latency_p50_ms", percentile(&lat, 0.5).unwrap_or(0.0), "ms");
    m.put("latency_p90_ms", percentile(&lat, 0.9).unwrap_or(0.0), "ms");
    m.put("peak_rss_mb", peak_rss, "MB");
    m.put("cpu_ms_per_stmt", w.cpu_ms_per_stmt(), "ms");
}

fn print_latency_detail(setup: &Setup, w: &Window) {
    let lat = sorted(&w.samples.iter().map(|s| s.1).collect::<Vec<_>>());
    println!(
        "latency: {} samples over {:.2} s, p99 {}",
        lat.len(),
        w.elapsed_s,
        percentile(&lat, 0.99).map_or("not reported (< 1000 samples)".into(), |v| format!(
            "{v:.4} ms"
        ))
    );
    let rates: Vec<String> = w
        .slices
        .iter()
        .map(|s| format!("{:.1}", s.stmts as f64 / s.secs))
        .collect();
    println!("  statements/s per slice: {}", rates.join(" "));
    for (i, (c, med)) in setup
        .classes
        .iter()
        .zip(class_medians(setup, w))
        .enumerate()
    {
        let n = w.samples.iter().filter(|s| s.0 == i).count();
        if let Some(med) = med {
            println!("  class {:28} p50 {med:>12.4} ms  n={n}", c.name);
        }
    }
}

/// Weighted per-statement mean of a per-class figure over the classes
/// that ran through the layer pass.
fn mix_mean(setup: &Setup, layers: &[Option<ClassLayers>], f: impl Fn(&ClassLayers) -> f64) -> f64 {
    let (mut sum, mut weight) = (0.0, 0.0);
    for (c, l) in setup.classes.iter().zip(layers) {
        if let Some(l) = l {
            sum += c.weight * f(l);
            weight += c.weight;
        }
    }
    if weight > 0.0 {
        sum / weight
    } else {
        0.0
    }
}

#[allow(clippy::too_many_arguments)]
fn traced_run(
    args: &Args,
    setup: &Setup,
    budget: Duration,
    refs: &mut References,
    m: &mut Metrics,
    notes: &mut Vec<String>,
    claims_hold: &mut bool,
    datagen_s: f64,
    warmup_s: f64,
) -> (u64, u64) {
    let half = budget / 2;
    let plain = measure(setup, half);
    bypass_trace::set_capacity(TRACE_CAPACITY);
    bypass_trace::clear();
    bypass_trace::set_enabled(true);
    let traced = measure(setup, half);
    bypass_trace::set_enabled(false);
    let dropped = bypass_trace::dropped_events();
    let events = bypass_trace::take_events();
    let trace_file = format!(
        "{OUT_DIR}/trace-{}-seed{}.json",
        args.kind.name(),
        args.seed
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| std::fs::write(&trace_file, bypass_trace::export_chrome(&events)));
    println!(
        "trace: {} events ({dropped} dropped) -> {}",
        events.len(),
        if written.is_ok() {
            trace_file.as_str()
        } else {
            "not written"
        }
    );
    let spans = summarize(&events);
    drop(events);

    let failed = refs.check(setup, &plain, notes) + refs.check(setup, &traced, notes);
    let attempted = (plain.statements() + traced.statements()) as u64;
    let layers = layer_pass(setup);
    per_layer(
        setup, &plain, &traced, &spans, &layers, m, datagen_s, warmup_s,
    );
    *claims_hold = claims(args.kind, setup, &layers, m);
    (attempted, failed)
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    setup: &Setup,
    plain: &Window,
    traced: &Window,
    spans: &SpanSummary,
    layers: &[Option<ClassLayers>],
    m: &mut Metrics,
    datagen_s: f64,
    warmup_s: f64,
) {
    let mean = |f: &dyn Fn(&ClassLayers) -> f64| mix_mean(setup, layers, f);
    let sum = |f: &dyn Fn(&ClassLayers) -> u64| -> u64 { layers.iter().flatten().map(f).sum() };

    // Execute: operator self times and work counts.
    for (op, _) in OPERATORS {
        m.put(
            format!("exec.self_ms.{op}"),
            mean(&|l| l.op_self_us.get(op).copied().unwrap_or(0.0) / 1e3),
            "ms",
        );
    }
    let out_rows = sum(&|l| l.output_rows).max(1) as f64;
    m.put(
        "exec.rows_in_per_row_out",
        sum(&|l| l.operator_rows) as f64 / out_rows,
        "ratio",
    );
    m.put(
        "exec.subplan_calls",
        mean(&|l| l.subplan_calls as f64),
        "count",
    );
    m.put("exec.checkpoints", mean(&|l| l.checkpoints as f64), "count");
    let op_rows = sum(&|l| l.operator_rows + l.output_rows).max(1) as f64;
    m.put(
        "exec.checkpoints_per_row",
        sum(&|l| l.checkpoints) as f64 / op_rows,
        "ratio",
    );
    let probes = sum(&|l| l.memo_probes);
    m.put(
        "exec.memo_hit_ratio",
        if probes > 0 {
            sum(&|l| l.memo_hits) as f64 / probes as f64
        } else {
            0.0
        },
        "ratio",
    );
    m.put(
        "exec.peak_memory_bytes",
        layers
            .iter()
            .flatten()
            .map(|l| l.peak_bytes)
            .max()
            .unwrap_or(0) as f64,
        "bytes",
    );
    let traced_stmts = traced.statements().max(1) as f64;
    m.put(
        "exec.morsels",
        spans.count("exec.morsel") as f64 / traced_stmts,
        "count",
    );
    m.put("exec.ms", mean(&|l| l.exec_us / 1e3), "ms");
    m.put(
        "exec.disjunct_evals",
        mean(&|l| l.disjunct_evals as f64),
        "count",
    );
    let evals = sum(&|l| l.disjunct_evals);
    m.put(
        "exec.disjunct_hit_ratio",
        if evals > 0 {
            sum(&|l| l.disjunct_hits) as f64 / evals as f64
        } else {
            0.0
        },
        "ratio",
    );
    let split = sum(&|l| l.pos_rows + l.neg_rows);
    m.put(
        "exec.bypass_neg_frac",
        if split > 0 {
            sum(&|l| l.neg_rows) as f64 / split as f64
        } else {
            0.0
        },
        "ratio",
    );

    // Front half: parse and translate split by their spans.
    m.put(
        "sql.parse_us",
        spans.total_us("sql.parse") / traced_stmts,
        "us",
    );
    m.put(
        "translate.us",
        spans.total_us("translate.query") / traced_stmts,
        "us",
    );
    m.put("unnest.us", mean(&|l| l.unnest_us), "us");
    m.put(
        "unnest.fire_ratio",
        if spans.attach_attempts > 0 {
            spans.attach_fired as f64 / spans.attach_attempts as f64
        } else {
            0.0
        },
        "ratio",
    );
    m.put(
        "unnest.plan_nodes",
        mean(&|l| l.logical_nodes as f64),
        "count",
    );
    m.put("plan.us", mean(&|l| l.plan_us), "us");
    m.put("plan.nodes", mean(&|l| l.plan_nodes as f64), "count");
    let layered = |l: &ClassLayers| l.logical_us + l.unnest_us + l.plan_us + l.exec_us;
    m.put(
        "front.share_of_wall",
        mean(&|l| l.logical_us + l.unnest_us + l.plan_us) / mean(&|l| l.wall_us),
        "ratio",
    );
    m.put(
        "exec.share_of_wall",
        mean(&|l| l.exec_us) / mean(&|l| l.wall_us),
        "ratio",
    );

    // Metrics and facade glue.
    m.put("metrics.record_us", mean(&|l| l.record_us), "us");
    let db = &setup.dbs[0];
    let snaps: Vec<f64> = (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(db.metrics());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.put("metrics.snapshot_ms", median(&snaps).unwrap_or(0.0), "ms");
    m.put(
        "metrics.fingerprints",
        db.metrics_hub().query_table().len() as f64,
        "count",
    );
    m.put(
        "core.glue_us",
        mean(&|l| l.wall_us - layered(l) - l.record_us),
        "us",
    );

    // Service.
    let admit = sorted(&spans.admit_wait_ms);
    let pct = |p: f64| {
        percentile(&admit, p)
            .or_else(|| median(&admit))
            .unwrap_or(0.0)
    };
    m.put("service.admit_wait_ms.p50", pct(0.5), "ms");
    m.put("service.admit_wait_ms.p90", pct(0.9), "ms");
    let executes = spans.count("service.execute").max(1) as f64;
    m.put(
        "service.self_us",
        spans.self_us("service.execute") / executes,
        "us",
    );
    let svc = [&plain.service, &traced.service];
    let svc_sum = |f: fn(&bypass_service::CountersSnapshot) -> u64| -> f64 {
        svc.iter().filter_map(|s| s.as_ref()).map(f).sum::<u64>() as f64
    };
    m.put("service.admitted", svc_sum(|c| c.admitted), "count");
    m.put("service.completed", svc_sum(|c| c.completed), "count");
    m.put("service.shed", svc_sum(|c| c.shed), "count");
    m.put("service.retries", svc_sum(|c| c.retries), "count");
    m.put(
        "service.rejected",
        svc_sum(|c| c.oversized + c.quota_rejected + c.drain_rejected + c.admission_timeouts),
        "count",
    );
    let submitted = svc_sum(|c| c.submitted);
    m.put(
        "service.completed_per_submitted",
        if submitted > 0.0 {
            svc_sum(|c| c.completed) / submitted
        } else {
            0.0
        },
        "ratio",
    );

    // Set-up.
    m.put("setup.datagen_s", datagen_s, "s");
    m.put("setup.warmup_s", warmup_s, "s");

    // Class medians of the untraced half, and the paper's ratios.
    let medians = class_medians(setup, plain);
    let by_name: BTreeMap<&str, f64> = setup
        .classes
        .iter()
        .zip(&medians)
        .filter_map(|(c, m)| m.map(|m| (c.name.as_str(), m)))
        .collect();
    for name in class_names(setup.kind) {
        m.put(
            format!("class.{name}.p50_ms"),
            by_name.get(name.as_str()).copied().unwrap_or(0.0),
            "ms",
        );
    }
    // The paper's ratios need the nested-loop cells only `fig7_grid` runs.
    let paper_queries: &[&str] = if setup.kind == Kind::Fig7Grid {
        &PAPER_QUERIES
    } else {
        &[]
    };
    for q in paper_queries {
        for s in ["canonical", "s2"] {
            let ratio = match (
                by_name.get(format!("{q}.{s}").as_str()),
                by_name.get(format!("{q}.unnested").as_str()),
            ) {
                (Some(a), Some(b)) if *b > 0.0 => a / b,
                _ => 0.0,
            };
            m.put(format!("paper.{q}.{s}_over_unnested"), ratio, "ratio");
        }
    }
    m.put(
        "trace.overhead_frac",
        1.0 - traced.rate() / plain.rate(),
        "ratio",
    );
}

const PAPER_QUERIES: [&str; 6] = ["q1", "q2", "q3", "qexists", "qcombined", "q2d"];

/// The class names a traced run reports: those of every workload
/// `BENCHMARK.json` lists, so that each listed run reports the same
/// metrics (0 for classes it does not run), and those of the running
/// workload.
fn class_names(kind: Kind) -> Vec<String> {
    let mut names: Vec<String> = Kind::LISTED
        .iter()
        .chain([&kind])
        .flat_map(|&k| workload::classes(k, 0))
        .map(|c| c.name)
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Print whether the traced run bears out the reason each workload was
/// chosen for; returns whether every claim holds.
fn claims(kind: Kind, setup: &Setup, layers: &[Option<ClassLayers>], m: &Metrics) -> bool {
    let get = |name: &str| m.0.iter().find(|(n, _, _)| n == name).map_or(0.0, |x| x.1);
    let verdict = |ok: bool| if ok { "holds" } else { "DOES NOT HOLD" };
    let mut hold = true;
    match kind {
        Kind::UnnestedSf1 => {
            let share = get("exec.share_of_wall");
            hold &= share >= 0.9;
            println!(
                "claim: execute >= 90% of statement wall: {share:.3} {}",
                verdict(share >= 0.9)
            );
        }
        Kind::AdhocService => {
            let share = get("front.share_of_wall");
            hold &= share >= 0.2;
            println!(
                "claim: parse+translate+unnest+plan >= 20% of statement wall: {share:.3} {}",
                verdict(share >= 0.2)
            );
        }
        Kind::Fig7Grid => {
            // Summed over every database a cell runs against: on some
            // seeds no outer row of Q2d qualifies on one TPC-H instance,
            // and canonical then has no subplan to call there.
            let canonical: Vec<(String, u64)> = setup
                .classes
                .iter()
                .filter(|c| c.strategy == bypass_core::Strategy::Canonical)
                .map(|c| {
                    let calls = c
                        .dbs
                        .iter()
                        .filter_map(|&db| layers::subplan_calls(&setup.dbs[db], &c.sql, c.strategy))
                        .sum();
                    (c.name.clone(), calls)
                })
                .collect();
            let all_positive = canonical.iter().all(|(_, n)| *n > 0);
            hold &= all_positive;
            println!(
                "claim: subplan calls > 0 on every canonical cell: {}",
                verdict(all_positive)
            );
            for (name, n) in canonical {
                println!("  {name}: {n} subplan calls");
            }
            let top = setup
                .classes
                .iter()
                .zip(layers)
                .filter_map(|(c, l)| l.as_ref().map(|l| (l.peak_bytes, c.name.clone())))
                .max();
            let q4_top = top.as_ref().is_some_and(|(_, name)| name == "q4.unnested");
            hold &= q4_top;
            if let Some((bytes, name)) = top {
                println!(
                    "claim: q4.unnested has the largest governor peak: {name} at {bytes} bytes {}",
                    verdict(q4_top)
                );
            }
        }
    }
    println!(
        "claim: trace.overhead_frac reported: {:.4}",
        get("trace.overhead_frac")
    );
    hold
}

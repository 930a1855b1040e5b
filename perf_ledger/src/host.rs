//! Host stamp, process resource readings and the ledger file.
//!
//! Every run writes one ledger file: a tab-separated list of
//! `kind<TAB>name<TAB>value[<TAB>unit]` lines. `host` lines identify the
//! machine and build, `metric` lines hold the reported figures, `count`
//! lines the exact-count snapshot. [`compare`] diffs two ledgers: counts
//! always, timings only when both files come from the same host.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// Where runs leave their ledgers, traces and count snapshots.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Identity of the machine and build a run measured.
#[derive(Debug, Clone)]
pub struct HostStamp {
    pub cpu: String,
    pub cores: usize,
    pub rustc: &'static str,
    pub commit: &'static str,
    /// FNV-1a 64 of this executable: two runs with the same value ran
    /// the same code.
    pub binary: String,
}

impl HostStamp {
    pub fn current() -> HostStamp {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let binary = std::env::current_exe()
            .and_then(std::fs::read)
            .map(|bytes| format!("{:016x}", fnv64(&bytes)))
            .unwrap_or_else(|_| "unknown".to_string());
        HostStamp {
            cpu,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("LEDGER_RUSTC"),
            commit: env!("LEDGER_COMMIT"),
            binary,
        }
    }

    pub fn lines(&self) -> Vec<(String, String)> {
        vec![
            ("cpu".into(), self.cpu.clone()),
            ("cores".into(), self.cores.to_string()),
            ("rustc".into(), self.rustc.to_string()),
            ("commit".into(), self.commit.to_string()),
            ("binary".into(), self.binary.clone()),
        ]
    }
}

pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// User + system CPU time of the whole process (all threads, live and
/// exited), from `/proc/self/stat` in clock ticks of 10 ms.
pub fn process_cpu() -> Duration {
    const TICKS_PER_SEC: u64 = 100;
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = stat.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
        })
        .unwrap_or(0);
    Duration::from_millis(ticks * 1000 / TICKS_PER_SEC)
}

/// Peak resident set size of the process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One run's ledger: host stamp, metrics and exact counts.
#[derive(Debug, Default)]
pub struct Ledger {
    pub host: Vec<(String, String)>,
    pub metrics: Vec<(String, f64, String)>,
    pub counts: Vec<(String, u64)>,
}

impl Ledger {
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.host {
            out.push_str(&format!("host\t{k}\t{v}\n"));
        }
        for (k, v, unit) in &self.metrics {
            out.push_str(&format!("metric\t{k}\t{v}\t{unit}\n"));
        }
        for (k, v) in &self.counts {
            out.push_str(&format!("count\t{k}\t{v}\n"));
        }
        out
    }

    pub fn parse(text: &str) -> Ledger {
        let mut ledger = Ledger::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["host", k, v] => ledger.host.push((k.to_string(), v.to_string())),
                ["metric", k, v, unit] => {
                    if let Ok(v) = v.parse() {
                        ledger.metrics.push((k.to_string(), v, unit.to_string()));
                    }
                }
                ["count", k, v] => {
                    if let Ok(v) = v.parse() {
                        ledger.counts.push((k.to_string(), v));
                    }
                }
                _ => {}
            }
        }
        ledger
    }

    fn host_value(&self, key: &str) -> Option<&str> {
        self.host
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn machine_key(&self) -> String {
        ["cpu", "cores", "rustc"]
            .iter()
            .map(|k| self.host_value(k).unwrap_or("?"))
            .collect::<Vec<_>>()
            .join(" / ")
    }
}

/// Diff two ledger files; see [`compare_ledgers`].
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map(|t| Ledger::parse(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    Ok(compare_ledgers(&read(a)?, &read(b)?))
}

/// Counts are compared on any pair of hosts; timings only when CPU
/// model, core count and compiler all match. Returns the report and
/// whether every shared count is identical.
pub fn compare_ledgers(la: &Ledger, lb: &Ledger) -> (String, bool) {
    let mut out = String::new();
    let same_host = la.machine_key() == lb.machine_key();
    let counts_a: BTreeMap<_, _> = la.counts.iter().cloned().collect();
    let counts_b: BTreeMap<_, _> = lb.counts.iter().cloned().collect();
    let mut counts_equal = true;
    let mut shared = 0usize;
    for (k, va) in &counts_a {
        if let Some(vb) = counts_b.get(k) {
            shared += 1;
            if va != vb {
                counts_equal = false;
                out.push_str(&format!("count differs  {k}: {va} -> {vb}\n"));
            }
        }
    }
    out.push_str(&format!(
        "counts: {shared} shared, {}\n",
        if counts_equal {
            "all identical"
        } else {
            "DIFFER"
        }
    ));
    if same_host {
        let metrics_b: BTreeMap<_, _> = lb.metrics.iter().map(|(k, v, _)| (k, *v)).collect();
        for (k, va, _) in &la.metrics {
            if let Some(vb) = metrics_b.get(k) {
                let delta = if *va != 0.0 {
                    (vb - va) / va.abs() * 100.0
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "metric {k:40} {va:>14.4} -> {vb:>14.4} ({delta:+.1}%)\n"
                ));
            }
        }
    } else {
        out.push_str(&format!(
            "timings not compared: different hosts\n  a: {}\n  b: {}\n",
            la.machine_key(),
            lb.machine_key()
        ));
    }
    (out, counts_equal)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(cpu: &str, metric: f64, count: u64) -> String {
        Ledger {
            host: vec![
                ("cpu".into(), cpu.into()),
                ("cores".into(), "2".into()),
                ("rustc".into(), "rustc 1.0".into()),
            ],
            metrics: vec![("stmts_per_s".into(), metric, "1/s".into())],
            counts: vec![("q1.checkpoints".into(), count)],
        }
        .render()
    }

    fn compare_texts(a: &str, b: &str) -> (String, bool) {
        compare_ledgers(&Ledger::parse(a), &Ledger::parse(b))
    }

    #[test]
    fn timings_compare_only_on_the_same_host() {
        let (same, ok) = compare_texts(&ledger("cpu A", 10.0, 5), &ledger("cpu A", 12.0, 5));
        assert!(ok);
        assert!(same.contains("stmts_per_s"), "{same}");
        let (cross, ok) = compare_texts(&ledger("cpu A", 10.0, 5), &ledger("cpu B", 12.0, 5));
        assert!(ok);
        assert!(!cross.contains("stmts_per_s"), "{cross}");
        assert!(cross.contains("timings not compared"));
    }

    #[test]
    fn counts_compare_across_hosts() {
        let (report, ok) = compare_texts(&ledger("cpu A", 10.0, 5), &ledger("cpu B", 10.0, 6));
        assert!(!ok);
        assert!(report.contains("q1.checkpoints: 5 -> 6"), "{report}");
    }

    #[test]
    fn ledger_round_trips() {
        let text = ledger("cpu A", 1.5, 7);
        assert_eq!(Ledger::parse(&text).render(), text);
    }
}

//! One run's results: metrics by catalogue name, the operation and
//! failure counts, the machine fingerprint — printed for people, and as
//! the one-line JSON the driver and `--compare` read.

use crate::spec::{metric_def, MetricDef};
use crate::stats;
use hdoms_serve::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One measured value with how it was obtained.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub def: MetricDef,
    pub value: f64,
    /// Samples behind the value (passes, requests, repetitions).
    pub samples: usize,
    /// `measured`, `derived`, `computed`, `program-reported`, `simulated`…
    pub how: &'static str,
}

/// Everything one `bench_suite --workload` run found out.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Measured>,
    /// Operations issued (queries searched, requests sent) and how many
    /// of them failed, were refused, or produced a wrong output.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates that did not hold, in words.
    pub gate_failures: Vec<String>,
    /// `key=value` facts about the box and the inputs.
    pub fingerprint: Vec<(String, String)>,
}

impl Report {
    /// Record `value` under catalogue name `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name the catalogue does not have, or one recorded
    /// twice — both are harness bugs.
    pub fn put(&mut self, name: &str, value: f64, samples: usize, how: &'static str) {
        let def = metric_def(name).unwrap_or_else(|| panic!("metric {name} is not catalogued"));
        assert!(
            self.get(name).is_none(),
            "metric {name} was recorded twice in one run"
        );
        self.metrics.push(Measured {
            def,
            value,
            samples,
            how,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.def.name == name)
            .map(|m| m.value)
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.fingerprint.push((key.to_owned(), value.to_string()));
    }

    /// Count `operations` attempted, `failed` of them failed.
    pub fn count(&mut self, operations: u64, failed: u64) {
        self.attempted += operations;
        self.failed += failed;
    }

    /// A correctness gate: when `holds` is false the run is incorrect and
    /// `operations` are counted as failed.
    pub fn gate(&mut self, holds: bool, operations: u64, what: impl FnOnce() -> String) {
        if !holds {
            self.failed += operations.max(1);
            self.gate_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gate_failures.is_empty()
    }

    /// The report for people: fingerprint, then every metric by name
    /// with unit, sample count and provenance.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("== {title} ==\n");
        for (key, value) in &self.fingerprint {
            let _ = writeln!(out, "  {key:<28} {value}");
        }
        for m in &self.metrics {
            // Four decimals, unless that would print a small value as 0.
            let value = if m.value != 0.0 && m.value.abs() < 1e-3 {
                format!("{:.3e}", m.value)
            } else {
                format!("{:.4}", m.value)
            };
            let _ = writeln!(
                out,
                "  {:<40} {value:>16} {:<10} n={:<6} {}",
                m.def.name, m.def.unit, m.samples, m.how
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "  failed_share {share:.6} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        for failure in &self.gate_failures {
            let _ = writeln!(out, "  GATE FAILED: {failure}");
        }
        out
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`. Values are written with every digit measured.
    pub fn driver_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json(),
        )
    }

    /// The ledger's line: the driver's keys plus workload, seed and
    /// fingerprint, so two ledgers are never compared blind.
    pub fn ledger_line(&self, workload: &str, seed: u64) -> String {
        let facts: Vec<String> = self
            .fingerprint
            .iter()
            .map(|(k, v)| {
                format!(
                    "{}:{}",
                    Json::str(k.clone()).encode(),
                    Json::str(v.clone()).encode()
                )
            })
            .collect();
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"correct\":{},\"attempted\":{},\
             \"failed\":{},\"fingerprint\":{{{}}},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            facts.join(","),
            self.metrics_json(),
        )
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.def.name,
                    json_number(m.value),
                    m.def.unit
                )
            })
            .collect();
        fields.join(",")
    }
}

/// Shortest round-trip decimal of a finite value (JSON has no NaN/inf;
/// a non-finite metric is a harness bug worth stopping for).
fn json_number(value: f64) -> String {
    assert!(value.is_finite(), "metric value {value} is not a number");
    format!("{value}")
}

/// Bounds of the end-to-end metrics, read from `BENCHMARK.json`.
pub fn read_bounds(benchmark_json: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut bounds = BTreeMap::new();
    for entry in entries {
        let name = entry.get("name").and_then(Json::as_str);
        let bound = entry.get("bound").and_then(Json::as_f64);
        let (Some(name), Some(bound)) = (name, bound) else {
            return Err("an end_to_end entry lacks name or bound".to_owned());
        };
        bounds.insert(name.to_owned(), bound);
    }
    Ok(bounds)
}

/// Every run in a ledger file, as `(workload, metric) → values`.
fn read_ledger(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut runs: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("ledger line {}: {e}", n + 1))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("ledger line {} names no workload", n + 1))?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("ledger line {} has no metrics", n + 1));
        };
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("ledger line {}: {name} has no value", n + 1))?;
            runs.entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// The verdict on one (metric, workload) pair.
fn verdict(def: MetricDef, bound: f64, base: &[f64], other: &[f64]) -> &'static str {
    let (base_median, other_median) = (stats::median(base), stats::median(other));
    let worse_by = if def.higher_is_better {
        (base_median - other_median) / base_median.abs()
    } else {
        (other_median - base_median) / base_median.abs()
    };
    // Interquartile spread of the base runs as a share of their median;
    // wider than the bound means the pair cannot be resolved — unless
    // every run of B reads better than every run of A.
    let s = stats::sorted(base.to_vec());
    let spread = if s.len() >= 4 {
        (stats::percentile(&s, 75.0) - stats::percentile(&s, 25.0)) / base_median.abs()
    } else {
        0.0
    };
    let all_better = base.iter().all(|&a| {
        other
            .iter()
            .all(|&b| if def.higher_is_better { b > a } else { b < a })
    });
    if spread > bound && !all_better {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "ok"
    }
}

/// `--compare A B`: per (metric, workload) both medians, the ratio B/A
/// with its base, and the verdict against the metric's own bound.
/// Per-layer metrics have no bound and are listed without a verdict.
/// Returns the table and whether any pair is `worse`.
pub fn compare(a: &str, b: &str, bounds: &BTreeMap<String, f64>) -> Result<(String, bool), String> {
    let (runs_a, runs_b) = (read_ledger(a)?, read_ledger(b)?);
    let mut out = format!(
        "{:<18} {:<40} {:>14} {:>14} {:>18} {:>7}  verdict\n",
        "workload", "metric", "A (median)", "B (median)", "B/A", "bound"
    );
    let mut any_worse = false;
    for ((workload, name), base) in &runs_a {
        let Some(other) = runs_b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some(def) = metric_def(name) else {
            continue;
        };
        let (ma, mb) = (stats::median(base), stats::median(other));
        let ratio = if ma == 0.0 {
            "n/a (A is 0)".to_owned()
        } else {
            format!("{:.4} of {:.4}", mb / ma, ma)
        };
        let (bound_text, verdict_text) = match bounds.get(name) {
            Some(&bound) => {
                let v = if ma == 0.0 {
                    "unresolved"
                } else {
                    verdict(def, bound, base, other)
                };
                any_worse |= v == "worse";
                (format!("{:.0}%", bound * 100.0), v)
            }
            None => ("-".to_owned(), if ma == mb { "same" } else { "-" }),
        };
        let _ = writeln!(
            out,
            "{workload:<18} {name:<40} {ma:>14.4} {mb:>14.4} {ratio:>18} {bound_text:>7}  {verdict_text} (n={}/{})",
            base.len(),
            other.len(),
        );
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(name: &str, value: f64) -> Report {
        let mut report = Report::default();
        report.put(name, value, 3, "measured");
        report.count(10, 0);
        report
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = report_with("qps", 1234.5678).driver_line();
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        let qps = doc.get("metrics").unwrap().get("qps").unwrap();
        assert_eq!(qps.get("value").unwrap().as_f64(), Some(1234.5678));
        assert_eq!(qps.get("unit").unwrap().as_str(), Some("spectra/s"));
    }

    #[test]
    fn a_failed_gate_makes_the_run_incorrect() {
        let mut report = report_with("ids", 10.0);
        assert!(report.correct());
        report.gate(false, 5, || "tables differ".to_owned());
        assert!(!report.correct());
        assert_eq!(report.failed, 5);
    }

    #[test]
    fn compare_judges_each_pair_against_its_own_bound() {
        let bounds: BTreeMap<String, f64> =
            [("qps".to_owned(), 0.10), ("setup_s".to_owned(), 0.25)].into();
        let mut a = report_with("qps", 1000.0);
        a.put("setup_s", 2.0, 3, "measured");
        a.put("obs.trace_overhead_share", 0.01, 1, "derived");
        let mut b = report_with("qps", 850.0);
        b.put("setup_s", 2.2, 3, "measured");
        b.put("obs.trace_overhead_share", 0.02, 1, "derived");
        let (table, any_worse) =
            compare(&a.ledger_line("w", 1), &b.ledger_line("w", 1), &bounds).unwrap();
        assert!(any_worse);
        let line_of = |metric: &str| {
            table
                .lines()
                .find(|l| l.contains(metric))
                .unwrap()
                .to_owned()
        };
        assert!(line_of("qps").contains("worse"), "{table}");
        assert!(line_of("setup_s").contains("ok"), "{table}");
        assert!(!line_of("obs.trace_overhead_share").contains("worse"));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let def = metric_def("qps").unwrap();
        let base = [100.0, 80.0, 120.0, 90.0, 110.0];
        assert_eq!(verdict(def, 0.10, &base, &[95.0]), "unresolved");
        assert_eq!(verdict(def, 0.10, &base, &[130.0, 140.0]), "ok");
        assert_eq!(verdict(def, 0.50, &base, &[40.0]), "worse");
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let text = r#"{"end_to_end":[{"name":"qps","unit":"1/s","better":"higher","bound":0.1}]}"#;
        assert_eq!(read_bounds(text).unwrap().get("qps"), Some(&0.1));
        assert!(read_bounds("{}").is_err());
    }
}

//! What one run reports: metrics, operation counts, check outcomes and a
//! detail document, rendered as the result line the benchmark ends with.

use crate::catalog;
use fascia_obs::json::ObjectWriter;

/// The run's findings.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or did not end `completed`.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// Extra numbers printed on the detail line (not compared by bound).
    detail: Vec<(String, String)>,
}

impl Report {
    /// Records a metric; a later value of the same name replaces it.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records an output check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds a number to the detail line.
    pub fn detail_f64(&mut self, key: &str, value: f64) {
        let mut s = String::new();
        fascia_obs::json::write_f64(&mut s, value);
        self.detail.push((key.to_string(), s));
    }

    /// Adds a string (or `null`) to the detail line.
    pub fn detail_str(&mut self, key: &str, value: Option<&str>) {
        let mut s = String::new();
        match value {
            Some(v) => fascia_obs::json::write_str(&mut s, v),
            None => s.push_str("null"),
        }
        self.detail.push((key.to_string(), s));
    }

    /// Checks that exactly the metrics of the mode were measured, each
    /// with its declared unit and a finite value.
    pub fn check_catalog(&mut self, trace: bool) {
        let expected = catalog::expected(trace);
        for (name, unit) in &expected {
            match self.metrics.iter().find(|(n, _, _)| n == name) {
                None => self
                    .failures
                    .push(format!("metric {name} was not measured")),
                Some((_, v, u)) if u != unit || !v.is_finite() => self.failures.push(format!(
                    "metric {name} = {v} {u}, expected a finite value in {unit}"
                )),
                Some(_) => {}
            }
        }
        self.metrics
            .retain(|(n, _, _)| expected.iter().any(|(e, _)| e == n));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The detail line: provenance and numbers outside the contract.
    pub fn detail_line(&self) -> String {
        let mut w = ObjectWriter::new();
        for (k, raw) in &self.detail {
            w.field_raw(k, raw);
        }
        w.finish()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, trace: bool) -> String {
        let mut metrics = ObjectWriter::new();
        for (name, _) in catalog::expected(trace) {
            if let Some((_, v, u)) = self.metrics.iter().find(|(n, _, _)| *n == name) {
                let mut m = ObjectWriter::new();
                m.field_f64("value", *v).field_str("unit", u);
                metrics.field_raw(&name, &m.finish());
            }
        }
        let mut w = ObjectWriter::new();
        w.field_bool("correct", self.correct())
            .field_u64("attempted", self.attempted.max(1))
            .field_u64("failed", self.failed)
            .field_raw("metrics", &metrics.finish());
        w.finish()
    }
}

/// The value at quantile `q` of `xs` by nearest rank (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `VmHWM` of this process in MB (peak resident set size).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

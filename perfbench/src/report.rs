//! The result line every run prints last, and the metric table above it.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value, full precision.
    pub value: f64,
}

/// What one run measured: correctness, operation counts and metrics.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (accepted steps, or submitted jobs for serve).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Failed checks, one line each (printed before the result line).
    pub problems: Vec<String>,
}

impl RunReport {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Records a correctness check; a failed one clears `correct`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.problems.push(what());
        }
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Human-readable table: one `name value unit` line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "  correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        for p in &self.problems {
            let _ = writeln!(out, "  CHECK FAILED: {p}");
        }
        out
    }

    /// The one-line JSON result. Non-finite values are printed as `null`
    /// (JSON has no NaN), which `run.py` rejects as a missing number.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_parses_and_keeps_full_precision() {
        let mut r = RunReport {
            correct: true,
            attempted: 3,
            ..Default::default()
        };
        r.push("setup_s", "s", 0.123_456_789_012_345);
        r.push("bad", "ms", f64::NAN);
        let line = r.json();
        let j = blast_repro::blast_telemetry::chrome::parse_json(&line).expect("valid JSON");
        let m = j
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric present");
        assert_eq!(
            m.get("value").and_then(|v| v.as_f64()),
            Some(0.123_456_789_012_345)
        );
        assert!(line.contains("\"bad\": {\"value\": null"));
    }
}

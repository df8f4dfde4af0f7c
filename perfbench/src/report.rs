//! The run's report: human-readable lines naming every measured
//! quantity with its unit and sample count, then one JSON line.

/// Operations attempted and failed, output checks, and metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    checks_failed: bool,
    metrics: Vec<(String, f64, &'static str)>,
    lines: Vec<String>,
}

impl Report {
    /// Records an output check; a failed check counts as one failed
    /// operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.failed += 1;
            self.checks_failed = true;
            self.lines.push(format!("check FAILED: {what}"));
        }
    }

    /// A metric of the final JSON line (also listed among the lines).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.note(name, value, unit, n);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A named quantity printed with its unit and sample count.
    pub fn note(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        self.lines.push(format!("{name} = {value:.6} {unit} (n={n})"));
    }

    /// Notes the median and upper percentiles of `samples`.
    pub fn percentiles(&mut self, name: &str, samples: &crate::stats::Series) {
        for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p95", 0.95), ("p99", 0.99)] {
            self.note(&format!("{name}.{label}"), samples.quantile(q), "ms", samples.len());
        }
    }

    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Prints the lines, then the result object as the last line.
    pub fn print(&self) {
        for l in &self.lines {
            println!("{l}");
        }
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let correct = !self.checks_failed && self.failed == 0 && finite && self.attempted > 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

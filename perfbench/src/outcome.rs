//! The result of one benchmark run and its printed form.

use std::fmt::Write as _;

use crate::catalog::{END_TO_END, PER_LAYER};

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (pushed chunks, or decoded captures).
    pub attempted: u64,
    /// Operations that failed (chunks dropped or shed in any worker).
    pub failed: u64,
    /// Measured values by metric name.
    pub values: Vec<(&'static str, f64)>,
    /// Correctness problems; the run is correct when this is empty.
    pub problems: Vec<String>,
    /// Human-readable context lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Flag a correctness problem.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Add a context line.
    pub fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }

    /// Whether the run's outputs were correct.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The one-line JSON result: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding every end-to-end
    /// metric (untraced run) or every per-layer metric (traced run).
    ///
    /// # Panics
    /// If a catalog metric was never recorded or is not finite — a bug
    /// in the workload, not a property of the program measured.
    pub fn result_json(&self, traced: bool) -> String {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, d) in defs.iter().enumerate() {
            let v = self
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not recorded", d.name));
            assert!(v.is_finite(), "metric {} is not finite: {v}", d.name);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

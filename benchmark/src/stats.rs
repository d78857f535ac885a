//! Sample sets and the summary statistics the report prints.

use std::time::{Duration, Instant};

/// Timings (or any per-operation values) collected during one run.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, v: impl IntoIterator<Item = f64>) {
        self.0.extend(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The `q` quantile with linear interpolation between order
    /// statistics (the same rule as Python's `statistics.quantiles`
    /// "inclusive" method). An empty set reads 0.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    /// The 90th percentile, or `None` when fewer than ten samples lie
    /// beyond it (fewer than 100 samples in all).
    pub fn p90(&self) -> Option<f64> {
        (self.0.len() >= 100).then(|| self.quantile(0.9))
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Whether a run measuring whole passes for `budget` starts another pass:
/// always while fewer than `min_passes` ran, later only when a pass of the
/// average length so far still ends within the budget.
pub fn another_pass(start: Instant, passes: u32, min_passes: u32, budget: Duration) -> bool {
    let elapsed = start.elapsed();
    passes < min_passes.max(1) || elapsed + elapsed / passes <= budget
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, from procfs.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!(s.p90().is_none());
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }
}

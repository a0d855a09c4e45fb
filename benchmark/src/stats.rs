//! Order statistics over a run's per-rep values.

use crate::json::Json;

/// Median and spread of one metric over the timed reps of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)` (the
/// "exclusive" method): the driver judges spreads with that function, so
/// the harness reports the same numbers it will be judged by.
fn quantile_exclusive(sorted: &[f64], k: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    // Position k·(n+1)/4 on a 1-based axis, clamped to the data.
    let pos = k * (n + 1);
    let j = (pos / 4).clamp(1, n - 1);
    let delta = pos as f64 / 4.0 - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

impl Summary {
    /// Summarise `values`; `None` when empty or when any value is not
    /// finite (a NaN timing must fail the run, not sort somewhere).
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        Some(Summary {
            n,
            min: v[0],
            q1: quantile_exclusive(&v, 1),
            median,
            q3: quantile_exclusive(&v, 3),
            max: v[n - 1],
        })
    }

    /// Interquartile range as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    /// (max − min) as a share of the median.
    pub fn range_share(&self) -> f64 {
        (self.max - self.min) / self.median
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::Num(self.n as f64)),
            ("min", Json::Num(self.min)),
            ("q1", Json::Num(self.q1)),
            ("median", Json::Num(self.median)),
            ("q3", Json::Num(self.q3)),
            ("max", Json::Num(self.max)),
            ("range_share", Json::Num(self.range_share())),
        ])
    }
}

/// Median of `values`; panics on an empty or non-finite input (callers
/// pass timings they took themselves).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).expect("median of a non-empty, finite sample").median
}

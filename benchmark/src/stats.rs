//! The estimators: floor, nearest-rank percentiles, and the spread
//! between two quartiles that `compare` judges run sets by.
//!
//! On a shared host interference only ever *adds* time to a sample, so
//! the smallest of many samples of the same work is what the code
//! costs; the median of the same samples moves with the neighbours'
//! load (README.md, "Why floors").

use std::collections::BTreeMap;
use warp_wire::json::{obj, Json};

/// Smallest sample (NaN for an empty slice).
pub fn floor(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it (NaN for an empty slice).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile that still has at least ten samples beyond
/// it, as `(percent, value)`; `None` below twenty samples, where such
/// a percentile would sit under the median.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 20 {
        return None;
    }
    let percent = ((n - 10) * 100 / n) as f64;
    Some((percent, percentile(samples, percent)))
}

/// Median with the mean of the two middle samples for even counts, as
/// Python's `statistics.median`.
pub fn median(samples: &[f64]) -> f64 {
    let (_, q2, _) = quartiles(samples);
    q2
}

/// The three quartile cut points of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which
/// is what the driver uses to judge spread. Needs two samples; one
/// sample is its own three quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the first and third quartile as a share of the
/// median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(samples);
    (q3 - q1) / q2
}

/// Every sample the run took, by metric name.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Every sample, for the result file of `--out`.
    pub fn to_json(&self) -> Json {
        obj(self
            .0
            .iter()
            .map(|(name, v)| (*name, Json::Arr(v.iter().map(|x| Json::Num(*x)).collect())))
            .collect())
    }

    /// One audit line per sampled name: the floor next to the count,
    /// quartiles and tail it can be checked against.
    pub fn audit(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.0 {
            let (q1, q2, q3) = quartiles(v);
            let tail = tail(v).map_or("-".to_string(), |(p, t)| format!("p{p:.0}={t:.6}"));
            out.push_str(&format!(
                "  {name:<24} n={:<4} floor={:.6} p10={:.6} p25={q1:.6} p50={q2:.6} p75={q3:.6} tail {tail}\n",
                v.len(),
                floor(v),
                percentile(v, 10.0),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_on_known_vectors() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 5.0), 15.0);
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        // Ten samples: p10 is the smallest, p11 the second smallest.
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&ten, 10.0), 1.0);
        assert_eq!(percentile(&ten, 11.0), 2.0);
        assert!(percentile(&[], 10.0).is_nan());
    }

    #[test]
    fn floor_is_the_minimum_and_ignores_order() {
        assert_eq!(floor(&[0.519, 0.363, 0.341, 0.4]), 0.341);
        assert!(floor(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 19]), None);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        // 30 of 40 samples at or below it, 10 beyond.
        assert_eq!(tail(&v), Some((75.0, 30.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(spread(&v), 1.0);
    }
}

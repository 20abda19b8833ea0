//! Order statistics, the metric table and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// The percentiles a tail is chosen from, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// How many samples must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `pct` among `n` samples. The
/// epsilon keeps `99.9% of 10000` at rank 9990 despite rounding.
fn rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize
}

/// Nearest-rank percentile of ascending `sorted` (`pct` in `0..=100`).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(pct, sorted.len()).min(sorted.len()) - 1]
}

/// The median of unordered samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples strictly above its rank, and its value. `None` when even the
/// median has fewer than ten samples beyond it.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER.iter().find_map(|&pct| {
        let rank = rank(pct, sorted.len());
        (rank <= sorted.len() && sorted.len() - rank >= MIN_BEYOND).then(|| (pct, sorted[rank - 1]))
    })
}

/// A finished distribution: median, tail and sample count.
#[derive(Clone, Copy, Debug)]
pub struct Dist {
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
    pub n: usize,
}

impl Dist {
    /// Summarises unordered samples. With too few samples for a tail the
    /// maximum stands in, labelled as the 100th percentile.
    pub fn of(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        let (tail_pct, tail) = tail(&samples).unwrap_or((100.0, *samples.last().expect("samples")));
        Dist { p50: percentile(&samples, 50.0), tail_pct, tail, n: samples.len() }
    }
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A metric name may only use letters, digits, `_`, `.` and `-`, must start
/// with a letter or digit and is at most 64 characters long.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name {name:?}");
        assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.0.push((name, value, unit));
    }

    /// Adds `<prefix>.p50`, `<prefix>.tail`, the tail's percentile
    /// `<prefix>.tail_pct` and the sample count `<prefix>.n`.
    pub fn put_dist(&mut self, prefix: &str, dist: Dist, unit: &'static str) {
        self.put(format!("{prefix}.p50"), dist.p50, unit);
        self.put(format!("{prefix}.tail"), dist.tail, unit);
        self.put(format!("{prefix}.tail_pct"), dist.tail_pct, "%");
        self.put(format!("{prefix}.n"), dist.n as f64, "count");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        format!("{value:?}")
    } else {
        "null".into()
    }
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
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
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ascending = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        assert_eq!(tail(&ascending(1000)), Some((99.0, 990.0)));
        // 999 samples: p99 ranks 990 and leaves 9 beyond, so p90 it is.
        assert_eq!(tail(&ascending(999)), Some((90.0, 900.0)));
        assert_eq!(tail(&ascending(10_000)), Some((99.9, 9990.0)));
        assert_eq!(tail(&ascending(100_000)), Some((99.99, 99_990.0)));
        assert_eq!(tail(&ascending(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&ascending(19)), None);
        for n in [20, 99, 100, 101, 1000, 5000, 64_600] {
            let sorted = ascending(n);
            let (pct, value) = tail(&sorted).expect("enough samples");
            let beyond = sorted.iter().filter(|&&v| v > value).count();
            assert!(beyond >= MIN_BEYOND, "n={n}: {beyond} beyond p{pct}");
            if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&p| p > pct) {
                let next = percentile(&sorted, higher);
                let beyond = sorted.iter().filter(|&&v| v > next).count();
                assert!(beyond < MIN_BEYOND, "n={n}: p{higher} also qualifies");
            }
        }
    }

    #[test]
    fn percentile_and_median_use_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 50.0), 2.0);
        assert_eq!(percentile(&sorted, 100.0), 4.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn short_distributions_fall_back_to_the_maximum() {
        let dist = Dist::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((dist.p50, dist.tail_pct, dist.tail, dist.n), (2.0, 100.0, 3.0, 3));
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("modelcheck.exh.family_busy_s.cycle-3"));
        assert!(valid_name("setup_s"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("scenario/us"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn every_listed_metric_name_is_valid() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let listing = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names: Vec<&str> = listing
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        assert!(names.len() > 70, "workloads and metrics are listed");
        for name in names {
            assert!(valid_name(name), "invalid name {name:?}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut metrics = Metrics::default();
        metrics.put("wall_s", 1.25, "s");
        metrics.put("runs", 3.0, "count");
        let line = Outcome { correct: true, attempted: 3, failed: 0, metrics }.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": \
             {\"value\": 1.25, \"unit\": \"s\"}, \"runs\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_refused() {
        Metrics::default().put("bad name", 1.0, "s");
    }
}

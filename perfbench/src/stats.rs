//! Order statistics for timing samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, together with the
//! sample count, so a tail figure is never read off a handful of samples.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Median of unsorted samples (the mean of the middle two for an even
/// count). Returns `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median, the reportable tail, and the sample count of one timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median sample.
    pub median: f64,
    /// `(percentile, value)` of the highest tail percentile with at least
    /// [`MIN_BEYOND`] samples beyond it; `None` when even the median has
    /// fewer.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let s = sorted(samples);
        let n = s.len();
        let tail = TAILS
            .iter()
            .find(|&&p| n - 1 - rank(n, p) >= MIN_BEYOND)
            .map(|&p| (p, percentile(&s, p)));
        Summary {
            n,
            median: median(&s),
            tail,
        }
    }

    /// One report line: `name median p<k> n=<count> unit`.
    pub fn line(&self, name: &str, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p}={v:.6}"),
            None => format!("(no percentile has {MIN_BEYOND} samples beyond it)"),
        };
        format!(
            "{name}: median={:.6} {tail} n={} {unit}",
            self.median, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 20 samples: the median has exactly 10 beyond it, p90 only 2.
        let s = Summary::of(&ramp(20));
        assert_eq!(s.n, 20);
        assert_eq!(s.median, 10.5);
        assert_eq!(s.tail, Some((50.0, 10.0)));
        // 19 samples: not even the median has 10 beyond it.
        assert_eq!(Summary::of(&ramp(19)).tail, None);
        // 100 samples: p90 has exactly 10 beyond it, p99 only 1.
        assert_eq!(Summary::of(&ramp(100)).tail, Some((90.0, 90.0)));
        // 1000 samples: p99 has 10 beyond it.
        assert_eq!(Summary::of(&ramp(1000)).tail, Some((99.0, 990.0)));
    }

    #[test]
    fn report_line_states_the_count() {
        let line = Summary::of(&ramp(100)).line("solve_s", "s");
        assert!(line.contains("n=100"), "{line}");
        assert!(line.contains("p90="), "{line}");
        let short = Summary::of(&ramp(3)).line("solve_s", "s");
        assert!(
            short.contains("n=3") && short.contains("no percentile"),
            "{short}"
        );
    }
}

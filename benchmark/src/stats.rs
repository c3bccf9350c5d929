//! Percentiles and the reporting rule for tails.

/// The percentiles a timing may be reported at, in hundredths of a
/// percent (p50, p90, p99, p99.9, p99.99).
const LADDER_BP: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Samples strictly beyond the nearest-rank `bp` percentile of `n`
/// samples (`bp` in hundredths of a percent).
fn beyond(n: usize, bp: u64) -> u64 {
    let n = n as u64;
    n - (bp * n).div_ceil(10_000)
}

/// The highest percentile of the ladder (p50 … p99.99) that has at
/// least ten samples beyond it among `n` samples, in percent; `None`
/// when even the median lacks them.
pub fn supported_tail(n: usize) -> Option<f64> {
    LADDER_BP
        .iter()
        .rev()
        .find(|&&bp| beyond(n, bp) >= 10)
        .map(|&bp| bp as f64 / 100.0)
}

/// Nearest-rank percentile `p` (in percent) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let bp = (p * 100.0).round() as u64;
    let rank = (bp * sorted.len() as u64).div_ceil(10_000) as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (NaN-free input).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    values
}

/// Median of `values` (non-empty).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A latency distribution summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dist {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// The highest percentile the sample supports (see
    /// [`supported_tail`]), and its value.
    pub tail: Option<(f64, f64)>,
}

impl Dist {
    /// Summarises `values` (non-empty).
    pub fn of(values: Vec<f64>) -> Dist {
        let s = sorted(values);
        let tail = supported_tail(s.len()).map(|p| (p, percentile_sorted(&s, p)));
        Dist {
            n: s.len(),
            p50: percentile_sorted(&s, 50.0),
            p99: percentile_sorted(&s, 99.0),
            tail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}

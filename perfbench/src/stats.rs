//! Order statistics for the benchmark's samples.
//!
//! A tail percentile is only as good as the samples behind it: the
//! percentile helper refuses any percentile that does not have at least
//! [`MIN_BEYOND`] samples strictly beyond it, so a p90 needs 100 samples and
//! a p99 needs 1 000.

use std::fmt;

/// The fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile the samples cannot support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported {
    /// The requested percentile, in percent.
    pub percent: u32,
    /// How many samples there were.
    pub samples: usize,
    /// How many samples that percentile needs.
    pub needed: usize,
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} needs at least {} samples ({MIN_BEYOND} beyond it), got {}",
            self.percent, self.needed, self.samples
        )
    }
}

/// The 1-based nearest-rank position of percentile `percent` among `n`
/// samples: `ceil(percent · n / 100)`, at least 1.
fn rank(percent: u32, n: usize) -> usize {
    (percent as usize * n).div_ceil(100).max(1)
}

/// The fewest samples that support percentile `percent` (1..=99).
pub fn min_samples(percent: u32) -> usize {
    (1..)
        .find(|&n| n - rank(percent, n).min(n) >= MIN_BEYOND)
        .expect("a finite bound exists")
}

/// Nearest-rank percentile `percent` (1..=99) of `samples`, refused unless
/// at least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], percent: u32) -> Result<f64, Unsupported> {
    assert!(
        (1..=99).contains(&percent),
        "percentile {percent} is outside 1..=99"
    );
    let n = samples.len();
    let position = rank(percent, n);
    if n < position || n - position < MIN_BEYOND {
        return Err(Unsupported {
            percent,
            samples: n,
            needed: min_samples(percent),
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[position - 1])
}

/// The median of `samples` (mean of the middle two for an even count). Used
/// for aggregates over a run's passes, where no tail is reported.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the helper must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        assert_eq!(min_samples(50), 20);
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(99), 1000);
        for (percent, needed) in [(50, 20), (90, 100), (99, 1000)] {
            let short = percentile(&ramp(needed - 1), percent).expect_err("one sample short");
            assert_eq!(
                short,
                Unsupported {
                    percent,
                    samples: needed - 1,
                    needed
                }
            );
            let value = percentile(&ramp(needed), percent).expect("exactly enough samples");
            let beyond = ramp(needed).iter().filter(|&&v| v > value).count();
            assert_eq!(
                beyond, MIN_BEYOND,
                "p{percent} leaves exactly ten samples beyond it"
            );
        }
    }

    #[test]
    fn percentiles_refuse_empty_input_and_rank_by_nearest_rank() {
        assert!(percentile(&[], 50).is_err());
        assert_eq!(percentile(&ramp(100), 50), Ok(50.0));
        assert_eq!(percentile(&ramp(100), 90), Ok(90.0));
        assert_eq!(percentile(&ramp(1000), 99), Ok(990.0));
    }

    #[test]
    #[should_panic(expected = "outside 1..=99")]
    fn the_maximum_is_not_a_percentile() {
        let _ = percentile(&ramp(5000), 100);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

//! Order statistics over a handful of timed repetitions.

/// Median, quartiles and range of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Summarise `samples` (at least one). Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` — the exclusive method — so the
/// spread printed here is the spread the driver computes.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of no samples");
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are comparable"));
    let n = s.len();
    let quartile = |i: usize| -> f64 {
        if n == 1 {
            return s[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    let median = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    Summary {
        n,
        min: s[0],
        q1: quartile(1),
        median,
        q3: quartile(3),
        max: s[n - 1],
    }
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        let s = summarize(&[64.0, 1.0, 8.0, 2.0, 32.0, 4.0, 16.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 8.0, 32.0));
        assert_eq!(s.spread(), 30.0 / 8.0);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn one_sample_is_its_own_summary() {
        let s = summarize(&[5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (5.0, 5.0, 5.0, 0.0));
    }
}

//! Order statistics over small samples of host-time measurements.

/// The `i`-th quartile cut point of an ascending-sorted, non-empty sample,
/// exactly as Python's `statistics.quantiles(values, n=4)` places it (its
/// default "exclusive" method) — the rule the driver's spread uses.
fn quartile_sorted(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let j = (i * (n + 1) / 4).clamp(1, n - 1);
    let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Median with quartiles and sample count — the form every host-time
/// figure is reported in.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `values`; `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Quartiles> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Quartiles {
            q1: quartile_sorted(&sorted, 1),
            median: quartile_sorted(&sorted, 2),
            q3: quartile_sorted(&sorted, 3),
            n: sorted.len(),
        })
    }

    /// Interquartile range as a share of the median — the run-to-run
    /// spread `compare` holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values`; 0 for an empty sample (a layer the workload never
/// called).
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).map_or(0.0, |q| q.median)
}

/// `100 × (a − b) / b`, or 0 when `b` is 0.
pub fn pct_over(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        100.0 * (a - b) / b
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (1.25, 2.5, 3.75, 4));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        let q = Quartiles::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (1.0, 3.0, 5.0, 3));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&ten).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 9], n=4) == [-1.0, 5.0, 11.0]
        let q = Quartiles::of(&[9.0, 1.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (-1.0, 5.0, 11.0));
        let q = Quartiles::of(&[7.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
        assert!(Quartiles::of(&[]).is_none());
    }

    #[test]
    fn spread_is_the_iqr_over_the_median() {
        let q = Quartiles::of(&[9.0, 9.5, 10.0, 10.5, 11.0]).unwrap();
        assert!((q.spread() - 0.15).abs() < 1e-12);
        assert_eq!(Quartiles::of(&[0.0, 0.0]).unwrap().spread(), 0.0);
    }

    #[test]
    fn median_of_nothing_and_guarded_ratios_are_zero() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[2.0, 8.0]), 5.0);
        assert_eq!(pct_over(3.0, 0.0), 0.0);
        assert_eq!(pct_over(11.0, 10.0), 10.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}

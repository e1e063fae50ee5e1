//! Order statistics for timings: medians, nearest-rank percentiles that
//! carry their sample counts, and geometric means of ratios.

/// The median of `values` (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A nearest-rank percentile together with how many samples it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank: a tail percentile
    /// is only trustworthy with at least [`MIN_TAIL`] of them.
    pub beyond: usize,
}

/// Samples a tail percentile needs beyond its rank to be reported as
/// resolved.
pub const MIN_TAIL: usize = 10;

impl Percentile {
    /// Whether enough samples lie beyond the rank.
    pub fn resolved(&self) -> bool {
        self.beyond >= MIN_TAIL
    }

    /// The value with its sample count, for the run record.
    pub fn to_json(self) -> String {
        format!(
            "{{\"value\":{},\"samples\":{},\"beyond\":{},\"resolved\":{}}}",
            self.value,
            self.samples,
            self.beyond,
            self.resolved()
        )
    }
}

/// The `p`-th percentile (0 < p ≤ 100) by nearest rank; `None` when
/// `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile {
        value: v[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Geometric mean of positive values, each counted `weights[i]` times;
/// `None` when the weights sum to zero.
pub fn geomean(values: &[f64], weights: &[f64]) -> Option<f64> {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let log_sum: f64 = values.iter().zip(weights).map(|(v, w)| w * v.ln()).sum();
    Some((log_sum / total).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_reports_its_samples_and_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&v, 90.0).unwrap();
        assert_eq!(p.value, 90.0);
        assert_eq!(p.samples, 100);
        assert_eq!(p.beyond, 10);
        assert!(p.resolved());

        let p50 = percentile(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (50.0, 50));
    }

    #[test]
    fn a_short_sample_leaves_p90_unresolved() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let p = percentile(&v, 90.0).unwrap();
        assert_eq!((p.value, p.samples, p.beyond), (18.0, 20, 2));
        assert!(!p.resolved());
        assert_eq!(percentile(&[], 90.0), None);
        assert_eq!(percentile(&[7.0], 90.0).unwrap().value, 7.0);
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean(&[0.5, 2.0], &[1.0, 1.0]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
        let w = geomean(&[0.5, 2.0], &[1.0, 3.0]).unwrap();
        assert!((w - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(geomean(&[], &[]), None);
    }
}

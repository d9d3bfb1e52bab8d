//! Order statistics over small sample sets.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks; `NaN` for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median, minimum, maximum and count of a timing sample set, as the
/// human table prints them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

pub fn summarize(samples: &[f64]) -> Summary {
    Summary {
        median: median(samples),
        min: samples.iter().copied().fold(f64::INFINITY, f64::min),
        max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: samples.len(),
    }
}

/// `|a − b| ÷ max(|a|, |b|)`, 0 when both are 0.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.95), 96.0);
        assert_eq!(quantile(&v, 1.0), 101.0);
        assert_eq!(quantile(&[10.0, 20.0], 0.25), 12.5);
    }

    #[test]
    fn summary_reports_extremes_and_count() {
        let s = summarize(&[5.0, 1.0, 9.0]);
        assert_eq!(
            s,
            Summary {
                median: 5.0,
                min: 1.0,
                max: 9.0,
                n: 3
            }
        );
    }

    #[test]
    fn relative_difference_is_symmetric_and_zero_safe() {
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(rel_diff(100.0, 95.0), 0.05);
        assert_eq!(rel_diff(95.0, 100.0), 0.05);
    }
}

//! Order statistics over per-op samples.

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks); `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile of the ladder with at least ten samples above
/// it: `(percentile, value, samples beyond)`. `None` with fewer than
/// twenty samples, where no percentile above the median qualifies.
pub fn tail(values: &[f64]) -> Option<(f64, f64, usize)> {
    const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];
    let n = values.len();
    LADDER.iter().find_map(|&p| {
        let beyond = n - ((p * n as f64).ceil() as usize).min(n);
        (beyond >= 10).then(|| (p, quantile(values, p), beyond))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let (p, _, beyond) = tail(&v).expect("1000 samples");
        assert_eq!(p, 0.99);
        assert_eq!(beyond, 10);
        assert!(tail(&v[..15]).is_none());
    }
}

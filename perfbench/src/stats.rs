//! Order statistics over timing samples.

/// Linear-interpolated quantile `q` in `[0, 1]` of the finite `values`
/// (NaN when there are none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    v[lo] + (v[hi] - v[lo]) * frac
}

/// Median of the finite `values` (NaN when there are none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

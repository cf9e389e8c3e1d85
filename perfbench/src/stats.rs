//! Order statistics over repeated samples.

/// Median and quartiles of a sample set, computed the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so a record's spread reads the same as a reviewer's script.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Quartiles of `values` (need not be sorted). One value is its own
/// median and quartiles; no values is a bug in the caller.
pub fn spread(values: &[f64]) -> Spread {
    assert!(!values.is_empty(), "spread of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return Spread {
            q1: v[0],
            median: v[0],
            q3: v[0],
        };
    }
    let n = v.len();
    let m = n + 1;
    let cut = |i: usize| {
        // Exact integer rescaling; `delta` may leave [0, 4] at the clamped
        // ends, which extrapolates exactly as Python does.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Spread {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    spread(values).median
}

/// The `q`-quantile of `values` (need not be sorted), interpolated
/// linearly between the two nearest order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = spread(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = spread(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
    }
}

//! Order statistics of repeated measurements.

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let [q1, median, q3] = quartiles(values)?;
        Some(Summary { median, q1, q3, n: values.len() })
    }
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method), so the benchmark's own spreads match
/// the ones the acceptance rule computes, extrapolating past the ends for
/// small samples as Python does. One value yields itself three times.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some([data[0]; 3]),
        _ => {
            let m = ld as i64 + 1;
            let mut out = [0.0; 3];
            for (k, slot) in out.iter_mut().enumerate() {
                let i = k as i64 + 1;
                let j = (i * m / 4).clamp(1, ld as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}

/// Median under the same method (the middle cut point).
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|q| q[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 4.0, 2.0, 1.0]), Some([1.25, 3.0, 7.0]));
        assert_eq!(quartiles(&[5.0]), Some([5.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }
}

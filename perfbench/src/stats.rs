//! Order statistics used by the harness: percentiles, the tail rule,
//! op-aligned first quartiles over passes, and the quartile spread the
//! repeatability check is judged by.

/// Sort a sample in place (timings are finite, so total order holds).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
}

/// Linear-interpolated percentile (`p` in `[0, 100]`) of a sorted,
/// non-empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// The highest of p99/p97/p95/p90 that leaves at least ten of `n`
/// samples beyond it; `None` when even p90 does not (fewer than 100
/// samples), in which case no tail is worth reporting.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.0, 97.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

/// Per-op-index first quartile over passes: `passes[p][i]` is op `i`'s
/// time in pass `p`; every pass runs the same op sequence. A neighbour
/// on the shared host only ever adds time to an op, so the samples below
/// the median agree better from run to run than the median does; the
/// quartile, unlike the minimum, still outvotes a sample that an
/// unluckily slow calibration sample scaled down too far.
pub fn op_aligned_quartile(passes: &[Vec<f64>]) -> Vec<f64> {
    let ops = passes.first().map_or(0, Vec::len);
    assert!(
        passes.iter().all(|p| p.len() == ops),
        "passes disagree on the op count"
    );
    let mut column = Vec::with_capacity(passes.len());
    (0..ops)
        .map(|i| {
            column.clear();
            column.extend(passes.iter().map(|p| p[i]));
            sort(&mut column);
            percentile(&column, 25.0)
        })
        .collect()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — the contract's repeatability check uses
/// exactly these, so `--repeat` must too.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_rule_needs_ten_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(215), Some(95.0));
        assert_eq!(tail_percentile(480), Some(97.0));
        assert_eq!(tail_percentile(999), Some(97.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1285), Some(99.0));
    }

    #[test]
    fn op_aligned_quartile_is_per_index() {
        let passes = vec![
            vec![1.0, 10.0, 100.0],
            vec![3.0, 30.0, 300.0],
            vec![2.0, 20.0, 200.0],
            vec![9.0, 90.0, 900.0],
            vec![4.0, 40.0, 400.0],
        ];
        assert_eq!(op_aligned_quartile(&passes), vec![2.0, 20.0, 200.0]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}

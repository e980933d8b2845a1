//! Order statistics and interval arithmetic shared by the report and the
//! trace analysis.

/// Linear-interpolated quantile of `values` at `q` in `[0, 1]` (the
/// "inclusive" definition: q = 0 is the minimum, q = 1 the maximum).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median with first and third quartiles, plus the sample count behind them.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: median(values),
        q1: quantile(values, 0.25),
        q3: quantile(values, 0.75),
        n: values.len(),
    }
}

/// The percentile ladder a tail is reported on.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest ladder percentile that leaves at least `min_beyond` of `n`
/// samples strictly above its rank, i.e. `n · (1 − p/100) ≥ min_beyond`.
/// `None` when even the median leaves fewer.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= min_beyond as f64 - 1e-9)
}

/// Half-open interval `[start, end)` in nanoseconds.
pub type Interval = (u64, u64);

/// Sorts and merges `intervals` into disjoint, ascending intervals.
pub fn merge(mut intervals: Vec<Interval>) -> Vec<Interval> {
    intervals.retain(|&(s, e)| e > s);
    intervals.sort_unstable();
    let mut out: Vec<Interval> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length covered by the union of `intervals`.
pub fn union_len(intervals: &[Interval]) -> u64 {
    merge(intervals.to_vec()).iter().map(|(s, e)| e - s).sum()
}

/// `intervals` clipped to `window`, dropping the parts outside it.
pub fn clip(intervals: &[Interval], window: Interval) -> Vec<Interval> {
    intervals
        .iter()
        .map(|&(s, e)| (s.max(window.0), e.min(window.1)))
        .filter(|&(s, e)| e > s)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19, 10), None);
        assert_eq!(tail_percentile(20, 10), Some(50.0));
        assert_eq!(tail_percentile(39, 10), Some(50.0));
        assert_eq!(tail_percentile(40, 10), Some(75.0));
        assert_eq!(tail_percentile(100, 10), Some(90.0));
        assert_eq!(tail_percentile(199, 10), Some(90.0));
        assert_eq!(tail_percentile(200, 10), Some(95.0));
        assert_eq!(tail_percentile(1000, 10), Some(99.0));
        assert_eq!(tail_percentile(10_000, 10), Some(99.9));
        // The chosen rank really has ten samples above it.
        for n in [20, 57, 100, 333, 1000, 4321] {
            let p = tail_percentile(n, 10).unwrap();
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let cut = quantile(&samples, p / 100.0);
            assert!(samples.iter().filter(|&&x| x > cut).count() >= 10, "n={n}");
        }
    }

    #[test]
    fn union_merges_overlaps_and_ignores_empty() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 25), (7, 7)]), 20);
        assert_eq!(union_len(&[(20, 25), (0, 10), (10, 12)]), 17);
        assert_eq!(merge(vec![(3, 4), (1, 2), (2, 3)]), vec![(1, 4)]);
        // Nested intervals count once.
        assert_eq!(union_len(&[(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn clip_keeps_only_the_window() {
        assert_eq!(
            clip(&[(0, 10), (15, 30), (40, 50)], (5, 20)),
            vec![(5, 10), (15, 20)]
        );
    }
}

//! Order statistics used by every workload.
//!
//! Timings are reported as a median and a *tail*: the highest percentile
//! that still has at least [`TAIL_BEYOND`] samples above it, capped at
//! [`TAIL_CAP`]. With 45 samples that is the 11th largest value (p77.8);
//! from 500 samples on it is p98. The percentile and the sample count
//! travel with the value so a reader knows which tail was measured.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;
/// The highest percentile a tail reports. Not p99: in `durable_recover`
/// about 1% of arrivals write a checkpoint right after a publication
/// (~150 ms, against ~100 ms for a publication alone), so p99 sits on the
/// edge between those two groups and flipped between them from run to
/// run (p99 read 104 or 132 ms on unchanged code); p98 lies inside the
/// publication group.
pub const TAIL_CAP: f64 = 0.98;

/// Sort a sample ascending (total order: NaN sorts last and is caught by
/// the report's finiteness check).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Median of an ascending sample (mean of the middle pair for even
/// lengths); `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some(0.5 * (sorted[n / 2 - 1] + sorted[n / 2])),
    }
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) of an ascending sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Sum of a sample (0 when empty; `Iterator::sum` would give -0).
pub fn sum(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |a, b| a + b)
}

/// Mean of a sample; `None` when empty.
pub fn mean(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| sum(v) / v.len() as f64)
}

/// The tail of a sample: its value, which percentile it is, how many
/// samples lie beyond it, and the sample size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub beyond: usize,
    pub samples: usize,
}

impl Tail {
    /// Which tail this is, e.g. `p98.7 of 750 samples (10 beyond)`.
    pub fn note(&self) -> String {
        format!(
            "p{:.1} of {} samples ({} beyond)",
            self.percentile, self.samples, self.beyond
        )
    }
}

/// The highest nearest-rank percentile (at most [`TAIL_CAP`]) with at least
/// [`TAIL_BEYOND`] samples beyond it; `None` when that percentile would
/// fall below the median (fewer than `2 * TAIL_BEYOND + 1` samples).
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= 2 * TAIL_BEYOND {
        return None;
    }
    let cap_index = ((TAIL_CAP * n as f64).floor() as usize).max(1) - 1;
    let index = cap_index.min(n - 1 - TAIL_BEYOND);
    Some(Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        beyond: n - 1 - index,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 4.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 10.0]), Some(3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // Too few samples: the only percentile with ten beyond it lies
        // below the median.
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&ramp(20)), None);
        // 21 samples: the median itself, with ten beyond.
        let t = tail(&ramp(21)).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (11.0, 10, 21));
        // 45 samples: the 11th largest (p77.8).
        let t = tail(&ramp(45)).unwrap();
        assert_eq!(t.value, 35.0);
        assert_eq!(t.beyond, 10);
        assert!((t.percentile - 100.0 * 35.0 / 45.0).abs() < 1e-9);
        // Exactly 500 samples: p98 has exactly ten beyond.
        let t = tail(&ramp(500)).unwrap();
        assert_eq!((t.value, t.beyond, t.percentile), (490.0, 10, 98.0));
        // Larger samples stay capped at p98.
        let t = tail(&ramp(5000)).unwrap();
        assert_eq!((t.value, t.beyond, t.percentile), (4900.0, 100, 98.0));
    }

    #[test]
    fn tail_never_has_fewer_than_ten_beyond() {
        for n in 21..2500 {
            let v = ramp(n);
            let t = tail(&v).unwrap();
            let beyond = v.iter().filter(|&&x| x > t.value).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}: only {beyond} beyond");
            assert_eq!(beyond, t.beyond);
            assert!(t.percentile <= 100.0 * TAIL_CAP + 1e-9);
        }
    }
}

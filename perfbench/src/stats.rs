//! Small statistics helpers: medians, geometric means, in-bucket quantile
//! interpolation and the FNV-1a digest of modeled results.

use pim_sim::LatencyHistogram;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean of positive `values`; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Quantile `q` of the samples in `hist`, interpolated linearly inside the
/// log-linear bucket that holds it (read from the public
/// `LatencyHistogram::nonzero_buckets`). The program's own
/// `LatencyHistogram::quantile` returns the bucket's upper edge, a step of up
/// to 12.5 %, which is wider than the spread this benchmark must resolve.
pub fn hist_quantile(hist: &LatencyHistogram, q: f64) -> f64 {
    let count = hist.count();
    if count == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * count as f64;
    let mut below = 0u64;
    for (low, high, n) in hist.nonzero_buckets() {
        if (below + n) as f64 >= target {
            let high = high.min(hist.max());
            let within = ((target - below as f64) / n as f64).clamp(0.0, 1.0);
            // Samples spread uniformly over [low, high + 1).
            let width = (high + 1).saturating_sub(low) as f64;
            return (low as f64 + within * width).min(hist.max() as f64);
        }
        below += n;
    }
    hist.max() as f64
}

/// FNV-1a over bytes: the digest of every modeled statistic, so a change
/// that claims to touch only host speed can show its modeled results are
/// bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds the `Debug` rendering of `value` (floats print their shortest
    /// round-trip form, so equal text means equal bits).
    pub fn write_debug(&mut self, value: &impl std::fmt::Debug) {
        self.write(format!("{value:?}").as_bytes());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interpolated_quantile_stays_inside_the_bucket() {
        let mut hist = LatencyHistogram::new();
        for v in 1000..2000u64 {
            hist.record(v);
        }
        let p50 = hist_quantile(&hist, 0.5);
        assert!((p50 - 1500.0).abs() < 40.0, "p50 {p50}");
        assert!(p50 <= hist.quantile(0.5) as f64);
        assert_eq!(hist_quantile(&hist, 1.0), 1999.0);
    }
}

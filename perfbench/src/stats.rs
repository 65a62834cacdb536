//! Order statistics under the ten-beyond support rule, and the digest
//! every correctness check compares.

/// Fewest independent samples that must lie beyond a percentile before
/// the benchmark reports it.
pub const MIN_BEYOND: usize = 10;

/// Independent samples needed before percentile `pct` is supported:
/// the smallest `n` with at least [`MIN_BEYOND`] samples above rank
/// `ceil(pct * n / 100)`.
pub fn samples_needed(pct: u32) -> usize {
    (1..).find(|&n| beyond(pct, n) >= MIN_BEYOND).expect("some sample count supports pct < 100")
}

/// Samples lying beyond the nearest-rank `pct` percentile of `n`.
fn beyond(pct: u32, n: usize) -> usize {
    let rank = (pct as usize * n).div_ceil(100);
    n - rank
}

/// The `pct` percentile of `samples` (linear interpolation between
/// order statistics), or `None` when fewer than [`MIN_BEYOND`] of the
/// `independent` samples lie beyond it.
///
/// `independent` is the count of samples that vary independently. It is
/// `samples.len()` unless samples come in groups that finish together,
/// such as the jobs of one sweep, where it is the number of groups.
/// Infinite samples stand for failed or refused operations, which miss
/// every latency limit.
pub fn percentile(samples: &[f64], pct: u32, independent: usize) -> Option<f64> {
    assert!(pct < 100, "percentile {pct} out of range");
    if samples.is_empty() || beyond(pct, independent.min(samples.len())) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = pct as f64 / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if sorted[hi].is_infinite() || lo == hi {
        return Some(sorted[hi]);
    }
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of a non-empty set, with no support rule: for repeated
/// whole measurements such as set-up times, not per-operation samples.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty set");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// FNV-1a 64 over a byte stream: the digest printed for every checked
/// output and compared against references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Digest of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut d = Digest::default();
        d.update(bytes);
        d.value()
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a 64-bit value (such as another digest) into the digest.
    pub fn update_u64(&mut self, value: u64) {
        self.update(&value.to_le_bytes());
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(90), 100);
        assert_eq!(samples_needed(50), 20);
        let samples: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90, 99), None, "99 samples leave 9 beyond p90");
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(percentile(&samples, 90, 100).is_some());
    }

    #[test]
    fn grouped_samples_count_once_per_group() {
        // 400 jobs in 40 sweeps: plenty of samples, too few independent.
        let samples: Vec<f64> = (0..400).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90, 40), None, "p90 refused on 40 sweeps");
        assert!(percentile(&samples, 50, 40).is_some(), "p50 has 20 sweeps beyond it");
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let samples: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50, 101), Some(51.0));
        assert_eq!(percentile(&samples, 90, 101), Some(91.0));
        let samples: Vec<f64> = (0..200).map(|i| f64::from(i) / 2.0).collect();
        let p = percentile(&samples, 90, 200).expect("supported");
        assert!((p - 89.55).abs() < 1e-9, "{p}");
    }

    #[test]
    fn failures_count_as_missing_every_limit() {
        let mut samples: Vec<f64> = vec![1.0; 95];
        samples.extend([f64::INFINITY; 15]);
        assert_eq!(percentile(&samples, 90, 110), Some(f64::INFINITY));
        assert_eq!(percentile(&samples, 50, 110), Some(1.0));
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn digest_is_deterministic_and_order_sensitive() {
        assert_eq!(Digest::of(b"sim.ipc"), Digest::of(b"sim.ipc"));
        assert_ne!(Digest::of(b"ab"), Digest::of(b"ba"));
        assert_eq!(Digest::of(b""), Digest::default().value());
    }
}

/// An n-bit saturating counter.
///
/// Direction predictors and confidence estimators throughout the crate
/// use these. A counter with `bits` width saturates at `0` and
/// `2^bits - 1`; [`is_high`](SaturatingCounter::is_high) tests the upper
/// half (the "taken" / "confident" region).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaturatingCounter {
    value: u8,
    max: u8,
}

impl SaturatingCounter {
    /// A `bits`-wide counter starting at `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 7, or if `initial` exceeds
    /// the maximum.
    pub fn new(bits: u8, initial: u8) -> SaturatingCounter {
        assert!((1..=7).contains(&bits), "counter width {bits} out of range");
        let max = (1u8 << bits) - 1;
        assert!(initial <= max, "initial value {initial} exceeds max {max}");
        SaturatingCounter { value: initial, max }
    }

    /// A counter initialized to the weakly-not-taken midpoint.
    pub fn weak_low(bits: u8) -> SaturatingCounter {
        let c = SaturatingCounter::new(bits, 0);
        SaturatingCounter { value: c.max / 2, ..c }
    }

    /// Current raw value.
    pub fn value(self) -> u8 {
        self.value
    }

    /// Maximum raw value.
    pub fn max(self) -> u8 {
        self.max
    }

    /// `true` in the upper half of the range.
    pub fn is_high(self) -> bool {
        self.value > self.max / 2
    }

    /// Increments toward saturation.
    pub fn increment(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Decrements toward zero.
    pub fn decrement(&mut self) {
        if self.value > 0 {
            self.value -= 1;
        }
    }

    /// Moves toward taken (`true`) or not-taken (`false`).
    pub fn train(&mut self, taken: bool) {
        if taken {
            self.increment();
        } else {
            self.decrement();
        }
    }
}

/// Mixes a 64-bit value into a well-distributed hash (splitmix64 finish).
pub(crate) fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_at_both_ends() {
        let mut c = SaturatingCounter::new(2, 0);
        c.decrement();
        assert_eq!(c.value(), 0);
        for _ in 0..10 {
            c.increment();
        }
        assert_eq!(c.value(), 3);
        assert!(c.is_high());
    }

    #[test]
    fn weak_points_flip_with_one_update() {
        let mut c = SaturatingCounter::weak_low(2);
        assert!(!c.is_high());
        c.train(true);
        assert!(c.is_high());
        c.train(false);
        assert!(!c.is_high());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_panics() {
        SaturatingCounter::new(0, 0);
    }

    #[test]
    fn mix64_spreads_bits() {
        // Adjacent inputs should differ in many output bits.
        let a = mix64(1);
        let b = mix64(2);
        assert!((a ^ b).count_ones() > 16);
    }
}
